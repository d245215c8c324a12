//! The experiment harness: regenerates every figure of the paper's
//! evaluation (§6).
//!
//! Each figure has a binary in `src/bin/` (`fig04` … `fig13`, plus
//! `all_figures`); they print the same series the paper plots and write
//! CSV files under `bench_results/`. Timing experiments run on the
//! discrete-event model ([`fabric_sim::network`]); storage and
//! verification experiments run on the functional chain
//! ([`fabric_sim::FabricChain`]) and measure real bytes and real
//! operations. EXPERIMENTS.md records paper-vs-measured for every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod functional;
pub mod methods;
pub mod report;
pub mod timed;

pub use methods::Method;
pub use report::{FigureTable, Row};
