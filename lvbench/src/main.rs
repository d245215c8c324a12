//! `lvbench` — the repository's wall-clock benchmark. One invocation runs
//! one workload for `--seconds` seconds on inputs generated from `--seed`,
//! checks its outputs, and prints one result line. See `README.md` in this
//! directory for what every workload and metric means.
//!
//! ```text
//! lvbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! lvbench --spread <n> [--workload <name>] [--seed <u64>] [--seconds <n>]
//! lvbench --print-benchmark-json
//! ```

mod harness;
mod inputs;
mod peer_lsm;
mod pipeline;
mod probes;
mod spans;
mod spec;
mod spread;
mod tpcc;
mod view_ops;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use harness::{mean_over_groups, median, min_max, peak_rss_mib, repeat, secs, steady, Rep};
use probes::Row;
use spans::Spans;

/// Repetition sizes. `--smoke` divides them by ten.
struct Sizes {
    pipeline_txs: usize,
    lsm: peer_lsm::Size,
    view_items: usize,
    tpcc_ops: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        let d = if smoke { 10 } else { 1 };
        Sizes {
            pipeline_txs: 1000 / d,
            lsm: peer_lsm::Size {
                keys: 50_000 / d,
                blocks: 100 / d,
            },
            view_items: 60 / d,
            tpcc_ops: 1200 / d,
        }
    }
}

/// How many times set-up runs when it is not part of every repetition:
/// the load phase of `peer_commit_lsm` (seconds each) and the population
/// of `tpcc_sharded` (tens of milliseconds each).
const LSM_SETUP_RUNS: usize = 3;
const TPCC_SETUP_RUNS: usize = 8;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spread: Option<usize>,
    print_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        smoke: false,
        spread: None,
        print_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spread" => {
                args.spread = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--spread: {e}"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if w != "all" && spec::workload(w).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    Ok(args)
}

/// What one run reports: the contract's result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, samples, note)` in table order.
    pub metrics: Vec<(&'static str, f64, u64, String)>,
}

/// The untraced run: repeat identical work for `seconds`; timings are the
/// steady value over the repetitions, counts are exact.
fn run_end_to_end(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let sizes = Sizes::new(smoke);
    let min_reps = if smoke { 2 } else { harness::MIN_REPS };
    let mut setups: Vec<f64> = Vec::new();
    let mut groups = 1;
    let reps: Vec<Rep> = match workload {
        "pipeline_uniform" => repeat(seconds, min_reps, 1, |_| {
            pipeline::run_sim(seed, sizes.pipeline_txs).rep
        }),
        "peer_commit_lsm" => {
            let mut base: Option<peer_lsm::Base> = None;
            for _ in 0..LSM_SETUP_RUNS {
                let start = Instant::now();
                let next = peer_lsm::set_up(seed, sizes.lsm);
                setups.push(secs(start.elapsed()));
                if let Some(previous) = &base {
                    assert_eq!(
                        previous.deck_hash, next.deck_hash,
                        "same seed must generate the same deck"
                    );
                }
                base = Some(next);
            }
            let base = base.expect("set up at least once");
            repeat(seconds, min_reps, 1, |_| peer_lsm::run_rep(&base))
        }
        "view_ops" => repeat(seconds, min_reps, 1, |_| {
            view_ops::run_rep(seed, sizes.view_items, &mut Spans::off()).rep
        }),
        "tpcc_sharded" => {
            setups = (0..TPCC_SETUP_RUNS)
                .map(|_| tpcc::population_s(seed))
                .collect();
            // Work per op depends on the deck (re-drives per op range over
            // ±12 % across seeds), so a run deals several decks from its
            // seed, cycles through them, and averages over them.
            groups = tpcc::DECKS;
            repeat(seconds, min_reps, groups, |i| {
                tpcc::run_rep(tpcc::deck_seed(seed, i % groups), sizes.tpcc_ops, false).rep
            })
        }
        other => unreachable!("workload {other} was validated"),
    };
    setups.extend(reps.iter().filter_map(|r| r.setup_s));

    let valid: u64 = reps.iter().map(|r| r.valid).sum();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let spread = |v: &[f64]| {
        let (lo, hi) = min_max(v);
        format!("min {lo:.6} median {:.6} max {hi:.6}", median(v))
    };
    // One value per repetition, picked per group of identical repetitions
    // and averaged over the groups.
    let over_reps = |name: &'static str, of: &dyn Fn(&Rep) -> f64, pick: &dyn Fn(&[f64]) -> f64| {
        let values: Vec<f64> = reps.iter().map(of).collect();
        let value = mean_over_groups(&values, groups, pick);
        (name, value, values.len() as u64, spread(&values))
    };
    let per_op = |r: &Rep, x: u64| x as f64 / r.valid.max(1) as f64;
    Outcome {
        attempted,
        failed: attempted - valid,
        metrics: vec![
            over_reps("commit_tps", &|r| r.valid as f64 / r.wall_s, &|v| {
                steady(v, true)
            }),
            over_reps("cpu_us_per_op", &|r| per_op(r, r.cpu_us), &|v| {
                steady(v, false)
            }),
            ("peak_rss_mib", peak_rss_mib(), 1, "VmHWM".into()),
            over_reps(
                "stored_bytes_per_op",
                &|r| per_op(r, r.stored_bytes),
                &median,
            ),
            (
                "setup_s",
                steady(&setups, false),
                setups.len() as u64,
                spread(&setups),
            ),
        ],
    }
}

/// Where the traced run leaves its Chrome trace and folded stacks,
/// relative to the working directory (the checkout root).
const TRACE_DIR: &str = "bench_results";

/// The traced run: one repetition under spans plus the layer probes;
/// writes the Chrome trace and the folded stacks under `trace_dir`.
fn run_traced(workload: &str, seed: u64, smoke: bool, trace_dir: Option<&Path>) -> Outcome {
    let sizes = Sizes::new(smoke);
    let mut spans = Spans::on();
    let mut rows: Vec<Row> = match workload {
        "pipeline_uniform" => pipeline::trace(seed, sizes.pipeline_txs, &mut spans),
        "peer_commit_lsm" => peer_lsm::trace(seed, sizes.lsm, &mut spans),
        "view_ops" => view_ops::trace(seed, sizes.view_items, &mut spans),
        "tpcc_sharded" => tpcc::trace(seed, sizes.tpcc_ops),
        other => unreachable!("workload {other} was validated"),
    };
    rows.push(probes::row(
        "telemetry.spans_recorded",
        spans.done.len() as f64,
        spans.done.len() as u64,
    ));

    if let Some(dir) = trace_dir.filter(|_| !spans.done.is_empty()) {
        std::fs::create_dir_all(dir).expect("create trace dir");
        let trace = dir.join(format!("lvbench_trace_{workload}.json"));
        std::fs::write(&trace, spans.chrome_trace_json()).expect("write trace");
        let profile = spans.profile();
        let folded = dir.join(format!("lvbench_profile_{workload}.folded"));
        std::fs::write(&folded, profile.folded()).expect("write folded stacks");
        println!("# cost ledger (self = span minus its children), one traced repetition");
        println!("{}", profile.table());
        println!("# wrote {} and {}", trace.display(), folded.display());
    }

    let mut by_name: BTreeMap<&str, Row> = BTreeMap::new();
    for r in rows {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == r.name),
            "row {} is not in the per-layer table",
            r.name
        );
        assert!(r.value.is_finite(), "row {} is not finite", r.name);
        by_name.insert(r.name, r);
    }
    Outcome {
        attempted: 1,
        failed: 0,
        metrics: spec::PER_LAYER
            .iter()
            .map(|m| match by_name.get(m.name) {
                Some(r) => (m.name, r.value, r.samples, String::new()),
                None => (m.name, 0.0, 0, "not exercised by this workload".into()),
            })
            .collect(),
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("metric is in a table")
}

/// The last line of standard output: one JSON object.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, _, _)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_workload(args: &Args, workload: &str) -> Outcome {
    println!(
        "# lvbench workload={workload} seed={} seconds={} trace={} smoke={}",
        args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "# storage: scratch dir beside the executable, FsyncPolicy::EveryN(512), LsmConfig::sync(false); \
         cpus={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = if args.trace {
        run_traced(workload, args.seed, args.smoke, Some(Path::new(TRACE_DIR)))
    } else {
        run_end_to_end(workload, args.seed, args.seconds, args.smoke)
    };
    for (name, value, samples, note) in &outcome.metrics {
        println!(
            "{name:44} {value:>16.6} {:8} n={samples:<8} {note}",
            unit_of(name)
        );
    }
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lvbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = args.spread {
        return spread::run(&args, n);
    }
    let Some(workload) = args.workload.clone().filter(|w| w != "all") else {
        eprintln!("lvbench: --workload <name> is required (or --spread <n>)");
        return ExitCode::from(2);
    };
    let outcome = run_workload(&args, &workload);
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "view_ops",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("view_ops"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 7.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// `--smoke` on every workload, untraced and traced: the emitted names
    /// and units are exactly the tables `BENCHMARK.json` is generated
    /// from, end-to-end values are never zero, and every correctness gate
    /// passes on the small sizes too.
    #[test]
    fn smoke_emits_exactly_the_declared_metrics() {
        for w in spec::WORKLOADS {
            let e2e = run_end_to_end(w.name, 3, 0.0, true);
            let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
            let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{}", w.name);
            for (name, value, _, _) in &e2e.metrics {
                assert!(*value > 0.0, "{}: {name} = {value}", w.name);
            }
            assert!(e2e.attempted >= 1 && e2e.failed == 0, "{}", w.name);

            let traced = run_traced(w.name, 3, true, None);
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
            let declared: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{}", w.name);
            let line = result_line(&traced);
            let parsed = spread::parse_result(&line).expect("result line parses");
            assert_eq!(parsed.metrics.len(), spec::PER_LAYER.len());
        }
    }
}
