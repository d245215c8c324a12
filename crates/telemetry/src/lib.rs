//! End-to-end telemetry for the LedgerView stack: a lock-cheap metrics
//! registry, a span-based tracer, and flamegraph-ready exporters.
//!
//! The paper's whole evaluation is a story about *where time goes* —
//! endorsement vs. ordering vs. validation vs. view maintenance — and this
//! crate is how the running system answers that question without a new
//! ad-hoc benchmark per figure:
//!
//! * [`MetricsRegistry`] — named families of atomic [`Counter`]s,
//!   [`Gauge`]s and log-linear-bucket [`Histogram`]s (p50/p95/p99/max),
//!   with labels (per-channel, per-phase), exposed as Prometheus text
//!   ([`MetricsRegistry::prometheus_text`]) or JSON
//!   ([`MetricsRegistry::json_snapshot`]).
//! * [`Tracer`] — `tracer.span("validate.block")` guards with
//!   parent/child nesting, a bounded ring buffer of recent spans, and a
//!   Chrome `trace_event` exporter ([`Tracer::chrome_trace_json`]) whose
//!   output opens directly in `chrome://tracing` / Perfetto.
//! * [`WallClock`] — what guard spans are timed against; discrete-event
//!   runs record their spans with explicit virtual timestamps
//!   ([`Tracer::record_manual`], [`Tracer::record_linked`]), so their
//!   traces show *virtual* phase timelines.
//! * [`promlint`] — the small in-repo lint CI runs over every exposition
//!   (unique names, `_total`/`_seconds` suffix conventions, known
//!   subsystem families).
//! * [`profiler`] — deterministic folded-stack (`flamegraph.pl`-ready)
//!   profiles and per-phase cost tables computed from the tracer's span
//!   buffer ([`profile_spans`]), plus [`TraceContext`] for cross-node
//!   causal traces whose ids derive from seeds rather than clocks.
//!
//! All hooks in the stack are gated on `Option<Telemetry>`: a chain or
//! channel built without telemetry pays a branch on a `None` and nothing
//! else, and recording never feeds back into commit outcomes — state roots
//! are bit-identical with telemetry on or off (property-tested in
//! `tests/telemetry.rs` at the workspace root).
//!
//! Metric names follow `lv_<subsystem>_<name>_<unit>`: counters end in
//! `_total`, duration histograms end in `_seconds` (recorded internally as
//! integer microseconds and scaled at exposition), and raw-microsecond
//! counters end in `_us_total`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod histogram;
pub mod profiler;
pub mod promlint;
pub mod registry;
pub mod tracer;

pub use clock::WallClock;
pub use histogram::{Histogram, HistogramSnapshot};
pub use profiler::{profile_spans, PhaseCost, Profile};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry};
pub use tracer::{splitmix64, SpanGuard, SpanRecord, TraceContext, Tracer};

use std::sync::Arc;

/// The registry + tracer bundle threaded through the stack.
///
/// Cloning is cheap (two `Arc`s); clones share the same metrics and span
/// buffer, which is exactly what per-channel/per-subsystem wiring wants.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.registry.len())
            .field("spans", &self.tracer.len())
            .finish()
    }
}

impl Telemetry {
    /// Default span ring-buffer capacity.
    pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

    /// Telemetry timing spans against the wall clock.
    pub fn wall_clock() -> Telemetry {
        let clock = Arc::new(WallClock::new());
        Telemetry {
            registry: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::new(clock, Self::DEFAULT_SPAN_CAPACITY)),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Open a timed span (convenience for `tracer().span(name)`).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.tracer.span(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_registry_and_tracer_across_clones() {
        let t = Telemetry::wall_clock();
        let clone = t.clone();
        t.registry().counter("lv_test_total", &[]).inc();
        drop(clone.span("x"));
        assert_eq!(clone.registry().counter("lv_test_total", &[]).get(), 1);
        assert_eq!(t.tracer().len(), 1);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("Telemetry"), "{dbg}");
    }
}
