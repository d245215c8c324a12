//! `lv_workload_*` metric handles. Observational only: a run with and
//! without telemetry produces bit-identical reports.

use std::collections::BTreeMap;

use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};

use crate::mix::TxProfile;

pub(crate) struct WorkloadMetrics {
    /// Scheduled transactions by profile.
    submitted: BTreeMap<TxProfile, Counter>,
    /// Committed transactions by profile.
    committed: BTreeMap<TxProfile, Counter>,
    /// Aborted transactions by profile.
    aborted: BTreeMap<TxProfile, Counter>,
    /// Wall-clock cost of one invariant sweep (the only real-time metric
    /// here: it measures the checker, not the simulation).
    pub invariant_check_us: HistogramHandle,
    /// Per-warehouse view queries, by outcome.
    pub view_queries_ok: Counter,
    pub view_queries_denied: Counter,
}

impl WorkloadMetrics {
    pub fn new(telemetry: &Telemetry) -> WorkloadMetrics {
        let r = telemetry.registry();
        let per_profile = |name: &str| {
            TxProfile::ALL
                .iter()
                .map(|&p| (p, r.counter(name, &[("profile", p.label())])))
                .collect::<BTreeMap<_, _>>()
        };
        WorkloadMetrics {
            submitted: per_profile("lv_workload_submitted_total"),
            committed: per_profile("lv_workload_committed_total"),
            aborted: per_profile("lv_workload_aborted_total"),
            invariant_check_us: r.histogram("lv_workload_invariant_check_us", &[]),
            view_queries_ok: r.counter("lv_workload_view_queries_total", &[("result", "ok")]),
            view_queries_denied: r
                .counter("lv_workload_view_queries_total", &[("result", "denied")]),
        }
    }

    pub fn inc_submitted(&self, p: TxProfile) {
        if let Some(c) = self.submitted.get(&p) {
            c.inc();
        }
    }

    pub fn inc_committed(&self, p: TxProfile) {
        if let Some(c) = self.committed.get(&p) {
            c.inc();
        }
    }

    pub fn inc_aborted(&self, p: TxProfile) {
        if let Some(c) = self.aborted.get(&p) {
            c.inc();
        }
    }
}
