//! `lv_shard_*` metric handles, resolved once when telemetry attaches.
//!
//! Purely observational, like the cluster's: a sharded deployment with
//! and without telemetry commits bit-identical per-shard histories. All
//! durations are virtual microseconds.

use ledgerview_telemetry::{Counter, Gauge, HistogramHandle, Telemetry};

pub(crate) struct ShardMetrics {
    pub telemetry: Telemetry,
    /// Committed transactions per shard (tagged invocations only — the
    /// deployment's own opens, transfers, and 2PC legs).
    txs: Vec<Counter>,
    /// Endorsed-but-uncut queue depth per shard, sampled at every
    /// lock-step slice boundary.
    queue_depth: Vec<Gauge>,
    /// Cross-shard transfers started, by eventual path.
    pub transfers_single: Counter,
    pub transfers_cross: Counter,
    /// 2PC phase latencies in virtual µs.
    pub phase_prepare_us: HistogramHandle,
    pub phase_decide_us: HistogramHandle,
    pub phase_finalize_us: HistogramHandle,
    /// Aborted transfers, by reason.
    pub aborts_vote: Counter,
    pub aborts_insufficient: Counter,
    /// 2PC legs re-driven from the replicated decision record after an
    /// MVCC invalidation or failover.
    pub redrives: Counter,
    /// Perfetto lane for the cross-shard transfer coordinator.
    pub coordinator_proc: u64,
}

impl ShardMetrics {
    pub fn new(telemetry: &Telemetry, shards: usize) -> ShardMetrics {
        let r = telemetry.registry();
        ShardMetrics {
            telemetry: telemetry.clone(),
            txs: (0..shards)
                .map(|s| r.counter("lv_shard_txs_total", &[("shard", &s.to_string())]))
                .collect(),
            queue_depth: (0..shards)
                .map(|s| r.gauge("lv_shard_queue_depth", &[("shard", &s.to_string())]))
                .collect(),
            transfers_single: r.counter("lv_shard_transfers_total", &[("kind", "single")]),
            transfers_cross: r.counter("lv_shard_transfers_total", &[("kind", "cross")]),
            phase_prepare_us: r.histogram("lv_shard_2pc_phase_us", &[("phase", "prepare")]),
            phase_decide_us: r.histogram("lv_shard_2pc_phase_us", &[("phase", "decide")]),
            phase_finalize_us: r.histogram("lv_shard_2pc_phase_us", &[("phase", "finalize")]),
            aborts_vote: r.counter("lv_shard_aborts_total", &[("reason", "prepare_vote")]),
            aborts_insufficient: r
                .counter("lv_shard_aborts_total", &[("reason", "insufficient_funds")]),
            redrives: r.counter("lv_shard_redrives_total", &[]),
            coordinator_proc: telemetry.tracer().process("xfer-coordinator"),
        }
    }

    pub fn inc_txs(&self, shard: usize) {
        if let Some(c) = self.txs.get(shard) {
            c.inc();
        }
    }

    pub fn set_queue_depth(&self, shard: usize, depth: u64) {
        if let Some(g) = self.queue_depth.get(shard) {
            g.set(depth as i64);
        }
    }
}
