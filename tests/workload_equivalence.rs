//! Differential properties of the TPC-C-class workload harness.
//!
//! The whole pipeline — deck dealing, parameter generation, sharded
//! execution with 2PC legs, fault injection, invariant sweeps, and the
//! LedgerView mirror — is a pure function of `TpccConfig`. These tests rerun random cells
//! (including fault and views cells) from the same seed into fresh
//! storage roots and demand bit-identical `TpccReport`s: every counter,
//! every percentile, and every shard's canonical state root. They also
//! hold the scenario's own guarantees on each sampled cell: invariants
//! checked and zero unauthorized view reads.

use ledgerview::prelude::Telemetry;
use ledgerview::simnet::SimTime;
use ledgerview::store::testdir::TestDir;
use ledgerview::workload::{TpccConfig, TpccReport};
use proptest::prelude::*;

/// One full harness run into a fresh storage root.
fn run_cell(
    label: &str,
    seed: u64,
    warehouses: u64,
    shards: usize,
    views: bool,
    faults: bool,
) -> TpccReport {
    let dir = TestDir::new(label);
    let mut cfg = TpccConfig::new(dir.path(), warehouses, shards, seed);
    cfg.ops = 60;
    cfg.interarrival = SimTime::from_millis(6);
    cfg.views = views;
    cfg.faults = faults;
    let telemetry = Telemetry::wall_clock();
    ledgerview::workload::run(&cfg, &telemetry).expect("run converges")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, fresh storage ⇒ the same report, bit for bit — for a
    /// random cell of the sweep grid, with views and faults drawn too.
    #[test]
    fn same_seed_reruns_bit_identically(
        seed in any::<u64>(),
        warehouses in 2u64..5,
        shards in 1usize..3,
        views in any::<bool>(),
        faults in any::<bool>(),
    ) {
        let a = run_cell("wleq-a", seed, warehouses, shards, views, faults);
        let b = run_cell("wleq-b", seed, warehouses, shards, views, faults);
        prop_assert_eq!(&a, &b, "rerun diverged");

        // Each sampled cell holds the scenario guarantees on its own.
        prop_assert!(a.invariant_checks > 0);
        match &a.views {
            Some(v) => {
                prop_assert_eq!(v.unauthorized_reads, 0);
                prop_assert_eq!(v.owner_reads_ok, v.mirrored);
            }
            None => prop_assert!(!views),
        }
        if faults {
            // The leader kill leaves a visible trace: more leader
            // transitions than the one-per-shard startup elections.
            prop_assert!(a.elections > a.shards as u64);
        }
    }
}

/// The fault schedule and the views layer leave the seed in charge: the
/// fault cell reruns identically too, and a different seed shuffles a
/// different deck.
#[test]
fn fault_cell_reruns_identically_and_seeds_matter() {
    let a = run_cell("wleq-f1", 0xFEED, 4, 2, true, true);
    let b = run_cell("wleq-f2", 0xFEED, 4, 2, true, true);
    assert_eq!(a, b, "faulted views cell diverged across reruns");
    assert!(a.audit_ops > 0, "views cell injects audit load");

    let c = run_cell("wleq-f3", 0xBEEF, 4, 2, true, true);
    assert_ne!(
        a.state_roots, c.state_roots,
        "different seeds must produce different histories"
    );
}
