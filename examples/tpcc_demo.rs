//! TPC-C-class workload drill: four warehouses pinned across two shard
//! channels, the five-profile transaction mix with cross-warehouse
//! payments and remote-item orders riding the 2PC protocol, a leader
//! kill (plus a peer crash/restart and a partition/heal) in the middle
//! of the load, and the per-warehouse LedgerView layer on top.
//!
//! The run finishes with the receipts: the TPC-C-style consistency
//! invariants (swept mid-run on live state and again at quiescence),
//! the realized mix, the cross-warehouse 2PC fraction, and the view
//! audit — each warehouse's owner organisation reads exactly its own
//! rows while every other organisation's query is denied, and a revoked
//! reader stays locked out. Run with:
//!
//! ```text
//! cargo run --release --example tpcc_demo
//! ```

use ledgerview::simnet::SimTime;
use ledgerview::store::testdir::TestDir;
use ledgerview::telemetry::Telemetry;
use ledgerview::workload::{run, TpccConfig};

const SEED: u64 = 0x7CC;
const WAREHOUSES: u64 = 4;
const SHARDS: usize = 2;

fn main() {
    let dir = TestDir::new("tpcc-demo");
    let telemetry = Telemetry::wall_clock();

    let mut cfg = TpccConfig::new(dir.path(), WAREHOUSES, SHARDS, SEED);
    cfg.ops = 240;
    cfg.interarrival = SimTime::from_millis(5);
    cfg.views = true; // per-warehouse LedgerView layer + audit load
    cfg.faults = true; // leader kill / peer crash / partition mid-run

    println!(
        "tpcc demo: {WAREHOUSES} warehouses on {SHARDS} shards, {} transactions, \
         faults + views on\n",
        cfg.ops
    );
    let report = run(&cfg, &telemetry).expect("run converges with a clean ledger");

    // ---- throughput and the realized mix ----
    println!(
        "{:>14} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "profile", "submitted", "committed", "aborted", "p50 ms", "p99 ms"
    );
    for (label, s) in &report.profiles {
        println!(
            "{:>14} {:>9} {:>9} {:>9} {:>10.1} {:>10.1}",
            label,
            s.submitted,
            s.committed,
            s.aborted,
            s.p50_us as f64 / 1e3,
            s.p99_us as f64 / 1e3
        );
    }
    println!(
        "\n{:.1} tpmC over {:.2}s of virtual time; {} of {} committed deck \
         transactions crossed shards through 2PC ({:.1}%)",
        report.tpmc,
        report.makespan_us as f64 / 1e6,
        report.cross_committed,
        report.cross_committed + report.single_committed,
        report.cross_fraction * 100.0
    );
    assert!(report.cross_committed > 0, "demo must exercise 2PC");

    // ---- the faults really happened, and the books still balance ----
    println!(
        "\nfaults: {} leader transitions recorded (startup pays {}, the rest \
         is the mid-run kill); {} MVCC re-drives absorbed",
        report.elections, SHARDS, report.redrives
    );
    assert!(report.elections > SHARDS as u64, "leader kill not applied");
    println!(
        "invariants: {} checks passed — district/warehouse YTD conservation, \
         order/stock movement, no stranded 2PC legs (a failure would have \
         aborted the run)",
        report.invariant_checks
    );

    // ---- the view audit: owners see their rows, nobody else does ----
    let views = report.views.expect("views layer was on");
    println!(
        "\nviews: {} payments mirrored into per-warehouse views; owner reads \
         ok on all {} ({} audit-flush transactions of extra load)",
        views.mirrored, views.owner_reads_ok, report.audit_ops
    );
    println!(
        "       {} foreign-org queries denied, {} revoked readers denied, \
         {} unauthorized reads",
        views.foreign_denials, views.revoked_denials, views.unauthorized_reads
    );
    assert_eq!(views.unauthorized_reads, 0);
    assert_eq!(views.owner_reads_ok, views.mirrored);
    assert_eq!(views.foreign_denials, WAREHOUSES);

    println!("\nshard state roots:");
    for (s, root) in report.state_roots.iter().enumerate() {
        println!("  shard {s}: {root}");
    }
    println!("\nok: faulted, sharded, view-covered TPC-C run closed its books");
}
