//! Telemetry must observe, never perturb: the same workload with and
//! without an attached registry/tracer commits bit-identical state, and an
//! instrumented run produces a well-formed exposition with every lifecycle
//! phase populated.

use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::chaincode::TxContext;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::storage::{DurableBackend, StateBackend};
use ledgerview::fabric::validation::validate_and_commit_block;
use ledgerview::fabric::{Chaincode, FabricChain, FabricError, LsmState, WorkerPool};
use ledgerview::prelude::{FsyncPolicy, StorageConfig, Telemetry, ValidationConfig};
use ledgerview::store::testdir::TestDir;
use proptest::prelude::*;

mod common;
use common::check_json;

struct Kv;

impl Chaincode for Kv {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        let key = String::from_utf8_lossy(&args[0]).to_string();
        match function {
            "put" => {
                ctx.put_state(key, args[1].clone());
                Ok(vec![])
            }
            "rmw" => {
                let mut v = ctx.get_state(&key).unwrap_or_default();
                v.push(b'!');
                ctx.put_state(key, v.clone());
                Ok(v)
            }
            other => Err(FabricError::ChaincodeError(format!("unknown {other}"))),
        }
    }
}

fn setup(chain: &mut FabricChain, seed: u64) -> Identity {
    let mut rng = seeded(seed ^ 0x7e1e);
    chain.deploy(
        "kv",
        Box::new(Kv),
        EndorsementPolicy::AllOf(chain.org_ids()),
    );
    chain
        .enroll(&OrgId::new("Org1"), "alice", &mut rng)
        .unwrap()
}

/// Mixed workload (puts + an MVCC conflict pair every other block);
/// returns `(state_digest, state_root)` after every block.
fn run_workload(
    chain: &mut FabricChain,
    alice: &Identity,
    blocks: u64,
    seed: u64,
) -> Vec<(Digest, Digest)> {
    let mut rng = seeded(seed);
    let mut history = vec![(chain.state().state_digest(), chain.state_root())];
    for b in 0..blocks {
        for t in 0..3u64 {
            let key = format!("k{}", (b * 3 + t) % 5);
            chain
                .invoke(
                    alice,
                    "kv",
                    "put",
                    vec![key.into_bytes(), vec![(b + t) as u8; 9]],
                    &mut rng,
                )
                .unwrap();
        }
        if b % 2 == 1 {
            for _ in 0..2 {
                chain
                    .invoke(alice, "kv", "rmw", vec![b"k0".to_vec()], &mut rng)
                    .unwrap();
            }
        }
        chain.cut_block();
        history.push((chain.state().state_digest(), chain.state_root()));
    }
    history
}

fn in_memory_history(
    seed: u64,
    blocks: u64,
    telemetry: Option<&Telemetry>,
) -> Vec<(Digest, Digest)> {
    let mut rng = seeded(seed);
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
    if let Some(t) = telemetry {
        chain.set_telemetry(t);
    }
    let alice = setup(&mut chain, seed);
    run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd)
}

fn durable_history(seed: u64, blocks: u64, telemetry: Option<&Telemetry>) -> Vec<(Digest, Digest)> {
    let dir = TestDir::new("telemetry-differential");
    let config = StorageConfig::new(dir.path()).fsync(FsyncPolicy::Never);
    let mut rng = seeded(seed);
    let mut chain = FabricChain::with_storage(
        &["Org1", "Org2"],
        &mut rng,
        config,
        ValidationConfig::parallel(2),
    )
    .unwrap();
    if let Some(t) = telemetry {
        chain.set_telemetry(t);
    }
    let alice = setup(&mut chain, seed);
    run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Differential: state digests and rolling roots are bit-identical with
    /// telemetry on vs off, on both the in-memory and the durable +
    /// parallel-validation paths.
    #[test]
    fn state_roots_identical_with_telemetry_on_and_off(
        seed in 0u64..500,
        blocks in 1u64..7,
    ) {
        let telemetry = Telemetry::wall_clock();
        prop_assert_eq!(
            in_memory_history(seed, blocks, Some(&telemetry)),
            in_memory_history(seed, blocks, None)
        );
        prop_assert_eq!(
            durable_history(seed, blocks, Some(&telemetry)),
            durable_history(seed, blocks, None)
        );
    }
}

#[test]
fn workload_populates_every_lifecycle_phase() {
    let telemetry = Telemetry::wall_clock();
    let blocks = 6;
    durable_history(42, blocks, Some(&telemetry));

    let registry = telemetry.registry();
    for phase in ["endorse", "order", "validate", "commit", "persist"] {
        let h = registry.histogram("lv_chain_phase_seconds", &[("phase", phase)]);
        let snap = h.histogram();
        if phase == "endorse" {
            // Endorsement is timed per transaction, the rest per block.
            assert!(snap.count() > blocks, "phase {phase}: {}", snap.count());
        } else {
            assert_eq!(snap.count(), blocks, "phase {phase}");
        }
        assert!(
            snap.quantile(0.95) <= snap.max(),
            "phase {phase}: p95 {} > max {}",
            snap.quantile(0.95),
            snap.max()
        );
    }
    // Endorsement does real Ed25519 work — its quantiles cannot be zero.
    let endorse = registry.histogram("lv_chain_phase_seconds", &[("phase", "endorse")]);
    assert!(endorse.histogram().quantile(0.5) > 0);
    // The durable path fsyncs nothing under `Never`, but block appends are
    // real writes and must have been timed.
    let append = registry.histogram("lv_storage_block_append_seconds", &[]);
    assert_eq!(append.histogram().count(), blocks);

    // The exposition is well-formed under the in-repo lint.
    let text = registry.prometheus_text();
    let issues = ledgerview::telemetry::promlint::lint_prometheus(&text);
    assert!(issues.is_empty(), "lint: {issues:?}");

    // A reconfigure builds a new validator and pool; both must come back
    // attached, or `lv_validate_*` and the lane counters go quiet.
    let telemetry = Telemetry::wall_clock();
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut seeded(42));
    chain.set_telemetry(&telemetry);
    chain.set_validation_config(ValidationConfig::parallel(2));
    let alice = setup(&mut chain, 42);
    run_workload(&mut chain, &alice, blocks / 2, 42 ^ 0xabcd);
    chain.set_validation_config(ValidationConfig::parallel(2));
    run_workload(&mut chain, &alice, blocks / 2, 42 ^ 0xdcba);
    let registry = telemetry.registry();
    let counter = |name: &str, labels: &[(&str, &str)]| registry.counter(name, labels).get();
    // Three puts a block; each half's one odd block adds an rmw pair on a
    // key a put of the same block has just rewritten, so both lose.
    assert_eq!(
        counter("lv_validate_tx_total", &[("outcome", "valid")]),
        3 * blocks
    );
    assert_eq!(
        counter("lv_validate_tx_total", &[("outcome", "mvcc_conflict")]),
        4
    );
    // Two endorsers sign every transaction; their certificates were
    // verified at submission, so VSCC only ever hits the MSP's memo.
    assert_eq!(
        counter("lv_validate_sigs_batch_verified_total", &[]),
        2 * (3 * blocks + 4)
    );
    assert_eq!(
        counter("lv_validate_sigcache_hits_total", &[]),
        2 * (3 * blocks + 4)
    );
    assert_eq!(counter("lv_validate_sigcache_misses_total", &[]), 0);
    let mvcc = registry.histogram("lv_validate_mvcc_seconds", &[]);
    assert_eq!(mvcc.histogram().count(), blocks);
    let chunks = registry.histogram("lv_validate_endorse_chunk_seconds", &[]);
    assert_eq!(chunks.histogram().count(), 2 * blocks);
    for lane in ["0", "1"] {
        assert!(
            counter("lv_pool_worker_busy_us_total", &[("worker", lane)]) > 0,
            "lane {lane} published no busy time"
        );
    }
}

#[test]
fn lsm_engine_publishes_the_storage_metrics() {
    // Blocks of the usual workload, replayed into a bare LSM-engine
    // backend so the test can read `fsyncs()` beside the counter.
    let blocks = 6;
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut seeded(42));
    let alice = setup(&mut chain, 42);
    run_workload(&mut chain, &alice, blocks, 42 ^ 0xabcd);

    let dir = TestDir::new("telemetry-lsm");
    let config = StorageConfig::new(dir.path())
        .fsync(FsyncPolicy::Always)
        .checkpoint_every(4);
    let lsm = LsmState::default_config(&config);
    let (mut backend, _) = DurableBackend::open_with(config, lsm, &WorkerPool::new(1)).unwrap();
    let telemetry = Telemetry::wall_clock();
    backend.set_telemetry(&telemetry);
    for block in chain.store().iter() {
        validate_and_commit_block(
            &block.transactions,
            backend.state_mut(),
            block.header.number,
        );
        backend.commit_block(block).unwrap();
    }
    backend.flush().unwrap();
    assert_eq!(backend.state().state_digest(), chain.state().state_digest());

    let registry = telemetry.registry();
    let count = |name: &str| registry.histogram(name, &[]).histogram().count();
    assert_eq!(count("lv_storage_block_append_seconds"), blocks);
    // One interval checkpoint (at height 4), under both of its names.
    assert_eq!(backend.checkpoints_saved(), 1);
    assert_eq!(count("lv_storage_checkpoint_seconds"), 1);
    assert_eq!(count("lv_statedb_flush_seconds"), 1);
    assert_eq!(
        registry.counter("lv_storage_checkpoints_total", &[]).get(),
        1
    );
    // `Always` syncs the block file once per block, then once more at the
    // checkpoint and once at `flush()`.
    assert_eq!(backend.fsyncs(), blocks + 2);
    assert_eq!(
        registry.counter("lv_storage_fsyncs_total", &[]).get(),
        backend.fsyncs()
    );
    assert_eq!(registry.counter("lv_statedb_flushes_total", &[]).get(), 1);
    let issues = ledgerview::telemetry::promlint::lint_prometheus(&registry.prometheus_text());
    assert!(issues.is_empty(), "lint: {issues:?}");
}

#[test]
fn trace_nests_validation_inside_block_cut() {
    let telemetry = Telemetry::wall_clock();
    durable_history(7, 3, Some(&telemetry));
    let spans = telemetry.tracer().recent();
    let cut_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "cut.block")
        .map(|s| s.id)
        .collect();
    assert_eq!(cut_ids.len(), 3);
    // Every validate.block span nests (via the block.validate lifecycle
    // phase) under some cut.block span.
    let validates: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "validate.block")
        .collect();
    assert_eq!(validates.len(), 3);
    for v in &validates {
        let phase_id = v.parent.expect("validate.block must have a parent");
        let phase = spans
            .iter()
            .find(|s| s.id == phase_id)
            .expect("parent span recorded");
        assert_eq!(phase.name, "block.validate");
        let parent = phase.parent.expect("block.validate must have a parent");
        assert!(cut_ids.contains(&parent), "parent {parent} not a cut.block");
    }
    // The Chrome export is valid JSON with one event per span (plus
    // thread-name metadata).
    let json = telemetry.tracer().chrome_trace_json();
    assert!(json.contains("\"name\":\"cut.block\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"M\""));
}

#[test]
fn chrome_trace_export_is_wellformed_json() {
    let telemetry = Telemetry::wall_clock();
    durable_history(7, 3, Some(&telemetry));
    // A span name that needs every kind of escaping the exporter has.
    let tracer = telemetry.tracer();
    drop(tracer.span("quote \" backslash \\ newline \n tab \t"));
    let json = tracer.chrome_trace_json();
    check_json(&json).unwrap_or_else(|at| panic!("not JSON from byte {at}:\n{json}"));
    let events = json.matches("\"ph\":\"X\"").count();
    assert_eq!(events, tracer.recent().len(), "one event per span");

    // The checker itself rejects what `json.load` would.
    let bad = [
        "{\"a\":1,}",
        "[1 2]",
        "{\"a\" 1}",
        "\"raw \n\"",
        "[1] x",
        "1.e5",
        "\"open",
    ];
    for doc in bad {
        assert!(check_json(doc).is_err(), "{doc:?} accepted");
    }
}
