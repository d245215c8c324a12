//! Torn disks inside the cluster: every directory a crash during one
//! checkpoint can leave a durable peer rejoins the running cluster.
//!
//! A two-peer cluster checkpoints every `CHECKPOINT_EVERY` blocks. Peer
//! `P` crashes (image A), restarts, runs past exactly one more checkpoint
//! and crashes again (image B). `common/crash.rs` turns A and B into every
//! directory a crash during that checkpoint can leave, and each one in
//! turn is restored into `P`'s directory under the still-running cluster
//! and restarted:
//!
//! * a block file cut below the checkpoint its manifest publishes is a
//!   `FabricError::Storage` on reopen, so the restart sets the directory
//!   aside and heals the peer through a snapshot join;
//! * any other state reopens at the height its block file holds and
//!   replays the rest from the ordering side.
//!
//! Either way the cluster converges, the peer's block headers carry the
//! canonical state root at every height it holds, and one more block
//! commits on every peer.

#[path = "common/crash.rs"]
mod crash;

use std::path::Path;

use crash::{Blocks, Family, Image, Layout};
use ledgerview::cluster::{BootstrapMode, ClusterConfig, ClusterSim, Fault};
use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::lsm::LSM_SUBDIR;
use ledgerview::fabric::{FabricChain, FabricError};
use ledgerview::prelude::StorageConfig;
use ledgerview::simnet::SimTime;
use ledgerview::statedb::manifest::{Manifest, MANIFEST_FILE};
use ledgerview::store::blockfile::BLOCKS_DATA_FILE;
use ledgerview::store::testdir::TestDir;

/// The peer whose disk is torn.
const P: usize = 1;
const CHECKPOINT_EVERY: u64 = 3;
const STEP: SimTime = SimTime::from_millis(50);
const DEADLINE: SimTime = SimTime::from_secs(60);

/// Run until `P` has applied block `height`.
fn run_past(sim: &mut ClusterSim, height: u64) {
    let deadline = sim.now() + DEADLINE;
    while sim.report().peer_heights[P].expect("the peer is up") <= height {
        assert!(
            sim.now() < deadline,
            "peer {P} never applied block {height}"
        );
        sim.run_for(STEP);
    }
}

/// Crash `P` now: dropping its chain waits for the flush job in flight,
/// so the directory is complete when this returns.
fn crash_peer(sim: &mut ClusterSim) {
    sim.schedule_fault(sim.now(), Fault::CrashPeer(P));
    sim.run_until(sim.now());
}

/// Run until the cluster converges, and check that it did.
fn converge(sim: &mut ClusterSim, what: &str) {
    let deadline = sim.now() + DEADLINE;
    sim.run_until_converged(deadline)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    sim.verify_convergence()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// The height the checkpoint published in `image` covers: the first
/// field of its manifest's metadata, a big-endian `u64`.
fn checkpoint(image: &Image) -> u64 {
    let manifest = &image[&format!("{LSM_SUBDIR}/{MANIFEST_FILE}")];
    let meta = Manifest::decode(manifest).unwrap().meta;
    u64::from_be_bytes(meta[..8].try_into().unwrap())
}

/// Where each frame of a block file ends (`[len u32 LE][crc u32][payload]`).
fn frame_ends(file: &[u8]) -> Vec<u64> {
    let (mut ends, mut at) = (Vec::new(), 0);
    while at < file.len() {
        at += 8 + u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at as u64);
    }
    assert_eq!(at, file.len(), "the image holds whole frames");
    ends
}

/// How many directories heals have set aside under `root`.
fn set_aside(root: &Path) -> usize {
    std::fs::read_dir(root)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy()
                .starts_with(&format!("peer{P}.corrupt-"))
        })
        .count()
}

/// Reopen the crashed peer's directory as the cluster does and check that
/// the header of every block it holds carries the canonical state root.
fn assert_canonical_roots(cfg: &ClusterConfig, dir: &Path, canonical: &[Digest], what: &str) {
    let names: Vec<&str> = cfg.org_names.iter().map(String::as_str).collect();
    let storage = StorageConfig::new(dir).checkpoint_every(cfg.checkpoint_every);
    let mut rng = seeded(cfg.identity_seed);
    let chain = FabricChain::with_storage(&names, &mut rng, storage, cfg.validation.clone())
        .unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
    assert_eq!(chain.height(), canonical.len() as u64, "{what}: height");
    chain
        .store()
        .for_each_block(|block| {
            let h = block.header.number;
            assert_eq!(
                block.header.state_root, canonical[h as usize],
                "{what}: root at {h}"
            );
            Ok::<_, FabricError>(())
        })
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn every_torn_directory_of_a_peer_rejoins_the_cluster() {
    let root = TestDir::new("cluster-torn-disks");
    let mut cfg = ClusterConfig::new(root.path(), 16);
    cfg.peers = 2;
    cfg.checkpoint_every = CHECKPOINT_EVERY;
    cfg.check_signatures = false;
    let dir = root.path().join(format!("peer{P}"));
    let mut sim = ClusterSim::new(cfg.clone()).expect("cluster builds");
    // About one increment per block for four seconds.
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(250), 16, 4);

    run_past(&mut sim, 4);
    crash_peer(&mut sim);
    let a = crash::image(&dir);
    let old_checkpoint = checkpoint(&a);
    sim.schedule_fault(sim.now(), Fault::RestartPeer(P));
    sim.run_until(sim.now());
    // One block past the next checkpoint, so some cut lands above it.
    let new_checkpoint = old_checkpoint + CHECKPOINT_EVERY;
    run_past(&mut sim, new_checkpoint);
    crash_peer(&mut sim);
    let b = crash::image(&dir);
    assert_eq!(checkpoint(&b), new_checkpoint, "exactly one checkpoint");
    converge(&mut sim, "the load without the peer");

    let ends = frame_ends(&b[BLOCKS_DATA_FILE]);
    let len_at = |height: u64| height.checked_sub(1).map_or(0, |h| ends[h as usize]);
    let published_len = len_at(new_checkpoint);
    let layout = Layout {
        lsm: &format!("{LSM_SUBDIR}/"),
        blocks: Some(Blocks {
            file: BLOCKS_DATA_FILE,
            old_checkpoint_len: len_at(old_checkpoint),
            ends: &ends,
        }),
    };
    let (mut heals, mut replays) = (0, 0);
    for state in crash::states(&a, &b, &layout) {
        let what = format!("{:?}: {}", state.family, state.label);
        let torn_below = state.family == Family::BlockCut
            && state.block_len.expect("a peer has a block file") < published_len;
        crash::restore(&state.image, &dir);
        let (catchups, aside) = (sim.report().catchups.len(), set_aside(root.path()));
        sim.schedule_fault(sim.now(), Fault::RestartPeer(P));
        converge(&mut sim, &what);
        let report = sim.report();
        let healed = report.catchups[catchups..]
            .iter()
            .any(|c| c.peer == P && c.mode == BootstrapMode::Snapshot);
        assert_eq!(healed, torn_below, "{what}: snapshot heal");
        assert_eq!(set_aside(root.path()) - aside, healed as usize, "{what}");
        if healed {
            heals += 1;
        } else {
            replays += 1;
        }

        let tip = report.blocks;
        sim.schedule_invoke(sim.now(), "incr", vec![b"after".to_vec(), b"1".to_vec()]);
        converge(&mut sim, &what);
        let report = sim.report();
        assert_eq!(report.blocks, tip + 1, "{what}: one more block");
        assert!(
            report.peer_heights.iter().all(|&h| h == Some(tip + 1)),
            "{what}: {:?}",
            report.peer_heights
        );
        crash_peer(&mut sim);
        assert_canonical_roots(&cfg, &dir, &report.canonical_roots, &what);
    }
    assert!(heals > 0 && replays > 0, "{heals} heals, {replays} replays");
}
