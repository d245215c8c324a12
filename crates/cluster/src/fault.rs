//! Typed faults — injected and detected.
//!
//! [`Fault`] is the injection side: failures scheduled at virtual times,
//! so a failure scenario is reproducible from `(config, schedule)` alone.
//! [`Divergence`] and [`ClusterError`] are the detection side: a peer
//! whose rolling state root disagrees with the canonical root is reported
//! as data, never as a panic.

use fabric_sim::error::FabricError;
use fabric_sim::raft::NodeId;
use ledgerview_crypto::sha256::Digest;
use ledgerview_simnet::SimTime;

/// A failure to inject at a scheduled virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Stop a peer: its chain is dropped (closing its storage directory)
    /// and in-flight deliveries to it are discarded.
    CrashPeer(usize),
    /// Restart a crashed peer: recover its durable directory, then replay
    /// the delta it missed from the ordering service — the one reopen
    /// path every join takes too. A directory whose bytes are wrong or
    /// missing (`FabricError::Storage`) heals: it is renamed aside as
    /// `peer<p>.corrupt-<n>` and the peer joins from a donor's snapshot,
    /// recorded as a [`BootstrapMode::Snapshot`] catch-up. Any other error
    /// (`FabricError::Io`: the OS refusing) fails the cluster.
    RestartPeer(usize),
    /// Permanently stop an orderer node.
    KillOrderer(NodeId),
    /// Partition the listed orderers away from the rest of the ordering
    /// service (two groups; links inside each group stay up).
    Partition(Vec<NodeId>),
    /// Remove the partition and any slow links.
    Heal,
    /// Multiply the one-way latency of the orderer link `from → to`.
    SlowLink {
        /// Sending orderer.
        from: NodeId,
        /// Receiving orderer.
        to: NodeId,
        /// Latency multiplier (clamped to ≥ 1).
        factor: u64,
    },
}

/// How a joining peer obtains history it never saw. Both modes end in
/// the same reopen-and-replay of the peer's directory; the mode decides
/// what the directory starts from and labels the catch-up
/// ([`crate::CatchupRecord::mode`], the catch-up histogram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootstrapMode {
    /// Ship a digest-verified state snapshot from a healthy peer, install
    /// it, then replay only the delta — O(state). Also how a restart
    /// heals a corrupt directory.
    Snapshot,
    /// Replay every block from genesis into an empty directory — a
    /// restart with nothing recovered, O(history); also the label of a
    /// restart's delta replay. Kept as the baseline
    /// `tests/virtual_time_goldens.rs` pins snapshot shipping against.
    FullReplay,
}

impl BootstrapMode {
    /// Stable label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            BootstrapMode::Snapshot => "snapshot",
            BootstrapMode::FullReplay => "replay",
        }
    }
}

/// A peer commit whose state root disagrees with the canonical root for
/// that block — replicas are no longer state machine replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// The diverging peer.
    pub peer: usize,
    /// Block number at which the roots disagree.
    pub block: u64,
    /// Canonical rolling state root for the block.
    pub expected: Digest,
    /// The peer's actual rolling state root.
    pub actual: Digest,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peer {} diverged at block {}: expected {}, got {}",
            self.peer, self.block, self.expected, self.actual
        )
    }
}

/// Errors surfaced by the cluster harness.
#[derive(Clone, Debug)]
pub enum ClusterError {
    /// A substrate operation failed (storage, validation, endorsement).
    Fabric(FabricError),
    /// One or more peers committed a block with a non-canonical root.
    Diverged(Vec<Divergence>),
    /// The cluster did not converge (all live peers at the tip, no batch
    /// in flight) before the deadline.
    NotConverged {
        /// The deadline that expired.
        deadline: SimTime,
        /// Committed block count at the deadline.
        blocks: u64,
        /// Per-peer applied height (`None` = crashed).
        peer_heights: Vec<Option<u64>>,
    },
    /// A peer bootstrap found no live donor peer to ship from.
    NoDonor,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Fabric(e) => write!(f, "fabric error: {e}"),
            ClusterError::Diverged(ds) => {
                write!(f, "{} state-root divergence(s); first: {}", ds.len(), ds[0])
            }
            ClusterError::NotConverged {
                deadline,
                blocks,
                peer_heights,
            } => write!(
                f,
                "cluster not converged by t={:.3}s: {} blocks committed, peers at {:?}",
                deadline.as_secs_f64(),
                blocks,
                peer_heights
            ),
            ClusterError::NoDonor => f.write_str("no live peer available as bootstrap donor"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<FabricError> for ClusterError {
    fn from(e: FabricError) -> ClusterError {
        ClusterError::Fabric(e)
    }
}
