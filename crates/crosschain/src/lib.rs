//! The cross-blockchain baseline (§6.1): one blockchain per view,
//! kept consistent with the main chain by AHL-style two-phase commit.
//!
//! Each view is stored on its own *view blockchain* accessible only to
//! users with permission for that view. A transaction included in `n`
//! views becomes a cross-chain transaction: the main blockchain acts as
//! the 2PC coordinator (via a smart contract), each view blockchain is a
//! 2PC participant whose protocol logic is also a smart contract, and a
//! request turns into `2n` view-chain transactions (`n` Prepares, then
//! `n` Commits) plus the coordinator's begin/decide records.
//!
//! The protocol is one [`coordinator::Coordinator`] per request, a pure
//! state machine with no chain, clock or telemetry: [`execute_request`]
//! carries its calls to the main and view chains one committed
//! transaction at a time, and the sharded deployment (`ledgerview-shard`)
//! steps the same coordinator over live Raft clusters.
//!
//! Every participant — the view chains' [`ShardContract`], the sharded
//! deployment's [`TransferContract`] and the TPC-C workload's contract —
//! is one [`participant::Staging`] impl behind the one
//! [`participant::Fenced`] chaincode, which owns the prepare/commit/abort
//! rules: staged records, terminal markers, replayed decisions and
//! presumed abort.
//!
//! This is the baseline LedgerView is compared against in Figs 4–9: it is
//! atomic and verifiably consistent, but pays 2n on-chain transactions and
//! duplicates every payload once per view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contracts;
pub mod coordinator;
pub mod deployment;
pub mod participant;
pub mod protocol;

pub use contracts::{
    read_balance, total_balances, CoordinatorContract, ShardContract, TransferContract,
    COORDINATOR_CC, SHARD_CC, TRANSFER_CC,
};
pub use deployment::CrossChainDeployment;
pub use protocol::{execute_request, CrossChainRequest, RequestOutcome};
