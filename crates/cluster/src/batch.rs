//! The payload replicated through the Raft log: an ordered transaction
//! batch with its assigned timestamp and per-transaction trace contexts.
//!
//! Peers never see each other's local clocks — the batch carries the
//! timestamp every replica must commit with, which is what makes blocks
//! bit-identical across peers (`FabricChain::commit_ordered`). The
//! `batch_id` deduplicates client re-proposals: a batch re-submitted after
//! a leader crash may appear twice in the Raft log, and every replica
//! skips the duplicate identically.
//!
//! Each transaction also carries its [`TraceContext`] — the trace id of
//! the originating submission plus the span id of the ordering stage that
//! cut it. Contexts are SplitMix64-derived from the submission seed, so
//! the encoded batch is byte-identical whether or not any tracer is
//! attached: tracing rides the wire without touching consensus.

use fabric_sim::error::FabricError;
use fabric_sim::ledger::Transaction;
use fabric_sim::wire::{Reader, Writer};
use ledgerview_telemetry::TraceContext;

/// One ordered batch of endorsed transactions (the unit of replication;
/// each batch becomes exactly one block on every peer).
#[derive(Clone, Debug)]
pub struct OrderedBatch {
    /// Client-assigned id, unique per batch, used for duplicate
    /// suppression when a batch is re-proposed.
    pub batch_id: u64,
    /// Block timestamp (virtual microseconds at cut time); every replica
    /// commits the block with this exact timestamp.
    pub timestamp_us: u64,
    /// The endorsed transactions, in order.
    pub transactions: Vec<Transaction>,
    /// Per-transaction trace contexts, aligned with `transactions`:
    /// `traces[i].trace_id` identifies transaction `i`'s submission
    /// journey and `traces[i].parent_span` is the queue-stage span to
    /// hang downstream (replicate, per-peer commit) spans off.
    pub traces: Vec<TraceContext>,
}

impl OrderedBatch {
    /// Serialize for the Raft log.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.transactions.len(), self.traces.len());
        let mut w = Writer::new();
        w.u64(self.batch_id)
            .u64(self.timestamp_us)
            .list(&self.transactions, |w, tx| tx.encode_to(w));
        // The trace list shares the transaction count.
        for ctx in &self.traces {
            w.u64(ctx.trace_id);
            w.u64(ctx.parent_span);
        }
        w.into_bytes()
    }

    /// Decode a batch previously produced by [`OrderedBatch::encode`].
    pub fn decode(bytes: &[u8]) -> Result<OrderedBatch, FabricError> {
        let mut r = Reader::new(bytes);
        let batch_id = r.u64()?;
        let timestamp_us = r.u64()?;
        let transactions = r.list(Transaction::read_from)?;
        let mut traces = Vec::with_capacity(transactions.len());
        for _ in 0..transactions.len() {
            traces.push(TraceContext {
                trace_id: r.u64()?,
                parent_span: r.u64()?,
            });
        }
        r.finish()?;
        Ok(OrderedBatch {
            batch_id,
            timestamp_us,
            transactions,
            traces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::chaincode::{RwSet, WriteEntry};
    use fabric_sim::identity::Msp;
    use fabric_sim::ledger::TxId;
    use ledgerview_crypto::rng::seeded;
    use ledgerview_crypto::sha256::sha256;

    fn sample_tx(n: u64) -> Transaction {
        let mut rng = seeded(9);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1", &mut rng);
        let creator = msp.enroll(&org, "u", &mut rng).unwrap();
        Transaction {
            tx_id: TxId(sha256(&n.to_be_bytes())),
            chaincode: "counter".into(),
            function: "incr".into(),
            args: vec![b"k".to_vec(), b"1".to_vec()],
            creator: creator.cert().clone(),
            rwset: RwSet {
                reads: vec![],
                writes: vec![WriteEntry {
                    key: format!("k{n}"),
                    value: Some(vec![n as u8; 8]),
                }],
                private_writes: vec![],
            },
            response: vec![1, 2, 3],
            endorsements: vec![],
        }
    }

    fn sample_ctx(n: u64) -> TraceContext {
        let ctx = TraceContext::root(7, n);
        ctx.with_parent(ctx.span_id(2))
    }

    #[test]
    fn round_trips() {
        let batch = OrderedBatch {
            batch_id: 42,
            timestamp_us: 1_234_567,
            transactions: vec![sample_tx(1), sample_tx(2)],
            traces: vec![sample_ctx(1), sample_ctx(2)],
        };
        let decoded = OrderedBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded.batch_id, 42);
        assert_eq!(decoded.timestamp_us, 1_234_567);
        assert_eq!(decoded.transactions.len(), 2);
        assert_eq!(decoded.transactions[0].tx_id, batch.transactions[0].tx_id);
        assert_eq!(decoded.transactions[1].rwset, batch.transactions[1].rwset);
        assert_eq!(decoded.traces, batch.traces);
        assert_eq!(
            decoded.traces[0].parent(),
            Some(batch.traces[0].parent_span)
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let batch = OrderedBatch {
            batch_id: 7,
            timestamp_us: 1,
            transactions: vec![sample_tx(3)],
            traces: vec![sample_ctx(3)],
        };
        let bytes = batch.encode();
        assert!(OrderedBatch::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(OrderedBatch::decode(&bytes[..4]).is_err());
        // The trace section is load-bearing: stripping it entirely must
        // fail decode, not silently produce an un-traced batch.
        assert!(OrderedBatch::decode(&bytes[..bytes.len() - 16]).is_err());
    }
}
