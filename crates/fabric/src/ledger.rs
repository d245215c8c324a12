//! Blocks, the hash chain, and the block store.
//!
//! A block batches ordered transactions; its header carries the previous
//! block's hash, a Merkle root over the transaction bytes, and a rolling
//! state digest. Validation flags (Fabric keeps invalid transactions in the
//! block, marked invalid) are part of block metadata.
//!
//! The [`BlockStore`] keeps every block's header, validity flags and
//! transaction-index entries, and running byte and transaction counts.
//! Where the body lives depends on the chain: an in-memory store keeps
//! each body it appends, while a durable store (the one storage recovery
//! builds) keeps none and reads a body back from its block file the first
//! time a reader asks for it, as a Fabric peer's ledger lives in its block
//! files.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use fabric_store::{BlockReader, FrameAt};
use ledgerview_crypto::sha256::{sha256, Digest};

use crate::chaincode::RwSet;
use crate::error::FabricError;
use crate::identity::Certificate;
use crate::merkle::{self, leaf_hash, MerkleTree, ProofStep};
use crate::wire::{Reader, Writer};

/// A transaction identifier: the SHA-256 of the proposal bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub Digest);

impl TxId {
    /// Hex rendering.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }

    /// A short prefix, convenient for keys and logs.
    pub fn short(&self) -> String {
        self.to_hex()[..16].to_string()
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A signed endorsement attached to a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing peer's certificate.
    pub endorser: Certificate,
    /// Signature over the proposal response bytes.
    pub signature: [u8; 64],
}

/// An ordered transaction as stored in a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Identifier (hash of the proposal).
    pub tx_id: TxId,
    /// Target chaincode name.
    pub chaincode: String,
    /// Invoked function.
    pub function: String,
    /// Invocation arguments.
    pub args: Vec<Vec<u8>>,
    /// The creator's certificate.
    pub creator: Certificate,
    /// The read/write set produced at endorsement time.
    pub rwset: RwSet,
    /// Chaincode response payload.
    pub response: Vec<u8>,
    /// Endorsements collected by the client.
    pub endorsements: Vec<Endorsement>,
}

impl Transaction {
    /// Canonical bytes for hashing into the block's data root: the wire
    /// form with each certificate's CA signature left out.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_fields(&mut w, Certificate::write_signed_to);
        w.into_bytes()
    }

    /// Approximate on-wire size in bytes (storage accounting).
    pub fn size_bytes(&self) -> u64 {
        self.to_bytes().len() as u64
    }

    /// Full wire encoding, decodable by [`Transaction::decode`].
    ///
    /// Unlike [`Transaction::to_bytes`] (the hash preimage), this carries
    /// complete certificates including their CA signatures so the
    /// transaction can be reconstructed and re-verified by a receiving
    /// peer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_to(&mut w);
        w.into_bytes()
    }

    /// Append the full wire encoding to an open writer. Nested structures
    /// are written in place (no intermediate buffers), which matters on the
    /// block-commit hot path where whole blocks are serialized for storage.
    pub fn encode_to(&self, w: &mut Writer) {
        self.write_fields(w, Certificate::write_to);
    }

    /// The one walk over the eight fields, shared by the hash preimage and
    /// the wire form: they differ only in how `cert` writes each
    /// certificate.
    fn write_fields(&self, w: &mut Writer, cert: fn(&Certificate, &mut Writer)) {
        w.array(self.tx_id.0.as_bytes())
            .string(&self.chaincode)
            .string(&self.function)
            .list(&self.args, |w, a| {
                w.bytes(a);
            })
            .nested(|w| cert(&self.creator, w))
            .nested(|w| self.rwset.write_to(w))
            .bytes(&self.response)
            .list(&self.endorsements, |w, e| {
                w.nested(|w| cert(&e.endorser, w)).array(&e.signature);
            });
    }

    /// Decode the wire encoding produced by [`Transaction::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Transaction, FabricError> {
        let mut r = Reader::new(bytes);
        let tx = Self::read_from(&mut r)?;
        r.finish()?;
        Ok(tx)
    }

    /// Decode from an open reader (for embedding in larger messages).
    pub fn read_from(r: &mut Reader<'_>) -> Result<Transaction, FabricError> {
        let tx_id = TxId(Digest(r.array::<32>()?));
        let chaincode = r.string()?;
        let function = r.string()?;
        let args = r.list(Reader::bytes)?;
        let creator = r.nested(Certificate::read_from)?;
        let rwset = r.nested(RwSet::read_from)?;
        let response = r.bytes()?;
        let endorsements = r.list(|r| {
            Ok::<_, FabricError>(Endorsement {
                endorser: r.nested(Certificate::read_from)?,
                signature: r.array::<64>()?,
            })
        })?;
        Ok(Transaction {
            tx_id,
            chaincode,
            function,
            args,
            creator,
            rwset,
            response,
            endorsements,
        })
    }
}

/// A block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height of this block (genesis = 0).
    pub number: u64,
    /// Hash of the previous block's header ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Merkle root over the serialized transactions.
    pub data_hash: Digest,
    /// Rolling state digest after applying this block:
    /// `H(prev_state_root || root(applied writes))`.
    pub state_root: Digest,
    /// Virtual time of block creation, microseconds.
    pub timestamp_us: u64,
}

impl BlockHeader {
    /// Canonical header bytes (the preimage of the block hash).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.number)
            .array(self.prev_hash.as_bytes())
            .array(self.data_hash.as_bytes())
            .array(self.state_root.as_bytes())
            .u64(self.timestamp_us);
        w.into_bytes()
    }

    /// The block hash: SHA-256 of the header bytes.
    pub fn hash(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Decode the bytes produced by [`BlockHeader::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BlockHeader, FabricError> {
        let mut r = Reader::new(bytes);
        let header = Self::read_from(&mut r)?;
        r.finish()?;
        Ok(header)
    }

    /// Decode from an open reader (for embedding in larger messages).
    pub fn read_from(r: &mut Reader<'_>) -> Result<BlockHeader, FabricError> {
        Ok(BlockHeader {
            number: r.u64()?,
            prev_hash: Digest(r.array::<32>()?),
            data_hash: Digest(r.array::<32>()?),
            state_root: Digest(r.array::<32>()?),
            timestamp_us: r.u64()?,
        })
    }
}

/// A block's transactions as its header and the store's byte accounting
/// see them: their Merkle root and the summed length of their hash
/// preimages, from one encoding of each transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TxDigest {
    pub(crate) root: Digest,
    pub(crate) bytes: u64,
}

/// A block: header, transactions and per-transaction validity flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The header (hashed into the chain).
    pub header: BlockHeader,
    /// Ordered transactions.
    pub transactions: Vec<Transaction>,
    /// `validity[i]` is true iff transaction i committed (passed MVCC and
    /// endorsement-policy validation).
    pub validity: Vec<bool>,
}

impl Block {
    /// Compute the Merkle root over this block's transactions.
    pub fn compute_data_hash(transactions: &[Transaction]) -> Digest {
        Block::digest_transactions(transactions).root
    }

    /// The Merkle root over `transactions` together with the bytes they
    /// add to [`Block::size_bytes`].
    pub(crate) fn digest_transactions(transactions: &[Transaction]) -> TxDigest {
        let mut bytes = 0;
        let leaves = transactions
            .iter()
            .map(|t| {
                let preimage = t.to_bytes();
                bytes += preimage.len() as u64;
                leaf_hash(&preimage)
            })
            .collect();
        TxDigest {
            root: merkle::root_of(leaves),
            bytes,
        }
    }

    fn tx_leaf_hashes(transactions: &[Transaction]) -> Vec<Digest> {
        transactions
            .iter()
            .map(|t| leaf_hash(&t.to_bytes()))
            .collect()
    }

    /// Approximate block size in bytes.
    pub fn size_bytes(&self) -> u64 {
        let header = self.header.to_bytes().len() as u64;
        let txs: u64 = self.transactions.iter().map(|t| t.size_bytes()).sum();
        header + txs + self.validity.len() as u64
    }

    /// Merkle inclusion proof for the transaction at `index`.
    pub fn prove_tx(&self, index: usize) -> Vec<ProofStep> {
        MerkleTree::from_leaf_hashes(Block::tx_leaf_hashes(&self.transactions))
            .prove(index)
            .steps
    }

    /// Full wire encoding, decodable by [`Block::decode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.header.to_bytes())
            .list(&self.transactions, |w, tx| {
                w.nested(|w| tx.encode_to(w));
            })
            .list(&self.validity, |w, v| {
                w.u8(*v as u8);
            });
        w.into_bytes()
    }

    /// Decode the wire encoding produced by [`Block::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Block, FabricError> {
        let mut r = Reader::new(bytes);
        let header = r.nested(BlockHeader::read_from)?;
        let transactions = r.list(|r| r.nested(Transaction::read_from))?;
        let validity = r.list(|r| match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(FabricError::Malformed(format!("bad validity flag {tag}"))),
        })?;
        r.finish()?;
        Ok(Block {
            header,
            transactions,
            validity,
        })
    }
}

/// What the store keeps of one block.
enum Entry {
    /// The whole block (an in-memory store).
    Kept(Block),
    /// A durable store's header and flags, with where the encoded block
    /// sits in the block file; the body is kept once first read back.
    Stored {
        header: BlockHeader,
        validity: Vec<bool>,
        at: FrameAt,
        body: OnceLock<Box<Block>>,
    },
}

impl Entry {
    fn header(&self) -> &BlockHeader {
        match self {
            Entry::Kept(block) => &block.header,
            Entry::Stored { header, .. } => header,
        }
    }

    fn validity(&self) -> &[bool] {
        match self {
            Entry::Kept(block) => &block.validity,
            Entry::Stored { validity, .. } => validity,
        }
    }

    /// The body, if the store holds it.
    fn held(&self) -> Option<&Block> {
        match self {
            Entry::Kept(block) => Some(block),
            Entry::Stored { body, .. } => body.get().map(|b| &**b),
        }
    }
}

/// The append-only block store with hash-chain verification and a
/// transaction index.
///
/// A store normally starts at block 0, but a *pruned* store — built when
/// a peer bootstraps from a shipped snapshot — starts at a non-zero
/// `base`: it holds no block below the snapshot height, only the hash of
/// the block just before it, which anchors the prev-hash chain.
///
/// Headers, validity flags, the transaction index and running byte and
/// transaction counts are always held. Bodies are held by an in-memory
/// store; a durable store (built by storage recovery) reads each from the
/// block file the first time [`BlockStore::block`], [`BlockStore::tip`],
/// [`BlockStore::iter`] or [`BlockStore::find_tx`] asks, and keeps it.
/// Those readers panic if the file no longer gives back what was appended;
/// [`BlockStore::try_block`] reports it as a [`FabricError`] instead, and
/// [`BlockStore::for_each_block`] walks the chain without keeping a body.
pub struct BlockStore {
    entries: Vec<Entry>,
    /// The block file that bodies are read back from (durable stores).
    reader: Option<BlockReader>,
    tx_index: HashMap<TxId, (u64, u32)>,
    /// Number of the first block this store holds.
    base: u64,
    /// Hash of block `base - 1` (`Digest::ZERO` when `base` is 0).
    base_prev_hash: Digest,
    /// Running sums over the stored blocks.
    total_bytes: u64,
    committed_txs: u64,
    total_txs: u64,
}

impl Default for BlockStore {
    fn default() -> BlockStore {
        BlockStore::new_pruned(0, Digest::ZERO)
    }
}

impl BlockStore {
    /// An empty store starting at block 0.
    pub fn new() -> BlockStore {
        BlockStore::default()
    }

    /// An empty pruned store: the next block appended must be `base` and
    /// must link to `base_prev_hash`.
    pub fn new_pruned(base: u64, base_prev_hash: Digest) -> BlockStore {
        BlockStore {
            entries: Vec::new(),
            reader: None,
            tx_index: HashMap::new(),
            base,
            base_prev_hash,
            total_bytes: 0,
            committed_txs: 0,
            total_txs: 0,
        }
    }

    /// Append a block, verifying height, the previous-hash link and the
    /// data hash against the transactions. The store keeps the body.
    pub fn append(&mut self, block: Block) -> Result<(), FabricError> {
        let digest = Block::digest_transactions(&block.transactions);
        self.append_hashed(block, digest, None)
    }

    /// [`BlockStore::append`] for a block this process just built:
    /// `digest` is what the caller computed for the header, so the
    /// transactions are not hashed a second time. A durable store given
    /// the block's place in its block file (`at`) drops the body.
    pub(crate) fn append_hashed(
        &mut self,
        block: Block,
        digest: TxDigest,
        at: Option<FrameAt>,
    ) -> Result<(), FabricError> {
        self.check_next(&block, digest)?;
        self.push(block, digest, at);
        Ok(())
    }

    /// The checks every appended block gets, live or recovered: its
    /// number is the next height, its previous-hash links to the tip (or
    /// the snapshot anchor), its data hash is `digest` — the Merkle root
    /// of its transactions — and it has one validity flag per
    /// transaction.
    pub(crate) fn check_next(&self, block: &Block, digest: TxDigest) -> Result<(), FabricError> {
        debug_assert_eq!(digest, Block::digest_transactions(&block.transactions));
        let number = block.header.number;
        let expected_number = self.height();
        if number != expected_number {
            return Err(FabricError::IntegrityViolation(format!(
                "expected block {expected_number}, got {number}"
            )));
        }
        if block.header.prev_hash != self.tip_hash() {
            return Err(FabricError::IntegrityViolation(
                "previous-hash link broken".into(),
            ));
        }
        if block.header.data_hash != digest.root {
            return Err(FabricError::IntegrityViolation(
                "data hash does not match transactions".into(),
            ));
        }
        if block.validity.len() != block.transactions.len() {
            return Err(FabricError::Malformed("validity flags length".into()));
        }
        Ok(())
    }

    /// Add a block that passed [`BlockStore::check_next`]. Given its place
    /// in the block file (`at`), the store keeps only its header, flags
    /// and index entries; the body is read back when asked for.
    pub(crate) fn push(&mut self, block: Block, digest: TxDigest, at: Option<FrameAt>) {
        let number = block.header.number;
        for (i, tx) in block.transactions.iter().enumerate() {
            self.tx_index.insert(tx.tx_id, (number, i as u32));
        }
        let txs = block.transactions.len() as u64;
        // `Block::size_bytes`, from the preimage lengths already summed.
        self.total_bytes += block.header.to_bytes().len() as u64 + digest.bytes + txs;
        self.committed_txs += block.validity.iter().filter(|v| **v).count() as u64;
        self.total_txs += txs;
        let entry = match at {
            Some(at) => Entry::Stored {
                header: block.header,
                validity: block.validity,
                at,
                body: OnceLock::new(),
            },
            None => Entry::Kept(block),
        };
        self.entries.push(entry);
    }

    /// Read the bodies this store does not hold from the block file
    /// `reader` reads: the one every block pushed with its place sits in.
    pub(crate) fn read_back_from(&mut self, reader: BlockReader) {
        self.reader = Some(reader);
    }

    /// Height: the next block number to append (`base +` stored blocks).
    pub fn height(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Number of the first block this store holds (0 unless pruned).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of blocks this store holds (`height - base`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no block.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entry(&self, number: u64) -> Option<&Entry> {
        self.entries
            .get(usize::try_from(number.checked_sub(self.base)?).ok()?)
    }

    /// Block by number (`None` below the base or above the tip), its body
    /// read back from the block file if the store does not hold it:
    /// `Err(Storage)` if the bytes there are not the block appended,
    /// `Err(Io)` if the operating system refuses the read.
    pub fn try_block(&self, number: u64) -> Result<Option<&Block>, FabricError> {
        self.entry(number).map(|e| self.body(e)).transpose()
    }

    /// Block by number (`None` below the base or above the tip).
    ///
    /// # Panics
    ///
    /// If a durable store's block file no longer holds the block
    /// ([`BlockStore::try_block`] returns the error instead).
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.entry(number).map(|e| self.loaded(e))
    }

    /// The latest block (`None` for an empty store — including a freshly
    /// bootstrapped pruned one, whose tip hash is still well-defined via
    /// [`BlockStore::tip_hash`]). Panics as [`BlockStore::block`] does.
    pub fn tip(&self) -> Option<&Block> {
        self.entries.last().map(|e| self.loaded(e))
    }

    /// Hash the next appended block must carry as `prev_hash`: the tip
    /// block's hash, the snapshot anchor for an empty pruned store, or
    /// `Digest::ZERO` for an empty full store.
    pub fn tip_hash(&self) -> Digest {
        self.entries
            .last()
            .map(|e| e.header().hash())
            .unwrap_or(self.base_prev_hash)
    }

    /// Iterate over all blocks in order. Panics as [`BlockStore::block`]
    /// does.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.entries.iter().map(|e| self.loaded(e))
    }

    /// Look up a transaction and its validity by id. Panics as
    /// [`BlockStore::block`] does.
    pub fn find_tx(&self, tx_id: &TxId) -> Option<(&Transaction, bool)> {
        let (number, idx) = *self.tx_index.get(tx_id)?;
        let entry = self.entry(number)?;
        let block = self.loaded(entry);
        Some((
            &block.transactions[idx as usize],
            entry.validity()[idx as usize],
        ))
    }

    /// Location `(block, index)` of a transaction.
    pub fn tx_location(&self, tx_id: &TxId) -> Option<(u64, u32)> {
        self.tx_index.get(tx_id).copied()
    }

    /// The block behind `entry`, read back and kept on first use.
    fn body<'s>(&'s self, entry: &'s Entry) -> Result<&'s Block, FabricError> {
        match entry {
            Entry::Kept(block) => Ok(block),
            Entry::Stored { body, .. } => match body.get() {
                Some(block) => Ok(block),
                None => {
                    let block = self.read_back(entry)?;
                    Ok(body.get_or_init(|| Box::new(block)))
                }
            },
        }
    }

    /// [`BlockStore::body`] for the readers that cannot return an error.
    fn loaded<'s>(&'s self, entry: &'s Entry) -> &'s Block {
        self.body(entry).unwrap_or_else(|e| {
            panic!(
                "block {} could not be read back: {e}",
                entry.header().number
            )
        })
    }

    /// Read `entry`'s block from the block file and check it against what
    /// the store kept: header, validity flags and the data hash over the
    /// transactions.
    fn read_back(&self, entry: &Entry) -> Result<Block, FabricError> {
        let number = entry.header().number;
        let (Some(reader), Entry::Stored { at, .. }) = (&self.reader, entry) else {
            return Err(FabricError::Storage(format!(
                "block {number} has no stored body"
            )));
        };
        let bytes = reader.read(number, *at)?;
        let block = Block::decode(&bytes).map_err(|e| {
            FabricError::Storage(format!("block {number} read back does not decode: {e}"))
        })?;
        if block.header != *entry.header()
            || block.validity != entry.validity()
            || Block::compute_data_hash(&block.transactions) != block.header.data_hash
        {
            return Err(FabricError::Storage(format!(
                "block {number} read back is not the block appended"
            )));
        }
        Ok(block)
    }

    /// Hand every block to `f`, in order. A body the store holds is
    /// handed over as it is; any other is read back from the block file,
    /// checked, and dropped again once `f` returns, so a scan does not
    /// pull the history into memory. The first error — a read back that
    /// fails (`Storage` or `Io`, as [`BlockStore::try_block`]) or `f`'s
    /// own — ends the walk.
    pub fn for_each_block<E: From<FabricError>>(
        &self,
        mut f: impl FnMut(&Block) -> Result<(), E>,
    ) -> Result<(), E> {
        self.walk(|block, _| f(block))
    }

    /// [`BlockStore::for_each_block`], telling `f` whether the block was
    /// read back for it — and so its data hash already checked against
    /// the header the store kept.
    fn walk<E: From<FabricError>>(
        &self,
        mut f: impl FnMut(&Block, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        for entry in &self.entries {
            match entry.held() {
                Some(block) => f(block, false)?,
                None => f(&self.read_back(entry)?, true)?,
            }
        }
        Ok(())
    }

    /// Re-verify the whole hash chain (tamper audit), from the genesis
    /// block or — for a pruned store — from the snapshot anchor, in one
    /// walk of [`BlockStore::for_each_block`]'s. The data hash is
    /// recomputed for the bodies the store holds; a body read back for
    /// the walk had it checked by the read.
    pub fn verify_chain(&self) -> Result<(), FabricError> {
        let (mut number, mut prev) = (self.base, self.base_prev_hash);
        self.walk(|block, read_back| {
            let header = &block.header;
            if header.number != number {
                return Err(FabricError::IntegrityViolation(format!(
                    "block {number} has wrong number"
                )));
            }
            if header.prev_hash != prev {
                return Err(FabricError::IntegrityViolation(format!(
                    "block {number} prev-hash mismatch"
                )));
            }
            if !read_back && header.data_hash != Block::compute_data_hash(&block.transactions) {
                return Err(FabricError::IntegrityViolation(format!(
                    "block {number} data-hash mismatch"
                )));
            }
            (number, prev) = (number + 1, header.hash());
            Ok(())
        })
    }

    /// Total serialized bytes of all blocks (storage accounting, Fig 9).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total committed (valid) transactions.
    pub fn committed_tx_count(&self) -> u64 {
        self.committed_txs
    }

    /// Total transactions including invalidated ones.
    pub fn total_tx_count(&self) -> u64 {
        self.total_txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::RwSet;
    use crate::identity::Msp;
    use ledgerview_crypto::rng::seeded;

    fn dummy_tx(n: u8) -> Transaction {
        let mut rng = seeded(n as u64);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1", &mut rng);
        let id = msp.enroll(&org, &format!("user{n}"), &mut rng).unwrap();
        Transaction {
            tx_id: TxId(sha256(&[n])),
            chaincode: "cc".into(),
            function: "f".into(),
            args: vec![vec![n]],
            creator: id.cert().clone(),
            rwset: RwSet::default(),
            response: vec![],
            endorsements: vec![],
        }
    }

    fn make_block(number: u64, prev: Digest, txs: Vec<Transaction>) -> Block {
        let data_hash = Block::compute_data_hash(&txs);
        let validity = vec![true; txs.len()];
        Block {
            header: BlockHeader {
                number,
                prev_hash: prev,
                data_hash,
                state_root: Digest::ZERO,
                timestamp_us: number * 1000,
            },
            transactions: txs,
            validity,
        }
    }

    #[test]
    fn append_and_chain_verification() {
        let mut store = BlockStore::new();
        let b0 = make_block(0, Digest::ZERO, vec![dummy_tx(1)]);
        let h0 = b0.header.hash();
        store.append(b0).unwrap();
        let b1 = make_block(1, h0, vec![dummy_tx(2), dummy_tx(3)]);
        store.append(b1).unwrap();
        assert_eq!(store.height(), 2);
        store.verify_chain().unwrap();
        assert_eq!(store.total_tx_count(), 3);
        assert_eq!(store.committed_tx_count(), 3);
    }

    #[test]
    fn wrong_height_rejected() {
        let mut store = BlockStore::new();
        let b = make_block(5, Digest::ZERO, vec![]);
        assert!(store.append(b).is_err());
    }

    #[test]
    fn broken_prev_hash_rejected() {
        let mut store = BlockStore::new();
        store.append(make_block(0, Digest::ZERO, vec![])).unwrap();
        let bad = make_block(1, Digest::ZERO, vec![]);
        assert!(matches!(
            store.append(bad),
            Err(FabricError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn tampered_tx_breaks_data_hash() {
        let mut store = BlockStore::new();
        let mut b = make_block(0, Digest::ZERO, vec![dummy_tx(1)]);
        b.transactions[0].response = b"tampered".to_vec();
        assert!(store.append(b).is_err());
    }

    #[test]
    fn tx_lookup() {
        let mut store = BlockStore::new();
        let tx = dummy_tx(7);
        let id = tx.tx_id;
        store.append(make_block(0, Digest::ZERO, vec![tx])).unwrap();
        let (found, valid) = store.find_tx(&id).unwrap();
        assert_eq!(found.tx_id, id);
        assert!(valid);
        assert_eq!(store.tx_location(&id), Some((0, 0)));
        assert!(store.find_tx(&TxId(sha256(b"nope"))).is_none());
    }

    #[test]
    fn invalid_tx_flagged() {
        let mut store = BlockStore::new();
        let mut b = make_block(0, Digest::ZERO, vec![dummy_tx(1), dummy_tx(2)]);
        b.validity = vec![true, false];
        let id_invalid = b.transactions[1].tx_id;
        store.append(b).unwrap();
        assert_eq!(store.committed_tx_count(), 1);
        let (_, valid) = store.find_tx(&id_invalid).unwrap();
        assert!(!valid);
    }

    #[test]
    fn tx_merkle_proof() {
        let txs = vec![dummy_tx(1), dummy_tx(2), dummy_tx(3)];
        let b = make_block(0, Digest::ZERO, txs);
        let proof = b.prove_tx(1);
        let root = b.header.data_hash;
        assert!(crate::merkle::verify_inclusion(
            &root,
            &b.transactions[1].to_bytes(),
            &crate::merkle::MerkleProof { steps: proof }
        ));
    }

    #[test]
    fn validity_length_mismatch_rejected() {
        let mut store = BlockStore::new();
        let mut b = make_block(0, Digest::ZERO, vec![dummy_tx(1)]);
        b.validity = vec![];
        assert!(matches!(store.append(b), Err(FabricError::Malformed(_))));
    }
}
