//! Smart contracts (chaincode) and the transaction simulation context.
//!
//! A chaincode is deterministic code invoked during *endorsement*: it runs
//! against a snapshot of the state database and records every read (with
//! the version it saw) and every write into a [`RwSet`]. The write set is
//! applied only later, at validation time, if the read versions are still
//! current (MVCC) — exactly Fabric's execute-order-validate model.

use std::collections::BTreeMap;

use ledgerview_crypto::sha256::{sha256, Digest};

use crate::error::FabricError;
use crate::identity::Certificate;
use crate::ledger::TxId;
use crate::statedb::{Version, VersionedState};
use crate::wire::Writer;

/// One recorded read: the key and the version observed (None = key absent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadEntry {
    /// Key read.
    pub key: String,
    /// Version observed at simulation time; `None` if the key was absent.
    pub version: Option<Version>,
}

/// One recorded write: `None` value = delete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteEntry {
    /// Key written.
    pub key: String,
    /// New value, or `None` for a delete.
    pub value: Option<Vec<u8>>,
}

/// A write into a private data collection: only the hash travels on-chain,
/// the value is distributed off-chain to authorized peers (§2, *Private
/// data collections*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrivateWriteEntry {
    /// Collection name.
    pub collection: String,
    /// Key within the collection.
    pub key: String,
    /// SHA-256 of the private value (on-chain evidence).
    pub value_hash: Digest,
}

/// The read/write set produced by simulating a transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Keys read with observed versions.
    pub reads: Vec<ReadEntry>,
    /// Public state writes, in execution order.
    pub writes: Vec<WriteEntry>,
    /// Private data collection write hashes.
    pub private_writes: Vec<PrivateWriteEntry>,
}

impl RwSet {
    /// Canonical bytes (hashed into transactions and endorsed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_to(&mut w);
        w.into_bytes()
    }

    /// Append the canonical bytes to an open writer (no copy).
    pub fn write_to(&self, w: &mut Writer) {
        w.list(&self.reads, |w, r| {
            w.string(&r.key);
            match r.version {
                Some(v) => {
                    w.u8(1).u64(v.block_num).u32(v.tx_num);
                }
                None => {
                    w.u8(0);
                }
            }
        })
        .list(&self.writes, |w, wr| {
            w.string(&wr.key);
            match &wr.value {
                Some(v) => {
                    w.u8(1).bytes(v);
                }
                None => {
                    w.u8(0);
                }
            }
        })
        .list(&self.private_writes, |w, pw| {
            w.string(&pw.collection)
                .string(&pw.key)
                .array(pw.value_hash.as_bytes());
        });
    }

    /// Digest of the canonical bytes.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Decode the canonical bytes produced by [`RwSet::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<RwSet, FabricError> {
        let mut r = crate::wire::Reader::new(bytes);
        let set = Self::read_from(&mut r)?;
        r.finish()?;
        Ok(set)
    }

    /// Decode from an open reader (for embedding in larger messages).
    pub fn read_from(r: &mut crate::wire::Reader<'_>) -> Result<RwSet, FabricError> {
        let reads = r.list(|r| {
            let key = r.string()?;
            let version = match r.u8()? {
                0 => None,
                1 => Some(Version {
                    block_num: r.u64()?,
                    tx_num: r.u32()?,
                }),
                tag => {
                    return Err(FabricError::Malformed(format!(
                        "bad read-version tag {tag}"
                    )))
                }
            };
            Ok(ReadEntry { key, version })
        })?;
        let writes = r.list(|r| {
            let key = r.string()?;
            let value = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?),
                tag => return Err(FabricError::Malformed(format!("bad write-value tag {tag}"))),
            };
            Ok(WriteEntry { key, value })
        })?;
        let private_writes = r.list(|r| {
            Ok::<_, FabricError>(PrivateWriteEntry {
                collection: r.string()?,
                key: r.string()?,
                value_hash: Digest(r.array::<32>()?),
            })
        })?;
        Ok(RwSet {
            reads,
            writes,
            private_writes,
        })
    }
}

/// The context a chaincode sees while being simulated at endorsement time.
///
/// The committed state is accessed through the [`VersionedState`] trait, so
/// simulation runs identically against the in-memory database and the
/// disk-backed LSM backend.
pub struct TxContext<'a> {
    state: &'a dyn VersionedState,
    tx_id: TxId,
    creator: &'a Certificate,
    timestamp_us: u64,
    reads: Vec<ReadEntry>,
    /// Pending writes with read-your-writes semantics.
    pending: BTreeMap<String, Option<Vec<u8>>>,
    /// Private values carried off-chain (collection, key) → value.
    private_pending: BTreeMap<(String, String), Vec<u8>>,
    write_order: Vec<String>,
    /// Transient data supplied with the proposal: visible to the chaincode
    /// during simulation, never stored in the transaction (how Fabric
    /// clients pass private values without putting them on-chain).
    transient: BTreeMap<String, Vec<u8>>,
}

impl<'a> TxContext<'a> {
    /// Create a context for simulating one transaction.
    pub fn new(
        state: &'a dyn VersionedState,
        tx_id: TxId,
        creator: &'a Certificate,
        timestamp_us: u64,
    ) -> TxContext<'a> {
        Self::with_transient(state, tx_id, creator, timestamp_us, BTreeMap::new())
    }

    /// Create a context carrying transient (off-transaction) data.
    pub fn with_transient(
        state: &'a dyn VersionedState,
        tx_id: TxId,
        creator: &'a Certificate,
        timestamp_us: u64,
        transient: BTreeMap<String, Vec<u8>>,
    ) -> TxContext<'a> {
        TxContext {
            state,
            tx_id,
            creator,
            timestamp_us,
            reads: Vec::new(),
            pending: BTreeMap::new(),
            private_pending: BTreeMap::new(),
            write_order: Vec::new(),
            transient,
        }
    }

    /// Read a transient field supplied with the proposal (Fabric's
    /// `GetTransient`): present during simulation, absent from the
    /// persisted transaction.
    pub fn get_transient(&self, key: &str) -> Option<&[u8]> {
        self.transient.get(key).map(|v| v.as_slice())
    }

    /// The transaction id being simulated.
    pub fn tx_id(&self) -> TxId {
        self.tx_id
    }

    /// The invoking user's certificate.
    pub fn creator(&self) -> &Certificate {
        self.creator
    }

    /// Virtual timestamp of the invocation (microseconds).
    pub fn timestamp_us(&self) -> u64 {
        self.timestamp_us
    }

    /// Read a key (read-your-writes within the transaction; reads of
    /// committed state are recorded for MVCC).
    pub fn get_state(&mut self, key: &str) -> Option<Vec<u8>> {
        if let Some(pending) = self.pending.get(key) {
            return pending.clone();
        }
        // One backend probe serves both the MVCC version and the value
        // (on the LSM backend a get is a real disk lookup, so pairing them
        // halves the simulation read cost).
        let (value, version) = self.state.lookup(key);
        self.reads.push(ReadEntry {
            key: key.to_string(),
            version,
        });
        value
    }

    /// Write a key (buffered until commit).
    pub fn put_state(&mut self, key: impl Into<String>, value: Vec<u8>) {
        let key = key.into();
        if !self.pending.contains_key(&key) {
            self.write_order.push(key.clone());
        }
        self.pending.insert(key, Some(value));
    }

    /// Delete a key (buffered until commit).
    pub fn delete_state(&mut self, key: impl Into<String>) {
        let key = key.into();
        if !self.pending.contains_key(&key) {
            self.write_order.push(key.clone());
        }
        self.pending.insert(key, None);
    }

    /// Range scan over committed state merged with pending writes.
    /// Each returned key is recorded as a read.
    pub fn get_state_by_prefix(&mut self, prefix: &str) -> Vec<(String, Vec<u8>)> {
        let mut merged: BTreeMap<String, Vec<u8>> =
            self.state.prefix_scan(prefix).into_iter().collect();
        for (k, v) in &self.pending {
            if k.starts_with(prefix) {
                match v {
                    Some(val) => {
                        merged.insert(k.clone(), val.clone());
                    }
                    None => {
                        merged.remove(k);
                    }
                }
            }
        }
        for k in merged.keys() {
            if !self.pending.contains_key(k) {
                self.reads.push(ReadEntry {
                    key: k.clone(),
                    version: self.state.version(k),
                });
            }
        }
        merged.into_iter().collect()
    }

    /// Write into a private data collection: the value stays off-chain,
    /// only its hash enters the read/write set.
    pub fn put_private(
        &mut self,
        collection: impl Into<String>,
        key: impl Into<String>,
        value: Vec<u8>,
    ) {
        self.private_pending
            .insert((collection.into(), key.into()), value);
    }

    /// Finish simulation: produce the read/write set and the private
    /// payloads to distribute off-chain.
    pub fn into_results(self) -> (RwSet, Vec<(String, String, Vec<u8>)>) {
        let writes = self
            .write_order
            .iter()
            .map(|k| WriteEntry {
                key: k.clone(),
                value: self.pending.get(k).cloned().expect("ordered key present"),
            })
            .collect();
        let private_writes = self
            .private_pending
            .iter()
            .map(|((c, k), v)| PrivateWriteEntry {
                collection: c.clone(),
                key: k.clone(),
                value_hash: sha256(v),
            })
            .collect();
        let private_values = self
            .private_pending
            .into_iter()
            .map(|((c, k), v)| (c, k, v))
            .collect();
        (
            RwSet {
                reads: self.reads,
                writes,
                private_writes,
            },
            private_values,
        )
    }
}

/// Argument `i` of an invocation.
pub fn arg(args: &[Vec<u8>], i: usize) -> Result<&[u8], FabricError> {
    args.get(i)
        .map(|a| a.as_slice())
        .ok_or_else(|| FabricError::Malformed(format!("missing argument {i}")))
}

/// Argument `i` of an invocation, as UTF-8.
pub fn arg_str(args: &[Vec<u8>], i: usize) -> Result<String, FabricError> {
    String::from_utf8(arg(args, i)?.to_vec())
        .map_err(|_| FabricError::Malformed(format!("argument {i} not UTF-8")))
}

/// A smart contract. Implementations must be deterministic: the same state
/// and arguments must produce the same read/write set on every peer.
pub trait Chaincode: Send + Sync {
    /// Execute `function(args)` against the transaction context, returning
    /// a response payload.
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Msp;
    use crate::statedb::StateDb;
    use ledgerview_crypto::rng::seeded;

    fn test_cert() -> Certificate {
        let mut rng = seeded(1);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1", &mut rng);
        msp.enroll(&org, "alice", &mut rng).unwrap().cert().clone()
    }

    fn tx_id(n: u8) -> TxId {
        TxId(sha256(&[n]))
    }

    #[test]
    fn reads_record_versions() {
        let mut db = StateDb::new();
        db.put(
            "k".into(),
            b"v".to_vec(),
            Version {
                block_num: 3,
                tx_num: 1,
            },
        );
        let cert = test_cert();
        let mut ctx = TxContext::new(&db, tx_id(1), &cert, 0);
        assert_eq!(ctx.get_state("k"), Some(b"v".to_vec()));
        assert_eq!(ctx.get_state("absent"), None);
        let (rwset, _) = ctx.into_results();
        assert_eq!(rwset.reads.len(), 2);
        assert_eq!(
            rwset.reads[0].version,
            Some(Version {
                block_num: 3,
                tx_num: 1
            })
        );
        assert_eq!(rwset.reads[1].version, None);
    }

    #[test]
    fn read_your_writes() {
        let db = StateDb::new();
        let cert = test_cert();
        let mut ctx = TxContext::new(&db, tx_id(2), &cert, 0);
        ctx.put_state("k", b"new".to_vec());
        // Seen by the same transaction, without recording a state read.
        assert_eq!(ctx.get_state("k"), Some(b"new".to_vec()));
        ctx.delete_state("k");
        assert_eq!(ctx.get_state("k"), None);
        let (rwset, _) = ctx.into_results();
        assert!(rwset.reads.is_empty());
        // Last write wins: single delete entry.
        assert_eq!(rwset.writes.len(), 1);
        assert_eq!(rwset.writes[0].value, None);
    }

    #[test]
    fn write_order_preserved() {
        let db = StateDb::new();
        let cert = test_cert();
        let mut ctx = TxContext::new(&db, tx_id(3), &cert, 0);
        ctx.put_state("b", b"2".to_vec());
        ctx.put_state("a", b"1".to_vec());
        ctx.put_state("b", b"3".to_vec()); // overwrite keeps original position
        let (rwset, _) = ctx.into_results();
        let keys: Vec<&str> = rwset.writes.iter().map(|w| w.key.as_str()).collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(rwset.writes[0].value, Some(b"3".to_vec()));
    }

    #[test]
    fn prefix_scan_merges_pending() {
        let mut db = StateDb::new();
        db.put("p~1".into(), b"old1".to_vec(), Version::GENESIS);
        db.put("p~2".into(), b"old2".to_vec(), Version::GENESIS);
        let cert = test_cert();
        let mut ctx = TxContext::new(&db, tx_id(4), &cert, 0);
        ctx.put_state("p~2", b"new2".to_vec());
        ctx.put_state("p~3", b"new3".to_vec());
        ctx.delete_state("p~1");
        let result = ctx.get_state_by_prefix("p~");
        assert_eq!(
            result,
            vec![
                ("p~2".to_string(), b"new2".to_vec()),
                ("p~3".to_string(), b"new3".to_vec()),
            ]
        );
    }

    #[test]
    fn private_writes_hash_only() {
        let db = StateDb::new();
        let cert = test_cert();
        let mut ctx = TxContext::new(&db, tx_id(5), &cert, 0);
        ctx.put_private("collA", "k1", b"secret-value".to_vec());
        let (rwset, private) = ctx.into_results();
        assert_eq!(rwset.private_writes.len(), 1);
        assert_eq!(rwset.private_writes[0].value_hash, sha256(b"secret-value"));
        // The value itself is not in the rwset bytes.
        let bytes = rwset.to_bytes();
        assert!(!bytes
            .windows(b"secret-value".len())
            .any(|w| w == b"secret-value"));
        assert_eq!(
            private,
            vec![(
                "collA".to_string(),
                "k1".to_string(),
                b"secret-value".to_vec()
            )]
        );
    }

    #[test]
    fn rwset_bytes_deterministic_and_sensitive() {
        let mk = |val: &[u8]| RwSet {
            reads: vec![ReadEntry {
                key: "r".into(),
                version: Some(Version::GENESIS),
            }],
            writes: vec![WriteEntry {
                key: "w".into(),
                value: Some(val.to_vec()),
            }],
            private_writes: vec![],
        };
        assert_eq!(mk(b"x").to_bytes(), mk(b"x").to_bytes());
        assert_ne!(mk(b"x").digest(), mk(b"y").digest());
    }
}
