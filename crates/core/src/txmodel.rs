//! The transaction model: `(tid, t[N], t[S])` and on-chain concealment.
//!
//! Every client transaction has a non-secret part — attributes visible to
//! all peers and usable in view predicates — and a secret part that is
//! concealed before it reaches the blockchain (§3): encrypted under a
//! fresh per-transaction key (encryption-based methods) or replaced by
//! `h(secret ‖ salt)` (hash-based methods).

use std::collections::BTreeMap;

use fabric_sim::wire::{Reader, Writer};
use fabric_sim::FabricError;
use ledgerview_crypto::sha256::{sha256_concat, Digest};
use ledgerview_crypto::SymmetricKey;
use rand::RngCore;

use crate::error::ViewError;

/// An attribute value in the non-secret part.
#[derive(Clone, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum AttrValue {
    /// String attribute (entities, item ids, …).
    Str(String),
    /// Integer attribute (amounts, timestamps, …).
    Int(i64),
}

impl AttrValue {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> AttrValue {
        AttrValue::Str(s.into())
    }

    /// Shorthand integer constructor.
    pub fn int(i: i64) -> AttrValue {
        AttrValue::Int(i)
    }

    /// The string payload, if this is a string attribute.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::Int(_) => None,
        }
    }
}

/// The non-secret part `t[N]`: an ordered attribute map.
pub type NonSecret = BTreeMap<String, AttrValue>;

/// Encode a non-secret part canonically.
pub fn encode_non_secret(ns: &NonSecret) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(ns, |w, (k, v)| {
        w.string(k);
        match v {
            AttrValue::Str(s) => {
                w.u8(0).string(s);
            }
            AttrValue::Int(i) => {
                w.u8(1).u64(*i as u64);
            }
        }
    });
    w.into_bytes()
}

fn decode_non_secret(r: &mut Reader<'_>) -> Result<NonSecret, FabricError> {
    let attrs = r.list(|r| {
        let key = r.string()?;
        let value = match r.u8()? {
            0 => AttrValue::Str(r.string()?),
            1 => AttrValue::Int(r.u64()? as i64),
            _ => return Err(FabricError::Malformed("bad attr tag".into())),
        };
        Ok((key, value))
    })?;
    Ok(attrs.into_iter().collect())
}

/// A transaction as the client composes it, before concealment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientTransaction {
    /// Visible attributes (`t[N]`).
    pub non_secret: NonSecret,
    /// The confidential payload (`t[S]`).
    pub secret: Vec<u8>,
}

impl ClientTransaction {
    /// Build from attribute pairs and a secret payload.
    pub fn new(attrs: Vec<(&str, AttrValue)>, secret: impl Into<Vec<u8>>) -> ClientTransaction {
        ClientTransaction {
            non_secret: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            secret: secret.into(),
        }
    }
}

/// The concealed secret as stored on-chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Concealed {
    /// Encryption-based (§4.1): `enc(t[S], K_i)` under a fresh key.
    Encrypted {
        /// The AEAD ciphertext.
        ciphertext: Vec<u8>,
    },
    /// Hash-based (§4.3): salt and `h(t[S] ‖ salt)`.
    Hashed {
        /// The random salt (dictionary-attack defence).
        salt: [u8; 16],
        /// `SHA-256(secret ‖ salt)`.
        digest: Digest,
    },
}

/// A transaction as stored on the ledger: visible attributes + concealed
/// secret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredTransaction {
    /// Visible attributes.
    pub non_secret: NonSecret,
    /// Concealed secret part.
    pub concealed: Concealed,
}

impl StoredTransaction {
    /// Canonical bytes (the invoke contract's state value).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&encode_non_secret(&self.non_secret));
        match &self.concealed {
            Concealed::Encrypted { ciphertext } => {
                w.u8(0).bytes(ciphertext);
            }
            Concealed::Hashed { salt, digest } => {
                w.u8(1).array(salt).array(digest.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decode from state bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoredTransaction, ViewError> {
        let mut r = Reader::new(bytes);
        let non_secret = r.nested(decode_non_secret)?;
        let concealed = match r.u8()? {
            0 => Concealed::Encrypted {
                ciphertext: r.bytes()?,
            },
            1 => Concealed::Hashed {
                salt: r.array::<16>()?,
                digest: Digest(r.array::<32>()?),
            },
            _ => return Err(ViewError::Malformed("bad concealment tag".into())),
        };
        r.finish()?;
        Ok(StoredTransaction {
            non_secret,
            concealed,
        })
    }

    /// Check a revealed secret against the concealment (soundness case 2,
    /// §4.7): hash must match, or the provided key must decrypt the stored
    /// ciphertext to the claimed secret.
    pub fn matches_secret(&self, secret: &[u8], tx_key: Option<&SymmetricKey>) -> bool {
        match &self.concealed {
            Concealed::Hashed { salt, digest } => sha256_concat(&[secret, salt]) == *digest,
            Concealed::Encrypted { ciphertext } => match tx_key {
                Some(k) => k.open(ciphertext).is_ok_and(|pt| pt == secret),
                None => false,
            },
        }
    }
}

/// Conceal a secret by hashing with a fresh salt (hash-based methods).
pub fn conceal_by_hash<R: RngCore + ?Sized>(secret: &[u8], rng: &mut R) -> Concealed {
    let mut salt = [0u8; 16];
    rng.fill_bytes(&mut salt);
    Concealed::Hashed {
        salt,
        digest: sha256_concat(&[secret, &salt]),
    }
}

/// Conceal a secret by encryption under a fresh per-transaction key
/// (encryption-based methods). Returns the concealment and the key.
pub fn conceal_by_encryption<R: RngCore + ?Sized>(
    secret: &[u8],
    rng: &mut R,
) -> (Concealed, SymmetricKey) {
    let key = SymmetricKey::generate(rng);
    let ciphertext = key.seal(rng, secret);
    (Concealed::Encrypted { ciphertext }, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerview_crypto::rng::seeded;

    fn sample_tx() -> ClientTransaction {
        ClientTransaction::new(
            vec![
                ("item", AttrValue::str("i42")),
                ("from", AttrValue::str("Manufacturer 1")),
                ("to", AttrValue::str("Warehouse 1")),
                ("shipment", AttrValue::int(1001)),
            ],
            b"type=battery; amount=200; price=9.99".to_vec(),
        )
    }

    #[test]
    fn stored_tx_round_trip_encrypted() {
        let mut rng = seeded(1);
        let tx = sample_tx();
        let (concealed, _k) = conceal_by_encryption(&tx.secret, &mut rng);
        let stored = StoredTransaction {
            non_secret: tx.non_secret.clone(),
            concealed,
        };
        let decoded = StoredTransaction::from_bytes(&stored.to_bytes()).unwrap();
        assert_eq!(decoded, stored);
    }

    #[test]
    fn stored_tx_round_trip_hashed() {
        let mut rng = seeded(2);
        let tx = sample_tx();
        let stored = StoredTransaction {
            non_secret: tx.non_secret.clone(),
            concealed: conceal_by_hash(&tx.secret, &mut rng),
        };
        let decoded = StoredTransaction::from_bytes(&stored.to_bytes()).unwrap();
        assert_eq!(decoded, stored);
    }

    #[test]
    fn hash_concealment_verifies_secret() {
        let mut rng = seeded(3);
        let tx = sample_tx();
        let stored = StoredTransaction {
            non_secret: tx.non_secret.clone(),
            concealed: conceal_by_hash(&tx.secret, &mut rng),
        };
        assert!(stored.matches_secret(&tx.secret, None));
        assert!(!stored.matches_secret(b"wrong secret", None));
    }

    #[test]
    fn encryption_concealment_verifies_with_key() {
        let mut rng = seeded(4);
        let tx = sample_tx();
        let (concealed, key) = conceal_by_encryption(&tx.secret, &mut rng);
        let stored = StoredTransaction {
            non_secret: tx.non_secret.clone(),
            concealed,
        };
        assert!(stored.matches_secret(&tx.secret, Some(&key)));
        assert!(!stored.matches_secret(b"wrong", Some(&key)));
        let other = SymmetricKey::generate(&mut rng);
        assert!(!stored.matches_secret(&tx.secret, Some(&other)));
        assert!(!stored.matches_secret(&tx.secret, None));
    }

    #[test]
    fn salting_hides_equal_secrets() {
        // Dictionary-attack defence (§4.3): equal secrets must conceal to
        // different digests.
        let mut rng = seeded(5);
        let a = conceal_by_hash(b"same secret", &mut rng);
        let b = conceal_by_hash(b"same secret", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn per_tx_keys_are_unique() {
        let mut rng = seeded(6);
        let (_, k1) = conceal_by_encryption(b"s", &mut rng);
        let (_, k2) = conceal_by_encryption(b"s", &mut rng);
        assert_ne!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn malformed_stored_tx_rejected() {
        assert!(StoredTransaction::from_bytes(&[]).is_err());
        let mut rng = seeded(7);
        let tx = sample_tx();
        let stored = StoredTransaction {
            non_secret: tx.non_secret,
            concealed: conceal_by_hash(&tx.secret, &mut rng),
        };
        let mut bytes = stored.to_bytes();
        bytes.push(0); // trailing garbage
        assert!(StoredTransaction::from_bytes(&bytes).is_err());
        // Unknown concealment tag.
        let mut bad = stored.to_bytes();
        let ns_len = 4 + u32::from_be_bytes(bad[..4].try_into().unwrap()) as usize;
        bad[ns_len] = 9;
        assert!(StoredTransaction::from_bytes(&bad).is_err());
    }

    #[test]
    fn junk_inside_the_non_secret_segment_rejected() {
        let stored = StoredTransaction {
            non_secret: sample_tx().non_secret,
            concealed: conceal_by_hash(&sample_tx().secret, &mut seeded(8)),
        };
        let honest = stored.to_bytes();
        assert_eq!(honest.len(), 143);
        // Grow the segment's length prefix by four and put four junk bytes
        // at its end: every field still decodes, but the segment is not
        // all read.
        let ns_len = u32::from_be_bytes(honest[..4].try_into().unwrap());
        let mut junk = (ns_len + 4).to_be_bytes().to_vec();
        junk.extend_from_slice(&honest[4..4 + ns_len as usize]);
        junk.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        junk.extend_from_slice(&honest[4 + ns_len as usize..]);
        assert_eq!(junk.len(), 147);
        assert!(StoredTransaction::from_bytes(&junk).is_err());
        assert_eq!(StoredTransaction::from_bytes(&honest).unwrap(), stored);
    }

    #[test]
    fn non_secret_encoding_is_canonical() {
        // BTreeMap ordering makes attribute order irrelevant.
        let a = ClientTransaction::new(
            vec![("b", AttrValue::int(2)), ("a", AttrValue::str("x"))],
            b"".to_vec(),
        );
        let b = ClientTransaction::new(
            vec![("a", AttrValue::str("x")), ("b", AttrValue::int(2))],
            b"".to_vec(),
        );
        assert_eq!(
            encode_non_secret(&a.non_secret),
            encode_non_secret(&b.non_secret)
        );
    }

    #[test]
    fn non_secret_golden() {
        let ns = sample_tx().non_secret;
        let bytes = encode_non_secret(&ns);
        crate::testutil::assert_pinned(
            &bytes,
            90,
            "934a44f29ca23ad655e88fdf8800c1179daf49bbd17a9fefdf44be3b9f7c72dd",
        );
        let decode = |b: &[u8]| decode_non_secret(&mut Reader::new(b));
        assert_eq!(decode(&bytes).unwrap(), ns);
        crate::testutil::assert_hostile_rejected(&bytes, crate::testutil::lying_count, decode);
    }
}
