//! Bloom filters over SSTable keys.
//!
//! One filter per table lets a point lookup skip tables (and therefore
//! disk blocks) that certainly do not contain the key — the standard LSM
//! read-amplification defence. Filters use double hashing (Kirsch–
//! Mitzenmacher) over two independent 64-bit mixes of an FNV-1a base, so
//! membership tests cost two multiplications regardless of `k`.

use fabric_store::record::Fields;

/// FNV-1a over the key bytes: the base hash everything else derives from.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates the two probe hashes.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed-size bloom filter, serialized into each SSTable.
#[derive(Clone, Debug)]
pub struct Bloom {
    words: Vec<u64>,
    nbits: u64,
    k: u32,
}

impl Bloom {
    /// Build a filter sized for `count` keys at `bits_per_key`.
    pub fn build<'a>(
        keys: impl Iterator<Item = &'a str>,
        count: usize,
        bits_per_key: u32,
    ) -> Bloom {
        let nbits = (count.max(1) as u64 * bits_per_key as u64)
            .max(64)
            .next_multiple_of(64);
        // k ≈ ln 2 · bits/key, clamped to a sane probe count.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 12);
        let mut bloom = Bloom {
            words: vec![0u64; (nbits / 64) as usize],
            nbits,
            k,
        };
        for key in keys {
            bloom.insert(key);
        }
        bloom
    }

    fn probes(&self, key: &str) -> (u64, u64) {
        let h1 = fnv1a64(key.as_bytes());
        (h1, mix64(h1))
    }

    fn insert(&mut self, key: &str) {
        let (h1, h2) = self.probes(key);
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Whether the key *may* be present (false = certainly absent).
    pub fn may_contain(&self, key: &str) -> bool {
        let (h1, h2) = self.probes(key);
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits;
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serialize (little-endian words).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.words.len() * 8);
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.nbits.to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode a filter serialized by [`Bloom::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Bloom> {
        let mut fields = Fields::new(bytes, &"bloom filter");
        let k = fields.u32().ok()?;
        let nbits = fields.u64().ok()?;
        if nbits == 0 || nbits % 64 != 0 || k == 0 {
            return None;
        }
        let body = fields.bytes(usize::try_from(nbits / 8).ok()?).ok()?;
        fields.end().ok()?;
        let words = body
            .as_chunks::<8>()
            .0
            .iter()
            .map(|c| u64::from_le_bytes(*c))
            .collect();
        Some(Bloom { words, nbits, k })
    }

    /// Size of the encoded filter in bytes.
    pub fn size_bytes(&self) -> usize {
        12 + self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<String> = (0..500).map(|i| format!("key-{i}")).collect();
        let bloom = Bloom::build(keys.iter().map(String::as_str), keys.len(), 10);
        for k in &keys {
            assert!(bloom.may_contain(k));
        }
    }

    #[test]
    fn mostly_rejects_absent_keys() {
        let keys: Vec<String> = (0..1000).map(|i| format!("key-{i}")).collect();
        let bloom = Bloom::build(keys.iter().map(String::as_str), keys.len(), 10);
        let false_positives = (0..1000)
            .filter(|i| bloom.may_contain(&format!("absent-{i}")))
            .count();
        assert!(
            false_positives < 50,
            "fp rate too high: {false_positives}/1000"
        );
    }

    #[test]
    fn round_trips_through_encoding() {
        let keys = ["a", "b", "c"];
        let bloom = Bloom::build(keys.iter().copied(), 3, 10);
        let decoded = Bloom::decode(&bloom.encode()).unwrap();
        assert_eq!(decoded.words, bloom.words);
        assert_eq!(decoded.k, bloom.k);
        assert!(decoded.may_contain("b"));
        assert_eq!(bloom.encode().len(), bloom.size_bytes());
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Bloom::decode(&[]).is_none());
        assert!(Bloom::decode(&[0u8; 11]).is_none());
        let mut good = Bloom::build(["x"].into_iter(), 1, 8).encode();
        good.pop();
        assert!(Bloom::decode(&good).is_none());
    }
}
