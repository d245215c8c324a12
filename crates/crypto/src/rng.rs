//! Random number generation helpers.
//!
//! Every randomized operation in the workspace threads an explicit
//! `rand::RngCore` so experiments are reproducible from a seed. This module
//! provides the seeded constructor; there is no entropy-seeded one.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic RNG seeded from a `u64`, for reproducible experiments
/// and tests.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Fill and return a fixed-size array of random bytes.
pub fn random_array<const N: usize, R: RngCore + ?Sized>(rng: &mut R) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a: [u8; 32] = random_array(&mut seeded(42));
        let b: [u8; 32] = random_array(&mut seeded(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: [u8; 32] = random_array(&mut seeded(1));
        let b: [u8; 32] = random_array(&mut seeded(2));
        assert_ne!(a, b);
    }
}
