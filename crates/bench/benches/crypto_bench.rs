//! Microbenchmarks of the cryptographic primitives.
//!
//! The paper reports that off-chain crypto (encryption, hashing) is
//! negligible next to on-chain transaction costs; these benchmarks pin
//! that claim for our from-scratch implementations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ledgerview_crypto::aead::{self, AeadKey};
use ledgerview_crypto::aes::Aes;
use ledgerview_crypto::ctr;
use ledgerview_crypto::ed25519::{self, BatchEntry, SigningKey, VerifyingKey};
use ledgerview_crypto::hmac::HmacKey;
use ledgerview_crypto::keys::{self, EncryptionKeyPair, SigningKeyPair, SymmetricKey};
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::sha256;
use ledgerview_crypto::x25519;

fn bench_sha256(c: &mut Criterion) {
    // 65, 300 and 600 B are what the ledger hashes most: a Merkle node
    // (0x01 ‖ two digests), a state leaf, an encoded transaction (≈ 586 B,
    // lvbench's `fabric.tx_wire_bytes`).
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 65, 300, 600, 1024, 64 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)));
        });
    }
    group.finish();
}

fn bench_aead(c: &mut Criterion) {
    let mut group = c.benchmark_group("aead");
    let key = [7u8; 32];
    for size in [64usize, 1024, 16 * 1024] {
        let mut rng = seeded(1);
        let pt = vec![0x5au8; size];
        let ct = aead::seal_sym(&key, &mut rng, &pt);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal", size), &pt, |b, pt| {
            let mut rng = seeded(2);
            b.iter(|| aead::seal_sym(black_box(&key), &mut rng, black_box(pt)));
        });
        group.bench_with_input(BenchmarkId::new("open", size), &ct, |b, ct| {
            b.iter(|| aead::open_sym(black_box(&key), black_box(ct)).unwrap());
        });
    }
    // One `AeadKey` for many messages: what a view query / response decode
    // pays per entry once `K_V` is expanded (32 B = a `K_i`, 64 B = a
    // hash-scheme payload, 2 700 B = a whole response body). The one-shot
    // rows above are the per-`K_i` path of `conceal_by_encryption`/`reveal`.
    let keyed = AeadKey::new(&key);
    let aad = [0x11u8; 32];
    for size in [32usize, 64, 2700] {
        let pt = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("keyed_seal", size), &pt, |b, pt| {
            let mut rng = seeded(2);
            b.iter(|| black_box(&keyed).seal(&mut rng, black_box(pt), &aad));
        });
        if size <= 64 {
            let ct = keyed.seal(&mut seeded(1), &pt, &aad);
            group.bench_with_input(BenchmarkId::new("keyed_open", size), &ct, |b, ct| {
                b.iter(|| black_box(&keyed).open(black_box(ct), &aad).unwrap());
            });
        }
    }
    group.finish();

    c.bench_function("aead/key_expansion", |b| {
        b.iter(|| AeadKey::new(black_box(&key)));
    });
    // The T-table block alone: the portable fallback's cost per block.
    c.bench_function("aes256/encrypt_block", |b| {
        let aes = Aes::new_256(&key);
        let mut block = [0x5au8; 16];
        b.iter(|| {
            aes.encrypt_block(black_box(&mut block));
        });
    });
    // The keystream every seal and open runs, on whichever body this CPU
    // takes (AES-NI where present).
    let mut group = c.benchmark_group("ctr/aes256");
    let aes = Aes::new_256(&key);
    let iv = [0x24u8; 16];
    for size in [64usize, 2700, 16 * 1024] {
        let mut data = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| ctr::apply_keystream(black_box(&aes), &iv, black_box(&mut data)));
        });
    }
    group.finish();
    c.bench_function("hmac/keyed_32B", |b| {
        let mac = HmacKey::new(&key);
        b.iter(|| black_box(&mac).mac(&[black_box(&aad)]));
    });
}

fn bench_x25519(c: &mut Criterion) {
    let mut rng = seeded(3);
    let alice = EncryptionKeyPair::generate(&mut rng);
    let bob = EncryptionKeyPair::generate(&mut rng);
    // One ladder and one inversion on the dispatched body (AVX-512 IFMA
    // where the CPU has it), then the same on the portable ladder: their
    // ratio is the ladder's speed-up on this CPU.
    let priv_bytes = [0x42u8; 32];
    c.bench_function("x25519/shared_secret", |b| {
        b.iter(|| {
            x25519::shared_secret(black_box(&priv_bytes), black_box(bob.public().as_bytes()))
        });
    });
    c.bench_function("x25519/ladder_portable", |b| {
        b.iter(|| {
            x25519::x25519_portable(black_box(&priv_bytes), black_box(bob.public().as_bytes()))
        });
    });
    c.bench_function("hybrid/seal_32B", |b| {
        let mut rng = seeded(4);
        b.iter(|| {
            keys::seal(
                black_box(&bob.public()),
                &mut rng,
                black_box(b"0123456789abcdef0123456789abcdef"),
            )
        });
    });
    let sealed = keys::seal(
        &alice.public(),
        &mut rng,
        b"0123456789abcdef0123456789abcdef",
    );
    c.bench_function("hybrid/open_32B", |b| {
        b.iter(|| keys::open(black_box(&alice), black_box(&sealed)).unwrap());
    });
}

fn bench_ed25519(c: &mut Criterion) {
    let mut rng = seeded(5);
    let kp = SigningKeyPair::generate(&mut rng);
    let msg = vec![0x11u8; 256];
    let sig = kp.sign(&msg);
    c.bench_function("ed25519/sign_256B", |b| {
        b.iter(|| kp.sign(black_box(&msg)));
    });
    c.bench_function("ed25519/verify_256B", |b| {
        b.iter(|| {
            ed25519::verify(black_box(&kp.public()), black_box(&msg), black_box(&sig)).unwrap()
        });
    });
    // The same check under a key expanded once (64 doublings, not 253),
    // and what expanding it costs: it pays from the third signature on.
    let pk = kp.public();
    let expanded = VerifyingKey::from_bytes(&pk).unwrap();
    c.bench_function("ed25519/verify_known_key_256B", |b| {
        b.iter(|| expanded.verify(black_box(&msg), black_box(&sig)).unwrap());
    });
    c.bench_function("ed25519/expand_verifying_key", |b| {
        b.iter(|| VerifyingKey::from_bytes(black_box(&pk)).unwrap());
    });
    // Signing-key expansion is SHA-512 of the seed, one fixed-base
    // multiplication and one point compression.
    c.bench_function("ed25519/base_mul (key expansion)", |b| {
        let seed = [0x24u8; 32];
        b.iter(|| SigningKey::from_seed(black_box(&seed)));
    });

    // 64 signatures per batch, as a validator chunk sees them: from two
    // endorsing peers (entries of a key share one term), and — the worst
    // case for key grouping — from 64 different signers.
    let mut group = c.benchmark_group("ed25519/verify_batch");
    group.throughput(Throughput::Elements(64));
    for (name, signers) in [("64x2keys", 2usize), ("64 distinct", 64)] {
        let keys: Vec<SigningKey> = (0..signers)
            .map(|i| SigningKey::from_seed(&[i as u8 + 1; 32]))
            .collect();
        let pks: Vec<[u8; 32]> = keys.iter().map(SigningKey::public_key).collect();
        let msgs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 160]).collect();
        let sigs: Vec<[u8; 64]> = (0..64).map(|i| keys[i % signers].sign(&msgs[i])).collect();
        let entries: Vec<BatchEntry<'_>> = (0..64)
            .map(|i| BatchEntry {
                public_key: &pks[i % signers],
                message: &msgs[i],
                signature: &sigs[i],
            })
            .collect();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| ed25519::verify_batch(black_box(&entries)).unwrap());
        });
    }
    group.finish();
}

fn bench_process_secret(c: &mut Criterion) {
    // The per-transaction concealment step of §5.3: key generation +
    // encryption (EI/ER) vs salted hashing (HI/HR).
    let secret = vec![0x33u8; 128];
    c.bench_function("process_secret/encryption_128B", |b| {
        let mut rng = seeded(6);
        b.iter(|| {
            let key = SymmetricKey::generate(&mut rng);
            key.seal(&mut rng, black_box(&secret))
        });
    });
    c.bench_function("process_secret/hash_128B", |b| {
        let mut rng = seeded(7);
        b.iter(|| ledgerview_core::txmodel::conceal_by_hash(black_box(&secret), &mut rng));
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_aead,
    bench_x25519,
    bench_ed25519,
    bench_process_secret
);
criterion_main!(benches);
