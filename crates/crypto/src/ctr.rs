//! AES counter mode (NIST SP 800-38A §6.5).
//!
//! CTR turns the AES block cipher into a stream cipher; encryption and
//! decryption are the same XOR-with-keystream operation.

use crate::aes::Aes;

/// XOR `data` in place with the AES-CTR keystream starting at `iv`.
///
/// The 16-byte `iv` is treated as a big-endian 128-bit counter incremented
/// once per block, exactly as in SP 800-38A.
pub fn apply_keystream(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    let mut counter = *iv;
    for chunk in data.chunks_mut(16) {
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        increment(&mut counter);
    }
}

/// Increment a 128-bit big-endian counter, wrapping on overflow.
fn increment(counter: &mut [u8; 16]) {
    for byte in counter.iter_mut().rev() {
        let (v, overflow) = byte.overflowing_add(1);
        *byte = v;
        if !overflow {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// SP 800-38A F.5.1/F.5.2: AES-128-CTR, four blocks.
    #[test]
    fn sp800_38a_f5_aes128_ctr() {
        let key: [u8; 16] = hex::decode("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let iv: [u8; 16] = hex::decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .unwrap()
            .try_into()
            .unwrap();
        let mut data = hex::decode(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        let aes = Aes::new_128(&key);
        apply_keystream(&aes, &iv, &mut data);
        assert_eq!(
            hex::encode(&data),
            "874d6191b620e3261bef6864990db6ce\
             9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab\
             1e031dda2fbe03d1792170a0f3009cee"
        );
        // Decryption is the same operation.
        apply_keystream(&aes, &iv, &mut data);
        assert_eq!(
            hex::encode(&data),
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710"
        );
    }

    /// SP 800-38A F.5.5: AES-256-CTR, four blocks.
    #[test]
    fn sp800_38a_f5_aes256_ctr() {
        let key: [u8; 32] =
            hex::decode("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .unwrap()
                .try_into()
                .unwrap();
        let iv: [u8; 16] = hex::decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .unwrap()
            .try_into()
            .unwrap();
        let mut data = hex::decode(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        let aes = Aes::new_256(&key);
        apply_keystream(&aes, &iv, &mut data);
        assert_eq!(
            hex::encode(&data),
            "601ec313775789a5b7a7f504bbf3d228\
             f443e3ca4d62b59aca84e990cacaf5c5\
             2b0930daa23de94ce87017ba2d84988d\
             dfc9c58db67aada613c2dd08457941a6"
        );
    }

    #[test]
    fn partial_block() {
        let aes = Aes::new_128(&[1u8; 16]);
        let iv = [0u8; 16];
        let mut data = b"hello".to_vec();
        apply_keystream(&aes, &iv, &mut data);
        assert_ne!(&data, b"hello");
        apply_keystream(&aes, &iv, &mut data);
        assert_eq!(&data, b"hello");
    }

    #[test]
    fn counter_wraps() {
        let mut c = [0xffu8; 16];
        increment(&mut c);
        assert_eq!(c, [0u8; 16]);

        let mut c2 = [0u8; 16];
        c2[15] = 0xff;
        increment(&mut c2);
        assert_eq!(c2[15], 0);
        assert_eq!(c2[14], 1);
    }

    #[test]
    fn empty_input_is_noop() {
        let aes = Aes::new_128(&[1u8; 16]);
        let mut data: Vec<u8> = vec![];
        apply_keystream(&aes, &[0u8; 16], &mut data);
        assert!(data.is_empty());
    }
}
