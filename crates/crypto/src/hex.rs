//! Minimal hex encoding/decoding, used for digests, test vectors and display.

/// Encode bytes as a lowercase hex string.
pub fn encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(DIGITS[usize::from(b >> 4)].into());
        s.push(DIGITS[usize::from(b & 0xf)].into());
    }
    s
}

/// Decode a hex string (upper or lower case) into bytes.
///
/// Returns `None` on odd length or non-hex characters.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
    Some(
        digits
            .chunks(2)
            .map(|p| ((p[0] << 4) | p[1]) as u8)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data = [0x00, 0x01, 0xab, 0xff, 0x7f];
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn encode_known() {
        assert_eq!(encode(&[0xde, 0xad, 0xbe, 0xef]), "deadbeef");
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert!(decode("abc").is_none());
    }

    #[test]
    fn decode_rejects_non_hex() {
        assert!(decode("zz").is_none());
        assert!(decode("0g").is_none());
    }

    #[test]
    fn decode_accepts_uppercase() {
        assert_eq!(decode("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }
}
