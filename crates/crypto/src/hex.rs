//! Minimal hex encoding/decoding.
//!
//! Used for digest display, challenge ids, the CLI's `--key` flag, and test
//! vectors.

use core::fmt;

/// Error returned by [`decode`] for malformed hex input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseHexError {
    /// Input length was odd, or did not match the expected fixed width.
    BadLength,
    /// A character outside `[0-9a-fA-F]` was encountered at the given offset.
    BadChar {
        /// Byte offset of the offending character.
        index: usize,
    },
}

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHexError::BadLength => write!(f, "hex string has invalid length"),
            ParseHexError::BadChar { index } => {
                write!(f, "invalid hex character at index {index}")
            }
        }
    }
}

impl std::error::Error for ParseHexError {}

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex.
///
/// ```
/// assert_eq!(aipow_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// assert_eq!(aipow_crypto::hex::encode(&[]), "");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(ALPHABET[(b >> 4) as usize] as char);
        out.push(ALPHABET[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes a hex string (case-insensitive) into bytes.
///
/// ```
/// assert_eq!(aipow_crypto::hex::decode("DEad").unwrap(), vec![0xde, 0xad]);
/// ```
///
/// # Errors
///
/// Returns [`ParseHexError::BadLength`] for odd-length input and
/// [`ParseHexError::BadChar`] for non-hex characters.
pub fn decode(s: &str) -> Result<Vec<u8>, ParseHexError> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(ParseHexError::BadLength);
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        let hi = val(pair[0]).ok_or(ParseHexError::BadChar { index: i * 2 })?;
        let lo = val(pair[1]).ok_or(ParseHexError::BadChar { index: i * 2 + 1 })?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known() {
        assert_eq!(encode(&[0x00, 0xff, 0x10]), "00ff10");
    }

    #[test]
    fn decode_known() {
        assert_eq!(decode("00ff10").unwrap(), vec![0x00, 0xff, 0x10]);
    }

    #[test]
    fn decode_mixed_case() {
        assert_eq!(decode("AbCdEf").unwrap(), vec![0xab, 0xcd, 0xef]);
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert_eq!(decode("abc"), Err(ParseHexError::BadLength));
    }

    #[test]
    fn decode_rejects_bad_char_with_position() {
        assert_eq!(decode("ab!d"), Err(ParseHexError::BadChar { index: 2 }));
        assert_eq!(decode("zb"), Err(ParseHexError::BadChar { index: 0 }));
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let msg = ParseHexError::BadLength.to_string();
        assert!(msg.starts_with("hex"));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                prop_assert_eq!(decode(&encode(&bytes)).unwrap(), bytes);
            }

            #[test]
            fn encode_len_is_double(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                prop_assert_eq!(encode(&bytes).len(), bytes.len() * 2);
            }
        }
    }
}
