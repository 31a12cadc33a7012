//! Message encoding and decoding.
//!
//! All integers are big-endian. Variable-length fields carry a `u32`
//! length prefix. Every decoder validates lengths before allocating, and
//! the whole payload is capped at [`MAX_PAYLOAD_LEN`].

use crate::message::{Message, RejectCode};
use aipow_pow::{BackendId, Challenge, Difficulty, NonceWidth};
use core::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Frame magic: identifies aipow traffic and rejects stray peers early.
pub const MAGIC: u16 = 0xA1F0;

/// Protocol version encoded in every frame.
///
/// Version 2 added the puzzle-backend id and parameter bytes to encoded
/// challenges and solutions, plus the [`Message::Hello`] handshake. A v1
/// peer is rejected at decode with [`DecodeError::UnsupportedVersion`];
/// servers translate that into a [`RejectCode::ProtocolMismatch`] reply.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on an encoded payload. Challenges and solutions are tiny;
/// resource bodies dominate. 1 MiB bounds per-connection memory.
pub const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// Frame does not start with [`MAGIC`].
    BadMagic {
        /// The observed leading bytes.
        got: u16,
    },
    /// Protocol version unknown to this build.
    UnsupportedVersion {
        /// The observed version byte.
        got: u8,
    },
    /// Unknown message-type byte.
    UnknownMessageType {
        /// The observed type byte.
        got: u8,
    },
    /// Payload shorter than its fields require.
    Truncated,
    /// Declared length exceeds [`MAX_PAYLOAD_LEN`].
    PayloadTooLarge {
        /// The declared length.
        declared: usize,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// An IP address tag byte was neither 4 nor 6.
    InvalidIpTag {
        /// The observed tag.
        got: u8,
    },
    /// A difficulty byte exceeded 64.
    InvalidDifficulty {
        /// The observed difficulty.
        got: u8,
    },
    /// An unknown nonce-width byte.
    InvalidNonceWidth {
        /// The observed width byte.
        got: u8,
    },
    /// An unknown reject-code byte.
    InvalidRejectCode {
        /// The observed code.
        got: u8,
    },
    /// Bytes remained after the message was fully decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { got } => write!(f, "bad frame magic {got:#06x}"),
            DecodeError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got}")
            }
            DecodeError::UnknownMessageType { got } => write!(f, "unknown message type {got}"),
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::PayloadTooLarge { declared } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds the maximum"
                )
            }
            DecodeError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            DecodeError::InvalidIpTag { got } => write!(f, "invalid ip address tag {got}"),
            DecodeError::InvalidDifficulty { got } => write!(f, "invalid difficulty {got}"),
            DecodeError::InvalidNonceWidth { got } => write!(f, "invalid nonce width {got}"),
            DecodeError::InvalidRejectCode { got } => write!(f, "invalid reject code {got}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Frame header length: `magic(2) ‖ version(1) ‖ type(1) ‖ len(4)`.
const HEADER_LEN: usize = 8;

/// Starting capacity of a frame built by [`encode`]: every frame but a
/// resource grant or telemetry reply with long fields fits, so the
/// common frames cost one allocation.
const ENCODE_CAPACITY: usize = 128;

/// Encodes a message into a complete frame (header + payload).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::with_capacity(ENCODE_CAPACITY);
    encode_into(msg, &mut frame);
    frame
}

/// Appends `msg`'s complete frame (header + payload) to `out`, leaving
/// the bytes already in `out` untouched: the header goes down with a zero
/// length, the payload is written straight after it, and the length is
/// patched in last. The bytes appended equal [`encode`]'s output.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(msg.type_byte());
    out.extend_from_slice(&0u32.to_be_bytes());
    match msg {
        Message::RequestResource { path } => put_str(out, path),
        Message::ChallengeIssued { challenge, path } => {
            put_challenge(out, challenge);
            put_str(out, path);
        }
        Message::SubmitSolution {
            challenge,
            nonce,
            width,
            backend,
            path,
        } => {
            put_challenge(out, challenge);
            out.extend_from_slice(&nonce.to_be_bytes());
            out.push(match width {
                NonceWidth::U32 => 4,
                NonceWidth::U64 => 8,
            });
            out.push(backend.as_u8());
            put_str(out, path);
        }
        Message::ResourceGranted { path, body } => {
            put_str(out, path);
            put_bytes(out, body);
        }
        Message::Rejected { code, detail } => {
            out.push(code.as_u8());
            put_str(out, detail);
        }
        Message::Ping { token } | Message::Pong { token } => {
            out.extend_from_slice(&token.to_be_bytes());
        }
        Message::TelemetryRequest => {}
        Message::TelemetryReply { json, prometheus } => {
            put_str(out, json);
            put_str(out, prometheus);
        }
        Message::Hello { version } => out.push(*version),
    }
    let payload_len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 4..start + HEADER_LEN].copy_from_slice(&payload_len.to_be_bytes());
}

/// Decodes a complete frame produced by [`encode`].
///
/// # Errors
///
/// Returns [`DecodeError`] for malformed, truncated, oversized, or
/// trailing-garbage input.
pub fn decode(frame: &[u8]) -> Result<Message, DecodeError> {
    let mut buf = frame;
    let [m0, m1, version, msg_type, l0, l1, l2, l3] = take::<HEADER_LEN>(&mut buf)?;
    let magic = u16::from_be_bytes([m0, m1]);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion { got: version });
    }
    let declared = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if declared > MAX_PAYLOAD_LEN {
        return Err(DecodeError::PayloadTooLarge { declared });
    }
    if buf.len() < declared {
        return Err(DecodeError::Truncated);
    }
    if buf.len() > declared {
        return Err(DecodeError::TrailingBytes {
            remaining: buf.len() - declared,
        });
    }

    let msg = decode_payload(msg_type, &mut buf)?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(msg)
}

fn decode_payload(msg_type: u8, buf: &mut &[u8]) -> Result<Message, DecodeError> {
    match msg_type {
        1 => Ok(Message::RequestResource {
            path: get_str(buf)?,
        }),
        2 => Ok(Message::ChallengeIssued {
            challenge: get_challenge(buf)?,
            path: get_str(buf)?,
        }),
        3 => {
            let challenge = get_challenge(buf)?;
            let nonce = get_u64(buf)?;
            let width = match get_u8(buf)? {
                4 => NonceWidth::U32,
                8 => NonceWidth::U64,
                got => return Err(DecodeError::InvalidNonceWidth { got }),
            };
            // Any backend byte decodes; unregistered ids are rejected by
            // the verifier, not the codec.
            let backend = BackendId(get_u8(buf)?);
            let path = get_str(buf)?;
            Ok(Message::SubmitSolution {
                challenge,
                nonce,
                width,
                backend,
                path,
            })
        }
        4 => Ok(Message::ResourceGranted {
            path: get_str(buf)?,
            body: get_bytes(buf)?,
        }),
        5 => {
            let code_byte = get_u8(buf)?;
            let code = RejectCode::from_u8(code_byte)
                .ok_or(DecodeError::InvalidRejectCode { got: code_byte })?;
            Ok(Message::Rejected {
                code,
                detail: get_str(buf)?,
            })
        }
        6 => Ok(Message::Ping {
            token: get_u64(buf)?,
        }),
        7 => Ok(Message::Pong {
            token: get_u64(buf)?,
        }),
        8 => Ok(Message::TelemetryRequest),
        9 => Ok(Message::TelemetryReply {
            json: get_str(buf)?,
            prometheus: get_str(buf)?,
        }),
        10 => Ok(Message::Hello {
            version: get_u8(buf)?,
        }),
        got => Err(DecodeError::UnknownMessageType { got }),
    }
}

// --- field helpers ---------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_be_bytes());
    buf.extend_from_slice(b);
}

fn put_ip(buf: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            buf.push(4);
            buf.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            buf.push(6);
            buf.extend_from_slice(&v6.octets());
        }
    }
}

fn put_challenge(buf: &mut Vec<u8>, c: &Challenge) {
    buf.push(c.version());
    buf.push(c.backend().as_u8());
    buf.push(c.backend_param());
    buf.extend_from_slice(c.seed());
    buf.extend_from_slice(&c.issued_at_ms().to_be_bytes());
    buf.extend_from_slice(&c.ttl_ms().to_be_bytes());
    buf.push(c.difficulty().bits());
    put_ip(buf, c.client_ip());
    buf.extend_from_slice(c.tag());
}

/// Splits the next `N` bytes off the front of `buf`; the one truncation
/// check every fixed-width field goes through.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    take(buf).map(|[byte]| byte)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    take(buf).map(u64::from_be_bytes)
}

fn get_str(buf: &mut &[u8]) -> Result<String, DecodeError> {
    let bytes = get_bytes(buf)?;
    String::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, DecodeError> {
    let len = u32::from_be_bytes(take(buf)?) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(DecodeError::PayloadTooLarge { declared: len });
    }
    let (bytes, rest) = buf.split_at_checked(len).ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(bytes.to_vec())
}

fn get_ip(buf: &mut &[u8]) -> Result<IpAddr, DecodeError> {
    match get_u8(buf)? {
        4 => Ok(IpAddr::V4(Ipv4Addr::from(take::<4>(buf)?))),
        6 => Ok(IpAddr::V6(Ipv6Addr::from(take::<16>(buf)?))),
        got => Err(DecodeError::InvalidIpTag { got }),
    }
}

fn get_challenge(buf: &mut &[u8]) -> Result<Challenge, DecodeError> {
    let version = get_u8(buf)?;
    let backend = BackendId(get_u8(buf)?);
    let backend_param = get_u8(buf)?;
    let seed = take(buf)?;
    let issued_at_ms = get_u64(buf)?;
    let ttl_ms = get_u64(buf)?;
    let difficulty_bits = get_u8(buf)?;
    let difficulty =
        Difficulty::new(difficulty_bits).map_err(|_| DecodeError::InvalidDifficulty {
            got: difficulty_bits,
        })?;
    let client_ip = get_ip(buf)?;
    let tag = take(buf)?;
    Ok(Challenge::from_parts_backend(
        version,
        backend,
        backend_param,
        seed,
        issued_at_ms,
        ttl_ms,
        difficulty,
        client_ip,
        tag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_pow::challenge::CHALLENGE_VERSION;
    use aipow_pow::{Difficulty, Issuer};

    /// A challenge as a `[5; 32]`-keyed issuer at a fixed clock minted it
    /// before seeds were counter-mode: its first seed, and the tag over
    /// each sample, are literals because the golden frames below pin the
    /// wire format, not the issuer.
    fn sample(backend: BackendId, param: u8, tag: [u8; 32]) -> Challenge {
        Challenge::from_parts_backend(
            CHALLENGE_VERSION,
            backend,
            param,
            0x9f0e64c0ed3f06941bc1208465827adf_u128.to_be_bytes(),
            1_700_000_000_000,
            30_000,
            Difficulty::new(7).unwrap(),
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9)),
            tag,
        )
    }

    fn sample_challenge() -> Challenge {
        sample(
            BackendId::SHA256,
            0,
            unhex32("535ecd7ec6f4786b66af872dd06562d5847b7204bcb8bfa79c3eebe464715f7c"),
        )
    }

    fn sample_memory_hard_challenge() -> Challenge {
        sample(
            BackendId::MEMORY_HARD,
            2,
            unhex32("005556fc6252db346b5b46e318f022ecfae1b1820b3d8196ed07960084a8f1b8"),
        )
    }

    fn unhex32(text: &str) -> [u8; 32] {
        core::array::from_fn(|i| u8::from_str_radix(&text[2 * i..2 * i + 2], 16).unwrap())
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::RequestResource {
                path: "/index.html".into(),
            },
            Message::ChallengeIssued {
                challenge: sample_challenge(),
                path: "/a".into(),
            },
            Message::ChallengeIssued {
                challenge: sample_memory_hard_challenge(),
                path: "/mh".into(),
            },
            Message::SubmitSolution {
                challenge: sample_challenge(),
                nonce: 0xdead_beef_cafe,
                width: NonceWidth::U64,
                backend: BackendId::SHA256,
                path: "/a".into(),
            },
            Message::SubmitSolution {
                challenge: sample_memory_hard_challenge(),
                nonce: 42,
                width: NonceWidth::U32,
                backend: BackendId::MEMORY_HARD,
                path: String::new(),
            },
            Message::ResourceGranted {
                path: "/data".into(),
                body: vec![1, 2, 3, 255],
            },
            Message::Rejected {
                code: RejectCode::InvalidSolution,
                detail: "insufficient work".into(),
            },
            Message::Ping { token: 7 },
            Message::Pong { token: 7 },
            Message::TelemetryRequest,
            Message::TelemetryReply {
                json: "{\"challenges_issued\":3}".into(),
                prometheus: "# TYPE aipow_challenges_issued counter\naipow_challenges_issued 3\n"
                    .into(),
            },
            Message::Hello {
                version: PROTOCOL_VERSION,
            },
        ]
    }

    /// Every frame of [`all_messages`] as the `BytesMut`-era encoder
    /// wrote it, in hex: the wire format (and the issuer's MAC over the
    /// sample challenges) must not move.
    const GOLDEN_FRAMES: [&str; 12] = [
        "a1f002010000000f0000000b2f696e6465782e68746d6c",
        "a1f002020000004f0100009f0e64c0ed3f06941bc1208465827adf0000018bcfe5680000000000000075300704cb007109535ecd7ec6f4786b66af872dd06562d5847b7204bcb8bfa79c3eebe464715f7c000000022f61",
        "a1f00202000000500101029f0e64c0ed3f06941bc1208465827adf0000018bcfe5680000000000000075300704cb007109005556fc6252db346b5b46e318f022ecfae1b1820b3d8196ed07960084a8f1b8000000032f6d68",
        "a1f00203000000590100009f0e64c0ed3f06941bc1208465827adf0000018bcfe5680000000000000075300704cb007109535ecd7ec6f4786b66af872dd06562d5847b7204bcb8bfa79c3eebe464715f7c0000deadbeefcafe0800000000022f61",
        "a1f00203000000570101029f0e64c0ed3f06941bc1208465827adf0000018bcfe5680000000000000075300704cb007109005556fc6252db346b5b46e318f022ecfae1b1820b3d8196ed07960084a8f1b8000000000000002a040100000000",
        "a1f0020400000011000000052f6461746100000004010203ff",
        "a1f00205000000160100000011696e73756666696369656e7420776f726b",
        "a1f00206000000080000000000000007",
        "a1f00207000000080000000000000007",
        "a1f0020800000000",
        "a1f0020900000060000000177b226368616c6c656e6765735f697373756564223a337d00000041232054595045206169706f775f6368616c6c656e6765735f69737375656420636f756e7465720a6169706f775f6368616c6c656e6765735f69737375656420330a",
        "a1f0020a0000000102",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frames_match_the_golden_fixtures() {
        let messages = all_messages();
        assert_eq!(messages.len(), GOLDEN_FRAMES.len());
        for (msg, want) in messages.iter().zip(GOLDEN_FRAMES) {
            assert_eq!(hex(&encode(msg)), want, "{msg:?}");
        }
    }

    #[test]
    fn roundtrip_every_message_type() {
        for msg in all_messages() {
            let bytes = encode(&msg);
            let decoded = decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn ipv6_challenge_roundtrips() {
        let c = Issuer::new(&[6u8; 32])
            .issue(IpAddr::V6(Ipv6Addr::LOCALHOST), Difficulty::new(3).unwrap());
        let msg = Message::ChallengeIssued {
            challenge: c,
            path: "/v6".into(),
        };
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&Message::Ping { token: 1 });
        bytes[0] = 0;
        assert!(matches!(decode(&bytes), Err(DecodeError::BadMagic { .. })));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&Message::Ping { token: 1 });
        bytes[2] = 99;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::UnsupportedVersion { got: 99 })
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = encode(&Message::Ping { token: 1 });
        bytes[3] = 200;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::UnknownMessageType { got: 200 })
        );
    }

    /// Every frame type, cut at every byte: a short frame fails the
    /// header's length check, and the same payload cut with the length
    /// patched to match gets past it and runs out inside a field read.
    #[test]
    fn truncation_rejected_at_every_length() {
        // The fixtures hold no IPv6 frame, and they feed the golden
        // frames, so the IPv6 address arm gets its frame here.
        let ipv6 = Message::ChallengeIssued {
            challenge: Issuer::new(&[6u8; 32])
                .issue(IpAddr::V6(Ipv6Addr::LOCALHOST), Difficulty::new(3).unwrap()),
            path: "/v6".into(),
        };
        for msg in all_messages().into_iter().chain([ipv6]) {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(DecodeError::Truncated),
                    "{msg:?} cut to {cut}/{} bytes",
                    bytes.len()
                );
            }
            for cut in 0..bytes.len() - HEADER_LEN {
                let mut frame = bytes[..HEADER_LEN + cut].to_vec();
                frame[4..HEADER_LEN].copy_from_slice(&(cut as u32).to_be_bytes());
                assert_eq!(
                    decode(&frame),
                    Err(DecodeError::Truncated),
                    "{msg:?} payload cut to {cut} bytes, length patched"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&Message::Ping { token: 1 });
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn oversized_declared_payload_rejected() {
        let mut bytes = encode(&Message::Ping { token: 1 });
        // Overwrite the length field with something enormous.
        bytes[4..8].copy_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_be_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = encode(&Message::RequestResource {
            path: "abcd".into(),
        });
        let len = bytes.len();
        bytes[len - 2] = 0xff; // corrupt a path byte into invalid UTF-8
        bytes[len - 1] = 0xfe;
        assert_eq!(decode(&bytes), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn invalid_difficulty_rejected() {
        let msg = Message::ChallengeIssued {
            challenge: sample_challenge(),
            path: String::new(),
        };
        let mut bytes = encode(&msg);
        // Difficulty byte position: header(8) + version(1) + backend(1) +
        // param(1) + seed(16) + issued(8) + ttl(8) = offset 43.
        bytes[43] = 99;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::InvalidDifficulty { got: 99 })
        );
    }

    #[test]
    fn invalid_reject_code_rejected() {
        let mut bytes = encode(&Message::Rejected {
            code: RejectCode::NotFound,
            detail: String::new(),
        });
        bytes[8] = 77;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::InvalidRejectCode { got: 77 })
        );
    }

    #[test]
    fn invalid_nonce_width_rejected() {
        let msg = Message::SubmitSolution {
            challenge: sample_challenge(),
            nonce: 1,
            width: NonceWidth::U64,
            backend: BackendId::SHA256,
            path: String::new(),
        };
        let mut bytes = encode(&msg);
        // width byte sits after challenge (1+1+1+16+8+8+1+5+32 = 73) +
        // nonce(8) + header(8) = offset 89.
        bytes[89] = 3;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::InvalidNonceWidth { got: 3 })
        );
    }

    #[test]
    fn error_displays_nonempty() {
        let errors = [
            DecodeError::BadMagic { got: 0 },
            DecodeError::Truncated,
            DecodeError::InvalidUtf8,
            DecodeError::TrailingBytes { remaining: 3 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        prop_compose! {
            fn arb_challenge()(
                version in any::<u8>(),
                backend in any::<u8>(),
                backend_param in any::<u8>(),
                seed in any::<[u8; 16]>(),
                issued_at_ms in any::<u64>(),
                ttl_ms in any::<u64>(),
                bits in 0u8..=64,
                v6 in any::<bool>(),
                octets in any::<[u8; 16]>(),
                tag in any::<[u8; 32]>(),
            ) -> Challenge {
                let ip = if v6 {
                    IpAddr::V6(Ipv6Addr::from(octets))
                } else {
                    IpAddr::V4(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
                };
                Challenge::from_parts_backend(
                    version,
                    BackendId(backend),
                    backend_param,
                    seed,
                    issued_at_ms,
                    ttl_ms,
                    Difficulty::new(bits).expect("bits in range"),
                    ip,
                    tag,
                )
            }
        }

        fn arb_message() -> impl Strategy<Value = Message> {
            let path = "[a-z/._-]{0,40}";
            prop_oneof![
                path.prop_map(|path| Message::RequestResource { path }),
                (arb_challenge(), path)
                    .prop_map(|(challenge, path)| { Message::ChallengeIssued { challenge, path } }),
                (
                    arb_challenge(),
                    any::<u64>(),
                    any::<bool>(),
                    any::<u8>(),
                    path
                )
                    .prop_map(|(challenge, nonce, wide, backend, path)| {
                        Message::SubmitSolution {
                            challenge,
                            nonce: if wide { nonce } else { nonce & 0xFFFF_FFFF },
                            width: if wide {
                                NonceWidth::U64
                            } else {
                                NonceWidth::U32
                            },
                            backend: BackendId(backend),
                            path,
                        }
                    }),
                (path, proptest::collection::vec(any::<u8>(), 0..256))
                    .prop_map(|(path, body)| Message::ResourceGranted { path, body }),
                (1u8..=7, path).prop_map(|(c, detail)| Message::Rejected {
                    code: RejectCode::from_u8(c).unwrap(),
                    detail,
                }),
                any::<u64>().prop_map(|token| Message::Ping { token }),
                any::<u64>().prop_map(|token| Message::Pong { token }),
                Just(Message::TelemetryRequest),
                ("[ -~]{0,200}", "[ -~]{0,200}").prop_map(|(json, prometheus)| {
                    Message::TelemetryReply { json, prometheus }
                }),
                any::<u8>().prop_map(|version| Message::Hello { version }),
            ]
        }

        proptest! {
            #[test]
            fn roundtrip(msg in arb_message()) {
                prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
            }

            /// Encoding in place appends exactly `encode`'s frame and
            /// leaves whatever the buffer already held alone.
            #[test]
            fn encode_into_appends_the_frame(
                prefix in proptest::collection::vec(any::<u8>(), 0..64),
                msg in arb_message(),
            ) {
                let mut out = prefix.clone();
                encode_into(&msg, &mut out);
                let mut want = prefix;
                want.extend_from_slice(&encode(&msg));
                prop_assert_eq!(out, want);
            }

            /// Arbitrary garbage never panics the decoder.
            #[test]
            fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
                let _ = decode(&bytes);
            }

            /// Any single-byte corruption either still decodes (benign
            /// positions like body contents) or fails cleanly — never panics.
            #[test]
            fn corruption_never_panics(token in any::<u64>(), idx in 0usize..16, val in any::<u8>()) {
                let mut bytes = encode(&Message::Ping { token });
                let i = idx % bytes.len();
                bytes[i] = val;
                let _ = decode(&bytes);
            }
        }
    }
}
