//! The shared length-prefixed CRC frame codec.
//!
//! One frame is `[u32 LE payload length][u32 LE CRC32(payload)][payload]`.
//! The journal ([`Store`](crate::Store)) uses it for on-disk records and
//! `ca-serve` speaks it on the wire, so both sides share one integrity
//! discipline: a declared length is sanity-capped *before* any
//! allocation, a CRC mismatch is a structured error, and a short read is
//! "torn", never a panic.
//!
//! Three shapes cover both consumers:
//!
//! - [`append_frame`]: builds a frame in place at the end of a buffer —
//!   header reserved, payload encoded after it, length and CRC patched
//!   in — so a journal record or a wire message is written once, in one
//!   buffer sized up front. [`encode`] is its reference: same bytes.
//! - [`decode`]: frame-at-offset over an in-memory byte slice (journal
//!   replay; the caller maps [`FrameError`] onto its recovery policy).
//! - [`read_frame`]: streaming over any `Read` (sockets). EOF *between*
//!   frames is a clean `None`; EOF *inside* a frame is
//!   [`FrameError::Torn`].

use crate::crc32;
use std::fmt;
use std::io::{self, Read};

/// Size of a frame header: 4 length bytes + 4 CRC bytes.
pub const FRAME_HEADER_LEN: usize = 8;

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// The bytes end before the declared frame does (torn write or
    /// truncated stream).
    Torn {
        /// Human-readable specifics (bytes present vs. needed).
        detail: String,
    },
    /// The declared payload length exceeds the caller's sanity cap; the
    /// payload was *not* allocated or read.
    TooLarge {
        /// The declared length.
        len: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// The payload's CRC32 does not match the header.
    CrcMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The underlying reader/writer failed (streaming API only).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Torn { detail } => write!(f, "torn frame: {detail}"),
            FrameError::TooLarge { len, cap } => {
                write!(f, "declared payload length {len} exceeds sanity cap {cap}")
            }
            FrameError::CrcMismatch { stored, computed } => {
                write!(f, "stored {stored:#010x}, computed {computed:#010x}")
            }
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame: header + payload in a fresh buffer.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Appends one frame to `out`: a header placeholder, then the payload
/// that `payload` appends, then the payload's length and CRC patched
/// into the header — [`encode`]'s bytes without a second buffer. Reserve
/// `out`'s capacity first to build it without reallocating.
///
/// # Errors
///
/// `payload`'s error, or `InvalidInput` when the payload exceeds `cap`;
/// `out` is then left as it was.
pub fn append_frame(
    out: &mut Vec<u8>,
    cap: u32,
    payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    let result = payload(out).and_then(|()| {
        let (header, body) = out[at..].split_at_mut(FRAME_HEADER_LEN);
        match u32::try_from(body.len()) {
            Ok(len) if len <= cap => {
                header[..4].copy_from_slice(&len.to_le_bytes());
                header[4..].copy_from_slice(&crc32(body).to_le_bytes());
                Ok(())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload length {} exceeds frame cap {cap}", body.len()),
            )),
        }
    });
    if result.is_err() {
        out.truncate(at);
    }
    result
}

/// Decodes the frame starting at `offset` in `bytes`, returning the
/// payload slice and the offset of the next frame.
///
/// # Errors
///
/// [`FrameError::Torn`] when the slice ends early, [`FrameError::TooLarge`]
/// when the declared length exceeds `cap`, [`FrameError::CrcMismatch`] on
/// checksum failure. Never panics and never allocates.
pub fn decode(bytes: &[u8], offset: usize, cap: u32) -> Result<(&[u8], usize), FrameError> {
    let remaining = bytes.len().saturating_sub(offset);
    if remaining < FRAME_HEADER_LEN {
        return Err(FrameError::Torn {
            detail: format!("{remaining} byte(s) left, frame header needs {FRAME_HEADER_LEN}"),
        });
    }
    let len = u32::from_le_bytes([
        bytes[offset],
        bytes[offset + 1],
        bytes[offset + 2],
        bytes[offset + 3],
    ]);
    let crc = u32::from_le_bytes([
        bytes[offset + 4],
        bytes[offset + 5],
        bytes[offset + 6],
        bytes[offset + 7],
    ]);
    if len > cap {
        return Err(FrameError::TooLarge { len, cap });
    }
    if (len as usize) > remaining - FRAME_HEADER_LEN {
        return Err(FrameError::Torn {
            detail: format!(
                "declared payload length {len}, only {} byte(s) left",
                remaining - FRAME_HEADER_LEN
            ),
        });
    }
    let start = offset + FRAME_HEADER_LEN;
    let payload = &bytes[start..start + len as usize];
    let computed = crc32(payload);
    if computed != crc {
        return Err(FrameError::CrcMismatch {
            stored: crc,
            computed,
        });
    }
    Ok((payload, start + len as usize))
}

/// Reads one whole frame from `r`.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// between frames). The payload buffer is only allocated after the
/// declared length passes the `cap` check, so a hostile length field can
/// never drive an unbounded allocation.
///
/// # Errors
///
/// [`FrameError::Torn`] on EOF mid-frame, [`FrameError::TooLarge`] /
/// [`FrameError::CrcMismatch`] as in [`decode`], [`FrameError::Io`] on
/// any other read failure.
pub fn read_frame<R: Read>(r: &mut R, cap: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Torn {
                    detail: format!("EOF after {got} of {FRAME_HEADER_LEN} header byte(s)"),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > cap {
        return Err(FrameError::TooLarge { len, cap });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Torn {
                    detail: format!("EOF after {got} of {len} payload byte(s)"),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let computed = crc32(&payload);
    if computed != crc {
        return Err(FrameError::CrcMismatch {
            stored: crc,
            computed,
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for payload in [&b""[..], b"x", b"hello frame", &[0u8; 1024]] {
            let frame = encode(payload);
            let (got, next) = decode(&frame, 0, 1 << 20).unwrap();
            assert_eq!(got, payload);
            assert_eq!(next, frame.len());
        }
    }

    #[test]
    fn decode_walks_consecutive_frames() {
        let mut buf = encode(b"one");
        buf.extend_from_slice(&encode(b"two"));
        let (a, next) = decode(&buf, 0, 64).unwrap();
        assert_eq!(a, b"one");
        let (b, end) = decode(&buf, next, 64).unwrap();
        assert_eq!(b, b"two");
        assert_eq!(end, buf.len());
    }

    #[test]
    fn truncation_at_every_split_is_torn_or_io() {
        let frame = encode(b"truncate me");
        for cut in 0..frame.len() {
            let err = decode(&frame[..cut], 0, 64).unwrap_err();
            assert!(matches!(err, FrameError::Torn { .. }), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode(b"payload");
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode(&frame, 0, 1 << 20) {
            Err(FrameError::TooLarge { len, cap }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(cap, 1 << 20);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let frame = encode(b"bitrot victim");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                // Any single-bit flip must fail structured: a flipped
                // length is torn/oversized, a flipped CRC or payload is
                // a CRC mismatch. (A length flip can also shorten the
                // declared payload, which then fails the CRC.)
                assert!(decode(&flipped, 0, 64).is_err(), "byte {byte} bit {bit}");
            }
        }
    }

    /// `append_frame` builds `encode`'s bytes in place, after whatever
    /// the buffer already holds.
    #[test]
    fn append_frame_matches_encode() {
        let mut buf = b"prefix".to_vec();
        for payload in [&b""[..], b"x", b"hello frame", &[7u8; 1024]] {
            let at = buf.len();
            append_frame(&mut buf, 1 << 20, |out| {
                out.extend_from_slice(payload);
                Ok(())
            })
            .unwrap();
            assert_eq!(&buf[at..], encode(payload));
        }
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let mut buf = encode(b"alpha");
        buf.extend_from_slice(&encode(b"beta"));
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"beta");
        assert!(read_frame(&mut cursor, 64).unwrap().is_none());
    }

    #[test]
    fn stream_eof_mid_frame_is_torn() {
        let buf = encode(b"interrupted");
        for cut in 1..buf.len() {
            let mut cursor = io::Cursor::new(buf[..cut].to_vec());
            let err = read_frame(&mut cursor, 64).unwrap_err();
            assert!(matches!(err, FrameError::Torn { .. }), "cut {cut}");
        }
    }

    #[test]
    fn append_frame_refuses_over_cap_and_failed_payloads() {
        let mut buf = b"kept".to_vec();
        let err = append_frame(&mut buf, 64, |out| {
            out.extend_from_slice(&[0u8; 100]);
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = append_frame(&mut buf, 64, |out| {
            out.push(1);
            Err(io::Error::other("refused"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "refused");
        assert_eq!(buf, b"kept", "a refused frame leaves nothing behind");
    }
}
