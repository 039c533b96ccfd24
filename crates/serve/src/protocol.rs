//! The ca-serve wire protocol: versioned tagged messages inside
//! [`ca_store::frame`] CRC frames.
//!
//! Layout (DESIGN.md §13): every message travels as one frame —
//! `u32 LE payload length · u32 LE CRC-32 · payload` — exactly the
//! journal's framing discipline, so torn and bit-flipped messages are
//! detected by the same code path the store trusts for durability. The
//! payload is `version byte (1) · tag byte · tag-specific fields`;
//! strings are `u32 LE length · UTF-8 bytes`, integers are LE
//! fixed-width. Requests are capped at [`MAX_REQUEST_PAYLOAD`] (1 MiB)
//! and responses at [`MAX_RESPONSE_PAYLOAD`] (16 MiB); the cap is
//! enforced *before* any allocation, so a hostile length prefix can
//! never balloon memory.
//!
//! Decoding is total: every byte sequence maps to `Ok(message)` or a
//! structured [`ProtocolError`] — never a panic, never an unbounded
//! allocation. The property tests at the bottom drive truncations at
//! every split point, bit flips at every position and garbage prefixes
//! through both decoders to hold that line.

use ca_obs::trace::TraceContext;
use ca_store::frame::{self, FrameError, FRAME_HEADER_LEN};
use std::io::{Read, Write};

/// Wire protocol version; the first payload byte of every message.
/// Encoders always emit the current version; decoders accept every
/// version back to [`WIRE_V1`], filling fields a legacy frame cannot
/// carry with their neutral values (no trace context, zero timing).
pub const WIRE_VERSION: u8 = 2;
/// The original protocol version: no trace context in `Characterize`,
/// no timing breakdown in `Model`, no `MetricsSnapshot` messages.
pub const WIRE_V1: u8 = 1;
/// Request frames larger than this are rejected before allocation.
pub const MAX_REQUEST_PAYLOAD: u32 = 1 << 20;
/// Response frames larger than this are rejected before allocation.
/// Sized for a full `.cam` body plus headroom.
pub const MAX_RESPONSE_PAYLOAD: u32 = 16 << 20;
/// An upper bound on the bytes of a payload's fixed-width fields
/// (version, tag, length prefixes, integers, trace context, timing);
/// its strings come on top.
const FIXED_FIELDS_BOUND: usize = 64;

/// What a characterize request points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A cell of the library the server was launched with.
    Name(String),
    /// An inline SPICE netlist carried in the request.
    Spice(String),
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; echoed back in [`Response::Pong`] (wire v1).
    Ping { token: u64 },
    /// Characterize one cell under an optional deadline (wire v1;
    /// the trace context rides only on v2+ frames).
    Characterize {
        /// Client identity for per-client quotas.
        client: String,
        /// Milliseconds until the request deadline; `0` = no deadline.
        deadline_ms: u64,
        /// The cell to characterize.
        target: Target,
        /// Caller's trace context (wire v2+); the server adopts it so
        /// the request span parents under the client's span.
        trace: Option<TraceContext>,
    },
    /// Snapshot-isolated read of a journaled record; no simulation
    /// (wire v1).
    Lookup { name: String },
    /// Server counters, queue depths and session report (wire v1).
    Stats,
    /// Ask the server to stop admitting and drain (wire v1).
    Drain,
    /// Full metric-registry snapshot as machine-readable JSON (wire
    /// v2+) — the scrapeable form of [`Request::Stats`].
    MetricsSnapshot,
}

/// Server-side timing breakdown of one characterize request,
/// microseconds (wire v2+; a v1 `Model` frame decodes to zeros).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timing {
    /// Admission-to-slot wait.
    pub queue_us: u64,
    /// Service time (simulation, cache, store).
    pub service_us: u64,
    /// Portion of service spent in journal appends (`0` when the
    /// request appended nothing).
    pub journal_us: u64,
}

/// Where a served model came from. The discriminants are the wire
/// bytes; 1 and 3 are unassigned and decode as
/// [`ProtocolError::BadField`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// Characterized for this request: simulated, or remapped from a
    /// certified donor by the in-process cache.
    Fresh = 0,
    /// Journaled record served without simulation.
    Store = 2,
}

/// Structured failure classes; every error frame carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request decoded but is semantically invalid (bad SPICE,
    /// empty client name, unknown target kind).
    BadRequest = 1,
    /// Lookup/characterize-by-name for a cell the library doesn't have.
    UnknownCell = 2,
    /// Admission control shed the request: queue full.
    Overloaded = 3,
    /// Admission control shed the request: per-client quota.
    QuotaExceeded = 4,
    /// The deadline expired in queue or was the binding constraint of
    /// the simulation.
    DeadlineExceeded = 5,
    /// The cell failed characterization; detail carries the diagnosis.
    Quarantined = 6,
    /// The server is draining and admits no new work.
    Draining = 7,
    /// The server-side handler failed after exhausting retries.
    Internal = 8,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Echo of [`Request::Ping`] (wire v1).
    Pong { token: u64 },
    /// A characterized (or journaled) model (wire v1; the timing
    /// breakdown rides only on v2+ frames).
    Model {
        /// Canonical cell name.
        cell: String,
        /// Whether the model is budget-degraded.
        degraded: bool,
        /// Provenance of the bytes.
        source: ModelSource,
        /// The `.cam` export body.
        cam: String,
        /// Server-side timing breakdown (wire v2+; zeros from v1).
        timing: Timing,
    },
    /// A structured failure; never a dropped connection (wire v1).
    Error { kind: ErrorKind, detail: String },
    /// Rendered server counters (wire v1).
    Stats { body: String },
    /// Acknowledgement of [`Request::Drain`] (wire v1).
    Draining,
    /// Registry snapshot as JSON (schema `ca-obs-metrics/1`), answering
    /// [`Request::MetricsSnapshot`] (wire v2+).
    MetricsSnapshot { json: String },
}

/// Why a message failed to decode. Every variant is a protocol-level
/// fact a server can answer (or a client can report) without dying.
#[derive(Debug)]
pub enum ProtocolError {
    /// The frame layer rejected the bytes (torn, oversized, CRC).
    Frame(FrameError),
    /// The payload ended before the field named here.
    Truncated(&'static str),
    /// First payload byte is not a supported version
    /// ([`WIRE_V1`]..=[`WIRE_VERSION`]).
    BadVersion(u8),
    /// Unknown message tag for this direction.
    BadTag(u8),
    /// A field decoded to an out-of-domain value.
    BadField(&'static str),
    /// Payload bytes left over after the last field.
    TrailingBytes(usize),
    /// A string field is not UTF-8.
    BadUtf8(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Frame(e) => write!(f, "frame: {e}"),
            ProtocolError::Truncated(field) => write!(f, "payload truncated at {field}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            ProtocolError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::BadField(field) => write!(f, "out-of-domain value for {field}"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtocolError::BadUtf8(field) => write!(f, "{field} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> ProtocolError {
        ProtocolError::Frame(e)
    }
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// An upper bound on the length of `req`'s payload.
fn request_len_bound(req: &Request) -> usize {
    FIXED_FIELDS_BOUND
        + match req {
            Request::Characterize { client, target, .. } => {
                client.len()
                    + match target {
                        Target::Name(text) | Target::Spice(text) => text.len(),
                    }
            }
            Request::Lookup { name } => name.len(),
            Request::Ping { .. } | Request::Stats | Request::Drain | Request::MetricsSnapshot => 0,
        }
}

/// An upper bound on the length of `resp`'s payload.
fn response_len_bound(resp: &Response) -> usize {
    FIXED_FIELDS_BOUND
        + match resp {
            Response::Model { cell, cam, .. } => cell.len() + cam.len(),
            Response::Error { detail: text, .. }
            | Response::Stats { body: text }
            | Response::MetricsSnapshot { json: text } => text.len(),
            Response::Pong { .. } | Response::Draining => 0,
        }
}

/// Serializes a request payload (unframed).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(request_len_bound(req));
    put_request(&mut out, req);
    out
}

/// Serializes a response payload (unframed).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(response_len_bound(resp));
    put_response(&mut out, resp);
    out
}

/// Appends `req`'s payload to `out`.
fn put_request(out: &mut Vec<u8>, req: &Request) {
    out.push(WIRE_VERSION);
    match req {
        Request::Ping { token } => {
            out.push(1);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Request::Characterize {
            client,
            deadline_ms,
            target,
            trace,
        } => {
            out.push(2);
            put_str(out, client);
            out.extend_from_slice(&deadline_ms.to_le_bytes());
            match target {
                Target::Name(name) => {
                    out.push(0);
                    put_str(out, name);
                }
                Target::Spice(src) => {
                    out.push(1);
                    put_str(out, src);
                }
            }
            match trace {
                None => out.push(0),
                Some(ctx) => {
                    out.push(1);
                    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
                    out.extend_from_slice(&ctx.span_id.to_le_bytes());
                    out.extend_from_slice(&ctx.child_seed.to_le_bytes());
                }
            }
        }
        Request::Lookup { name } => {
            out.push(3);
            put_str(out, name);
        }
        Request::Stats => out.push(4),
        Request::Drain => out.push(5),
        Request::MetricsSnapshot => out.push(6),
    }
}

/// Appends `resp`'s payload to `out`.
fn put_response(out: &mut Vec<u8>, resp: &Response) {
    out.push(WIRE_VERSION);
    match resp {
        Response::Pong { token } => {
            out.push(1);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Response::Model {
            cell,
            degraded,
            source,
            cam,
            timing,
        } => {
            out.push(2);
            put_str(out, cell);
            out.push(u8::from(*degraded));
            out.push(*source as u8);
            put_str(out, cam);
            out.extend_from_slice(&timing.queue_us.to_le_bytes());
            out.extend_from_slice(&timing.service_us.to_le_bytes());
            out.extend_from_slice(&timing.journal_us.to_le_bytes());
        }
        Response::Error { kind, detail } => {
            out.push(3);
            out.push(*kind as u8);
            put_str(out, detail);
        }
        Response::Stats { body } => {
            out.push(4);
            put_str(out, body);
        }
        Response::Draining => out.push(5),
        Response::MetricsSnapshot { json } => {
            out.push(6);
            put_str(out, json);
        }
    }
}

// ---------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over one frame payload. Every accessor
/// returns a structured error instead of slicing out of range, and
/// string reads never allocate more than the bytes actually present.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `len` bytes, or `Truncated` when fewer are present.
    fn take(&mut self, len: usize, field: &'static str) -> Result<&'a [u8], ProtocolError> {
        let bytes = self
            .pos
            .checked_add(len)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(ProtocolError::Truncated(field))?;
        self.pos += len;
        Ok(bytes)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ProtocolError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(ProtocolError::Truncated(field))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtocolError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4, field)?);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtocolError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8, field)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn str(&mut self, field: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(field)? as usize;
        // The declared length is checked against the bytes *present*
        // before any allocation: a hostile prefix cannot oversize.
        let bytes = self.take(len, field)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| ProtocolError::BadUtf8(field))?
            .to_string())
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes(left))
        }
    }
}

/// Reads and validates the version byte; returns it so tag-specific
/// decoding can pick the per-version field layout.
fn check_version(r: &mut Reader<'_>) -> Result<u8, ProtocolError> {
    let v = r.u8("version")?;
    if (WIRE_V1..=WIRE_VERSION).contains(&v) {
        Ok(v)
    } else {
        Err(ProtocolError::BadVersion(v))
    }
}

/// Decodes a request payload (unframed). Accepts both wire versions:
/// a v1 `Characterize` simply carries no trace context, and the
/// v2-only `MetricsSnapshot` tag is rejected under v1 exactly as a v1
/// peer would have rejected it.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader::new(payload);
    let version = check_version(&mut r)?;
    let req = match r.u8("request tag")? {
        1 => Request::Ping {
            token: r.u64("ping token")?,
        },
        2 => {
            let client = r.str("client")?;
            let deadline_ms = r.u64("deadline_ms")?;
            let target = match r.u8("target kind")? {
                0 => Target::Name(r.str("target name")?),
                1 => Target::Spice(r.str("target spice")?),
                _ => return Err(ProtocolError::BadField("target kind")),
            };
            let trace = if version >= 2 {
                match r.u8("trace present")? {
                    0 => None,
                    1 => Some(TraceContext {
                        trace_id: r.u64("trace id")?,
                        span_id: r.u64("trace span")?,
                        child_seed: r.u64("trace seed")?,
                    }),
                    _ => return Err(ProtocolError::BadField("trace present")),
                }
            } else {
                None
            };
            Request::Characterize {
                client,
                deadline_ms,
                target,
                trace,
            }
        }
        3 => Request::Lookup {
            name: r.str("lookup name")?,
        },
        4 => Request::Stats,
        5 => Request::Drain,
        6 if version >= 2 => Request::MetricsSnapshot,
        t => return Err(ProtocolError::BadTag(t)),
    };
    r.finish()?;
    Ok(req)
}

/// Decodes a response payload (unframed). A v1 `Model` frame decodes
/// with a zeroed [`Timing`] — the legacy protocol had no breakdown.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Reader::new(payload);
    let version = check_version(&mut r)?;
    let resp = match r.u8("response tag")? {
        1 => Response::Pong {
            token: r.u64("pong token")?,
        },
        2 => {
            let cell = r.str("cell")?;
            let degraded = match r.u8("degraded")? {
                0 => false,
                1 => true,
                _ => return Err(ProtocolError::BadField("degraded")),
            };
            let source = match r.u8("source")? {
                0 => ModelSource::Fresh,
                2 => ModelSource::Store,
                _ => return Err(ProtocolError::BadField("source")),
            };
            let cam = r.str("cam")?;
            let timing = if version >= 2 {
                Timing {
                    queue_us: r.u64("timing queue_us")?,
                    service_us: r.u64("timing service_us")?,
                    journal_us: r.u64("timing journal_us")?,
                }
            } else {
                Timing::default()
            };
            Response::Model {
                cell,
                degraded,
                source,
                cam,
                timing,
            }
        }
        3 => {
            let kind = match r.u8("error kind")? {
                1 => ErrorKind::BadRequest,
                2 => ErrorKind::UnknownCell,
                3 => ErrorKind::Overloaded,
                4 => ErrorKind::QuotaExceeded,
                5 => ErrorKind::DeadlineExceeded,
                6 => ErrorKind::Quarantined,
                7 => ErrorKind::Draining,
                8 => ErrorKind::Internal,
                _ => return Err(ProtocolError::BadField("error kind")),
            };
            Response::Error {
                kind,
                detail: r.str("error detail")?,
            }
        }
        4 => Response::Stats {
            body: r.str("stats body")?,
        },
        5 => Response::Draining,
        6 if version >= 2 => Response::MetricsSnapshot {
            json: r.str("metrics json")?,
        },
        t => return Err(ProtocolError::BadTag(t)),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framed stream I/O
// ---------------------------------------------------------------------

/// Writes one framed request to `w` with a single `write_all`; an
/// over-cap request writes nothing.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> std::io::Result<()> {
    write_message(w, MAX_REQUEST_PAYLOAD, request_len_bound(req), |out| {
        put_request(out, req)
    })
}

/// Writes one framed response to `w` with a single `write_all`; an
/// over-cap response writes nothing.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> std::io::Result<()> {
    write_message(w, MAX_RESPONSE_PAYLOAD, response_len_bound(resp), |out| {
        put_response(out, resp)
    })
}

/// Builds one frame in a single buffer sized up front for a payload of
/// at most `len_bound` bytes, then writes it whole.
fn write_message<W: Write>(
    w: &mut W,
    cap: u32,
    len_bound: usize,
    put: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + len_bound);
    frame::append_frame(&mut frame, cap, |out| {
        put(out);
        Ok(())
    })?;
    w.write_all(&frame)
}

/// Reads one framed request from `r`; `Ok(None)` is clean EOF between
/// frames (the client hung up politely).
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, ProtocolError> {
    match frame::read_frame(r, MAX_REQUEST_PAYLOAD)? {
        None => Ok(None),
        Some(payload) => decode_request(&payload).map(Some),
    }
}

/// Reads one framed response from `r`; `Ok(None)` is clean EOF.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, ProtocolError> {
    match frame::read_frame(r, MAX_RESPONSE_PAYLOAD)? {
        None => Ok(None),
        Some(payload) => decode_response(&payload).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping { token: 0 },
            Request::Ping { token: u64::MAX },
            Request::Characterize {
                client: "loadgen-7".into(),
                deadline_ms: 2500,
                target: Target::Name("INV_X1".into()),
                trace: None,
            },
            Request::Characterize {
                client: "traced".into(),
                deadline_ms: 100,
                target: Target::Name("ND2_X1".into()),
                trace: Some(TraceContext {
                    trace_id: 0x0123_4567_89ab_cdef,
                    span_id: u64::MAX,
                    child_seed: 7,
                }),
            },
            Request::Characterize {
                client: String::new(),
                deadline_ms: 0,
                target: Target::Spice(".SUBCKT X A Z VDD VSS\n.ENDS".into()),
                trace: None,
            },
            Request::Lookup {
                name: "ND2_X1".into(),
            },
            Request::Stats,
            Request::Drain,
            Request::MetricsSnapshot,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong { token: 42 },
            Response::Model {
                cell: "INV_X1".into(),
                degraded: false,
                source: ModelSource::Fresh,
                cam: "* CAM body\n".into(),
                timing: Timing {
                    queue_us: 12,
                    service_us: 3400,
                    journal_us: 56,
                },
            },
            Response::Model {
                cell: "ND2_X1".into(),
                degraded: true,
                source: ModelSource::Store,
                cam: String::new(),
                timing: Timing::default(),
            },
            Response::Error {
                kind: ErrorKind::Overloaded,
                detail: "queue full (32 waiting)".into(),
            },
            Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                detail: String::new(),
            },
            Response::Stats {
                body: "ca_serve.admitted 12\n".into(),
            },
            Response::Draining,
            Response::MetricsSnapshot {
                json: "{\"schema\":\"ca-obs-metrics/1\"}".into(),
            },
        ]
    }

    /// The slot of `req`'s variant in `seen`, and the wire version that
    /// introduced it. No `_` arm: a new variant does not compile until it
    /// claims a slot, a slot past the array does not compile until the
    /// array grows, and then `samples_cover_every_variant` fails until
    /// `sample_requests` includes the variant.
    fn request_slot<'a>(req: &Request, seen: &'a mut [bool; 6]) -> (&'a mut bool, u8) {
        match req {
            Request::Ping { .. } => (&mut seen[0], WIRE_V1),
            Request::Characterize { .. } => (&mut seen[1], WIRE_V1),
            Request::Lookup { .. } => (&mut seen[2], WIRE_V1),
            Request::Stats => (&mut seen[3], WIRE_V1),
            Request::Drain => (&mut seen[4], WIRE_V1),
            Request::MetricsSnapshot => (&mut seen[5], 2),
        }
    }

    /// As [`request_slot`], for responses.
    fn response_slot<'a>(resp: &Response, seen: &'a mut [bool; 6]) -> (&'a mut bool, u8) {
        match resp {
            Response::Pong { .. } => (&mut seen[0], WIRE_V1),
            Response::Model { .. } => (&mut seen[1], WIRE_V1),
            Response::Error { .. } => (&mut seen[2], WIRE_V1),
            Response::Stats { .. } => (&mut seen[3], WIRE_V1),
            Response::Draining => (&mut seen[4], WIRE_V1),
            Response::MetricsSnapshot { .. } => (&mut seen[5], 2),
        }
    }

    /// The round-trip, truncation and framing tests below iterate the
    /// samples, so every variant of both enums must be among them.
    #[test]
    fn samples_cover_every_variant() {
        let mut seen = [false; 6];
        for req in sample_requests() {
            *request_slot(&req, &mut seen).0 = true;
        }
        assert_eq!(seen, [true; 6], "sample_requests misses a Request variant");
        let mut seen = [false; 6];
        for resp in sample_responses() {
            *response_slot(&resp, &mut seen).0 = true;
        }
        assert_eq!(
            seen, [true; 6],
            "sample_responses misses a Response variant"
        );
    }

    #[test]
    fn requests_and_responses_round_trip() {
        for req in sample_requests() {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        for resp in sample_responses() {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    /// The writers frame in place exactly as `frame::encode` frames the
    /// payload, in a buffer that never outgrows its reservation.
    #[test]
    fn writers_frame_in_place_as_encode_frames_them() {
        for req in sample_requests() {
            let mut framed = Vec::new();
            write_request(&mut framed, &req).unwrap();
            assert_eq!(framed, frame::encode(&encode_request(&req)), "{req:?}");
            assert!(framed.len() <= FRAME_HEADER_LEN + request_len_bound(&req));
        }
        // A response the size of a served model's (~28 KB `.cam`).
        let model = Response::Model {
            cell: "AOI22_X4".into(),
            degraded: false,
            source: ModelSource::Fresh,
            cam: "row 0 0110\n".repeat(2_500),
            timing: Timing {
                queue_us: u64::MAX,
                service_us: 0,
                journal_us: 1,
            },
        };
        for resp in sample_responses().into_iter().chain([model]) {
            let mut framed = Vec::new();
            write_response(&mut framed, &resp).unwrap();
            assert_eq!(framed, frame::encode(&encode_response(&resp)), "{resp:?}");
            assert!(framed.len() <= FRAME_HEADER_LEN + response_len_bound(&resp));
        }
    }

    #[test]
    fn over_cap_requests_write_nothing() {
        let req = Request::Lookup {
            name: "X".repeat(MAX_REQUEST_PAYLOAD as usize),
        };
        let mut wire = Vec::new();
        let err = write_request(&mut wire, &req).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(wire.is_empty());
    }

    /// `Fresh` and `Store` keep their bytes; the retired bytes 1 and 3
    /// are out of domain.
    #[test]
    fn retired_sources_are_bad_fields() {
        let sources = [
            (0, Some(ModelSource::Fresh)),
            (1, None),
            (2, Some(ModelSource::Store)),
            (3, None),
        ];
        for (byte, want) in sources {
            let mut payload = vec![WIRE_VERSION, 2];
            put_str(&mut payload, "INV_X1");
            payload.extend_from_slice(&[0, byte]);
            put_str(&mut payload, "");
            payload.extend_from_slice(&[0; 24]);
            match (decode_response(&payload), want) {
                (Ok(Response::Model { source, .. }), Some(want)) => assert_eq!(source, want),
                (Err(ProtocolError::BadField("source")), None) => {}
                (other, _) => panic!("source byte {byte}: {other:?}"),
            }
        }
    }

    #[test]
    fn framed_stream_round_trips_back_to_back_messages() {
        let mut wire = Vec::new();
        for req in sample_requests() {
            write_request(&mut wire, &req).unwrap();
        }
        let mut r = &wire[..];
        for req in sample_requests() {
            assert_eq!(read_request(&mut r).unwrap(), Some(req));
        }
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Satellite property: every truncation of every sample message, at
    /// every byte boundary, decodes to a structured error — no panics,
    /// no hangs, no partial successes.
    #[test]
    fn every_truncation_is_a_structured_error() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            for cut in 0..payload.len() {
                let err = decode_request(&payload[..cut])
                    .expect_err(&format!("{req:?} truncated at {cut} must not decode"));
                // The error renders; this is what lands in Error frames.
                assert!(!err.to_string().is_empty());
            }
        }
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            for cut in 0..payload.len() {
                assert!(
                    decode_response(&payload[..cut]).is_err(),
                    "{resp:?} at {cut}"
                );
            }
        }
    }

    /// Satellite property: a bit flip anywhere in a *framed* message is
    /// caught — by the CRC for payload/length damage, or by the typed
    /// decoders for damage that still frames cleanly. Either way the
    /// result is a structured error or a *different valid message*,
    /// never a panic.
    #[test]
    fn every_bit_flip_in_a_framed_request_is_contained() {
        let req = Request::Characterize {
            client: "fuzz".into(),
            deadline_ms: 77,
            target: Target::Name("INV_X1".into()),
            trace: None,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut dam = wire.clone();
                dam[byte] ^= 1 << bit;
                // Must return — structured error, clean EOF (length
                // field shrank to a prefix that frames as torn), or a
                // decoded message. All are contained outcomes.
                let _ = read_request(&mut &dam[..]);
            }
        }
    }

    /// Satellite property: hostile length prefixes are rejected by cap
    /// comparison before any allocation.
    #[test]
    fn oversized_and_garbage_frames_are_rejected_cheaply() {
        // Frame-level: a 2 GiB length prefix.
        let mut wire = (u32::MAX / 2).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 12]);
        match read_request(&mut &wire[..]) {
            Err(ProtocolError::Frame(FrameError::TooLarge { .. })) => {}
            other => panic!("{other:?}"),
        }
        // String-level: a valid frame whose string length field claims
        // more bytes than the payload holds.
        let mut payload = vec![WIRE_VERSION, 3];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        match decode_request(&payload) {
            Err(ProtocolError::Truncated(_)) => {}
            other => panic!("{other:?}"),
        }
        // Garbage: random-ish bytes at every prefix length.
        let garbage: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..garbage.len() {
            let _ = read_request(&mut &garbage[..len]);
        }
    }

    #[test]
    fn version_and_tag_domain_errors_are_explicit() {
        assert!(matches!(
            decode_request(&[9, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtocolError::BadVersion(9))
        ));
        assert!(matches!(
            decode_request(&[WIRE_VERSION, 77]),
            Err(ProtocolError::BadTag(77))
        ));
        // Trailing bytes after a complete message are a protocol error,
        // not silently ignored (they'd desync a stream otherwise).
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(ProtocolError::TrailingBytes(1))
        ));
        // Non-UTF-8 in a string field.
        let mut payload = vec![WIRE_VERSION, 3];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_request(&payload),
            Err(ProtocolError::BadUtf8("lookup name"))
        ));
    }

    /// Old-frame compatibility: v1 payloads (no trace context, no
    /// timing block, no v2-only variant) still decode, with the v2-only
    /// fields defaulted. A v1 peer never sees the new fields; a v2
    /// decoder never demands them from a v1 frame.
    #[test]
    fn v1_frames_decode_with_defaulted_v2_fields() {
        // v1 Characterize: version 1, tag 2, client, deadline, target —
        // and nothing after the target (no trace presence byte).
        let mut payload = vec![WIRE_V1, 2];
        put_str(&mut payload, "old-client");
        payload.extend_from_slice(&1500u64.to_le_bytes());
        payload.push(0); // Target::Name
        put_str(&mut payload, "INV_X1");
        assert_eq!(
            decode_request(&payload).unwrap(),
            Request::Characterize {
                client: "old-client".into(),
                deadline_ms: 1500,
                target: Target::Name("INV_X1".into()),
                trace: None,
            }
        );

        // v1 Model: version 1, tag 2, cell, degraded, source, cam —
        // no timing block. Decodes with Timing::default().
        let mut payload = vec![WIRE_V1, 2];
        put_str(&mut payload, "INV_X1");
        payload.push(0); // degraded = false
        payload.push(ModelSource::Fresh as u8);
        put_str(&mut payload, "* CAM\n");
        assert_eq!(
            decode_response(&payload).unwrap(),
            Response::Model {
                cell: "INV_X1".into(),
                degraded: false,
                source: ModelSource::Fresh,
                cam: "* CAM\n".into(),
                timing: Timing::default(),
            }
        );

        // Every variant introduced after v1, framed at v1, is a BadTag
        // exactly as a v1 peer would reject it, not a silent decode.
        let mut seen = [false; 6];
        for req in sample_requests() {
            if request_slot(&req, &mut seen).1 > WIRE_V1 {
                let mut payload = encode_request(&req);
                payload[0] = WIRE_V1;
                let err = decode_request(&payload);
                assert!(
                    matches!(err, Err(ProtocolError::BadTag(_))),
                    "{req:?}: {err:?}"
                );
            }
        }
        for resp in sample_responses() {
            if response_slot(&resp, &mut seen).1 > WIRE_V1 {
                let mut payload = encode_response(&resp);
                payload[0] = WIRE_V1;
                let err = decode_response(&payload);
                assert!(
                    matches!(err, Err(ProtocolError::BadTag(_))),
                    "{resp:?}: {err:?}"
                );
            }
        }

        // v1 messages without version-gated fields round-trip through
        // a v1 version byte unchanged (encoders always emit v2; this
        // pins the *decode* path only).
        let mut payload = encode_request(&Request::Stats);
        payload[0] = WIRE_V1;
        assert_eq!(decode_request(&payload).unwrap(), Request::Stats);
    }
}
