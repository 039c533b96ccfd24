//! `ca-serve` — a fault-tolerant long-running characterization service.
//!
//! The batch flows answer "characterize this library, once"; `ca-serve`
//! keeps one durable [`ca_core::CellService`] resident and answers
//! cells one request at a time, for days, over Unix-domain sockets and
//! TCP (DESIGN.md §13):
//!
//! - [`protocol`]: a versioned tagged message format inside the
//!   journal's own CRC framing ([`ca_store::frame`]). Every byte
//!   sequence decodes to a message or a structured error — never a
//!   panic, never an unbounded allocation.
//! - [`admission`]: bounded queue + execution slots + per-client
//!   quotas. Overload sheds with typed `Overloaded`/`QuotaExceeded`
//!   frames at the socket, in constant time, instead of queueing
//!   without bound or dropping connections silently.
//! - [`server`]: thread-per-connection daemon with per-request
//!   deadlines that propagate into the simulation budget. A request
//!   whose deadline ends the work journals nothing; any other result is
//!   what the configured budget produces and is journaled, so the store
//!   — and therefore a crash-resumed or batch-converged export — stays
//!   byte-identical to a deadline-free run. Concurrent identical
//!   requests share one simulation through the characterization
//!   cache's per-key leader election, and one panic catch per request
//!   answers a panic that escapes the guarded pipeline as a structured
//!   `Quarantined` verdict.
//! - Drain: `SIGTERM` (or a `Drain` request) stops admissions,
//!   finishes and journals in-flight work, compacts, and exits;
//!   `SIGKILL` at any instant leaves a journal the next start recovers
//!   through the same torn-tail machinery as every batch session.
//!
//! `tests/serve_robustness.rs` exercises the whole matrix against real
//! daemon processes: SIGTERM drain, SIGKILL + restart byte-identity,
//! overload shedding and queue-deadline behavior.

// Workspace rules D5 and D6 (DESIGN.md §10): report through ca-obs, not
// ad-hoc stdout/stderr, and document every `unsafe` block. Every lint
// suppression states its reason.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]
// Workspace rule D9: the daemon runs unattended; an unwrap or an
// unchecked index in the serving path turns one bad request into an
// outage.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;
pub mod signal;

pub use admission::{Admission, AdmissionConfig, Denial};
pub use client::{ClientError, ServeClient};
pub use protocol::{ErrorKind, ModelSource, ProtocolError, Request, Response, Target, Timing};
pub use server::{Endpoint, ServeConfig, ServeError, Server};
