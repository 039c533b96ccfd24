//! Blocking client for the ca-serve protocol — used by `ca-bench
//! serve`'s load generator, the integration tests, and anyone driving
//! the daemon from Rust.

use crate::protocol::{self, ProtocolError, Request, Response, Target};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

/// Why a request failed client-side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The server's bytes did not decode.
    Protocol(ProtocolError),
    /// The server closed the connection before answering.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// One blocking connection to a ca-serve daemon.
pub struct ServeClient {
    stream: Box<dyn Transport>,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").finish()
    }
}

impl ServeClient {
    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<ServeClient> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        Ok(ServeClient {
            stream: Box::new(stream),
        })
    }

    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        Ok(ServeClient {
            stream: Box::new(stream),
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        protocol::write_request(&mut self.stream, request).map_err(ClientError::Io)?;
        self.stream.flush().map_err(ClientError::Io)?;
        match protocol::read_response(&mut self.stream) {
            Ok(Some(response)) => Ok(response),
            Ok(None) => Err(ClientError::Closed),
            Err(ProtocolError::Frame(ca_store::frame::FrameError::Io(e))) => {
                Err(ClientError::Io(e))
            }
            Err(e) => Err(ClientError::Protocol(e)),
        }
    }

    /// Liveness probe; `Ok(true)` when the echo matches.
    pub fn ping(&mut self, token: u64) -> Result<bool, ClientError> {
        match self.request(&Request::Ping { token })? {
            Response::Pong { token: echoed } => Ok(echoed == token),
            _ => Ok(false),
        }
    }

    /// Characterizes a library cell by name. When tracing is enabled
    /// and a span is open on this thread, an `rpc` client span wraps
    /// the call and its context rides the wire so the server-side
    /// `request` span parents under it.
    pub fn characterize(
        &mut self,
        client: &str,
        name: &str,
        deadline_ms: u64,
    ) -> Result<Response, ClientError> {
        let rpc = ca_obs::span!("ca_serve.rpc");
        let trace = rpc.context();
        self.request(&Request::Characterize {
            client: client.to_string(),
            deadline_ms,
            target: Target::Name(name.to_string()),
            trace,
        })
    }

    /// Characterizes an inline SPICE netlist (traced like
    /// [`ServeClient::characterize`]).
    pub fn characterize_spice(
        &mut self,
        client: &str,
        spice: &str,
        deadline_ms: u64,
    ) -> Result<Response, ClientError> {
        let rpc = ca_obs::span!("ca_serve.rpc");
        let trace = rpc.context();
        self.request(&Request::Characterize {
            client: client.to_string(),
            deadline_ms,
            target: Target::Spice(spice.to_string()),
            trace,
        })
    }

    /// Snapshot-isolated journal read.
    pub fn lookup(&mut self, name: &str) -> Result<Response, ClientError> {
        self.request(&Request::Lookup {
            name: name.to_string(),
        })
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Stats)
    }

    /// Full machine-readable metrics registry snapshot (wire v2).
    pub fn metrics_snapshot(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::MetricsSnapshot)
    }

    /// Asks the server to drain.
    pub fn drain(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Drain)
    }
}
