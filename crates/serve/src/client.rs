//! The blocking client: one TCP connection, request/response framing,
//! typed convenience calls, socket timeouts, and retry with
//! exponential backoff. Used by the integration tests, the `fgdb-bench`
//! load generator, and the `serving` example.

use crate::protocol::{
    read_frame_timeout, write_frame, EpochMeta, Framed, ProtocolError, Request, Response,
    WireError, WireQueryStatus, WireRow, WireStats,
};
use std::fmt;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport/protocol trouble, a served error, a
/// shed request, a timeout, or a response of the wrong kind.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or wire-format failure.
    Protocol(ProtocolError),
    /// The server answered with an error response.
    Server(WireError),
    /// The server shed the request (connection cap, or degraded sampler)
    /// and hinted when to retry. [`Client::query_with_retry`] honors the
    /// hint automatically.
    Unavailable {
        /// The server's suggested pause before retrying.
        retry_after_ms: u64,
    },
    /// The server did not answer (or did not finish answering) within
    /// the configured read timeout. The connection is desynchronized
    /// after this — reconnect before reusing it.
    Timeout {
        /// What the client was waiting for when the clock ran out.
        during: &'static str,
    },
    /// The server answered with an unexpected response kind.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {}", e.rendered),
            ClientError::Unavailable { retry_after_ms } => {
                write!(f, "server unavailable, retry after {retry_after_ms} ms")
            }
            ClientError::Timeout { during } => write!(f, "timed out waiting for {during}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl ClientError {
    /// Whether retrying (on a fresh connection) can plausibly succeed:
    /// sheds, timeouts, and transport failures are transient; a served
    /// SQL error or a malformed frame is not.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Unavailable { .. } | ClientError::Timeout { .. } => true,
            ClientError::Protocol(ProtocolError::Io(_)) => true,
            ClientError::Protocol(ProtocolError::Stalled { .. }) => true,
            ClientError::Protocol(_) | ClientError::Server(_) | ClientError::Unexpected(_) => false,
        }
    }
}

/// Client socket and retry tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// How long to wait for a response before [`ClientError::Timeout`]
    /// (`None` waits forever — the pre-timeout behavior).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Retries after the first attempt of [`Client::query_with_retry`]
    /// and friends.
    pub max_retries: u32,
    /// Base backoff: retry `n` (1-based) waits `backoff_base_ms × 2ⁿ⁻¹`
    /// plus deterministic jitter, floored by any server retry hint.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Seed of the deterministic jitter stream (so a retry storm from a
    /// fleet of clients can be de-synchronized reproducibly).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_retries: 4,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            jitter_seed: 0x5EED,
        }
    }
}

/// An ad-hoc query answer with its epoch provenance.
#[derive(Clone, Debug)]
pub struct TableAnswer {
    /// Which epoch answered.
    pub meta: EpochMeta,
    /// Output column names.
    pub columns: Vec<String>,
    /// Answer rows, sorted by tuple.
    pub rows: Vec<WireRow>,
}

/// A blocking connection to an [`fgdb-serve`](crate) server.
pub struct Client {
    stream: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
    jitter: u64,
}

impl Client {
    /// Connects to `addr` with default timeouts and retry tuning.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tuning.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ProtocolError::Io)?;
        let peer = stream.peer_addr().map_err(ProtocolError::Io)?;
        Self::from_stream(stream, peer, config)
    }

    fn from_stream(
        stream: TcpStream,
        peer: SocketAddr,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        stream.set_nodelay(true).map_err(ProtocolError::Io)?;
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(ProtocolError::Io)?;
        stream
            .set_write_timeout(config.write_timeout)
            .map_err(ProtocolError::Io)?;
        Ok(Client {
            stream,
            peer,
            config,
            jitter: config.jitter_seed | 1,
        })
    }

    /// Drops the current connection and dials the same peer again. After
    /// a [`ClientError::Timeout`] or transport error the old stream may
    /// hold half a response, so retries must start clean.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.peer).map_err(ProtocolError::Io)?;
        stream.set_nodelay(true).map_err(ProtocolError::Io)?;
        stream
            .set_read_timeout(self.config.read_timeout)
            .map_err(ProtocolError::Io)?;
        stream
            .set_write_timeout(self.config.write_timeout)
            .map_err(ProtocolError::Io)?;
        self.stream = stream;
        Ok(())
    }

    /// Sends one request and reads one response (the protocol is strictly
    /// request/response per connection). A read timeout surfaces as
    /// [`ClientError::Timeout`]; a served shed surfaces as
    /// [`ClientError::Unavailable`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let frame = req.frame().map_err(ClientError::Protocol)?;
        if let Err(e) = write_frame(&mut self.stream, &frame) {
            return Err(match e {
                ProtocolError::Io(ref io)
                    if io.kind() == std::io::ErrorKind::WouldBlock
                        || io.kind() == std::io::ErrorKind::TimedOut =>
                {
                    ClientError::Timeout {
                        during: "request write",
                    }
                }
                ProtocolError::Io(ref io)
                    if matches!(
                        io.kind(),
                        std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    // A shedding server writes one Unavailable frame and
                    // closes; our write can race that close and fail with
                    // EPIPE while the shed frame sits in the receive
                    // buffer. Drain it so the caller sees the typed shed,
                    // not a transport error.
                    match read_frame_timeout(&mut self.stream, Duration::ZERO) {
                        Ok(Framed::Frame(payload)) => match Response::decode(&payload) {
                            Ok(Response::Unavailable { retry_after_ms }) => {
                                return Err(ClientError::Unavailable { retry_after_ms });
                            }
                            _ => ClientError::Protocol(e),
                        },
                        _ => ClientError::Protocol(e),
                    }
                }
                other => ClientError::Protocol(other),
            });
        }
        // The socket read timeout doubles as the stall budget: a server
        // that never starts answering and one that stops halfway are the
        // same timeout to a caller.
        let budget = self.config.read_timeout.unwrap_or(Duration::MAX);
        match read_frame_timeout(&mut self.stream, budget) {
            Ok(Framed::Frame(payload)) => match Response::decode(&payload)? {
                Response::Unavailable { retry_after_ms } => {
                    Err(ClientError::Unavailable { retry_after_ms })
                }
                resp => Ok(resp),
            },
            Ok(Framed::Eof) => Err(ClientError::Protocol(ProtocolError::Malformed(
                "server closed before responding".into(),
            ))),
            Ok(Framed::Idle) => Err(ClientError::Timeout { during: "response" }),
            Err(ProtocolError::Stalled { .. }) => Err(ClientError::Timeout {
                during: "response body",
            }),
            Err(e) => Err(ClientError::Protocol(e)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Live sampler counters.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Pins the freshest epoch for this connection; returns its
    /// provenance. Queries after `pin` are snapshot-isolated against it.
    pub fn pin(&mut self) -> Result<EpochMeta, ClientError> {
        match self.request(&Request::Pin)? {
            Response::Pinned { meta } => Ok(meta),
            other => Err(unexpected(other)),
        }
    }

    /// Drops the connection's pinned epoch.
    pub fn unpin(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Unpin)? {
            Response::Unpinned => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Ad-hoc SQL against the pinned (or freshest) epoch.
    pub fn query(&mut self, sql: &str) -> Result<TableAnswer, ClientError> {
        match self.request(&Request::Query {
            sql: sql.to_string(),
        })? {
            Response::Table {
                meta,
                columns,
                rows,
            } => Ok(TableAnswer {
                meta,
                columns,
                rows,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Convergence-tagged status of a registered query.
    pub fn status(&mut self, name: &str) -> Result<(EpochMeta, WireQueryStatus), ClientError> {
        match self.request(&Request::Status {
            name: name.to_string(),
        })? {
            Response::Status { meta, status } => Ok((meta, *status)),
            other => Err(unexpected(other)),
        }
    }

    /// [`Client::query`] with retry: sheds, timeouts, and transport
    /// failures back off exponentially (with deterministic jitter,
    /// honoring any server `retry_after_ms` hint as a floor) and try
    /// again on a fresh connection, up to
    /// [`ClientConfig::max_retries`] retries. SQL errors and protocol
    /// violations are returned immediately — retrying replays them.
    ///
    /// Note the retried request re-executes against the *freshest* epoch
    /// (any per-connection pin died with the old connection), which is
    /// what an unpinned query means anyway.
    pub fn query_with_retry(&mut self, sql: &str) -> Result<TableAnswer, ClientError> {
        self.with_retry(|c| c.query(sql))
    }

    /// [`Client::ping`] with the same retry/backoff loop.
    pub fn ping_with_retry(&mut self) -> Result<(), ClientError> {
        self.with_retry(|c| c.ping())
    }

    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < self.config.max_retries => e,
                Err(e) => return Err(e),
            };
            attempt += 1;
            std::thread::sleep(self.backoff(attempt, &err));
            // Timeouts and transport errors leave the old stream in an
            // unknown position; a shed closed it server-side. Either
            // way, retries start on a clean connection — and if the
            // server itself is down, the reconnect error ends the loop
            // unless retries remain.
            if let Err(re) = self.reconnect() {
                if attempt >= self.config.max_retries {
                    return Err(re);
                }
            }
        }
    }

    /// Backoff before retry `attempt` (1-based): exponential in the
    /// attempt with ±half jitter, capped, floored by the server's
    /// `retry_after_ms` hint when one was served.
    fn backoff(&mut self, attempt: u32, err: &ClientError) -> Duration {
        let exp = self
            .config
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.config.backoff_cap_ms);
        // xorshift64*: deterministic per-client jitter stream.
        let mut x = self.jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let jittered = exp / 2 + r % (exp / 2 + 1);
        let floor = match err {
            ClientError::Unavailable { retry_after_ms } => *retry_after_ms,
            _ => 0,
        };
        Duration::from_millis(
            jittered
                .max(floor)
                .min(self.config.backoff_cap_ms.max(floor)),
        )
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error(e) => ClientError::Server(e),
        other => ClientError::Unexpected(format!("{other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_honors_hints() {
        let config = ClientConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        // Two clients with the same seed produce the same jitter stream.
        let roll = |seed: u64| {
            let mut jitter = seed | 1;
            let timeout = ClientError::Timeout { during: "response" };
            (1..=6u32)
                .map(|attempt| {
                    let exp = config
                        .backoff_base_ms
                        .saturating_mul(1u64 << (attempt - 1).min(20))
                        .min(config.backoff_cap_ms);
                    let mut x = jitter;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    jitter = x;
                    let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    let _ = &timeout;
                    exp / 2 + r % (exp / 2 + 1)
                })
                .collect::<Vec<u64>>()
        };
        assert_eq!(roll(7), roll(7));
        let waits = roll(7);
        // Exponential envelope: each wait is within [exp/2, exp], capped.
        for (i, &w) in waits.iter().enumerate() {
            let exp = (10u64 << i).min(200);
            assert!(
                w >= exp / 2 && w <= exp,
                "wait {w} outside envelope of {exp}"
            );
        }
    }

    #[test]
    fn retryability_is_typed() {
        assert!(ClientError::Timeout { during: "response" }.is_retryable());
        assert!(ClientError::Unavailable { retry_after_ms: 5 }.is_retryable());
        assert!(
            ClientError::Protocol(ProtocolError::Io(std::io::Error::other("reset"))).is_retryable()
        );
        assert!(!ClientError::Protocol(ProtocolError::Malformed("junk".into())).is_retryable());
        assert!(!ClientError::Unexpected("pong".into()).is_retryable());
    }
}
