//! The TCP server: accept loop, per-connection workers, overload
//! shedding, graceful shutdown.
//!
//! The server owns nothing but an [`EpochReader`] — the sampler keeps
//! running whether or not a server fronts it, and a worker answering a
//! query holds a pinned [`EpochSnapshot`]
//! `Arc`, never any lock the sampler contends on. Connection lifecycle:
//!
//! * each accepted connection gets its own worker thread with a short
//!   read timeout, so workers notice the stop flag promptly even when
//!   their client is idle;
//! * a connection may `PIN` the freshest epoch; every later query on that
//!   connection answers from the pinned world until `UNPIN` — snapshot
//!   isolation across requests, the wire-level form of the core's
//!   epoch-pinning contract;
//! * malformed frames produce an error *response* where possible and
//!   close only that connection — a hostile client cannot take down the
//!   process. A peer that starts a frame and stalls is cut off after
//!   [`ServerConfig::stall_budget`] (continuing to poll there would
//!   desynchronize the stream — see
//!   [`read_frame_timeout`]);
//! * **overload sheds, it never queues silently**: past
//!   [`ServerConfig::max_connections`] live connections, an excess accept
//!   is answered with one typed [`Response::Unavailable`] frame carrying
//!   a retry hint, then closed. Likewise, while the sampler is degraded
//!   (mid restart-from-recovery) requests for *fresh* state — `PIN` and
//!   unpinned queries — answer `Unavailable`; an explicitly pinned
//!   connection keeps reading its immutable epoch, because degradation
//!   is about freshness, never about consistency;
//! * [`Server::stop`] flips the stop flag, self-connects to unblock
//!   `accept`, and joins the accept loop and every worker.

use crate::protocol::{
    read_frame_timeout, status_frame, table_frame, write_frame, EpochMeta, ErrorCode, Frame,
    Framed, ProtocolError, Request, Response, WireError, WireStats,
};
use fgdb_core::{EpochReader, EpochSnapshot, EvaluateError, QueryError, SamplerState};
use fgdb_relational::QueryResult;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs; [`ServerConfig::default`] suits tests and small
/// deployments.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Live connections served concurrently; excess accepts are answered
    /// with [`Response::Unavailable`] and closed (`FGDB_MAX_CONNS`).
    pub max_connections: usize,
    /// How long a worker blocks in `read` before re-checking the stop
    /// flag on an idle connection.
    pub read_poll: Duration,
    /// How long a peer may dawdle *mid-frame* before the connection is
    /// closed as stalled.
    pub stall_budget: Duration,
    /// Socket write timeout: a client that stops draining its socket
    /// cannot park a worker forever.
    pub write_timeout: Duration,
    /// The retry hint carried by every [`Response::Unavailable`], in
    /// milliseconds.
    pub retry_after_ms: u64,
    /// Whether to shed fresh-state requests (`PIN`, unpinned queries)
    /// while the sampler is degraded. Pinned reads always keep working.
    pub shed_degraded: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_poll: Duration::from_millis(50),
            stall_budget: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retry_after_ms: 100,
            shed_degraded: true,
        }
    }
}

impl ServerConfig {
    /// Environment overrides: `FGDB_MAX_CONNS`, `FGDB_RETRY_AFTER_MS`.
    pub fn from_env() -> Self {
        let mut config = ServerConfig::default();
        if let Some(n) = env_usize("FGDB_MAX_CONNS") {
            config.max_connections = n.max(1);
        }
        if let Some(ms) = env_usize("FGDB_RETRY_AFTER_MS") {
            config.retry_after_ms = ms as u64;
        }
        config
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// A running TCP server over one [`EpochReader`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop with default tuning plus environment
    /// overrides ([`ServerConfig::from_env`]). Each connection is served
    /// by its own worker thread until the client disconnects or
    /// [`Server::stop`].
    pub fn start(reader: EpochReader, addr: &str) -> io::Result<Server> {
        Self::start_with(reader, addr, ServerConfig::from_env())
    }

    /// [`Server::start`] with explicit tuning.
    pub fn start_with(reader: EpochReader, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(Mutex::new(Vec::new()));

        let a_stop = Arc::clone(&stop);
        let a_workers = Arc::clone(&workers);
        let accept = std::thread::Builder::new()
            .name("fgdb-serve-accept".into())
            .spawn(move || accept_loop(listener, reader, config, a_stop, a_workers))?;

        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, drains every worker, joins all
    /// threads. Idempotent through `Drop` (dropping an already-stopped
    /// server is a no-op).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop: a throwaway self-connection makes
        // `accept` return so the loop can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements the live-connection count when a worker exits, however it
/// exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(
    listener: TcpListener,
    reader: EpochReader,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // At the cap: answer one typed Unavailable frame and close, so
        // the excess client learns *when* to come back instead of
        // queueing invisibly or timing out against silence.
        if live.load(Ordering::Acquire) >= config.max_connections {
            shed(stream, &config);
            continue;
        }
        live.fetch_add(1, Ordering::AcqRel);
        let guard = ConnGuard(Arc::clone(&live));
        let w_reader = reader.clone();
        let w_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fgdb-serve-conn".into())
            .spawn(move || {
                let _guard = guard;
                let _ = serve_connection(stream, w_reader, config, w_stop);
            });
        match handle {
            Ok(h) => {
                let mut guard = workers.lock().unwrap_or_else(|e| e.into_inner());
                // Reap finished workers so a long-lived server's handle
                // list tracks live connections, not historical ones.
                guard.retain(|w| !w.is_finished());
                guard.push(h);
            }
            Err(_) => {
                // Spawn failed: the guard moved into the closure was
                // never run, so the count was already released by drop.
            }
        }
    }
}

/// Answers one `Unavailable` frame on an excess connection, best effort.
fn shed(mut stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let shed = Response::Unavailable {
        retry_after_ms: config.retry_after_ms,
    };
    if let Ok(frame) = shed.frame() {
        let _ = write_frame(&mut stream, &frame);
    }
}

/// Serves one connection until EOF, a fatal protocol error, or stop.
fn serve_connection(
    mut stream: TcpStream,
    reader: EpochReader,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) -> Result<(), ProtocolError> {
    stream.set_read_timeout(Some(config.read_poll))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream.set_nodelay(true)?;
    // The connection's pinned epoch, when `PIN`ned.
    let mut pinned: Option<Arc<EpochSnapshot>> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let payload = match read_frame_timeout(&mut stream, config.stall_budget) {
            Ok(Framed::Frame(p)) => p,
            Ok(Framed::Eof) => return Ok(()), // client closed cleanly
            Ok(Framed::Idle) => continue,     // idle poll tick: re-check the stop flag
            Err(e @ ProtocolError::Stalled { .. }) => {
                // Half-open or hostile peer: tell it why (best effort)
                // and close. The stream position is mid-frame, so the
                // connection cannot be resumed.
                if let Ok(frame) = error_response(ErrorCode::Protocol, &e).frame() {
                    let _ = write_frame(&mut stream, &frame);
                }
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let mut release = Release::default();
        let reply = match Request::decode(&payload) {
            Ok(req) => handle_request(req, &reader, &config, &mut pinned, &mut release),
            // A decodable-length frame with garbage inside gets a typed
            // error response; the connection survives.
            Err(e) => error_response(ErrorCode::Protocol, &e).frame(),
        };
        write_frame(&mut stream, &typed_on_oversize(reply)?)?;
        drop(release);
    }
}

/// What a reply was read from, released only once the reply is on the
/// wire. An epoch the sampler has since replaced may hold its last
/// reference here, and freeing what it no longer shares with the live
/// store — more, the faster the sampler runs — is not the client's wait.
#[derive(Default)]
struct Release {
    epoch: Option<Arc<EpochSnapshot>>,
    result: Option<QueryResult>,
}

/// An answer too large for its own wire prefixes (or for one frame)
/// degrades to a typed error reply; only a failure to encode *that* ends
/// the connection.
fn typed_on_oversize(reply: Result<Frame, ProtocolError>) -> Result<Frame, ProtocolError> {
    reply.or_else(|e| error_response(ErrorCode::Exec, &e).frame())
}

/// An error reply whose message and rendering are both `e`'s display form.
fn error_response(code: ErrorCode, e: &dyn std::fmt::Display) -> Response {
    Response::Error(WireError {
        code,
        offset: None,
        message: e.to_string(),
        rendered: e.to_string(),
    })
}

/// Answers one request as an encoded frame. The two large replies — a
/// query's `TABLE` and a registered query's `STATUS` — are written straight
/// from the pinned epoch's own values; everything else is a small
/// [`Response`].
fn handle_request(
    req: Request,
    reader: &EpochReader,
    config: &ServerConfig,
    pinned: &mut Option<Arc<EpochSnapshot>>,
    release: &mut Release,
) -> Result<Frame, ProtocolError> {
    // While the sampler is degraded (or dead), fresh-state requests shed
    // with a retry hint; pinned reads and health probes still answer. A
    // *gracefully stopped* sampler keeps serving its final epoch — only
    // fault states shed.
    let shed_fresh = config.shed_degraded
        && matches!(
            reader.status().state,
            SamplerState::Degraded { .. } | SamplerState::Failed
        );
    let unavailable = Response::Unavailable {
        retry_after_ms: config.retry_after_ms,
    };
    let response = match req {
        Request::Ping => Response::Pong,
        Request::Stats => {
            let s = reader.status();
            Response::Stats(WireStats {
                epoch: s.epoch,
                steps: s.steps,
                samples: s.samples,
                running: s.running,
                degraded: s.state.is_degraded(),
                error: s.error.map(|e| e.to_string()),
            })
        }
        Request::Pin if shed_fresh => unavailable,
        Request::Pin => {
            let snap = reader.pin();
            let meta = meta_of(&snap);
            release.epoch = pinned.replace(snap);
            Response::Pinned { meta }
        }
        Request::Unpin => {
            release.epoch = pinned.take();
            Response::Unpinned
        }
        Request::Query { .. } | Request::Status { .. } if shed_fresh && pinned.is_none() => {
            unavailable
        }
        Request::Query { sql } => {
            // A pinned connection reads its pinned world; otherwise pin
            // the freshest epoch for just this request.
            let snap = release
                .epoch
                .insert(pinned.clone().unwrap_or_else(|| reader.pin()));
            match snap.query(&sql) {
                Ok(result) => {
                    let frame = table_frame(&meta_of(snap), &result);
                    release.result = Some(result);
                    return frame;
                }
                Err(e) => Response::Error(wire_error(e, &sql)),
            }
        }
        Request::Status { name } => {
            let snap = release
                .epoch
                .insert(pinned.clone().unwrap_or_else(|| reader.pin()));
            match snap.status(&name) {
                Some(status) => return status_frame(&meta_of(snap), status),
                None => error_response(
                    ErrorCode::Unavailable,
                    &format_args!("no registered query `{name}`"),
                ),
            }
        }
    };
    response.frame()
}

fn meta_of(snap: &EpochSnapshot) -> EpochMeta {
    EpochMeta {
        epoch: snap.epoch,
        steps: snap.steps,
        samples: snap.samples,
    }
}

/// Maps an evaluation failure to its wire form. Parse errors carry their
/// byte offset and the caret rendering (`ParseError::render` is total and
/// boundary-safe under multibyte input — the satellite bugfix this PR
/// ships alongside the server).
fn wire_error(e: EvaluateError, sql: &str) -> WireError {
    match &e {
        EvaluateError::Query(QueryError::Parse(pe)) => WireError {
            code: ErrorCode::Parse,
            offset: pe.offset.map(|o| o as u64),
            message: pe.message.clone(),
            rendered: pe.render(sql),
        },
        EvaluateError::Query(QueryError::Plan(_)) => WireError {
            code: ErrorCode::Parse,
            offset: None,
            message: e.to_string(),
            rendered: e.to_string(),
        },
        _ => WireError {
            code: ErrorCode::Exec,
            offset: None,
            message: e.to_string(),
            rendered: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unencodable_answer_is_replied_to_with_a_typed_error() {
        for e in [
            ProtocolError::Oversize {
                field: "rows",
                len: usize::MAX,
                max: u64::from(u32::MAX),
            },
            ProtocolError::FrameTooLarge(1 << 40),
        ] {
            let rendered = e.to_string();
            let frame = typed_on_oversize(Err(e)).unwrap();
            match Response::decode(frame.payload()).unwrap() {
                Response::Error(w) => {
                    assert_eq!(w.code, ErrorCode::Exec);
                    assert_eq!(w.message, rendered);
                }
                other => panic!("expected a typed error reply, got {other:?}"),
            }
        }
        // An encodable answer passes through untouched.
        let pong = Response::Pong.frame().unwrap();
        assert_eq!(typed_on_oversize(Ok(pong.clone())).unwrap(), pong);
    }
}
