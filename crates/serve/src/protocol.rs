//! The wire protocol: length-prefixed frames carrying versioned
//! request/response messages.
//!
//! Everything is little-endian and hand-encoded (no serde, no crates.io).
//! The byte-level layout is specified in `docs/FORMAT.md` ("Serving wire
//! format"); this module is its reference implementation, and the
//! round-trip property tests below pin encode ∘ decode = id.
//!
//! Framing: every message travels as `[len: u32 LE][payload: len bytes]`
//! with `len ≤` [`MAX_FRAME_LEN`]. Payloads start `[ver: u8][kind: u8]`;
//! unknown versions and kinds are decode errors, never panics — the
//! server treats a malformed frame as a per-connection error response,
//! not a reason to die.
//!
//! Encoding is one pass into one buffer. A [`Frame`] reserves its length
//! prefix up front, so a message reaches the socket in a single write (one
//! syscall, one segment on a `TCP_NODELAY` connection), and the row encoder
//! reads its values where they already are: [`table_frame`] and
//! [`status_frame`] write the server's two large replies straight from a
//! `QueryResult` and from a pinned epoch's `EpochStatus` (or any
//! [`StatusSource`]), the owned [`Response`] mirror goes through the same
//! encoder, and the bytes are the same either way. An epoch's status
//! stores its rows in tuple order, so a `STATUS` reply sorts nothing.

use fgdb_core::{EpochStatus, QueryStatus};
use fgdb_relational::{CountedSet, QueryResult, Tuple, Value};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u8 = 1;

/// Maximum frame payload (16 MiB): bounds per-connection memory and
/// rejects garbage length prefixes early.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Request opcodes (request payload byte 1).
const OP_QUERY: u8 = 1;
const OP_STATUS: u8 = 2;
const OP_STATS: u8 = 3;
const OP_PING: u8 = 4;
const OP_PIN: u8 = 5;
const OP_UNPIN: u8 = 6;

/// Response kinds (response payload byte 1).
const RESP_TABLE: u8 = 0;
const RESP_STATUS: u8 = 1;
const RESP_STATS: u8 = 2;
const RESP_PONG: u8 = 3;
const RESP_PINNED: u8 = 4;
const RESP_UNPINNED: u8 = 5;
const RESP_UNAVAILABLE: u8 = 6;
const RESP_ERROR: u8 = 255;

/// Value tags.
const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;

/// Wire protocol failure: I/O, framing, or a payload that does not decode.
#[derive(Debug)]
pub enum ProtocolError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame declared more payload than [`MAX_FRAME_LEN`]. Wide enough
    /// to report an oversize *outgoing* payload faithfully — the length
    /// is the error's whole content, so it must not itself truncate.
    FrameTooLarge(u64),
    /// A message being *encoded* has a collection longer than its wire
    /// length prefix can carry. Surfaces as a typed error instead of a
    /// silently wrapped prefix (which would desynchronize the stream and
    /// decode as garbage on the peer).
    Oversize {
        /// What overflowed (e.g. `"string"`, `"rows"`).
        field: &'static str,
        /// Actual element/byte count.
        len: usize,
        /// Largest count the prefix can carry.
        max: u64,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch(u8),
    /// The payload does not decode as a valid message.
    Malformed(String),
    /// The peer sent part of a frame and then stalled past the stall
    /// budget (see [`read_frame_timeout`]) — a half-open or hostile
    /// connection, distinct from an *idle* one that has sent nothing.
    Stalled {
        /// Frame bytes received before the stall (including the length
        /// prefix).
        received: usize,
        /// Total frame bytes the length prefix promised.
        needed: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds MAX_FRAME_LEN")
            }
            ProtocolError::Oversize { field, len, max } => {
                write!(f, "{field} of length {len} exceeds wire maximum {max}")
            }
            ProtocolError::VersionMismatch(v) => {
                write!(f, "peer protocol version {v}, expected {PROTOCOL_VERSION}")
            }
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
            ProtocolError::Stalled { received, needed } => write!(
                f,
                "peer stalled mid-frame: {received} of {needed} bytes arrived"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Ad-hoc SQL against the connection's pinned epoch (or, unpinned,
    /// the freshest epoch at execution time).
    Query {
        /// The SQL text.
        sql: String,
    },
    /// Convergence-tagged status of a registered query, by name.
    Status {
        /// Registration name.
        name: String,
    },
    /// Live sampler counters and health.
    Stats,
    /// Liveness probe.
    Ping,
    /// Pin the freshest epoch for this connection: subsequent queries are
    /// snapshot-isolated against it until `Unpin` (or another `Pin`).
    Pin,
    /// Drop the connection's pinned epoch.
    Unpin,
}

/// Epoch provenance attached to every answer: which published world the
/// answer was computed against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochMeta {
    /// Epoch publication number.
    pub epoch: u64,
    /// MH walk-steps the chain had taken at publication.
    pub steps: u64,
    /// Samples drawn at publication.
    pub samples: u64,
}

/// A value as it travels the wire (owned mirror of
/// [`fgdb_relational::Value`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WireValue {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl From<&Value> for WireValue {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => WireValue::Null,
            Value::Bool(b) => WireValue::Bool(*b),
            Value::Int(i) => WireValue::Int(*i),
            Value::Float(x) => WireValue::Float(x.get()),
            Value::Str(s) => WireValue::Str(s.to_string()),
        }
    }
}

/// One answer row: tuple values plus its multiset count.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRow {
    /// Column values.
    pub values: Vec<WireValue>,
    /// Multiset multiplicity.
    pub count: i64,
}

/// A registered query's convergence-tagged state, as served.
#[derive(Clone, Debug, PartialEq)]
pub struct WireQueryStatus {
    /// Registration name.
    pub name: String,
    /// Registered SQL text.
    pub sql: String,
    /// Output column names.
    pub columns: Vec<String>,
    /// Worst per-tuple split-R̂ over the diagnostic window.
    pub r_hat: f64,
    /// Smallest per-tuple ESS over the window.
    pub min_ess: f64,
    /// Samples in the window at publication.
    pub window_len: u64,
    /// Whether the R̂ gate passed on a warm window.
    pub converged: bool,
    /// The epoch world's deterministic answer.
    pub answer: Vec<WireRow>,
    /// Full-run marginal estimates `(tuple values, probability)`.
    pub marginals: Vec<(Vec<WireValue>, f64)>,
}

/// Live sampler counters, as served.
#[derive(Clone, Debug, PartialEq)]
pub struct WireStats {
    /// Latest published epoch.
    pub epoch: u64,
    /// Total MH walk-steps taken.
    pub steps: u64,
    /// Total samples drawn.
    pub samples: u64,
    /// True while the sampler loop runs.
    pub running: bool,
    /// True while a supervisor is attempting restart-from-recovery.
    /// Already-published epochs stay pinnable and readable; only
    /// freshness is degraded.
    pub degraded: bool,
    /// The error that degraded or killed the loop (rendered; cleared
    /// once a supervisor recovers).
    pub error: Option<String>,
}

/// Machine-readable error category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// SQL failed to parse or lower.
    Parse,
    /// The query planned but execution failed.
    Exec,
    /// The request itself was malformed.
    Protocol,
    /// The requested resource does not exist (e.g. unknown registered
    /// query name).
    Unavailable,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Parse => 1,
            ErrorCode::Exec => 2,
            ErrorCode::Protocol => 3,
            ErrorCode::Unavailable => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            1 => Ok(ErrorCode::Parse),
            2 => Ok(ErrorCode::Exec),
            3 => Ok(ErrorCode::Protocol),
            4 => Ok(ErrorCode::Unavailable),
            other => Err(ProtocolError::Malformed(format!(
                "unknown error code {other}"
            ))),
        }
    }
}

/// A served error: category, optional byte offset into the offending SQL,
/// the bare message, and a human-oriented rendering (for parse errors,
/// the caret diagnostic of `ParseError::render` — boundary-safe under
/// multibyte input).
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Category.
    pub code: ErrorCode,
    /// Byte offset of the offending token in the submitted SQL, when
    /// attributable.
    pub offset: Option<u64>,
    /// Bare error message.
    pub message: String,
    /// Multi-line human-oriented rendering (may equal `message`).
    pub rendered: String,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// An ad-hoc query answer.
    Table {
        /// Provenance of the answering epoch.
        meta: EpochMeta,
        /// Output column names.
        columns: Vec<String>,
        /// Answer rows.
        rows: Vec<WireRow>,
    },
    /// A registered query's status.
    Status {
        /// Provenance of the answering epoch.
        meta: EpochMeta,
        /// The status.
        status: Box<WireQueryStatus>,
    },
    /// Sampler counters.
    Stats(WireStats),
    /// Liveness reply.
    Pong,
    /// The connection pinned this epoch.
    Pinned {
        /// Provenance of the pinned epoch.
        meta: EpochMeta,
    },
    /// The connection dropped its pin.
    Unpinned,
    /// The server is shedding load (connection cap reached, or a fresh
    /// epoch was requested while the sampler is degraded) — retry after
    /// the hinted pause. Overload answers with *this*, never with a hang
    /// or a dropped connection.
    Unavailable {
        /// Suggested client pause before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed.
    Error(WireError),
}

// ------------------------------------------------------------- encoding --

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Validates that `len` fits a `u32` length prefix. The cast used to be a
/// silent `as u32` — a >4 GiB string would wrap the prefix and
/// desynchronize the stream; now it is a typed [`ProtocolError::Oversize`].
fn len_u32(field: &'static str, len: usize) -> Result<u32, ProtocolError> {
    u32::try_from(len).map_err(|_| ProtocolError::Oversize {
        field,
        len,
        max: u64::from(u32::MAX),
    })
}

/// Validates that `len` fits a `u16` count prefix (columns, row values).
fn len_u16(field: &'static str, len: usize) -> Result<u16, ProtocolError> {
    u16::try_from(len).map_err(|_| ProtocolError::Oversize {
        field,
        len,
        max: u64::from(u16::MAX),
    })
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    put_u32(buf, len_u32("string", s.len())?);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// One value as the encoder reads it, borrowed from wherever it lives.
enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

/// A value the row encoder can write in place: the owned wire mirror, or a
/// stored relational value (no intermediate `WireValue`, no string copy).
trait AsValueRef {
    fn as_value_ref(&self) -> ValueRef<'_>;
}

impl AsValueRef for WireValue {
    fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            WireValue::Null => ValueRef::Null,
            WireValue::Bool(b) => ValueRef::Bool(*b),
            WireValue::Int(i) => ValueRef::Int(*i),
            WireValue::Float(x) => ValueRef::Float(*x),
            WireValue::Str(s) => ValueRef::Str(s),
        }
    }
}

impl AsValueRef for Value {
    fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(x) => ValueRef::Float(x.get()),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

fn put_values<V: AsValueRef>(buf: &mut Vec<u8>, vs: &[V]) -> Result<(), ProtocolError> {
    put_u16(buf, len_u16("row values", vs.len())?);
    for v in vs {
        match v.as_value_ref() {
            ValueRef::Null => buf.push(VAL_NULL),
            ValueRef::Bool(b) => {
                buf.push(VAL_BOOL);
                buf.push(u8::from(b));
            }
            ValueRef::Int(i) => {
                buf.push(VAL_INT);
                put_i64(buf, i);
            }
            ValueRef::Float(x) => {
                buf.push(VAL_FLOAT);
                put_f64(buf, x);
            }
            ValueRef::Str(s) => {
                buf.push(VAL_STR);
                put_str(buf, s)?;
            }
        }
    }
    Ok(())
}

fn put_meta(buf: &mut Vec<u8>, m: &EpochMeta) {
    put_u64(buf, m.epoch);
    put_u64(buf, m.steps);
    put_u64(buf, m.samples);
}

/// Writes `(row values, multiplicity)` pairs as the wire's row list.
fn put_rows<'a, V: AsValueRef + 'a>(
    buf: &mut Vec<u8>,
    rows: impl ExactSizeIterator<Item = (&'a [V], i64)>,
) -> Result<(), ProtocolError> {
    put_u32(buf, len_u32("rows", rows.len())?);
    for (values, count) in rows {
        put_i64(buf, count);
        put_values(buf, values)?;
    }
    Ok(())
}

fn put_columns<S: AsRef<str>>(buf: &mut Vec<u8>, columns: &[S]) -> Result<(), ProtocolError> {
    put_u16(buf, len_u16("columns", columns.len())?);
    for c in columns {
        put_str(buf, c.as_ref())?;
    }
    Ok(())
}

/// The body of a `TABLE` response, after `[ver][kind]`.
fn put_table<'a, S: AsRef<str>, V: AsValueRef + 'a>(
    buf: &mut Vec<u8>,
    meta: &EpochMeta,
    columns: &[S],
    rows: impl ExactSizeIterator<Item = (&'a [V], i64)>,
) -> Result<(), ProtocolError> {
    put_meta(buf, meta);
    put_columns(buf, columns)?;
    put_rows(buf, rows)
}

/// The scalar fields of a `STATUS` response.
pub struct StatusHead<'a, S> {
    /// Registration name.
    pub name: &'a str,
    /// The registered SQL text.
    pub sql: &'a str,
    /// Output column names.
    pub columns: &'a [S],
    /// Worst per-tuple split-R̂ over the diagnostic window.
    pub r_hat: f64,
    /// Smallest per-tuple effective sample size over the window.
    pub min_ess: f64,
    /// Samples in the diagnostic window.
    pub window_len: u64,
    /// The convergence tag.
    pub converged: bool,
}

/// A registered query's status as the `STATUS` encoder reads it: the
/// scalar fields, then the answer and the marginal rows, each in tuple
/// order. A pinned epoch's [`EpochStatus`] stores its rows in that order;
/// an owned [`QueryStatus`] sorts its answer set to produce it.
pub trait StatusSource {
    /// The scalar fields.
    fn head(&self) -> StatusHead<'_, Arc<str>>;
    /// `(tuple values, multiplicity)` of the answer, in tuple order.
    fn answer_rows(&self) -> impl ExactSizeIterator<Item = (&[Value], i64)>;
    /// `(tuple values, membership probability)`, in tuple order.
    fn marginal_rows(&self) -> impl ExactSizeIterator<Item = (&[Value], f64)>;
}

impl StatusSource for EpochStatus {
    fn head(&self) -> StatusHead<'_, Arc<str>> {
        StatusHead {
            name: &self.name,
            sql: &self.sql,
            columns: &self.columns,
            r_hat: self.r_hat,
            min_ess: self.min_ess,
            window_len: self.window_len,
            converged: self.converged,
        }
    }

    fn answer_rows(&self) -> impl ExactSizeIterator<Item = (&[Value], i64)> {
        self.answer()
    }

    fn marginal_rows(&self) -> impl ExactSizeIterator<Item = (&[Value], f64)> {
        self.marginals()
    }
}

impl StatusSource for QueryStatus {
    fn head(&self) -> StatusHead<'_, Arc<str>> {
        StatusHead {
            name: &self.name,
            sql: &self.sql,
            columns: &self.columns,
            r_hat: self.r_hat,
            min_ess: self.min_ess,
            window_len: self.window_len,
            converged: self.converged,
        }
    }

    fn answer_rows(&self) -> impl ExactSizeIterator<Item = (&[Value], i64)> {
        sorted_rows(&self.answer)
            .into_iter()
            .map(|(t, c)| (t.values(), c))
    }

    fn marginal_rows(&self) -> impl ExactSizeIterator<Item = (&[Value], f64)> {
        self.marginals.iter().map(|(t, p)| (t.values(), *p))
    }
}

/// The body of a `STATUS` response, after `[ver][kind]`.
fn put_status<'a, S: AsRef<str>, V: AsValueRef + 'a>(
    buf: &mut Vec<u8>,
    meta: &EpochMeta,
    head: &StatusHead<'_, S>,
    answer: impl ExactSizeIterator<Item = (&'a [V], i64)>,
    marginals: impl ExactSizeIterator<Item = (&'a [V], f64)>,
) -> Result<(), ProtocolError> {
    put_meta(buf, meta);
    put_str(buf, head.name)?;
    put_str(buf, head.sql)?;
    put_columns(buf, head.columns)?;
    put_f64(buf, head.r_hat);
    put_f64(buf, head.min_ess);
    put_u64(buf, head.window_len);
    buf.push(u8::from(head.converged));
    put_rows(buf, answer)?;
    put_u32(buf, len_u32("marginals", marginals.len())?);
    for (values, p) in marginals {
        put_values(buf, values)?;
        put_f64(buf, p);
    }
    Ok(())
}

/// A multiset's entries in tuple order — the order every served answer
/// travels in — borrowed.
fn sorted_rows(rows: &CountedSet) -> Vec<(&Tuple, i64)> {
    let mut v: Vec<(&Tuple, i64)> = rows.iter().collect();
    v.sort_unstable();
    v
}

/// The `TABLE` reply to an ad-hoc query, encoded straight from the
/// executor's result: byte for byte the frame of the equivalent
/// [`Response::Table`], without building one.
///
/// # Errors
/// [`ProtocolError::Oversize`] / [`ProtocolError::FrameTooLarge`], exactly
/// as [`Response::frame`].
pub fn table_frame(meta: &EpochMeta, result: &QueryResult) -> Result<Frame, ProtocolError> {
    let mut buf = Frame::begin(RESP_TABLE);
    let rows = sorted_rows(&result.rows);
    put_table(
        &mut buf,
        meta,
        &result.columns,
        rows.iter().map(|(t, c)| (t.values(), *c)),
    )?;
    Frame::finish(buf)
}

/// The `STATUS` reply for a registered query, encoded straight from its
/// status — on the server, the pinned epoch's [`EpochStatus`], walked in
/// the order it is stored: byte for byte the frame of the equivalent
/// [`Response::Status`], without building one.
///
/// # Errors
/// As [`table_frame`].
pub fn status_frame<S: StatusSource + ?Sized>(
    meta: &EpochMeta,
    status: &S,
) -> Result<Frame, ProtocolError> {
    let mut buf = Frame::begin(RESP_STATUS);
    put_status(
        &mut buf,
        meta,
        &status.head(),
        status.answer_rows(),
        status.marginal_rows(),
    )?;
    Frame::finish(buf)
}

impl Request {
    /// Encodes the request as one frame payload.
    ///
    /// # Errors
    /// [`ProtocolError::Oversize`] when a field exceeds its wire length
    /// prefix (e.g. SQL text over `u32::MAX` bytes).
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        self.frame().map(|f| f.payload().to_vec())
    }

    /// Encodes the request as one [`Frame`], ready for [`write_frame`].
    ///
    /// # Errors
    /// As [`Request::encode`], plus [`ProtocolError::FrameTooLarge`] when
    /// the payload exceeds [`MAX_FRAME_LEN`].
    pub fn frame(&self) -> Result<Frame, ProtocolError> {
        let mut buf = Frame::begin(match self {
            Request::Query { .. } => OP_QUERY,
            Request::Status { .. } => OP_STATUS,
            Request::Stats => OP_STATS,
            Request::Ping => OP_PING,
            Request::Pin => OP_PIN,
            Request::Unpin => OP_UNPIN,
        });
        match self {
            Request::Query { sql: text } | Request::Status { name: text } => {
                put_str(&mut buf, text)?;
            }
            Request::Stats | Request::Ping | Request::Pin | Request::Unpin => {}
        }
        Frame::finish(buf)
    }

    /// Decodes one frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(payload);
        r.expect_version()?;
        let op = r.u8()?;
        let req = match op {
            OP_QUERY => Request::Query { sql: r.str()? },
            OP_STATUS => Request::Status { name: r.str()? },
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_PIN => Request::Pin,
            OP_UNPIN => Request::Unpin,
            other => {
                return Err(ProtocolError::Malformed(format!("unknown opcode {other}")));
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    ///
    /// # Errors
    /// [`ProtocolError::Oversize`] when a collection exceeds its wire
    /// length prefix (a >`u32::MAX`-row answer, a >`u16::MAX`-column
    /// schema, …). The server maps this to a `RESP_ERROR` reply rather
    /// than shipping a wrapped prefix the client would misparse.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        self.frame().map(|f| f.payload().to_vec())
    }

    /// Encodes the response as one [`Frame`], ready for [`write_frame`].
    ///
    /// # Errors
    /// As [`Response::encode`], plus [`ProtocolError::FrameTooLarge`] when
    /// the payload exceeds [`MAX_FRAME_LEN`].
    pub fn frame(&self) -> Result<Frame, ProtocolError> {
        let mut buf = Frame::begin(match self {
            Response::Table { .. } => RESP_TABLE,
            Response::Status { .. } => RESP_STATUS,
            Response::Stats(_) => RESP_STATS,
            Response::Pong => RESP_PONG,
            Response::Pinned { .. } => RESP_PINNED,
            Response::Unpinned => RESP_UNPINNED,
            Response::Unavailable { .. } => RESP_UNAVAILABLE,
            Response::Error(_) => RESP_ERROR,
        });
        match self {
            Response::Table {
                meta,
                columns,
                rows,
            } => put_table(
                &mut buf,
                meta,
                columns,
                rows.iter().map(|r| (r.values.as_slice(), r.count)),
            )?,
            Response::Status { meta, status } => put_status(
                &mut buf,
                meta,
                &StatusHead {
                    name: &status.name,
                    sql: &status.sql,
                    columns: &status.columns,
                    r_hat: status.r_hat,
                    min_ess: status.min_ess,
                    window_len: status.window_len,
                    converged: status.converged,
                },
                status.answer.iter().map(|r| (r.values.as_slice(), r.count)),
                status.marginals.iter().map(|(vs, p)| (vs.as_slice(), *p)),
            )?,
            Response::Stats(s) => {
                put_u64(&mut buf, s.epoch);
                put_u64(&mut buf, s.steps);
                put_u64(&mut buf, s.samples);
                buf.push(u8::from(s.running));
                buf.push(u8::from(s.degraded));
                match &s.error {
                    None => buf.push(0),
                    Some(e) => {
                        buf.push(1);
                        put_str(&mut buf, e)?;
                    }
                }
            }
            Response::Pong | Response::Unpinned => {}
            Response::Pinned { meta } => put_meta(&mut buf, meta),
            Response::Unavailable { retry_after_ms } => put_u64(&mut buf, *retry_after_ms),
            Response::Error(e) => {
                buf.push(e.code.to_byte());
                match e.offset {
                    None => buf.push(0),
                    Some(o) => {
                        buf.push(1);
                        put_u64(&mut buf, o);
                    }
                }
                put_str(&mut buf, &e.message)?;
                put_str(&mut buf, &e.rendered)?;
            }
        }
        Frame::finish(buf)
    }

    /// Decodes one frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(payload);
        r.expect_version()?;
        let kind = r.u8()?;
        let resp = match kind {
            RESP_TABLE => Response::Table {
                meta: r.meta()?,
                columns: r.columns()?,
                rows: r.rows()?,
            },
            RESP_STATUS => {
                let meta = r.meta()?;
                let name = r.str()?;
                let sql = r.str()?;
                let columns = r.columns()?;
                let r_hat = r.f64()?;
                let min_ess = r.f64()?;
                let window_len = r.u64()?;
                let converged = r.bool()?;
                let answer = r.rows()?;
                let n = r.u32()? as usize;
                let mut marginals = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let values = r.values()?;
                    let p = r.f64()?;
                    marginals.push((values, p));
                }
                Response::Status {
                    meta,
                    status: Box::new(WireQueryStatus {
                        name,
                        sql,
                        columns,
                        r_hat,
                        min_ess,
                        window_len,
                        converged,
                        answer,
                        marginals,
                    }),
                }
            }
            RESP_STATS => Response::Stats(WireStats {
                epoch: r.u64()?,
                steps: r.u64()?,
                samples: r.u64()?,
                running: r.bool()?,
                degraded: r.bool()?,
                error: if r.bool()? { Some(r.str()?) } else { None },
            }),
            RESP_PONG => Response::Pong,
            RESP_PINNED => Response::Pinned { meta: r.meta()? },
            RESP_UNPINNED => Response::Unpinned,
            RESP_UNAVAILABLE => Response::Unavailable {
                retry_after_ms: r.u64()?,
            },
            RESP_ERROR => Response::Error(WireError {
                code: ErrorCode::from_byte(r.u8()?)?,
                offset: if r.bool()? { Some(r.u64()?) } else { None },
                message: r.str()?,
                rendered: r.str()?,
            }),
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown response kind {other}"
                )));
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

// ------------------------------------------------------------- decoding --

/// Bounds-checked cursor over one frame payload. Every read is total:
/// truncated or trailing bytes surface as [`ProtocolError::Malformed`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let (out, end) = self
            .pos
            .checked_add(n)
            .and_then(|end| Some((self.buf.get(self.pos..end)?, end)))
            .ok_or_else(|| {
                ProtocolError::Malformed(format!(
                    "payload truncated: wanted {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        self.pos = end;
        Ok(out)
    }

    /// Takes exactly `N` bytes as a fixed-size array — the checked form of
    /// `take(N)?.try_into().unwrap()`.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s)
            .map_err(|_| ProtocolError::Malformed(format!("payload truncated: wanted {N} bytes")))
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        self.take_n().map(|[b]| b)
    }

    fn bool(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtocolError::Malformed(format!(
                "invalid bool byte {other}"
            ))),
        }
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take_n()?))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(i64::from_le_bytes(self.take_n()?))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take_n()?))
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not valid UTF-8".into()))
    }

    fn value(&mut self) -> Result<WireValue, ProtocolError> {
        match self.u8()? {
            VAL_NULL => Ok(WireValue::Null),
            VAL_BOOL => Ok(WireValue::Bool(self.bool()?)),
            VAL_INT => Ok(WireValue::Int(self.i64()?)),
            VAL_FLOAT => Ok(WireValue::Float(self.f64()?)),
            VAL_STR => Ok(WireValue::Str(self.str()?)),
            other => Err(ProtocolError::Malformed(format!(
                "unknown value tag {other}"
            ))),
        }
    }

    fn values(&mut self) -> Result<Vec<WireValue>, ProtocolError> {
        let n = self.u16()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    fn meta(&mut self) -> Result<EpochMeta, ProtocolError> {
        Ok(EpochMeta {
            epoch: self.u64()?,
            steps: self.u64()?,
            samples: self.u64()?,
        })
    }

    fn columns(&mut self) -> Result<Vec<String>, ProtocolError> {
        let n = self.u16()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }

    fn rows(&mut self) -> Result<Vec<WireRow>, ProtocolError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let count = self.i64()?;
            let values = self.values()?;
            out.push(WireRow { values, count });
        }
        Ok(out)
    }

    fn expect_version(&mut self) -> Result<(), ProtocolError> {
        let v = self.u8()?;
        if v != PROTOCOL_VERSION {
            return Err(ProtocolError::VersionMismatch(v));
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// -------------------------------------------------------------- framing --

/// One encoded message as it travels: `[len: u32 LE][payload]` in a single
/// buffer. The encoders reserve the four prefix bytes before writing the
/// payload and patch them at the end, so framing costs no copy and
/// [`write_frame`] hands the socket one contiguous write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame(Vec<u8>);

/// Bytes reserved at the head of a [`Frame`] for its length prefix.
const FRAME_PREFIX: usize = 4;

impl Frame {
    /// A frame under construction: the reserved prefix, then the payload's
    /// `[ver][kind]` header.
    fn begin(kind: u8) -> Vec<u8> {
        let mut buf = vec![0u8; FRAME_PREFIX];
        buf.push(PROTOCOL_VERSION);
        buf.push(kind);
        buf
    }

    /// Seals a buffer started by [`Frame::begin`]: checks the payload
    /// against [`MAX_FRAME_LEN`] and writes its length into the prefix.
    fn finish(mut buf: Vec<u8>) -> Result<Frame, ProtocolError> {
        // The error must carry the true length: an `as u32` here could
        // truncate a >4 GiB payload's reported size to something small
        // (even an in-budget-looking number).
        let payload_len = buf.len().saturating_sub(FRAME_PREFIX);
        let len = u32::try_from(payload_len)
            .ok()
            .filter(|&l| l <= MAX_FRAME_LEN)
            .ok_or(ProtocolError::FrameTooLarge(payload_len as u64))?;
        match buf.first_chunk_mut::<FRAME_PREFIX>() {
            Some(prefix) => *prefix = len.to_le_bytes(),
            None => return Err(ProtocolError::Malformed("frame lacks its prefix".into())),
        }
        Ok(Frame(buf))
    }

    /// The message payload (what [`Request::decode`] / [`Response::decode`]
    /// take), without the length prefix.
    pub fn payload(&self) -> &[u8] {
        self.0.get(FRAME_PREFIX..).unwrap_or(&[])
    }

    /// The whole frame, length prefix included, as written to the socket.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Writes one frame with a single `write_all` — length and payload leave in
/// one syscall (and, under `TCP_NODELAY`, one segment; the peer wakes once,
/// for the whole message, not first for four length bytes).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    w.write_all(frame.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` signals a clean EOF *before* any length
/// byte arrived (the peer closed between messages); EOF mid-frame is an
/// error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        // lint:allow(panic, filled < 4 by the loop condition)
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ProtocolError::Malformed("EOF inside frame length".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(u64::from(len)));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What one timeout-aware frame read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Framed {
    /// One complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF before any byte of a frame arrived.
    Eof,
    /// The socket's read timeout expired before any byte of a frame
    /// arrived: the connection is idle, not broken. Poll again.
    Idle,
}

/// Reads one frame from a stream whose read timeout is set, separating
/// the three cases a timeout can mean:
///
/// * timeout **before any byte** of a frame → [`Framed::Idle`] — the
///   peer simply has nothing to say; callers poll their stop flag and
///   try again;
/// * timeout **mid-frame**, with `stall_budget` not yet exhausted →
///   keep reading (a slow peer is allowed to dribble);
/// * stalled mid-frame **past the budget** → [`ProtocolError::Stalled`]
///   — a half-open or hostile peer; the connection must be closed,
///   because resuming the poll loop here would desynchronize the stream
///   (the next read would misparse leftover payload bytes as a length
///   prefix).
///
/// The plain [`read_frame`] treats every timeout as an error, which is
/// right for a client awaiting a response but wrong for a server poll
/// loop; the server reads through this instead.
pub fn read_frame_timeout(
    r: &mut impl Read,
    stall_budget: Duration,
) -> Result<Framed, ProtocolError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    // The stall clock starts at the first byte of the frame; an idle
    // connection never starts it.
    let mut started: Option<Instant> = None;
    while filled < 4 {
        // lint:allow(panic, filled < 4 by the loop condition)
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(Framed::Eof);
                }
                return Err(ProtocolError::Malformed("EOF inside frame length".into()));
            }
            Ok(n) => {
                filled += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                match started {
                    None => return Ok(Framed::Idle),
                    Some(t0) if t0.elapsed() >= stall_budget => {
                        return Err(ProtocolError::Stalled {
                            received: filled,
                            needed: 4,
                        });
                    }
                    Some(_) => continue,
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(u64::from(len)));
    }
    let started = started.unwrap_or_else(Instant::now);
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < len as usize {
        // lint:allow(panic, got < len by the loop condition)
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(ProtocolError::Malformed("EOF inside frame payload".into()));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started.elapsed() >= stall_budget {
                    return Err(ProtocolError::Stalled {
                        received: 4 + got,
                        needed: 4 + len as usize,
                    });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Framed::Frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame around an arbitrary payload.
    fn framed(payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut buf = vec![0u8; FRAME_PREFIX];
        buf.extend_from_slice(payload);
        Frame::finish(buf)
    }

    fn roundtrip_request(req: Request) {
        let enc = req.encode().unwrap();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let enc = resp.encode().unwrap();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    fn meta() -> EpochMeta {
        EpochMeta {
            epoch: 3,
            steps: 12_000,
            samples: 120,
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Query {
            sql: "SELECT string FROM TOKEN WHERE label = 'B-PER'".into(),
        });
        roundtrip_request(Request::Query {
            sql: "SELECT '日本語' FROM TOKEN ☃".into(),
        });
        roundtrip_request(Request::Status { name: "q1".into() });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Pin);
        roundtrip_request(Request::Unpin);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Table {
            meta: meta(),
            columns: vec!["string".into(), "n".into()],
            rows: vec![
                WireRow {
                    values: vec![
                        WireValue::Str("Bill".into()),
                        WireValue::Int(2),
                        WireValue::Float(0.25),
                        WireValue::Bool(true),
                        WireValue::Null,
                    ],
                    count: 2,
                },
                WireRow {
                    values: vec![WireValue::Str("日本".into())],
                    count: -1,
                },
            ],
        });
        roundtrip_response(Response::Status {
            meta: meta(),
            status: Box::new(WireQueryStatus {
                name: "q1".into(),
                sql: "SELECT string FROM TOKEN".into(),
                columns: vec!["string".into()],
                r_hat: 1.013,
                min_ess: 47.5,
                window_len: 256,
                converged: true,
                answer: vec![WireRow {
                    values: vec![WireValue::Str("x".into())],
                    count: 1,
                }],
                marginals: vec![(vec![WireValue::Str("x".into())], 0.875)],
            }),
        });
        roundtrip_response(Response::Stats(WireStats {
            epoch: 9,
            steps: 100,
            samples: 10,
            running: true,
            degraded: false,
            error: None,
        }));
        roundtrip_response(Response::Stats(WireStats {
            epoch: 9,
            steps: 100,
            samples: 10,
            running: false,
            degraded: true,
            error: Some("chain died".into()),
        }));
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Pinned { meta: meta() });
        roundtrip_response(Response::Unpinned);
        roundtrip_response(Response::Unavailable {
            retry_after_ms: 250,
        });
        roundtrip_response(Response::Error(WireError {
            code: ErrorCode::Parse,
            offset: Some(17),
            message: "expected `FROM`".into(),
            rendered: "expected `FROM` (at byte 17)\nSELECT x\n       ^".into(),
        }));
        roundtrip_response(Response::Error(WireError {
            code: ErrorCode::Unavailable,
            offset: None,
            message: "no registered query `zz`".into(),
            rendered: "no registered query `zz`".into(),
        }));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_errors() {
        let enc = Request::Query {
            sql: "SELECT 1".into(),
        }
        .encode()
        .unwrap();
        for cut in 0..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err());
        // Garbage after a valid response header fails too.
        let mut resp = Response::Pong.encode().unwrap();
        resp.push(7);
        assert!(Response::decode(&resp).is_err());
    }

    #[test]
    fn version_and_opcode_mismatches_are_typed() {
        let mut enc = Request::Ping.encode().unwrap();
        enc[0] = 99;
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtocolError::VersionMismatch(99))
        ));
        let mut enc = Request::Ping.encode().unwrap();
        enc[1] = 200;
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversize_lengths_are_typed_errors_not_wrapped_prefixes() {
        // The length checks are the validation point: a 2^32-byte string
        // cannot be allocated in a test, so the boundary is exercised on
        // the helpers the encoders call.
        assert_eq!(len_u32("string", u32::MAX as usize).unwrap(), u32::MAX);
        match len_u32("string", u32::MAX as usize + 1) {
            Err(ProtocolError::Oversize { field, len, max }) => {
                assert_eq!(field, "string");
                assert_eq!(len, u32::MAX as usize + 1);
                assert_eq!(max, u64::from(u32::MAX));
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
        assert_eq!(len_u16("columns", u16::MAX as usize).unwrap(), u16::MAX);
        assert!(matches!(
            len_u16("columns", u16::MAX as usize + 1),
            Err(ProtocolError::Oversize {
                field: "columns",
                ..
            })
        ));

        // End to end at the (allocatable) u16 prefixes: 65 536 values
        // would previously have wrapped to a count prefix of 0 — the
        // peer would decode an empty row and misparse everything after.
        let row = WireRow {
            values: vec![WireValue::Null; u16::MAX as usize + 1],
            count: 1,
        };
        let resp = Response::Table {
            meta: meta(),
            columns: vec!["c".into()],
            rows: vec![row],
        };
        assert!(matches!(
            resp.encode(),
            Err(ProtocolError::Oversize {
                field: "row values",
                ..
            })
        ));
        let resp = Response::Table {
            meta: meta(),
            columns: vec![String::new(); u16::MAX as usize + 1],
            rows: vec![],
        };
        assert!(matches!(
            resp.encode(),
            Err(ProtocolError::Oversize {
                field: "columns",
                ..
            })
        ));
    }

    #[test]
    fn an_oversize_frame_reports_its_true_length_and_cannot_be_built() {
        // One byte past the 16 MiB budget: the error must carry the real
        // length (the old `as u32` could misreport a >4 GiB payload), and
        // no `Frame` exists to be written.
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        match framed(&payload) {
            Err(ProtocolError::FrameTooLarge(n)) => {
                assert_eq!(n, u64::from(MAX_FRAME_LEN) + 1);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(framed(&payload[1..]).is_ok(), "exactly the budget fits");
    }

    /// A writer that records each `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_reaches_the_socket_in_one_write() {
        let req = Request::Query {
            sql: "SELECT 1".into(),
        };
        let frame = req.frame().unwrap();
        let mut w = CountingWriter::default();
        write_frame(&mut w, &frame).unwrap();
        assert_eq!(w.writes, vec![frame.as_bytes().len()]);
        // Layout unchanged: the 4-byte LE length, then exactly `encode()`.
        let payload = req.encode().unwrap();
        assert_eq!(&w.bytes[..4], &(payload.len() as u32).to_le_bytes()[..]);
        assert_eq!(&w.bytes[4..], &payload[..]);
        assert_eq!(frame.payload(), &payload[..]);
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &framed(b"hello").unwrap()).unwrap();
        write_frame(&mut buf, &framed(b"").unwrap()).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        // A hostile length prefix is rejected without allocating it.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::FrameTooLarge(_))
        ));

        // EOF mid-frame is an error, not a silent None.
        let mut partial = Vec::new();
        write_frame(&mut partial, &framed(b"abcdef").unwrap()).unwrap();
        partial.truncate(6);
        let mut cursor = std::io::Cursor::new(partial);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A peer that serves `data` and then stalls forever (every further
    /// read times out, as on a socket with a read timeout).
    struct StallingPeer {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for StallingPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "stalled",
                ));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_reads_distinguish_idle_eof_and_stall() {
        let budget = Duration::from_millis(5);

        // Nothing sent at all: idle, poll again — NOT an error.
        let mut idle = StallingPeer {
            data: vec![],
            pos: 0,
        };
        assert_eq!(read_frame_timeout(&mut idle, budget).unwrap(), Framed::Idle);

        // A whole frame followed by silence: the frame, then idle.
        let mut buf = Vec::new();
        write_frame(&mut buf, &framed(b"hello").unwrap()).unwrap();
        let mut peer = StallingPeer { data: buf, pos: 0 };
        assert_eq!(
            read_frame_timeout(&mut peer, budget).unwrap(),
            Framed::Frame(b"hello".to_vec())
        );
        assert_eq!(read_frame_timeout(&mut peer, budget).unwrap(), Framed::Idle);

        // Clean EOF before any byte.
        let mut eof = std::io::Cursor::new(Vec::new());
        assert_eq!(read_frame_timeout(&mut eof, budget).unwrap(), Framed::Eof);

        // Length prefix then stall: typed Stalled, never Idle — treating
        // this as an idle poll tick is the desync bug this API fixes.
        let mut buf = Vec::new();
        write_frame(&mut buf, &framed(b"abcdef").unwrap()).unwrap();
        buf.truncate(7); // 4-byte length + 3 payload bytes, then silence
        let mut peer = StallingPeer { data: buf, pos: 0 };
        match read_frame_timeout(&mut peer, budget) {
            Err(ProtocolError::Stalled { received, needed }) => {
                assert_eq!(received, 7);
                assert_eq!(needed, 10);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }

        // Two bytes of the length prefix itself, then silence.
        let mut peer = StallingPeer {
            data: vec![6, 0],
            pos: 0,
        };
        match read_frame_timeout(&mut peer, budget) {
            Err(ProtocolError::Stalled { received, needed }) => {
                assert_eq!(received, 2);
                assert_eq!(needed, 4);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }
}
