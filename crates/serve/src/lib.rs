//! `fgdb-serve`: the TCP serving layer over a live sampler.
//!
//! The paper's system serves probabilistic queries *while* MCMC inference
//! runs continuously; `fgdb-core`'s [`serving`](fgdb_core::serving) module
//! provides the concurrency core (a [`LiveSampler`](fgdb_core::LiveSampler)
//! publishing snapshot-isolated [`EpochSnapshot`](fgdb_core::EpochSnapshot)s
//! through cheap-clone [`EpochReader`](fgdb_core::EpochReader) handles).
//! This crate puts a network in front of it, hand-rolled on `std::net` —
//! no external dependencies:
//!
//! * [`protocol`] — the length-prefixed wire format: `[len: u32 LE]`
//!   frames whose payloads carry versioned request/response messages
//!   (SQL text in, convergence-tagged answer tables out). The full byte
//!   layout is specified in `docs/FORMAT.md`.
//! * [`server`] — [`Server`]: a `TcpListener` accept loop plus one worker
//!   thread per connection. Each connection may *pin* an epoch (`PIN`),
//!   after which every query it sends runs against that pinned world —
//!   snapshot isolation across requests — or run unpinned, where each
//!   query pins the freshest epoch for its own duration. Overload sheds
//!   with typed `Unavailable{retry_after_ms}` frames (connection cap,
//!   degraded sampler) instead of queueing or hanging. Graceful
//!   shutdown drains workers via a stop flag and a self-connect.
//! * [`client`] — [`Client`]: the blocking client used by the tests, the
//!   load generator in `fgdb-bench`, and the `serving` example. Socket
//!   timeouts surface as typed `Timeout` errors; `query_with_retry`
//!   backs off exponentially with deterministic jitter, honoring server
//!   retry hints.
//!
//! Queries never touch the sampler's own state: the server holds only an
//! `EpochReader`, so a slow scan (or a slow client) costs inference
//! nothing beyond the CPU it burns.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, TableAnswer};
pub use protocol::{
    EpochMeta, ErrorCode, Frame, Framed, ProtocolError, Request, Response, StatusHead,
    StatusSource, WireError, WireQueryStatus, WireRow, WireStats, WireValue, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
