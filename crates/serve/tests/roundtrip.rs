//! End-to-end serving test: a live sampler behind a real TCP server,
//! exercised by real clients over localhost.
//!
//! Covers the full request surface (ping, stats, query, status, pin /
//! unpin), the snapshot-isolation contract at the wire level, error
//! rendering (parse errors arrive with their caret diagnostic), and
//! graceful shutdown of both the server and the sampler — and, without a
//! socket, that the server's borrowed-value reply encoder writes the bytes
//! the owned `Response` mirror (and the previous build) writes.

use fgdb_core::fixtures::biased_token_pdb;
use fgdb_core::{LiveSampler, ServingConfig};
use fgdb_relational::parser::paper_sql;
use fgdb_serve::{Client, ClientError, ErrorCode, Server};

const N_TOKENS: usize = 24;

fn serving_config() -> ServingConfig {
    ServingConfig {
        thinning: 20,
        publish_every: 2,
        window: 64,
        ..Default::default()
    }
}

/// Spins up a sampler + server pair; returns both plus the address.
fn start_stack() -> (
    LiveSampler<std::sync::Arc<fgdb_graph::FactorGraph>>,
    Server,
    String,
) {
    let pdb = biased_token_pdb(N_TOKENS, 6, 0xD1CE);
    let q1 = paper_sql::query1("TOKEN");
    let q4 = paper_sql::query4("TOKEN");
    let sampler = LiveSampler::spawn(
        pdb,
        &[("q1", q1.as_str()), ("q4", q4.as_str())],
        serving_config(),
    )
    .expect("spawn live sampler");
    let server = Server::start(sampler.reader(), "127.0.0.1:0").expect("bind server");
    let addr = server.addr().to_string();
    (sampler, server, addr)
}

#[test]
fn full_request_surface_roundtrips() {
    let (sampler, server, addr) = start_stack();
    let mut client = Client::connect(&addr).expect("connect");

    client.ping().expect("ping");

    let stats = client.stats().expect("stats");
    assert!(stats.running, "sampler should be live while serving");
    assert!(stats.error.is_none());

    // Ad-hoc SQL answers from some epoch, with provenance attached.
    let answer = client
        .query("SELECT doc_id, COUNT(*) FROM TOKEN GROUP BY doc_id")
        .expect("grouped count");
    assert_eq!(answer.columns.len(), 2);
    let total: i64 = answer.rows.iter().map(|r| r.count).sum();
    assert!(total > 0);

    // Registered-query status carries convergence diagnostics.
    let (meta, status) = client.status("q1").expect("status q1");
    assert_eq!(status.name, "q1");
    assert!(status.r_hat.is_finite());
    assert!(
        status.window_len >= 1,
        "epoch 0 already recorded one sample"
    );
    assert!(
        meta.steps >= meta.samples * serving_config().thinning as u64,
        "each published sample costs a full thinning interval"
    );

    // Unknown registered query is a typed Unavailable error.
    let err = client.status("nope").expect_err("unknown name");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Unavailable),
        other => panic!("expected server error, got {other}"),
    }

    server.stop();
    sampler.stop().expect("sampler returns the pdb");
}

#[test]
fn parse_errors_arrive_rendered_with_caret() {
    let (sampler, server, addr) = start_stack();
    let mut client = Client::connect(&addr).expect("connect");

    // Multibyte garbage before the error point: offset must be usable and
    // the rendering must include the caret line.
    let err = client
        .query("SELECT 'é' FROM ☃ WHERE")
        .expect_err("bad sql");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Parse);
            assert!(
                e.rendered.contains('^'),
                "rendered diagnostic should carry the caret: {}",
                e.rendered
            );
        }
        other => panic!("expected parse error, got {other}"),
    }

    server.stop();
    sampler.stop().expect("clean sampler stop");
}

#[test]
fn pinned_connections_are_snapshot_isolated() {
    let (sampler, server, addr) = start_stack();
    let mut client = Client::connect(&addr).expect("connect");
    let sql = "SELECT label, COUNT(*) FROM TOKEN GROUP BY label";

    let pinned_at = client.pin().expect("pin");
    let first = client.query(sql).expect("pinned query");
    assert_eq!(first.meta.epoch, pinned_at.epoch);

    // Let the sampler publish newer epochs, then re-ask: the pinned
    // connection must keep seeing the identical world.
    let target = pinned_at.epoch + 3;
    while sampler.reader().status().epoch < target {
        std::thread::yield_now();
    }
    for _ in 0..4 {
        let again = client.query(sql).expect("repinned query");
        assert_eq!(again.meta.epoch, pinned_at.epoch, "pin must hold the epoch");
        assert_eq!(again.rows, first.rows, "pinned answers must not drift");
    }
    // The label partition of a pinned world covers every token exactly
    // once (COUNT(*) is the second output column).
    let total: i64 = first
        .rows
        .iter()
        .map(|r| match r.values[1] {
            fgdb_serve::WireValue::Int(n) => n,
            ref other => panic!("COUNT(*) should be an int, got {other:?}"),
        })
        .sum();
    assert_eq!(total, N_TOKENS as i64);

    // Unpinning resumes freshest-epoch reads.
    client.unpin().expect("unpin");
    let fresh = client.query(sql).expect("fresh query");
    assert!(fresh.meta.epoch >= target, "unpinned read should be fresh");

    // A second connection is independent of the first one's pin.
    let mut other = Client::connect(&addr).expect("second connection");
    let other_answer = other.query(sql).expect("other query");
    assert!(other_answer.meta.epoch >= target);

    server.stop();
    sampler.stop().expect("clean sampler stop");
}

#[test]
fn malformed_frames_get_error_responses_not_disconnects() {
    use fgdb_serve::{Request, Response};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let (sampler, server, addr) = start_stack();
    let mut raw = TcpStream::connect(&addr).expect("raw connect");

    // A well-framed payload full of garbage: the server must answer with a
    // protocol error and keep the connection open.
    let garbage = [0xFFu8, 0xFF, 0xFF];
    let mut frame = (garbage.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&garbage);
    raw.write_all(&frame).expect("send garbage");

    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).expect("error response length");
    let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut payload)
        .expect("error response payload");
    match Response::decode(&payload).expect("decodable error response") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }

    // Same connection still serves valid requests afterwards.
    let ping = Request::Ping.encode().unwrap();
    let mut ping_frame = (ping.len() as u32).to_le_bytes().to_vec();
    ping_frame.extend_from_slice(&ping);
    raw.write_all(&ping_frame).expect("send ping after garbage");
    raw.read_exact(&mut len_buf).expect("pong length");
    let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut payload).expect("pong payload");
    assert!(matches!(
        Response::decode(&payload).expect("decodable pong"),
        Response::Pong
    ));

    server.stop();
    sampler.stop().expect("clean sampler stop");
}

#[test]
fn shutdown_is_graceful_with_connected_clients() {
    let (sampler, server, addr) = start_stack();
    // Leave clients connected and mid-session when the server stops: stop
    // must still return (workers notice the flag via their read timeout).
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(&addr).expect("connect"))
        .collect();
    for c in &mut clients {
        c.ping().expect("ping before shutdown");
    }
    server.stop();

    // The sampler outlives the server and still stops cleanly.
    let pdb = sampler.stop().expect("sampler survives server shutdown");
    drop(pdb);

    // New connections are refused (or at best dropped without service).
    let late = Client::connect(&addr);
    if let Ok(mut c) = late {
        assert!(c.ping().is_err(), "stopped server must not serve");
    }
}

// ------------------------------------------- the borrowed-value encoder ----

mod borrowed_encoder {
    use fgdb_core::QueryStatus;
    use fgdb_relational::{CountedSet, QueryResult, Tuple, Value};
    use fgdb_serve::protocol::{status_frame, table_frame};
    use fgdb_serve::{
        EpochMeta, ProtocolError, Response, WireQueryStatus, WireRow, WireValue, MAX_FRAME_LEN,
    };
    use std::sync::Arc;

    const META: EpochMeta = EpochMeta {
        epoch: 3,
        steps: 12_000,
        samples: 120,
    };

    /// `TABLE` and `STATUS` payloads as encoded by the commit before the
    /// borrowed-value encoder (its `Response::encode`, for the messages
    /// [`golden_table`] and [`golden_status`] describe).
    const PARENT_TABLE: &str = "01000300000000000000e02e0000000000007800000000000000020006000000737472696e67010000006e0200000002000000000000000500040400000042696c6c02020000000000000003000000000000d03f010100ffffffffffffffff02000406000000e697a5e69cac00";
    const PARENT_STATUS: &str = "01010300000000000000e02e00000000000078000000000000000200000071311800000053454c45435420737472696e672046524f4d20544f4b454e010006000000737472696e676891ed7c3f35f03f0000000000c047400001000000000000010100000001000000000000000100040100000078020000000100040100000078000000000000ec3f0100040100000079000000000000c03f";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn names(columns: &[&str]) -> Vec<Arc<str>> {
        columns.iter().map(|c| Arc::from(*c)).collect()
    }

    fn counted(rows: &[(Tuple, i64)]) -> CountedSet {
        let mut set = CountedSet::new();
        for (t, c) in rows {
            set.add(t.clone(), *c);
        }
        set
    }

    fn golden_table() -> QueryResult {
        QueryResult {
            columns: names(&["string", "n"]),
            rows: counted(&[
                (Tuple::new(vec![Value::str("日本"), Value::Null]), -1),
                (
                    Tuple::new(vec![
                        Value::str("Bill"),
                        Value::Int(2),
                        Value::float(0.25),
                        Value::Bool(true),
                        Value::Null,
                    ]),
                    2,
                ),
            ]),
        }
    }

    fn golden_status() -> QueryStatus {
        let (x, y) = (
            Tuple::new(vec![Value::str("x")]),
            Tuple::new(vec![Value::str("y")]),
        );
        QueryStatus {
            name: Arc::from("q1"),
            sql: Arc::from("SELECT string FROM TOKEN"),
            columns: names(&["string"]),
            answer: counted(&[(x.clone(), 1)]),
            marginals: vec![(x, 0.875), (y, 0.125)],
            r_hat: 1.013,
            min_ess: 47.5,
            window_len: 256,
            converged: true,
        }
    }

    // The previous build's server-side conversions, kept as the reference:
    // every row a `Vec<WireValue>`, every string a fresh `String`.

    fn wire_values(t: &Tuple) -> Vec<WireValue> {
        t.values().iter().map(WireValue::from).collect()
    }

    fn wire_rows(rows: &CountedSet) -> Vec<WireRow> {
        rows.sorted_entries()
            .into_iter()
            .map(|(tuple, count)| WireRow {
                values: wire_values(&tuple),
                count,
            })
            .collect()
    }

    fn table_response(result: &QueryResult) -> Response {
        Response::Table {
            meta: META,
            columns: result.columns.iter().map(|c| c.to_string()).collect(),
            rows: wire_rows(&result.rows),
        }
    }

    fn status_response(status: &QueryStatus) -> Response {
        Response::Status {
            meta: META,
            status: Box::new(WireQueryStatus {
                name: status.name.to_string(),
                sql: status.sql.to_string(),
                columns: status.columns.iter().map(|c| c.to_string()).collect(),
                r_hat: status.r_hat,
                min_ess: status.min_ess,
                window_len: status.window_len,
                converged: status.converged,
                answer: wire_rows(&status.answer),
                marginals: status
                    .marginals
                    .iter()
                    .map(|(t, p)| (wire_values(t), *p))
                    .collect(),
            }),
        }
    }

    /// A deterministic spread of answers: every value kind, multibyte and
    /// empty strings, negative and zero-arity rows, empty and large sets.
    fn corpus() -> Vec<(QueryResult, QueryStatus)> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let strings = ["", "Boston", "B-PER", "日本語", "☃", "a\nb"];
        let mut out = vec![(golden_table(), golden_status())];
        for case in 0..40usize {
            let arity = case % 5;
            let n_rows = [0, 1, 7, 300][case % 4];
            let mut rows = Vec::new();
            for _ in 0..n_rows {
                let values = (0..arity)
                    .map(|_| match next() % 5 {
                        0 => Value::Null,
                        1 => Value::Bool(next() % 2 == 0),
                        2 => Value::Int(next() as i64),
                        3 => Value::float((next() % 1000) as f64 / 8.0 - 60.0),
                        _ => Value::str(strings[(next() % 6) as usize]),
                    })
                    .collect();
                rows.push((Tuple::new(values), (next() % 7) as i64 - 3));
            }
            let rows: Vec<(Tuple, i64)> = rows.into_iter().filter(|(_, c)| *c != 0).collect();
            let columns: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            let columns = names(&columns.iter().map(String::as_str).collect::<Vec<_>>());
            let answer = counted(&rows);
            let mut marginals: Vec<(Tuple, f64)> = answer
                .support()
                .map(|t| (t.clone(), (next() % 1001) as f64 / 1000.0))
                .collect();
            marginals.sort_by(|a, b| a.0.cmp(&b.0));
            out.push((
                QueryResult {
                    columns: columns.clone(),
                    rows: answer.clone(),
                },
                QueryStatus {
                    name: Arc::from(format!("q{case}")),
                    sql: Arc::from(strings[case % 6]),
                    columns,
                    answer,
                    marginals,
                    r_hat: 1.0 + case as f64 / 16.0,
                    min_ess: case as f64 * 1.5,
                    window_len: case as u64,
                    converged: case % 2 == 0,
                },
            ));
        }
        out
    }

    #[test]
    fn frames_are_byte_identical_to_the_previous_builds() {
        assert_eq!(
            hex(table_frame(&META, &golden_table()).unwrap().payload()),
            PARENT_TABLE
        );
        assert_eq!(
            hex(status_frame(&META, &golden_status()).unwrap().payload()),
            PARENT_STATUS
        );
        // The owned mirror goes through the same encoder.
        assert_eq!(
            hex(&table_response(&golden_table()).encode().unwrap()),
            PARENT_TABLE
        );
        assert_eq!(
            hex(&status_response(&golden_status()).encode().unwrap()),
            PARENT_STATUS
        );
    }

    #[test]
    fn borrowed_and_owned_encodings_agree_on_every_generated_answer() {
        for (result, status) in corpus() {
            for (frame, owned) in [
                (
                    table_frame(&META, &result).unwrap(),
                    table_response(&result),
                ),
                (
                    status_frame(&META, &status).unwrap(),
                    status_response(&status),
                ),
            ] {
                assert_eq!(frame.payload(), &owned.encode().unwrap()[..]);
                assert_eq!(frame, owned.frame().unwrap());
                // Framing: the four-byte LE payload length, then the payload.
                let bytes = frame.as_bytes();
                assert_eq!(bytes[..4], (frame.payload().len() as u32).to_le_bytes());
                assert_eq!(&bytes[4..], frame.payload());
                assert_eq!(Response::decode(frame.payload()).unwrap(), owned);
            }
        }
    }

    /// Every field with a wire length prefix still fails typed — never as a
    /// wrapped prefix — when it overflows, through the borrowed encoder as
    /// through the owned one.
    #[test]
    fn every_oversize_is_still_a_typed_error() {
        let oversize = |r: Result<fgdb_serve::Frame, ProtocolError>| match r {
            Err(ProtocolError::Oversize { field, len, max }) => (field, len, max),
            other => panic!("expected Oversize, got {other:?}"),
        };
        let wide = u16::MAX as usize + 1;
        let wide_row = Tuple::new(vec![Value::Null; wide]);
        let wide_columns = names(&vec!["c"; wide]);

        let mut result = golden_table();
        result.columns = wide_columns.clone();
        assert_eq!(
            oversize(table_frame(&META, &result)),
            ("columns", wide, u64::from(u16::MAX))
        );
        assert_eq!(
            oversize(table_response(&result).frame()).0,
            "columns",
            "owned path"
        );
        let mut result = golden_table();
        result.rows.add(wide_row.clone(), 1);
        assert_eq!(oversize(table_frame(&META, &result)).0, "row values");

        let mut status = golden_status();
        status.columns = wide_columns;
        assert_eq!(oversize(status_frame(&META, &status)).0, "columns");
        let mut status = golden_status();
        status.answer.add(wide_row.clone(), 1);
        assert_eq!(oversize(status_frame(&META, &status)).0, "row values");
        let mut status = golden_status();
        status.marginals.push((wide_row, 0.5));
        assert_eq!(oversize(status_frame(&META, &status)).0, "row values");

        // A reply over the frame budget is a typed error too, carrying its
        // true length — no frame exists to be half-written.
        let big = Value::str("x".repeat(1 << 20));
        let mut result = golden_table();
        for i in 0..17 {
            result
                .rows
                .add(Tuple::new(vec![Value::Int(i), big.clone()]), 1);
        }
        match table_frame(&META, &result) {
            Err(ProtocolError::FrameTooLarge(n)) => assert!(n > u64::from(MAX_FRAME_LEN)),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
