//! Serving-layer chaos: overload shedding, degraded-sampler behavior,
//! hostile response frames, and client retry — the network half of the
//! fault-injection suite (`crates/core/tests/chaos.rs` is the storage
//! half).
//!
//! Invariants under test:
//!
//! * past the connection cap the server answers one typed
//!   `Unavailable{retry_after_ms}` frame — it never queues silently,
//!   never hangs, never drops the socket without a word — and a
//!   retrying client rides the shed through to an answer once capacity
//!   frees up;
//! * while the sampler is degraded (supervisor mid
//!   restart-from-recovery), fresh-state requests shed with a retry
//!   hint, health probes keep answering with `degraded` set, pinned
//!   connections keep reading their immutable epoch, and everything
//!   heals once the supervisor resumes;
//! * once an in-memory sampler has failed (it restarts nothing), a fresh
//!   `STATUS` sheds with a retry hint instead of serving the last epoch
//!   as if it were fresh;
//! * every truncation and every single-byte corruption of a valid
//!   response frame decodes to a typed error or a valid message on the
//!   client — never a panic, never an allocation blow-up.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer, PanicsAfter};
use fgdb_core::supervise::{ModelFactory, SupervisedSampler, SupervisorConfig};
use fgdb_core::{DurabilityConfig, FsyncPolicy, LiveSampler, SamplerState, ServingConfig};
use fgdb_durability::{FaultKind, FaultSchedule, FaultyIo, StoreIo};
use fgdb_graph::FactorGraph;
use fgdb_relational::parser::paper_sql;
use fgdb_serve::{
    Client, ClientConfig, ClientError, EpochMeta, ErrorCode, Response, Server, ServerConfig,
    WireError, WireQueryStatus, WireRow, WireStats, WireValue,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_TOKENS: usize = 24;

fn serving_config() -> ServingConfig {
    ServingConfig {
        thinning: 10,
        publish_every: 2,
        window: 32,
        ..Default::default()
    }
}

#[test]
fn connection_cap_sheds_with_retry_hint_and_retry_rides_it_out() {
    let pdb = biased_token_pdb(N_TOKENS, 6, 0xCAFE);
    let q1 = paper_sql::query1("TOKEN");
    let sampler = LiveSampler::spawn(pdb, &[("q1", q1.as_str())], serving_config()).unwrap();
    let server = Server::start_with(
        sampler.reader(),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            retry_after_ms: 25,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Occupy the single slot.
    let mut holder = Client::connect(&addr).unwrap();
    holder.ping().unwrap();

    // The excess connection is answered with a typed shed, not silence.
    let mut shed = Client::connect(&addr).unwrap();
    match shed.ping() {
        Err(ClientError::Unavailable { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
        other => panic!("expected Unavailable at the cap, got {other:?}"),
    }

    // A retrying client started while the cap is full succeeds once the
    // holder disconnects: shed → backoff (honoring the hint) → reconnect
    // → answer.
    let addr2 = addr.clone();
    let retrier = std::thread::spawn(move || {
        let mut c = Client::connect_with(
            &addr2,
            ClientConfig {
                max_retries: 10,
                backoff_base_ms: 20,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        c.query_with_retry("SELECT doc_id, COUNT(*) FROM TOKEN GROUP BY doc_id")
    });
    std::thread::sleep(Duration::from_millis(60));
    drop(holder); // frees the slot; the worker notices EOF within a poll tick
    let answer = retrier
        .join()
        .unwrap()
        .expect("retry must ride out the cap");
    assert_eq!(answer.columns.len(), 2);

    server.stop();
    sampler.stop().unwrap();
}

fn supervised_stack(
    restart_backoff_ms: u64,
) -> (
    FaultyIo,
    SupervisedSampler<Arc<FactorGraph>>,
    Server,
    String,
) {
    let dir = fgdb_durability::test_dir("chaos-serve-degraded");
    let fio = FaultyIo::new(FaultSchedule::none());
    let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
    let pdb = biased_token_pdb(N_TOKENS, 6, 0xD06F);
    let model = Arc::clone(pdb.model());
    let durable = pdb
        .open_durable_with_io(
            io,
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
    let factory: ModelFactory<Arc<FactorGraph>> =
        Box::new(move || (Arc::clone(&model), relabel_proposer(N_TOKENS)));
    let q1 = paper_sql::query1("TOKEN");
    let sampler = SupervisedSampler::spawn(
        durable,
        &[("q1", q1.as_str())],
        SupervisorConfig {
            serving: serving_config(),
            max_restarts: 5,
            restart_backoff_ms,
            checkpoint_every: 0,
        },
        factory,
    )
    .unwrap();
    let server = Server::start_with(
        sampler.reader(),
        "127.0.0.1:0",
        ServerConfig {
            retry_after_ms: 40,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    (fio, sampler, server, addr)
}

#[test]
fn degraded_sampler_sheds_fresh_reads_serves_pinned_ones_and_heals() {
    // A long restart backoff holds the degraded window open wide enough
    // to observe deterministically.
    let (fio, sampler, server, addr) = supervised_stack(800);
    let sql = "SELECT label, COUNT(*) FROM TOKEN GROUP BY label";

    let mut pinned_client = Client::connect(&addr).unwrap();
    let pinned_at: EpochMeta = pinned_client.pin().unwrap();
    let pinned_answer = pinned_client.query(sql).unwrap();
    assert_eq!(pinned_answer.meta.epoch, pinned_at.epoch);

    // Break the WAL once; wait until the supervisor parks degraded.
    fio.inject_now(FaultKind::WriteErr);
    // Retry budget must span the 800ms degraded window: 12 × ≥40ms
    // (hint-floored) with exponential growth is plenty.
    let mut probe = Client::connect_with(
        &addr,
        ClientConfig {
            max_retries: 12,
            backoff_base_ms: 40,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let degraded_stats: WireStats = loop {
        assert!(Instant::now() < deadline, "sampler never reported degraded");
        let s = probe.stats().unwrap();
        if s.degraded {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    // Health stays observable mid-degradation, with the fault attached.
    assert!(!degraded_stats.running);
    assert!(
        degraded_stats.error.is_some(),
        "degraded stats must carry the typed fault, rendered"
    );

    // Fresh-state requests shed with the retry hint...
    match probe.query(sql) {
        Err(ClientError::Unavailable { retry_after_ms }) => assert_eq!(retry_after_ms, 40),
        other => panic!("expected shed during degradation, got {other:?}"),
    }
    match probe.pin() {
        Err(ClientError::Unavailable { .. }) => {}
        other => panic!("expected pin shed during degradation, got {other:?}"),
    }
    // ...while the pinned connection keeps reading its immutable epoch.
    let again = pinned_client.query(sql).unwrap();
    assert_eq!(again.meta.epoch, pinned_at.epoch);
    assert_eq!(again.rows, pinned_answer.rows);

    // A retrying client spanning the whole degraded window comes out
    // with an answer — no caller-visible hang, no manual babysitting.
    let answer = probe
        .query_with_retry(sql)
        .expect("retry must span the degraded window");
    assert!(!answer.rows.is_empty());

    // Healed: running again, error cleared, fresh epochs flowing.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "sampler never resumed");
        let s = probe.stats().unwrap();
        if s.running && !s.degraded && s.error.is_none() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    server.stop();
    sampler.stop().expect("supervised sampler stops cleanly");
}

#[test]
fn a_failed_in_memory_sampler_sheds_fresh_status() {
    let config = serving_config();
    let proposer = Box::new(PanicsAfter {
        inner: relabel_proposer(N_TOKENS),
        left: 8 * config.thinning * config.publish_every + 3,
    });
    let pdb = biased_token_pdb(N_TOKENS, 6, 0xFA11).snapshot(proposer, 11);
    let q1 = paper_sql::query1("TOKEN");
    let sampler = LiveSampler::spawn(pdb, &[("q1", q1.as_str())], config).unwrap();
    let reader = sampler.reader();
    let server = Server::start_with(
        sampler.reader(),
        "127.0.0.1:0",
        ServerConfig {
            retry_after_ms: 30,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while reader.status().state != SamplerState::Failed {
        assert!(Instant::now() < deadline, "the sampler never failed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut client = Client::connect(server.addr()).unwrap();
    match client.status("q1") {
        Err(ClientError::Unavailable { retry_after_ms }) => assert_eq!(retry_after_ms, 30),
        other => panic!("expected a shed STATUS from a failed sampler, got {other:?}"),
    }
    // Health stays observable, with the panic attached.
    let stats = client.stats().unwrap();
    assert!(!stats.running);
    assert!(stats.error.is_some_and(|e| e.contains("injected")));
    server.stop();
    assert!(sampler.stop().is_err());
}

#[test]
fn hostile_response_frames_never_panic_the_client_decoder() {
    // A corpus covering every response shape the server can send,
    // including the new Unavailable frame and degraded stats.
    let meta = EpochMeta {
        epoch: 7,
        steps: 1400,
        samples: 140,
    };
    let corpus: Vec<Response> = vec![
        Response::Table {
            meta,
            columns: vec!["label".into(), "n".into()],
            rows: vec![WireRow {
                values: vec![WireValue::Str("B-PER".into()), WireValue::Int(6)],
                count: 1,
            }],
        },
        Response::Status {
            meta,
            status: Box::new(WireQueryStatus {
                name: "q1".into(),
                sql: "SELECT string FROM TOKEN".into(),
                columns: vec!["string".into()],
                r_hat: 1.02,
                min_ess: 31.5,
                window_len: 32,
                converged: false,
                answer: vec![WireRow {
                    values: vec![WireValue::Str("Boston".into())],
                    count: 2,
                }],
                marginals: vec![(vec![WireValue::Str("Boston".into())], 0.5)],
            }),
        },
        Response::Stats(WireStats {
            epoch: 7,
            steps: 1400,
            samples: 140,
            running: false,
            degraded: true,
            error: Some("durable store error: injected ENOSPC".into()),
        }),
        Response::Unavailable {
            retry_after_ms: 100,
        },
        Response::Error(WireError {
            code: ErrorCode::Exec,
            offset: None,
            message: "boom".into(),
            rendered: "boom".into(),
        }),
    ];
    for resp in &corpus {
        let enc = resp.encode().unwrap();
        // Round trip sanity first.
        assert_eq!(&Response::decode(&enc).unwrap(), resp);
        // Every truncation fails typed (or, for the empty prefix of a
        // length-delimited inner string, still decodes — both fine);
        // nothing panics.
        for cut in 0..enc.len() {
            let _ = Response::decode(&enc[..cut]);
        }
        // Every single-byte corruption decodes or errors — no panics,
        // no unbounded allocations (count fields are capped by payload
        // length checks).
        let mut mutated = enc.clone();
        for i in 0..mutated.len() {
            let original = mutated[i];
            for flip in [0x01u8, 0x80, 0xFF] {
                mutated[i] = original ^ flip;
                let _ = Response::decode(&mutated);
            }
            mutated[i] = original;
        }
    }
}

#[test]
fn stalled_mid_frame_peer_is_cut_off_with_a_typed_error() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let pdb = biased_token_pdb(N_TOKENS, 6, 0x57A1);
    let q1 = paper_sql::query1("TOKEN");
    let sampler = LiveSampler::spawn(pdb, &[("q1", q1.as_str())], serving_config()).unwrap();
    let server = Server::start_with(
        sampler.reader(),
        "127.0.0.1:0",
        ServerConfig {
            stall_budget: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Send a length prefix promising 64 bytes, then go silent.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&64u32.to_le_bytes()).unwrap();
    raw.write_all(b"only-a-few").unwrap();

    // The server must answer a typed protocol error and close — within
    // the stall budget plus slack, never hanging the worker.
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).expect("typed stall response");
    let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut payload).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Protocol);
            assert!(
                e.message.contains("stalled"),
                "error should name the stall: {}",
                e.message
            );
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    // And then EOF: the connection is gone, not resumed mid-frame.
    let n = raw.read(&mut len_buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close a stalled connection");

    server.stop();
    sampler.stop().unwrap();
}
