//! TCP loopback tests for `gcco-serve`'s server core: mixed concurrent
//! batches, per-request deadlines that fail without killing the server,
//! backpressure, the graceful shutdown drain, and the blocking accept with
//! its explicit shutdown wake.

use gcco_api::json::{encode_batch, Envelope, PROTOCOL_VERSION};
use gcco_api::listen::MAX_LINE_BYTES;
use gcco_api::serve::{client_roundtrip, send_shutdown, serve, submit_batch, ServeConfig};
use gcco_api::{
    DsimRunSpec, Engine, EvalRequest, EvalResponse, ModelSpec, PowerScanSpec, SjOverride,
};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);

fn mixed_requests() -> Vec<EvalRequest> {
    let spec = ModelSpec::paper_table1();
    vec![
        EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: None,
        },
        EvalRequest::BerPoint {
            spec: spec.clone(),
            sj: Some(SjOverride {
                amplitude_pp: 1.0,
                freq_norm: 0.4,
            }),
        },
        EvalRequest::BerGrid {
            spec: spec.clone(),
            amps_pp: vec![0.2, 0.8],
            freqs_norm: vec![0.01, 0.3],
        },
        EvalRequest::JtolCurve {
            spec: spec.clone(),
            freqs_norm: vec![0.1, 0.4],
            target_ber: 1e-12,
        },
        EvalRequest::FtolSearch {
            spec,
            target_ber: 1e-12,
        },
        EvalRequest::PowerScan {
            scan: PowerScanSpec::paper_design(),
        },
        EvalRequest::DsimRun {
            run: DsimRunSpec::paper_ring(),
        },
        EvalRequest::BerPoint {
            spec: ModelSpec::paper_table1().with_freq_offset(100e-6),
            sj: None,
        },
    ]
}

#[test]
fn concurrent_mixed_batch_round_trips() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    // Two client threads, each submitting the full mixed batch (8
    // requests each, 16 concurrent total) on its own connection.
    let clients: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let envelopes: Vec<Envelope> = mixed_requests()
                    .into_iter()
                    .enumerate()
                    .map(|(i, request)| Envelope {
                        id: (c * 100 + i) as u64,
                        v: Some(PROTOCOL_VERSION),
                        deadline_ms: None,
                        request,
                    })
                    .collect();
                submit_batch(&addr, &envelopes, TIMEOUT).expect("batch round-trips")
            })
        })
        .collect();
    for (c, client) in clients.into_iter().enumerate() {
        let results = client.join().expect("client thread");
        assert_eq!(results.len(), 8);
        let ids: HashSet<u64> = results.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 8, "every id answered exactly once");
        for r in results {
            let resp = r
                .result
                .unwrap_or_else(|e| panic!("client {c} id {} failed: {e:?}", r.id));
            match (r.id % 100, resp) {
                (0 | 1 | 7, EvalResponse::Scalar { .. })
                | (2, EvalResponse::Grid { .. })
                | (3, EvalResponse::Jtol { .. })
                | (4, EvalResponse::Ftol { .. })
                | (5, EvalResponse::Power { .. })
                | (6, EvalResponse::Dsim { .. }) => {}
                (i, other) => panic!("request {i} got {:?}", other.kind()),
            }
        }
    }
    // Both clients submitted the same specs: the shared engine must not
    // have built more contexts than distinct cache keys (2).
    assert!(
        handle.engine().context_builds() <= 2,
        "context cache must be shared across connections, built {}",
        handle.engine().context_builds()
    );
    handle.shutdown();
}

#[test]
fn tripped_deadline_fails_the_request_not_the_server() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    let spec = ModelSpec::paper_table1();
    let envelopes = [
        Envelope {
            id: 1,
            v: Some(PROTOCOL_VERSION),
            // A deadline of 0 ms is guaranteed already expired at enqueue.
            deadline_ms: Some(0),
            request: EvalRequest::BerGrid {
                spec: spec.clone(),
                amps_pp: vec![0.2, 0.8],
                freqs_norm: vec![0.01, 0.3],
            },
        },
        Envelope {
            id: 2,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::BerPoint { spec, sj: None },
        },
    ];
    let results = submit_batch(&addr, &envelopes, TIMEOUT).expect("batch round-trips");
    assert_eq!(results.len(), 2);
    for r in results {
        match r.id {
            1 => {
                let (kind, _) = r.result.expect_err("0 ms deadline must trip");
                assert_eq!(kind, "deadline_exceeded");
            }
            2 => {
                r.result.expect("undeadlined request survives");
            }
            other => panic!("unexpected id {other}"),
        }
    }

    // The server is still alive and serving after the deadline error.
    let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("still serving");
    assert_eq!(pong, ["{\"pong\":true}"]);
    handle.shutdown();
}

#[test]
fn overflow_gets_queue_full_and_malformed_lines_get_parse_errors() {
    // One slow worker and a tiny queue force backpressure deterministically.
    let config = ServeConfig {
        queue_capacity: 1,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = serve(&config, Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    let envelopes: Vec<Envelope> = (0..6)
        .map(|i| Envelope {
            id: i,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::JtolCurve {
                spec: ModelSpec::paper_table1(),
                freqs_norm: vec![0.01, 0.1, 0.3],
                target_ber: 1e-12,
            },
        })
        .collect();
    let results = submit_batch(&addr, &envelopes, TIMEOUT).expect("all answered");
    assert_eq!(results.len(), 6);
    let full = results
        .iter()
        .filter(|r| matches!(&r.result, Err((kind, _)) if kind == "queue_full"))
        .count();
    let ok = results.iter().filter(|r| r.result.is_ok()).count();
    assert_eq!(ok + full, 6);
    assert!(
        full >= 1,
        "six instant submissions into a 1-deep queue with one worker must overflow"
    );
    assert!(ok >= 1, "the worker must still drain accepted work");

    let err = client_roundtrip(&addr, "this is not json", 1, TIMEOUT).expect("answered");
    assert!(err[0].contains("\"kind\":\"parse_error\""), "{}", err[0]);
    // Uncorrelatable lines are answered with the id-less error shape —
    // never a fabricated id that could collide with a real envelope's.
    assert!(err[0].starts_with("{\"err\":"), "{}", err[0]);
    assert!(!err[0].contains("\"id\""), "{}", err[0]);
    let err = client_roundtrip(&addr, "{\"cmd\":\"frobnicate\"}", 1, TIMEOUT).expect("answered");
    assert!(err[0].starts_with("{\"err\":"), "{}", err[0]);
    assert!(!err[0].contains("\"id\""), "{}", err[0]);
    assert!(err[0].contains("frobnicate"), "{}", err[0]);
    handle.shutdown();
}

#[test]
fn over_deep_lines_get_parse_errors_and_the_server_keeps_answering() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();
    // Deep enough to overflow a recursive parser's stack in a worker
    // thread; the depth cap turns it into an ordinary id-less error.
    let hostile = format!("{{\"batch\":{}", "[".repeat(20_000));
    let reply = client_roundtrip(&addr, &hostile, 1, TIMEOUT).expect("answered");
    assert!(reply[0].starts_with("{\"err\":"), "{}", reply[0]);
    assert!(
        reply[0].contains("\"kind\":\"parse_error\""),
        "{}",
        reply[0]
    );
    assert!(!reply[0].contains("\"id\""), "{}", reply[0]);

    let env = Envelope {
        id: 1,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::ber_point(ModelSpec::paper_table1()),
    };
    let results = submit_batch(&addr, &[env], TIMEOUT).expect("still serving");
    assert!(results[0].result.is_ok(), "{:?}", results[0]);
    handle.shutdown();
}

#[test]
fn lines_over_the_cap_get_one_parse_error_then_the_connection_closes() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();
    // A line of exactly the cap is read whole (and trimmed to a ping).
    let ping = "{\"cmd\":\"ping\"}";
    let at_cap = ping.to_string() + &" ".repeat(MAX_LINE_BYTES - ping.len());
    let pong = client_roundtrip(&addr, &at_cap, 1, TIMEOUT).expect("ping at the cap");
    assert_eq!(pong, vec!["{\"pong\":true}".to_string()]);

    // One byte more: an id-less parse_error, then EOF on the same
    // connection instead of an answer to the ping that follows.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let mut over = vec![b'x'; MAX_LINE_BYTES + 1];
    over.push(b'\n');
    stream.write_all(&over).expect("send the long line");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    assert!(reply.starts_with("{\"err\":"), "{reply}");
    assert!(reply.contains("\"kind\":\"parse_error\""), "{reply}");
    assert!(!reply.contains("\"id\""), "{reply}");
    let _ = stream.write_all(b"{\"cmd\":\"ping\"}\n");
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the connection must close after the error, got {rest:?}"
    );

    // A fresh connection is served as usual.
    let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("ping");
    assert_eq!(pong, vec!["{\"pong\":true}".to_string()]);
    handle.shutdown();
}

#[test]
fn duplicate_batch_ids_are_rejected_before_any_evaluation() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    let env = |id: u64| Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::BerPoint {
            spec: ModelSpec::paper_table1(),
            sj: None,
        },
    };

    // Client-side: submit_batch refuses to send an uncorrelatable batch.
    let err = submit_batch(&addr, &[env(3), env(3)], TIMEOUT).expect_err("duplicate ids");
    assert_eq!(err, gcco_api::GccoError::DuplicateId { id: 3 });

    // Wire-side: a raw duplicate-id batch line is rejected whole with the
    // id-less error (answering on either id would be ambiguous).
    let raw = encode_batch(&[env(3), env(3)]);
    let reply = client_roundtrip(&addr, &raw, 1, TIMEOUT).expect("answered");
    assert!(reply[0].starts_with("{\"err\":"), "{}", reply[0]);
    assert!(
        reply[0].contains("\"kind\":\"duplicate_id\""),
        "{}",
        reply[0]
    );
    assert!(!reply[0].contains("\"id\""), "{}", reply[0]);

    // Nothing was evaluated or enqueued; the server still serves.
    let results = submit_batch(&addr, &[env(1), env(2)], TIMEOUT).expect("distinct ids fine");
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.result.is_ok()));
    handle.shutdown();
}

#[test]
fn dropping_the_handle_shuts_down_and_joins_instead_of_leaking() {
    let addr;
    {
        let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
        addr = handle.local_addr();
        // Prove it is live, then drop without calling shutdown().
        let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("live");
        assert_eq!(pong, ["{\"pong\":true}"]);
    }
    // Drop returned, so the accept/worker threads joined. The listener is
    // gone with them: a fresh round-trip must now fail (connection refused
    // or closed before a response arrives).
    assert!(
        client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, Duration::from_secs(2)).is_err(),
        "dropped server must stop serving"
    );
}

#[test]
fn client_roundtrip_keeps_final_response_without_trailing_newline() {
    // A peer that flushes its last line and closes without the trailing
    // newline: the partial line must be counted at EOF, not dropped.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("request line");
        stream
            .write_all(b"{\"pong\":true}") // no trailing newline
            .and_then(|()| stream.flush())
            .expect("reply");
        // Dropping the stream closes the connection right after the flush.
    });
    let lines = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("flushed at EOF");
    assert_eq!(lines, ["{\"pong\":true}"]);
    server.join().expect("server thread");
}

#[test]
fn wire_shutdown_drains_in_flight_work() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();

    // Submit work, wait for proof the batch was accepted (the first
    // response), then request shutdown from a second connection: every
    // already-accepted job must still be answered.
    let envelopes: Vec<Envelope> = (0..4)
        .map(|i| Envelope {
            id: 10 + i,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::BerGrid {
                spec: ModelSpec::paper_table1(),
                amps_pp: vec![0.2, 0.6, 1.0],
                freqs_norm: vec![0.01, 0.1, 0.3],
            },
        })
        .collect();
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT).expect("connect");
    {
        let mut out = stream.try_clone().expect("clone write half");
        out.write_all(encode_batch(&envelopes).as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .expect("submit batch");
    }
    let mut reader = BufReader::new(stream);
    let mut results = Vec::new();
    let mut read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        assert!(!line.is_empty(), "server closed before draining");
        results.push(line.trim().to_string());
    };
    // One response in hand means handle_line enqueued the whole batch.
    read_line(&mut reader);
    send_shutdown(&addr, TIMEOUT).expect("shutdown acknowledged");
    for _ in 0..3 {
        read_line(&mut reader);
    }
    assert_eq!(results.len(), 4);
    for line in &results {
        assert!(
            line.contains("\"ok\":"),
            "accepted work must be drained with a real response: {line}"
        );
    }
    // `run_until_shutdown` returns because the wire command flipped the
    // flag; here the handle observes it too.
    assert!(handle.is_shutting_down());
    handle.shutdown();
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within `limit` (a hung shutdown must fail, not hang the suite).
fn returns_within(what: &str, limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(limit).is_ok(),
        "{what} did not return within {limit:?}"
    );
}

/// Regression for the accept loop's 25 ms poll floor: every new
/// connection waited out the rest of a sleep before it was accepted, so
/// 40 sequential round trips took at least a second.
#[test]
fn sequential_pings_on_fresh_connections_pay_no_poll_floor() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let addr = handle.local_addr();
    let start = Instant::now();
    for _ in 0..40 {
        let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("ping");
        assert_eq!(pong, ["{\"pong\":true}"]);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "40 fresh-connection pings took {elapsed:?}"
    );
    handle.shutdown();
}

/// Connection reads block with no timeout, so shutdown must wake an idle
/// reader itself (by shutting its read half) instead of waiting for the
/// client to send or hang up.
#[test]
fn shutdown_returns_promptly_with_an_idle_client_connected() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    let idle = TcpStream::connect_timeout(&handle.local_addr(), TIMEOUT).expect("connect");
    // A pong on this connection proves its reader is up and now idle.
    let mut out = idle.try_clone().expect("clone write half");
    out.write_all(b"{\"cmd\":\"ping\"}\n").expect("ping");
    let mut reader = BufReader::new(idle);
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    assert_eq!(pong.trim(), "{\"pong\":true}");
    returns_within("shutdown()", Duration::from_secs(1), move || {
        handle.shutdown()
    });
    // The server closed its side: the idle client now reads EOF.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
}

/// A server bound to the unspecified address wakes its accept loop
/// through loopback.
#[test]
fn server_bound_to_the_unspecified_address_shuts_down_cleanly() {
    let handle = serve(
        &ServeConfig {
            addr: "0.0.0.0:0".to_string(),
            ..ServeConfig::default()
        },
        Engine::new(),
    )
    .expect("bind 0.0.0.0");
    let addr = handle.local_addr();
    assert!(addr.ip().is_unspecified());
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], addr.port()));
    let pong = client_roundtrip(&loopback, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("ping");
    assert_eq!(pong, ["{\"pong\":true}"]);
    returns_within("shutdown()", Duration::from_secs(1), move || {
        handle.shutdown()
    });
    assert!(
        client_roundtrip(&loopback, "{\"cmd\":\"ping\"}", 1, Duration::from_secs(2)).is_err(),
        "a stopped server must stop serving"
    );
}

/// `run_until_shutdown` blocks on the shutdown signal, not a sleep loop:
/// after a wire `shutdown` it drains, joins and returns.
#[test]
fn wire_shutdown_releases_run_until_shutdown() {
    let handle = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
    send_shutdown(&handle.local_addr(), TIMEOUT).expect("shutdown acknowledged");
    returns_within("run_until_shutdown()", Duration::from_secs(5), move || {
        handle.run_until_shutdown()
    });
}
