//! Cluster-level acceptance tests: a mixed batch routed over two
//! `gcco-serve` backends must be **byte-identical** to the same batch
//! against a single server — cold store, warm store, and with a backend
//! going dark mid-cluster (failover) — plus eject/rejoin health-checking
//! and the all-backends-dead error contract.
//!
//! Byte parity is asserted on the raw wire lines (sorted — completion
//! order across backends is the one legitimately nondeterministic thing),
//! which the exact f64 codec makes meaningful: any perturbation anywhere
//! in the route → split → forward → re-encode pipeline shows up as a
//! byte diff.

use gcco_api::json::{encode_batch, Envelope, PROTOCOL_VERSION};
use gcco_api::listen::MAX_LINE_BYTES;
use gcco_api::serve::{client_roundtrip, serve, RetryPolicy, ServeConfig, ServerHandle};
use gcco_api::{
    DsimRunSpec, Engine, EvalRequest, ModelSpec, MultiChannelSpec, PowerScanSpec, SjOverride,
};
use gcco_faults::{ChaosProxy, ConnFault, ProxyPlan};
use gcco_router::{route, RouterConfig, RouterHandle};
use gcco_store::Store;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);

/// A per-test scratch directory for backend stores.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcco-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn backend() -> ServerHandle {
    serve(&ServeConfig::default(), Engine::new()).expect("backend binds")
}

fn backend_with_store(dir: &PathBuf) -> ServerHandle {
    let engine = Engine::new().with_store(Arc::new(Store::open(dir).expect("store opens")));
    serve(&ServeConfig::default(), engine).expect("backend binds")
}

fn router_over(backends: Vec<SocketAddr>) -> RouterHandle {
    route(&RouterConfig {
        backends,
        ..RouterConfig::default()
    })
    .expect("router binds")
}

fn envelope(id: u64, request: EvalRequest) -> Envelope {
    Envelope {
        id,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request,
    }
}

/// One envelope of every request kind, plus an SJ-override BER point —
/// the full wire surface.
fn mixed_batch() -> Vec<Envelope> {
    let spec = ModelSpec::paper_table1();
    let mut batch = vec![
        envelope(1, EvalRequest::ber_point_at(spec.clone(), 1.0, 1e-4)),
        envelope(
            2,
            EvalRequest::ber_grid(spec.clone(), vec![0.2, 0.6], vec![1e-3, 0.2]),
        ),
        envelope(
            3,
            EvalRequest::jtol_curve(spec.clone(), vec![1e-3, 0.3], 1e-12),
        ),
        envelope(4, EvalRequest::ftol_search(spec.clone(), 1e-12)),
        envelope(5, EvalRequest::power_scan(PowerScanSpec::paper_design())),
        envelope(6, EvalRequest::dsim_run(DsimRunSpec::paper_ring())),
        envelope(
            7,
            EvalRequest::multi_channel(MultiChannelSpec::paper_quad()),
        ),
    ];
    batch.push(envelope(
        8,
        EvalRequest::BerPoint {
            spec,
            sj: Some(SjOverride {
                amplitude_pp: 0.4,
                freq_norm: 0.01,
            }),
        },
    ));
    batch
}

/// Submits `batch` as one line and returns the raw response lines sorted
/// (ids make every line self-contained; order across backends is free).
fn raw_sorted(addr: &SocketAddr, batch: &[Envelope]) -> Vec<String> {
    let mut lines =
        client_roundtrip(addr, &encode_batch(batch), batch.len(), TIMEOUT).expect("batch answered");
    lines.sort_unstable();
    lines
}

/// Polls `get` until it returns true or the deadline passes.
fn wait_until(what: &str, get: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !get() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn mixed_batch_through_router_matches_single_server_cold_and_warm() {
    let (ref_dir, a_dir, b_dir) = (
        temp_dir("ref"),
        temp_dir("backend-a"),
        temp_dir("backend-b"),
    );
    let batch = mixed_batch();
    // Cold pass: every store is empty, everything computes.
    let reference = backend_with_store(&ref_dir);
    let a = backend_with_store(&a_dir);
    let b = backend_with_store(&b_dir);
    let router = router_over(vec![a.local_addr(), b.local_addr()]);
    let single_cold = raw_sorted(&reference.local_addr(), &batch);
    let routed_cold = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(
        routed_cold, single_cold,
        "cold-store cluster run must be byte-identical to a single server"
    );
    // Both backends must have seen work: the ring splits an 8-envelope
    // batch rather than funneling everything to one shard.
    let backend_requests = router
        .obs()
        .counter_sum("gcco_router_backend_requests_total");
    assert_eq!(backend_requests, batch.len() as u64);
    for handle in [&a, &b] {
        assert!(
            handle.obs().counter("gcco_serve_requests_total").get() > 0,
            "the ring must spread the batch over both backends"
        );
    }
    // Warm pass: same processes, same stores — replies now come from the
    // warm-context caches and store journals, still byte-identical.
    let single_warm = raw_sorted(&reference.local_addr(), &batch);
    let routed_warm = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(single_warm, single_cold, "single-server replay drifted");
    assert_eq!(
        routed_warm, single_cold,
        "warm-store cluster run must be byte-identical to a single server"
    );
    router.shutdown();
    a.shutdown();
    b.shutdown();
    reference.shutdown();
    for dir in [ref_dir, a_dir, b_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn router_fails_a_sub_batch_over_when_its_backend_goes_dark() {
    let reference = backend();
    let a = backend();
    let b = backend();
    // Backend B sits behind a chaos proxy that lets the router's startup
    // probe through (connection 0) and resets every connection after it —
    // from the router's side, B answers its health check and then drops
    // dead mid-cluster.
    let mut plan = vec![ConnFault::Reset; 16];
    plan[0] = ConnFault::None;
    let proxy = ChaosProxy::spawn(b.local_addr(), ProxyPlan::Cycle(plan)).expect("proxy binds");
    let router = route(&RouterConfig {
        backends: vec![a.local_addr(), proxy.local_addr()],
        // One initial sweep only: this test exercises the dispatch-path
        // failover, not the prober.
        probe_interval: Duration::from_secs(3600),
        attempt_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    // Don't submit until the startup probe has burned connection 0 —
    // otherwise the sub-batch would slip through the fault-free slot.
    wait_until("startup probe to reach backend B", || {
        proxy.connections() >= 1
    });
    let batch = mixed_batch();
    let routed = raw_sorted(&router.local_addr(), &batch);
    let single = raw_sorted(&reference.local_addr(), &batch);
    assert_eq!(
        routed, single,
        "batch surviving a dark backend must still be byte-identical"
    );
    let counter = |name: &str| router.obs().counter(name).get();
    assert!(
        counter("gcco_router_failovers_total") >= 1,
        "the dark backend's sub-batch must have failed over"
    );
    assert!(counter("gcco_router_ejections_total") >= 1);
    assert_eq!(
        router.obs().gauge("gcco_router_backends_alive").get(),
        1,
        "the dark backend must be ejected"
    );
    router.shutdown();
    proxy.shutdown();
    a.shutdown();
    b.shutdown();
    reference.shutdown();
}

#[test]
fn prober_ejects_a_dead_backend_and_rejoins_it() {
    let a = backend();
    let b = backend();
    let b_addr = b.local_addr();
    let router = route(&RouterConfig {
        backends: vec![a.local_addr(), b_addr],
        probe_interval: Duration::from_millis(50),
        attempt_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    let alive = || router.obs().gauge("gcco_router_backends_alive").get();
    wait_until("both backends probed alive", || alive() == 2);
    // Kill B: the prober must eject it, and traffic must keep flowing.
    b.shutdown();
    wait_until("dead backend ejection", || alive() == 1);
    assert!(
        router
            .obs()
            .counter("gcco_router_probe_failures_total")
            .get()
            >= 1
    );
    let batch = mixed_batch();
    let lines = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(lines.len(), batch.len());
    assert!(
        lines.iter().all(|l| l.contains("\"ok\":")),
        "with B ejected every envelope must still be answered from A: {lines:?}"
    );
    // Resurrect a backend on B's old address: the prober must rejoin it.
    // (Rebinding a just-released local port can transiently fail; retry.)
    let resurrected = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match serve(
                &ServeConfig {
                    addr: b_addr.to_string(),
                    ..ServeConfig::default()
                },
                Engine::new(),
            ) {
                Ok(handle) => break handle,
                Err(e) => {
                    assert!(Instant::now() < deadline, "could not rebind {b_addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    wait_until("backend rejoin", || alive() == 2);
    assert!(router.obs().counter("gcco_router_rejoins_total").get() >= 1);
    router.shutdown();
    resurrected.shutdown();
    a.shutdown();
}

#[test]
fn all_backends_dead_answers_every_envelope_with_a_structured_error() {
    // A port that was bound and released: connections are refused.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe port");
        listener.local_addr().expect("addr")
    };
    let router = route(&RouterConfig {
        backends: vec![dead_addr],
        attempt_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    })
    .expect("router binds");
    let batch: Vec<Envelope> = (0..3)
        .map(|i| envelope(10 + i, EvalRequest::dsim_run(DsimRunSpec::paper_ring())))
        .collect();
    let lines = raw_sorted(&router.local_addr(), &batch);
    assert_eq!(lines.len(), 3, "no envelope may go unanswered");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":{}", 10 + i)),
            "every error must carry its envelope's id: {line}"
        );
        assert!(
            line.contains("\"kind\":\"io_error\""),
            "dead-cluster answers must be structured io errors: {line}"
        );
    }
    assert_eq!(
        router.obs().counter("gcco_router_no_backend_total").get(),
        3
    );
    router.shutdown();
}

#[test]
fn over_deep_lines_get_parse_errors_through_the_router() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let addr = router.local_addr();
    let hostile = format!("{{\"batch\":{}", "[".repeat(20_000));
    let reply = client_roundtrip(&addr, &hostile, 1, TIMEOUT).expect("answered");
    assert!(reply[0].starts_with("{\"err\":"), "{}", reply[0]);
    assert!(
        reply[0].contains("\"kind\":\"parse_error\""),
        "{}",
        reply[0]
    );
    assert!(!reply[0].contains("\"id\""), "{}", reply[0]);
    // The router still routes.
    let batch = [envelope(
        1,
        EvalRequest::ber_point(ModelSpec::paper_table1()),
    )];
    let lines = client_roundtrip(&addr, &encode_batch(&batch), 1, TIMEOUT).expect("answered");
    assert!(lines[0].starts_with("{\"id\":1,\"ok\":"), "{}", lines[0]);
    router.shutdown();
    a.shutdown();
}

#[test]
fn lines_over_the_cap_get_a_parse_error_through_the_router() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let addr = router.local_addr();
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
    // The router closes the connection instead of reading on.
    let _ = stream.write_all(b"{\"cmd\":\"ping\"}\n");
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the connection must close after the error, got {rest:?}"
    );
    // A fresh connection still gets an answer.
    let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("ping");
    assert_eq!(pong, vec!["{\"pong\":true}".to_string()]);
    router.shutdown();
    a.shutdown();
}

#[test]
fn router_speaks_the_serve_command_protocol() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let addr = router.local_addr();
    let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("ping");
    assert_eq!(pong, vec!["{\"pong\":true}".to_string()]);
    let stats = client_roundtrip(&addr, "{\"cmd\":\"stats\"}", 1, TIMEOUT).expect("stats");
    assert!(stats[0].contains("\"backends\":1"), "{}", stats[0]);
    // gcco-serve's own metrics client works against a router unmodified.
    let metrics = gcco_api::serve::fetch_metrics(&addr, TIMEOUT).expect("metrics");
    assert!(
        metrics.contains("gcco_router_requests_total"),
        "router metrics must expose gcco_router_* series"
    );
    // Wire shutdown stops the router (run_until_shutdown would return) —
    // and must not shut the backend down.
    gcco_api::serve::send_shutdown(&addr, TIMEOUT).expect("shutdown ack");
    wait_until("router shutdown flag", || router.is_shutting_down());
    router.shutdown();
    let still_up =
        client_roundtrip(&a.local_addr(), "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("backend ping");
    assert_eq!(still_up, vec!["{\"pong\":true}".to_string()]);
    a.shutdown();
}

/// Regression for the router's 25 ms accept-poll floor: 40 sequential
/// round trips on fresh connections took at least a second.
#[test]
fn sequential_pings_through_the_router_pay_no_poll_floor() {
    let a = backend();
    let router = router_over(vec![a.local_addr()]);
    let addr = router.local_addr();
    let start = Instant::now();
    for _ in 0..40 {
        let pong = client_roundtrip(&addr, "{\"cmd\":\"ping\"}", 1, TIMEOUT).expect("ping");
        assert_eq!(pong, vec!["{\"pong\":true}".to_string()]);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "40 fresh-connection pings through the router took {elapsed:?}"
    );
    router.shutdown();
    a.shutdown();
}
