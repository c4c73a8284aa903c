//! Single-flight coalescing: N concurrent identical requests against a
//! cold engine perform exactly one computation (one leader, one context
//! build) and every caller receives a bit-identical response — and a
//! leader that *errors* propagates the error to every follower instead of
//! leaving them parked.
//!
//! Timing discipline: followers are only spawned after the obs counters
//! prove the leader has claimed its slot, and the coalesced request is
//! sized to stay in flight for far longer than it takes to park a handful
//! of threads, so the scenario is not a race the test merely hopes to win.

use gcco_api::json::encode_response;
use gcco_api::{DeadlineGuard, Engine, EvalRequest, GccoError, ModelSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FOLLOWERS: usize = 6;

/// A request heavy enough (context build + a dense BER grid) that the
/// leader is still computing while every follower registers: ~2 s in
/// debug builds and ~250 ms in release — either way orders of magnitude
/// longer than parking a handful of threads takes.
fn heavy_request() -> EvalRequest {
    heavy_request_with_rows(40)
}

/// Same shape scaled to `rows` amplitude rows (40 frequency columns each,
/// one cooperative deadline check between rows).
fn heavy_request_with_rows(rows: usize) -> EvalRequest {
    EvalRequest::ber_grid(
        ModelSpec::paper_table1(),
        (1..=rows).map(|i| 0.03 * i as f64).collect(),
        (1..=40).map(|i| 0.01 * i as f64).collect(),
    )
}

/// Spins until `get()` returns at least `want` or the deadline passes.
fn wait_for(what: &str, want: u64, get: impl Fn() -> u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let got = get();
        if got >= want {
            return got;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} >= {want} (at {got})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_computation() {
    let engine = Arc::new(Engine::new());
    let obs = engine.obs().clone();
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.evaluate(&heavy_request()))
    };
    // The leader counter increments before the computation starts, so once
    // it reads 1 the slot is registered and every request below coalesces.
    wait_for("singleflight leaders", 1, || {
        obs.counter("gcco_singleflight_leaders_total").get()
    });
    let followers: Vec<_> = (0..FOLLOWERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.evaluate(&heavy_request()))
        })
        .collect();
    let lead_resp = leader
        .join()
        .expect("leader panicked")
        .expect("grid evaluates");
    let lead_bytes = encode_response(&lead_resp);
    for f in followers {
        let resp = f
            .join()
            .expect("follower panicked")
            .expect("grid evaluates");
        // Byte-compare through the exact wire codec: bit-identical floats
        // or nothing.
        assert_eq!(encode_response(&resp), lead_bytes);
    }
    assert_eq!(
        obs.counter("gcco_singleflight_leaders_total").get(),
        1,
        "every concurrent duplicate must coalesce behind the one leader"
    );
    assert_eq!(
        obs.counter("gcco_singleflight_waits_total").get(),
        FOLLOWERS as u64,
        "each follower parks exactly once"
    );
    assert_eq!(
        engine.context_builds(),
        1,
        "one cold context build serves all {FOLLOWERS} followers"
    );
}

#[test]
fn leader_error_propagates_to_followers_instead_of_hanging() {
    let engine = Arc::new(Engine::new());
    let obs = engine.obs().clone();
    // The leader runs under a deadline far shorter than this 100-row grid
    // takes even in release (~600 ms), so it trips at a between-row
    // check; followers carry no deadline of their own and must still come
    // back with the leader's error.
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine
                .evaluate_with_deadline(&heavy_request_with_rows(100), DeadlineGuard::after_ms(150))
        })
    };
    wait_for("singleflight leaders", 1, || {
        obs.counter("gcco_singleflight_leaders_total").get()
    });
    let followers: Vec<_> = (0..FOLLOWERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.evaluate(&heavy_request_with_rows(100)))
        })
        .collect();
    // Every follower must have parked before the 150 ms deadline trips —
    // otherwise a late arrival would find the slot gone and recompute.
    wait_for("singleflight waits", FOLLOWERS as u64, || {
        obs.counter("gcco_singleflight_waits_total").get()
    });
    assert!(matches!(
        leader.join().expect("leader panicked"),
        Err(GccoError::DeadlineExceeded { deadline_ms: 150 })
    ));
    for f in followers {
        // join() returning at all is the no-deadlock assertion; the
        // result must be the leader's deadline trip, not a recompute.
        assert!(matches!(
            f.join().expect("follower panicked"),
            Err(GccoError::DeadlineExceeded { deadline_ms: 150 })
        ));
    }
    assert_eq!(
        obs.counter("gcco_singleflight_leaders_total").get(),
        1,
        "the error path must not spawn a second leader"
    );
}

#[test]
fn follower_deadline_trips_while_the_leader_computes() {
    let engine = Arc::new(Engine::new());
    let obs = engine.obs().clone();
    // The leader has no deadline and a 100-row grid (~600 ms in release,
    // seconds in debug), far longer than the follower's 50 ms budget.
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.evaluate(&heavy_request_with_rows(100)))
    };
    wait_for("singleflight leaders", 1, || {
        obs.counter("gcco_singleflight_leaders_total").get()
    });
    let started = Instant::now();
    let follower =
        engine.evaluate_with_deadline(&heavy_request_with_rows(100), DeadlineGuard::after_ms(50));
    let waited = started.elapsed();
    assert!(
        matches!(
            follower,
            Err(GccoError::DeadlineExceeded { deadline_ms: 50 })
        ),
        "{follower:?}"
    );
    assert_eq!(obs.counter("gcco_singleflight_waits_total").get(), 1);
    assert!(
        waited >= Duration::from_millis(50),
        "tripped early: {waited:?}"
    );
    // The follower came back on its own deadline, not the leader's publish.
    assert!(!leader.is_finished(), "leader finished first ({waited:?})");
    assert!(leader.join().expect("leader panicked").is_ok());
}
