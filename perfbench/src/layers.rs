//! The traced run's per-layer measurements.
//!
//! Counts come from the program's own series (`ServerHandle::obs()`,
//! `RouterHandle::obs()`, `Engine::obs()`); timings come from the
//! benchmark's own stopwatches around public calls, because the
//! `gcco-obs` histograms carry up to 2× bucket error. Every layer is
//! measured on the workload's own requests where it has them. A layer the
//! workload's calls never cross is measured on what the workload would
//! send it: its calls through a probe cluster (two backends and a router)
//! for `serve` and `router`, one seeded design flow run fresh and then
//! repeated on a store-backed engine for `store` and `opt`, and one seeded
//! request per kind for the kernels it lacks.

use crate::gate::{expected_line, verify, References, Verdict};
use crate::gen::{mix_label, Call, Generator, Workload};
use crate::stats::{median, time_us};
use crate::system::{one_thread_engine, submit, timed, Cluster, System};
use crate::trace::Tracer;
use gcco_api::json::{
    encode_batch, encode_result_line, parse_client_line, parse_response, parse_result_line, Json,
};
use gcco_api::serve::{client_roundtrip, ServerHandle};
use gcco_api::CdrArchKind;
use gcco_api::{
    run_baseline, run_optimize, Engine, EvalRequest, EvalResponse, GccoError, ModelSpec,
    OptimizeSpec, ProbeOracle,
};
use gcco_obs::Registry;
use gcco_router::{HashRing, RouterConfig};
use gcco_stat::SweepContext;
use gcco_store::Store;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Counters read from the program's series right after the timed window,
/// before any probe adds to them.
#[derive(Default)]
pub struct Counts {
    /// `gcco_serve_connections_total`, summed over servers.
    pub serve_connections: u64,
    /// `gcco_serve_queue_full_total`, summed over servers.
    pub queue_full: u64,
    /// The largest per-server p50 of `gcco_serve_queue_wait_seconds`.
    pub queue_wait_p50_s: f64,
    /// Warm-context cache hits, summed over engines.
    pub ctx_hits: u64,
    /// Warm-context cache misses, summed over engines.
    pub ctx_misses: u64,
    /// Context builds, summed over engines.
    pub ctx_builds: u64,
    /// Single-flight followers, summed over engines.
    pub singleflight_waits: u64,
    /// `gcco_router_backend_requests_total` per backend.
    pub backend_requests: Vec<u64>,
    /// `gcco_router_failovers_total`.
    pub failovers: u64,
}

fn serve_counts(c: &mut Counts, registries: &[&Registry]) {
    for r in registries {
        c.serve_connections += r.counter("gcco_serve_connections_total").get();
        c.queue_full += r.counter("gcco_serve_queue_full_total").get();
        let h = r.histogram("gcco_serve_queue_wait_seconds");
        if h.count() > 0 {
            c.queue_wait_p50_s = c.queue_wait_p50_s.max(h.quantile(0.5));
        }
    }
}

fn router_counts(c: &mut Counts, cluster: &Cluster) {
    let reg = cluster.router.obs();
    c.backend_requests = cluster
        .backend_addrs()
        .iter()
        .map(|a| {
            reg.counter_with(
                "gcco_router_backend_requests_total",
                "backend",
                &a.to_string(),
            )
            .get()
        })
        .collect();
    c.failovers = reg.counter("gcco_router_failovers_total").get();
}

impl Counts {
    /// Reads every series of `sys`.
    pub fn take(sys: &System) -> Counts {
        let mut c = Counts::default();
        serve_counts(&mut c, &sys.serve_registries());
        for e in sys.engines() {
            let r = e.obs();
            c.ctx_hits += r.counter("gcco_engine_cache_hits_total").get();
            c.ctx_misses += r.counter("gcco_engine_cache_misses_total").get();
            c.ctx_builds += r.counter("gcco_engine_cache_builds_total").get();
            c.singleflight_waits += r.counter("gcco_singleflight_waits_total").get();
        }
        if let System::Routed(cluster) = sys {
            router_counts(&mut c, cluster);
        }
        c
    }
}

/// Everything the timed window left behind.
pub struct Window<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The system the window drove (still running).
    pub sys: &'a System,
    /// Every call, in order.
    pub calls: &'a [Call],
    /// Reference results for every request in `calls`.
    pub refs: &'a References,
    /// Counters read right after the window.
    pub counts: &'a Counts,
    /// The spans of the traced calls.
    pub tracer: &'a Tracer,
    /// Latencies of the untraced calls, ms.
    pub untraced_ms: &'a [f64],
    /// Latencies of the traced calls, ms.
    pub traced_ms: &'a [f64],
    /// `(probes, store_hits)` of every `optimize` reply in the window.
    pub flow_outs: &'a [(u64, u64)],
    /// Successful ops in the window.
    pub ops: u64,
    /// Process CPU spent in the window, ms.
    pub cpu_ms: f64,
    /// A scratch directory inside the checkout.
    pub scratch: &'a Path,
}

/// One per-layer metric.
pub struct Metric {
    /// Its declared name.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The per-layer metrics, the report text, and the gate tally of every
/// reply the probes received.
pub struct Layers {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The human-readable report.
    pub report: String,
    /// The probes' replies, gated like the window's.
    pub verdict: Verdict,
}

/// The request kinds `engine.evaluate_us.<kind>` is reported for.
const KINDS: [&str; 7] = [
    "ber_point",
    "ber_grid",
    "jtol_curve",
    "dsim_run",
    "multi_channel",
    "baseline",
    "optimize",
];

/// Evenly spaced indices: `k` of `0..n` (all of them when `n <= k`).
fn spread(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    (0..k).map(|i| i * n / k).collect()
}

/// Client- and server-side codec cost of one call, µs, with its bytes.
#[derive(Clone, Copy, Default)]
struct JsonCost {
    encode_request: f64,
    parse_request: f64,
    encode_response: f64,
    parse_response: f64,
    request_bytes: f64,
    response_bytes: f64,
}

impl JsonCost {
    fn total_us(&self) -> f64 {
        self.encode_request + self.parse_request + self.encode_response + self.parse_response
    }
}

const ROUNDS: usize = 5;
const MIN_ROUND: Duration = Duration::from_micros(200);

fn json_cost(call: &Call, refs: &References) -> JsonCost {
    let line = encode_batch(call);
    let results: Vec<(u64, &Result<EvalResponse, GccoError>)> = call
        .iter()
        .map(|e| (e.id, &refs[&e.request.cache_key()]))
        .collect();
    let lines: Vec<String> = call
        .iter()
        .map(|e| expected_line(refs, e.id, &e.request))
        .collect();
    JsonCost {
        encode_request: time_us(ROUNDS, MIN_ROUND, || {
            std::hint::black_box(encode_batch(std::hint::black_box(call)));
        }),
        parse_request: time_us(ROUNDS, MIN_ROUND, || {
            std::hint::black_box(parse_client_line(std::hint::black_box(&line)).is_ok());
        }),
        encode_response: time_us(ROUNDS, MIN_ROUND, || {
            for (id, r) in &results {
                std::hint::black_box(encode_result_line(*id, r));
            }
        }),
        parse_response: time_us(ROUNDS, MIN_ROUND, || {
            for l in &lines {
                std::hint::black_box(parse_result_line(std::hint::black_box(l)).is_ok());
            }
        }),
        request_bytes: (line.len() + 1) as f64,
        response_bytes: lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64,
    }
}

fn median_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median ping round trip to `addr`, µs.
fn ping_us(addr: &SocketAddr, n: usize) -> Result<f64, GccoError> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let (r, s) =
            timed(|| client_roundtrip(addr, "{\"cmd\":\"ping\"}", 1, Duration::from_secs(10)));
        r?;
        v.push(s * 1e6);
    }
    Ok(median(&v))
}

/// A probe oracle that answers every optimizer probe from a store,
/// timing each `Store::get` and keeping the records it read.
struct StoreReader<'a> {
    store: &'a Store,
    get_us: Vec<f64>,
    records: Vec<(String, Vec<u8>)>,
}

impl ProbeOracle for StoreReader<'_> {
    fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
        specs
            .iter()
            .map(|spec| {
                let key = EvalRequest::ber_point(spec.clone()).cache_key();
                let (got, s) = timed(|| self.store.get(&key));
                self.get_us.push(s * 1e6);
                let bytes = got
                    .map_err(|e| GccoError::Io(e.to_string()))?
                    .ok_or_else(|| GccoError::Io(format!("probe {key} was not journaled")))?;
                let text =
                    std::str::from_utf8(&bytes).map_err(|e| GccoError::Parse(e.to_string()))?;
                let value = match parse_response(&Json::parse(text)?)? {
                    EvalResponse::Scalar { value } => value,
                    other => return Err(GccoError::Parse(format!("stored {}", other.kind()))),
                };
                self.records.push((key, bytes));
                Ok(value)
            })
            .collect()
    }

    fn store_hits(&self) -> u64 {
        0
    }
}

/// The median time of `Store::append` of `records` into a fresh store
/// under `dir`, µs.
fn scratch_append_us(dir: &Path, records: &[(String, Vec<u8>)]) -> Result<f64, GccoError> {
    let io = |e: std::io::Error| GccoError::Io(e.to_string());
    let store = Store::open(dir).map_err(io)?;
    let mut append = Vec::with_capacity(records.len());
    for (k, v) in records {
        let (r, s) = timed(|| store.append(k, v));
        r.map_err(io)?;
        append.push(s * 1e6);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(median_of(append))
}

/// A serial context for `spec`, as the stat kernels are timed on.
fn build_ctx(spec: &ModelSpec) -> Result<SweepContext, GccoError> {
    Ok(SweepContext::new(spec.build()?).with_workers(1))
}

/// The context for `spec` from `cache`, built on first sight.
fn cached_ctx<'c>(
    cache: &'c mut HashMap<String, SweepContext>,
    spec: &ModelSpec,
) -> Result<&'c SweepContext, GccoError> {
    Ok(match cache.entry(spec.cache_key()) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => v.insert(build_ctx(spec)?),
    })
}

/// One timed in-process evaluation.
struct Timed {
    kind: &'static str,
    /// The first evaluation, on a fresh engine's cache state: what a
    /// server whose contexts were evicted pays.
    first_us: f64,
    /// The median of the warm repeats that follow.
    warm_us: f64,
    response: Result<EvalResponse, GccoError>,
}

/// Times `Engine::evaluate` on each request with one one-thread engine:
/// once as it comes, then repeated warm.
fn time_engine(reqs: &[&EvalRequest]) -> Vec<Timed> {
    let engine = one_thread_engine();
    reqs.iter()
        .map(|req| {
            let (response, s) = timed(|| engine.evaluate(req));
            let warm_us = time_us(2, Duration::from_millis(1), || {
                std::hint::black_box(engine.evaluate(req).is_ok());
            });
            Timed {
                kind: req.kind(),
                first_us: s * 1e6,
                warm_us,
                response,
            }
        })
        .collect()
}

/// Measures every layer for the traced run.
pub fn measure(w: &Window) -> Result<Layers, GccoError> {
    let mut verdict = Verdict::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        })
    };

    // ---- json: the workload's own lines -------------------------------
    let json_idx = spread(w.calls.len(), 48);
    let json: Vec<JsonCost> = json_idx
        .iter()
        .map(|&i| json_cost(&w.calls[i], w.refs))
        .collect();
    let jm = |f: fn(&JsonCost) -> f64| median_of(json.iter().map(f));
    put("json.encode_request_us", jm(|j| j.encode_request), "us");
    put("json.parse_request_us", jm(|j| j.parse_request), "us");
    put("json.encode_response_us", jm(|j| j.encode_response), "us");
    put("json.parse_response_us", jm(|j| j.parse_response), "us");
    put("json.request_bytes", jm(|j| j.request_bytes), "bytes");
    put("json.response_bytes", jm(|j| j.response_bytes), "bytes");

    // ---- engine and kernels: the workload's requests, per kind ---------
    let hop_n = match w.workload {
        Workload::PointRtt => 16,
        Workload::MixedBatch => 4,
        Workload::DesignFlow => 4,
    };
    let hop_idx: Vec<usize> = spread(json_idx.len(), hop_n);
    let mut sample: Vec<&EvalRequest> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &j in &hop_idx {
        for env in &w.calls[json_idx[j]] {
            if seen.insert(env.request.cache_key()) {
                sample.push(&env.request);
            }
        }
    }
    let mut per_label: HashMap<String, usize> = HashMap::new();
    for env in w.calls.iter().flatten() {
        let label = mix_label(&env.request);
        let n = per_label.entry(label).or_default();
        if *n < 6 && seen.insert(env.request.cache_key()) {
            *n += 1;
            sample.push(&env.request);
        }
    }
    // One seeded request for each kind the workload never sends.
    let mut kind_gen = Generator::new(Workload::MixedBatch, w.seed);
    let mut extra: Vec<EvalRequest> = Vec::new();
    for label in [
        "ber_point",
        "ber_grid",
        "jtol_curve",
        "dsim_run",
        "multi_channel",
        "baseline_bang_bang",
        "baseline_gardner",
    ] {
        if !per_label.contains_key(label) {
            extra.push(kind_gen.mixed_request(label));
        }
    }
    if !per_label.contains_key("optimize") {
        extra.push(EvalRequest::optimize(OptimizeSpec {
            seed: w.seed,
            ..OptimizeSpec::paper_flow()
        }));
    }
    sample.extend(extra.iter());
    let timed_reqs = time_engine(&sample);
    let engine_us: HashMap<String, f64> = sample
        .iter()
        .zip(&timed_reqs)
        .map(|(r, t)| (r.cache_key(), t.first_us))
        .collect();
    for kind in KINDS {
        put(
            &format!("engine.evaluate_us.{kind}"),
            median_of(
                timed_reqs
                    .iter()
                    .filter(|t| t.kind == kind)
                    .map(|t| t.warm_us),
            ),
            "us",
        );
    }
    let c = w.counts;
    // Misses rather than hits: every design_flow probe is a new spec, so
    // its hit ratio would read 0 at this commit.
    let attempts = (c.ctx_hits + c.ctx_misses) as f64;
    put(
        "engine.ctx_miss_ratio",
        ratio(c.ctx_misses as f64, attempts),
        "ratio",
    );
    put("engine.context_builds", c.ctx_builds as f64, "count");

    // stat: contexts and kernels called directly.
    let mut specs: Vec<ModelSpec> = Vec::new();
    for r in &sample {
        if let Some(s) = r.model_spec() {
            if !specs.contains(s) && specs.len() < 6 {
                specs.push(s.clone());
            }
        }
    }
    let mut build_ms = Vec::new();
    for s in &specs {
        let (ctx, secs) = timed(|| build_ctx(s));
        ctx?;
        build_ms.push(secs * 1e3);
    }
    put(
        "stat.context_build_ms",
        median_of(build_ms.iter().copied()),
        "ms",
    );
    let (mut sj_us, mut grid_ms, mut jtol_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut dsim_ms = Vec::new();
    let mut dsim_mev = Vec::new();
    let mut base_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut ctx_cache: HashMap<String, SweepContext> = HashMap::new();
    for (req, t) in sample.iter().zip(&timed_reqs) {
        match req {
            EvalRequest::BerPoint { spec, sj: Some(sj) } if sj_us.len() < 32 => {
                let ctx = cached_ctx(&mut ctx_cache, spec)?;
                sj_us.push(time_us(ROUNDS, MIN_ROUND, || {
                    std::hint::black_box(
                        ctx.ber_at_sj(gcco_units::Ui::new(sj.amplitude_pp), sj.freq_norm),
                    );
                }));
            }
            EvalRequest::BerGrid {
                spec,
                amps_pp,
                freqs_norm,
            } if grid_ms.len() < 4 => {
                let ctx = cached_ctx(&mut ctx_cache, spec)?;
                let (_, s) = timed(|| std::hint::black_box(ctx.ber_grid(amps_pp, freqs_norm)));
                grid_ms.push(s * 1e3);
            }
            EvalRequest::JtolCurve {
                spec,
                freqs_norm,
                target_ber,
            } if jtol_ms.len() < 3 => {
                let ctx = cached_ctx(&mut ctx_cache, spec)?;
                let (_, s) =
                    timed(|| std::hint::black_box(ctx.jtol_curve(freqs_norm, *target_ber)));
                jtol_ms.push(s * 1e3);
            }
            EvalRequest::DsimRun { .. } => {
                if let Ok(EvalResponse::Dsim { run }) = &t.response {
                    dsim_ms.push(t.warm_us / 1e3);
                    dsim_mev.push(run.events as f64 / t.warm_us);
                }
            }
            EvalRequest::Baseline { arch, spec, metric } => {
                let v = base_ms.entry(arch.wire_name()).or_default();
                if v.len() < 3 {
                    let (_, s) = timed(|| std::hint::black_box(run_baseline(*arch, spec, metric)));
                    v.push(s * 1e3);
                }
            }
            _ => {}
        }
    }
    put("stat.ber_at_sj_us", median_of(sj_us.iter().copied()), "us");
    put("stat.ber_grid_ms", median_of(grid_ms.iter().copied()), "ms");
    put(
        "stat.jtol_curve_ms",
        median_of(jtol_ms.iter().copied()),
        "ms",
    );
    put("dsim.run_ms", median_of(dsim_ms.iter().copied()), "ms");
    put(
        "dsim.mevents_per_s",
        median_of(dsim_mev.iter().copied()),
        "Mevents/s",
    );
    for arch in [CdrArchKind::BangBang, CdrArchKind::Gardner] {
        put(
            &format!("core.baseline_ms.{}", arch.wire_name()),
            median_of(base_ms.get(arch.wire_name()).into_iter().flatten().copied()),
            "ms",
        );
    }

    // ---- serve and router: the workload's calls, direct and routed -----
    // mixed_batch's window ran through its own cluster; the other
    // workloads send a sample of their calls through a probe cluster.
    let probe = match w.sys {
        System::Routed(_) => None,
        _ => Some(Cluster::start(false)?),
    };
    let cluster = match (w.sys, &probe) {
        (System::Routed(c), _) => c,
        (_, Some(p)) => p,
        _ => unreachable!("a probe cluster exists whenever the system is not routed"),
    };
    let ring = HashRing::new(cluster.backends.len(), RouterConfig::default().vnodes);
    let backends = cluster.backend_addrs();
    let backend_regs: Vec<&Registry> = cluster.backends.iter().map(ServerHandle::obs).collect();
    let router_addr = cluster.router.local_addr();
    let (mut routed_ms, mut direct_ms) = (Vec::new(), Vec::new());
    let (mut engine_crit_ms, mut serve_self_us) = (Vec::new(), Vec::new());
    // Untimed first pass: build the probe cluster's contexts so both
    // paths see the same warm state.
    if probe.is_some() {
        for &j in &hop_idx {
            let call = &w.calls[json_idx[j]];
            verdict.absorb(verify(call, &submit(&router_addr, call), w.refs));
        }
    }
    let connections = |regs: &[&Registry]| -> u64 {
        regs.iter()
            .map(|r| r.counter("gcco_serve_connections_total").get())
            .sum()
    };
    let connections_before = connections(&backend_regs);
    let mut delivered = 0u64;
    for (n, &j) in hop_idx.iter().enumerate() {
        let call = &w.calls[json_idx[j]];
        let mut groups: Vec<Call> = vec![Vec::new(); backends.len()];
        for env in call {
            groups[ring.primary(&env.request.cache_key())].push(env.clone());
        }
        let routed = || {
            let (reply, s) = timed(|| submit(&router_addr, call));
            (verify(call, &reply, w.refs), s)
        };
        let direct = || {
            timed(|| {
                std::thread::scope(|sc| {
                    let handles: Vec<_> = groups
                        .iter()
                        .enumerate()
                        .filter(|(_, g)| !g.is_empty())
                        .map(|(b, g)| {
                            let addr = backends[b];
                            sc.spawn(move || verify(g, &submit(&addr, g), w.refs))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("direct probe thread panicked"))
                        .collect::<Vec<_>>()
                })
            })
        };
        let ((rv, rs), (dv, ds)) = if n % 2 == 0 {
            let r = routed();
            (r, direct())
        } else {
            let d = direct();
            (routed(), d)
        };
        verdict.absorb(rv);
        dv.into_iter().for_each(|v| verdict.absorb(v));
        // Each envelope reached a backend once routed and once direct.
        delivered += 2 * call.len() as u64;
        routed_ms.push(rs * 1e3);
        direct_ms.push(ds * 1e3);
        let engine_crit = groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|e| engine_us[&e.request.cache_key()])
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        engine_crit_ms.push(engine_crit / 1e3);
        serve_self_us.push(ds * 1e6 - engine_crit - json[j].total_us());
    }
    let probe_p50 = ProbeP50 {
        routed_ms: median_of(routed_ms.iter().copied()),
        direct_ms: median_of(direct_ms.iter().copied()),
        engine_crit_ms: median_of(engine_crit_ms.iter().copied()),
    };
    put(
        "router.hop_ms",
        probe_p50.routed_ms - probe_p50.direct_ms,
        "ms",
    );
    put(
        "serve.self_us",
        median_of(serve_self_us.iter().copied()),
        "us",
    );

    // Serve counts from the servers that carried the window's calls, or,
    // on design_flow, whose caller opens no connection and queues
    // nothing, from the probe backends over the timed passes.
    let (connections_per_op, queue_wait_s) = match w.sys {
        System::InProcess { .. } => {
            let mut pc = Counts::default();
            serve_counts(&mut pc, &backend_regs);
            let opened = connections(&backend_regs) - connections_before;
            (ratio(opened as f64, delivered as f64), pc.queue_wait_p50_s)
        }
        _ => (
            ratio(c.serve_connections as f64, w.ops as f64),
            c.queue_wait_p50_s,
        ),
    };
    put("serve.connections_per_op", connections_per_op, "count");
    put("serve.queue_wait_s", queue_wait_s, "s");
    // Router counts from the router that carried the workload's calls:
    // its own on mixed_batch, the probe cluster's elsewhere.
    let mut rc = Counts::default();
    let router_c = match &probe {
        Some(p) => {
            router_counts(&mut rc, p);
            &rc
        }
        None => c,
    };
    let br: Vec<f64> = router_c
        .backend_requests
        .iter()
        .map(|&x| x as f64)
        .collect();
    let mean = br.iter().sum::<f64>() / br.len().max(1) as f64;
    put(
        "router.backend_share",
        ratio(br.iter().copied().fold(0.0, f64::max), mean),
        "ratio",
    );
    let failovers = router_c.failovers;
    // Pings last, so the connection counts above hold only calls.
    let serve_addr = match w.sys {
        System::Direct(s) => s.local_addr(),
        _ => backends[0],
    };
    put("serve.ping_rtt_us", ping_us(&serve_addr, 20)?, "us");
    put("router.ping_rtt_us", ping_us(&router_addr, 20)?, "us");
    if let Some(p) = probe {
        p.shutdown();
    }

    // ---- store and opt -------------------------------------------------
    // design_flow's own store and flows; elsewhere one seeded flow, run
    // fresh and then repeated on a store-backed engine on a scratch
    // directory, as design_flow's repeats are.
    let io = |e: std::io::Error| GccoError::Io(e.to_string());
    let seeded_flow = OptimizeSpec {
        seed: w.seed,
        ..OptimizeSpec::paper_flow()
    };
    let flow_engine;
    let (engine, flows, flow_specs): (&Engine, Vec<(u64, u64)>, Vec<&OptimizeSpec>) = match w.sys {
        System::InProcess { engine, .. } => {
            let specs = w
                .calls
                .iter()
                .flatten()
                .filter_map(|e| match &e.request {
                    EvalRequest::Optimize { opt } => Some(opt),
                    _ => None,
                })
                .take(2)
                .collect();
            (engine, w.flow_outs.to_vec(), specs)
        }
        _ => {
            let store = Store::open(w.scratch.join("flow-store")).map_err(io)?;
            flow_engine = one_thread_engine().with_store(Arc::new(store));
            let req = EvalRequest::optimize(seeded_flow.clone());
            let mut flows = Vec::new();
            for _ in 0..2 {
                match flow_engine.evaluate(&req)? {
                    EvalResponse::Optimize { out } => flows.push((out.probes, out.store_hits)),
                    other => {
                        return Err(GccoError::Parse(format!(
                            "optimize answered {}",
                            other.kind()
                        )))
                    }
                }
            }
            (&flow_engine, flows, vec![&seeded_flow])
        }
    };
    let store = engine
        .store()
        .expect("the flows ran on a store-backed engine");
    let mut reader = StoreReader {
        store,
        get_us: Vec::new(),
        records: Vec::new(),
    };
    for opt in flow_specs {
        run_optimize(opt, &mut reader)?;
    }
    let append_us = scratch_append_us(&w.scratch.join("store-probe"), &reader.records)?;
    let journal_bytes = std::fs::metadata(store.journal_path()).map_err(io)?.len();
    let obs = engine.obs();
    let store_hits = obs.counter("gcco_store_hits_total").get() as f64;
    let store_misses = obs.counter("gcco_store_misses_total").get() as f64;
    put(
        "store.get_us",
        median_of(reader.get_us.iter().copied()),
        "us",
    );
    put("store.append_us", append_us, "us");
    put(
        "store.hit_ratio",
        ratio(store_hits, store_hits + store_misses),
        "ratio",
    );
    put("store.journal_bytes", journal_bytes as f64, "bytes");
    let nflows = flows.len().max(1) as f64;
    put(
        "opt.probes_per_flow",
        flows.iter().map(|f| f.0 as f64).sum::<f64>() / nflows,
        "count",
    );
    put(
        "opt.store_hits_per_flow",
        flows.iter().map(|f| f.1 as f64).sum::<f64>() / nflows,
        "count",
    );

    // ---- proc and trace ------------------------------------------------
    put("proc.cpu_ms_per_op", ratio(w.cpu_ms, w.ops as f64), "ms");
    let untraced = median_of(w.untraced_ms.iter().copied());
    let traced = median_of(w.traced_ms.iter().copied());
    put(
        "trace.overhead_pct",
        100.0 * ratio(traced - untraced, untraced),
        "%",
    );

    let get = |name: &str| {
        m.iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };
    let report = report(w, &get, untraced, &probe_p50, failovers, &json, &timed_reqs);
    Ok(Layers {
        metrics: m,
        report,
        verdict,
    })
}

/// Medians of the direct/routed probe of the workload's calls.
struct ProbeP50 {
    routed_ms: f64,
    direct_ms: f64,
    /// Per call, the largest per-backend sum of in-process engine times.
    engine_crit_ms: f64,
}

/// Whether `measured` lies within ±15 % of the figure range `[lo, hi]`.
fn holds(measured: f64, lo: f64, hi: f64) -> &'static str {
    if measured >= lo * 0.85 && measured <= hi * 1.15 {
        "holds"
    } else {
        "does not hold"
    }
}

/// The traced report: each layer's self-time share of the window's
/// `latency_p50_ms`, the tracing overhead, and the serve-path figures of
/// ROADMAP item 1 beside this run's.
fn report(
    w: &Window,
    get: &dyn Fn(&str) -> f64,
    p50_ms: f64,
    probe: &ProbeP50,
    failovers: u64,
    json: &[JsonCost],
    timed_reqs: &[Timed],
) -> String {
    let mut r = String::new();
    let name = w.workload.name();
    let _ = writeln!(r, "# perfbench traced report: {name}, seed {}", w.seed);
    let _ = writeln!(
        r,
        "\nWindow: {} untraced and {} traced calls, interleaved. latency p50 {:.3} ms untraced, \
         {:.3} ms traced; tracing overhead {:+.2} % ({} spans kept).",
        w.untraced_ms.len(),
        w.traced_ms.len(),
        p50_ms,
        median_of(w.traced_ms.iter().copied()),
        get("trace.overhead_pct"),
        w.tracer.spans.len(),
    );
    let mut children: Vec<&str> = w
        .tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.name)
        .collect();
    children.sort_unstable();
    children.dedup();
    let _ = write!(r, "Client spans, median per traced call:");
    for name in children {
        let _ = write!(r, " {name} {:.1} us,", median_of(w.tracer.durations(name)));
    }
    let _ = writeln!(
        r,
        " call self {:.1} us.",
        median_of(w.tracer.call_self_us())
    );
    let json_ms = median_of(json.iter().map(JsonCost::total_us)) / 1e3;
    let mut rows: Vec<(&str, f64)> = Vec::new();
    match w.workload {
        Workload::PointRtt => {
            let engine = get("engine.evaluate_us.ber_point") / 1e3;
            rows.push(("json (client + server codec)", json_ms));
            rows.push(("engine + stat (warm ber_point)", engine));
            rows.push((
                "serve (connect, accept, queue, read, write)",
                p50_ms - json_ms - engine,
            ));
        }
        Workload::MixedBatch => {
            let hop = get("router.hop_ms");
            let engine = probe.engine_crit_ms;
            rows.push(("router hop", hop));
            rows.push(("engine + kernels (critical backend)", engine));
            rows.push(("json (client + server codec)", json_ms));
            rows.push(("serve", p50_ms - hop - engine - json_ms));
        }
        Workload::DesignFlow => {
            let probes = get("opt.probes_per_flow");
            let hits = get("opt.store_hits_per_flow");
            let fresh = probes - hits;
            let stat = fresh * (get("stat.context_build_ms") + get("stat.ber_at_sj_us") / 1e3);
            let store = (hits * get("store.get_us") + fresh * get("store.append_us")) / 1e3;
            rows.push(("stat (context builds + kernel, fresh probes)", stat));
            rows.push(("store (gets of hits, appends of fresh probes)", store));
            rows.push(("opt + engine (the rest)", p50_ms - stat - store));
        }
    }
    let _ = writeln!(
        r,
        "\n## Self-time share of latency_p50_ms ({p50_ms:.3} ms)\n"
    );
    let _ = writeln!(r, "| layer | self time (ms) | share |\n|---|---|---|");
    for (layer, ms) in &rows {
        let _ = writeln!(r, "| {layer} | {ms:.3} | {:.1} % |", 100.0 * ms / p50_ms);
    }
    let _ = writeln!(
        r,
        "\nShares are medians of each layer's own timing set against the window p50; \
         they need not sum to exactly 100 %."
    );

    let (routed_ms, direct_ms) = (probe.routed_ms, probe.direct_ms);
    let _ = writeln!(r, "\n## ROADMAP item 1 figures beside this run\n");
    let _ = writeln!(r, "A figure holds when this run is within ±15 % of it.\n");
    let _ = writeln!(
        r,
        "| figure | ROADMAP | this run | verdict |\n|---|---|---|---|"
    );
    let sj = get("stat.ber_at_sj_us");
    let _ = writeln!(
        r,
        "| SweepContext::ber_at_sj kernel | 65–70 us | {sj:.1} us | {} |",
        holds(sj, 65.0, 70.0)
    );
    let engine_bp = get("engine.evaluate_us.ber_point");
    let _ = writeln!(
        r,
        "| Engine::evaluate on top of the kernel | too small to measure | {:.1} us | {} |",
        engine_bp - sj,
        if engine_bp - sj < 0.5 * sj {
            "holds"
        } else {
            "does not hold"
        }
    );
    let single =
        w.calls.first().is_some_and(|c| c.len() == 1) && w.workload != Workload::DesignFlow;
    let (parse, encode, bytes) = (
        get("json.parse_request_us"),
        get("json.encode_request_us"),
        get("json.request_bytes"),
    );
    if single {
        let _ = writeln!(
            r,
            "| envelope parse / encode (357 B) | 6.6 / 2.2 us | {parse:.2} / {encode:.2} us ({bytes:.0} B) | {} / {} |",
            holds(parse, 6.6, 6.6),
            holds(encode, 2.2, 2.2)
        );
        let resp = get("json.encode_response_us").max(get("json.parse_response_us"));
        let _ = writeln!(
            r,
            "| response encode / parse | < 1 us | {:.2} / {:.2} us | {} |",
            get("json.encode_response_us"),
            get("json.parse_response_us"),
            if resp < 1.0 { "holds" } else { "does not hold" }
        );
        let _ = writeln!(
            r,
            "| single-envelope round trip, gcco-serve | 25.2 ms | {p50_ms:.2} ms | {} |",
            holds(p50_ms, 25.2, 25.2)
        );
        let _ = writeln!(
            r,
            "| single-envelope round trip, via gcco-router | 31 ms | {routed_ms:.2} ms | {} |",
            holds(probe.routed_ms, 31.0, 31.0)
        );
    } else {
        let _ = writeln!(
            r,
            "| envelope codec and single-envelope round trips | see point_rtt | \
             this workload's lines are {bytes:.0} B, its calls routed {routed_ms:.2} ms / direct \
             {direct_ms:.2} ms | n/a |"
        );
    }
    let c = w.counts;
    let _ = writeln!(
        r,
        "\n## Counts kept out of the metrics\n\nThese are 0 by construction at this \
         commit, or are the base of a ratio: serve queue_full {} (one client, batches within \
         the queue), router failovers {failovers} (no faults), single-flight waits {} (one \
         closed-loop client), context-cache attempts {} (the base of engine.ctx_miss_ratio).",
        c.queue_full,
        c.singleflight_waits,
        c.ctx_hits + c.ctx_misses,
    );
    let _ = writeln!(r, "\n## Per-layer metrics\n");
    let _ = writeln!(
        r,
        "Engine timings cover {} in-process evaluations of this workload's requests \
         (kinds it never sends use one seeded request each).\n",
        timed_reqs.len()
    );
    r
}
