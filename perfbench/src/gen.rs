//! Seeded request generators, one per workload.
//!
//! Every stream is a pure function of its seed: the same seed yields a
//! byte-identical sequence of client calls, so two runs (or two commits)
//! measured with one seed submit exactly the same work. The program under
//! test only ever sees the generated envelopes.

use gcco_api::json::{Envelope, PROTOCOL_VERSION};
use gcco_api::{
    BaselineMetric, BaselineSpec, CdrArchKind, DsimRunSpec, EvalRequest, ModelSpec,
    MultiChannelSpec, OptimizeSpec,
};
use gcco_faults::SplitMix64;
use gcco_stat::SamplingTap;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One warm single-envelope `ber_point` per call, direct to one server.
    PointRtt,
    /// Mixed 48-envelope batches through the router to two backends.
    MixedBatch,
    /// In-process `optimize` calls against a store-backed engine.
    DesignFlow,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PointRtt,
        Workload::MixedBatch,
        Workload::DesignFlow,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRtt => "point_rtt",
            Workload::MixedBatch => "mixed_batch",
            Workload::DesignFlow => "design_flow",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The serve queue capacity every in-process server runs with (the
/// `ServeConfig` default); no generated batch may exceed it.
pub const QUEUE_CAPACITY: usize = 64;

/// Envelopes per `mixed_batch` call, by request kind. The composition is
/// fixed per batch (only the order and the parameters are drawn), so the
/// declared shares hold exactly in every call.
pub const MIXED_MIX: [(&str, usize); 7] = [
    ("ber_point", 18),
    ("ber_grid", 7),
    ("jtol_curve", 5),
    ("dsim_run", 6),
    ("multi_channel", 6),
    ("baseline_bang_bang", 3),
    ("baseline_gardner", 3),
];

/// Distinct model specs `mixed_batch` draws from: more than the engine's
/// 8-context LRU, so warm contexts get evicted and rebuilt.
pub const SPEC_POOL: usize = 12;

/// In every block of this many `design_flow` calls, exactly one repeats
/// an earlier flow: a repeat share of 1/4, well below 1/2, so the p50
/// sits inside the fresh-flow mode rather than between the two modes.
pub const REPEAT_BLOCK: u64 = 4;

/// A uniform draw in `[lo, hi)`.
fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A seed the wire codec carries exactly: JSON numbers parse as `f64`,
/// so integers above 2^53 do not survive the trip.
fn wire_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> 11
}

/// A log-uniform draw in `[lo, hi)`.
fn log_uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * rng.next_f64()).exp()
}

/// One client call: the envelopes of a single `submit_batch` (or, on
/// `design_flow`, the single request handed to `Engine::evaluate`).
pub type Call = Vec<Envelope>;

/// A seeded, endless stream of client calls for one workload.
pub struct Generator {
    workload: Workload,
    rng: SplitMix64,
    next_id: u64,
    calls: u64,
    spec_pool: Vec<ModelSpec>,
    flows: Vec<OptimizeSpec>,
    repeat_slot: u64,
}

impl Generator {
    /// The stream for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        // Decorrelate the workloads: the same seed must not make
        // `mixed_batch` replay `point_rtt`'s draws.
        let salt = match workload {
            Workload::PointRtt => 0x7031,
            Workload::MixedBatch => 0x6d62,
            Workload::DesignFlow => 0x6466,
        };
        Generator {
            workload,
            rng: SplitMix64::new(seed ^ (salt << 48)),
            next_id: 1,
            calls: 0,
            spec_pool: (0..SPEC_POOL).map(pool_spec).collect(),
            flows: Vec::new(),
            repeat_slot: 0,
        }
    }

    fn envelope(&mut self, request: EvalRequest) -> Envelope {
        let id = self.next_id;
        self.next_id += 1;
        Envelope {
            id,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request,
        }
    }

    /// The next call of the stream.
    pub fn next_call(&mut self) -> Call {
        let call = match self.workload {
            Workload::PointRtt => {
                let req = sj_point(&mut self.rng, ModelSpec::paper_table1());
                vec![self.envelope(req)]
            }
            Workload::MixedBatch => self.mixed_batch(),
            Workload::DesignFlow => {
                let opt = self.next_flow();
                vec![self.envelope(EvalRequest::optimize(opt))]
            }
        };
        self.calls += 1;
        call
    }

    fn mixed_batch(&mut self) -> Call {
        let mut kinds: Vec<&str> = MIXED_MIX
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        // Fisher–Yates with the seeded stream: the order varies per call,
        // the composition never does.
        for i in (1..kinds.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            kinds.swap(i, j);
        }
        kinds
            .into_iter()
            .map(|kind| {
                let req = self.mixed_request(kind);
                self.envelope(req)
            })
            .collect()
    }

    fn pool_pick(&mut self) -> ModelSpec {
        let i = self.rng.below(self.spec_pool.len() as u64) as usize;
        self.spec_pool[i].clone()
    }

    /// One request of the named `mixed_batch` kind.
    pub fn mixed_request(&mut self, kind: &str) -> EvalRequest {
        let rng = &mut self.rng;
        match kind {
            "ber_point" => {
                let spec = self.pool_pick();
                sj_point(&mut self.rng, spec)
            }
            "ber_grid" => {
                // The Fig. 9 shape: 7 SJ amplitudes × 9 log-spaced
                // frequencies, with a drawn origin.
                let a0 = uniform(rng, 0.02, 0.08);
                let f0 = log_uniform(rng, 1e-4, 3e-4);
                let amps = (0..7).map(|i| a0 + 0.1 * f64::from(i)).collect();
                let freqs = (0..9).map(|i| f0 * 2f64.powi(i)).collect();
                let spec = self.pool_pick();
                EvalRequest::ber_grid(spec, amps, freqs)
            }
            "jtol_curve" => {
                let f0 = log_uniform(rng, 1e-4, 2e-4);
                let freqs = (0..12).map(|i| f0 * 1.8f64.powi(i)).collect();
                let spec = self.pool_pick();
                EvalRequest::jtol_curve(spec, freqs, 1e-12)
            }
            "dsim_run" => EvalRequest::dsim_run(DsimRunSpec {
                seed: wire_seed(rng),
                jitter_rel: uniform(rng, 0.005, 0.02),
                duration_ns: 400.0,
                ..DsimRunSpec::paper_ring()
            }),
            "multi_channel" => EvalRequest::multi_channel(MultiChannelSpec {
                seed: wire_seed(rng),
                ..MultiChannelSpec::paper_quad()
            }),
            "baseline_bang_bang" => baseline(rng, CdrArchKind::BangBang),
            "baseline_gardner" => baseline(rng, CdrArchKind::Gardner),
            other => panic!("no mixed_batch kind named {other:?}"),
        }
    }

    /// The next `design_flow` optimizer configuration: fresh, or (once per
    /// [`REPEAT_BLOCK`] calls, at a seeded position that is never the
    /// block's first) a repeat of an earlier fresh flow.
    fn next_flow(&mut self) -> OptimizeSpec {
        let pos = self.calls % REPEAT_BLOCK;
        if pos == 0 {
            self.repeat_slot = 1 + self.rng.below(REPEAT_BLOCK - 1);
        }
        if pos == self.repeat_slot {
            let i = self.rng.below(self.flows.len() as u64) as usize;
            return self.flows[i].clone();
        }
        let opt = OptimizeSpec {
            seed: wire_seed(&mut self.rng),
            freq_margin: uniform(&mut self.rng, 0.0015, 0.0025),
            ..OptimizeSpec::paper_flow()
        };
        self.flows.push(opt.clone());
        opt
    }
}

/// The `i`-th spec of the `mixed_batch` pool: the paper's Table 1 jitter
/// with oscillator jitter, frequency offset and sampling tap stepped over
/// a fixed grid. The pool is part of the workload's definition, not of
/// its seed, so every seed spreads its requests over the same contexts
/// and the cost of a run does not hinge on which specs a seed drew.
fn pool_spec(i: usize) -> ModelSpec {
    let tap = if i.is_multiple_of(2) {
        SamplingTap::Standard
    } else {
        SamplingTap::Improved
    };
    ModelSpec {
        ckj_rms: 0.008 + 0.002 * (i % 4) as f64,
        freq_offset: 0.001 * ((i / 4) as f64 - 1.0),
        tap,
        ..ModelSpec::paper_table1()
    }
}

/// A `ber_point` with a drawn sinusoidal-jitter override.
fn sj_point(rng: &mut SplitMix64, spec: ModelSpec) -> EvalRequest {
    let amp = uniform(rng, 0.05, 0.5);
    let freq = log_uniform(rng, 1e-4, 0.2);
    EvalRequest::ber_point_at(spec, amp, freq)
}

/// A `Track` baseline at the architecture's typical design point with a
/// drawn jitter seed.
fn baseline(rng: &mut SplitMix64, arch: CdrArchKind) -> EvalRequest {
    let spec = BaselineSpec {
        seed: wire_seed(rng),
        ..BaselineSpec::typical(arch)
    };
    EvalRequest::baseline(arch, spec, BaselineMetric::Track)
}

/// The label a request is counted under in the mix: the wire kind, split
/// by architecture for baselines.
pub fn mix_label(req: &EvalRequest) -> String {
    match req {
        EvalRequest::Baseline { arch, .. } => format!("baseline_{}", arch.wire_name()),
        other => other.kind().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_api::json::{encode_batch, parse_client_line, ClientLine};
    use std::collections::{BTreeMap, HashSet};

    fn stream(workload: Workload, seed: u64, calls: usize) -> Vec<String> {
        let mut g = Generator::new(workload, seed);
        (0..calls).map(|_| encode_batch(&g.next_call())).collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7, 40), stream(w, 7, 40), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            assert_ne!(stream(w, 7, 8), stream(w, 8, 8), "{}", w.name());
        }
    }

    #[test]
    fn every_generated_request_validates() {
        for w in Workload::ALL {
            let mut g = Generator::new(w, 3);
            for _ in 0..12 {
                for env in g.next_call() {
                    env.request
                        .validate()
                        .expect("generated requests are valid");
                }
            }
        }
    }

    #[test]
    fn every_call_survives_the_wire_codec() {
        for w in Workload::ALL {
            let mut g = Generator::new(w, 19);
            for _ in 0..12 {
                let call = g.next_call();
                let parsed = parse_client_line(&encode_batch(&call)).expect("parses");
                assert_eq!(parsed, ClientLine::Requests(call), "{}", w.name());
            }
        }
    }

    #[test]
    fn ids_are_unique_across_the_run() {
        for w in Workload::ALL {
            let mut g = Generator::new(w, 11);
            let mut seen = HashSet::new();
            for _ in 0..30 {
                for env in g.next_call() {
                    assert!(seen.insert(env.id), "{} reused id {}", w.name(), env.id);
                }
            }
        }
    }

    #[test]
    fn mixed_batch_holds_its_declared_mix_in_every_call() {
        let mut g = Generator::new(Workload::MixedBatch, 5);
        let declared: BTreeMap<String, usize> =
            MIXED_MIX.iter().map(|&(k, n)| (k.to_string(), n)).collect();
        assert_eq!(declared.values().sum::<usize>(), 48);
        for _ in 0..20 {
            let call = g.next_call();
            let mut seen: BTreeMap<String, usize> = BTreeMap::new();
            for env in &call {
                *seen.entry(mix_label(&env.request)).or_default() += 1;
            }
            assert_eq!(seen, declared);
        }
    }

    #[test]
    fn mixed_batch_spec_pool_outgrows_the_context_cache() {
        let g = Generator::new(Workload::MixedBatch, 5);
        let keys: HashSet<String> = g.spec_pool.iter().map(ModelSpec::cache_key).collect();
        assert_eq!(keys.len(), SPEC_POOL);
        assert!(keys.len() > gcco_api::EngineConfig::default().cache_capacity);
    }

    #[test]
    fn point_rtt_sends_one_warm_spec_with_distinct_sj() {
        let mut g = Generator::new(Workload::PointRtt, 9);
        let mut keys = HashSet::new();
        for _ in 0..50 {
            let call = g.next_call();
            assert_eq!(call.len(), 1);
            let EvalRequest::BerPoint { spec, sj } = &call[0].request else {
                panic!("point_rtt sends ber_point only");
            };
            assert_eq!(spec, &ModelSpec::paper_table1());
            assert!(sj.is_some());
            keys.insert(call[0].request.cache_key());
        }
        assert_eq!(keys.len(), 50);
    }

    #[test]
    fn design_flow_repeats_exactly_a_quarter_of_its_calls() {
        let mut g = Generator::new(Workload::DesignFlow, 13);
        let mut seen = HashSet::new();
        let mut repeats = 0usize;
        let calls = 400;
        for _ in 0..calls {
            let call = g.next_call();
            assert_eq!(call.len(), 1);
            assert_eq!(call[0].request.kind(), "optimize");
            if !seen.insert(call[0].request.cache_key()) {
                repeats += 1;
            }
        }
        let share = repeats as f64 / calls as f64;
        assert!((share - 0.25).abs() < 1e-12, "repeat share {share}");
        assert!(
            (share - 0.5).abs() >= 0.2,
            "repeat share must stay away from 1/2"
        );
    }

    #[test]
    fn no_call_exceeds_the_server_queue() {
        for w in Workload::ALL {
            let mut g = Generator::new(w, 17);
            for _ in 0..20 {
                assert!(g.next_call().len() <= QUEUE_CAPACITY, "{}", w.name());
            }
        }
    }
}
