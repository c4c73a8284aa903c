//! The `baseline` request: competing CDR architectures as one evaluation.
//!
//! [`BaselineSpec`] is a plain-data, validated description of one
//! behavioral CDR run — which loop ([`CdrArchKind`]), its gains, the
//! frequency offset, and the jitter environment — and [`BaselineMetric`]
//! picks what to measure: a single tracked run, the empirical capture
//! range (bisected over frequency offset), or one jitter-tolerance point
//! (bisected over SJ amplitude at a fixed frequency). [`run_baseline`]
//! is the pure kernel: deterministic in the spec alone, so the engine
//! journals each response under its canonical cache key and a router
//! shards suites across a cluster bit-identically.
//!
//! This is the quantitative backing for the paper's §1 dismissal of
//! "popular PLL, DLL or phase interpolation techniques": the same
//! request shape measures the bang-bang loop, the Mueller&Müller and
//! Gardner sample-domain loops, and the semi-rotational-FD-assisted
//! bang-bang, and the `baseline_suite` bench bin lines them up against
//! the GCCO.

use crate::error::GccoError;
use gcco_core::{
    BangBangCdr, BangBangConfig, CdrArch, CdrTrace, FdBangBangCdr, MuOmegaCdr, MuOmegaConfig,
    SemiRotFdConfig, TimingDetector,
};
use gcco_signal::{JitterConfig, Prbs, PrbsOrder, SinusoidalJitter};
use gcco_units::{Freq, Ui};

/// Which competing CDR architecture a baseline request exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CdrArchKind {
    /// The bang-bang (Alexander) phase-tracking loop.
    BangBang,
    /// The Mueller&Müller decision-directed timing-recovery loop.
    MuellerMuller,
    /// The Gardner 2×-oversampled timing-recovery loop.
    Gardner,
    /// The bang-bang loop with a semi-rotational frequency-detection
    /// acquisition stage.
    BangBangFd,
}

impl CdrArchKind {
    /// Every architecture, in wire order.
    pub const ALL: [CdrArchKind; 4] = [
        CdrArchKind::BangBang,
        CdrArchKind::MuellerMuller,
        CdrArchKind::Gardner,
        CdrArchKind::BangBangFd,
    ];

    /// Stable wire name (also the obs counter label).
    pub fn wire_name(self) -> &'static str {
        match self {
            CdrArchKind::BangBang => "bang_bang",
            CdrArchKind::MuellerMuller => "mueller_muller",
            CdrArchKind::Gardner => "gardner",
            CdrArchKind::BangBangFd => "bang_bang_fd",
        }
    }

    /// Parses a wire name back into the architecture.
    pub fn from_wire(s: &str) -> Option<CdrArchKind> {
        CdrArchKind::ALL.into_iter().find(|a| a.wire_name() == s)
    }

    /// Single-character cache-key tag.
    pub(crate) fn key_char(self) -> char {
        match self {
            CdrArchKind::BangBang => 'b',
            CdrArchKind::MuellerMuller => 'm',
            CdrArchKind::Gardner => 'g',
            CdrArchKind::BangBangFd => 'f',
        }
    }
}

/// One behavioral CDR run as data: the loop gains, the frequency offset,
/// and the jitter environment it tracks.
///
/// `kp`/`ki` are the proportional and integral loop gains in each
/// architecture's native currency: UI per transition for the bang-bang
/// family, TED gain for the sample-domain loops (where the conventional
/// design point is `kp = 0.05`, `ki = 0.25·kp²`). The sample-domain
/// loops' period clamp is fixed at their typical ±2 %.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineSpec {
    /// PRBS7 bits to track.
    pub bits: u32,
    /// Jitter synthesis seed.
    pub seed: u64,
    /// Channel data rate, Gbit/s.
    pub bit_rate_gbps: f64,
    /// Local clock frequency offset versus the data rate (fraction).
    pub freq_offset: f64,
    /// Proportional loop gain.
    pub kp: f64,
    /// Integral loop gain.
    pub ki: f64,
    /// Sinusoidal-jitter amplitude, UI peak-to-peak (0 disables SJ).
    pub sj_amp_pp: f64,
    /// Sinusoidal-jitter frequency, normalized to the bit rate.
    pub sj_freq_norm: f64,
    /// Random-jitter RMS, UI.
    pub rj_rms_ui: f64,
}

impl BaselineSpec {
    /// The architecture's conventional design point tracking a clean
    /// 2.5 Gbit/s stream for 100 kbit: bang-bang family at
    /// `kp = 0.01, ki = kp/256`, sample-domain loops at
    /// `kp = 0.05, ki = 0.25·kp²`.
    pub fn typical(arch: CdrArchKind) -> BaselineSpec {
        let (kp, ki) = match arch {
            CdrArchKind::BangBang | CdrArchKind::BangBangFd => (0.01, 0.01 / 256.0),
            CdrArchKind::MuellerMuller | CdrArchKind::Gardner => (0.05, 0.25 * 0.05 * 0.05),
        };
        BaselineSpec {
            bits: 100_000,
            seed: 1,
            bit_rate_gbps: 2.5,
            freq_offset: 0.0,
            kp,
            ki,
            sj_amp_pp: 0.0,
            sj_freq_norm: 0.01,
            rj_rms_ui: 0.0,
        }
    }

    /// Validates every field, returning the first offence.
    pub fn validate(&self) -> Result<(), GccoError> {
        let bad = |msg: String| Err(GccoError::InvalidSpec(msg));
        if !(1_000..=5_000_000).contains(&self.bits) {
            return bad(format!(
                "bits must be in [1000, 5000000], got {}",
                self.bits
            ));
        }
        if !(self.bit_rate_gbps.is_finite() && self.bit_rate_gbps > 0.0) {
            return bad(format!(
                "bit_rate_gbps must be positive and finite, got {}",
                self.bit_rate_gbps
            ));
        }
        if !(self.freq_offset.is_finite() && self.freq_offset.abs() <= 0.2) {
            return bad(format!(
                "freq_offset must be finite with |x| <= 0.2, got {}",
                self.freq_offset
            ));
        }
        if !(self.kp.is_finite() && self.kp > 0.0 && self.kp <= 0.5) {
            return bad(format!("kp must be in (0, 0.5], got {}", self.kp));
        }
        if !(self.ki.is_finite() && (0.0..=0.1).contains(&self.ki)) {
            return bad(format!("ki must be in [0, 0.1], got {}", self.ki));
        }
        if !(self.sj_amp_pp.is_finite() && (0.0..=2.0).contains(&self.sj_amp_pp)) {
            return bad(format!(
                "sj_amp_pp must be in [0, 2] UI, got {}",
                self.sj_amp_pp
            ));
        }
        if !(self.sj_freq_norm.is_finite() && self.sj_freq_norm > 0.0 && self.sj_freq_norm <= 0.5) {
            return bad(format!(
                "sj_freq_norm must be in (0, 0.5], got {}",
                self.sj_freq_norm
            ));
        }
        if !(self.rj_rms_ui.is_finite() && (0.0..=0.2).contains(&self.rj_rms_ui)) {
            return bad(format!(
                "rj_rms_ui must be in [0, 0.2], got {}",
                self.rj_rms_ui
            ));
        }
        Ok(())
    }

    fn bit_rate(&self) -> Freq {
        Freq::from_gbps(self.bit_rate_gbps)
    }

    /// The jitter environment of a tracked run, with the SJ amplitude
    /// overridable (the JTOL bisection turns that knob).
    fn jitter(&self, sj_amp_pp: f64) -> JitterConfig {
        let mut jitter = JitterConfig {
            rj_rms: Ui::new(self.rj_rms_ui),
            ..JitterConfig::none()
        };
        if sj_amp_pp > 0.0 {
            jitter = jitter.with_sj(SinusoidalJitter::new(
                Ui::new(sj_amp_pp),
                Freq::from_hz(self.sj_freq_norm * self.bit_rate().hz()),
            ));
        }
        jitter
    }
}

/// What a baseline request measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BaselineMetric {
    /// One tracked run in the spec's jitter environment: lock point,
    /// sampling errors, post-lock residual.
    Track,
    /// Empirical capture range: the largest frequency offset (bisected
    /// over `[0, hi]`, jitter-free) the loop still locks at.
    CaptureRange {
        /// Upper edge of the bisection bracket (fraction of the bit rate).
        hi: f64,
    },
    /// One jitter-tolerance point: the largest SJ amplitude (UI pp,
    /// bisected over [0, 2]) at this normalized frequency that the loop
    /// tracks with zero sampling errors after lock confirmation.
    JtolPoint {
        /// SJ frequency, normalized to the bit rate.
        freq_norm: f64,
    },
}

impl BaselineMetric {
    /// Validates the metric's own parameters.
    pub fn validate(&self) -> Result<(), GccoError> {
        match *self {
            BaselineMetric::Track => Ok(()),
            BaselineMetric::CaptureRange { hi } => {
                if hi.is_finite() && hi > 0.0 && hi <= 0.2 {
                    Ok(())
                } else {
                    Err(GccoError::InvalidSpec(format!(
                        "capture-range hi must be in (0, 0.2], got {hi}"
                    )))
                }
            }
            BaselineMetric::JtolPoint { freq_norm } => {
                if freq_norm.is_finite() && freq_norm > 0.0 && freq_norm <= 0.5 {
                    Ok(())
                } else {
                    Err(GccoError::InvalidSpec(format!(
                        "jtol freq_norm must be in (0, 0.5], got {freq_norm}"
                    )))
                }
            }
        }
    }
}

/// The plain-data result of one baseline evaluation. The trace summary
/// fields describe the metric's final (confirming) run.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineOut {
    /// Lock point in bits, or `None` when the final run never locked.
    pub lock_bits: Option<u64>,
    /// Sampling errors over the final run.
    pub errors: u64,
    /// Loop updates over the final run.
    pub updates: u64,
    /// Post-lock RMS phase error (UI), `None` without a lock.
    pub residual_rms_ui: Option<f64>,
    /// Bisected capture range, for [`BaselineMetric::CaptureRange`].
    pub capture_range: Option<f64>,
    /// Bisected JTOL amplitude (UI pp), for [`BaselineMetric::JtolPoint`].
    pub jtol_amp_pp: Option<f64>,
}

fn build_arch(arch: CdrArchKind, spec: &BaselineSpec, freq_offset: f64) -> Box<dyn CdrArch> {
    let bang_bang = BangBangConfig {
        kp: spec.kp,
        ki: spec.ki,
        freq_offset,
    };
    let mu_omega = |detector| {
        Box::new(MuOmegaCdr::new(
            detector,
            MuOmegaConfig {
                gain_mu: spec.kp,
                gain_omega: spec.ki,
                freq_offset,
                ..MuOmegaConfig::typical()
            },
        ))
    };
    match arch {
        CdrArchKind::BangBang => Box::new(BangBangCdr::new(bang_bang)),
        CdrArchKind::MuellerMuller => mu_omega(TimingDetector::MuellerMuller),
        CdrArchKind::Gardner => mu_omega(TimingDetector::Gardner),
        CdrArchKind::BangBangFd => {
            Box::new(FdBangBangCdr::new(SemiRotFdConfig::typical(), bang_bang))
        }
    }
}

fn track(arch: CdrArchKind, spec: &BaselineSpec, freq_offset: f64, sj_amp_pp: f64) -> CdrTrace {
    let bits = Prbs::new(PrbsOrder::P7).take_bits(spec.bits as usize);
    build_arch(arch, spec, freq_offset).track(
        &bits,
        spec.bit_rate(),
        &spec.jitter(sj_amp_pp),
        spec.seed,
    )
}

impl From<&CdrTrace> for BaselineOut {
    /// The trace summary of one tracked run; no capture or JTOL figure.
    fn from(trace: &CdrTrace) -> BaselineOut {
        BaselineOut {
            lock_bits: trace.lock_bits.map(|b| b as u64),
            errors: trace.errors as u64,
            updates: trace.updates as u64,
            residual_rms_ui: trace.residual_rms(),
            capture_range: None,
            jtol_amp_pp: None,
        }
    }
}

/// Number of bisection refinements the empirical metrics run: enough for
/// three significant digits on every bracket this API accepts.
const BISECT_ITERS: u32 = 12;

/// Evaluates one baseline request. Pure and deterministic in its inputs
/// — the engine relies on that to journal responses under their cache
/// keys and to shard suites across a cluster bit-identically.
///
/// The spec and metric are assumed validated (the request boundary does
/// that); garbage values yield garbage measurements, not panics.
pub fn run_baseline(
    arch: CdrArchKind,
    spec: &BaselineSpec,
    metric: &BaselineMetric,
) -> BaselineOut {
    match *metric {
        BaselineMetric::Track => {
            BaselineOut::from(&track(arch, spec, spec.freq_offset, spec.sj_amp_pp))
        }
        BaselineMetric::CaptureRange { hi } => {
            // Bisect the largest locking offset in [0, hi], jitter-free:
            // capture is a monotone property for every loop here (more
            // offset never helps).
            let locks = |offset: f64| track(arch, spec, offset, 0.0).lock_bits.is_some();
            let (mut lo, mut hi) = (0.0, hi);
            if locks(hi) {
                lo = hi;
            } else {
                for _ in 0..BISECT_ITERS {
                    let mid = 0.5 * (lo + hi);
                    if locks(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            let mut out = BaselineOut::from(&track(arch, spec, lo, 0.0));
            out.capture_range = Some(lo);
            out
        }
        BaselineMetric::JtolPoint { freq_norm } => {
            // Bisect the largest SJ amplitude the loop tracks cleanly at
            // `freq_norm` (a confirmed lock with zero *post-lock* sampling
            // errors — acquisition transients before the lock are detector
            // latency, exactly as a JTOL bench stresses an already-locked
            // receiver), on top of the spec's RJ.
            let probe = BaselineSpec {
                sj_freq_norm: freq_norm,
                ..*spec
            };
            let ok = |amp: f64| {
                let trace = track(arch, &probe, probe.freq_offset, amp);
                trace.post_lock_errors() == Some(0)
            };
            let (mut lo, mut hi) = (0.0, 2.0);
            if ok(hi) {
                lo = hi;
            } else {
                for _ in 0..BISECT_ITERS {
                    let mid = 0.5 * (lo + hi);
                    if ok(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            let mut out = BaselineOut::from(&track(arch, &probe, probe.freq_offset, lo));
            out.jtol_amp_pp = Some(lo);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for arch in CdrArchKind::ALL {
            assert_eq!(CdrArchKind::from_wire(arch.wire_name()), Some(arch));
        }
        assert_eq!(CdrArchKind::from_wire("pll"), None);
    }

    #[test]
    fn typical_specs_validate() {
        for arch in CdrArchKind::ALL {
            BaselineSpec::typical(arch).validate().expect("typical");
        }
    }

    #[test]
    fn validation_rejects_each_field() {
        // Satellite (config-validation bugfix): the core loop used to
        // accept kp <= 0 and non-finite offsets silently; the request
        // boundary now rejects every such field with a structured error.
        let base = BaselineSpec::typical(CdrArchKind::BangBang);
        let cases: Vec<(&str, BaselineSpec)> = vec![
            ("bits", BaselineSpec { bits: 10, ..base }),
            (
                "bit_rate_gbps",
                BaselineSpec {
                    bit_rate_gbps: 0.0,
                    ..base
                },
            ),
            (
                "bit_rate_gbps",
                BaselineSpec {
                    bit_rate_gbps: f64::NAN,
                    ..base
                },
            ),
            (
                "freq_offset",
                BaselineSpec {
                    freq_offset: f64::INFINITY,
                    ..base
                },
            ),
            (
                "freq_offset",
                BaselineSpec {
                    freq_offset: 0.3,
                    ..base
                },
            ),
            ("kp", BaselineSpec { kp: 0.0, ..base }),
            ("kp", BaselineSpec { kp: -0.01, ..base }),
            (
                "kp",
                BaselineSpec {
                    kp: f64::NAN,
                    ..base
                },
            ),
            ("ki", BaselineSpec { ki: -1e-6, ..base }),
            (
                "ki",
                BaselineSpec {
                    ki: f64::INFINITY,
                    ..base
                },
            ),
            (
                "sj_amp_pp",
                BaselineSpec {
                    sj_amp_pp: -0.1,
                    ..base
                },
            ),
            (
                "sj_freq_norm",
                BaselineSpec {
                    sj_freq_norm: 0.0,
                    ..base
                },
            ),
            (
                "rj_rms_ui",
                BaselineSpec {
                    rj_rms_ui: 0.5,
                    ..base
                },
            ),
        ];
        for (field, spec) in cases {
            let err = spec.validate().expect_err(field);
            assert_eq!(err.kind(), "invalid_spec", "{field}");
            assert!(err.detail().contains(field), "{field}: {}", err.detail());
        }
    }

    #[test]
    fn metric_validation_rejects_bad_brackets() {
        assert!(BaselineMetric::Track.validate().is_ok());
        for hi in [0.0, -0.1, 0.5, f64::NAN] {
            assert!(BaselineMetric::CaptureRange { hi }.validate().is_err());
        }
        for freq_norm in [0.0, -1.0, 0.9, f64::NAN] {
            assert!(BaselineMetric::JtolPoint { freq_norm }.validate().is_err());
        }
    }

    #[test]
    fn track_metric_reports_a_lock_for_every_arch() {
        for arch in CdrArchKind::ALL {
            let spec = BaselineSpec {
                bits: 20_000,
                ..BaselineSpec::typical(arch)
            };
            let out = run_baseline(arch, &spec, &BaselineMetric::Track);
            assert!(out.lock_bits.is_some(), "{arch:?}");
            assert!(out.residual_rms_ui.expect("locked") < 0.05, "{arch:?}");
            assert!(out.capture_range.is_none() && out.jtol_amp_pp.is_none());
        }
    }

    #[test]
    fn fd_capture_beats_bare_bang_bang() {
        let metric = BaselineMetric::CaptureRange { hi: 0.1 };
        let spec = |arch| BaselineSpec {
            bits: 30_000,
            ..BaselineSpec::typical(arch)
        };
        let bare = run_baseline(CdrArchKind::BangBang, &spec(CdrArchKind::BangBang), &metric);
        let fd = run_baseline(
            CdrArchKind::BangBangFd,
            &spec(CdrArchKind::BangBangFd),
            &metric,
        );
        assert!(
            fd.capture_range.unwrap() > bare.capture_range.unwrap(),
            "fd {fd:?} vs bare {bare:?}"
        );
    }

    #[test]
    fn jtol_point_is_deterministic_and_bounded() {
        let arch = CdrArchKind::Gardner;
        let spec = BaselineSpec {
            bits: 20_000,
            ..BaselineSpec::typical(arch)
        };
        let metric = BaselineMetric::JtolPoint { freq_norm: 0.01 };
        let a = run_baseline(arch, &spec, &metric);
        let b = run_baseline(arch, &spec, &metric);
        assert_eq!(a, b, "pure kernel must be deterministic");
        let amp = a.jtol_amp_pp.expect("jtol metric");
        assert!((0.0..=2.0).contains(&amp), "{amp}");
    }
}
