//! Second baseline comparator: a phase-interpolator (PI) CDR.
//!
//! The third alternative the paper's §1 names ("popular PLL, DLL or phase
//! interpolation techniques"): a digital loop that steers a finite-step
//! phase interpolator fed with multi-phase clocks from the shared PLL.
//! Compared with the bang-bang VCO loop it has no per-channel oscillator,
//! but it pays with **phase quantization** (the interpolator has a finite
//! number of steps per UI) and the same slew-limited jitter tracking —
//! and the interpolator, its thermometer DAC and the multi-phase clock
//! distribution are exactly the power the paper's gated oscillator avoids.

use crate::cdr_arch::{CdrArch, CdrTrace, LockDetector};
use gcco_signal::{BitStream, EdgeStream, JitterConfig};
use gcco_units::{Freq, Ui};

/// Phase-interpolator CDR parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PiConfig {
    /// Interpolator steps per UI (64 is a common design point).
    pub steps_per_ui: u32,
    /// Loop update: phase steps moved per early/late decision.
    pub steps_per_update: u32,
    /// Decisions accumulated (majority-voted) per loop update.
    pub decimation: u32,
    /// Local reference offset versus the data rate (fraction); the PI must
    /// rotate continuously to absorb it.
    pub freq_offset: f64,
}

impl PiConfig {
    /// A conventional design point: 64 steps/UI, 1 step per update,
    /// 8:1 decimation.
    pub fn typical() -> PiConfig {
        PiConfig {
            steps_per_ui: 64,
            steps_per_update: 1,
            decimation: 8,
            freq_offset: 0.0,
        }
    }
}

impl Default for PiConfig {
    fn default() -> PiConfig {
        PiConfig::typical()
    }
}

/// A phase-interpolator CDR operating on edge displacements.
///
/// # Examples
///
/// ```
/// use gcco_core::{CdrArch, PhaseInterpCdr, PiConfig};
/// use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
/// use gcco_units::Freq;
///
/// let bits = Prbs::new(PrbsOrder::P7).take_bits(20_000);
/// let cdr = PhaseInterpCdr::new(PiConfig::typical());
/// let trace = cdr.track(&bits, Freq::from_gbps(2.5), &JitterConfig::none(), 1);
/// assert_eq!(trace.errors, 0);
/// assert!(trace.lock_bits.is_some());
/// // Quantization floor: the PI can never sit still, it dithers ±1 step.
/// assert!(trace.residual_rms().unwrap() >= 0.5 / 64.0 * 0.5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PhaseInterpCdr {
    config: PiConfig,
}

impl PhaseInterpCdr {
    /// Creates a PI CDR.
    ///
    /// # Panics
    ///
    /// Panics if `steps_per_ui` is below 4 or `decimation` is zero.
    pub fn new(config: PiConfig) -> PhaseInterpCdr {
        assert!(config.steps_per_ui >= 4, "need at least 4 steps/UI");
        assert!(config.decimation >= 1, "decimation must be at least 1");
        PhaseInterpCdr { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PiConfig {
        &self.config
    }

    /// The loop's largest phase slew, UI per UI at transition density `rho`.
    fn slew_per_ui(&self, rho: f64) -> f64 {
        let cfg = &self.config;
        cfg.steps_per_update as f64 * rho / (cfg.decimation as f64 * cfg.steps_per_ui as f64)
    }

    /// Slew-limited jitter tolerance, like the bang-bang loop but per
    /// decimated update: `A_max = steps_per_update·ρ/(decimation·steps_per_ui·π·f)`.
    pub fn jtol_slew_limit(&self, f_norm: f64, transition_density: f64) -> Ui {
        assert!(f_norm > 0.0, "invalid frequency {f_norm}");
        Ui::new(self.slew_per_ui(transition_density) / (std::f64::consts::PI * f_norm))
    }
}

impl CdrArch for PhaseInterpCdr {
    fn name(&self) -> &'static str {
        "phase-interp"
    }

    /// Tracks a jittered stream, starting half a UI off; one update per
    /// transition, a code step per `decimation` majority-voted updates.
    fn track(
        &self,
        bits: &BitStream,
        bit_rate: Freq,
        jitter: &JitterConfig,
        seed: u64,
    ) -> CdrTrace {
        let cfg = &self.config;
        let stream = EdgeStream::synthesize(bits, bit_rate, jitter, seed);
        let ui = bit_rate.period();
        let step = 1.0 / cfg.steps_per_ui as f64;
        // Interpolator code (phase offset in steps) and residual frequency
        // rotation.
        let mut code: i64 = (0.5 / step) as i64;
        let mut vote: i32 = 0;
        let mut votes_seen: u32 = 0;
        let mut last_edge_bit = 0.0f64;
        let mut frac_rotation = 0.0f64;
        let mut trace = CdrTrace::with_capacity(stream.edges().len());
        let mut lock = LockDetector::new();

        for edge in stream.edges() {
            let edge_bit = edge.time / ui;
            let elapsed = (edge_bit - last_edge_bit).max(0.0);
            last_edge_bit = edge_bit;
            // The fixed reference rotates against the data by the ppm
            // offset; the PI must counter-rotate in integer steps.
            frac_rotation += cfg.freq_offset * elapsed;

            let theta = code as f64 * step + frac_rotation;
            let displacement = edge_bit - edge_bit.round();
            let error = displacement - theta;
            if error.abs() > 0.5 {
                trace.record_error(trace.updates);
            }
            trace.phase_error.push(error);
            lock.observe(error, edge_bit.round().max(0.0) as usize, trace.updates);
            trace.updates += 1;

            // Decimated majority-vote bang-bang update.
            vote += if error > 0.0 { 1 } else { -1 };
            votes_seen += 1;
            if votes_seen == cfg.decimation {
                if vote > 0 {
                    code += cfg.steps_per_update as i64;
                } else if vote < 0 {
                    code -= cfg.steps_per_update as i64;
                }
                vote = 0;
                votes_seen = 0;
            }
        }
        trace.with_lock(&lock)
    }

    /// The rotation-rate cap: the interpolator can counter-rotate at most
    /// its slew at PRBS7 transition density (ρ ≈ 0.5), so a larger
    /// reference offset outruns it.
    fn capture_range(&self) -> f64 {
        self.slew_per_ui(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_signal::{Prbs, PrbsOrder, SinusoidalJitter};

    fn rate() -> Freq {
        Freq::from_gbps(2.5)
    }

    fn bits(n: usize) -> BitStream {
        Prbs::new(PrbsOrder::P7).take_bits(n)
    }

    /// Quantization-induced RMS phase ripple: the standard deviation of
    /// the phase error over the settled second half of the run.
    fn quantization_rms(trace: &CdrTrace) -> f64 {
        let tail = &trace.phase_error[trace.phase_error.len() / 2..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        (tail.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / tail.len() as f64).sqrt()
    }

    #[test]
    fn acquires_and_tracks_clean_data() {
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let trace = cdr.track(&bits(30_000), rate(), &JitterConfig::none(), 1);
        assert_eq!(trace.errors, 0, "{trace}");
        assert!(trace.lock_bits.is_some(), "{trace}");
        // Settled error bounded by a few interpolator steps.
        let tail = &trace.phase_error[trace.phase_error.len() * 3 / 4..];
        assert!(tail.iter().all(|e| e.abs() < 4.0 / 64.0), "{trace}");
    }

    #[test]
    fn quantization_floor_exists() {
        // Unlike the gated oscillator (continuous resync), the PI dithers
        // around the lock point by at least a step.
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let trace = cdr.track(&bits(30_000), rate(), &JitterConfig::none(), 2);
        assert!(quantization_rms(&trace) >= 0.25 / 64.0, "{trace}");
    }

    #[test]
    fn finer_interpolator_reduces_the_floor() {
        let coarse = PhaseInterpCdr::new(PiConfig {
            steps_per_ui: 16,
            ..PiConfig::typical()
        });
        let fine = PhaseInterpCdr::new(PiConfig {
            steps_per_ui: 128,
            ..PiConfig::typical()
        });
        let data = bits(30_000);
        let rc = quantization_rms(&coarse.track(&data, rate(), &JitterConfig::none(), 3));
        let rf = quantization_rms(&fine.track(&data, rate(), &JitterConfig::none(), 3));
        assert!(rf < rc, "{rc} vs {rf}");
    }

    #[test]
    fn ppm_offset_is_absorbed_by_continuous_rotation() {
        let cdr = PhaseInterpCdr::new(PiConfig {
            freq_offset: 200e-6,
            ..PiConfig::typical()
        });
        let trace = cdr.track(&bits(60_000), rate(), &JitterConfig::none(), 4);
        // A handful of decisions can cross ±0.5 UI during the worst-case
        // 0.5 UI acquisition; post-lock there must be none.
        assert!(trace.errors < 20, "{trace}");
        let tail = &trace.phase_error[trace.phase_error.len() / 2..];
        assert!(tail.iter().all(|e| e.abs() < 0.5), "post-lock errors");
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean.abs() < 0.05, "residual {mean}");
    }

    #[test]
    fn excess_offset_outruns_the_rotation() {
        // The PI can rotate at most steps_per_update/(decimation·steps_per_ui)
        // UI per transition ≈ 1/(8·64) ≈ 0.2 % per transition → with ~0.5
        // transition density, offsets beyond ~0.1 % start slipping.
        let cdr = PhaseInterpCdr::new(PiConfig {
            freq_offset: 0.01,
            ..PiConfig::typical()
        });
        let trace = cdr.track(&bits(60_000), rate(), &JitterConfig::none(), 5);
        assert!(trace.errors > 0, "{trace}");
    }

    #[test]
    fn slow_jitter_tracked_fast_jitter_not() {
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let slow =
            JitterConfig::none().with_sj(SinusoidalJitter::new(Ui::new(0.4), Freq::from_khz(50.0)));
        let ok = cdr.track(&bits(60_000), rate(), &slow, 6);
        assert_eq!(ok.errors, 0, "{ok}");
        let fast = JitterConfig::none()
            .with_sj(SinusoidalJitter::new(Ui::new(1.4), Freq::from_mhz(625.0)));
        let bad = cdr.track(&bits(60_000), rate(), &fast, 7);
        assert!(bad.errors > 0, "{bad}");
    }

    #[test]
    fn slew_limit_formula_scales() {
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        let a = cdr.jtol_slew_limit(0.001, 0.5);
        let b = cdr.jtol_slew_limit(0.01, 0.5);
        assert!((a.value() / b.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capture_range_is_the_rotation_cap() {
        let cdr = PhaseInterpCdr::new(PiConfig::typical());
        assert_eq!(cdr.name(), "phase-interp");
        // steps_per_update·ρ/(decimation·steps_per_ui) at ρ = 0.5.
        assert_eq!(cdr.capture_range(), 1.0 * 0.5 / (8.0 * 64.0));
        let fast = PhaseInterpCdr::new(PiConfig {
            steps_per_update: 2,
            decimation: 4,
            ..PiConfig::typical()
        });
        assert_eq!(fast.capture_range(), 4.0 * cdr.capture_range());
    }

    #[test]
    #[should_panic(expected = "at least 4 steps")]
    fn rejects_tiny_interpolator() {
        let _ = PhaseInterpCdr::new(PiConfig {
            steps_per_ui: 2,
            ..PiConfig::typical()
        });
    }
}
