//! Baseline comparator: a bang-bang (Alexander) PLL-based CDR.
//!
//! The paper's introduction dismisses "popular PLL, DLL or phase
//! interpolation techniques" on power grounds (§1). To make that
//! comparison quantitative, this module implements the classic per-channel
//! alternative — a bang-bang phase-tracking CDR — at the same behavioral
//! level as the statistical GCCO model: per-edge phase updates in UI.
//!
//! The contrast the harness shows:
//!
//! * the **GCCO** realigns *instantaneously* on every transition (infinite
//!   tracking slope, no loop, no lock time) but integrates oscillator
//!   noise between transitions;
//! * the **bang-bang loop** slews at most `kp` UI per transition, so its
//!   jitter tracking rolls off at `f_j ≈ kp·f_trans/(π·A)` — low-frequency
//!   jitter is tracked, fast jitter is not — and it needs a lock
//!   acquisition period, per-channel loop hardware, and a full-rate
//!   phase-adjustable clock (the power cost the paper avoids).

use crate::cdr_arch::{CdrArch, CdrTrace, LockDetector};
use gcco_signal::{BitStream, EdgeStream, JitterConfig};
use gcco_units::{Freq, Ui};

/// Bang-bang CDR loop parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BangBangConfig {
    /// Proportional (phase) step per transition, in UI.
    pub kp: f64,
    /// Integral (frequency) step per transition, in UI per bit.
    pub ki: f64,
    /// Local clock frequency offset versus the data rate (fraction).
    pub freq_offset: f64,
}

impl BangBangConfig {
    /// A conventional design point: kp = 0.01 UI, ki = kp/256.
    pub fn typical() -> BangBangConfig {
        BangBangConfig {
            kp: 0.01,
            ki: 0.01 / 256.0,
            freq_offset: 0.0,
        }
    }
}

impl Default for BangBangConfig {
    fn default() -> BangBangConfig {
        BangBangConfig::typical()
    }
}

/// A bang-bang (Alexander) phase-tracking CDR operating on edge
/// displacements.
///
/// # Examples
///
/// ```
/// use gcco_core::{BangBangCdr, BangBangConfig, CdrArch};
/// use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
/// use gcco_units::Freq;
///
/// let bits = Prbs::new(PrbsOrder::P7).take_bits(5_000);
/// let cdr = BangBangCdr::new(BangBangConfig::typical());
/// let result = cdr.track(&bits, Freq::from_gbps(2.5), &JitterConfig::none(), 1);
/// assert_eq!(result.errors, 0);
/// assert!(result.lock_bits.is_some());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BangBangCdr {
    config: BangBangConfig,
}

impl BangBangCdr {
    /// Creates a CDR with the given loop parameters.
    pub fn new(config: BangBangConfig) -> BangBangCdr {
        BangBangCdr { config }
    }

    /// The loop parameters.
    pub fn config(&self) -> &BangBangConfig {
        &self.config
    }

    /// Approximate jitter-tolerance roll-off of the loop: the maximum SJ
    /// peak-to-peak amplitude (UI) trackable at normalized frequency
    /// `f_norm`, given the average transition density `rho`.
    ///
    /// The bang-bang loop slews at most `kp·rho` UI per UI; a sinusoid of
    /// amplitude `A/2` and frequency `f` has peak slope `π·A·f` UI per UI,
    /// so `A_max = kp·rho/(π·f_norm)` — capped at the half-UI eye limit
    /// for very low frequencies only by the error accumulation, which we
    /// leave to the caller's mask comparison.
    pub fn jtol_slew_limit(&self, f_norm: f64, transition_density: f64) -> Ui {
        assert!(f_norm > 0.0, "invalid frequency {f_norm}");
        Ui::new(self.config.kp * transition_density / (std::f64::consts::PI * f_norm))
    }
}

impl CdrArch for BangBangCdr {
    fn name(&self) -> &'static str {
        "bang-bang"
    }

    /// Tracks a jittered stream. The loop starts half a UI off (worst-case
    /// initial phase) and must acquire; one update per transition.
    fn track(
        &self,
        bits: &BitStream,
        bit_rate: Freq,
        jitter: &JitterConfig,
        seed: u64,
    ) -> CdrTrace {
        let stream = EdgeStream::synthesize(bits, bit_rate, jitter, seed);
        let ui = bit_rate.period();
        let mut theta: f64 = 0.5; // sampling-phase offset error, UI
        let mut freq_word: f64 = 0.0;
        let mut last_edge_bit: f64 = 0.0;
        let mut trace = CdrTrace::with_capacity(stream.edges().len());
        let mut lock = LockDetector::new();

        for edge in stream.edges() {
            let edge_bit = edge.time / ui; // fractional bit index
            let bits_elapsed = (edge_bit - last_edge_bit).max(0.0);
            last_edge_bit = edge_bit;
            // Local clock drift between transitions: frequency offset plus
            // the loop's frequency word.
            theta += (self.config.freq_offset + freq_word) * bits_elapsed;
            // Edge displacement from the ideal grid (what the PD sees).
            let displacement = edge_bit - edge_bit.round();
            let error = displacement - theta;
            trace.updates += 1;
            if error.abs() > 0.5 {
                trace.record_error(trace.updates - 1);
            }
            // Bang-bang update.
            let sign = if error > 0.0 { 1.0 } else { -1.0 };
            theta += self.config.kp * sign;
            freq_word += self.config.ki * sign;
            freq_word = freq_word.clamp(-0.05, 0.05);
            trace.phase_error.push(error);
            // Lock detection: error inside ±0.1 UI for 64 consecutive
            // transitions confirms the lock; the reported lock point is
            // where the error first *entered* the band, not the 64th
            // confirming transition.
            lock.observe(error, edge_bit.round().max(0.0) as usize, trace.updates - 1);
        }
        trace.with_lock(&lock)
    }

    /// The slip-free lock-in range: the proportional path corrects at
    /// most `kp` UI per transition against an offset slipping `ε` UI per
    /// bit, so `ε ≤ kp·ρ` with ρ ≈ 0.5. (Cycle-slip pull-in through the
    /// integrator can slowly reach the ±0.05 frequency-word clamp, but
    /// takes orders of magnitude longer — the FD-assisted variant exists
    /// to make acquisition beyond `kp·ρ` fast and bounded.)
    fn capture_range(&self) -> f64 {
        self.config.kp * 0.5
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

    #[test]
    fn acquires_from_worst_case_phase() {
        let cdr = BangBangCdr::new(BangBangConfig::typical());
        let result = cdr.track(&bits(10_000), rate(), &JitterConfig::none(), 1);
        let lock = result.lock_bits.expect("must lock");
        // kp = 0.01 UI/transition, 0.5 UI to cover, ~0.5 transitions/bit:
        // ≈ 200 bits, plus detector latency.
        assert!(lock < 1_000, "lock took {lock} bits");
        let rms = result
            .residual_rms()
            .expect("locked run has a steady state");
        assert!(rms < 0.05, "{rms}");
    }

    #[test]
    fn gcco_needs_no_acquisition_bang_bang_does() {
        // The architectural contrast: the bang-bang loop spends hundreds of
        // bits acquiring; the gated oscillator is aligned from the very
        // first transition (its "lock time" is one edge-detector delay).
        let cdr = BangBangCdr::new(BangBangConfig::typical());
        let result = cdr.track(&bits(10_000), rate(), &JitterConfig::none(), 1);
        assert!(result.lock_bits.unwrap() > 50);
    }

    #[test]
    fn tracks_low_frequency_jitter() {
        let cdr = BangBangCdr::new(BangBangConfig::typical());
        let jitter = JitterConfig::none().with_sj(SinusoidalJitter::new(
            Ui::new(0.4),
            Freq::from_khz(100.0), // f_norm = 4e-5 — slow
        ));
        let result = cdr.track(&bits(50_000), rate(), &jitter, 2);
        assert_eq!(result.errors, 0, "{result}");
    }

    #[test]
    fn fast_jitter_defeats_the_loop() {
        // Same amplitude at 1/4 the bit rate: far beyond the slew limit.
        let cdr = BangBangCdr::new(BangBangConfig::typical());
        let jitter = JitterConfig::none()
            .with_sj(SinusoidalJitter::new(Ui::new(1.4), Freq::from_mhz(625.0)));
        let result = cdr.track(&bits(50_000), rate(), &jitter, 3);
        assert!(result.errors > 0, "{result}");
    }

    #[test]
    fn frequency_offset_is_absorbed_by_the_integrator() {
        let mut config = BangBangConfig::typical();
        config.freq_offset = 500e-6;
        let cdr = BangBangCdr::new(config);
        let result = cdr.track(&bits(50_000), rate(), &JitterConfig::none(), 4);
        // After lock the integrator cancels the ppm offset.
        let tail = &result.phase_error[result.phase_error.len() / 2..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean.abs() < 0.05, "residual {mean}");
        // The loop starts 0.5 UI off, so a stray decision during
        // acquisition is fair game; post-lock it must be clean.
        assert!(result.errors <= 2, "{result}");
    }

    #[test]
    fn slew_limit_formula() {
        let cdr = BangBangCdr::new(BangBangConfig::typical());
        let a = cdr.jtol_slew_limit(0.001, 0.5);
        let b = cdr.jtol_slew_limit(0.01, 0.5);
        assert!((a.value() / b.value() - 10.0).abs() < 1e-9, "1/f roll-off");
        // GCCO comparison point: at f_norm = 0.01 the gated oscillator
        // tracks ~fully while the bang-bang loop is already below 0.2 UIpp.
        assert!(b.value() < 0.2);
    }

    #[test]
    fn residual_grows_with_rj() {
        let cdr = BangBangCdr::new(BangBangConfig::typical());
        let clean = cdr.track(&bits(30_000), rate(), &JitterConfig::none(), 5);
        let noisy = cdr.track(
            &bits(30_000),
            rate(),
            &JitterConfig {
                rj_rms: Ui::new(0.03),
                ..JitterConfig::none()
            },
            5,
        );
        assert!(noisy.residual_rms().unwrap() > clean.residual_rms().unwrap());
    }

    #[test]
    fn lock_time_excludes_the_confirm_window() {
        // Regression (lock-point bugfix): the detector used to record
        // `lock_bits` at the 64th confirming transition, inflating every
        // reported lock time by the whole confirm window (~128 bits of
        // PRBS7). Pin the lock time on a known frequency-offset run: it
        // must be the band-entry bit, and re-running the same trace must
        // place the 64-transition confirm window entirely after it.
        let mut config = BangBangConfig::typical();
        config.freq_offset = 500e-6;
        let cdr = BangBangCdr::new(config);
        let result = cdr.track(&bits(20_000), rate(), &JitterConfig::none(), 4);
        let lock = result.lock_bits.expect("must lock");
        let entry = result.lock_update.expect("must lock");
        // Entry point is consistent: every one of the 64 confirming
        // transitions after it is inside the ±0.1 UI band.
        for (i, e) in result.phase_error[entry..entry + 64].iter().enumerate() {
            assert!(e.abs() < 0.1, "transition {} out of band: {e}", entry + i);
        }
        // Pinned value for this deterministic run (worst-case 0.5 UI
        // start, kp = 0.01, PRBS7 at seed 4). The pre-fix code reported
        // the bit of the 64th confirming transition instead — the entry
        // bit plus ~128 bits of confirm window at PRBS7 density.
        assert_eq!(lock, 82, "lock-time regression: got {lock}");
        assert!(
            result.phase_error.len() > entry + 64,
            "confirm window fits in the trace"
        );
    }

    #[test]
    fn never_locked_run_reports_no_lock_not_garbage_stats() {
        // Regression (steady-state bugfix): with the integrator disabled
        // and a frequency offset far beyond kp·rho the loop slips cycles
        // forever. `residual_rms` used to fall back to averaging the
        // whole unlocked trace as if it were steady state.
        let config = BangBangConfig {
            kp: 0.01,
            ki: 0.0,
            freq_offset: 0.02,
        };
        let cdr = BangBangCdr::new(config);
        let result = cdr.track(&bits(30_000), rate(), &JitterConfig::none(), 6);
        assert_eq!(result.lock_bits, None, "{result}");
        assert_eq!(result.lock_update, None);
        assert_eq!(result.residual_rms(), None, "no lock ⇒ no steady state");
        let shown = result.to_string();
        assert!(shown.contains("no lock"), "Display must say so: {shown}");
        assert!(!shown.contains("NaN"), "{shown}");
    }
}
