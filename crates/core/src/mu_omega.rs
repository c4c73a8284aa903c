//! Sample-domain timing-recovery baselines: one second-order mu/omega
//! loop around a choice of timing-error detector (TED).
//!
//! Both detectors sample a band-limited NRZ waveform at the strobe `t`
//! (in UI) and feed their error `e` into the same loop, after libdsp's
//! `ClockRecoveryMMCC` and SatDump's `GardnerClockRecoveryBlock`:
//!
//! ```text
//! omega ← clamp(omega + gain_omega·e, omega_mid ± omega_mid·omega_limit)
//! t     ← t + omega + gain_mu·e
//! ```
//!
//! * **Mueller&Müller** — decision-directed, one sample per symbol:
//!   `e = d[n−1]·x[n] − d[n]·x[n−1]` from the slicer decisions `d` and the
//!   sampled amplitudes `x`. Against the GCCO this is the "maximum
//!   hardware" corner: an ADC-grade sampler, a per-channel second-order
//!   loop, and an interpolator or phase-adjustable clock.
//! * **Gardner** — non-decision-aided, two samples per symbol: the strobe
//!   `x` and a midpoint `x_mid` half a symbol earlier give
//!   `e = −x_mid·(x − x_prev)`. (Gardner's own error `x_mid·(x − x_prev)`
//!   is positive when sampling late; the negation here lets both
//!   detectors share the update above.) It acquires with a closed eye but
//!   pays double the sampling rate — precisely the power axis the paper's
//!   gated-oscillator CDR removes.
//!
//! Either loop still acquires over tens of bits where the gated
//! oscillator realigns on the first transition.

use crate::cdr_arch::{CdrArch, CdrTrace, LockDetector, NrzWaveform};
use gcco_signal::{BitStream, EdgeStream, JitterConfig};
use gcco_units::Freq;

/// The timing-error detector a [`MuOmegaCdr`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingDetector {
    /// Mueller&Müller: decision-directed, one sample per symbol.
    MuellerMuller,
    /// Gardner: non-decision-aided, two samples per symbol.
    Gardner,
}

/// Mu/omega loop parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MuOmegaConfig {
    /// Proportional (timing) gain on the TED output.
    pub gain_mu: f64,
    /// Integral (symbol-period) gain on the TED output.
    pub gain_omega: f64,
    /// Relative bound on the symbol-period estimate around its center
    /// (`omega_mid·omega_limit`) — this *is* the loop's capture range.
    pub omega_limit: f64,
    /// Local clock frequency offset versus the data rate (fraction): the
    /// loop's initial (and center) period estimate is `1 + freq_offset` UI.
    pub freq_offset: f64,
}

impl MuOmegaConfig {
    /// A conventional design point: gain_mu = 0.05, the critically damped
    /// gain_omega = 0.25·gain_mu², ±2 % period pull range.
    pub fn typical() -> MuOmegaConfig {
        MuOmegaConfig {
            gain_mu: 0.05,
            gain_omega: 0.25 * 0.05 * 0.05,
            omega_limit: 0.02,
            freq_offset: 0.0,
        }
    }
}

impl Default for MuOmegaConfig {
    fn default() -> MuOmegaConfig {
        MuOmegaConfig::typical()
    }
}

/// A sample-domain timing-recovery loop: the mu/omega update around a
/// Mueller&Müller or Gardner detector.
///
/// # Examples
///
/// ```
/// use gcco_core::{CdrArch, MuOmegaCdr, MuOmegaConfig, TimingDetector};
/// use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
/// use gcco_units::Freq;
///
/// let bits = Prbs::new(PrbsOrder::P7).take_bits(5_000);
/// for detector in [TimingDetector::MuellerMuller, TimingDetector::Gardner] {
///     let cdr = MuOmegaCdr::new(detector, MuOmegaConfig::typical());
///     let trace = cdr.track(&bits, Freq::from_gbps(2.5), &JitterConfig::none(), 1);
///     assert!(trace.lock_bits.is_some());
/// }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MuOmegaCdr {
    detector: TimingDetector,
    config: MuOmegaConfig,
}

impl MuOmegaCdr {
    /// Creates a loop with the given detector and parameters.
    pub fn new(detector: TimingDetector, config: MuOmegaConfig) -> MuOmegaCdr {
        MuOmegaCdr { detector, config }
    }

    /// The loop parameters.
    pub fn config(&self) -> &MuOmegaConfig {
        &self.config
    }
}

impl CdrArch for MuOmegaCdr {
    fn name(&self) -> &'static str {
        match self.detector {
            TimingDetector::MuellerMuller => "mueller-muller",
            TimingDetector::Gardner => "gardner",
        }
    }

    fn track(
        &self,
        bits: &BitStream,
        bit_rate: Freq,
        jitter: &JitterConfig,
        seed: u64,
    ) -> CdrTrace {
        let stream = EdgeStream::synthesize(bits, bit_rate, jitter, seed);
        let wave = NrzWaveform::new(&stream, NrzWaveform::DEFAULT_RISE_UI);
        let n = bits.bits().len();
        let omega_mid = 1.0 + self.config.freq_offset;
        let omega_lo = omega_mid * (1.0 - self.config.omega_limit);
        let omega_hi = omega_mid * (1.0 + self.config.omega_limit);
        let mut omega = omega_mid;
        // Start a quarter UI late of bit 0's center: a representative
        // (non-pathological) acquisition offset for a sample-domain TED.
        let mut t = 0.75;
        let mut x_prev = 0.0;
        // No decision precedes the first strobe, so M&M's first error is 0.
        let mut d_prev = 0.0;
        let mut trace = CdrTrace::with_capacity(n);
        let mut lock = LockDetector::new();

        while t < n as f64 - 1.0 {
            let x = wave.sample(t);
            let d = if x >= 0.0 { 1.0 } else { -1.0 };
            // Signed for the shared update: e > 0 means sampling early.
            let e = match self.detector {
                TimingDetector::MuellerMuller => d_prev * x - d * x_prev,
                TimingDetector::Gardner => -wave.sample(t - omega / 2.0) * (x - x_prev),
            };
            // Phase error and decided bit, for the common trace currency.
            let centered = t - 0.5;
            let k = centered.round().max(0.0) as usize;
            let err = centered - centered.round();
            trace.phase_error.push(err);
            // Sampling error: the slicer missed the nearest bit, or the
            // strobe left the quarter-UI eye margin (a slipping loop
            // slices each bit it lands in correctly — the damage is
            // framing, which the phase excursion exposes).
            if k >= n || (x >= 0.0) != bits.bits()[k] || err.abs() > 0.25 {
                trace.record_error(trace.updates);
            }
            lock.observe(err, k, trace.updates);
            trace.updates += 1;
            omega = (omega + self.config.gain_omega * e).clamp(omega_lo, omega_hi);
            t += omega + self.config.gain_mu * e;
            x_prev = x;
            d_prev = d;
        }
        trace.with_lock(&lock)
    }

    /// The omega clamp is the capture range: the loop can cancel a
    /// relative frequency offset only while `1.0` stays inside
    /// `omega_mid ± omega_mid·omega_limit`.
    fn capture_range(&self) -> f64 {
        self.config.omega_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_signal::{Prbs, PrbsOrder};
    use gcco_units::Ui;

    const DETECTORS: [TimingDetector; 2] = [TimingDetector::MuellerMuller, TimingDetector::Gardner];

    fn rate() -> Freq {
        Freq::from_gbps(2.5)
    }

    fn bits(n: usize) -> BitStream {
        Prbs::new(PrbsOrder::P7).take_bits(n)
    }

    fn cdr(detector: TimingDetector, freq_offset: f64) -> MuOmegaCdr {
        MuOmegaCdr::new(
            detector,
            MuOmegaConfig {
                freq_offset,
                ..MuOmegaConfig::typical()
            },
        )
    }

    #[test]
    fn converges_on_clean_prbs() {
        // Documented bound: from 0.25 UI initial offset at gain_mu = 0.05
        // the loop reaches the ±0.1 band within ~tens of symbols; allow
        // 500 bits with margin.
        for detector in DETECTORS {
            let trace = cdr(detector, 0.0).track(&bits(10_000), rate(), &JitterConfig::none(), 1);
            let lock = trace.lock_bits.expect("must lock");
            assert!(lock < 500, "{detector:?}: lock took {lock} bits");
            assert!(trace.residual_rms().expect("locked") < 0.05, "{detector:?}");
            assert_eq!(trace.errors, 0, "{detector:?}: {trace}");
        }
    }

    #[test]
    fn absorbs_offset_inside_the_omega_clamp() {
        for detector in DETECTORS {
            // Half the ±2 % clamp.
            let trace = cdr(detector, 0.01).track(&bits(30_000), rate(), &JitterConfig::none(), 2);
            assert!(trace.lock_bits.is_some(), "{detector:?}: {trace}");
            assert!(trace.residual_rms().expect("locked") < 0.1, "{detector:?}");
        }
    }

    #[test]
    fn offset_beyond_the_clamp_defeats_the_loop() {
        for detector in DETECTORS {
            // 2.5× the clamp: unreachable period.
            let trace = cdr(detector, 0.05).track(&bits(30_000), rate(), &JitterConfig::none(), 2);
            assert!(trace.errors > 0, "{detector:?}: {trace}");
        }
    }

    #[test]
    fn rj_raises_the_residual() {
        let rj = JitterConfig {
            rj_rms: Ui::new(0.02),
            ..JitterConfig::none()
        };
        for detector in DETECTORS {
            let cdr = cdr(detector, 0.0);
            let clean = cdr.track(&bits(20_000), rate(), &JitterConfig::none(), 3);
            let noisy = cdr.track(&bits(20_000), rate(), &rj, 3);
            assert!(
                noisy.residual_rms().unwrap() > clean.residual_rms().unwrap(),
                "{detector:?}"
            );
        }
    }

    #[test]
    fn typical_traces_are_pinned() {
        // Exact traces of both detectors at their typical config, 10 kbit
        // PRBS7, seed 1: any change to the update or a detector's sign
        // moves the residual's bits.
        let pins = [
            (
                TimingDetector::MuellerMuller,
                "mueller-muller",
                21,
                0x3f6d_e5d9_a888_5c27_u64,
            ),
            (
                TimingDetector::Gardner,
                "gardner",
                20,
                0x3f67_60ce_a0ff_9608_u64,
            ),
        ];
        for (detector, name, lock, rms_bits) in pins {
            let cdr = cdr(detector, 0.0);
            let trace = cdr.track(&bits(10_000), rate(), &JitterConfig::none(), 1);
            assert_eq!(cdr.name(), name);
            assert_eq!(trace.lock_bits, Some(lock), "{name}");
            assert_eq!(trace.lock_update, Some(lock), "{name}");
            assert_eq!(trace.errors, 0, "{name}");
            assert_eq!(trace.updates, 9_999, "{name}");
            assert_eq!(trace.residual_rms().unwrap().to_bits(), rms_bits, "{name}");
        }
    }

    #[test]
    fn capture_range_is_the_omega_clamp() {
        for detector in DETECTORS {
            assert_eq!(cdr(detector, 0.0).capture_range(), 0.02);
        }
    }
}
