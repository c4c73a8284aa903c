//! The `CdrArch` trait: one tracking interface over every competing CDR
//! architecture the repo models.
//!
//! The paper's §1 dismisses "popular PLL, DLL or phase interpolation
//! techniques" on power and acquisition grounds. To make that a
//! reproducible figure instead of a claim, every behavioral baseline —
//! the bang-bang loop ([`crate::BangBangCdr`]), the Mueller&Müller and
//! Gardner timing-error-detector loops ([`crate::MuOmegaCdr`]), the
//! semi-rotational-FD-assisted bang-bang ([`crate::FdBangBangCdr`]), and
//! the phase interpolator ([`crate::PhaseInterpCdr`]) — implements
//! [`CdrArch`]: track a jittered stream and report the same [`CdrTrace`]
//! (phase-error trace, lock bit, sampling-error count), plus an analytic
//! capture-range estimate. The GCCO itself needs no entry here: it has no
//! loop, so its "lock time" is one edge-detector delay and its capture
//! range is the §2.3 frequency tolerance.

use gcco_signal::{BitStream, EdgeStream, JitterConfig};
use gcco_units::Freq;
use std::fmt;

/// Lock-detection band: the loop counts as locked while the instantaneous
/// phase error stays inside ±`LOCK_BAND_UI`.
pub const LOCK_BAND_UI: f64 = 0.1;

/// Consecutive in-band loop updates required to *confirm* a lock. The
/// reported lock time is the bit where the error first entered the band
/// (the confirm window is detector latency, not acquisition time).
pub const LOCK_CONFIRM_UPDATES: usize = 64;

/// One tracked run of any [`CdrArch`]: the common result currency the
/// baseline suite compares architectures in.
#[derive(Clone, Debug)]
pub struct CdrTrace {
    /// Sampling-phase error (UI) at each loop update, in update order.
    pub phase_error: Vec<f64>,
    /// Bit index where the error first entered the ±[`LOCK_BAND_UI`] band
    /// of a subsequently confirmed run of [`LOCK_CONFIRM_UPDATES`]
    /// in-band updates; `None` when the loop never locked.
    pub lock_bits: Option<usize>,
    /// Index into `phase_error` of that same lock entry, for post-lock
    /// statistics.
    pub lock_update: Option<usize>,
    /// Sampling errors: updates where the recovered sampling instant
    /// would mis-slice the bit.
    pub errors: usize,
    /// Update indices of those sampling errors, in update order — what
    /// separates acquisition errors (before [`CdrTrace::lock_update`])
    /// from tracking errors after it.
    pub error_updates: Vec<usize>,
    /// Loop updates processed (transitions for edge-domain loops, symbols
    /// for sample-domain loops).
    pub updates: usize,
}

impl CdrTrace {
    /// An empty trace with capacity for `n` updates.
    pub fn with_capacity(n: usize) -> CdrTrace {
        CdrTrace {
            phase_error: Vec::with_capacity(n),
            lock_bits: None,
            lock_update: None,
            errors: 0,
            error_updates: Vec::new(),
            updates: 0,
        }
    }

    /// The trace with `lock`'s confirmed entry (if any) filled in.
    pub fn with_lock(mut self, lock: &LockDetector) -> CdrTrace {
        if let Some((update, bit)) = lock.lock() {
            self.lock_update = Some(update);
            self.lock_bits = Some(bit);
        }
        self
    }

    /// Records one sampling error at `update`.
    pub fn record_error(&mut self, update: usize) {
        self.errors += 1;
        self.error_updates.push(update);
    }

    /// Sampling errors at or after the lock entry — the errors a JTOL
    /// measurement counts (acquisition transients before the lock are
    /// detector latency, not tracking failures). `None` when the run
    /// never locked.
    pub fn post_lock_errors(&self) -> Option<usize> {
        let start = self.lock_update?;
        Some(self.error_updates.iter().filter(|&&u| u >= start).count())
    }

    /// RMS residual phase error over the confirmed post-lock region, or
    /// `None` when the run never locked (there is no steady state to
    /// average).
    pub fn residual_rms(&self) -> Option<f64> {
        let start = self.lock_update?;
        let tail = &self.phase_error[start..];
        if tail.is_empty() {
            return None;
        }
        Some((tail.iter().map(|e| e * e).sum::<f64>() / tail.len() as f64).sqrt())
    }
}

impl fmt::Display for CdrTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lock_bits {
            Some(bits) => write!(
                f,
                "{} updates, {} errors, locked at bit {}",
                self.updates, self.errors, bits
            ),
            None => write!(
                f,
                "{} updates, {} errors, no lock",
                self.updates, self.errors
            ),
        }
    }
}

/// Shared lock detector: entry into ±[`LOCK_BAND_UI`] starts a candidate
/// run; [`LOCK_CONFIRM_UPDATES`] consecutive in-band updates confirm it,
/// and the *entry* bit/update (not the confirming one) is what gets
/// reported — the detection latency of the confirm window is not
/// acquisition time.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockDetector {
    /// `(entry update index, entry bit index)` of the current in-band run.
    run_start: Option<(usize, usize)>,
    confirmed: Option<(usize, usize)>,
}

impl LockDetector {
    /// A fresh detector.
    pub fn new() -> LockDetector {
        LockDetector::default()
    }

    /// Feeds one loop update: its phase error, the bit index it sampled,
    /// and its index in the update sequence.
    pub fn observe(&mut self, error_ui: f64, bit_index: usize, update_index: usize) {
        if error_ui.abs() < LOCK_BAND_UI {
            let (entry_update, entry_bit) =
                *self.run_start.get_or_insert((update_index, bit_index));
            if self.confirmed.is_none() && update_index - entry_update + 1 >= LOCK_CONFIRM_UPDATES {
                self.confirmed = Some((entry_update, entry_bit));
            }
        } else if self.confirmed.is_none() {
            self.run_start = None;
        }
    }

    /// The confirmed lock entry, as `(update index, bit index)`.
    pub fn lock(&self) -> Option<(usize, usize)> {
        self.confirmed
    }
}

/// A common tracking interface over the competing CDR architectures.
pub trait CdrArch {
    /// Short architecture tag for tables and logs.
    fn name(&self) -> &'static str;

    /// Tracks (acquiring first, if the architecture needs it) a jittered
    /// PRBS stream and reports the phase-error trace, lock bit, and
    /// sampling-error count.
    fn track(&self, bits: &BitStream, bit_rate: Freq, jitter: &JitterConfig, seed: u64)
        -> CdrTrace;

    /// Analytic estimate of the capture range: the largest relative
    /// frequency offset the architecture can acquire, as a fraction of
    /// the data rate at PRBS7 transition density (≈ 0.5).
    fn capture_range(&self) -> f64;
}

/// A piecewise-linear NRZ waveform sampled from an [`EdgeStream`]: levels
/// ±1 with a linear ramp of `rise_ui` UI centered on every (jittered)
/// transition. The sample-domain loops (M&M, Gardner) need an analog
/// value whose amplitude encodes timing error; the default full-UI ramp
/// ([`NrzWaveform::DEFAULT_RISE_UI`]) models a heavily band-limited
/// channel whose eye closes linearly away from the bit center — which
/// gives both timing-error detectors their linear characteristic.
#[derive(Clone, Debug)]
pub struct NrzWaveform {
    /// Edge times in UI.
    edge_ui: Vec<f64>,
    /// Level after each edge (+1.0 rising, −1.0 falling).
    level_after: Vec<f64>,
    initial: f64,
    rise_ui: f64,
}

impl NrzWaveform {
    /// The default transition time: a full UI, so the eye amplitude is
    /// linear in the sampling-phase error over the whole bit.
    pub const DEFAULT_RISE_UI: f64 = 1.0;

    /// Builds the waveform view of `stream` with transition time
    /// `rise_ui` (UI).
    ///
    /// # Panics
    ///
    /// Panics if `rise_ui` is not positive and finite.
    pub fn new(stream: &EdgeStream, rise_ui: f64) -> NrzWaveform {
        assert!(
            rise_ui > 0.0 && rise_ui.is_finite(),
            "rise_ui must be positive and finite, got {rise_ui}"
        );
        let ui = stream.bit_rate().period();
        NrzWaveform {
            edge_ui: stream.edges().iter().map(|e| e.time / ui).collect(),
            level_after: stream
                .edges()
                .iter()
                .map(|e| if e.rising { 1.0 } else { -1.0 })
                .collect(),
            initial: if stream.initial_level() { 1.0 } else { -1.0 },
            rise_ui,
        }
    }

    /// The waveform value at `t_ui` (time in UI), in [−1, 1].
    pub fn sample(&self, t_ui: f64) -> f64 {
        let idx = self.edge_ui.partition_point(|&e| e <= t_ui);
        let mut v = if idx == 0 {
            self.initial
        } else {
            self.level_after[idx - 1]
        };
        // Replace the instantaneous steps of nearby edges with linear
        // ramps: only edges within half a rise time of `t_ui` contribute.
        let lo = idx.saturating_sub(2);
        let hi = (idx + 2).min(self.edge_ui.len());
        for j in lo..hi {
            let x = (t_ui - self.edge_ui[j]) / self.rise_ui;
            if x > -0.5 && x < 0.5 {
                let from = if j == 0 {
                    self.initial
                } else {
                    self.level_after[j - 1]
                };
                let swing = self.level_after[j] - from;
                let step = if t_ui >= self.edge_ui[j] { swing } else { 0.0 };
                v += swing * (x + 0.5) - step;
            }
        }
        v
    }
}

/// Wraps a phase error into the principal interval [−0.5, 0.5) UI — what
/// a real phase detector, which only sees phase modulo one bit, observes.
pub fn wrap_ui(error: f64) -> f64 {
    (error + 0.5).rem_euclid(1.0) - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_signal::{Prbs, PrbsOrder};

    fn rate() -> Freq {
        Freq::from_gbps(2.5)
    }

    #[test]
    fn waveform_hits_full_levels_at_clean_bit_centers() {
        let bits = Prbs::new(PrbsOrder::P7).take_bits(300);
        let stream = EdgeStream::synthesize(&bits, rate(), &JitterConfig::none(), 0);
        let wave = NrzWaveform::new(&stream, NrzWaveform::DEFAULT_RISE_UI);
        for (k, b) in bits.iter().enumerate() {
            let v = wave.sample(k as f64 + 0.5);
            let want = if b { 1.0 } else { -1.0 };
            assert!((v - want).abs() < 1e-9, "bit {k}: {v} vs {want}");
        }
    }

    #[test]
    fn waveform_is_linear_in_offset_near_a_transition() {
        let bits: BitStream = "110".parse().unwrap();
        let stream = EdgeStream::synthesize(&bits, rate(), &JitterConfig::none(), 0);
        let wave = NrzWaveform::new(&stream, 1.0);
        // Falling edge at bit boundary 2 (t_ui = 2.0); sampling bit 1's
        // center late by δ walks down the ramp at slope −2.
        for delta in [0.05, 0.1, 0.2, 0.4] {
            let v = wave.sample(1.5 + delta);
            assert!((v - (1.0 - 2.0 * delta)).abs() < 1e-9, "δ={delta}: {v}");
        }
    }

    #[test]
    fn lock_detector_reports_the_entry_point_not_the_confirmation() {
        let mut det = LockDetector::new();
        // 10 out-of-band updates, then in-band from update 10 onward.
        for i in 0..10 {
            det.observe(0.4, 2 * i, i);
        }
        for i in 10..200 {
            det.observe(0.01, 2 * i, i);
            if i < 10 + LOCK_CONFIRM_UPDATES - 1 {
                assert_eq!(det.lock(), None, "must wait for the confirm run");
            }
        }
        assert_eq!(det.lock(), Some((10, 20)));
    }

    #[test]
    fn lock_detector_restarts_a_broken_run() {
        let mut det = LockDetector::new();
        for i in 0..40 {
            det.observe(0.02, i, i);
        }
        det.observe(0.3, 40, 40); // run broken before confirmation
        for i in 41..(41 + LOCK_CONFIRM_UPDATES) {
            det.observe(0.02, i, i);
        }
        assert_eq!(det.lock(), Some((41, 41)));
    }

    #[test]
    fn wrap_ui_principal_interval() {
        assert_eq!(wrap_ui(0.0), 0.0);
        assert!((wrap_ui(0.6) - (-0.4)).abs() < 1e-12);
        assert!((wrap_ui(-0.6) - 0.4).abs() < 1e-12);
        assert!((wrap_ui(3.25) - 0.25).abs() < 1e-12);
        assert_eq!(wrap_ui(0.5), -0.5);
    }

    #[test]
    fn bang_bang_implements_the_trait() {
        let cdr = crate::BangBangCdr::new(crate::BangBangConfig::typical());
        let bits = Prbs::new(PrbsOrder::P7).take_bits(10_000);
        let trace = cdr.track(&bits, rate(), &JitterConfig::none(), 1);
        assert_eq!(cdr.name(), "bang-bang");
        assert!(trace.lock_bits.is_some());
        assert!(trace.residual_rms().expect("locked") < 0.05);
        assert!((cdr.capture_range() - 0.005).abs() < 1e-12);
    }
}
