//! Semi-rotational frequency-detection acquisition for the bang-bang CDR
//! (after the rotational-FD BBPLL analysis in arXiv 1905.00273).
//!
//! A bare bang-bang loop captures only `kp·ρ` of relative frequency
//! offset — beyond that the phase detector slips cycles faster than the
//! integrator can pull. A rotational frequency detector watches the
//! *wrapped* phase error rotate through four quadrants of the UI and
//! steps the frequency word once per full rotation, in the direction
//! that opposes the rotation. The "semi-rotational" refinement counts
//! only crossings of the outer quadrant boundary (±0.5 UI wrap): inner
//! crossings near lock are jitter, and reacting to them would re-dither
//! the frequency word after acquisition. Once no rotation has been seen
//! for [`SemiRotFdConfig::settle_transitions`] transitions the FD
//! freezes and the plain bang-bang proportional/integral loop tracks.
//!
//! The composition widens capture from `kp·ρ` (≈ 0.5 % at the typical
//! point) to the FD's rotation-tracking bound — an order of magnitude —
//! at the cost of an acquisition state machine per channel. The GCCO
//! needs none of it: its capture range is the §2.3 matching tolerance,
//! with zero acquisition time.

use crate::cdr_arch::{wrap_ui, CdrArch, CdrTrace, LockDetector};
use crate::BangBangConfig;
use gcco_signal::{BitStream, EdgeStream, JitterConfig};
use gcco_units::Freq;

/// How far the frequency word may range under FD control (fraction of
/// the bit rate) — an order of magnitude beyond the bare loop's clamp.
pub const FD_FREQ_CLAMP: f64 = 0.15;

/// Semi-rotational frequency-detector parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SemiRotFdConfig {
    /// Frequency-word step (fraction of the bit rate) applied per
    /// detected rotation.
    pub freq_step: f64,
    /// Rotation-free transitions after which the FD declares acquisition
    /// settled and freezes.
    pub settle_transitions: usize,
}

impl SemiRotFdConfig {
    /// A conventional design point: 0.2 % frequency step, freeze after
    /// 512 rotation-free transitions.
    pub fn typical() -> SemiRotFdConfig {
        SemiRotFdConfig {
            freq_step: 0.002,
            settle_transitions: 512,
        }
    }
}

impl Default for SemiRotFdConfig {
    fn default() -> SemiRotFdConfig {
        SemiRotFdConfig::typical()
    }
}

/// A bang-bang CDR with a semi-rotational frequency-detection
/// acquisition stage composed in front of the proportional/integral
/// phase loop.
///
/// # Examples
///
/// ```
/// use gcco_core::{BangBangConfig, CdrArch, FdBangBangCdr, SemiRotFdConfig};
/// use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
/// use gcco_units::Freq;
///
/// let bits = Prbs::new(PrbsOrder::P7).take_bits(30_000);
/// let mut bb = BangBangConfig::typical();
/// bb.freq_offset = 0.06; // beyond the bare loop's ±0.05 pull-in clamp
/// let cdr = FdBangBangCdr::new(SemiRotFdConfig::typical(), bb);
/// let trace = cdr.track(&bits, Freq::from_gbps(2.5), &JitterConfig::none(), 1);
/// assert!(trace.lock_bits.is_some());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FdBangBangCdr {
    fd: SemiRotFdConfig,
    bb: BangBangConfig,
}

impl FdBangBangCdr {
    /// Composes a frequency-detection stage with a bang-bang phase loop.
    pub fn new(fd: SemiRotFdConfig, bb: BangBangConfig) -> FdBangBangCdr {
        FdBangBangCdr { fd, bb }
    }

    /// The frequency-detector parameters.
    pub fn fd_config(&self) -> &SemiRotFdConfig {
        &self.fd
    }

    /// The phase-loop parameters.
    pub fn bb_config(&self) -> &BangBangConfig {
        &self.bb
    }
}

/// Quadrant of a wrapped phase error: four bins of 0.25 UI over
/// [−0.5, 0.5).
fn quadrant(e: f64) -> usize {
    (((e + 0.5) / 0.25) as usize).min(3)
}

impl CdrArch for FdBangBangCdr {
    fn name(&self) -> &'static str {
        "bang-bang+fd"
    }

    fn track(
        &self,
        bits: &BitStream,
        bit_rate: Freq,
        jitter: &JitterConfig,
        seed: u64,
    ) -> CdrTrace {
        let stream = EdgeStream::synthesize(bits, bit_rate, jitter, seed);
        let ui = bit_rate.period();
        let mut theta: f64 = 0.5; // worst-case initial phase, like the bare loop
        let mut freq_word: f64 = 0.0;
        let mut last_edge_bit: f64 = 0.0;
        let mut prev_quadrant: Option<usize> = None;
        let mut since_rotation: usize = 0;
        let mut fd_settled = false;
        let mut trace = CdrTrace::with_capacity(stream.edges().len());
        let mut lock = LockDetector::new();

        for edge in stream.edges() {
            let edge_bit = edge.time / ui;
            let bits_elapsed = (edge_bit - last_edge_bit).max(0.0);
            last_edge_bit = edge_bit;
            theta += (self.bb.freq_offset + freq_word) * bits_elapsed;
            let displacement = edge_bit - edge_bit.round();
            // The phase detector only sees phase modulo one bit: under a
            // large offset the raw error winds up unboundedly while the
            // wrapped error rotates — which is what the FD watches.
            let error = wrap_ui(displacement - theta);
            trace.updates += 1;
            if error.abs() > 0.25 {
                trace.record_error(trace.updates - 1);
            }
            // Semi-rotational FD: only outer-boundary (±0.5 UI) wraps
            // count as rotations. Residual (offset + word) > 0 drives the
            // error downward, wrapping quadrant 0 → 3.
            let q = quadrant(error);
            if !fd_settled {
                match (prev_quadrant, q) {
                    (Some(0), 3) => {
                        freq_word -= self.fd.freq_step;
                        since_rotation = 0;
                    }
                    (Some(3), 0) => {
                        freq_word += self.fd.freq_step;
                        since_rotation = 0;
                    }
                    _ => {
                        since_rotation += 1;
                        if since_rotation >= self.fd.settle_transitions {
                            fd_settled = true;
                        }
                    }
                }
            }
            prev_quadrant = Some(q);
            // Bang-bang phase/frequency update on the wrapped error.
            let sign = if error > 0.0 { 1.0 } else { -1.0 };
            theta += self.bb.kp * sign;
            freq_word += self.bb.ki * sign;
            freq_word = freq_word.clamp(-FD_FREQ_CLAMP, FD_FREQ_CLAMP);
            trace.phase_error.push(error);
            lock.observe(error, edge_bit.round().max(0.0) as usize, trace.updates - 1);
        }
        trace.with_lock(&lock)
    }

    /// Rotation tracking aliases once the wrapped error moves more than
    /// a quadrant between transitions: at density ρ the mean transition
    /// spacing is 1/ρ bits, bounding the trackable residual at
    /// `0.25·ρ/2`. The frequency-word clamp caps it on top.
    fn capture_range(&self) -> f64 {
        FD_FREQ_CLAMP.min(0.125 * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BangBangCdr;
    use gcco_signal::{Prbs, PrbsOrder};

    fn rate() -> Freq {
        Freq::from_gbps(2.5)
    }

    fn bits(n: usize) -> BitStream {
        Prbs::new(PrbsOrder::P7).take_bits(n)
    }

    #[test]
    fn quadrants_partition_the_wrapped_interval() {
        assert_eq!(quadrant(-0.5), 0);
        assert_eq!(quadrant(-0.26), 0);
        assert_eq!(quadrant(-0.25), 1);
        assert_eq!(quadrant(-0.01), 1);
        assert_eq!(quadrant(0.0), 2);
        assert_eq!(quadrant(0.24), 2);
        assert_eq!(quadrant(0.25), 3);
        assert_eq!(quadrant(0.49), 3);
    }

    #[test]
    fn fd_widens_capture_beyond_the_bare_loop() {
        // Property (satellite): at freq_offset = 0.06 the bare loop can
        // *never* acquire — its frequency word clamps at ±0.05, leaving
        // a residual slip the proportional steps cannot cancel — while
        // the FD walks its ±0.15-clamped word onto the offset and locks,
        // at every probed seed.
        for seed in [1, 7, 42] {
            let mut config = BangBangConfig::typical();
            config.freq_offset = 0.06;
            let bare = BangBangCdr::new(config);
            let assisted = FdBangBangCdr::new(SemiRotFdConfig::typical(), config);
            let data = bits(60_000);
            let bare_trace = bare.track(&data, rate(), &JitterConfig::none(), seed);
            let fd_trace = assisted.track(&data, rate(), &JitterConfig::none(), seed);
            assert_eq!(bare_trace.lock_bits, None, "seed {seed}: {bare_trace}");
            assert!(fd_trace.lock_bits.is_some(), "seed {seed}: {fd_trace}");
            assert!(
                fd_trace.residual_rms().expect("locked") < 0.05,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn settles_and_matches_bare_loop_behavior_without_offset() {
        // With no frequency offset the FD must stay out of the way: same
        // acquisition story as the bare loop, comparable residual.
        let assisted = FdBangBangCdr::new(SemiRotFdConfig::typical(), BangBangConfig::typical());
        let trace = assisted.track(&bits(20_000), rate(), &JitterConfig::none(), 1);
        assert!(trace.lock_bits.expect("must lock") < 1_000);
        assert!(trace.residual_rms().expect("locked") < 0.05);
    }

    #[test]
    fn capture_range_is_the_rotation_tracking_bound() {
        let cdr = FdBangBangCdr::new(SemiRotFdConfig::typical(), BangBangConfig::typical());
        assert!((cdr.capture_range() - 0.0625).abs() < 1e-12);
    }
}
