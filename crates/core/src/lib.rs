//! Gated current-controlled oscillator (GCCO) clock-and-data recovery —
//! the primary contribution of the DATE'05 paper *"Top-Down Design of a
//! Low-Power Multi-Channel 2.5-Gbit/s/Channel Gated Oscillator
//! Clock-Recovery Circuit"* (Muller, Tajalli, Atarodi, Leblebici).
//!
//! The crate assembles the paper's system out of the workspace substrates:
//!
//! * [`GatedOscillator`]/[`CcoParams`] — the gated four-stage CML ring
//!   with the VHDL delay law `t_d = 1/(8·(f_c + K·(I − I₀)))` (Fig. 12);
//! * [`EdgeDetector`] — delay line + XOR with dummy-gate compensation
//!   (Fig. 7), exposing the `T/2 < τ < T` constraint of Fig. 13;
//! * [`build_cdr`]/[`run_cdr`] — one channel: detector + GCCO + decision
//!   flip-flop, with the standard or improved (−T/8, Fig. 15) clock tap;
//! * [`SharedPll`] — the multiplying PLL whose control current all
//!   channels inherit (Fig. 6);
//! * [`MultiChannelReceiver`] — the channel array with CCO mismatch;
//! * [`ElasticBuffer`] — the recovered-to-system clock crossing (Fig. 4);
//! * [`BangBangCdr`], [`MuOmegaCdr`], [`FdBangBangCdr`], [`PhaseInterpCdr`]
//!   — the conventional per-channel CDR architectures the paper argues
//!   against, unified under the [`CdrArch`] trait for quantitative comparison;
//! * [`LinkComparison`] — the parallel-bus-versus-serial budget of Fig. 1;
//! * [`run_design_flow`] — the four-gate top-down methodology itself.
//!
//! # Examples
//!
//! Recover a jittered PRBS7 stream and inspect the eye:
//!
//! ```
//! use gcco_core::{run_cdr, CdrConfig};
//! use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
//! use gcco_units::{Freq, Ui};
//!
//! let bits = Prbs::new(PrbsOrder::P7).take_bits(2_000);
//! let jitter = JitterConfig { rj_rms: Ui::new(0.01), ..JitterConfig::none() };
//! let result = run_cdr(&bits, Freq::from_gbps(2.5), &jitter,
//!                      &CdrConfig::paper(), 7);
//! assert_eq!(result.errors, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cdr;
mod cdr_arch;
mod edge_detector;
mod elastic;
mod flow;
mod gcco;
mod interp;
mod jtran;
mod linkmodel;
mod los;
mod mu_omega;
mod multichannel;
mod pll;
mod receiver;
mod rotfd;

pub use baseline::{BangBangCdr, BangBangConfig};
pub use cdr::{build_cdr, run_cdr, CdrConfig, CdrHandles, CdrRunResult};
pub use cdr_arch::{
    wrap_ui, CdrArch, CdrTrace, LockDetector, NrzWaveform, LOCK_BAND_UI, LOCK_CONFIRM_UPDATES,
};
pub use edge_detector::{EdgeDetector, EdgeDetectorHandles};
pub use elastic::{ElasticBuffer, ElasticRunResult};
pub use flow::{run_design_flow, DesignReport, FlowSpec, StepReport};
pub use gcco::{CcoParams, GatedOscillator, GccoHandles};
pub use interp::{PhaseInterpCdr, PiConfig};
pub use jtran::{bang_bang_jitter_transfer, gcco_jitter_transfer};
pub use linkmodel::{LinkComparison, ParallelBus, SerialLink};
pub use los::{add_los_monitor, LossOfSignal};
pub use mu_omega::{MuOmegaCdr, MuOmegaConfig, TimingDetector};
pub use multichannel::{ChannelConfig, MultiChannelReceiver, MultiChannelResult};
pub use pll::{PllConfig, PllLockResult, SharedPll};
pub use receiver::{ReceiverResult, SerialReceiver};
pub use rotfd::{FdBangBangCdr, SemiRotFdConfig, FD_FREQ_CLAMP};
