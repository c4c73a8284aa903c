//! `baseline_suite` — GCCO vs the field: the paper's gated oscillator
//! against the conventional clock-recovery loops the workspace models
//! behaviorally (bang-bang, Mueller–Müller, Gardner, the
//! frequency-detector-assisted bang-bang and the phase interpolator), on
//! jitter tracking, capture, acquisition and power.
//!
//! The GCCO figures and the four wire-level loops are
//! [`gcco_api::EvalRequest`]s evaluated through the shared evaluator
//! ([`gcco_bench::journaled`]) — locally (with an optional persistent
//! `--store` journal, so a re-run replays every row from disk
//! bit-identically) or against a `gcco-serve`/`gcco-router` endpoint with
//! `--remote`; serial, store-warmed and remote runs print the same report
//! bytes. The phase-interpolator row and the power section are cheap, so
//! every mode computes them in-process.
//!
//! ```text
//! baseline_suite [--store DIR] [--report FILE] [--quick] [--remote ADDR]
//! ```
//!
//! `--quick` tracks 20 kbit instead of 100 kbit per run, for smoke jobs —
//! still fully deterministic.

use gcco_api::{BaselineOut, BaselineSpec, CdrArchKind, EvalResponse};
use gcco_bench::journaled::{
    args_or_exit, baseline_suite_requests, opt_f64, Evaluator, Flag, Job, BASELINE_CAPTURE_HI,
    BASELINE_JTOL_FREQ_NORM,
};
use gcco_bench::{header, metrics, result_line};
use gcco_core::{CdrArch, PhaseInterpCdr, PiConfig};
use gcco_noise::{size_for_jitter, ChannelPowerBudget, PhaseNoiseModel};
use gcco_signal::{JitterConfig, Prbs, PrbsOrder};
use gcco_units::{Current, Freq, Voltage};
use std::fmt::Write as _;

const JOB: Job = Job {
    bin: "baseline_suite",
    flags: &[Flag::Store, Flag::Report, Flag::Quick, Flag::Remote],
    unit: "requests",
    hits_key: metrics::BASELINE_STORE_HITS,
};

/// RESULT keys of each row, in row order: lock bits, JTOL at 0.01 f_b,
/// capture percent.
const BB_KEYS: [&str; 3] = [
    metrics::BASELINE_BB_LOCK_BITS,
    metrics::BASELINE_BB_JTOL_0P01FB,
    metrics::BASELINE_BB_CAPTURE_PCT,
];
const MM_KEYS: [&str; 3] = [
    metrics::BASELINE_MM_LOCK_BITS,
    metrics::BASELINE_MM_JTOL_0P01FB,
    metrics::BASELINE_MM_CAPTURE_PCT,
];
const GARDNER_KEYS: [&str; 3] = [
    metrics::BASELINE_GARDNER_LOCK_BITS,
    metrics::BASELINE_GARDNER_JTOL_0P01FB,
    metrics::BASELINE_GARDNER_CAPTURE_PCT,
];
const FD_KEYS: [&str; 3] = [
    metrics::BASELINE_FD_LOCK_BITS,
    metrics::BASELINE_FD_JTOL_0P01FB,
    metrics::BASELINE_FD_CAPTURE_PCT,
];
const PI_KEYS: [&str; 3] = [
    metrics::BASELINE_PI_LOCK_BITS,
    metrics::BASELINE_PI_JTOL_0P01FB,
    metrics::BASELINE_PI_CAPTURE_PCT,
];

/// A wire architecture's table label and RESULT keys.
fn arch_meta(arch: CdrArchKind) -> (&'static str, [&'static str; 3]) {
    match arch {
        CdrArchKind::BangBang => ("bang-bang", BB_KEYS),
        CdrArchKind::MuellerMuller => ("mueller-muller", MM_KEYS),
        CdrArchKind::Gardner => ("gardner", GARDNER_KEYS),
        CdrArchKind::BangBangFd => ("bang-bang+fd", FD_KEYS),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| x.to_string())
}

/// Two decimals of the value, or `none`.
fn opt_2dp(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{x:.2}"))
}

/// One architecture's row: the Track summary with the capture range and
/// the JTOL amplitude filled in.
struct ArchRow {
    label: &'static str,
    /// RESULT keys: lock bits, JTOL at 0.01 f_b, capture percent.
    keys: [&'static str; 3],
    out: BaselineOut,
}

/// The phase-interpolator row, tracked in-process on the suite's PRBS7
/// bits and seed; its capture is the rotation-rate cap and its JTOL the
/// slew limit, both closed-form.
fn pi_row(bits: u32) -> ArchRow {
    let pi = PhaseInterpCdr::new(PiConfig::typical());
    // Every wire row tracks at the typical spec's seed and bit rate.
    let spec = BaselineSpec::typical(CdrArchKind::BangBang);
    let trace = pi.track(
        &Prbs::new(PrbsOrder::P7).take_bits(bits as usize),
        Freq::from_gbps(spec.bit_rate_gbps),
        &JitterConfig::none(),
        spec.seed,
    );
    ArchRow {
        label: pi.name(),
        keys: PI_KEYS,
        out: BaselineOut {
            capture_range: Some(pi.capture_range()),
            jtol_amp_pp: Some(pi.jtol_slew_limit(BASELINE_JTOL_FREQ_NORM, 0.5).value()),
            ..BaselineOut::from(&trace)
        },
    }
}

/// Per-channel power in one CML-cell currency: the GCCO, the bang-bang
/// VCO loop, and the phase interpolator, as `(label, budget)`.
fn power_budgets() -> [(&'static str, ChannelPowerBudget); 3] {
    let cell = size_for_jitter(
        PhaseNoiseModel::Hajimiri { eta: 0.75 },
        Voltage::from_volts(0.4),
        Freq::from_ghz(2.5),
        4,
        5,
        0.01,
        Current::from_amps(0.01),
    )
    .expect("the paper's jitter budget sizes a cell");
    let budget = |osc_stages, delay_line_cells, misc_cells| ChannelPowerBudget {
        cell,
        osc_stages,
        delay_line_cells,
        misc_cells,
    };
    [
        ("GCCO", ChannelPowerBudget::paper_channel(cell)),
        ("bang-bang", budget(4, 8, 36)),
        // No per-channel VCO, but 8-phase clock distribution buffers, and
        // the interpolator, its DAC, the PD and logic.
        ("phase-interp", budget(0, 16, 24)),
    ]
}

/// The deterministic comparison report. Floats print as `{:?}` (shortest
/// exact form) and the run-local store-hit count is excluded, so serial,
/// store-warmed and router-sharded runs produce the same bytes.
fn render_report(
    rows: &[ArchRow],
    power: &[(&str, ChannelPowerBudget)],
    gcco_jtol_pp: f64,
    gcco_ftol: f64,
    quick: bool,
) -> String {
    let mut report = String::new();
    let _ = writeln!(report, "GCCO baseline suite v1");
    let _ = writeln!(report, "flow {}", if quick { "quick" } else { "paper" });
    let _ = writeln!(
        report,
        "gcco jtol_0p01fb_uipp={gcco_jtol_pp:?} ftol_frac={gcco_ftol:?} lock_bits=1"
    );
    for row in rows {
        let _ = writeln!(
            report,
            "arch {} lock_bits={} residual_uirms={} errors={} updates={} \
             capture_frac={} jtol_0p01fb_uipp={}",
            row.label,
            opt_u64(row.out.lock_bits),
            opt_f64(row.out.residual_rms_ui),
            row.out.errors,
            row.out.updates,
            opt_f64(row.out.capture_range),
            opt_f64(row.out.jtol_amp_pp),
        );
    }
    for (label, budget) in power {
        let _ = writeln!(
            report,
            "power {label} cells={} mw_per_gbps={:?}",
            budget.total_cells(),
            budget.mw_per_gbps(Freq::from_gbps(2.5)),
        );
    }
    report
}

fn main() {
    let args = args_or_exit(&JOB);
    header(
        "baseline_suite",
        "GCCO vs bang-bang vs Mueller-Muller vs Gardner vs phase interpolator (behavioral loops)",
        "the GCCO needs no acquisition and tracks past the loop slew corners; \
         the behavioral baselines quantify what the loops actually achieve",
    );

    let bits: u32 = if args.quick { 20_000 } else { 100_000 };
    println!(
        "tracking {bits} PRBS7 bits per run, JTOL at {BASELINE_JTOL_FREQ_NORM} f_b, \
         capture bracket +/-{BASELINE_CAPTURE_HI} of f_b\n"
    );
    let mut eval = Evaluator::open(JOB, args);
    let responses = eval.eval_all(&baseline_suite_requests(bits));

    let mut it = responses.into_iter();
    let gcco_jtol_pp = match it.next() {
        Some(EvalResponse::Jtol { points }) => points[0].amplitude_pp,
        other => panic!("jtol_curve answered {other:?}"),
    };
    let gcco_ftol = match it.next() {
        Some(EvalResponse::Ftol { value }) => value,
        other => panic!("ftol_search answered {other:?}"),
    };
    let mut baseline_out = || match it.next() {
        Some(EvalResponse::Baseline { out }) => out,
        other => panic!("baseline request answered {other:?}"),
    };
    let mut rows: Vec<ArchRow> = CdrArchKind::ALL
        .into_iter()
        .map(|arch| {
            let (label, keys) = arch_meta(arch);
            let track = baseline_out();
            let capture_range = baseline_out().capture_range;
            let jtol_amp_pp = baseline_out().jtol_amp_pp;
            let out = BaselineOut {
                capture_range,
                jtol_amp_pp,
                ..track
            };
            ArchRow { label, keys, out }
        })
        .collect();
    rows.push(pi_row(bits));
    let power = power_budgets();

    println!("  arch           | lock bits | resid UIrms | capture   | JTOL@0.01fb");
    println!(
        "  GCCO           | {:>9} | {:>11} | {:>9} | {:>8.2} UI",
        1,
        "-",
        format!("+/-{:.1}%", gcco_ftol * 100.0),
        gcco_jtol_pp,
    );
    for ArchRow { label, out, .. } in &rows {
        println!(
            "  {label:<14} | {:>9} | {:>11} | {:>9} | {:>8} UI",
            out.lock_bits
                .map_or("no lock".to_string(), |b| b.to_string()),
            out.residual_rms_ui
                .map_or("-".to_string(), |r| format!("{r:.4}")),
            out.capture_range
                .map_or("-".to_string(), |c| format!("+/-{:.2}%", c * 100.0)),
            out.jtol_amp_pp
                .map_or("-".to_string(), |a| format!("{a:.2}")),
        );
    }
    let rate = Freq::from_gbps(2.5);
    println!("\npower (same CML cell currency, 2.5 Gbit/s):");
    for (label, budget) in &power {
        println!(
            "  {label:<12}: {:>2} cells, {:.2} mW/Gbit/s",
            budget.total_cells(),
            budget.mw_per_gbps(rate)
        );
    }

    let report = render_report(&rows, &power, gcco_jtol_pp, gcco_ftol, eval.args.quick);

    result_line(metrics::BASELINE_STORE_HITS, eval.store_hits());
    result_line(
        metrics::BASELINE_GCCO_JTOL_0P01FB,
        format!("{gcco_jtol_pp:.2}"),
    );
    for ArchRow { keys, out, .. } in &rows {
        result_line(keys[0], opt_u64(out.lock_bits));
        result_line(keys[1], opt_2dp(out.jtol_amp_pp));
        result_line(keys[2], opt_2dp(out.capture_range.map(|c| c * 100.0)));
    }
    let gcco_mw = power[0].1.mw_per_gbps(rate);
    let [bb_ratio, pi_ratio] = [&power[1], &power[2]].map(|(_, b)| b.mw_per_gbps(rate) / gcco_mw);
    result_line(
        metrics::BASELINE_POWER_RATIO_BB_OVER_GCCO,
        format!("{bb_ratio:.2}"),
    );
    result_line(
        metrics::BASELINE_POWER_RATIO_PI_OVER_GCCO,
        format!("{pi_ratio:.2}"),
    );

    eval.write_report(&report);

    // The architectural claims the table must support: every loop locks
    // on the clean run, the open-loop GCCO out-tracks every loop at
    // 0.01 f_b, and every loop costs more than twice its power.
    for row in &rows {
        assert!(
            row.out.lock_bits.is_some(),
            "{} failed to lock on clean data",
            row.label
        );
        if let Some(amp) = row.out.jtol_amp_pp {
            assert!(
                gcco_jtol_pp > amp,
                "the GCCO must out-track {} at {BASELINE_JTOL_FREQ_NORM} f_b",
                row.label
            );
        }
    }
    assert!(bb_ratio > 2.0 && pi_ratio > 2.0, "{bb_ratio} / {pi_ratio}");
    println!(
        "\nOK: every behavioral loop locks on clean data; the GCCO tracks \
         {gcco_jtol_pp:.2} UIpp at {BASELINE_JTOL_FREQ_NORM} f_b, above every \
         loop baseline."
    );
    println!("    Each loop costs more than 2x the GCCO's power.");
}
