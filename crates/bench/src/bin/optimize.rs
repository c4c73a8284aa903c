//! `optimize` — re-derives the paper's quad-channel design with the
//! design-space optimizer service.
//!
//! The binary asks the paper's own question: given the Table 1 jitter
//! environment, BER ≤ 1e-12, and the 5 mW/Gbit/s channel budget, which
//! sampling tap, line-code CID bound, and oscillator-jitter budget should
//! the receiver use? [`gcco_api::run_optimize`] drives the deterministic
//! search; every probe batch is a list of `ber_point` requests through the
//! shared evaluator ([`gcco_bench::journaled`]) — a local engine (each probe
//! journaled in the `--store` journal under its canonical cache key, so a
//! killed search resumes without recomputing), or a remote
//! `gcco-serve`/`gcco-router` endpoint fanning probe batches across a
//! cluster. Both answer the same BERs, so the final report is
//! byte-identical either way.
//!
//! ```text
//! optimize [--store DIR] [--report FILE] [--quick] [--limit N]
//!          [--throttle-ms N] [--remote ADDR]
//! ```
//!
//! `--quick` runs the cut-down smoke search (one CID bound, coarser
//! tolerance) instead of the full paper flow; `--limit N` stops after N
//! probes.

use gcco_api::{run_optimize, OptimizeOut, OptimizeSpec};
use gcco_bench::journaled::{args_or_exit, opt_f64, Evaluator, Flag, Job};
use gcco_bench::{fmt_ber, header, metrics, result_line};
use gcco_stat::SamplingTap;
use std::fmt::Write as _;

const JOB: Job = Job {
    bin: "optimize",
    flags: &[
        Flag::Store,
        Flag::Report,
        Flag::Quick,
        Flag::Limit,
        Flag::ThrottleMs,
        Flag::Remote,
    ],
    unit: "probes",
    hits_key: metrics::OPT_STORE_HITS,
};

fn tap_str(tap: SamplingTap) -> &'static str {
    match tap {
        SamplingTap::Standard => "standard",
        SamplingTap::Improved => "improved",
    }
}

/// The deterministic design report: corner order is search order, floats
/// are `{:?}` (shortest exact form), and the run-local store-hit count is
/// excluded — so two runs that answered the same probes produce the same
/// bytes, resumed or not, serial or sharded.
fn render_report(opt: &OptimizeSpec, out: &OptimizeOut, quick: bool) -> String {
    let mut report = String::new();
    let _ = writeln!(report, "GCCO design optimizer v1");
    let _ = writeln!(report, "flow {}", if quick { "quick" } else { "paper" });
    let _ = writeln!(report, "target_ber {:?}", opt.target_ber);
    let _ = writeln!(report, "budget_mw_per_gbps {:?}", opt.budget_mw_per_gbps);
    for combo in &out.per_combo {
        let _ = writeln!(
            report,
            "combo tap={} cid={} ckj_rms={} mw_per_gbps={} worst_ber={} probes={}",
            tap_str(combo.tap),
            combo.cid_max,
            opt_f64(combo.ckj_rms),
            opt_f64(combo.mw_per_gbps),
            opt_f64(combo.worst_ber),
            combo.probes
        );
    }
    match &out.best {
        Some(best) => {
            let _ = writeln!(
                report,
                "best tap={} cid={} ckj_rms={:?} mw_per_gbps={:?} worst_ber={:?} \
                 margin={:?} settling_ui={:?}",
                tap_str(best.spec.tap),
                best.spec.cid_max,
                best.spec.ckj_rms,
                best.mw_per_gbps,
                best.worst_ber,
                best.margin,
                best.settling_ui
            );
        }
        None => {
            let _ = writeln!(report, "best none");
        }
    }
    let _ = writeln!(report, "probes {}", out.probes);
    let _ = writeln!(report, "converged {}", out.converged);
    report
}

fn main() {
    let args = args_or_exit(&JOB);
    header(
        "optimize",
        "top-down design-space search (tap x CID x jitter budget x margin)",
        "the §2/§3 flow picks the improved tap, CID-bounded coding, and a \
         bias current that lands the channel under 5 mW/Gbit/s at BER 1e-12",
    );

    let opt = if args.quick {
        OptimizeSpec::quick_flow()
    } else {
        OptimizeSpec::paper_flow()
    };
    println!(
        "searching {} corners (target BER {:e}, budget {} mW/Gbit/s, probe cap {})\n",
        opt.combos().len(),
        opt.target_ber,
        opt.budget_mw_per_gbps,
        opt.max_probes
    );

    let mut eval = Evaluator::open(JOB, args);
    let out = run_optimize(&opt, &mut eval).unwrap_or_else(|e| {
        eprintln!("optimize: {e}");
        std::process::exit(1);
    });

    let report = render_report(&opt, &out, eval.args.quick);
    print!("{report}");

    result_line(metrics::OPT_PROBES, out.probes);
    result_line(metrics::OPT_STORE_HITS, out.store_hits);
    result_line(metrics::OPT_CONVERGED, out.converged);
    if let Some(best) = &out.best {
        result_line(
            metrics::OPT_BEST_MW_PER_GBPS,
            format!("{:.3}", best.mw_per_gbps),
        );
        result_line(
            metrics::OPT_BEST_CKJ_UIRMS,
            format!("{:.4}", best.spec.ckj_rms),
        );
        result_line(
            metrics::OPT_BEST_WORST_BER,
            fmt_ber(best.worst_ber).trim().to_string(),
        );
    }

    eval.write_report(&report);

    match &out.best {
        Some(best) => println!(
            "\nOK: recovered tap={} cid={} at {:.3} mW/Gbit/s (budget {}) in {} probes.",
            tap_str(best.spec.tap),
            best.spec.cid_max,
            best.mw_per_gbps,
            opt.budget_mw_per_gbps,
            out.probes
        ),
        None => {
            println!("\nFAIL: no corner produced a feasible design under the budget.");
            std::process::exit(1);
        }
    }
}
