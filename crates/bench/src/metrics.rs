//! The registry of `RESULT` metric keys.
//!
//! Every `result_line` key printed by an experiment binary is declared
//! here, once, as a constant — the single source of truth that
//! `EXPERIMENTS.md`, CI greps, and any programmatic consumer key against.
//! The registry test below scans every binary's source and fails on a key
//! that is not registered, which is how the naming convention stays
//! drift-free:
//!
//! * numbers are spelled with `p` for the decimal point (`0p4`, `0p001`),
//!   never with `.` or scientific notation;
//! * the unit (or normalization) is suffixed where it isn't obvious:
//!   `_ui`, `_uipp`, `_uirms`, `_pct`, `_ps`, `_us`, `_gbps`,
//!   `_mw_per_gbps`;
//! * frequencies normalized to the bit rate carry `fb` (`at_0p4fb`).
//!
//! (Historical drift already fixed here: `fig09` once printed
//! `ber_1uipp_at_1e-4fb` and `ber_1uipp_at_0.4fb`, scientific/dot spellings
//! inconsistent with every other key.)

/// All registered `RESULT` keys, for membership checks and enumeration.
pub const ALL_KEYS: &[&str] = &[
    // ablation_correlation
    INDEPENDENT_ERRORS,
    CORRELATED64_ERRORS,
    // ablation_dummy
    RIGHT_MARGIN_COST_UI,
    STRESSED_ERRORS_WITH,
    STRESSED_ERRORS_WITHOUT,
    // ablation_gating
    OFFSETS_WHERE_ONLY_GATED_MODEL_AGREES,
    // baseline_suite
    BASELINE_STORE_HITS,
    BASELINE_GCCO_JTOL_0P01FB,
    BASELINE_BB_LOCK_BITS,
    BASELINE_BB_JTOL_0P01FB,
    BASELINE_BB_CAPTURE_PCT,
    BASELINE_MM_LOCK_BITS,
    BASELINE_MM_JTOL_0P01FB,
    BASELINE_MM_CAPTURE_PCT,
    BASELINE_GARDNER_LOCK_BITS,
    BASELINE_GARDNER_JTOL_0P01FB,
    BASELINE_GARDNER_CAPTURE_PCT,
    BASELINE_FD_LOCK_BITS,
    BASELINE_FD_JTOL_0P01FB,
    BASELINE_FD_CAPTURE_PCT,
    BASELINE_PI_LOCK_BITS,
    BASELINE_PI_JTOL_0P01FB,
    BASELINE_PI_CAPTURE_PCT,
    BASELINE_POWER_RATIO_BB_OVER_GCCO,
    BASELINE_POWER_RATIO_PI_OVER_GCCO,
    // campaign
    CAMPAIGN_CORNERS,
    CAMPAIGN_PASS,
    CAMPAIGN_YIELD_PCT,
    CAMPAIGN_WORST_BER,
    CAMPAIGN_STORE_HITS,
    // mc_campaign
    MC_CELLS,
    MC_PASS,
    MC_MIN_YIELD_PCT,
    MC_WORST_BER,
    MC_MW_PER_GBPS,
    MC_STORE_HITS,
    // optimize
    OPT_PROBES,
    OPT_STORE_HITS,
    OPT_CONVERGED,
    OPT_BEST_MW_PER_GBPS,
    OPT_BEST_CKJ_UIRMS,
    OPT_BEST_WORST_BER,
    // fig01
    PARALLEL_GBPS,
    SERIAL_GBPS,
    EFFICIENCY_GAIN,
    // fig02
    CHANNELS,
    TOTAL_ERRORS,
    WORST_BER,
    PLL_LOCK_US,
    // fig03
    EYE_OPENING_AT_1E12_UI,
    OPTIMUM_PHASE_UI,
    BEHAVIORAL_OPENING_UI,
    // fig04
    MIN_DEPTH_100PPM_10KBIT_PACKET,
    DEPTH8_10KBIT_100PPM_OK,
    // fig05
    WORST_MARGIN,
    // fig09
    JTOL_AT_0P4FB_UIPP,
    BER_1UIPP_AT_0P0001FB,
    BER_1UIPP_AT_0P4FB,
    // fig10
    WORST_MARGIN_AT_1PCT_OFFSET,
    // fig11
    KAPPA_MAX_SQRT_S,
    LOGLOG_SLOPE,
    SIZED_ISS_UA,
    SIZED_SIGMA_UIRMS,
    // fig12
    RESTART_LATENCY_PS,
    // fig13
    ERRORS_TAU_0P75T,
    ERRORS_TAU_0P375T,
    ERRORS_TAU_0P875T,
    // fig14
    LEFT_MARGIN_UI,
    RIGHT_MARGIN_UI,
    MEASURED_BER,
    // fig16
    STANDARD_RIGHT_MARGIN_UI,
    IMPROVED_RIGHT_MARGIN_UI,
    STANDARD_ERRORS,
    IMPROVED_ERRORS,
    // fig17
    JTOL_GAIN_AT_0P3FB,
    // fig18
    HORIZONTAL_OPENING_UI,
    VERTICAL_OPENING_FRAC,
    ERRORS,
    // ftol
    CID_8B10B,
    CID_PRBS7,
    FTOL_8B10B_STANDARD_PCT,
    BER_AT_100PPM,
    // jitter_transfer
    GCCO_MIN_GAIN,
    BB_GAIN_AT_0P001,
    BB_GAIN_AT_0P1,
    // perf_snapshot
    GRID_SPEEDUP,
    JTOL_SPEEDUP,
    STAT_KERNEL_SPEEDUP,
    DSIM_MEVENTS_PER_S,
    DSIM_CDR_SPEEDUP,
    DSIM_CDR_MEVENTS_PER_S,
    // power_budget
    GCCO_MW_PER_GBPS,
    SCAN_MW_PER_GBPS,
    PLL_CDR_MW_PER_GBPS,
    GCCO_VS_PLL_POWER_RATIO,
    // table1
    DJ_UIPP,
    RJ_UIRMS,
    RJ_UIPP_AT_1E12,
    CKJ_UIRMS,
    CID_MAX,
    // temperature
    ROOM_MW_PER_GBPS,
    HOT_MW_PER_GBPS,
];

// ablation_correlation — edge-correlation ablation
/// Monte-Carlo errors with independent edge jitter.
pub const INDEPENDENT_ERRORS: &str = "independent_errors";
/// Monte-Carlo errors with 64-bit-correlated edge jitter.
pub const CORRELATED64_ERRORS: &str = "correlated64_errors";

// ablation_dummy — dummy-cell ablation
/// Right eye-margin cost of removing the dummy cell, UI.
pub const RIGHT_MARGIN_COST_UI: &str = "right_margin_cost_ui";
/// Stressed-run errors with the dummy cell.
pub const STRESSED_ERRORS_WITH: &str = "stressed_errors_with";
/// Stressed-run errors without the dummy cell.
pub const STRESSED_ERRORS_WITHOUT: &str = "stressed_errors_without";

// ablation_gating — gating-term ablation
/// Offsets where only the gated model matches Monte-Carlo.
pub const OFFSETS_WHERE_ONLY_GATED_MODEL_AGREES: &str = "offsets_where_only_gated_model_agrees";

// baseline_suite — GCCO vs the behavioral CDR loops
/// Store hits this run (>0 proves a warm run replayed journaled rows).
pub const BASELINE_STORE_HITS: &str = "baseline_store_hits";
/// GCCO JTOL at 0.01 f_b, UIpp (engine jtol_curve).
pub const BASELINE_GCCO_JTOL_0P01FB: &str = "baseline_gcco_jtol_0p01fb";
/// Bang-bang behavioral lock acquisition, bits (or `none`).
pub const BASELINE_BB_LOCK_BITS: &str = "baseline_bb_lock_bits";
/// Bang-bang behavioral JTOL at 0.01 f_b, UIpp.
pub const BASELINE_BB_JTOL_0P01FB: &str = "baseline_bb_jtol_0p01fb";
/// Bang-bang bisected capture range, percent of f_b.
pub const BASELINE_BB_CAPTURE_PCT: &str = "baseline_bb_capture_pct";
/// Mueller-Muller behavioral lock acquisition, bits (or `none`).
pub const BASELINE_MM_LOCK_BITS: &str = "baseline_mm_lock_bits";
/// Mueller-Muller behavioral JTOL at 0.01 f_b, UIpp.
pub const BASELINE_MM_JTOL_0P01FB: &str = "baseline_mm_jtol_0p01fb";
/// Mueller-Muller bisected capture range, percent of f_b.
pub const BASELINE_MM_CAPTURE_PCT: &str = "baseline_mm_capture_pct";
/// Gardner behavioral lock acquisition, bits (or `none`).
pub const BASELINE_GARDNER_LOCK_BITS: &str = "baseline_gardner_lock_bits";
/// Gardner behavioral JTOL at 0.01 f_b, UIpp.
pub const BASELINE_GARDNER_JTOL_0P01FB: &str = "baseline_gardner_jtol_0p01fb";
/// Gardner bisected capture range, percent of f_b.
pub const BASELINE_GARDNER_CAPTURE_PCT: &str = "baseline_gardner_capture_pct";
/// FD-assisted bang-bang lock acquisition, bits (or `none`).
pub const BASELINE_FD_LOCK_BITS: &str = "baseline_fd_lock_bits";
/// FD-assisted bang-bang JTOL at 0.01 f_b, UIpp.
pub const BASELINE_FD_JTOL_0P01FB: &str = "baseline_fd_jtol_0p01fb";
/// FD-assisted bang-bang bisected capture range, percent of f_b.
pub const BASELINE_FD_CAPTURE_PCT: &str = "baseline_fd_capture_pct";
/// Phase-interpolator behavioral lock acquisition, bits (or `none`).
pub const BASELINE_PI_LOCK_BITS: &str = "baseline_pi_lock_bits";
/// Phase-interpolator slew-limited JTOL at 0.01 f_b, UIpp.
pub const BASELINE_PI_JTOL_0P01FB: &str = "baseline_pi_jtol_0p01fb";
/// Phase-interpolator rotation-rate cap, percent of f_b.
pub const BASELINE_PI_CAPTURE_PCT: &str = "baseline_pi_capture_pct";
/// Bang-bang/GCCO per-channel power ratio.
pub const BASELINE_POWER_RATIO_BB_OVER_GCCO: &str = "baseline_power_ratio_bb_over_gcco";
/// Phase-interpolator/GCCO per-channel power ratio.
pub const BASELINE_POWER_RATIO_PI_OVER_GCCO: &str = "baseline_power_ratio_pi_over_gcco";

// campaign — multi-channel corner-yield campaign
/// Corner count in the campaign grid.
pub const CAMPAIGN_CORNERS: &str = "campaign_corners";
/// Corners meeting the BER target.
pub const CAMPAIGN_PASS: &str = "campaign_pass";
/// Yield: passing corners over all corners, percent.
pub const CAMPAIGN_YIELD_PCT: &str = "campaign_yield_pct";
/// Worst corner BER.
pub const CAMPAIGN_WORST_BER: &str = "campaign_worst_ber";
/// Store hits this run (>0 proves a resume replayed journaled corners).
pub const CAMPAIGN_STORE_HITS: &str = "campaign_store_hits";

// mc_campaign — multi-channel yield-grid campaign
/// Cell count in the multi-channel grid.
pub const MC_CELLS: &str = "mc_cells";
/// Cells whose aggregate yield is 100 %.
pub const MC_PASS: &str = "mc_pass";
/// Minimum per-cell yield across the grid, percent.
pub const MC_MIN_YIELD_PCT: &str = "mc_min_yield_pct";
/// Worst per-channel BER across every cell.
pub const MC_WORST_BER: &str = "mc_worst_ber";
/// Channel efficiency reported by the worst-yield cell, mW/Gbit/s.
pub const MC_MW_PER_GBPS: &str = "mc_mw_per_gbps";
/// Store hits this run (>0 proves a resume replayed journaled cells).
pub const MC_STORE_HITS: &str = "mc_store_hits";

// optimize — top-down design-space optimizer
/// Oracle probes the search consumed.
pub const OPT_PROBES: &str = "opt_probes";
/// Probes answered from the store journal (>0 proves a resume replayed).
pub const OPT_STORE_HITS: &str = "opt_store_hits";
/// Whether the search finished inside its probe cap.
pub const OPT_CONVERGED: &str = "opt_converged";
/// Recovered design's channel efficiency, mW/Gbit/s.
pub const OPT_BEST_MW_PER_GBPS: &str = "opt_best_mw_per_gbps";
/// Recovered design's oscillator-jitter budget, UIrms.
pub const OPT_BEST_CKJ_UIRMS: &str = "opt_best_ckj_uirms";
/// Worst BER over the recovered design's evidence pair.
pub const OPT_BEST_WORST_BER: &str = "opt_best_worst_ber";

// fig01 — parallel-optical motivation
/// Aggregate parallel throughput, Gbit/s.
pub const PARALLEL_GBPS: &str = "parallel_gbps";
/// Serial reference throughput, Gbit/s.
pub const SERIAL_GBPS: &str = "serial_gbps";
/// Parallel-over-serial efficiency gain.
pub const EFFICIENCY_GAIN: &str = "efficiency_gain";

// fig02 — multi-channel receiver
/// Channel count.
pub const CHANNELS: &str = "channels";
/// Total bit errors across channels.
pub const TOTAL_ERRORS: &str = "total_errors";
/// Worst per-channel BER.
pub const WORST_BER: &str = "worst_ber";
/// PLL-based reference lock time, µs.
pub const PLL_LOCK_US: &str = "pll_lock_us";

// fig03 — eye diagram / sampling phase
/// Statistical eye opening at BER 1e-12, UI.
pub const EYE_OPENING_AT_1E12_UI: &str = "eye_opening_at_1e-12_ui";
/// Optimum sampling phase, UI.
pub const OPTIMUM_PHASE_UI: &str = "optimum_phase_ui";
/// Behavioral-simulation eye opening, UI.
pub const BEHAVIORAL_OPENING_UI: &str = "behavioral_opening_ui";

// fig04 — elastic buffer
/// Minimum buffer depth for a 10 kbit packet at ±100 ppm.
pub const MIN_DEPTH_100PPM_10KBIT_PACKET: &str = "min_depth_100ppm_10kbit_packet";
/// Whether depth 8 passes the spec case.
pub const DEPTH8_10KBIT_100PPM_OK: &str = "depth8_10kbit_100ppm_ok";

// fig05 — jitter-tolerance mask
/// Worst margin against the InfiniBand mask.
pub const WORST_MARGIN: &str = "worst_margin";

// fig09 — BER vs SJ frequency × amplitude
/// JTOL at 0.4 f_b, UIpp.
pub const JTOL_AT_0P4FB_UIPP: &str = "jtol_at_0p4fb_uipp";
/// BER at 1 UIpp SJ, f = 1e-4 f_b.
pub const BER_1UIPP_AT_0P0001FB: &str = "ber_1uipp_at_0p0001fb";
/// BER at 1 UIpp SJ, f = 0.4 f_b.
pub const BER_1UIPP_AT_0P4FB: &str = "ber_1uipp_at_0p4fb";

// fig10 — BER with 1 % frequency offset
/// Worst mask margin with 1 % offset.
pub const WORST_MARGIN_AT_1PCT_OFFSET: &str = "worst_margin_at_1pct_offset";

// fig11 — power / phase-noise trade-off
/// Maximum κ meeting the jitter budget, √s.
pub const KAPPA_MAX_SQRT_S: &str = "kappa_max_sqrt_s";
/// Fitted log-log κ-vs-power slope.
pub const LOGLOG_SLOPE: &str = "loglog_slope";
/// Analytically sized tail current, µA.
pub const SIZED_ISS_UA: &str = "sized_iss_ua";
/// Jitter at the sized bias, UIrms.
pub const SIZED_SIGMA_UIRMS: &str = "sized_sigma_uirms";

// fig12 — gated-oscillator timing diagram
/// Clock restart latency after trigger release, ps.
pub const RESTART_LATENCY_PS: &str = "restart_latency_ps";

// fig13 — gating window ablation
/// Errors at τ = 0.75 T.
pub const ERRORS_TAU_0P75T: &str = "errors_tau_0p75T";
/// Errors at τ = 0.375 T.
pub const ERRORS_TAU_0P375T: &str = "errors_tau_0p375T";
/// Errors at τ = 0.875 T.
pub const ERRORS_TAU_0P875T: &str = "errors_tau_0p875T";

// fig14 — eye margins under offset
/// Left eye margin, UI.
pub const LEFT_MARGIN_UI: &str = "left_margin_ui";
/// Right eye margin, UI.
pub const RIGHT_MARGIN_UI: &str = "right_margin_ui";
/// Measured behavioral BER.
pub const MEASURED_BER: &str = "measured_ber";

// fig16 — improved sampling point (behavioral)
/// Standard-tap right margin, UI.
pub const STANDARD_RIGHT_MARGIN_UI: &str = "standard_right_margin_ui";
/// Improved-tap right margin, UI.
pub const IMPROVED_RIGHT_MARGIN_UI: &str = "improved_right_margin_ui";
/// Standard-tap stressed errors.
pub const STANDARD_ERRORS: &str = "standard_errors";
/// Improved-tap stressed errors.
pub const IMPROVED_ERRORS: &str = "improved_errors";

// fig17 — improved sampling point (statistical)
/// Improved/standard JTOL gain at 0.3 f_b.
pub const JTOL_GAIN_AT_0P3FB: &str = "jtol_gain_at_0p3fb";

// fig18 — stressed eye
/// Horizontal eye opening, UI.
pub const HORIZONTAL_OPENING_UI: &str = "horizontal_opening_ui";
/// Vertical eye opening, fraction of swing.
pub const VERTICAL_OPENING_FRAC: &str = "vertical_opening_frac";
/// Stressed-eye bit errors.
pub const ERRORS: &str = "errors";

// ftol — frequency tolerance / CID statistics
/// Maximum 8b10b run length.
pub const CID_8B10B: &str = "cid_8b10b";
/// Maximum PRBS7 run length.
pub const CID_PRBS7: &str = "cid_prbs7";
/// FTOL for 8b10b data, standard tap, percent.
pub const FTOL_8B10B_STANDARD_PCT: &str = "ftol_8b10b_standard_pct";
/// BER at the ±100 ppm spec corner.
pub const BER_AT_100PPM: &str = "ber_at_100ppm";

// jitter_transfer
/// Minimum GCCO jitter-transfer gain.
pub const GCCO_MIN_GAIN: &str = "gcco_min_gain";
/// Bang-bang transfer gain at 0.001 f_b.
pub const BB_GAIN_AT_0P001: &str = "bb_gain_at_0p001";
/// Bang-bang transfer gain at 0.1 f_b.
pub const BB_GAIN_AT_0P1: &str = "bb_gain_at_0p1";

// perf_snapshot
/// Parallel-over-serial BER-grid speedup.
pub const GRID_SPEEDUP: &str = "grid_speedup";
/// Parallel-over-serial JTOL speedup.
pub const JTOL_SPEEDUP: &str = "jtol_speedup";
/// Lane-batched-over-scalar speedup of the composite BER/JTOL kernel mix,
/// single thread.
pub const STAT_KERNEL_SPEEDUP: &str = "stat_kernel_speedup";
/// Event-driven kernel throughput on the free-running ring, Mevents/s.
pub const DSIM_MEVENTS_PER_S: &str = "dsim_mevents_per_s";
/// Calendar-over-heap scheduler speedup on the million-bit PRBS31 CDR run.
pub const DSIM_CDR_SPEEDUP: &str = "dsim_cdr_speedup";
/// Event throughput of the PRBS31 CDR run (calendar scheduler), Mevents/s.
pub const DSIM_CDR_MEVENTS_PER_S: &str = "dsim_cdr_mevents_per_s";

// power_budget
/// GCCO channel efficiency, mW/Gbit/s.
pub const GCCO_MW_PER_GBPS: &str = "gcco_mw_per_gbps";
/// Grid-scan cross-check efficiency, mW/Gbit/s.
pub const SCAN_MW_PER_GBPS: &str = "scan_mw_per_gbps";
/// Per-channel PLL CDR efficiency, mW/Gbit/s.
pub const PLL_CDR_MW_PER_GBPS: &str = "pll_cdr_mw_per_gbps";
/// PLL/GCCO power ratio.
pub const GCCO_VS_PLL_POWER_RATIO: &str = "gcco_vs_pll_power_ratio";

// table1
/// Deterministic jitter, UIpp.
pub const DJ_UIPP: &str = "dj_uipp";
/// Random jitter, UIrms.
pub const RJ_UIRMS: &str = "rj_uirms";
/// Random jitter at BER 1e-12, UIpp.
pub const RJ_UIPP_AT_1E12: &str = "rj_uipp_at_1e-12";
/// Oscillator jitter, UIrms.
pub const CKJ_UIRMS: &str = "ckj_uirms";
/// Line-code CID bound.
pub const CID_MAX: &str = "cid_max";

// temperature
/// Room-temperature efficiency, mW/Gbit/s.
pub const ROOM_MW_PER_GBPS: &str = "room_mw_per_gbps";
/// 85 °C efficiency, mW/Gbit/s.
pub const HOT_MW_PER_GBPS: &str = "hot_mw_per_gbps";

#[cfg(test)]
mod tests {
    use super::ALL_KEYS;
    use std::collections::HashSet;

    #[test]
    fn registry_has_no_duplicates() {
        let mut seen = HashSet::new();
        for key in ALL_KEYS {
            assert!(seen.insert(*key), "duplicate registered key {key:?}");
        }
    }

    /// Extracts every string literal passed as the first argument of a
    /// `result_line(` call in `source`.
    fn literal_keys(source: &str) -> Vec<String> {
        let mut keys = Vec::new();
        let mut rest = source;
        while let Some(at) = rest.find("result_line(") {
            rest = &rest[at + "result_line(".len()..];
            let arg = rest.trim_start();
            if let Some(arg) = arg.strip_prefix('"') {
                if let Some(end) = arg.find('"') {
                    keys.push(arg[..end].to_string());
                }
            }
        }
        keys
    }

    #[test]
    fn every_binary_key_is_registered() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let registered: HashSet<&str> = ALL_KEYS.iter().copied().collect();
        let mut checked = 0;
        for entry in std::fs::read_dir(&bin_dir).expect("src/bin readable") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("source readable");
            for key in literal_keys(&source) {
                assert!(
                    registered.contains(key.as_str()),
                    "{}: RESULT key {key:?} is not in the metrics registry — \
                     add it to crates/bench/src/metrics.rs (and follow its \
                     naming conventions)",
                    path.display()
                );
                checked += 1;
            }
        }
        assert!(checked >= 40, "scanner found only {checked} keys — broken?");
    }

    #[test]
    fn keys_follow_the_spelling_convention() {
        for key in ALL_KEYS {
            assert!(
                !key.contains('.') && !key.contains(' ') && !key.contains('-')
                    || key.contains("1e-12"),
                "key {key:?} breaks the no-dot/no-dash spelling convention"
            );
        }
    }
}
