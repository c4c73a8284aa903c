//! Runs every experiment binary and prints a pass/fail scoreboard — the
//! one-command regeneration of `EXPERIMENTS.md`.
//!
//! The children run **concurrently** (up to [`gcco_stat::available_workers`]
//! at a time, each pinned to one sweep worker to avoid oversubscription) but
//! the scoreboard and the machine-readable record are printed in the fixed
//! experiment order, so the output is deterministic regardless of how the
//! processes interleave.
//!
//! `cargo run --release -p gcco-bench --bin all_experiments`

use gcco_bench::runner::{run_experiment_bins, BinOutcome};
use gcco_stat::available_workers;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig16",
    "fig17",
    "fig18",
    "power_budget",
    "ftol",
    "baseline_suite",
    "jitter_transfer",
    "temperature",
    "ablation_dummy",
    "ablation_gating",
    "ablation_correlation",
    "campaign",
    "mc_campaign",
    "optimize",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    let workers = available_workers();
    println!(
        "running {} experiments, {workers} at a time",
        EXPERIMENTS.len()
    );
    let runs = run_experiment_bins(&exe_dir, EXPERIMENTS, workers);

    let mut failures = Vec::new();
    let mut results = Vec::new();
    for run in &runs {
        match &run.outcome {
            BinOutcome::Pass => {
                println!(
                    "PASS {:<22} ({:>6.1}s, {} results)",
                    run.name,
                    run.secs,
                    run.result_lines.len()
                );
                for line in &run.result_lines {
                    results.push(format!("{}: {line}", run.name));
                }
            }
            BinOutcome::Fail(code) => {
                println!("FAIL {:<22} (exit {code:?})", run.name);
                failures.push(run.name.as_str());
            }
            BinOutcome::Spawn(e) => {
                println!("SKIP {:<22} ({e}) — build all bins first", run.name);
                failures.push(run.name.as_str());
            }
        }
    }

    println!("\n=== machine-readable record ===");
    for line in &results {
        println!("{line}");
    }
    println!(
        "\n{} / {} experiments passed",
        EXPERIMENTS.len() - failures.len(),
        EXPERIMENTS.len()
    );
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::path::Path;

    /// Binaries the runner deliberately leaves out: itself, and the timing
    /// harness (its numbers depend on the machine, not the model).
    const NOT_EXPERIMENTS: &[&str] = &["all_experiments", "perf_snapshot"];

    #[test]
    fn experiments_match_the_binaries() {
        let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for name in EXPERIMENTS {
            assert!(
                bin_dir.join(format!("{name}.rs")).is_file(),
                "EXPERIMENTS lists {name:?}, but src/bin/{name}.rs does not exist"
            );
        }
        for entry in std::fs::read_dir(&bin_dir).expect("src/bin readable") {
            let path = entry.expect("dir entry").path();
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().is_some_and(|e| e == "rs") && !NOT_EXPERIMENTS.contains(&name) {
                assert!(
                    EXPERIMENTS.contains(&name),
                    "src/bin/{name}.rs is not listed in EXPERIMENTS"
                );
            }
        }
    }
}
