//! Sweep-runner utilities shared by the experiment binaries: wall-clock
//! timing, the machine-readable benchmark report (`BENCH_sweep.json`), and
//! concurrent execution of the experiment binaries themselves.
//!
//! The parallel primitives come from [`gcco_stat::par_map_grid`] — the same
//! engine the statistical sweeps use — so experiment fan-out obeys the same
//! `GCCO_WORKERS` override and deterministic-ordering contract.

use gcco_api::json::json_string;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// A value together with the wall-clock seconds it took to produce.
#[derive(Clone, Debug)]
pub struct Timed<T> {
    /// The computed value.
    pub value: T,
    /// Elapsed wall-clock seconds.
    pub secs: f64,
}

/// Runs `f` once and returns its result with the elapsed wall time.
pub fn time<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed {
        value,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Runs `f` `reps` times and returns the **fastest** elapsed seconds (the
/// usual best-of-N defence against scheduler noise). The result of the
/// last repetition is returned alongside.
///
/// # Panics
///
/// Panics if `reps` is 0.
pub fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Timed<T> {
    assert!(reps >= 1, "need at least one repetition");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = time(&mut f);
        best = best.min(t.secs);
        last = Some(t.value);
    }
    Timed {
        value: last.expect("reps >= 1"),
        secs: best,
    }
}

/// One row of a [`BenchReport`]: a named measurement, optionally paired
/// with the baseline it is being compared against.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Measurement identifier (e.g. `fig09_ber_grid`).
    pub id: String,
    /// Baseline (serial/uncached) milliseconds, when the measurement is a
    /// comparison; `None` for plain throughput records.
    pub baseline_ms: Option<f64>,
    /// Optimized-path milliseconds.
    pub optimized_ms: f64,
    /// Free-form annotations (grid shape, event counts, …).
    pub notes: Vec<(String, String)>,
}

impl BenchEntry {
    /// Baseline-over-optimized speedup, when a baseline was recorded.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ms.map(|b| b / self.optimized_ms)
    }
}

/// The machine-readable performance snapshot written by the
/// `perf_snapshot` binary (and readable by CI trend tooling).
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Worker count the parallel paths ran with.
    pub workers: usize,
    /// The measurements.
    pub entries: Vec<BenchEntry>,
    /// Flat observability-registry snapshot (`gcco_obs` metric rows as
    /// name/value pairs; histograms expand to `_count`/`_sum_seconds`/
    /// `_p50`/`_p95`/`_p99` rows). Empty when not recorded.
    pub obs: Vec<(String, f64)>,
}

impl BenchReport {
    /// Adds a baseline-vs-optimized comparison row.
    pub fn push_comparison(
        &mut self,
        id: &str,
        baseline_ms: f64,
        optimized_ms: f64,
        notes: &[(&str, String)],
    ) {
        self.entries.push(BenchEntry {
            id: id.to_string(),
            baseline_ms: Some(baseline_ms),
            optimized_ms,
            notes: notes
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Adds a plain throughput row (no baseline).
    pub fn push_measurement(&mut self, id: &str, ms: f64, notes: &[(&str, String)]) {
        self.entries.push(BenchEntry {
            id: id.to_string(),
            baseline_ms: None,
            optimized_ms: ms,
            notes: notes
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Records the flat snapshot of an observability registry (normally
    /// [`gcco_obs::global()`], which the sweep contexts report into).
    pub fn record_obs(&mut self, registry: &gcco_obs::Registry) {
        self.obs = registry.snapshot_flat();
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled — the
    /// workspace deliberately has no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"id\": {},\n", json_string(&e.id)));
            match e.baseline_ms {
                Some(b) => {
                    out.push_str(&format!("      \"baseline_ms\": {},\n", json_number(b)));
                    out.push_str(&format!(
                        "      \"speedup\": {},\n",
                        json_number(b / e.optimized_ms)
                    ));
                }
                None => out.push_str("      \"baseline_ms\": null,\n"),
            }
            out.push_str(&format!(
                "      \"optimized_ms\": {},\n",
                json_number(e.optimized_ms)
            ));
            out.push_str("      \"notes\": {");
            for (j, (k, v)) in e.notes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.entries.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"obs\": {");
        for (i, (name, value)) in self.obs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {}: {}",
                json_string(name),
                json_number(*value)
            ));
        }
        if !self.obs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// How a child experiment binary finished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinOutcome {
    /// Exited with status 0.
    Pass,
    /// Exited with a non-zero (or signal-terminated) status.
    Fail(Option<i32>),
    /// Could not be spawned (typically: not built yet).
    Spawn(String),
}

/// The record of one child experiment-binary run.
#[derive(Clone, Debug)]
pub struct BinRun {
    /// Binary name (as under `target/release/`).
    pub name: String,
    /// Pass/fail/spawn-error outcome.
    pub outcome: BinOutcome,
    /// Wall-clock seconds for the child run.
    pub secs: f64,
    /// The `RESULT …` lines the child printed, in order.
    pub result_lines: Vec<String>,
}

/// Runs the named experiment binaries from `exe_dir` concurrently
/// (`workers` at a time via [`gcco_stat::par_map_grid`]) and returns their
/// outcomes **in input order**, so the scoreboard stays deterministic no
/// matter how the children interleave.
///
/// When more than one child runs at a time, each child is started with
/// `GCCO_WORKERS=1` so the process-level and sweep-level parallelism do not
/// multiply into oversubscription; the sweep results are worker-count
/// invariant by construction, so this never changes a child's output.
pub fn run_experiment_bins(exe_dir: &Path, names: &[&str], workers: usize) -> Vec<BinRun> {
    gcco_stat::par_map_grid(names, workers, |_, &name| {
        let mut cmd = Command::new(exe_dir.join(name));
        if workers > 1 {
            cmd.env("GCCO_WORKERS", "1");
        }
        let started = Instant::now();
        let output = cmd.output();
        let secs = started.elapsed().as_secs_f64();
        match output {
            Ok(out) => {
                let result_lines = String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .filter(|l| l.starts_with("RESULT"))
                    .map(str::to_string)
                    .collect();
                BinRun {
                    name: name.to_string(),
                    outcome: if out.status.success() {
                        BinOutcome::Pass
                    } else {
                        BinOutcome::Fail(out.status.code())
                    },
                    secs,
                    result_lines,
                }
            }
            Err(e) => BinRun {
                name: name.to_string(),
                outcome: BinOutcome::Spawn(e.to_string()),
                secs,
                result_lines: Vec::new(),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_returns_the_value() {
        let t = time(|| 40 + 2);
        assert_eq!(t.value, 42);
        assert!(t.secs >= 0.0);
        let b = time_best_of(3, || "x");
        assert_eq!(b.value, "x");
    }

    #[test]
    fn report_json_shape() {
        let mut report = BenchReport {
            workers: 4,
            ..Default::default()
        };
        report.push_comparison("grid", 30.0, 10.0, &[("shape", "7x9".to_string())]);
        report.push_measurement("dsim", 12.5, &[]);
        let json = report.to_json();
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(json.contains("\"shape\": \"7x9\""));
        assert!(json.contains("\"baseline_ms\": null"));
        assert_eq!(report.entries[0].speedup(), Some(3.0));
        assert_eq!(report.entries[1].speedup(), None);
        // Without a recorded registry the obs section is an empty object.
        assert!(json.contains("\"obs\": {}"));
    }

    #[test]
    fn report_embeds_obs_snapshot() {
        let registry = gcco_obs::Registry::default();
        registry.counter("bench_demo_total").add(3);
        let mut report = BenchReport::default();
        report.record_obs(&registry);
        let json = report.to_json();
        assert!(json.contains("\"bench_demo_total\": 3.000"));
    }

    /// The report escapes names through the wire codec's `json_string`.
    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn spawn_failure_is_reported_not_fatal() {
        let runs = run_experiment_bins(Path::new("/nonexistent-dir"), &["nope"], 2);
        assert_eq!(runs.len(), 1);
        assert!(matches!(runs[0].outcome, BinOutcome::Spawn(_)));
    }
}
