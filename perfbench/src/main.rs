//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <point_rtt|mixed_batch|design_flow|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the system up (several times; the median is `setup_s`),
//! drives one seeded closed-loop client for `--seconds`, gates every reply
//! byte for byte against a reference engine, and prints one JSON object as
//! its last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A human-readable
//! summary goes to standard error; the traced run also writes its spans
//! and report under `.perfbench_out/`. See `perfbench/README.md`.

mod gate;
mod gen;
mod layers;
mod stats;
mod system;
mod trace;

use gen::{Call, Generator, Workload};
use layers::{Counts, Metric, Window};
use stats::{median, peak_rss_mb, process_cpu_ms, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use system::{Reply, System};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// `peak_rss_mb` is read after this many calls (or at the end of a
/// window that makes fewer), so it measures memory at a fixed amount of
/// work: read at the end of the window, it would grow with throughput and
/// a faster machine would read as a memory regression. Each count is
/// reached well inside a 25 s window on a busy 2-core machine.
fn rss_checkpoint(workload: Workload) -> usize {
    match workload {
        Workload::PointRtt => 250,
        Workload::MixedBatch => 30,
        Workload::DesignFlow => 100,
    }
}

/// Reference threads for the gate (after the window, servers idle).
const REFERENCE_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// The result a run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn json_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn setup(workload: Workload, scratch: &Path, i: usize) -> Result<System, String> {
    let sys = match workload {
        Workload::PointRtt => System::direct(),
        Workload::MixedBatch => System::routed(),
        Workload::DesignFlow => System::in_process(&scratch.join(format!("store-{i}"))),
    }
    .map_err(|e| format!("setup: {e}"))?;
    sys.warm().map_err(|e| format!("warm-up: {e}"))?;
    Ok(sys)
}

fn run(workload: Workload, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    // ---- set-up, several times; the last system is kept ----------------
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<System> = None;
    for i in 0..SETUPS {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let sys = setup(workload, scratch, i)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(sys);
    }
    let sys = kept.expect("at least one set-up ran");

    // ---- the timed window: one closed-loop client ----------------------
    let mut gen = Generator::new(workload, args.seed);
    let mut tracer = Tracer::new();
    let mut calls: Vec<Call> = Vec::new();
    let mut replies = Vec::new();
    let mut latency_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut ok, mut attempted) = (0u64, 0u64);
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    let end = start + Duration::from_secs(args.seconds);
    let mut last = start;
    let mut k = 0u64;
    let mut rss_mb = None;
    while Instant::now() < end {
        let call = gen.next_call();
        // The traced run alternates blocks of traced and untraced calls,
        // so the tracing overhead is measured under identical conditions.
        // Whole blocks of `REPEAT_BLOCK` keep `design_flow`'s one repeat
        // per block from landing on one side more often than the other.
        let traced = args.trace && (k / gen::REPEAT_BLOCK) % 2 == 1;
        let t0 = Instant::now();
        let out = if traced {
            tracer.begin_call(k);
            let out = sys.call(&call, Some(&mut tracer));
            tracer.end_call(t0, Instant::now());
            out
        } else {
            sys.call(&call, None)
        };
        last = Instant::now();
        let ms = (last - t0).as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms);
        } else {
            latency_ms.push(ms);
        }
        attempted += call.len() as u64;
        ok += out.as_ref().map_or(0, Reply::ok_count);
        replies.push(out);
        calls.push(call);
        if calls.len() == rss_checkpoint(workload) {
            rss_mb = Some(peak_rss_mb());
        }
        k += 1;
    }
    let wall_s = (last - start).as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu0;
    let rss_mb = rss_mb.unwrap_or_else(peak_rss_mb);
    let counts = Counts::take(&sys);

    // ---- the correctness gate, outside the window ----------------------
    let refs = gate::references(&calls, REFERENCE_THREADS);
    let mut verdict = gate::Verdict::default();
    for (call, reply) in calls.iter().zip(&replies) {
        verdict.absorb(gate::verify(call, reply, &refs));
    }
    let failed = verdict.failed;

    let all_ms: Vec<f64> = latency_ms.iter().chain(&traced_ms).copied().collect();
    let ops_per_s = ok as f64 / wall_s;
    eprintln!(
        "{}: seed {} | {} calls, {} ops in {:.3} s | ops_per_s {:.3} | latency_p50_ms {:.3} \
         latency_p90_ms {:.3} (n={}) | failed_frac {} | setup_s {:.4} | peak_rss_mb {:.1} | \
         proc cpu {:.3} ms/op",
        workload.name(),
        args.seed,
        calls.len(),
        ok,
        wall_s,
        ops_per_s,
        median(&all_ms),
        quantile(&all_ms, 0.9),
        all_ms.len(),
        failed as f64 / attempted.max(1) as f64,
        median(&setup_s),
        rss_mb,
        cpu_ms / ok.max(1) as f64,
    );

    let metrics = if args.trace {
        let flow_outs: Vec<(u64, u64)> = replies
            .iter()
            .filter_map(|r| match r {
                Ok(Reply::Local(results)) => Some(results),
                _ => None,
            })
            .flatten()
            .filter_map(|r| match r {
                Ok(gcco_api::EvalResponse::Optimize { out }) => Some((out.probes, out.store_hits)),
                _ => None,
            })
            .collect();
        let window = Window {
            workload,
            seed: args.seed,
            sys: &sys,
            calls: &calls,
            refs: &refs,
            counts: &counts,
            tracer: &tracer,
            untraced_ms: &latency_ms,
            traced_ms: &traced_ms,
            flow_outs: &flow_outs,
            ops: ok,
            cpu_ms,
            scratch,
        };
        let layers = layers::measure(&window).map_err(|e| format!("layer probes: {e}"))?;
        verdict.absorb(layers.verdict);
        let mut report = layers.report;
        for m in &layers.metrics {
            let _ = writeln!(report, "- `{}` = {} {}", m.name, m.value, m.unit);
        }
        eprintln!("{report}");
        write_trace_output(workload, args.seed, &tracer, &report);
        layers.metrics
    } else {
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("latency_p50_ms", median(&all_ms), "ms"),
            metric("latency_p90_ms", quantile(&all_ms, 0.9), "ms"),
            metric("peak_rss_mb", rss_mb, "MiB"),
        ]
    };
    sys.shutdown();
    for m in verdict.mismatches.iter().take(5) {
        eprintln!("MISMATCH {m}");
    }
    Ok(Outcome {
        correct: verdict.passed(),
        attempted,
        failed,
        metrics,
    })
}

/// Writes the traced run's spans and report under `.perfbench_out/`.
fn write_trace_output(workload: Workload, seed: u64, tracer: &Tracer, report: &str) {
    let dir = PathBuf::from(".perfbench_out");
    let stem = format!("{}-seed{seed}", workload.name());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write_jsonl(&dir.join(format!("{stem}-spans.jsonl"))))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-report.md")), report));
    if let Err(e) = written {
        eprintln!("could not write the trace output: {e}");
    }
}

/// `--workload all`: every workload in its own child process (so each
/// reports its own peak RSS), then one combined line with the metrics
/// prefixed by workload name.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut total = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        println!("{last}");
        if !out.status.success() && !last.starts_with('{') {
            return Err(format!("{} failed: {}", w.name(), out.status));
        }
        let v = gcco_api::json::Json::parse(&last).map_err(|e| e.to_string())?;
        let field = |k: &str| v.field(k).map_err(|e| e.to_string());
        total.correct &= field("correct")?
            .as_bool("correct")
            .map_err(|e| e.to_string())?;
        total.attempted += field("attempted")?
            .as_u64("attempted")
            .map_err(|e| e.to_string())?;
        total.failed += field("failed")?
            .as_u64("failed")
            .map_err(|e| e.to_string())?;
        if let gcco_api::json::Json::Obj(fields) = field("metrics")? {
            for (name, m) in fields {
                let value = m.field("value").and_then(|x| x.as_f64("value"));
                let unit = m
                    .field("unit")
                    .and_then(|x| x.as_str("unit").map(str::to_string));
                if let (Ok(value), Ok(unit)) = (value, unit) {
                    total.metrics.push(Metric {
                        name: format!("{}.{name}", w.name()),
                        value,
                        unit,
                    });
                }
            }
        }
    }
    Ok(total)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else if let Some(w) = Workload::from_name(&args.workload) {
        let scratch = PathBuf::from(".perfbench_tmp").join(format!(
            "{}-{}-{}",
            w.name(),
            args.seed,
            std::process::id()
        ));
        let r = std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("scratch directory: {e}"))
            .and_then(|()| run(w, &args, &scratch));
        let _ = std::fs::remove_dir_all(&scratch);
        let _ = std::fs::remove_dir(".perfbench_tmp");
        r
    } else {
        Err(format!("unknown workload {}", args.workload))
    };
    match result {
        Ok(o) => {
            println!("{}", json_line(&o));
            if o.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: replies differ from the reference engine");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
