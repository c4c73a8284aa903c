//! The shared front end of the journaled experiment binaries — `campaign`,
//! `mc_campaign`, `optimize` and `baseline_suite` — which evaluate a list
//! of [`EvalRequest`]s, optionally journaled so a killed run resumes, and
//! write a deterministic report.
//!
//! ```text
//!   --store DIR      attach a persistent gcco-store journal: every finished
//!                    request is journaled under its canonical cache key, so
//!                    a killed run resumes from where it stopped and the
//!                    final report is byte-identical to an uninterrupted run
//!   --report FILE    write the deterministic report to FILE
//!   --workers N      evaluate requests on N workers (default: GCCO_WORKERS
//!                    or available parallelism)
//!   --limit N        evaluate the first N requests, then exit with code 3
//!                    without a report — simulates an interrupted run
//!   --quick          the cut-down smoke variant of the binary's grid
//!   --throttle-ms N  sleep N ms after each computed request (journaled
//!                    ones are not throttled), so a CI job can kill the
//!                    run deterministically mid-way
//!   --remote ADDR    evaluate over TCP against a gcco-serve or gcco-router
//!                    endpoint (refused with --store, --limit and
//!                    --throttle-ms, which only apply locally)
//! ```
//!
//! Each binary accepts a subset of these ([`Job::flags`]). Bad usage exits
//! with code 2, a `--limit` stop with code 3, a failed evaluation with 1.

use crate::result_line;
use gcco_api::json::{Envelope, PROTOCOL_VERSION};
use gcco_api::serve::{submit_batch_with_retry, RetryPolicy};
use gcco_api::{
    BaselineMetric, BaselineSpec, CdrArchKind, Engine, EngineConfig, EvalRequest, EvalResponse,
    GccoError, ModelSpec, ProbeOracle,
};
use gcco_stat::{available_workers, par_map_grid};
use gcco_store::Store;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

/// How long one `--remote` attempt may wait for its whole batch before
/// [`submit_batch_with_retry`] gives up on it and re-sends.
pub const REMOTE_DEADLINE: Duration = Duration::from_secs(600);

/// A command-line flag of the journaled binaries (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--store DIR`
    Store,
    /// `--report FILE`
    Report,
    /// `--workers N`
    Workers,
    /// `--limit N`
    Limit,
    /// `--quick`
    Quick,
    /// `--throttle-ms N`
    ThrottleMs,
    /// `--remote ADDR`
    Remote,
}

impl Flag {
    /// The flag's spelling, its value placeholder (`None` for a switch),
    /// and what a missing or malformed value needs.
    fn spec(self) -> (&'static str, Option<&'static str>, &'static str) {
        match self {
            Flag::Store => ("--store", Some("DIR"), "a directory"),
            Flag::Report => ("--report", Some("FILE"), "a file path"),
            Flag::Workers => ("--workers", Some("N"), "a positive integer"),
            Flag::Limit => ("--limit", Some("N"), "a positive integer"),
            Flag::Quick => ("--quick", None, ""),
            Flag::ThrottleMs => ("--throttle-ms", Some("N"), "an integer"),
            Flag::Remote => ("--remote", Some("ADDR"), "an ADDR:PORT"),
        }
    }
}

/// What a binary tells the [`Evaluator`] about itself.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// The binary's name, prefixed to its error messages.
    pub bin: &'static str,
    /// The flags it accepts, in usage-line order.
    pub flags: &'static [Flag],
    /// What one request is, for the `--limit` stop line ("corners").
    pub unit: &'static str,
    /// The `RESULT` key its store-hit count is printed under.
    pub hits_key: &'static str,
}

/// Parsed command line; flags a binary does not accept keep their defaults.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--store DIR`.
    pub store: Option<String>,
    /// `--report FILE`.
    pub report: Option<String>,
    /// `--workers N`, else [`available_workers`].
    pub workers: usize,
    /// `--limit N`.
    pub limit: Option<u64>,
    /// `--quick`.
    pub quick: bool,
    /// `--throttle-ms N`, else 0.
    pub throttle_ms: u64,
    /// `--remote ADDR`.
    pub remote: Option<String>,
}

/// Parses `raw` (the arguments after the program name) against the flags
/// `job` accepts.
///
/// # Errors
///
/// A message naming the unknown flag (with the usage line), the flag whose
/// value is missing or malformed, or the `--remote` conflict.
pub fn parse_args(job: &Job, raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        store: None,
        report: None,
        workers: available_workers(),
        limit: None,
        quick: false,
        throttle_ms: 0,
        remote: None,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = job.flags.iter().copied().find(|f| f.spec().0 == arg) else {
            let usage: Vec<String> = job
                .flags
                .iter()
                .map(|f| match f.spec() {
                    (name, Some(value), _) => format!("[{name} {value}]"),
                    (name, None, _) => format!("[{name}]"),
                })
                .collect();
            return Err(format!(
                "unknown argument \"{arg}\"\nusage: {} {}",
                job.bin,
                usage.join(" ")
            ));
        };
        let (name, _, need) = flag.spec();
        if flag == Flag::Quick {
            args.quick = true;
            continue;
        }
        let bad = || format!("{name} needs {need}");
        let value = it.next().ok_or_else(bad)?;
        let positive = || {
            value
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(bad)
        };
        match flag {
            Flag::Store => args.store = Some(value.clone()),
            Flag::Report => args.report = Some(value.clone()),
            Flag::Workers => args.workers = positive()? as usize,
            Flag::Limit => args.limit = Some(positive()?),
            Flag::ThrottleMs => args.throttle_ms = value.parse().map_err(|_| bad())?,
            Flag::Remote => args.remote = Some(value.clone()),
            Flag::Quick => unreachable!("handled above"),
        }
    }
    if args.remote.is_some()
        && (args.store.is_some() || args.limit.is_some() || args.throttle_ms > 0)
    {
        return Err("--remote evaluates server-side; --store, --limit and \
                    --throttle-ms only apply locally"
            .to_string());
    }
    Ok(args)
}

/// [`parse_args`] over the process arguments, exiting with code 2 on bad
/// usage.
pub fn args_or_exit(job: &Job) -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    parse_args(job, &raw).unwrap_or_else(|e| {
        eprintln!("{}: {e}", job.bin);
        exit(2);
    })
}

/// Why [`Evaluator`] stopped short of answering every request.
#[derive(Debug)]
enum Stop {
    /// The `--limit` budget ran out; the requests within it were evaluated.
    Limit,
    /// An evaluation or the transport failed.
    Failed(GccoError),
}

enum Backend {
    Local(Box<Engine>),
    Remote(SocketAddr),
}

/// Evaluates request lists for one binary run, locally or over the wire,
/// and writes its report.
pub struct Evaluator {
    job: Job,
    /// The parsed command line.
    pub args: Args,
    backend: Backend,
    /// Requests evaluated so far, counted against `--limit`.
    evaluated: u64,
}

impl Evaluator {
    /// Opens the evaluator `args` asks for: a local [`Engine`] (with its
    /// `--store` journal attached, after printing what the store
    /// recovered) or the `--remote` endpoint. Exits with code 2 when the
    /// store cannot be opened or the address does not resolve.
    pub fn open(job: Job, args: Args) -> Evaluator {
        let fail = |flag: &str, e: &dyn std::fmt::Display| -> ! {
            eprintln!("{}: {flag}: {e}", job.bin);
            exit(2);
        };
        let backend = match &args.remote {
            Some(addr) => match addr.to_socket_addrs().map(|mut a| a.next()) {
                Ok(Some(resolved)) => {
                    println!("evaluating through {addr}");
                    Backend::Remote(resolved)
                }
                Ok(None) => fail("--remote", &format!("{addr} resolves to no address")),
                Err(e) => fail("--remote", &e),
            },
            // One engine worker per request: the parallelism is across
            // requests, so nested grid parallelism would only oversubscribe.
            None => {
                let engine = Engine::with_config(EngineConfig {
                    cache_capacity: 8,
                    workers: Some(1),
                });
                Backend::Local(Box::new(match &args.store {
                    Some(dir) => {
                        let store = Store::open(dir)
                            .unwrap_or_else(|e| fail(&format!("--store {dir}"), &e));
                        let recovery = store.recovery();
                        println!(
                            "store {dir}: {} records recovered, {} torn bytes truncated",
                            recovery.intact_records, recovery.torn_bytes
                        );
                        engine.with_store(Arc::new(store))
                    }
                    None => engine,
                }))
            }
        };
        Evaluator {
            job,
            args,
            backend,
            evaluated: 0,
        }
    }

    /// Evaluates `requests`, returning their responses in request order.
    ///
    /// Exits with code 3 when `--limit` stops the run (after printing how
    /// far it got and the store hits), and with code 1 when an evaluation
    /// fails.
    pub fn eval_all(&mut self, requests: &[EvalRequest]) -> Vec<EvalResponse> {
        match self.try_eval_all(requests) {
            Ok(responses) => responses,
            Err(Stop::Limit) => {
                println!(
                    "stopped after {} {} (--limit); no report written",
                    self.evaluated, self.job.unit
                );
                result_line(self.job.hits_key, self.store_hits());
                exit(3);
            }
            Err(Stop::Failed(e)) => {
                eprintln!("{}: {e}", self.job.bin);
                exit(1);
            }
        }
    }

    /// Evaluates the requests `--limit` still allows — all of them without
    /// one — and reports [`Stop::Limit`] if that was not every request.
    fn try_eval_all(&mut self, requests: &[EvalRequest]) -> Result<Vec<EvalResponse>, Stop> {
        let allowed = self.args.limit.map_or(requests.len(), |n| {
            usize::try_from(n.saturating_sub(self.evaluated)).unwrap_or(usize::MAX)
        });
        let todo = &requests[..allowed.min(requests.len())];
        let responses = match &self.backend {
            Backend::Local(engine) => self.eval_local(engine, todo),
            Backend::Remote(addr) => eval_remote(addr, todo),
        }
        .map_err(Stop::Failed)?;
        self.evaluated += todo.len() as u64;
        if todo.len() < requests.len() {
            return Err(Stop::Limit);
        }
        Ok(responses)
    }

    fn eval_local(
        &self,
        engine: &Engine,
        requests: &[EvalRequest],
    ) -> Result<Vec<EvalResponse>, GccoError> {
        let throttle = Duration::from_millis(self.args.throttle_ms);
        par_map_grid(requests, self.args.workers, |_, request| {
            // Journaled requests replay instantly even under --throttle-ms:
            // the throttle models computation cost, and a resumed run's
            // whole point is not paying it twice.
            let journaled = !throttle.is_zero()
                && engine
                    .store()
                    .is_some_and(|s| s.contains(&request.cache_key()));
            let response = engine.evaluate(request);
            if !throttle.is_zero() && !journaled {
                std::thread::sleep(throttle);
            }
            response
        })
        .into_iter()
        .collect()
    }

    /// Store hits of the local engine so far (0 over the wire: any journal
    /// there is the server's to count).
    pub fn store_hits(&self) -> u64 {
        match &self.backend {
            Backend::Local(engine) => engine.obs().counter("gcco_store_hits_total").get(),
            Backend::Remote(_) => 0,
        }
    }

    /// Writes `report` to the `--report` file, if one was given. Exits with
    /// code 2 when the file cannot be written.
    pub fn write_report(&self, report: &str) {
        if let Some(path) = &self.args.report {
            std::fs::write(path, report).unwrap_or_else(|e| {
                eprintln!("{}: --report {path}: {e}", self.job.bin);
                exit(2);
            });
            println!("report written to {path}");
        }
    }
}

/// One wire batch through [`submit_batch_with_retry`], which hands the
/// results back in envelope order.
fn eval_remote(
    addr: &SocketAddr,
    requests: &[EvalRequest],
) -> Result<Vec<EvalResponse>, GccoError> {
    let envelopes: Vec<Envelope> = requests
        .iter()
        .zip(1..)
        .map(|(request, id)| Envelope {
            id,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: request.clone(),
        })
        .collect();
    submit_batch_with_retry(addr, &envelopes, REMOTE_DEADLINE, &RetryPolicy::default())?
        .into_iter()
        .map(|line| {
            line.result.map_err(|(kind, detail)| {
                GccoError::Io(format!(
                    "{addr}: request {} failed: {kind}: {detail}",
                    line.id
                ))
            })
        })
        .collect()
}

/// The optimizer's probes are plain `ber_point` requests through the
/// evaluator, so they journal, throttle, count against `--limit` and go
/// over the wire like any other request.
impl ProbeOracle for Evaluator {
    fn probe_batch(&mut self, specs: &[ModelSpec]) -> Result<Vec<f64>, GccoError> {
        let requests: Vec<EvalRequest> =
            specs.iter().cloned().map(EvalRequest::ber_point).collect();
        self.eval_all(&requests)
            .into_iter()
            .map(|response| match response {
                EvalResponse::Scalar { value } => Ok(value),
                other => Err(GccoError::Io(format!(
                    "a ber_point probe answered with a {} response",
                    other.kind()
                ))),
            })
            .collect()
    }

    fn store_hits(&self) -> u64 {
        Evaluator::store_hits(self)
    }
}

/// `{:?}` of the value (the shortest exact form), or `none`.
pub fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{x:?}"))
}

/// The SJ frequency (normalized to the bit rate) every `baseline_suite`
/// JTOL column probes.
pub const BASELINE_JTOL_FREQ_NORM: f64 = 0.01;
/// The bracket top for every `baseline_suite` capture-range bisection, as
/// |freq offset|.
pub const BASELINE_CAPTURE_HI: f64 = 0.1;

/// `baseline_suite`'s request list, in report order: the GCCO's JTOL point
/// and frequency tolerance, then the Track / CaptureRange / JtolPoint
/// triple per loop architecture, each tracking `bits` PRBS7 bits.
pub fn baseline_suite_requests(bits: u32) -> Vec<EvalRequest> {
    let gcco_spec = ModelSpec::paper_table1();
    let mut requests = vec![
        EvalRequest::JtolCurve {
            spec: gcco_spec.clone(),
            freqs_norm: vec![BASELINE_JTOL_FREQ_NORM],
            target_ber: 1e-12,
        },
        EvalRequest::FtolSearch {
            spec: gcco_spec,
            target_ber: 1e-12,
        },
    ];
    for arch in CdrArchKind::ALL {
        let spec = BaselineSpec {
            bits,
            ..BaselineSpec::typical(arch)
        };
        for metric in [
            BaselineMetric::Track,
            BaselineMetric::CaptureRange {
                hi: BASELINE_CAPTURE_HI,
            },
            BaselineMetric::JtolPoint {
                freq_norm: BASELINE_JTOL_FREQ_NORM,
            },
        ] {
            requests.push(EvalRequest::baseline(arch, spec, metric));
        }
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcco_api::serve::{serve, ServeConfig};

    const ALL: &[Flag] = &[
        Flag::Store,
        Flag::Report,
        Flag::Workers,
        Flag::Limit,
        Flag::Quick,
        Flag::ThrottleMs,
        Flag::Remote,
    ];

    fn job(flags: &'static [Flag]) -> Job {
        Job {
            bin: "test",
            flags,
            unit: "requests",
            hits_key: "test_store_hits",
        }
    }

    fn raw(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_refuses_flags_the_binary_does_not_accept() {
        let suite = job(&[Flag::Store, Flag::Report, Flag::Quick, Flag::Remote]);
        let err = parse_args(&suite, &raw(&["--quick", "--workers", "2"])).unwrap_err();
        assert_eq!(
            err,
            "unknown argument \"--workers\"\nusage: test [--store DIR] [--report FILE] \
             [--quick] [--remote ADDR]"
        );
        let args = parse_args(&suite, &raw(&["--quick", "--report", "r.txt"])).unwrap();
        assert!(args.quick);
        assert_eq!(args.report.as_deref(), Some("r.txt"));
    }

    #[test]
    fn parser_refuses_remote_with_local_only_flags() {
        let all = job(ALL);
        for local in [
            &["--store", "dir"][..],
            &["--limit", "3"],
            &["--throttle-ms", "5"],
        ] {
            let mut args = raw(&["--remote", "127.0.0.1:1"]);
            args.extend(raw(local));
            let err = parse_args(&all, &args).unwrap_err();
            assert!(err.starts_with("--remote evaluates server-side"), "{err}");
        }
        let args = parse_args(
            &all,
            &raw(&["--remote", "127.0.0.1:1", "--throttle-ms", "0"]),
        );
        assert_eq!(args.unwrap().remote.as_deref(), Some("127.0.0.1:1"));
    }

    #[test]
    fn parser_names_the_flag_with_a_bad_value() {
        let all = job(ALL);
        for (args, err) in [
            (&["--limit", "0"][..], "--limit needs a positive integer"),
            (&["--workers", "x"], "--workers needs a positive integer"),
            (&["--throttle-ms", "-1"], "--throttle-ms needs an integer"),
            (&["--store"], "--store needs a directory"),
        ] {
            assert_eq!(parse_args(&all, &raw(args)).unwrap_err(), err);
        }
    }

    #[test]
    fn limit_evaluates_exactly_the_first_requests_then_stops() {
        let dir = std::env::temp_dir().join(format!("gcco-journaled-limit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().expect("utf-8 temp dir").to_string();
        let args = parse_args(
            &job(ALL),
            &raw(&["--store", &store, "--limit", "3", "--workers", "2"]),
        )
        .unwrap();
        let mut eval = Evaluator::open(job(ALL), args);
        let requests: Vec<EvalRequest> = [-0.01, -0.005, 0.0, 0.005, 0.01]
            .into_iter()
            .map(|eps| {
                EvalRequest::ber_point(
                    ModelSpec::builder()
                        .freq_offset(eps)
                        .build()
                        .expect("in range"),
                )
            })
            .collect();
        assert!(matches!(eval.try_eval_all(&requests), Err(Stop::Limit)));
        assert_eq!(eval.evaluated, 3);
        let Backend::Local(engine) = &eval.backend else {
            panic!("no --remote given");
        };
        let journal = engine.store().expect("--store attached");
        let journaled: Vec<bool> = requests
            .iter()
            .map(|r| journal.contains(&r.cache_key()))
            .collect();
        assert_eq!(journaled, [true, true, true, false, false]);
        // The budget is spent: the next call evaluates nothing.
        assert!(matches!(
            eval.try_eval_all(&requests[3..]),
            Err(Stop::Limit)
        ));
        assert_eq!(eval.evaluated, 3);
        assert!(eval.try_eval_all(&[]).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn local_and_remote_evaluation_agree_on_the_baseline_suite() {
        let requests = baseline_suite_requests(20_000);
        let suite = job(&[Flag::Store, Flag::Report, Flag::Quick, Flag::Remote]);
        let local = Evaluator::open(suite, parse_args(&suite, &[]).unwrap())
            .try_eval_all(&requests)
            .unwrap();

        let server = serve(&ServeConfig::default(), Engine::new()).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let mut remote = Evaluator::open(
            suite,
            parse_args(&suite, &raw(&["--remote", &addr])).unwrap(),
        );
        let over_the_wire = remote.try_eval_all(&requests).unwrap();
        server.shutdown();

        assert_eq!(local.len(), requests.len());
        assert_eq!(local, over_the_wire);
        assert_eq!(remote.store_hits(), 0);
    }
}
