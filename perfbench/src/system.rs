//! The system under test, set up through the public API only: a direct
//! `gcco-serve`, a `gcco-router` in front of two `gcco-serve` backends,
//! or an in-process store-backed `Engine`. Servers run in this process on
//! loopback TCP, so the wire path is the real one.

use crate::gen::{Call, QUEUE_CAPACITY};
use crate::trace::Tracer;
use gcco_api::json::ResultLine;
use gcco_api::serve::{serve, submit_batch, ServeConfig, ServerHandle};
use gcco_api::{Engine, EngineConfig, EvalRequest, EvalResponse, GccoError, ModelSpec};
use gcco_obs::Registry;
use gcco_router::{route, HashRing, RouterConfig, RouterHandle};
use gcco_store::Store;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Overall budget for one client call.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(120);

/// An engine with one compute thread: with one serve worker per server,
/// every server holds at most one compute thread, so the two-backend
/// cluster uses the machine's two cores and no more.
pub fn one_thread_engine() -> Engine {
    Engine::with_config(EngineConfig {
        cache_capacity: EngineConfig::default().cache_capacity,
        workers: Some(1),
    })
}

/// A `gcco-serve` with one worker over a one-thread engine, no store.
pub fn start_server() -> Result<ServerHandle, GccoError> {
    serve(
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: QUEUE_CAPACITY,
            workers: 1,
        },
        one_thread_engine(),
    )
}

/// A router in front of two fresh backends.
pub struct Cluster {
    /// The router, with default retry settings.
    pub router: RouterHandle,
    /// The backends, in the router's ring order.
    pub backends: Vec<ServerHandle>,
}

impl Cluster {
    /// Starts two backends and the router in front of them. Without
    /// `health_probes` the router's prober stays idle, so the backends'
    /// counters see only the calls the benchmark sends.
    pub fn start(health_probes: bool) -> Result<Cluster, GccoError> {
        let backends = vec![start_server()?, start_server()?];
        let defaults = RouterConfig::default();
        let router = route(&RouterConfig {
            backends: backends.iter().map(ServerHandle::local_addr).collect(),
            probe_interval: if health_probes {
                defaults.probe_interval
            } else {
                Duration::from_secs(24 * 3600)
            },
            ..defaults
        })?;
        Ok(Cluster { router, backends })
    }

    /// The backend addresses, in ring order.
    pub fn backend_addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().map(ServerHandle::local_addr).collect()
    }

    /// Stops the router first, then drains the backends.
    pub fn shutdown(self) {
        self.router.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// What a workload drives.
pub enum System {
    /// One `gcco-serve`, called directly.
    Direct(ServerHandle),
    /// `gcco-router` over two backends.
    Routed(Cluster),
    /// An in-process engine with a store on a fresh directory.
    InProcess {
        /// The engine, store attached.
        engine: Engine,
        /// The store's directory.
        dir: PathBuf,
    },
}

/// The replies to one call.
pub enum Reply {
    /// The result lines `submit_batch` returned.
    Wire(Vec<ResultLine>),
    /// In-process results, in envelope order.
    Local(Vec<Result<EvalResponse, GccoError>>),
}

impl Reply {
    /// Envelopes answered with a response rather than an error.
    pub fn ok_count(&self) -> u64 {
        let n = match self {
            Reply::Wire(lines) => lines.iter().filter(|l| l.result.is_ok()).count(),
            Reply::Local(results) => results.iter().filter(|r| r.is_ok()).count(),
        };
        n as u64
    }
}

impl System {
    /// A direct server.
    pub fn direct() -> Result<System, GccoError> {
        Ok(System::Direct(start_server()?))
    }

    /// A routed cluster.
    pub fn routed() -> Result<System, GccoError> {
        Ok(System::Routed(Cluster::start(true)?))
    }

    /// A one-thread engine over a store opened on the fresh directory
    /// `dir`.
    pub fn in_process(dir: &Path) -> Result<System, GccoError> {
        let store = Store::open(dir).map_err(|e| GccoError::Io(e.to_string()))?;
        Ok(System::InProcess {
            engine: one_thread_engine().with_store(Arc::new(store)),
            dir: dir.to_path_buf(),
        })
    }

    /// The address clients call, for the wire systems.
    pub fn addr(&self) -> Option<SocketAddr> {
        match self {
            System::Direct(s) => Some(s.local_addr()),
            System::Routed(c) => Some(c.router.local_addr()),
            System::InProcess { .. } => None,
        }
    }

    /// Warms the first context: builds the Table 1 spec's warm context in
    /// the engine that will serve it (on the cluster, the ring's primary
    /// backend for a `ber_point` of that spec). Building it in place keeps
    /// the set-up free of the accept loop's poll phase, which would make
    /// its duration bimodal.
    pub fn warm(&self) -> Result<(), GccoError> {
        let spec = ModelSpec::paper_table1();
        let engine = match self {
            System::Direct(s) => s.engine(),
            System::Routed(c) => {
                let key = EvalRequest::ber_point(spec.clone()).cache_key();
                let ring = HashRing::new(c.backends.len(), RouterConfig::default().vnodes);
                c.backends[ring.primary(&key)].engine()
            }
            System::InProcess { engine, .. } => engine,
        };
        engine.context_for(&spec).map(|_| ())
    }

    /// One closed-loop client call: one `submit_batch` on the wire
    /// systems, one `Engine::evaluate` per envelope in process. With a
    /// tracer, the public call is recorded as a span under the call.
    pub fn call(&self, call: &Call, tracer: Option<&mut Tracer>) -> Result<Reply, GccoError> {
        let f = || match self {
            System::InProcess { engine, .. } => Ok(Reply::Local(
                call.iter().map(|e| engine.evaluate(&e.request)).collect(),
            )),
            _ => {
                let addr = self.addr().expect("wire systems have an address");
                submit(&addr, call)
            }
        };
        match tracer {
            Some(t) => t.span(self.call_span(), f),
            None => f(),
        }
    }

    /// The name of the span a traced call's public call is recorded as.
    fn call_span(&self) -> &'static str {
        match self {
            System::InProcess { .. } => "engine.evaluate",
            _ => "serve.submit_batch",
        }
    }

    /// Every engine serving this system's calls.
    pub fn engines(&self) -> Vec<&Engine> {
        match self {
            System::Direct(s) => vec![s.engine()],
            System::Routed(c) => c.backends.iter().map(ServerHandle::engine).collect(),
            System::InProcess { engine, .. } => vec![engine],
        }
    }

    /// The registries of the `gcco-serve` instances on the call path.
    pub fn serve_registries(&self) -> Vec<&Registry> {
        match self {
            System::Direct(s) => vec![s.obs()],
            System::Routed(c) => c.backends.iter().map(ServerHandle::obs).collect(),
            System::InProcess { .. } => Vec::new(),
        }
    }

    /// Stops every server thread (draining queued work), or drops the
    /// engine and removes the store directory.
    pub fn shutdown(self) {
        match self {
            System::Direct(s) => s.shutdown(),
            System::Routed(c) => c.shutdown(),
            System::InProcess { engine, dir } => {
                drop(engine);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// One `submit_batch` of `call` to `addr`.
pub fn submit(addr: &SocketAddr, call: &Call) -> Result<Reply, GccoError> {
    submit_batch(addr, call, CALL_TIMEOUT).map(Reply::Wire)
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}
