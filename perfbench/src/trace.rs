//! Client-side spans, recorded by the benchmark around each public call
//! it makes. Spans stay in memory during the run and are written out as
//! JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans of one client call share `call`; a child's
/// `parent` names the span that caused it.
pub struct SpanRec {
    /// The client call this span belongs to.
    pub call: u64,
    /// The layer boundary the span wraps.
    pub name: &'static str,
    /// The enclosing span, `None` for the call itself.
    pub parent: Option<&'static str>,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    call: u64,
    /// Every span recorded so far.
    pub spans: Vec<SpanRec>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            call: 0,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens call `call`: later [`Tracer::span`]s are its children.
    pub fn begin_call(&mut self, call: u64) {
        self.call = call;
    }

    /// Records the span of the current call itself.
    pub fn end_call(&mut self, start: Instant, end: Instant) {
        self.spans.push(SpanRec {
            call: self.call,
            name: "call",
            parent: None,
            start_us: self.us(start),
            end_us: self.us(end),
        });
    }

    /// Runs `f` inside a child span of the current call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let v = f();
        let end = Instant::now();
        self.spans.push(SpanRec {
            call: self.call,
            name,
            parent: Some("call"),
            start_us: self.us(start),
            end_us: self.us(end),
        });
        v
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Per call, the call span's duration minus the part its children
    /// cover (children of one call never overlap: the client is one
    /// thread).
    pub fn call_self_us(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|c| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.call == c.call && s.parent.is_some())
                    .map(|s| s.end_us - s.start_us)
                    .sum();
                c.end_us - c.start_us - children
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"call\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.call,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}
