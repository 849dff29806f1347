//! Spans recorded by the traced run.
//!
//! The benchmark cannot reach inside the program, so it records a span
//! around each call it makes into a layer's public entry point. Each
//! layer of the ladder (client round trip, engine submit, host query,
//! oracle, kernel) is driven by its own replay of the same script, so a
//! span's `parent` names the layer that wraps this call when the system
//! serves the request (the span of the same request one rung up), not an
//! interval that contains it in time. A layer's self time is therefore
//! its duration minus its child's duration on the same request.
//!
//! Spans stay in memory and are written out as JSON lines at the end of
//! the run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request id: the operation's index in its workload script.
    pub req: u64,
    /// Name of the parent rung (same request), if any.
    pub parent: Option<&'static str>,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            req,
            parent,
            start: start - self.origin,
            end: end - self.origin,
        });
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Durations (µs) of every span called `name`.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Per request, the duration of span `outer` minus that of `inner`
    /// (µs): the self time `outer`'s layer adds over `inner`'s.
    pub fn gap_us(&self, outer: &str, inner: &str) -> Vec<f64> {
        let inner: HashMap<u64, f64> = self
            .spans
            .iter()
            .filter(|s| s.name == inner)
            .map(|s| (s.req, s.us()))
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == outer)
            .filter_map(|s| inner.get(&s.req).map(|i| s.us() - i))
            .collect()
    }

    /// Write every span as one JSON object per line, with `parent`
    /// resolved to the id of the first span of the parent rung on the
    /// same request.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut first: HashMap<(&str, u64), usize> = HashMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            first.entry((s.name, s.req)).or_insert(id);
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .and_then(|p| first.get(&(p, s.req)))
                .map_or("null".to_string(), usize::to_string);
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.req,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
