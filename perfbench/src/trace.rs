//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public functions (the engine itself is not instrumented). They
//! stay in memory until the run ends, then are written once as Chrome
//! trace-event JSON, which Perfetto and `chrome://tracing` open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one service job share a run id (the job's index + 1);
    /// everything else runs as run 0.
    pub run: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it).
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a leaf span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Record an already-finished span (e.g. a job observed from outside).
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant, run: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied(),
            run,
        });
    }

    /// Self time of every span (its duration minus what its children
    /// cover), in seconds, indexed like [`Tracer::spans`].
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9)
            .collect()
    }

    /// Total self time per span name, over spans under `root` (inclusive).
    pub fn self_by_name(&self, root: usize) -> BTreeMap<String, f64> {
        let selfs = self.self_secs();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.descends_from(i, root) {
                *out.entry(s.name.clone()).or_insert(0.0) += selfs[i];
            }
        }
        out
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Write the spans as Chrome trace-event JSON (complete `X` events,
    /// one track per run id).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"run\":{}}}}}",
                json_str(&s.name),
                s.run,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
