//! In-memory span recording for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans; nothing inside the program is instrumented. Every span has a
//! name, a start, an end and its parent, and all spans of one measurement
//! share one id (`(group, seq)`: the measurement seed, or
//! `(session, seq)` on the fleet). Spans are buffered per unit of work on
//! the thread that ran it, committed under one lock, kept in memory for
//! the whole run and written out once at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: (u64, u64),
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's span store.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a buffer for the spans of one unit of work. `parent` (a
    /// committed span index) becomes the parent of the unit's root spans.
    pub fn unit(&self, id: (u64, u64), parent: Option<usize>) -> Unit<'_> {
        Unit {
            tracer: self,
            id,
            parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a run-level span, committed to the store before
    /// `f` runs so units on other threads can name it (by the index `f`
    /// receives) as their parent.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let index = {
            let mut store = self.spans.lock().expect("span store lock poisoned");
            store.push(Span {
                name,
                id: (0, 0),
                parent,
                start_ns,
                end_ns: start_ns,
            });
            store.len() - 1
        };
        let out = f(index);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store lock poisoned")[index].end_ns = end_ns;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Takes every span committed so far, leaving the store empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock poisoned"))
    }
}

/// Spans of one unit of work, recorded on one thread and committed to the
/// tracer (under one lock) when the unit is dropped.
pub struct Unit<'t> {
    tracer: &'t Tracer,
    id: (u64, u64),
    parent: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Unit<'_> {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of this unit.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns: self.tracer.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.tracer.now_ns();
        out
    }

    fn flush(&mut self) {
        let mut store = self.tracer.spans.lock().expect("span store lock poisoned");
        let base = store.len();
        for mut s in self.spans.drain(..) {
            s.parent = match s.parent {
                Some(local) => Some(base + local),
                None => self.parent,
            };
            store.push(s);
        }
    }
}

impl Drop for Unit<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() && !std::thread::panicking() {
            self.flush();
        }
    }
}

/// Per-name totals over a span list: inclusive time, self time (span
/// minus the part its children cover) and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    /// Mean self time per call, in µs.
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Writes the spans as JSON lines (one object per span, store order).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"id\":\"{}:{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id.0, s.id.1, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
