//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! a span opens just before a call into a layer's public function and
//! closes when it returns. Each span keeps its name, start, end, parent
//! span and item id; nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    item: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus what direct children cover.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean duration in nanoseconds (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, item: u64) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, item);
        let r = f();
        self.exit();
        r
    }

    /// Per-name aggregates, including self time.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id parent item name start_ns end_ns` (parent `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "every span is closed before writing");
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\titem\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                write!(w, "{id}\t-")?;
            } else {
                write!(w, "{id}\t{}", s.parent)?;
            }
            writeln!(w, "\t{}\t{}\t{}\t{}", s.item, s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}
