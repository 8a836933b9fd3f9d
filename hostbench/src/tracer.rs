//! The benchmark's own span recorder: one span around each call the
//! benchmark makes into a layer, kept in memory and written as JSON at exit.
//!
//! A span carries its layer name, start and end (host ns since the tracer
//! was created), its parent span and the op it belongs to. Self time is a
//! span's duration minus the time its direct children cover. When the
//! tracer is off, `begin`/`end` record nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per run; later spans are counted but dropped.
const MAX_SPANS: usize = 1 << 20;
/// Spans written to the JSON file (the first ones); the per-layer table
/// there covers every kept span. Keeps one file to a few MB.
const MAX_EXPORTED: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    dropped: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    /// Tags spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations of every closed span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes the per-layer self times and the first `MAX_EXPORTED` spans
    /// as JSON. `header` holds extra top-level `(key, raw JSON value)`
    /// pairs.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        header: &[(&str, String)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{")?;
        for (key, value) in header {
            write!(out, "\"{key}\": {value}, ")?;
        }
        write!(
            out,
            "\"dropped_spans\": {}, \"kept_spans\": {}, \"layers\": {{",
            self.dropped,
            self.spans.len()
        )?;
        for (i, (name, t)) in self.layer_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        write!(out, "}}, \"spans\": [")?;
        for (i, s) in self.spans.iter().take(MAX_EXPORTED).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let times = t.layer_times();
        let (outer, inner) = (times["outer"], times["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.layer_times().is_empty());
    }
}
