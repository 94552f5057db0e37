//! In-memory span recorder for the traced run.
//!
//! Every span is a call into one layer's public function, timed from
//! the benchmark's own code: name, start, end, parent span, and the id
//! of the operation it belongs to. Spans stay in memory and are written
//! once, when the run ends. Per-layer samples (one value per call, per
//! chip, per tick or per operation, as each metric defines) are kept
//! beside them and reduced to medians.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
    extra_us: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            extra_us: 0.0,
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span measured elsewhere (e.g. on a worker thread) and
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as one span; returns its result and duration in µs.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, op);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// [`Tracer::span`] for a call the untraced operation does not
    /// make (a reference measurement such as the compute floor). Its
    /// time is set aside so the operation's latency leaves it out.
    pub fn extra<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, us) = self.span(name, None, op, f);
        self.extra_us += us;
        (out, us)
    }

    /// Time spent in [`Tracer::extra`] calls since the last take.
    pub fn take_extra_us(&mut self) -> f64 {
        std::mem::take(&mut self.extra_us)
    }

    /// Adds one sample of a per-layer metric.
    pub fn sample(&mut self, metric: &'static str, unit: &'static str, value: f64) {
        self.samples
            .entry(metric)
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    /// Every metric as `(name, median, unit, samples)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        self.samples
            .iter()
            .map(|(name, (unit, v))| (*name, crate::stats::median(v), *unit, v.len()))
            .collect()
    }

    /// Writes every span as a JSON array.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}{sep}",
                s.name, s.start_us, s.end_us, s.op
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}
