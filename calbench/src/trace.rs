//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions — name, start, end, parent span and frame id — kept in
//! memory and written out once at exit. A layer's self time is its span
//! time minus the time covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `None` when the tracer is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    frame: u64,
}

/// The span recorder. A disabled tracer reads no clocks and stores nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    scale: f64,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            scale: 1.0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the calibration factor applied to reported self times.
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// The calibration factor applied to reported self times.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, frame: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Per span name: `(self-time ns summed over spans, span count)`.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }

    /// Calibrated self time of the spans named `name`, in µs per `per`
    /// items.
    pub fn self_us_per(&self, name: &str, per: f64) -> f64 {
        let total_ns = self.self_times().get(name).map_or(0, |&(ns, _)| ns);
        crate::stats::ratio(total_ns as f64 / 1e3, per) * self.scale
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"frame\": {}}}",
                s.name, s.start_ns, s.end_ns, s.frame
            )?;
        }
        out.flush()
    }
}
