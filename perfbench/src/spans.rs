//! Spans recorded by the benchmark around its calls into the library.
//!
//! Every timed call goes through [`Tracer::call`], which always measures
//! the call's wall time and, when tracing is on, also keeps a span with a
//! name, start, end, parent and operation id. Spans stay in memory until
//! the run ends; they are then exported as Chrome trace JSON through
//! `telemetry::chrome_trace_json` and folded into per-layer self times.
//! Nothing here reaches inside the library: a span's layer is the part of
//! its name before the first `.`.

use std::collections::BTreeMap;
use std::time::Instant;

use telemetry::trace::{Span, Trace};

/// One recorded span, times in µs since the tracer started.
#[derive(Clone, Debug)]
struct Rec {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Rec>,
    stack: Vec<usize>,
    op: u64,
    roots: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            roots: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` as one top-level unit (`setup` or `op`), giving the spans
    /// inside it a fresh operation id. Returns the result and wall ms.
    pub fn root<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        self.op += 1;
        self.call(kind, f)
    }

    /// Times `f` as a span named `name`, nested under the open span. A
    /// span with no open parent is a top-level unit of its own kind.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.on.then(|| {
            if self.stack.is_empty() {
                *self.roots.entry(name).or_insert(0) += 1;
            }
            let rec = Rec {
                name,
                start_us: self.now_us(),
                end_us: 0.0,
                parent: self.stack.last().copied(),
                op: self.op,
            };
            self.spans.push(rec);
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t = Instant::now();
        let out = f(self);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(i) = idx {
            self.stack.pop();
            self.spans[i].end_us = self.now_us();
        }
        (out, ms)
    }

    /// Adds already-measured child spans under the most recently closed
    /// span named `parent` (sub-intervals measured by a wrapper, or
    /// simulator time read back from a device timeline).
    pub fn children(
        &mut self,
        parent: &'static str,
        name: &'static str,
        intervals: &[(Instant, Instant)],
    ) {
        if !self.on {
            return;
        }
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        for &(a, b) in intervals {
            let start_us = a.duration_since(self.t0).as_secs_f64() * 1e6;
            let end_us = b.duration_since(self.t0).as_secs_f64() * 1e6;
            self.spans.push(Rec {
                name,
                start_us,
                end_us,
                parent: Some(p),
                op: self.spans[p].op,
            });
        }
    }

    /// Adds one child span of `dur_us` at the start of the most recently
    /// closed span named `parent`.
    pub fn child_at_start(&mut self, parent: &'static str, name: &'static str, dur_us: f64) {
        if !self.on {
            return;
        }
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let start_us = self.spans[p].start_us;
        let end_us = (start_us + dur_us).min(self.spans[p].end_us);
        self.spans.push(Rec {
            name,
            start_us,
            end_us,
            parent: Some(p),
            op: self.spans[p].op,
        });
    }

    /// Self time per layer, ms: each span's duration minus the part its
    /// children cover, summed per layer and divided by the number of
    /// top-level units of the kind the span sits under. A layer's figure
    /// is therefore its mean self time per operation, plus per set-up,
    /// plus per standalone call (a gate check, a one-off layout build).
    /// The self time of an `op` or `setup` unit itself is the benchmark's
    /// own glue, reported as the `bench` layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let units = self
                .roots
                .get(self.spans[root].name)
                .copied()
                .unwrap_or(1)
                .max(1);
            let own = (s.end_us - s.start_us - child_us[i]).max(0.0);
            let layer = match (s.parent, s.name) {
                (None, "op" | "setup") => "bench",
                _ => layer_of(s.name),
            };
            *out.entry(layer.to_string()).or_insert(0.0) += own / 1e3 / units as f64;
        }
        out
    }

    /// The spans as a `telemetry` trace on one track; each span carries
    /// its operation id and parent name as arguments.
    pub fn to_trace(&self) -> Trace {
        let mut t = Trace::new();
        for s in &self.spans {
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            t.push_span(Span {
                name: s.name.to_string(),
                cat: layer_of(s.name).to_string(),
                tid: 0,
                ts_us: s.start_us,
                dur_us: s.end_us - s.start_us,
                args: vec![("op".into(), s.op.into()), ("parent".into(), parent.into())],
            });
        }
        t
    }

    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }
}

/// A span's layer: its name up to the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
