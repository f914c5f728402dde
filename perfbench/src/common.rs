//! Pieces every workload shares: run settings, the set-up and operation
//! loops, robust statistics, answer digests, simulator accounting read
//! back from device timelines, and the physics gate.

use std::collections::BTreeMap;
use std::time::Instant;

use fbs::validate;
use fbs::SolveResult;
use fbs_bench::micro::Stats;
use numc::Complex;
use powergrid::gen::GenSpec;
use powergrid::RadialNetwork;
use simt::{Device, DeviceProps, Event, EventKind};

use crate::probe;
use crate::spans::Tracer;

/// Settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own test.
    pub tiny: bool,
}

/// What a workload hands back: every metric it measured, and how many
/// answers it asked the library for and how many failed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed before the result (digests, tail percentiles).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// A converged answer that is wrong: the run stops and reports nothing.
pub type Gate = Result<(), String>;

/// The feeder generator's settings. A 4% design voltage drop keeps the
/// serial iteration count at five for every seed at every size the
/// workloads use; at the default 5% it flips between five and six from
/// seed to seed, which would change the work of an operation by a sixth.
pub fn spec() -> GenSpec {
    GenSpec {
        target_drop: 0.04,
        ..GenSpec::default()
    }
}

/// A paper-rig device whose simulator uses at most two host threads, and
/// one in the runner, which pins itself to one CPU.
pub fn device() -> Device {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Device::with_workers(DeviceProps::paper_rig(), cores.min(2))
}

/// Times the program's set-up in a fresh process, the state a user meets
/// it in: at least six times and for three seconds. The first set-up
/// fills the allocator and is not counted. Returns the last result and
/// the median seconds of the others, normalised by the host probe.
pub fn setup<T>(tr: &mut Tracer, mut f: impl FnMut(&mut Tracer) -> T) -> (T, f64) {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < 6 || (start.elapsed().as_secs_f64() < 3.0 && secs.len() < 2000) {
        let (v, ms) = tr.root("setup", &mut f);
        secs.push(ms / 1e3);
        last = Some(v);
    }
    (
        last.expect("set-up ran at least once"),
        probe::normalise(median(&secs[1..]), start),
    )
}

/// The operation loop: at least `min_ops` operations, then as many as
/// fit in the run's seconds at the last operation's pace, so a run of
/// long operations does not overrun by one. The first operation is a
/// warm-up and is not timed. In a traced run every other operation is traced, so the
/// untraced ones still give the end-to-end figures and the pair gives
/// the tracing overhead.
pub struct OpLoop {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    ops: usize,
    last_s: f64,
    trace: bool,
    pub op_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

impl OpLoop {
    pub fn new(ctx: &Ctx, min_ops: usize) -> Self {
        OpLoop {
            start: Instant::now(),
            seconds: ctx.seconds,
            min_ops,
            ops: 0,
            last_s: 0.0,
            trace: ctx.trace,
            op_ms: Vec::new(),
            traced_ms: Vec::new(),
        }
    }

    /// Starts the next operation, or returns false when the run is over.
    pub fn next(&mut self, tr: &mut Tracer) -> bool {
        let go = self.ops < self.min_ops
            || self.start.elapsed().as_secs_f64() + self.last_s <= self.seconds;
        tr.set_on(if go { self.traced() } else { self.trace });
        go
    }

    fn traced(&self) -> bool {
        self.trace && self.ops % 2 == 1
    }

    /// Records the operation's wall time; false for the warm-up.
    pub fn done(&mut self, ms: f64) -> bool {
        let traced = self.traced();
        self.ops += 1;
        self.last_s = ms / 1e3;
        if self.ops == 1 {
            return false;
        }
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.op_ms.push(ms);
        }
        true
    }

    /// Sets `op_norm_ms`, `op.wall_ms`, `op.tail_ms`, `host.probe_ms`
    /// and `trace.overhead_ratio`.
    pub fn finish(&self, out: &mut Outcome) {
        let (t, pct, count) = tail(&self.op_ms);
        out.notes.push(format!(
            "op.tail_ms is p{pct:.1} of {count} timed operations"
        ));
        out.set(
            "op_norm_ms",
            probe::normalise(mean(&self.op_ms), self.start),
        );
        out.set("op.wall_ms", median(&self.op_ms));
        out.set("op.tail_ms", t);
        out.set("host.probe_ms", probe::mean_ms_since(self.start));
        if !self.traced_ms.is_empty() {
            out.set(
                "trace.overhead_ratio",
                median(&self.traced_ms) / median(&self.op_ms),
            );
        }
    }
}

/// Fails when an operation's answers differ from the first operation's:
/// the same inputs must give the same bytes.
pub fn same_digest(first: &mut Option<u64>, d: Digest) -> Gate {
    match *first {
        None => {
            *first = Some(d.value());
            Ok(())
        }
        Some(x) if x == d.value() => Ok(()),
        Some(x) => Err(format!(
            "answers changed between operations: digest {x:016x} vs {:016x}",
            d.value()
        )),
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn median(xs: &[f64]) -> f64 {
    Stats::from_samples(&mut xs.to_vec(), 0).median_ns
}

/// The highest percentile with at least ten samples beyond it (nearest
/// rank), but never below the median; the maximum when there are
/// fewer than eleven samples. Returns the value, the percentile and the
/// sample count.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    let rank = if n <= 10 {
        n - 1
    } else {
        (n - 11).max((n - 1) / 2)
    };
    (s[rank], 100.0 * (rank + 1) as f64 / n as f64, n)
}

/// FNV-1a over the bit patterns of complex answers.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn volts(&mut self, v: &[Complex]) {
        for z in v {
            self.f64(z.re);
            self.f64(z.im);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Kernels the workloads launch on the simulated device, each reported
/// as `simt.kernel.<name>.modeled_us`; any other kernel is summed into
/// `simt.kernel.other.modeled_us`.
pub const KERNELS: &[&str] = &[
    "fbs_inject",
    "fbs_backward_combine",
    "fbs_forward",
    "segscan_blocks",
    "segscan_carry",
    "reduce",
    "fill",
    "tensor_warm_init",
    "tensor_sweep",
    "tensor_scatter_loads",
    "tensor_gather_probes",
    "other",
];

/// Simulator work read back from a device timeline.
#[derive(Clone, Debug, Default)]
pub struct Sim {
    pub wall_us: f64,
    pub modeled_us: f64,
    pub h2d_us: f64,
    pub d2h_us: f64,
    pub kernel_us: f64,
    pub launches: u64,
    pub gmem_bytes: u64,
    pub flops: u64,
    pub per_kernel_us: BTreeMap<&'static str, f64>,
}

impl Sim {
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = Sim::default();
        for ev in events {
            s.wall_us += ev.wall_us;
            s.modeled_us += ev.modeled_us;
            match &ev.kind {
                EventKind::Htod { .. } => s.h2d_us += ev.modeled_us,
                EventKind::Dtoh { .. } => s.d2h_us += ev.modeled_us,
                EventKind::Kernel { name, stats, .. } => {
                    s.kernel_us += ev.modeled_us;
                    s.launches += 1;
                    s.gmem_bytes += stats.gmem_bytes;
                    s.flops += stats.flops;
                    *s.per_kernel_us.entry(name).or_insert(0.0) += ev.modeled_us;
                }
                _ => {}
            }
        }
        s
    }

    /// Every event a device recorded.
    pub fn of(dev: &Device) -> Self {
        Sim::from_events(dev.timeline().events())
    }

    pub fn add(&mut self, o: &Sim) {
        self.wall_us += o.wall_us;
        self.modeled_us += o.modeled_us;
        self.h2d_us += o.h2d_us;
        self.d2h_us += o.d2h_us;
        self.kernel_us += o.kernel_us;
        self.launches += o.launches;
        self.gmem_bytes += o.gmem_bytes;
        self.flops += o.flops;
        for (k, v) in &o.per_kernel_us {
            *self.per_kernel_us.entry(k).or_insert(0.0) += v;
        }
    }

    /// The `simt.*` metrics of one operation's simulator work.
    pub fn report(&self, out: &mut Outcome) {
        out.set(
            "simt.wall_per_modeled",
            ratio(self.wall_us, self.modeled_us),
        );
        out.set("simt.kernel_launches", self.launches as f64);
        out.set("simt.gmem_bytes", self.gmem_bytes as f64);
        out.set(
            "simt.ops_per_byte",
            ratio(self.flops as f64, self.gmem_bytes as f64),
        );
        for (k, v) in &self.per_kernel_us {
            let k = if KERNELS.contains(k) { k } else { "other" };
            let name = format!("simt.kernel.{k}.modeled_us");
            let sum = out.metrics.get(&name).copied().unwrap_or(0.0) + v;
            out.set(&name, sum);
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times the physics check of a converged serial answer, at the bars the
/// repository's experiment harness uses. A failure panics with the
/// offending residuals, which ends the run without a result.
pub fn check_serial(tr: &mut Tracer, net: &RadialNetwork, res: &SolveResult) -> f64 {
    tr.call("validate.check", |_| {
        validate::assert_physical(net, res, 1e-4)
    })
    .1
}

/// Gates `got` against a reference to `rel` of the source magnitude.
pub fn parity(who: &str, got: &[Complex], want: &[Complex], v0: f64, rel: f64) -> Gate {
    if got.len() != want.len() {
        return Err(format!(
            "{who}: {} voltages for {} buses",
            got.len(),
            want.len()
        ));
    }
    let dv = got
        .iter()
        .zip(want)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max);
    if dv <= rel * v0 {
        Ok(())
    } else {
        Err(format!(
            "{who}: differs from the serial reference by {dv:.3e} V (bar {:.3e} V)",
            rel * v0
        ))
    }
}

/// Evenly strided sample of `k` indices from `0..n`, first and last
/// included.
pub fn sample(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    (0..k).map(|i| i * (n - 1) / (k - 1)).collect()
}
