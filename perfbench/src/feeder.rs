//! `feeder-131k`: one balanced binary feeder at the size where the
//! modeled GPU first beats the serial baseline (the paper's E1). Each
//! operation solves it once on the serial, multicore and simulated GPU
//! solvers, so the host sweep, the multicore fork/join and the
//! simulator's launch-bound single-scenario path do the work.

use std::time::Instant;

use fbs::{GpuSolver, MulticoreSolver, SerialSolver, SolverArrays, SolverConfig};
use powergrid::gen::balanced_binary;
use powergrid::gridfile::{parse_grid, write_grid};
use powergrid::{DfsOrder, LevelOrder, RadialNetwork};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::HostProps;
use telemetry::Recorder;

use crate::common::{self, median, tail, Ctx, Digest, OpLoop, Outcome, Sim};
use crate::spans::Tracer;

/// The multicore solver's constant core count, so its modeled time does
/// not depend on the host.
const CORES: usize = 2;

struct Setup {
    net: RadialNetwork,
    arrays: SolverArrays,
    serial: SerialSolver,
    multicore: MulticoreSolver,
    gpu: GpuSolver,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    // The seed also trims up to 63 buses off the end of the level order,
    // so runs with different seeds differ in their modeled time as well.
    let n = if ctx.tiny { 1023 } else { 131_072 } - (ctx.seed % 64) as usize;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let text = write_grid(&balanced_binary(n, &common::spec(), &mut rng));
    let cfg = SolverConfig::default();
    let mut out = Outcome::default();

    let mut parse_ms = Vec::new();
    let mut build_ms = Vec::new();
    let build = |tr: &mut Tracer| {
        let (net, p) = tr.call("powergrid.parse", |_| {
            parse_grid(&text).expect("generated grid parses")
        });
        let (arrays, b) = tr.call("arrays.build", |_| SolverArrays::new(&net));
        parse_ms.push(p);
        build_ms.push(b);
        Setup {
            net,
            arrays,
            serial: SerialSolver::new(HostProps::paper_rig()),
            multicore: MulticoreSolver::new(HostProps::paper_rig(), CORES),
            gpu: GpuSolver::new(common::device()),
        }
    };
    let (mut s, setup_s) = common::setup(tr, build);
    if ctx.trace {
        let (_, l) = tr.call("powergrid.levels", |_| LevelOrder::new(&s.net));
        let (_, d) = tr.call("powergrid.dfs", |_| DfsOrder::new(&s.net));
        out.set("powergrid.levels_ms", l);
        out.set("powergrid.dfs_ms", d);
    }

    let v0 = s.net.source_voltage().abs();
    let (mut serial_ms, mut mc_ms, mut gpu_ms, mut check_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut digest = None;
    let mut last = None;
    let mut ops = OpLoop::new(ctx, 3);
    while ops.next(tr) {
        let ((serial, mc, gpu, ts, tm, tg), ms) = tr.root("op", |tr| {
            let (serial, ts) = tr.call("serial.solve", |_| s.serial.solve_arrays(&s.arrays, &cfg));
            let (mc, tm) = tr.call("multicore.solve", |_| {
                s.multicore.solve_arrays(&s.arrays, &cfg)
            });
            let (gpu, tg) = tr.call("gpu.solve", |_| s.gpu.solve_arrays(&s.arrays, &cfg));
            (serial, mc, gpu, ts, tm, tg)
        });
        let sim = Sim::of(s.gpu.device());
        tr.child_at_start("gpu.solve", "simt.exec", sim.wall_us);
        // A fresh device per operation keeps the timeline, and with it
        // the process's memory, from growing with the run's length.
        s.gpu = GpuSolver::new(common::device());
        out.attempted += 3;
        out.failed += [&serial, &mc, &gpu]
            .iter()
            .filter(|r| !r.converged())
            .count() as u64;
        if !ops.done(ms) {
            continue;
        }
        serial_ms.push(ts);
        mc_ms.push(tm);
        gpu_ms.push(tg);

        if serial.converged() {
            check_ms.push(common::check_serial(tr, &s.net, &serial));
        }
        if mc.converged() {
            common::parity("multicore solve", &mc.v, &serial.v, v0, 1e-9)?;
        }
        if gpu.converged() {
            common::parity("gpu solve", &gpu.v, &serial.v, v0, 1e-9)?;
        }
        let mut d = Digest::default();
        for r in [&serial, &mc, &gpu] {
            d.volts(&r.v);
        }
        common::same_digest(&mut digest, d)?;
        last = Some((serial, mc, gpu, sim));
    }
    let (serial, mc, gpu, sim) = last.ok_or("no timed operation ran")?;
    ops.finish(&mut out);
    out.notes
        .push(format!("answer digest {:016x}", digest.unwrap_or(0)));
    out.set("setup_s", setup_s);
    out.set("powergrid.parse_ms", median(&parse_ms));
    out.set(
        "powergrid.parse_mb_per_s",
        text.len() as f64 / 1e6 / (median(&parse_ms) / 1e3),
    );
    out.set("arrays.build_ms", median(&build_ms));
    out.set("modeled_us", gpu.timing.total_us());

    let nf = n as f64;
    let (ts, tm, tg) = (median(&serial_ms), median(&mc_ms), median(&gpu_ms));
    let (st, pct, count) = tail(&serial_ms);
    out.notes.push(format!(
        "serial.solve_tail_ms is p{pct:.1} of {count} timed solves"
    ));
    out.set("serial.solve_ms", ts);
    out.set("serial.solve_tail_ms", st);
    out.set("serial.iterations", f64::from(serial.iterations));
    out.set(
        "serial.ns_per_bus_iter",
        ts * 1e6 / (nf * f64::from(serial.iterations)),
    );
    out.set("serial.model_ratio", ts * 1e3 / serial.timing.total_us());
    out.set("multicore.solve_ms", tm);
    out.set(
        "multicore.ns_per_bus_iter",
        tm * 1e6 / (nf * f64::from(mc.iterations)),
    );
    out.set("multicore.vs_serial", tm / ts);
    out.set("gpu.solve_ms", tg);
    out.set("gpu.iterations", f64::from(gpu.iterations));
    out.set("gpu.modeled_h2d_us", sim.h2d_us);
    out.set("gpu.modeled_kernel_us", sim.kernel_us);
    out.set("gpu.modeled_d2h_us", sim.d2h_us);
    out.set(
        "gpu.modeled_speedup",
        serial.timing.total_us() / gpu.timing.total_us(),
    );
    sim.report(&mut out);
    out.set("validate.check_ms", median(&check_ms));

    if ctx.trace {
        // The same solve with a telemetry recorder attached, alternated
        // with plain solves so drift hits both sides alike. Timed
        // directly: the difference is the telemetry layer's self time.
        let plain = SerialSolver::new(HostProps::paper_rig());
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let recorded = SerialSolver::new(HostProps::paper_rig()).with_recorder(Recorder::new());
            let t = Instant::now();
            recorded.solve_arrays(&s.arrays, &cfg);
            with.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            plain.solve_arrays(&s.arrays, &cfg);
            without.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.set(
            "telemetry.recorder_overhead_ratio",
            median(&with) / median(&without),
        );
        out.set(
            "telemetry.self_ms",
            (median(&with) - median(&without)).max(0.0),
        );
    }
    Ok(out)
}
