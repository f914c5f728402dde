//! `meshed-dg-4k`: a binary feeder re-closed with three ties and four PV
//! generators. Each operation is one serial meshed solve (many small
//! warm-started inner sweeps plus host outer-loop work) and one batched
//! DG-penetration sweep on the tensor engine (a resident outer session
//! with sparse scatter and probe readback).

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use fbs::{
    solve_dg_batch, MeshProblem, MeshSolver, OuterConfig, SerialSolver, SolveResult, SolverArrays,
    SolverConfig, SweepBackend, TensorBatchSolver,
};
use numc::{c, Complex};
use powergrid::gen::balanced_binary;
use powergrid::gridfile::{parse_grid_meshed, write_grid_meshed};
use powergrid::{MeshedNetwork, MeshedNetworkBuilder, PvBus, RadialNetwork};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::HostProps;

use crate::common::{self, median, Ctx, Digest, Gate, OpLoop, Outcome, Sim};
use crate::spans::Tracer;

/// Seed of the feeder, tie and generator stream.
const STRUCTURE_SEED: u64 = 177;

/// The serial backend, timing every inner sweep the outer loop asks for.
struct TimedSerial {
    inner: SerialSolver,
    sweeps: Vec<(Instant, Instant)>,
}

impl SweepBackend for TimedSerial {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        let t = Instant::now();
        let res = self.inner.solve_warm(a, cfg, v_init);
        self.sweeps.push((t, Instant::now()));
        res
    }
}

/// `net` re-closed with `loops` ties between distinct bus pairs that
/// share no branch, and `gens` PV generators each holding 99.5% of the
/// source magnitude with Q limits sized off the total load.
fn dg_feeder(net: &RadialNetwork, loops: usize, gens: usize, rng: &mut StdRng) -> MeshedNetwork {
    let n = net.num_buses();
    let total_load: f64 = net.buses().iter().map(|b| b.load.re).sum();
    let v0 = net.source_voltage();
    let mut b = MeshedNetworkBuilder::new(v0);
    for bus in net.buses() {
        b.add_bus(bus.load);
    }
    for br in net.branches() {
        b.connect(br.from, br.to, br.z);
    }
    let mut used: HashSet<(usize, usize)> = net
        .branches()
        .iter()
        .map(|br| (br.from.min(br.to), br.from.max(br.to)))
        .collect();
    let mut placed = 0;
    while placed < loops {
        let (x, y) = (rng.gen_range(1usize..n), rng.gen_range(1usize..n));
        if x == y || !used.insert((x.min(y), x.max(y))) {
            continue;
        }
        b.tie(
            x,
            y,
            c(rng.gen_range(0.1..0.5), rng.gen_range(0.1..0.5)),
            true,
        );
        placed += 1;
    }
    let q_cap = 0.05 * total_load;
    let mut gen_buses = BTreeSet::new();
    while gen_buses.len() < gens {
        let bus = rng.gen_range(1usize..n);
        if gen_buses.insert(bus) {
            b.generator(PvBus {
                bus,
                p_gen: 0.02 * total_load,
                v_set: 0.995 * v0.abs(),
                q_min: -q_cap,
                q_max: q_cap,
            });
        }
    }
    b.build().expect("generated DG feeder validates")
}

/// One DG scenario as a standalone meshed network: every generator's
/// active output scaled by `dg`.
fn scenario(net: &MeshedNetwork, dg: f64) -> MeshedNetwork {
    let tree = net.tree();
    let mut b = MeshedNetworkBuilder::new(tree.source_voltage());
    for bus in tree.buses() {
        b.add_bus(bus.load);
    }
    for br in tree.branches() {
        b.connect(br.from, br.to, br.z);
    }
    for bp in net.break_points() {
        b.tie(bp.a, bp.b, bp.z, true);
    }
    for g in net.generators() {
        b.generator(PvBus {
            p_gen: g.p_gen * dg,
            ..*g
        });
    }
    b.build().expect("scenario rebuild validates")
}

struct Setup {
    net: MeshedNetwork,
    tbs: TensorBatchSolver,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    // The seed also drops up to three scenarios, so runs with different
    // seeds differ in their modeled time as well.
    let (n, scenarios) = if ctx.tiny {
        (255, 8)
    } else {
        (4095, 256 - (ctx.seed % 4) as usize)
    };
    // The feeder, its ties and its generators come from a fixed stream:
    // their loads and positions set the number of outer rounds, which
    // would otherwise change the work of an operation by a fifth from
    // seed to seed. The seed draws the DG scales: an even 0–150% grid
    // with each point moved by up to ±1%.
    let mut structure = StdRng::seed_from_u64(STRUCTURE_SEED);
    let tree = balanced_binary(n, &common::spec(), &mut structure);
    let text = write_grid_meshed(&dg_feeder(&tree, 3, 4, &mut structure));
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let scales: Vec<f64> = (0..scenarios)
        .map(|s| 1.5 * s as f64 / (scenarios - 1) as f64 * rng.gen_range(0.99..1.01))
        .collect();
    let cfg = SolverConfig::default();
    let outer = OuterConfig::default();
    let mut out = Outcome::default();

    let (mut parse_ms, mut problem_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let build = |tr: &mut Tracer| {
        let (net, p) = tr.call("powergrid.parse", |_| {
            parse_grid_meshed(&text).expect("generated grid parses")
        });
        let (_, m) = tr.call("mesh.problem_build", |_| MeshProblem::new(&net));
        let (_, b) = tr.call("arrays.build", |_| SolverArrays::new(net.tree()));
        parse_ms.push(p);
        problem_ms.push(m);
        build_ms.push(b);
        Setup {
            net,
            tbs: TensorBatchSolver::new(common::device()),
        }
    };
    let (mut s, setup_s) = common::setup(tr, build);
    let v0 = s.net.tree().source_voltage().abs();
    let (mut mesh_ms, mut inner_ms, mut dg_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests = BTreeSet::new();
    let mut last = None;
    let mut ops = OpLoop::new(ctx, 3);
    while ops.next(tr) {
        let mut solver = MeshSolver::new(TimedSerial {
            inner: SerialSolver::new(HostProps::paper_rig()),
            sweeps: Vec::new(),
        })
        .with_outer(outer);
        let ((mesh, dg, tm, td), ms) = tr.root("op", |tr| {
            let (mesh, tm) = tr.call("mesh.solve", |_| solver.solve(&s.net, &cfg));
            let (dg, td) = tr.call("dg_batch.solve", |_| {
                solve_dg_batch(&mut s.tbs, &s.net, &scales, &cfg, &outer)
                    .expect("the modeled device does not fail")
            });
            (mesh, dg, tm, td)
        });
        let sweeps = &solver.backend().sweeps;
        tr.children("mesh.solve", "serial.inner_sweep", sweeps);
        let sim = Sim::of(s.tbs.device());
        // A fresh device per operation keeps the timeline, and with it
        // the process's memory, from growing with the run's length.
        s.tbs = TensorBatchSolver::new(common::device());
        tr.child_at_start("dg_batch.solve", "simt.exec", sim.wall_us);
        out.attempted += 1 + scenarios as u64;
        out.failed += u64::from(!mesh.converged());
        out.failed += dg.statuses.iter().filter(|st| !st.is_converged()).count() as u64;
        if !ops.done(ms) {
            continue;
        }
        let inner: f64 = sweeps
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .sum();
        mesh_ms.push(tm);
        inner_ms.push(inner);
        dg_ms.push(td);

        dg_parity(&s.net, &scales, &dg.v, &cfg, &outer, v0)?;
        let mut d = Digest::default();
        d.volts(&mesh.inner.v);
        for v in &dg.v {
            d.volts(v);
        }
        digests.insert(d.value());
        last = Some((mesh, dg, sweeps.len(), sim));
    }
    let (mesh, dg, inner_solves, sim) = last.ok_or("no timed operation ran")?;
    ops.finish(&mut out);
    out.notes
        .push(format!("{} distinct answer digests", digests.len()));
    out.set("setup_s", setup_s);
    out.set("powergrid.parse_ms", median(&parse_ms));
    out.set(
        "powergrid.parse_mb_per_s",
        text.len() as f64 / 1e6 / (median(&parse_ms) / 1e3),
    );
    out.set("mesh.problem_build_ms", median(&problem_ms));
    out.set("arrays.build_ms", median(&build_ms));

    out.set("modeled_us", dg.total_us);

    let (tm, ti, td) = (median(&mesh_ms), median(&inner_ms), median(&dg_ms));
    let (nf, b) = (n as f64, scenarios as f64);
    out.set("mesh.solve_ms", tm);
    out.set("mesh.outer_iters", f64::from(mesh.outer_iterations));
    out.set("mesh.inner_solves", inner_solves as f64);
    out.set("mesh.inner_sweep_ms", ti);
    out.set("mesh.outer_host_ms", (tm - ti).max(0.0));
    out.set("mesh.answer_digests", digests.len() as f64);
    out.set("dg_batch.solve_ms", td);
    out.set("dg_batch.scenarios_per_s", b / (td / 1e3));
    out.set("dg_batch.outer_rounds", f64::from(dg.outer_rounds));
    out.set(
        "dg_batch.ns_per_bus_scenario_round",
        td * 1e6 / (nf * b * f64::from(dg.outer_rounds)),
    );
    out.set("dg_batch.modeled_us", dg.total_us);
    sim.report(&mut out);
    Ok(out)
}

/// A fixed sample of DG scenarios against standalone serial meshed
/// solves. The bar is the one the repository's E17 parity check uses,
/// 1e-5 of the source magnitude: the batched outer loop stops on an
/// inexact-outer tolerance ladder, so its fixed point agrees with the
/// serial outer loop to the outer tolerance, not to rounding.
fn dg_parity(
    net: &MeshedNetwork,
    scales: &[f64],
    v: &[Vec<Complex>],
    cfg: &SolverConfig,
    outer: &OuterConfig,
    v0: f64,
) -> Gate {
    for s in common::sample(scales.len(), 3) {
        let reference = MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
            .with_outer(*outer)
            .solve(&scenario(net, scales[s]), cfg);
        if !reference.converged() {
            return Err(format!(
                "DG scenario {s}: the serial reference did not converge ({})",
                reference.status
            ));
        }
        common::parity(
            &format!("DG scenario {s}"),
            &v[s],
            &reference.inner.v,
            v0,
            1e-5,
        )?;
    }
    Ok(())
}
