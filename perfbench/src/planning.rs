//! `planning-2k`: one mid-size feeder under planning traffic. Each
//! operation is a daily-curve batch of scaled load scenarios on the
//! tensor engine (full voltage readback) followed by a full warm N-1
//! screen. The batch keeps the topology read-only; the screen patches it
//! in every scenario, so a change that helps one use and costs the
//! other shows. The serial solver does none of the timed work.

use fbs::{ContingencyScreener, SerialSolver, SolverArrays, SolverConfig, TensorBatchSolver};
use powergrid::gen::balanced_binary;
use powergrid::gridfile::{parse_grid, write_grid};
use powergrid::{DfsOrder, LevelOrder, RadialNetwork, TopologyDelta};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::HostProps;

use crate::common::{self, median, Ctx, Digest, Gate, OpLoop, Outcome, Sim};
use crate::spans::Tracer;

/// Seed of the feeder's loads and impedances.
const STRUCTURE_SEED: u64 = 2047;

/// A stylised residential daily demand curve, per unit of peak, hourly.
const DAILY: [f64; 24] = [
    0.42, 0.38, 0.36, 0.35, 0.36, 0.42, 0.55, 0.68, 0.72, 0.70, 0.68, 0.67, 0.66, 0.65, 0.66, 0.70,
    0.80, 0.92, 1.00, 0.98, 0.90, 0.78, 0.62, 0.50,
];

/// Scenario scales: the daily curve sampled at `count` even steps,
/// interpolated between hours, each with ±2% seeded noise.
fn daily_scales(count: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..count)
        .map(|s| {
            let h = 24.0 * s as f64 / count as f64;
            let (i, f) = (h.floor() as usize, h.fract());
            let base = DAILY[i] * (1.0 - f) + DAILY[(i + 1) % 24] * f;
            base * rng.gen_range(0.98..1.02)
        })
        .collect()
}

struct Setup {
    net: RadialNetwork,
    arrays: SolverArrays,
    batch: TensorBatchSolver,
    screener: ContingencyScreener,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (n, scenarios) = if ctx.tiny { (127, 16) } else { (2047, 1024) };
    // The feeder's loads and impedances come from a fixed stream: they
    // set how many iterations each outage of the screen takes, and they
    // moved the modeled work of an operation by 3.6% from seed to seed.
    // The seed draws the noise on the daily curve.
    let mut structure = StdRng::seed_from_u64(STRUCTURE_SEED);
    let text = write_grid(&balanced_binary(n, &common::spec(), &mut structure));
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let scales = daily_scales(scenarios, &mut rng);
    let cfg = SolverConfig::default();
    let warm = SolverConfig::default().with_warm_start();
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
            batch: TensorBatchSolver::new(common::device()),
            screener: ContingencyScreener::new(common::device()),
        }
    };
    let (mut s, setup_s) = common::setup(tr, build);
    if ctx.trace {
        out.set(
            "powergrid.levels_ms",
            tr.call("powergrid.levels", |_| LevelOrder::new(&s.net)).1,
        );
        out.set(
            "powergrid.dfs_ms",
            tr.call("powergrid.dfs", |_| DfsOrder::new(&s.net)).1,
        );
    }

    let outages = n - 1;
    let (mut batch_ms, mut screen_ms) = (Vec::new(), Vec::new());
    let mut digest = None;
    let mut last = None;
    let mut ops = OpLoop::new(ctx, 3);
    while ops.next(tr) {
        let ((batch, report, tb, tsc), ms) = tr.root("op", |tr| {
            let (batch, tb) = tr.call("tensor_batch.solve", |_| {
                s.batch.solve_scaled_arrays(&s.arrays, &scales, &cfg)
            });
            let (report, tsc) = tr.call("contingency.screen", |_| s.screener.screen(&s.net, &warm));
            (batch, report, tb, tsc)
        });
        let (sim_b, sim_s) = (Sim::of(s.batch.device()), Sim::of(s.screener.device()));
        // Fresh devices per operation keep the timelines, and with them
        // the process's memory, from growing with the run's length.
        s.batch = TensorBatchSolver::new(common::device());
        s.screener = ContingencyScreener::new(common::device());
        tr.child_at_start("tensor_batch.solve", "simt.exec", sim_b.wall_us);
        tr.child_at_start("contingency.screen", "simt.exec", sim_s.wall_us);
        out.attempted += (scenarios + outages) as u64;
        out.failed += batch
            .statuses
            .iter()
            .filter(|st| !st.is_converged())
            .count() as u64;
        out.failed += report
            .outcomes
            .iter()
            .filter(|o| !o.status.is_converged())
            .count() as u64;
        if !ops.done(ms) {
            continue;
        }
        batch_ms.push(tb);
        screen_ms.push(tsc);

        let mut d = Digest::default();
        for v in &batch.v {
            d.volts(v);
        }
        for o in &report.outcomes {
            d.u64(u64::from(o.iterations));
            d.f64(o.min_v);
        }
        common::same_digest(&mut digest, d)?;
        if last.is_none() {
            // The answers repeat bitwise (checked above), so the parity
            // against standalone serial solves runs once per run.
            let check_ms = batch_parity(tr, &s.net, &s.arrays, &scales, &batch.v, &cfg)?;
            out.set("validate.check_ms", median(&check_ms));
            screen_parity(&s.net, &report, &warm)?;
        }
        let mut sim = sim_b.clone();
        sim.add(&sim_s);
        last = Some((batch, report, sim, sim_b, sim_s));
    }
    let (batch, report, sim, sim_b, sim_s) = last.ok_or("no timed operation ran")?;
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
    let modeled_batch = batch.timing.total_us();
    let modeled_screen = report.timing.total_us() + report.base_us;
    out.set("modeled_us", modeled_batch + modeled_screen);

    let (tb, tsc) = (median(&batch_ms), median(&screen_ms));
    let (nf, b) = (n as f64, scenarios as f64);
    out.set("tensor_batch.solve_ms", tb);
    out.set("tensor_batch.scenarios_per_s", b / (tb / 1e3));
    out.set("tensor_batch.iterations", f64::from(batch.iterations));
    out.set(
        "tensor_batch.ns_per_bus_scenario_iter",
        tb * 1e6 / (nf * b * f64::from(batch.iterations)),
    );
    out.set("tensor_batch.modeled_us", modeled_batch);
    out.set(
        "tensor_batch.wall_per_modeled",
        common::ratio(sim_b.wall_us, sim_b.modeled_us),
    );
    let mut iters: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| f64::from(o.iterations))
        .collect();
    iters.sort_by(|a, b| a.total_cmp(b));
    out.set("contingency.screen_ms", tsc);
    out.set("contingency.per_s", outages as f64 / (tsc / 1e3));
    out.set("contingency.median_iters", iters[iters.len() / 2]);
    out.set("contingency.max_iters", iters[iters.len() - 1]);
    out.set(
        "contingency.ns_per_bus_outage",
        tsc * 1e6 / (nf * outages as f64),
    );
    out.set("contingency.modeled_us", modeled_screen);
    out.set(
        "contingency.wall_per_modeled",
        common::ratio(sim_s.wall_us, sim_s.modeled_us),
    );
    sim.report(&mut out);
    Ok(out)
}

/// A fixed sample of batch scenarios against standalone serial solves
/// of the same scaled loads, to 1e-9 of the source magnitude; each
/// serial answer also passes the physics check, whose wall times in ms
/// are returned.
fn batch_parity(
    tr: &mut Tracer,
    net: &RadialNetwork,
    arrays: &SolverArrays,
    scales: &[f64],
    v: &[Vec<numc::Complex>],
    cfg: &SolverConfig,
) -> Result<Vec<f64>, String> {
    let serial = SerialSolver::new(HostProps::paper_rig());
    let v0 = net.source_voltage().abs();
    let mut check_ms = Vec::new();
    for s in common::sample(scales.len(), 4) {
        let mut a = arrays.clone();
        for x in &mut a.s {
            *x = *x * scales[s];
        }
        let reference = serial.solve_arrays(&a, cfg);
        let mut scaled = net.clone();
        scaled.scale_loads(scales[s]);
        check_ms.push(common::check_serial(tr, &scaled, &reference));
        common::parity(
            &format!("batch scenario {s}"),
            &v[s],
            &reference.v,
            v0,
            1e-9,
        )?;
    }
    Ok(check_ms)
}

/// A fixed sample of N-1 outcomes against standalone serial re-solves:
/// the outage applied with `TopologyDelta`, solved warm from the serial
/// base case, reverted. Status, iteration count and the energized
/// minimum |V| must agree, the last to 1e-9 of the source magnitude.
fn screen_parity(net: &RadialNetwork, report: &fbs::ScreeningReport, cfg: &SolverConfig) -> Gate {
    let serial = SerialSolver::new(HostProps::paper_rig());
    let v0 = net.source_voltage().abs();
    let base = serial.solve(net, cfg);
    let mut work = net.clone();
    for k in common::sample(report.outcomes.len(), 4) {
        let o = &report.outcomes[k];
        let mut delta =
            TopologyDelta::outage(&work, o.bus).map_err(|e| format!("outage {}: {e}", o.bus))?;
        delta
            .apply(&mut work)
            .map_err(|e| format!("outage {}: {e}", o.bus))?;
        // The batched screen masks de-energized buses out of the
        // residual. Serially they follow the upstream end of the opened
        // branch, so starting them there keeps them out of the residual
        // too, and both solves see the same energized trajectory.
        let upstream = base.v[net.parent(o.bus).ok_or("outage of the root")?];
        let mut init = base.v.clone();
        let mut dead = vec![false; net.num_buses()];
        for &b in delta.isolated() {
            dead[b] = true;
            init[b] = upstream;
        }
        let reference = serial.solve_warm(&SolverArrays::new(&work), cfg, Some(&init));
        let root = net.root();
        let min_v = (0..net.num_buses())
            .filter(|&b| b != root && !dead[b])
            .map(|b| reference.v[b].abs())
            .fold(f64::INFINITY, f64::min);
        delta
            .revert(&mut work)
            .map_err(|e| format!("outage {}: {e}", o.bus))?;
        let dv = (o.min_v - min_v).abs();
        if o.status != reference.status || o.iterations != reference.iterations || dv > 1e-9 * v0 {
            return Err(format!(
                "outage of bus {}: screen says {} in {} iterations, min |V| {}; serial re-solve says {} in {} iterations, min |V| {min_v}",
                o.bus, o.status, o.iterations, o.min_v, reference.status, reference.iterations
            ));
        }
    }
    Ok(())
}
