//! `fleet-2dev`: a uniform two-device fleet with the default integrity
//! sampler serving one open-loop Poisson stream in modeled time. Nine
//! in ten requests are single solves of a mid-size feeder, one in ten a
//! scenario batch. The mean gap sits just below modeled saturation, so
//! queueing shows without sheds. The service, fleet, breaker, hedge and
//! integrity layers run only here.

use fbs::fleet::poisson_arrivals;
use fbs::{
    FleetConfig, FleetRequest, FleetResponse, FleetService, FleetStats, IntegrityConfig,
    IntegritySampler, Outcome as Answer, Request, SerialSolver, SolverConfig,
};
use numc::Complex;
use powergrid::gen::balanced_binary;
use powergrid::gridfile::{parse_grid, write_grid};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::HostProps;

use crate::common::{self, median, tail, Ctx, Digest, Gate, OpLoop, Outcome};
use crate::spans::Tracer;

/// Devices in the fleet.
const DEVICES: usize = 2;
/// Mean modeled gap between arrivals, µs: just below saturation of the
/// two-device fleet on this mix (800 µs overloads it). Over a stream of
/// fifty requests it queues the median request for about 1.1 ms and
/// sheds none.
const MEAN_GAP_US: f64 = 1000.0;
/// Seed of the arrival times. The stream is the same for every run: the
/// queueing one draw of arrivals produces varies by a fifth from draw to
/// draw, which would swamp any change in the fleet itself. The run's
/// seed draws the feeder and the batch scenarios.
const ARRIVAL_SEED: u64 = 0xa771_7a15;

fn fleet() -> FleetService {
    FleetService::new(FleetConfig::uniform(DEVICES)).with_integrity(IntegritySampler::new(
        IntegrityConfig::default(),
        HostProps::paper_rig(),
    ))
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    // Fifty requests keep an operation near three seconds, so a run
    // times several after its warm-up.
    let (n, requests, batch) = if ctx.tiny {
        (255, 20, 8)
    } else {
        (4095, 50, 128)
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let base = balanced_binary(n, &common::spec(), &mut rng);
    let text = write_grid(&base);
    let scales: Vec<f64> = (0..batch).map(|_| rng.gen_range(0.5..1.1)).collect();
    let scenarios: Vec<Vec<Complex>> = scales
        .iter()
        .map(|&k| base.buses().iter().map(|b| b.load * k).collect())
        .collect();
    let cfg = SolverConfig::default();
    let mut out = Outcome::default();

    // Serial references for every answer the stream can produce, each
    // checked against circuit laws.
    let serial = SerialSolver::new(HostProps::paper_rig());
    let single_ref = serial.solve(&base, &cfg);
    let mut check_ms = vec![common::check_serial(tr, &base, &single_ref)];
    let batch_refs: Vec<Vec<Complex>> = scales
        .iter()
        .map(|&k| {
            let mut net = base.clone();
            net.scale_loads(k);
            let reference = serial.solve(&net, &cfg);
            check_ms.push(common::check_serial(tr, &net, &reference));
            reference.v
        })
        .collect();
    out.set("validate.check_ms", median(&check_ms));

    let mut parse_ms = Vec::new();
    let build = |tr: &mut Tracer| {
        let (net, p) = tr.call("powergrid.parse", |_| {
            parse_grid(&text).expect("generated grid parses")
        });
        parse_ms.push(p);
        tr.call("fleet.build", |_| fleet());
        net
    };
    let (net, setup_s) = common::setup(tr, build);
    // The stream is rebuilt for every operation rather than cloned, so
    // only one copy of its batch loads is alive at a time.
    let arrivals = || {
        poisson_arrivals(requests, MEAN_GAP_US, ARRIVAL_SEED, |i| {
            FleetRequest::new(if i % 10 == 9 {
                Request::Batch {
                    net: net.clone(),
                    scenarios: scenarios.clone(),
                    cfg,
                }
            } else {
                Request::Solve {
                    net: net.clone(),
                    cfg,
                }
            })
        })
    };
    let v0 = net.source_voltage().abs();
    let mut stream_ms = Vec::new();
    let mut digest = None;
    let mut last = None;
    let mut ops = OpLoop::new(ctx, 3);
    while ops.next(tr) {
        // Every stream starts on a fresh fleet at modeled time zero.
        let mut f = fleet();
        let stream = arrivals();
        let (responses, ms) = tr.root("op", |tr| {
            tr.call("fleet.run_stream", |_| f.run_stream(stream)).0
        });
        out.attempted += requests as u64;
        out.failed += responses.iter().filter(|r| !answered_ok(r)).count() as u64;
        if !ops.done(ms) {
            continue;
        }
        stream_ms.push(ms);
        let d = gate(&responses, requests, &f, &single_ref.v, &batch_refs, v0)?;
        common::same_digest(&mut digest, d)?;
        last = Some(Summary::new(&responses, &f));
    }
    let last = last.ok_or("no timed operation ran")?;
    ops.finish(&mut out);
    out.notes
        .push(format!("answer digest {:016x}", digest.unwrap_or(0)));
    out.set("setup_s", setup_s);
    out.set("powergrid.parse_ms", median(&parse_ms));
    out.set(
        "powergrid.parse_mb_per_s",
        text.len() as f64 / 1e6 / (median(&parse_ms) / 1e3),
    );

    let (lat_tail, pct, count) = tail(&last.latency);
    out.notes.push(format!(
        "fleet.latency_tail_us is p{pct:.1} of {count} answered requests"
    ));
    let mean_latency = last.latency.iter().sum::<f64>() / last.latency.len() as f64;
    out.set("modeled_us", mean_latency);

    let ts = median(&stream_ms);
    let st = &last.stats;
    out.set("fleet.stream_ms", ts);
    out.set(
        "fleet.requests_per_s",
        last.latency.len() as f64 / (ts / 1e3),
    );
    out.set("fleet.wall_per_request_ms", ts / requests as f64);
    out.set("fleet.latency_mean_us", mean_latency);
    out.set("fleet.latency_p50_us", median(&last.latency));
    out.set("fleet.latency_tail_us", lat_tail);
    out.set("fleet.makespan_us", last.makespan_us);
    out.set("fleet.queue_wait_p50_us", median(&last.queue));
    out.set("fleet.service_p50_us", median(&last.service));
    out.set("fleet.failovers", st.failovers as f64);
    out.set("fleet.hedges", st.hedges as f64);
    out.set(
        "fleet.hedge_win_ratio",
        common::ratio(st.hedge_wins as f64, st.hedges as f64),
    );
    out.set("fleet.cpu_served", st.cpu_served as f64);
    out.set("fleet.shed", st.shed() as f64);
    out.set("fleet.peak_queue_depth", st.peak_queue_depth as f64);
    out.set("integrity.shadow_sampled", last.shadow_sampled as f64);
    out.set("simt.wall_per_modeled", last.sim_wall_per_modeled);
    Ok(out)
}

/// What the metrics need from one stream, so its answers can be dropped.
struct Summary {
    latency: Vec<f64>,
    queue: Vec<f64>,
    service: Vec<f64>,
    makespan_us: f64,
    stats: FleetStats,
    shadow_sampled: u64,
    sim_wall_per_modeled: f64,
}

impl Summary {
    fn new(responses: &[FleetResponse], f: &FleetService) -> Self {
        let answered: Vec<&FleetResponse> = responses.iter().filter(|r| r.answered()).collect();
        // The fleet owns its devices; the simulator is visible from
        // outside only through the wall and modeled time of each answer.
        let (wall, modeled) = responses
            .iter()
            .fold((0.0, 0.0), |(w, m), r| match &r.outcome {
                Answer::Solved(res) => (w + res.timing.wall_us, m + res.timing.total_us()),
                Answer::Batch(b) => (w + b.timing.wall_us, m + b.timing.total_us()),
                _ => (w, m),
            });
        Summary {
            latency: answered.iter().map(|r| r.latency_us()).collect(),
            queue: answered.iter().map(|r| r.start_us - r.arrived_us).collect(),
            service: answered.iter().map(|r| r.finish_us - r.start_us).collect(),
            makespan_us: responses.iter().map(|r| r.finish_us).fold(0.0, f64::max),
            stats: *f.stats(),
            shadow_sampled: f.integrity_stats().sampled,
            sim_wall_per_modeled: common::ratio(wall, modeled),
        }
    }
}

fn answered_ok(r: &FleetResponse) -> bool {
    match &r.outcome {
        Answer::Solved(res) => res.converged(),
        Answer::Batch(b) => b.converged(),
        _ => false,
    }
}

/// Every answer matches its serial reference to 1e-9 of the source
/// magnitude, answered + shed == submitted, and the integrity sampler saw
/// no mismatch. Returns the digest of the answers.
fn gate(
    responses: &[FleetResponse],
    requests: usize,
    f: &FleetService,
    single: &[Complex],
    batch: &[Vec<Complex>],
    v0: f64,
) -> Result<Digest, String> {
    let st = f.stats();
    let answered = responses.iter().filter(|r| r.answered()).count() as u64;
    if responses.len() != requests
        || st.submitted != requests as u64
        || answered + st.shed() != st.submitted
    {
        return Err(format!(
            "conservation: {} responses, {} submitted, {answered} answered + {} shed",
            responses.len(),
            st.submitted,
            st.shed()
        ));
    }
    if f.integrity_stats().mismatches > 0 {
        return Err(format!(
            "integrity sampler found {} mismatches",
            f.integrity_stats().mismatches
        ));
    }
    let mut d = Digest::default();
    for r in responses {
        let check: Gate = match &r.outcome {
            Answer::Solved(res) if res.converged() => {
                d.volts(&res.v);
                common::parity(&format!("request {}", r.id), &res.v, single, v0, 1e-9)
            }
            Answer::Batch(b) if b.converged() => {
                b.v.iter()
                    .zip(batch)
                    .enumerate()
                    .try_for_each(|(s, (v, want))| {
                        d.volts(v);
                        common::parity(&format!("request {} scenario {s}", r.id), v, want, v0, 1e-9)
                    })
            }
            _ => Ok(()),
        };
        check?;
    }
    Ok(d)
}
