//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Makes the workload's inputs from the seed, times the program's set-up
//! and then its operations for the given seconds, checks every answer
//! outside the timed regions, and prints one JSON object as the last line
//! of standard output. With `--trace 0` it holds the end-to-end metrics;
//! with `--trace 1` the per-layer metrics, from a run that records spans
//! around every call into the library and writes them as a Chrome trace
//! to `perfbench/out/`. Before any of it the runner pins itself to one
//! CPU and starts the host probe (`probe.rs`), whose sweep times
//! normalise the end-to-end wall times. `perfbench/DESIGN.md` says why
//! each workload and metric exists. Nothing is written to `results/`.

mod common;
mod feeder;
mod fleet;
mod meshed;
mod planning;
mod probe;
mod spans;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Ctx, Outcome};
use spans::Tracer;

/// The seed of recorded runs when none is given.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = ["feeder-131k", "planning-2k", "meshed-dg-4k", "fleet-2dev"];

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_norm_ms", "ms"),
    ("modeled_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload; a
/// layer a workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("op.wall_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("powergrid.parse_ms", "ms"),
    ("powergrid.parse_mb_per_s", "MB/s"),
    ("powergrid.levels_ms", "ms"),
    ("powergrid.dfs_ms", "ms"),
    ("arrays.build_ms", "ms"),
    ("serial.solve_ms", "ms"),
    ("serial.solve_tail_ms", "ms"),
    ("serial.iterations", "count"),
    ("serial.ns_per_bus_iter", "ns"),
    ("serial.model_ratio", "ratio"),
    ("multicore.solve_ms", "ms"),
    ("multicore.ns_per_bus_iter", "ns"),
    ("multicore.vs_serial", "ratio"),
    ("gpu.solve_ms", "ms"),
    ("gpu.iterations", "count"),
    ("gpu.modeled_h2d_us", "us"),
    ("gpu.modeled_kernel_us", "us"),
    ("gpu.modeled_d2h_us", "us"),
    ("gpu.modeled_speedup", "x"),
    ("simt.wall_per_modeled", "ratio"),
    ("simt.kernel_launches", "count"),
    ("simt.gmem_bytes", "count"),
    ("simt.ops_per_byte", "ratio"),
    ("tensor_batch.solve_ms", "ms"),
    ("tensor_batch.scenarios_per_s", "1/s"),
    ("tensor_batch.iterations", "count"),
    ("tensor_batch.ns_per_bus_scenario_iter", "ns"),
    ("tensor_batch.modeled_us", "us"),
    ("tensor_batch.wall_per_modeled", "ratio"),
    ("contingency.screen_ms", "ms"),
    ("contingency.per_s", "1/s"),
    ("contingency.median_iters", "count"),
    ("contingency.max_iters", "count"),
    ("contingency.ns_per_bus_outage", "ns"),
    ("contingency.modeled_us", "us"),
    ("contingency.wall_per_modeled", "ratio"),
    ("mesh.solve_ms", "ms"),
    ("mesh.outer_iters", "count"),
    ("mesh.inner_solves", "count"),
    ("mesh.problem_build_ms", "ms"),
    ("mesh.inner_sweep_ms", "ms"),
    ("mesh.outer_host_ms", "ms"),
    ("mesh.answer_digests", "count"),
    ("dg_batch.solve_ms", "ms"),
    ("dg_batch.scenarios_per_s", "1/s"),
    ("dg_batch.outer_rounds", "count"),
    ("dg_batch.ns_per_bus_scenario_round", "ns"),
    ("dg_batch.modeled_us", "us"),
    ("fleet.stream_ms", "ms"),
    ("fleet.requests_per_s", "1/s"),
    ("fleet.wall_per_request_ms", "ms"),
    ("fleet.latency_mean_us", "us"),
    ("fleet.latency_p50_us", "us"),
    ("fleet.latency_tail_us", "us"),
    ("fleet.makespan_us", "us"),
    ("fleet.queue_wait_p50_us", "us"),
    ("fleet.service_p50_us", "us"),
    ("fleet.failovers", "count"),
    ("fleet.hedges", "count"),
    ("fleet.hedge_win_ratio", "ratio"),
    ("fleet.cpu_served", "count"),
    ("fleet.shed", "count"),
    ("fleet.peak_queue_depth", "count"),
    ("integrity.shadow_sampled", "count"),
    ("validate.check_ms", "ms"),
    ("telemetry.recorder_overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Layers whose self time the traced run reports as `<layer>.self_ms`.
const LAYERS: &[&str] = &[
    "bench",
    "powergrid",
    "arrays",
    "serial",
    "multicore",
    "gpu",
    "simt",
    "tensor_batch",
    "contingency",
    "mesh",
    "dg_batch",
    "fleet",
    "validate",
    "telemetry",
];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("invalid --seed {v:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("invalid --seconds {v:?}: not a positive number"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace {v:?}: expected 0 or 1")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds,
            trace,
            tiny,
        },
    })
}

fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    match args.workload.as_str() {
        "feeder-131k" => feeder::run(ctx, tr),
        "planning-2k" => planning::run(ctx, tr),
        "meshed-dg-4k" => meshed::run(ctx, tr),
        "fleet-2dev" => fleet::run(ctx, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The metrics the run prints, in the order `BENCHMARK.json` lists them.
fn metric_list(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(
        common::KERNELS
            .iter()
            .map(|k| (format!("simt.kernel.{k}.modeled_us"), "us")),
    );
    v.extend(LAYERS.iter().map(|l| (format!("{l}.self_ms"), "ms")));
    v
}

fn result_json(correct: bool, out: &Outcome, metrics: &[(String, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed <u64>] [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = probe::pin_to_current_cpu() {
        eprintln!("perfbench: warning: could not pin to one CPU ({e}); normalised times will drift with the host");
    }
    let monitor = probe::Monitor::start();
    let mut tr = Tracer::new(args.ctx.trace);
    let result = run(&args, &mut tr);
    drop(monitor);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: correctness gate failed on {}: {e}",
                args.workload
            );
            println!("{}", result_json(false, &Outcome::default(), &[]));
            return ExitCode::from(1);
        }
    };
    out.set("peak_rss_mb", common::peak_rss_mb());
    out.set(
        "ok_ratio",
        1.0 - common::ratio(out.failed as f64, out.attempted as f64),
    );

    if args.ctx.trace {
        let self_ms = tr.self_ms_by_layer();
        println!("{:<14} {:>12}", "layer", "self ms");
        for layer in LAYERS {
            // A workload may have measured a layer's self time directly.
            let key = format!("{layer}.self_ms");
            let ms = out
                .metrics
                .get(&key)
                .or(self_ms.get(*layer))
                .copied()
                .unwrap_or(0.0);
            println!("{layer:<14} {ms:>12.4}");
            out.set(&key, ms);
        }
        out.set("trace.spans", tr.num_spans() as f64);
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.ctx.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, telemetry::chrome_trace_json(&tr.to_trace())));
        match written {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for note in &out.notes {
        println!("{}: {note}", args.workload);
    }

    let mut metrics = Vec::new();
    for (name, unit) in metric_list(args.ctx.trace) {
        let value = out.metrics.get(&name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        metrics.push((name, unit, value));
    }
    let unknown: Vec<&String> = out
        .metrics
        .keys()
        .filter(|k| !metrics.iter().any(|(n, _, _)| n == *k) && !is_other_mode(k, args.ctx.trace))
        .collect();
    if !unknown.is_empty() {
        eprintln!("perfbench: measured but not listed: {unknown:?}");
        return ExitCode::from(1);
    }
    println!("{}", result_json(true, &out, &metrics));
    ExitCode::SUCCESS
}

/// Whether `name` belongs to the metric list of the other `--trace` mode.
fn is_other_mode(name: &str, trace: bool) -> bool {
    metric_list(!trace).iter().any(|(n, _)| n == name)
}
