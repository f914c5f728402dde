//! Level-parallel multicore CPU solver (ablation baseline).
//!
//! Answers the reviewer question the paper leaves open: *how much of the
//! GPU win is parallelism you could have had on the host?* Same
//! level-synchronous structure as the GPU solver, executed by host
//! threads over chunked level ranges with a barrier per level.
//!
//! Execution: the host's worker count is read once per solve. A region
//! of at least [`PARALLEL_THRESHOLD`] buses is split into one chunk per
//! worker; the calling thread runs the first chunk and scoped threads
//! the rest, joined at the end of the region (the barrier). Smaller
//! regions, and every region on a one-worker host, run inline with no
//! fork at all. The forward sweep folds its convergence ∞-norm per
//! chunk and combines the partials in chunk order, which is bus-position
//! order, so every iterate, residual and first NaN matches
//! [`crate::SerialSolver`] bit for bit.
//!
//! Modeled time: the serial roofline time of each region divided by the
//! effective core count, plus a per-region fork/join overhead — the
//! textbook bulk-synchronous model. Narrow levels (chains!) degenerate to
//! pure overhead, exactly like kernel launches do on the device.

use std::time::Instant;

use numc::Complex;
use powergrid::RadialNetwork;
use primitives::ops::{max_abs_fold, MaxAbsF64, ScanOp};
use simt::HostProps;

use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::report::{PhaseTimes, SolveResult, Timing};
use crate::status::{ConvergenceMonitor, SolveStatus};

/// Work below this many buses runs inline instead of forking threads
/// (and is modeled without the fork/join cost).
const PARALLEL_THRESHOLD: usize = 2048;

/// Modeled fork/join cost of one parallel region, µs.
const FORK_JOIN_US: f64 = 4.0;

/// How a solve splits its parallel regions on the host: into `workers`
/// chunks when a region has at least `min_len` elements.
#[derive(Clone, Copy, Debug)]
struct Split {
    workers: usize,
    min_len: usize,
}

impl Split {
    /// One chunk per available host thread (at most 8). Queried once per
    /// solve: the query reads cgroup files and costs tens of µs.
    fn host() -> Self {
        let workers = std::thread::available_parallelism().map(|w| w.get()).unwrap_or(1).min(8);
        Split { workers, min_len: PARALLEL_THRESHOLD }
    }
}

/// The level-parallel multicore solver.
#[derive(Clone, Debug)]
pub struct MulticoreSolver {
    host: HostProps,
    cores: usize,
    recorder: Option<Recorder>,
}

impl MulticoreSolver {
    /// Creates a solver modeling `cores` host cores.
    pub fn new(host: HostProps, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        MulticoreSolver { host, cores, recorder: None }
    }

    /// Attaches a telemetry recorder: per-iteration/per-phase spans and
    /// residual samples are recorded into it during every solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Modeled core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    fn region_time_us(&self, flops: u64, bytes: u64, parallelism: usize, working_set: u64) -> f64 {
        let eff = self.cores.min(parallelism.max(1)) as f64;
        let serial = self.host.region_time_us_ws(flops, bytes, working_set);
        if parallelism >= PARALLEL_THRESHOLD {
            serial / eff + FORK_JOIN_US
        } else {
            serial
        }
    }

    /// Solves a network from scratch.
    pub fn solve(&self, net: &RadialNetwork, cfg: &SolverConfig) -> SolveResult {
        let arrays = SolverArrays::new(net);
        self.solve_arrays(&arrays, cfg)
    }

    /// Solves with pre-built arrays.
    pub fn solve_arrays(&self, a: &SolverArrays, cfg: &SolverConfig) -> SolveResult {
        self.solve_warm(a, cfg, None)
    }

    /// Solves starting from a previous solution instead of the flat
    /// start (`v_init` is indexed by *bus id*), mirroring
    /// [`crate::SerialSolver::solve_warm`] — the mesh outer loop re-solves
    /// the same topology with updated loads every outer iteration.
    pub fn solve_warm(
        &self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        self.solve_split(a, cfg, v_init, Split::host())
    }

    fn solve_split(
        &self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
        split: Split,
    ) -> SolveResult {
        let wall0 = Instant::now();
        let n = a.len();
        let v0 = a.source;
        if cfg.validate().is_err() {
            return crate::report::invalid_config_result(n, v0);
        }
        let mut monitor = ConvergenceMonitor::new(cfg, v0.abs());

        let mut v = match v_init {
            Some(init) => {
                assert_eq!(init.len(), n, "warm start needs one voltage per bus");
                a.levels.permute(init)
            }
            None => vec![v0; n],
        };
        let mut i_inj = vec![Complex::ZERO; n];
        let mut j = vec![Complex::ZERO; n];

        let ws = 112 * n as u64;
        let mut phases =
            PhaseTimes { setup_us: self.host.region_time_us(0, 128 * n as u64), ..Default::default() };

        let mut iterations = 0;
        let mut residual = f64::MAX;
        let mut residual_history = Vec::new();
        let mut status = SolveStatus::MaxIterations;
        let obs = Obs::new(self.recorder.as_ref(), "solver.multicore");

        while iterations < cfg.max_iter {
            iterations += 1;
            let iter_t0 = phases.total_us();

            // Injection: embarrassingly parallel over all buses.
            let inject = |lo: usize, out: &mut [Complex]| {
                for (k, slot) in out.iter_mut().enumerate() {
                    let p = lo + k;
                    let s = a.s[p];
                    *slot = if s == Complex::ZERO { Complex::ZERO } else { (s / v[p]).conj() };
                }
            };
            par_chunks(&mut i_inj, split, inject, |(), ()| ());
            phases.injection_us += self.region_time_us(12 * n as u64, 48 * n as u64, n, ws);
            obs.phase("injection", iter_t0, phases.total_us());
            let bwd_t0 = phases.total_us();

            // Backward sweep: parallel within each level, levels in
            // sequence (barrier between levels).
            for l in (0..a.num_levels()).rev() {
                let range = a.levels.level_range(l);
                let lo = range.start;
                let (head, tail) = j.split_at_mut(range.end);
                let (_, level_j) = head.split_at_mut(lo);
                let tail_base = range.end;
                let tail_ref: &[Complex] = tail;
                let accumulate = |off: usize, out: &mut [Complex]| {
                    for (k, slot) in out.iter_mut().enumerate() {
                        let p = lo + off + k;
                        let mut acc = i_inj[p];
                        for c in a.child_lo[p] as usize..a.child_hi[p] as usize {
                            acc += tail_ref[c - tail_base];
                        }
                        *slot = acc;
                    }
                };
                par_chunks(level_j, split, accumulate, |(), ()| ());
                phases.backward_us += self.region_time_us(
                    4 * range.len() as u64,
                    48 * range.len() as u64,
                    range.len(),
                    ws,
                );
            }

            obs.phase("backward", bwd_t0, phases.total_us());
            let fwd_t0 = phases.total_us();

            // Forward sweep: parallel within each level, each chunk
            // folding its own |ΔV| ∞-norm. `f64::max` drops NaN, so the
            // folds use the NaN-propagating ∞-norm operator; chunks and
            // levels combine in bus-position order, as the serial fold.
            let mut d = 0.0f64;
            for l in 1..a.num_levels() {
                let range = a.levels.level_range(l);
                let lo = range.start;
                let (head, level_v) = v.split_at_mut(lo);
                let level_v = &mut level_v[..range.len()];
                let head_ref: &[Complex] = head;
                let update = |off: usize, out: &mut [Complex]| {
                    let mut m = 0.0f64;
                    for (k, slot) in out.iter_mut().enumerate() {
                        let p = lo + off + k;
                        let parent = a.parent_pos[p] as usize;
                        let new_v = head_ref[parent] - a.z[p] * j[p];
                        m = max_abs_fold(m, new_v - *slot);
                        *slot = new_v;
                    }
                    m
                };
                d = MaxAbsF64::combine(d, par_chunks(level_v, split, update, MaxAbsF64::combine));
                phases.forward_us += self.region_time_us(
                    12 * range.len() as u64,
                    80 * range.len() as u64,
                    range.len(),
                    ws,
                );
            }

            obs.phase("forward", fwd_t0, phases.total_us());

            // Convergence: modeled as a parallel max-reduce over ΔV.
            phases.convergence_us += self.region_time_us(n as u64, 8 * n as u64, n, ws);

            residual = d;
            residual_history.push(d);
            obs.iteration(iterations, iter_t0, phases.total_us(), d);
            if let Some(s) = monitor.observe(iterations, d) {
                status = s;
                break;
            }
            if let Some(budget) = cfg.deadline_us {
                let elapsed = phases.total_us();
                if elapsed >= budget {
                    status = SolveStatus::DeadlineExceeded {
                        at_iteration: iterations,
                        elapsed_us: elapsed as u64,
                    };
                    break;
                }
            }
        }

        let timing =
            Timing { phases, transfer_us: 0.0,
            transfer_sweep_us: 0.0, wall_us: wall0.elapsed().as_secs_f64() * 1e6 };
        SolveResult {
            v: a.levels.unpermute(&v),
            j: a.levels.unpermute(&j),
            iterations,
            status,
            residual,
            residual_history,
            timing,
            fault_report: None,
        }
    }
}

impl Default for MulticoreSolver {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        MulticoreSolver::new(HostProps::paper_rig(), cores)
    }
}

/// Splits `out` into `split.workers` chunks; `f(offset, chunk)` fills a
/// chunk and returns its partial, and the partials are combined left to
/// right, i.e. in position order. The calling thread runs the first
/// chunk and scoped threads the others. Regions shorter than
/// `split.min_len`, or any region on one worker, run inline as a single
/// chunk.
fn par_chunks<T: Send, R: Send>(
    out: &mut [T],
    split: Split,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
    combine: impl Fn(R, R) -> R,
) -> R {
    let n = out.len();
    if n < split.min_len || split.workers == 1 {
        return f(0, out);
    }
    let chunk = n.div_ceil(split.workers);
    std::thread::scope(|s| {
        let mut chunks = out.chunks_mut(chunk);
        let first = chunks.next().expect("a non-empty region has a chunk");
        let f = &f;
        let rest: Vec<_> = chunks
            .enumerate()
            .map(|(ci, c)| s.spawn(move || f((ci + 1) * chunk, c)))
            .collect();
        rest.into_iter().fold(f(0, first), |acc, h| {
            combine(acc, h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSolver;
    use numc::c;
    use powergrid::gen::{balanced_binary, chain, GenSpec};
    use powergrid::ieee::{ieee123_style, ieee13};
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    fn mc() -> MulticoreSolver {
        MulticoreSolver::new(HostProps::paper_rig(), 8)
    }

    #[test]
    fn matches_serial_on_ieee13() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = mc().solve(&net, &cfg);
        assert!(m.converged());
        assert_eq!(m.iterations, s.iterations);
        for (a, b) in s.v.iter().zip(&m.v) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_serial_on_large_tree_crossing_parallel_threshold() {
        let mut rng = StdRng::seed_from_u64(17);
        // 8191 buses: the two deepest binary levels exceed the 2048
        // threshold, so the threaded path really runs.
        let net = balanced_binary(8191, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = mc().solve(&net, &cfg);
        assert!(m.converged() && s.converged());
        for (a, b) in s.v.iter().zip(&m.v) {
            assert!((*a - *b).abs() < 1e-6);
        }
    }

    fn same_bits(a: &[Complex], b: &[Complex]) -> bool {
        let bits = |x: &Complex| (x.re.to_bits(), x.im.to_bits());
        a.len() == b.len() && a.iter().map(bits).eq(b.iter().map(bits))
    }

    /// Serial and multicore agree bit for bit — voltages, currents,
    /// iteration counts, residual histories, statuses — whatever the
    /// split. `min_len: 1` forces every region into chunks, also on
    /// feeders whose levels never reach the threshold and on hosts with
    /// one CPU.
    #[test]
    fn matches_serial_bit_for_bit_in_forced_chunks() {
        let mut rng = StdRng::seed_from_u64(31);
        let spec = GenSpec::default();
        let mut cases = vec![
            ("ieee13", SolverArrays::new(&ieee13())),
            ("ieee123", SolverArrays::new(&ieee123_style())),
        ];
        for n in [1023, 32_767, 131_071] {
            cases.push(("binary", SolverArrays::new(&balanced_binary(n, &spec, &mut rng))));
        }
        // A NaN load deep in the tree: the first NaN of the ∞-norm fold
        // must be the serial one.
        let mut sick = SolverArrays::new(&balanced_binary(32_767, &spec, &mut rng));
        sick.s[20_000] = c(f64::NAN, 0.0);
        cases.push(("binary with a NaN load", sick));

        let cfg = SolverConfig::default();
        for (name, a) in &cases {
            let s = SerialSolver::new(HostProps::paper_rig()).solve_arrays(a, &cfg);
            assert_eq!(s.residual.is_nan(), name.contains("NaN"), "{name}: {}", s.status);
            let modeled = mc().solve_split(a, &cfg, None, Split { workers: 1, min_len: 1 });
            for workers in [2, 3] {
                for min_len in [1, PARALLEL_THRESHOLD] {
                    let split = Split { workers, min_len };
                    let m = mc().solve_split(a, &cfg, None, split);
                    let what = format!("{name} ({} buses), {split:?}", a.len());
                    assert!(same_bits(&m.v, &s.v), "{what}: v");
                    assert!(same_bits(&m.j, &s.j), "{what}: j");
                    assert_eq!(m.iterations, s.iterations, "{what}");
                    assert_eq!(m.status, s.status, "{what}");
                    assert_eq!(m.residual.to_bits(), s.residual.to_bits(), "{what}");
                    let hist = |r: &SolveResult| -> Vec<u64> {
                        r.residual_history.iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(hist(&m), hist(&s), "{what}: residual history");
                    // The split is a host detail: the model never sees it.
                    assert_eq!(m.timing.phases, modeled.timing.phases, "{what}: modeled time");
                }
            }
        }
    }

    #[test]
    fn chain_gains_nothing_from_parallelism_in_the_model() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = chain(3000, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = mc().solve(&net, &cfg);
        // Levels of width 1 never parallelise; modeled sweep time can
        // only match or exceed serial (scalar overheads aside).
        assert!(m.timing.phases.backward_us >= 0.9 * s.timing.phases.backward_us);
    }

    #[test]
    fn more_cores_reduce_modeled_time_on_wide_trees() {
        let mut rng = StdRng::seed_from_u64(29);
        let net = balanced_binary(65_535, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let m2 = MulticoreSolver::new(HostProps::paper_rig(), 2).solve(&net, &cfg);
        let m8 = MulticoreSolver::new(HostProps::paper_rig(), 8).solve(&net, &cfg);
        assert!(m8.timing.total_us() < m2.timing.total_us());
    }
}
