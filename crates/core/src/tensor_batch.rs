//! Tensor-batched power flow: scenario-major SoA state, fused
//! (level × batch) kernels, one launch per iteration.
//!
//! [`crate::BatchSolver`] amortises launch overhead per *level*: every
//! tree level of every iteration is its own kernel, so a depth-`L` solve
//! still pays `O(L)` launches per iteration regardless of batch size.
//! This module removes the per-level launches entirely by turning the
//! batch into a tensor:
//!
//! * **Scenario-major SoA layout** — every per-scenario array (voltages,
//!   branch currents, loads, residuals) is one slab indexed
//!   `g(s, p) = s·n + p`, where `p` is the level-order position. Adjacent
//!   threads touch adjacent positions of one scenario, so warp accesses
//!   coalesce exactly as in the single-scenario solver, and scenario `s`
//!   occupies one contiguous stripe.
//! * **Shared topology** — impedances, parent pointers, child ranges and
//!   the level table describe one tree and upload once per solve at size
//!   `n`, not `B·n`.
//! * **Fused sweeps** — one 2-D launch per *iteration*:
//!   `gridDim.y = B` (one block per scenario), with the tree levels of
//!   both sweep directions expressed as barrier phases *inside* the
//!   block. Injection fuses into the leaf-to-root accumulation; between
//!   the backward and forward halves each thread keeps the currents and
//!   previous voltages of its nodes in registers, so the forward ladder
//!   re-reads neither slab; and the per-scenario ∞-norm residual folds in
//!   shared memory and publishes one `f64` per scenario — the batched
//!   reduction collapses into the same launch.
//!
//! Per-scenario cost therefore approaches the bandwidth floor: the only
//! per-iteration traffic is one read of the load and voltage slabs, one
//! write of the current and voltage slabs, and one topology read — and
//! launch overhead is `1/B` launches per scenario per iteration.
//!
//! # Masking, early abort, determinism
//!
//! Every scenario owns a [`ConvergenceMonitor`]. The moment a scenario
//! converges, diverges, or goes non-finite it is *frozen*: its mask entry
//! drops to 0, the fused kernels skip its stripe (one 4-byte read per
//! block), and its state stays exactly as it was at the freezing
//! iteration. The loop aborts as soon as no scenario is active. Because a
//! scenario's trajectory depends only on its own stripe and it is frozen
//! at *its own* convergence iteration, results are byte-identical across
//! runs and across batch orderings, and `per_scenario_iterations[s]`
//! equals the iteration count the serial solver reports for the same
//! scenario.
//!
//! # Fault recovery
//!
//! Transient device errors retry the affected chunk from scratch (budget
//! [`SolverConfig::max_recoveries`]); a lost device degrades to the
//! serial solver per scenario. When a fault plan is armed, finished
//! chunks are *audited*: static buffers are read back and compared, and
//! one extra no-commit iteration per scenario (j and V into scratch
//! slabs) measures `max |ΔV|` via [`primitives::try_reduce_batched`] —
//! any scenario whose audit residual exceeds the tolerance, plus any
//! flagged failure, is re-solved on the host and reported as
//! [`SolveStatus::Recovered`]. Repaired scenarios return the serial
//! solver's state, so silent corruption cannot leak into results.
//!
//! # Scale
//!
//! Batches larger than device memory are processed in scenario chunks;
//! the topology stays resident across chunks. For Monte-Carlo-style
//! studies the per-scenario loads can be synthesised *on device* from the
//! base loads and one `f64` scale factor per scenario
//! ([`TensorBatchSolver::solve_scaled`]), eliminating the `B·n` load
//! upload; combined with [`TensorBatchSolver::stats_only`] (skip the
//! state download) the engine streams through hundreds of thousands of
//! scenarios.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use numc::Complex;
use powergrid::{DfsOrder, RadialNetwork};
use primitives::ops::{max_abs_fold, min_abs_fold, MaxAbsF64, ScanOp};
use primitives::{try_fill, try_reduce_batched};
use simt::{
    BlockScope, BlockTally, Device, DeviceBuffer, DeviceError, GlobalMut, GlobalRef, HostProps,
    Kernel, LaunchConfig,
};
use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::report::{FaultReport, PhaseTimes, Timing};
use crate::serial::SerialSolver;
use crate::status::{ConvergenceMonitor, SolveStatus};

/// Threads per scenario block.
const TENSOR_BLOCK: u32 = 256;

/// Scenarios resident in one sweep block. The tree topology (impedances,
/// parent pointers, child ranges, base loads) is read once per node per
/// block and applied to every resident scenario's stripe, so topology
/// traffic per scenario falls by this factor. Two keeps the per-thread
/// local state (≈ 0.5 KB per scenario at 4K nodes / 256 threads) within
/// a plausible register/L1 budget.
const SCENARIOS_PER_BLOCK: usize = 2;

/// Upper bound on scenarios per chunk: bounds device *and* host footprint
/// (a chunk of 4K-bus scenarios is ~1 GB of state at this cap).
const MAX_CHUNK_SCENARIOS: usize = 8192;

/// Splits `n_scenarios` into at most `n_shards` contiguous ranges for
/// hand-off to several devices, each at least `min_shard` scenarios
/// (the final shard absorbs the remainder). Shard boundaries are
/// aligned down to the solver's chunk cap ([`MAX_CHUNK_SCENARIOS`])
/// whenever every shard stays ≥ `min_shard`, so a shard never ends
/// mid-chunk on the receiving device. Deterministic in its arguments.
pub fn shard_ranges(
    n_scenarios: usize,
    n_shards: usize,
    min_shard: usize,
) -> Vec<std::ops::Range<usize>> {
    assert!(n_shards > 0, "need at least one shard");
    let min_shard = min_shard.max(1);
    let shards = n_shards.min(n_scenarios / min_shard).max(1);
    let per = n_scenarios / shards;
    // Align interior boundaries to the chunk cap when the aligned size
    // still clears the floor; tiny shards keep the plain split.
    let step = if per >= MAX_CHUNK_SCENARIOS {
        per - per % MAX_CHUNK_SCENARIOS
    } else {
        per
    };
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for s in 0..shards {
        let hi = if s + 1 == shards { n_scenarios } else { lo + step };
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// One scenario's topology delta for a patched solve
/// ([`TensorBatchSolver::solve_patched`]): the shared tree is uploaded
/// once and each scenario carries at most a few words describing how its
/// topology differs — no per-scenario arrays, no rebuild.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioPatch {
    /// Open the branch feeding this bus: its whole DFS subtree is
    /// de-energized (masked out of the sweeps and the residual) and the
    /// energized parent drops the subtree's branch current from its
    /// child sum. `None` leaves the topology intact.
    pub outage: Option<usize>,
    /// Replace the impedance of the branch feeding bus `.0` with `.1`.
    pub z_override: Option<(usize, Complex)>,
    /// Load scale applied to the base loads (`1.0` = base case). The
    /// scale is the only per-scenario load state, exactly as in
    /// [`TensorBatchSolver::solve_scaled`].
    pub scale: f64,
}

impl Default for ScenarioPatch {
    fn default() -> Self {
        ScenarioPatch { outage: None, z_override: None, scale: 1.0 }
    }
}

impl ScenarioPatch {
    /// The base case: no topology change, base loads.
    pub fn base() -> Self {
        Self::default()
    }

    /// An N-1 outage of the branch feeding `bus`, at base loads.
    pub fn outage(bus: usize) -> Self {
        ScenarioPatch { outage: Some(bus), ..Self::default() }
    }
}

/// Result of one tensor-batched solve.
#[derive(Clone, Debug)]
pub struct TensorBatchResult {
    /// Per-scenario bus voltages, `[scenario][bus id]`. Empty in
    /// [`TensorBatchSolver::stats_only`] mode.
    pub v: Vec<Vec<Complex>>,
    /// Per-scenario branch currents into each bus, `[scenario][bus id]`.
    /// Empty in stats-only mode.
    pub j: Vec<Vec<Complex>>,
    /// Iterations of the slowest scenario (the batch loop maximum).
    pub iterations: u32,
    /// Iterations each scenario actually ran before freezing — its own
    /// convergence/divergence iteration, not the batch maximum.
    pub per_scenario_iterations: Vec<u32>,
    /// Per-scenario outcome. Frozen scenarios carry their freeze
    /// iteration in the status payload (`at_iteration`).
    pub statuses: Vec<SolveStatus>,
    /// Final per-scenario `max |ΔV|`, volts.
    pub residuals: Vec<f64>,
    /// Batch-wide worst final residual (NaN-propagating fold), volts.
    pub residual: f64,
    /// Patched solves only: per-scenario minimum energized `|V|`, volts,
    /// taken over every non-root bus the sweeps updated (de-energized
    /// subtrees excluded). The screening headline — a contingency that
    /// converges but sags below a voltage floor is still a violation.
    /// Empty for unpatched solves; `+∞` for a single-bus network.
    pub min_v: Vec<f64>,
    /// Timing summary for the whole batch.
    pub timing: Timing,
    /// Modeled throughput: scenarios per modeled device second.
    pub scenarios_per_sec: f64,
    /// Populated when faults were observed or a fault plan was armed.
    pub fault_report: Option<FaultReport>,
}

impl TensorBatchResult {
    /// Whether *every* scenario converged (recovered counts).
    pub fn converged(&self) -> bool {
        self.statuses.iter().all(|s| s.is_converged())
    }

    /// The most severe scenario outcome (batch-wide summary).
    pub fn worst_status(&self) -> SolveStatus {
        self.statuses.iter().fold(SolveStatus::Converged, |w, &s| w.worse(s))
    }
}

/// Scenario loads for one solve.
enum Loads<'s> {
    /// Full by-bus load vectors, one per scenario.
    Explicit(&'s [Vec<Complex>]),
    /// `loads(s) = base × scales[s]` with the base loads from the arrays,
    /// synthesised on device (no `B·n` upload).
    Scaled(&'s [f64]),
}

impl Loads<'_> {
    fn len(&self) -> usize {
        match self {
            Loads::Explicit(s) => s.len(),
            Loads::Scaled(s) => s.len(),
        }
    }
}

/// The tensor-batched GPU solver.
pub struct TensorBatchSolver {
    device: Device,
    recorder: Option<Recorder>,
    chunk_cap: usize,
    keep_state: bool,
    sweep_memo: SweepMemo,
}

impl TensorBatchSolver {
    /// Creates a solver on the given device.
    pub fn new(device: Device) -> Self {
        TensorBatchSolver {
            device,
            recorder: None,
            chunk_cap: MAX_CHUNK_SCENARIOS,
            keep_state: true,
            sweep_memo: SweepMemo::default(),
        }
    }

    /// Attaches a telemetry recorder: per-chunk spans, per-iteration
    /// residual samples, and batch throughput are recorded during every
    /// solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Caps scenarios per chunk (testing/tuning; clamped to ≥ 1).
    pub fn with_chunk_scenarios(mut self, cap: usize) -> Self {
        self.set_chunk_scenarios(cap);
        self
    }

    /// By-ref form of [`Self::with_chunk_scenarios`], for callers that
    /// plan the chunk size per solve (e.g. the contingency screener
    /// sizing chunks from the bus count).
    pub fn set_chunk_scenarios(&mut self, cap: usize) {
        self.chunk_cap = cap.max(1);
    }

    /// Skip the per-bus state download: `v`/`j` come back empty, only
    /// statuses, iterations and residuals are reported. This is the
    /// streaming mode for huge Monte Carlo batches.
    pub fn stats_only(mut self) -> Self {
        self.keep_state = false;
        self
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Solves `scenarios.len()` load scenarios over one network. Each
    /// scenario is a full by-bus load vector (`scenarios[s][bus]`, VA).
    /// Panics if the batch is empty or any scenario length differs from
    /// the bus count.
    pub fn solve(
        &mut self,
        net: &RadialNetwork,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        let arrays = SolverArrays::new(net);
        self.solve_arrays(&arrays, scenarios, cfg)
    }

    /// Solves per-scenario scalings of the network's base loads:
    /// scenario `s` uses `load(bus) × scales[s]`. The scale factors are
    /// the only per-scenario upload.
    pub fn solve_scaled(
        &mut self,
        net: &RadialNetwork,
        scales: &[f64],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        let arrays = SolverArrays::new(net);
        self.solve_scaled_arrays(&arrays, scales, cfg)
    }

    /// Solves with pre-built level-order arrays.
    pub fn solve_arrays(
        &mut self,
        a: &SolverArrays,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        self.try_solve_arrays(a, scenarios, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TensorBatchSolver::solve_scaled`] with pre-built arrays.
    pub fn solve_scaled_arrays(
        &mut self,
        a: &SolverArrays,
        scales: &[f64],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        self.try_solve_scaled_arrays(a, scales, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TensorBatchSolver::solve`]. Device weather is handled
    /// internally (retry, then host fallback), so an `Err` only escapes
    /// when recovery itself is impossible; batch-shape violations remain
    /// panics.
    pub fn try_solve(
        &mut self,
        net: &RadialNetwork,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
    ) -> Result<TensorBatchResult, DeviceError> {
        let arrays = SolverArrays::new(net);
        self.try_solve_arrays(&arrays, scenarios, cfg)
    }

    /// Fallible [`TensorBatchSolver::solve_arrays`].
    pub fn try_solve_arrays(
        &mut self,
        a: &SolverArrays,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
    ) -> Result<TensorBatchResult, DeviceError> {
        let n = a.len();
        for (s, sc) in scenarios.iter().enumerate() {
            assert_eq!(sc.len(), n, "scenario {s} has {} loads for {n} buses", sc.len());
        }
        self.solve_impl(a, Loads::Explicit(scenarios), cfg, None, None)
    }

    /// [`TensorBatchSolver::try_solve_arrays`] with a *per-scenario*
    /// warm start: scenario `s` begins its iteration from `warm[s]`
    /// (voltages by bus id) instead of the flat source profile. The
    /// natural feed is each scenario's own previous solution — an outer
    /// loop (compensation/PV updates, quasi-static time series) perturbs
    /// the loads a little each round, so the fixed point moves a little
    /// and the re-solve converges in a handful of iterations instead of
    /// paying the cold count every round.
    pub fn try_solve_arrays_warm(
        &mut self,
        a: &SolverArrays,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
        warm: &[Vec<Complex>],
    ) -> Result<TensorBatchResult, DeviceError> {
        let n = a.len();
        assert_eq!(
            warm.len(),
            scenarios.len(),
            "warm profiles ({}) must match scenarios ({})",
            warm.len(),
            scenarios.len()
        );
        for (s, sc) in scenarios.iter().enumerate() {
            assert_eq!(sc.len(), n, "scenario {s} has {} loads for {n} buses", sc.len());
            assert_eq!(warm[s].len(), n, "scenario {s} warm profile needs one voltage per bus");
        }
        self.solve_impl(a, Loads::Explicit(scenarios), cfg, None, Some(warm))
    }

    /// Fallible [`TensorBatchSolver::solve_scaled_arrays`].
    pub fn try_solve_scaled_arrays(
        &mut self,
        a: &SolverArrays,
        scales: &[f64],
        cfg: &SolverConfig,
    ) -> Result<TensorBatchResult, DeviceError> {
        self.solve_impl(a, Loads::Scaled(scales), cfg, None, None)
    }

    /// Solves one topology *variant* per scenario over the shared base
    /// tree: each [`ScenarioPatch`] opens at most one branch (N-1
    /// outage), overrides at most one impedance, and scales the base
    /// loads. The tree uploads once; per-scenario state is a handful of
    /// words. `warm` optionally seeds every scenario's voltage iterate
    /// from a base-case profile (indexed by bus id) instead of the flat
    /// start — the batched counterpart of
    /// [`SerialSolver::solve_warm`].
    ///
    /// De-energized buses of an outage scenario report `V = 0`, `J = 0`
    /// (when state is kept) and are excluded from the residual and from
    /// [`TensorBatchResult::min_v`]. Panics on shape violations (bad bus
    /// ids, outage of the root).
    pub fn solve_patched(
        &mut self,
        net: &RadialNetwork,
        patches: &[ScenarioPatch],
        cfg: &SolverConfig,
        warm: Option<&[Complex]>,
    ) -> TensorBatchResult {
        self.try_solve_patched(net, patches, cfg, warm).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TensorBatchSolver::solve_patched`].
    pub fn try_solve_patched(
        &mut self,
        net: &RadialNetwork,
        patches: &[ScenarioPatch],
        cfg: &SolverConfig,
        warm: Option<&[Complex]>,
    ) -> Result<TensorBatchResult, DeviceError> {
        let arrays = SolverArrays::new(net);
        let dfs = DfsOrder::new(net);
        self.try_solve_patched_arrays(&arrays, &dfs, patches, cfg, warm)
    }

    /// [`TensorBatchSolver::solve_patched`] with pre-built level-order
    /// arrays and DFS order (both over the *same* network).
    pub fn try_solve_patched_arrays(
        &mut self,
        a: &SolverArrays,
        dfs: &DfsOrder,
        patches: &[ScenarioPatch],
        cfg: &SolverConfig,
        warm: Option<&[Complex]>,
    ) -> Result<TensorBatchResult, DeviceError> {
        let plan = PatchPlan::build(a, dfs, patches, warm);
        self.solve_impl(a, Loads::Scaled(&plan.scales), cfg, Some(&plan), None)
    }

    fn solve_impl(
        &mut self,
        a: &SolverArrays,
        loads: Loads<'_>,
        cfg: &SolverConfig,
        patches: Option<&PatchPlan>,
        warm: Option<&[Vec<Complex>]>,
    ) -> Result<TensorBatchResult, DeviceError> {
        let wall0 = Instant::now();
        let nb = loads.len();
        assert!(nb >= 1, "batch must contain at least one scenario");
        let n = a.len();
        let v0 = a.source;

        if cfg.validate().is_err() {
            return Ok(TensorBatchResult {
                v: if self.keep_state { vec![vec![v0; n]; nb] } else { Vec::new() },
                j: if self.keep_state { vec![vec![Complex::ZERO; n]; nb] } else { Vec::new() },
                iterations: 0,
                per_scenario_iterations: vec![0; nb],
                statuses: vec![SolveStatus::InvalidConfig; nb],
                residuals: vec![f64::INFINITY; nb],
                residual: f64::INFINITY,
                min_v: if patches.is_some() { vec![f64::INFINITY; nb] } else { Vec::new() },
                timing: Timing::default(),
                scenarios_per_sec: 0.0,
                fault_report: None,
            });
        }

        let obs = Obs::new(self.recorder.as_ref(), "solver.tensor-batch");
        let armed = self.device.fault_plan().is_some();
        let faults_before = self.device.fault_log().len();
        let chunk_cap = self.chunk_cap.min(nb);

        let mut out = Outcome::new(nb, self.keep_state);
        let mut phases = PhaseTimes::default();
        let mut transfer_us = 0.0;
        let mut transfer_sweep_us = 0.0;
        let mut retries_total = 0u32;
        let mut corruptions_total = 0u32;
        let mut degraded = false;

        // ---- Topology upload (once; re-done only on chunk retry).
        // Transient faults (injected alloc-OOM, transfer failures) get
        // the retry budget; a device that stays broken degrades every
        // chunk to the host path below.
        let mark = self.device.timeline().mark();
        let mut topo = None;
        for attempt in 0..=cfg.max_recoveries {
            if self.device.is_lost() {
                break;
            }
            match Topology::upload(&mut self.device, a, patches) {
                Ok(t) => {
                    topo = Some(t);
                    break;
                }
                Err(_) => {
                    if attempt < cfg.max_recoveries {
                        retries_total += 1;
                    }
                }
            }
        }
        let b = self.device.timeline().breakdown_since(mark);
        phases.setup_us += b.total_us();
        transfer_us += b.htod_us + b.dtoh_us;

        let mut chunk_start = 0usize;
        while chunk_start < nb {
            let chunk = chunk_cap.min(nb - chunk_start);
            let range = chunk_start..chunk_start + chunk;
            let chunk_t0 = phases.total_us();

            // Retry the chunk on transient faults; degrade to the host
            // when the device is lost or the budget runs out — device
            // weather never escapes as an `Err`.
            let mut attempts = 0u32;
            loop {
                if topo.is_none() || self.device.is_lost() {
                    degraded = true;
                    break;
                }
                // Corrupted index buffers can drive a kernel out of
                // bounds; the engine propagates the panic, which is just
                // another device fault: catch it and restart the chunk.
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    run_chunk(
                        &mut self.device,
                        &mut self.sweep_memo,
                        a,
                        topo.as_ref().expect("topology resident"),
                        &loads,
                        patches,
                        warm,
                        range.clone(),
                        cfg,
                        armed,
                        &obs,
                        &mut phases,
                        &mut transfer_us,
                        &mut transfer_sweep_us,
                        &mut out,
                    )
                }));
                if matches!(attempt, Ok(Err(DeviceError::TransferCorrupted { .. }))) {
                    corruptions_total += 1;
                    obs.instant("corruption-detected", phases.total_us());
                }
                match attempt {
                    Ok(Ok(())) => break,
                    Ok(Err(_)) | Err(_) if self.device.is_lost() => {
                        degraded = true;
                        break;
                    }
                    Ok(Err(_)) | Err(_) => {
                        if attempts >= cfg.max_recoveries {
                            degraded = true;
                            break;
                        }
                        attempts += 1;
                        retries_total += 1;
                        obs.instant("chunk-retry", phases.total_us());
                        // Re-upload the topology: the fault may have
                        // corrupted resident buffers.
                        let mark = self.device.timeline().mark();
                        match Topology::upload(&mut self.device, a, patches) {
                            Ok(t) => topo = Some(t),
                            Err(_) => {
                                degraded = true;
                                topo = None;
                            }
                        }
                        let b = self.device.timeline().breakdown_since(mark);
                        phases.setup_us += b.total_us();
                        transfer_us += b.htod_us + b.dtoh_us;
                        if degraded {
                            break;
                        }
                    }
                }
            }

            if degraded {
                // Host fallback for every scenario of this chunk.
                let t0 = phases.total_us();
                let serial = SerialSolver::new(HostProps::paper_rig());
                for s in range.clone() {
                    let res = repair_solve(&serial, a, &loads, patches, warm, s, cfg);
                    out.absorb_serial(s, res, true, patches);
                }
                phases.teardown_us += out.repair_us;
                out.repair_us = 0.0;
                obs.phase("fallback", t0, phases.total_us());
            }

            obs.batch_chunk(chunk_start / chunk_cap, chunk, chunk_t0, phases.total_us());
            chunk_start += chunk;
        }

        let faults_seen = (self.device.fault_log().len() - faults_before) as u32;
        let timing = Timing {
            phases,
            transfer_us,
            transfer_sweep_us,
            wall_us: wall0.elapsed().as_secs_f64() * 1e6,
        };
        let total_us = timing.total_us();
        let scenarios_per_sec = if total_us > 0.0 { nb as f64 / (total_us * 1e-6) } else { 0.0 };
        obs.batch_summary(nb, scenarios_per_sec);

        let fault_report = (armed || faults_seen > 0 || retries_total > 0 || corruptions_total > 0)
            .then(|| FaultReport {
                faults_injected: faults_seen,
                rollbacks: 0,
                retries: retries_total,
                checkpoints: 0,
                checkpoint_us: 0.0,
                backends: if degraded {
                    vec!["tensor-gpu".to_string(), "cpu-serial".to_string()]
                } else {
                    vec!["tensor-gpu".to_string()]
                },
                corruptions_detected: corruptions_total,
            });

        let residual =
            out.residuals.iter().fold(0.0f64, |acc, &r| MaxAbsF64::combine(acc, r));
        Ok(TensorBatchResult {
            iterations: out.per_scenario_iterations.iter().copied().max().unwrap_or(0),
            v: out.v,
            j: out.j,
            per_scenario_iterations: out.per_scenario_iterations,
            statuses: out.statuses,
            residuals: out.residuals,
            residual,
            min_v: if patches.is_some() { out.min_v } else { Vec::new() },
            timing,
            scenarios_per_sec,
            fault_report,
        })
    }

    /// Largest scenario batch one resident session can hold; callers
    /// running bigger families chunk on this.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_cap
    }

    /// Opens a resident-state outer-loop session over one scenario
    /// batch: topology, loads and the voltage iterate stay on the
    /// device across rounds. Each [`TensorOuterSession::solve_round`]
    /// re-iterates every live scenario from its previous fixed point;
    /// between rounds the driver adjusts a handful of bus loads
    /// ([`TensorOuterSession::update_loads`]) and reads back only the
    /// `probes` buses' voltages — so a compensation/PV outer loop pays
    /// sparse traffic per round instead of re-shipping `B·n` slabs.
    ///
    /// Device weather degrades the session to per-scenario serial
    /// solves (the voltage iterate is rebuilt cold after a fault — the
    /// fixed point does not depend on the starting profile, so only
    /// modeled time is lost, never correctness).
    ///
    /// `warm` optionally seeds every scenario's first round from one
    /// shared profile (by bus id) — typically the base-case fixed point
    /// — replicated device-side from a single `n`-word upload.
    pub fn outer_session<'s>(
        &'s mut self,
        a: &'s SolverArrays,
        loads: &[Vec<Complex>],
        probes: &[usize],
        warm: Option<&[Complex]>,
        cfg: &SolverConfig,
    ) -> TensorOuterSession<'s> {
        let n = a.len();
        let nb = loads.len();
        assert!(nb >= 1, "session needs at least one scenario");
        assert!(
            nb <= self.chunk_cap,
            "session of {nb} scenarios exceeds the chunk capacity {}",
            self.chunk_cap
        );
        for (s, sc) in loads.iter().enumerate() {
            assert_eq!(sc.len(), n, "scenario {s} has {} loads for {n} buses", sc.len());
        }
        for &b in probes {
            assert!(b < n, "probe bus {b} of {n}");
        }
        if let Some(w) = warm {
            assert_eq!(w.len(), n, "warm profile has {} entries for {n} buses", w.len());
        }
        let mut session = TensorOuterSession {
            solver: self,
            a,
            n,
            nb,
            probe_pos: probes.iter().map(|&b| a.levels.pos_of[b]).collect(),
            loads: loads.to_vec(),
            warm: warm.map(<[Complex]>::to_vec),
            retired: vec![false; nb],
            statuses: vec![SolveStatus::MaxIterations; nb],
            host_v: vec![None; nb],
            dev_state: None,
            degraded: false,
            max_recoveries: cfg.max_recoveries,
            retries: 0,
            total_us: 0.0,
        };
        session.try_build();
        session
    }
}

/// Accumulates per-scenario outputs across chunks.
struct Outcome {
    v: Vec<Vec<Complex>>,
    j: Vec<Vec<Complex>>,
    per_scenario_iterations: Vec<u32>,
    statuses: Vec<SolveStatus>,
    residuals: Vec<f64>,
    min_v: Vec<f64>,
    keep_state: bool,
    repairs: u32,
    repair_us: f64,
}

impl Outcome {
    fn new(nb: usize, keep_state: bool) -> Self {
        Outcome {
            v: if keep_state { vec![Vec::new(); nb] } else { Vec::new() },
            j: if keep_state { vec![Vec::new(); nb] } else { Vec::new() },
            per_scenario_iterations: vec![0; nb],
            statuses: vec![SolveStatus::MaxIterations; nb],
            residuals: vec![f64::INFINITY; nb],
            min_v: vec![f64::INFINITY; nb],
            keep_state,
            repairs: 0,
            repair_us: 0.0,
        }
    }

    /// Replaces scenario `s` with a serial solve outcome. `recovered`
    /// upgrades a converged serial status to [`SolveStatus::Recovered`]
    /// (the payload is patched by the caller at the end via
    /// `fault_report`; counts here are per-scenario bookkeeping). In
    /// patched mode the de-energized buses are zeroed and the energized
    /// `min |V|` is computed host-side, matching the device convention.
    fn absorb_serial(
        &mut self,
        s: usize,
        mut res: crate::report::SolveResult,
        recovered: bool,
        patches: Option<&PatchPlan>,
    ) {
        if let Some(plan) = patches {
            self.min_v[s] = host_min_v(&res.v, plan.root, &plan.isolated[s]);
            for &bus in &plan.isolated[s] {
                res.v[bus as usize] = Complex::ZERO;
                res.j[bus as usize] = Complex::ZERO;
            }
        }
        self.per_scenario_iterations[s] = res.iterations;
        self.residuals[s] = res.residual;
        self.statuses[s] = if recovered && res.status == SolveStatus::Converged {
            SolveStatus::Recovered { faults: 1, retries: 1 }
        } else {
            res.status
        };
        if self.keep_state {
            self.v[s] = res.v;
            self.j[s] = res.j;
        }
        self.repairs += 1;
        self.repair_us += res.timing.total_us();
    }
}

/// Host-side view of a patched batch: the shared position→DFS map plus
/// one cut range / impedance override / load scale per scenario.
/// `u32::MAX` is the universal "no patch" sentinel — an empty cut range
/// and an impossible override position — so unpatched scenarios flow
/// through the same kernel code without branching.
struct PatchPlan {
    /// Level position → DFS preorder position (length `n`). A node is
    /// de-energized in scenario `s` iff its DFS position falls in
    /// `[cut_lo[s], cut_hi[s])` — the subtree of the outaged bus is one
    /// contiguous DFS range, so membership is two compares.
    dfs_pos: Vec<u32>,
    /// Per-scenario load scales (the `Loads::Scaled` operand).
    scales: Vec<f64>,
    /// Level position of the outaged bus (the energized parent drops
    /// child `cut_pos` from its sum), or `u32::MAX`.
    cut_pos: Vec<u32>,
    cut_lo: Vec<u32>,
    cut_hi: Vec<u32>,
    /// Level position whose feeding impedance is overridden, or
    /// `u32::MAX`.
    z_pos: Vec<u32>,
    z_val: Vec<Complex>,
    /// De-energized bus ids per scenario (empty without an outage).
    isolated: Vec<Vec<u32>>,
    /// Warm-start profile, by bus id (replicated device-side).
    warm: Option<Vec<Complex>>,
    /// Root bus id (excluded from `min_v`).
    root: usize,
}

impl PatchPlan {
    fn build(
        a: &SolverArrays,
        dfs: &DfsOrder,
        patches: &[ScenarioPatch],
        warm: Option<&[Complex]>,
    ) -> Self {
        let n = a.len();
        assert_eq!(dfs.len(), n, "DFS order is over a {}-bus tree, arrays over {n}", dfs.len());
        let root = a.levels.order[0] as usize;
        let nb = patches.len();
        let dfs_pos: Vec<u32> =
            (0..n).map(|p| dfs.pos_of[a.levels.order[p] as usize]).collect();
        let mut plan = PatchPlan {
            dfs_pos,
            scales: Vec::with_capacity(nb),
            cut_pos: Vec::with_capacity(nb),
            cut_lo: Vec::with_capacity(nb),
            cut_hi: Vec::with_capacity(nb),
            z_pos: Vec::with_capacity(nb),
            z_val: Vec::with_capacity(nb),
            isolated: Vec::with_capacity(nb),
            warm: warm.map(|w| {
                assert_eq!(w.len(), n, "warm profile needs one voltage per bus");
                w.to_vec()
            }),
            root,
        };
        for (s, patch) in patches.iter().enumerate() {
            assert!(
                patch.scale.is_finite(),
                "scenario {s}: load scale must be finite, got {}",
                patch.scale
            );
            plan.scales.push(patch.scale);
            match patch.outage {
                Some(bus) => {
                    assert!(bus < n, "scenario {s}: outage bus {bus} of {n}");
                    assert_ne!(bus, root, "scenario {s}: the root has no feeding branch");
                    let d = dfs.pos_of[bus];
                    let sz = dfs.subtree_size[d as usize];
                    plan.cut_pos.push(a.levels.pos_of[bus]);
                    plan.cut_lo.push(d);
                    plan.cut_hi.push(d + sz);
                    plan.isolated.push(dfs.order[d as usize..(d + sz) as usize].to_vec());
                }
                None => {
                    plan.cut_pos.push(u32::MAX);
                    plan.cut_lo.push(u32::MAX);
                    plan.cut_hi.push(u32::MAX);
                    plan.isolated.push(Vec::new());
                }
            }
            match patch.z_override {
                Some((bus, z)) => {
                    assert!(bus < n, "scenario {s}: override bus {bus} of {n}");
                    assert_ne!(bus, root, "scenario {s}: the root has no feeding branch");
                    assert!(
                        z.is_finite() && z.abs() > 0.0 && z.re >= 0.0,
                        "scenario {s}: override impedance {z:?} is not a valid impedance"
                    );
                    plan.z_pos.push(a.levels.pos_of[bus]);
                    plan.z_val.push(z);
                }
                None => {
                    plan.z_pos.push(u32::MAX);
                    plan.z_val.push(Complex::ZERO);
                }
            }
        }
        plan
    }
}

/// Minimum energized non-root `|V|` of a by-bus profile (the host-side
/// mirror of the sweep kernel's min fold, for repaired scenarios).
fn host_min_v(v: &[Complex], root: usize, isolated: &[u32]) -> f64 {
    let mut dead = vec![false; v.len()];
    for &b in isolated {
        dead[b as usize] = true;
    }
    let mut min = f64::INFINITY;
    for (b, vv) in v.iter().enumerate() {
        if b != root && !dead[b] {
            min = min.min(vv.abs());
        }
    }
    min
}

/// Resident topology buffers (position space, size `n`).
struct Topology {
    z: DeviceBuffer<Complex>,
    parent_pos: DeviceBuffer<u32>,
    child_lo: DeviceBuffer<u32>,
    child_hi: DeviceBuffer<u32>,
    /// Base loads in position space (the scaled-mode operand).
    base_s: DeviceBuffer<Complex>,
    /// Patched solves: level position → DFS position (cut membership).
    dfs_pos: Option<DeviceBuffer<u32>>,
}

impl Topology {
    fn upload(
        dev: &mut Device,
        a: &SolverArrays,
        patches: Option<&PatchPlan>,
    ) -> Result<Self, DeviceError> {
        Ok(Topology {
            z: dev.try_alloc_from(&a.z)?,
            parent_pos: dev.try_alloc_from(&a.parent_pos)?,
            child_lo: dev.try_alloc_from(&a.child_lo)?,
            child_hi: dev.try_alloc_from(&a.child_hi)?,
            base_s: dev.try_alloc_from(&a.s)?,
            dfs_pos: match patches {
                Some(plan) => Some(dev.try_alloc_from(&plan.dfs_pos)?),
                None => None,
            },
        })
    }

    /// Reads every static buffer back and compares against the host
    /// truth (the audit's first line of defence).
    fn verify(
        &self,
        dev: &mut Device,
        a: &SolverArrays,
        patches: Option<&PatchPlan>,
    ) -> Result<bool, DeviceError> {
        Ok(dev.try_dtoh(&self.z)? == a.z
            && dev.try_dtoh(&self.parent_pos)? == a.parent_pos
            && dev.try_dtoh(&self.child_lo)? == a.child_lo
            && dev.try_dtoh(&self.child_hi)? == a.child_hi
            && dev.try_dtoh(&self.base_s)? == a.s
            && match (&self.dfs_pos, patches) {
                (Some(buf), Some(plan)) => dev.try_dtoh(buf)? == plan.dfs_pos,
                _ => true,
            })
    }
}

/// Position-space loads of one scenario (the serial repair operand).
fn repair_arrays(
    a: &SolverArrays,
    loads: &Loads<'_>,
    patches: Option<&PatchPlan>,
    s: usize,
) -> SolverArrays {
    let mut a2 = a.clone();
    match loads {
        Loads::Explicit(sc) => {
            for (p, slot) in a2.s.iter_mut().enumerate() {
                *slot = sc[s][a.levels.order[p] as usize];
            }
        }
        Loads::Scaled(scales) => {
            for slot in a2.s.iter_mut() {
                *slot = *slot * scales[s];
            }
        }
    }
    if let Some(plan) = patches {
        // An outage leaves the branch as an open switch: the subtree's
        // loads go to zero (so its currents vanish) and its buses are
        // masked on the way out; the serial sweep needs no other change.
        for &bus in &plan.isolated[s] {
            a2.s[a.levels.pos_of[bus as usize] as usize] = Complex::ZERO;
        }
        if plan.z_pos[s] != u32::MAX {
            a2.z[plan.z_pos[s] as usize] = plan.z_val[s];
        }
    }
    a2
}

/// Serial solve of one (possibly patched, possibly warm-started)
/// scenario — the host oracle for repairs and the degraded path.
fn repair_solve(
    serial: &SerialSolver,
    a: &SolverArrays,
    loads: &Loads<'_>,
    patches: Option<&PatchPlan>,
    warm: Option<&[Vec<Complex>]>,
    s: usize,
    cfg: &SolverConfig,
) -> crate::report::SolveResult {
    let arrays = repair_arrays(a, loads, patches, s);
    let shared = patches.and_then(|plan| plan.warm.as_deref());
    let warm = warm.map(|w| w[s].as_slice()).or(shared);
    serial.solve_warm(&arrays, cfg, warm)
}

/// Scenario-load device views for the fused kernels.
enum LoadsRef<'a> {
    Explicit(GlobalRef<'a, Complex>),
    Scaled { base: GlobalRef<'a, Complex>, scales: GlobalRef<'a, f64> },
}

/// Runs one chunk of scenarios to completion on the device, including the
/// armed-plan audit, writing results into `out`.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    dev: &mut Device,
    memo: &mut SweepMemo,
    a: &SolverArrays,
    topo: &Topology,
    loads: &Loads<'_>,
    patches: Option<&PatchPlan>,
    warm: Option<&[Vec<Complex>]>,
    range: std::ops::Range<usize>,
    cfg: &SolverConfig,
    armed: bool,
    obs: &Obs,
    phases: &mut PhaseTimes,
    transfer_us: &mut f64,
    transfer_sweep_us: &mut f64,
    out: &mut Outcome,
) -> Result<(), DeviceError> {
    let n = a.len();
    let nb = range.len();
    let v0 = a.source;
    let level_offsets: Vec<u32> = a.levels.level_offsets.clone();

    // ---- Per-chunk state (setup).
    let mark = dev.timeline().mark();
    let mut s_slab: Option<DeviceBuffer<Complex>> = None;
    let mut scale_buf: Option<DeviceBuffer<f64>> = None;
    let mut s_host: Vec<Complex> = Vec::new();
    match loads {
        Loads::Explicit(scenarios) => {
            s_host = vec![Complex::ZERO; nb * n];
            for ls in 0..nb {
                let sc = &scenarios[range.start + ls];
                for p in 0..n {
                    s_host[ls * n + p] = sc[a.levels.order[p] as usize];
                }
            }
            s_slab = Some(dev.try_alloc_from(&s_host)?);
        }
        Loads::Scaled(scales) => {
            scale_buf = Some(dev.try_alloc_from(&scales[range.clone()])?);
        }
    }
    // Patched chunks: a few words per scenario describe the cut range
    // and the impedance override, plus one `min |V|` slot per scenario.
    let chunk_patch = match patches {
        Some(plan) => Some(ChunkPatch {
            cut_pos: dev.try_alloc_from(&plan.cut_pos[range.clone()])?,
            cut_lo: dev.try_alloc_from(&plan.cut_lo[range.clone()])?,
            cut_hi: dev.try_alloc_from(&plan.cut_hi[range.clone()])?,
            z_pos: dev.try_alloc_from(&plan.z_pos[range.clone()])?,
            z_val: dev.try_alloc_from(&plan.z_val[range.clone()])?,
        }),
        None => None,
    };
    let mut minv_buf = match patches {
        Some(_) => {
            let mut buf = dev.try_alloc::<f64>(nb)?;
            try_fill(dev, &mut buf, f64::INFINITY)?;
            Some(buf)
        }
        None => None,
    };
    let mut v_buf = match warm {
        Some(profiles) => {
            // Per-scenario warm start: the chunk's profiles are already
            // the exact initial state, so upload them straight into the
            // striped iterate — no replication kernel needed.
            let mut flat = Vec::with_capacity(nb * n);
            for s in range.clone() {
                flat.extend_from_slice(&a.levels.permute(&profiles[s]));
            }
            dev.try_alloc_from(&flat)?
        }
        None => {
            let mut v_buf = dev.try_alloc::<Complex>(nb * n)?;
            match patches.and_then(|plan| plan.warm.as_ref()) {
                Some(shared) => {
                    // Shared warm start: replicate the permuted base-case
                    // profile into every scenario stripe device-side (one
                    // `n`-word upload).
                    let warm_buf = dev.try_alloc_from(&a.levels.permute(shared))?;
                    let kernel =
                        WarmInitKernel { warm: warm_buf.view(), v: v_buf.view_mut(), n };
                    dev.try_launch(LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK), &kernel)?;
                }
                None => try_fill(dev, &mut v_buf, v0)?,
            }
            v_buf
        }
    };
    let mut j_buf = dev.try_alloc::<Complex>(nb * n)?;
    let mut mask_buf = dev.try_alloc_from(&vec![1u32; nb])?;
    let mut res_buf = dev.try_alloc::<f64>(nb)?;
    try_fill(dev, &mut res_buf, 0.0)?;
    let b = dev.timeline().breakdown_since(mark);
    phases.setup_us += b.total_us();
    *transfer_us += b.htod_us + b.dtoh_us;

    // ---- Per-scenario monitors and masks.
    let mut monitors: Vec<ConvergenceMonitor> =
        (0..nb).map(|_| ConvergenceMonitor::new(cfg, v0.abs())).collect();
    let tol = monitors[0].tol();
    let mut mask_host = vec![1u32; nb];
    let mut active = nb;
    let mut frozen_status: Vec<Option<SolveStatus>> = vec![None; nb];
    let mut last_residual = vec![f64::INFINITY; nb];
    let mut iters_done = vec![0u32; nb];
    // The sweep packs SCENARIOS_PER_BLOCK scenarios per block to amortise
    // topology reads; the audit maps one block per scenario.
    let grid_sweep =
        LaunchConfig::grid2d(1, nb.div_ceil(SCENARIOS_PER_BLOCK) as u32, TENSOR_BLOCK);
    let grid_audit = LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK);
    let memo = memo.start(nb, armed);

    let mut iteration = 0u32;
    while active > 0 && iteration < cfg.max_iter {
        iteration += 1;
        let iter_t0 = phases.total_us();

        // One fused sweep launch per iteration: backward, forward, and
        // the in-block residual fold. The launch cannot be split into
        // per-half timings, so its whole modeled time is charged to
        // `backward_us` (`forward_us` stays 0 in the tensor engine, like
        // `injection_us` — both are fused into the same kernel).
        let mark = dev.timeline().mark();
        {
            let kernel = SweepKernel {
                loads: loads_ref(&s_slab, &scale_buf, topo),
                v: v_buf.view_mut(),
                j: j_buf.view_mut(),
                z: topo.z.view(),
                parent_pos: topo.parent_pos.view(),
                child_lo: topo.child_lo.view(),
                child_hi: topo.child_hi.view(),
                mask: mask_buf.view(),
                residuals: res_buf.view_mut(),
                patch: patch_ref(topo, &chunk_patch),
                min_v: minv_buf.as_mut().map(|b| b.view_mut()),
                level_offsets: &level_offsets,
                n,
                nb,
                memo,
            };
            dev.try_launch(grid_sweep, &kernel)?;
        }
        phases.backward_us += dev.timeline().breakdown_since(mark).total_us();
        obs.phase("sweep", iter_t0, phases.total_us());

        // Per-scenario convergence triage on the host.
        let conv_t0 = phases.total_us();
        let mark = dev.timeline().mark();
        let residuals = dev.try_dtoh_checked(&res_buf)?;
        let mut any_froze = false;
        let mut worst_active = 0.0f64;
        for ls in 0..nb {
            if mask_host[ls] == 0 {
                continue;
            }
            let r = residuals[ls];
            last_residual[ls] = r;
            iters_done[ls] = iteration;
            worst_active = MaxAbsF64::combine(worst_active, r);
            if let Some(status) = monitors[ls].observe(iteration, r) {
                frozen_status[ls] = Some(status);
                mask_host[ls] = 0;
                active -= 1;
                any_froze = true;
            }
        }
        if any_froze && active > 0 {
            dev.try_htod_checked(&mut mask_buf, &mask_host)?;
        }
        let b = dev.timeline().breakdown_since(mark);
        phases.convergence_us += b.total_us();
        *transfer_us += b.htod_us + b.dtoh_us;
        *transfer_sweep_us += b.htod_us + b.dtoh_us;
        obs.phase("convergence", conv_t0, phases.total_us());
        obs.iteration(iteration, iter_t0, phases.total_us(), worst_active);

        // Modeled deadline covers the scenarios still running.
        if let Some(budget) = cfg.deadline_us {
            let elapsed = phases.total_us();
            if elapsed >= budget && active > 0 {
                for ls in 0..nb {
                    if mask_host[ls] == 1 {
                        mask_host[ls] = 0;
                        frozen_status[ls] = Some(SolveStatus::DeadlineExceeded {
                            at_iteration: iteration,
                            elapsed_us: elapsed as u64,
                        });
                    }
                }
                active = 0;
            }
        }
    }

    // ---- Audit (armed plans only): static readback compare + one
    // no-commit iteration, per-scenario ∞-norm via the batched reduce.
    let mut suspicious = vec![false; nb];
    if armed {
        let audit_t0 = phases.total_us();
        let mark = dev.timeline().mark();
        let statics_ok = topo.verify(dev, a, patches)?
            && match (&s_slab, &scale_buf, loads) {
                (Some(buf), _, _) => dev.try_dtoh(buf)? == s_host,
                (_, Some(buf), Loads::Scaled(scales)) => {
                    dev.try_dtoh(buf)? == scales[range.clone()]
                }
                _ => true,
            }
            && match (&chunk_patch, patches) {
                (Some(cp), Some(plan)) => {
                    dev.try_dtoh(&cp.cut_pos)? == plan.cut_pos[range.clone()]
                        && dev.try_dtoh(&cp.cut_lo)? == plan.cut_lo[range.clone()]
                        && dev.try_dtoh(&cp.cut_hi)? == plan.cut_hi[range.clone()]
                        && dev.try_dtoh(&cp.z_pos)? == plan.z_pos[range.clone()]
                        && dev.try_dtoh(&cp.z_val)? == plan.z_val[range.clone()]
                }
                _ => true,
            };
        if !statics_ok {
            suspicious.iter_mut().for_each(|f| *f = true);
        } else {
            let mut j_audit = dev.try_alloc::<Complex>(nb * n)?;
            let mut v_audit = dev.try_alloc::<Complex>(nb * n)?;
            let mut delta = dev.try_alloc::<f64>(nb * n)?;
            {
                let kernel = AuditKernel {
                    loads: loads_ref(&s_slab, &scale_buf, topo),
                    v: v_buf.view(),
                    j: j_buf.view(),
                    j_audit: j_audit.view_mut(),
                    v_audit: v_audit.view_mut(),
                    delta: delta.view_mut(),
                    z: topo.z.view(),
                    parent_pos: topo.parent_pos.view(),
                    child_lo: topo.child_lo.view(),
                    child_hi: topo.child_hi.view(),
                    patch: patch_ref(topo, &chunk_patch),
                    level_offsets: &level_offsets,
                    n,
                };
                dev.try_launch(grid_audit, &kernel)?;
            }
            let audit_res = try_reduce_batched::<f64, MaxAbsF64>(dev, &delta, nb)?;
            for ls in 0..nb {
                let status = frozen_status[ls].unwrap_or(SolveStatus::MaxIterations);
                let clean = status.is_converged() && audit_res[ls] <= tol;
                // A converged scenario failing its audit, or any flagged
                // failure under an armed plan, goes to the host oracle.
                suspicious[ls] = !clean;
            }
        }
        let b = dev.timeline().breakdown_since(mark);
        phases.convergence_us += b.total_us();
        *transfer_us += b.htod_us + b.dtoh_us;
        obs.phase("audit", audit_t0, phases.total_us());
    }

    // ---- Teardown: state download and unbatching.
    let keep = out.keep_state;
    let (v_host, j_host) = if keep {
        let mark = dev.timeline().mark();
        let v = dev.try_dtoh_checked(&v_buf)?;
        let j = dev.try_dtoh_checked(&j_buf)?;
        let b = dev.timeline().breakdown_since(mark);
        phases.teardown_us += b.total_us();
        *transfer_us += b.htod_us + b.dtoh_us;
        (v, j)
    } else {
        (Vec::new(), Vec::new())
    };

    let minv_host = match &minv_buf {
        Some(buf) => {
            let mark = dev.timeline().mark();
            let m = dev.try_dtoh_checked(buf)?;
            let b = dev.timeline().breakdown_since(mark);
            phases.teardown_us += b.total_us();
            *transfer_us += b.htod_us + b.dtoh_us;
            m
        }
        None => Vec::new(),
    };

    let serial = SerialSolver::new(HostProps::paper_rig());
    for ls in 0..nb {
        let s = range.start + ls;
        if armed && suspicious[ls] {
            let res = repair_solve(&serial, a, loads, patches, warm, s, cfg);
            out.absorb_serial(s, res, true, patches);
            continue;
        }
        out.per_scenario_iterations[s] = iters_done[ls];
        out.statuses[s] = frozen_status[ls].unwrap_or(SolveStatus::MaxIterations);
        out.residuals[s] = last_residual[ls];
        if let Some(plan) = patches {
            out.min_v[s] = minv_host[ls];
            if keep {
                let mut v = unpermute(a, &v_host[ls * n..(ls + 1) * n]);
                let mut j = unpermute(a, &j_host[ls * n..(ls + 1) * n]);
                // De-energized buses report dead, not their stale
                // initial values.
                for &bus in &plan.isolated[s] {
                    v[bus as usize] = Complex::ZERO;
                    j[bus as usize] = Complex::ZERO;
                }
                out.v[s] = v;
                out.j[s] = j;
            }
        } else if keep {
            out.v[s] = unpermute(a, &v_host[ls * n..(ls + 1) * n]);
            out.j[s] = unpermute(a, &j_host[ls * n..(ls + 1) * n]);
        }
    }
    phases.teardown_us += out.repair_us;
    out.repair_us = 0.0;
    Ok(())
}

fn loads_ref<'a>(
    s_slab: &'a Option<DeviceBuffer<Complex>>,
    scale_buf: &'a Option<DeviceBuffer<f64>>,
    topo: &'a Topology,
) -> LoadsRef<'a> {
    match (s_slab, scale_buf) {
        (Some(s), _) => LoadsRef::Explicit(s.view()),
        (_, Some(sc)) => LoadsRef::Scaled { base: topo.base_s.view(), scales: sc.view() },
        _ => unreachable!("one load source is always present"),
    }
}

/// Per-chunk patch buffers (one word each per scenario, local index).
struct ChunkPatch {
    cut_pos: DeviceBuffer<u32>,
    cut_lo: DeviceBuffer<u32>,
    cut_hi: DeviceBuffer<u32>,
    z_pos: DeviceBuffer<u32>,
    z_val: DeviceBuffer<Complex>,
}

/// Device views of the patch state for the fused kernels.
struct PatchRefs<'a> {
    dfs_pos: GlobalRef<'a, u32>,
    cut_pos: GlobalRef<'a, u32>,
    cut_lo: GlobalRef<'a, u32>,
    cut_hi: GlobalRef<'a, u32>,
    z_pos: GlobalRef<'a, u32>,
    z_val: GlobalRef<'a, Complex>,
}

fn patch_ref<'a>(topo: &'a Topology, chunk: &'a Option<ChunkPatch>) -> Option<PatchRefs<'a>> {
    chunk.as_ref().map(|cp| PatchRefs {
        dfs_pos: topo.dfs_pos.as_ref().expect("patched topology has dfs_pos").view(),
        cut_pos: cp.cut_pos.view(),
        cut_lo: cp.cut_lo.view(),
        cut_hi: cp.cut_hi.view(),
        z_pos: cp.z_pos.view(),
        z_val: cp.z_val.view(),
    })
}

/// Per-scenario outcome of one [`TensorOuterSession::solve_round`].
pub struct OuterRound {
    /// Inner solve status per scenario (retired scenarios keep the
    /// status of their last live round).
    pub statuses: Vec<SolveStatus>,
    /// Inner iterations this round (0 for retired scenarios).
    pub iterations: Vec<u32>,
    /// Probe-bus voltages per scenario, in the order the probes were
    /// registered. Retired scenarios report their final state.
    pub probe_v: Vec<Vec<Complex>>,
}

/// Final report of a [`TensorOuterSession`].
pub struct SessionReport {
    /// Final voltages by bus id, per scenario.
    pub v: Vec<Vec<Complex>>,
    /// Total modeled time across every round, µs.
    pub total_us: f64,
    /// Transient-fault retries absorbed.
    pub retries: u32,
    /// Whether the session finished on the serial fallback.
    pub degraded: bool,
}

/// Device half of a resident outer-loop session (see
/// [`TensorBatchSolver::outer_session`]).
struct SessionBuffers {
    topo: Topology,
    /// Per-scenario loads, position space, `nb·n`.
    s_slab: DeviceBuffer<Complex>,
    /// Voltage iterate, kept across rounds (`nb·n`).
    v: DeviceBuffer<Complex>,
    j: DeviceBuffer<Complex>,
    res: DeviceBuffer<f64>,
    mask: DeviceBuffer<u32>,
    /// Probe positions (level space) and the gathered output slab.
    probe_pos: DeviceBuffer<u32>,
    probe_out: DeviceBuffer<Complex>,
}

/// Resident-state outer-loop session: one scenario batch held on the
/// device across outer rounds, with sparse load updates and probe-bus
/// readback between rounds.
pub struct TensorOuterSession<'s> {
    solver: &'s mut TensorBatchSolver,
    a: &'s SolverArrays,
    n: usize,
    nb: usize,
    /// Probe level positions (host copy; re-uploaded on rebuild).
    probe_pos: Vec<u32>,
    /// Host mirror of every scenario's loads, by bus id — the rebuild
    /// and fallback source of truth.
    loads: Vec<Vec<Complex>>,
    /// Optional shared warm-start profile, by bus id. Seeds the first
    /// round (and every post-fault rebuild) in place of a flat start.
    warm: Option<Vec<Complex>>,
    /// Scenarios excluded from further rounds (outer loop settled).
    retired: Vec<bool>,
    /// Last inner status per scenario.
    statuses: Vec<SolveStatus>,
    /// Host-resident voltages, populated on the fallback path.
    host_v: Vec<Option<Vec<Complex>>>,
    dev_state: Option<SessionBuffers>,
    degraded: bool,
    max_recoveries: u32,
    retries: u32,
    total_us: f64,
}

impl TensorOuterSession<'_> {
    /// (Re)builds the device state from the host mirrors. The voltage
    /// iterate restarts cold — the next round pays extra iterations,
    /// nothing else. Leaves `dev_state` as `None` on failure.
    fn try_build(&mut self) {
        self.dev_state = None;
        if self.degraded || self.solver.device.is_lost() {
            return;
        }
        // The scenario loads are usually a sparse perturbation of the
        // base case (DG corrections at a handful of buses), so the slab
        // ships as one `n`-word base vector replicated device-side plus
        // a scatter of the per-scenario deviations — not `B·n` words.
        let base_by_bus = unpermute(self.a, &self.a.s);
        let mut dev_s = Vec::new();
        let mut dev_pos = Vec::new();
        let mut dev_vals = Vec::new();
        for (s, sc) in self.loads.iter().enumerate() {
            for (bus, (&have, &want)) in base_by_bus.iter().zip(sc).enumerate() {
                if have != want {
                    dev_s.push(s as u32);
                    dev_pos.push(self.a.levels.pos_of[bus]);
                    dev_vals.push(want);
                }
            }
        }
        let dev = &mut self.solver.device;
        let mark = dev.timeline().mark();
        let built = catch_unwind(AssertUnwindSafe(|| -> Result<SessionBuffers, DeviceError> {
            let topo = Topology::upload(dev, self.a, None)?;
            let base_buf = dev.try_alloc_from(&self.a.s)?;
            let mut s_slab = dev.try_alloc::<Complex>(self.nb * self.n)?;
            {
                let kernel = WarmInitKernel {
                    warm: base_buf.view(),
                    v: s_slab.view_mut(),
                    n: self.n,
                };
                dev.try_launch(LaunchConfig::grid2d(1, self.nb as u32, TENSOR_BLOCK), &kernel)?;
            }
            if !dev_s.is_empty() {
                let s_buf = dev.try_alloc_from(&dev_s)?;
                let p_buf = dev.try_alloc_from(&dev_pos)?;
                let v_buf = dev.try_alloc_from(&dev_vals)?;
                let kernel = ScatterKernel {
                    s_idx: s_buf.view(),
                    pos: p_buf.view(),
                    vals: v_buf.view(),
                    dst: s_slab.view_mut(),
                    k: dev_s.len(),
                    n: self.n,
                };
                dev.try_launch(LaunchConfig::grid2d(1, 1, TENSOR_BLOCK), &kernel)?;
            }
            let mut v = dev.try_alloc::<Complex>(self.nb * self.n)?;
            match &self.warm {
                Some(profile) => {
                    // One `n`-word upload, replicated device-side into
                    // every scenario stripe.
                    let warm_buf = dev.try_alloc_from(&self.a.levels.permute(profile))?;
                    let kernel = WarmInitKernel {
                        warm: warm_buf.view(),
                        v: v.view_mut(),
                        n: self.n,
                    };
                    dev.try_launch(
                        LaunchConfig::grid2d(1, self.nb as u32, TENSOR_BLOCK),
                        &kernel,
                    )?;
                }
                None => try_fill(dev, &mut v, self.a.source)?,
            }
            let j = dev.try_alloc::<Complex>(self.nb * self.n)?;
            let mut res = dev.try_alloc::<f64>(self.nb)?;
            try_fill(dev, &mut res, 0.0)?;
            let mask = dev.try_alloc_from(&vec![1u32; self.nb])?;
            let probe_pos = dev.try_alloc_from(&self.probe_pos)?;
            let probe_out =
                dev.try_alloc::<Complex>(self.nb * self.probe_pos.len().max(1))?;
            Ok(SessionBuffers { topo, s_slab, v, j, res, mask, probe_pos, probe_out })
        }));
        self.total_us += dev.timeline().breakdown_since(mark).total_us();
        if let Ok(Ok(bufs)) = built {
            self.dev_state = Some(bufs);
        }
    }

    /// Applies sparse load updates `(scenario, bus, new load)`. The
    /// host mirror is always updated; the resident slab gets a scatter
    /// of just these entries.
    pub fn update_loads(&mut self, updates: &[(usize, usize, Complex)]) {
        for &(s, bus, val) in updates {
            assert!(s < self.nb, "scenario {s} of {}", self.nb);
            assert!(bus < self.n, "bus {bus} of {}", self.n);
            self.loads[s][bus] = val;
        }
        if updates.is_empty() || self.dev_state.is_none() {
            return;
        }
        let s_idx: Vec<u32> = updates.iter().map(|&(s, _, _)| s as u32).collect();
        let pos: Vec<u32> =
            updates.iter().map(|&(_, b, _)| self.a.levels.pos_of[b]).collect();
        let vals: Vec<Complex> = updates.iter().map(|&(_, _, v)| v).collect();
        let bufs = self.dev_state.as_mut().expect("checked above");
        let dev = &mut self.solver.device;
        let mark = dev.timeline().mark();
        let applied = catch_unwind(AssertUnwindSafe(|| -> Result<(), DeviceError> {
            let s_buf = dev.try_alloc_from(&s_idx)?;
            let p_buf = dev.try_alloc_from(&pos)?;
            let v_buf = dev.try_alloc_from(&vals)?;
            let kernel = ScatterKernel {
                s_idx: s_buf.view(),
                pos: p_buf.view(),
                vals: v_buf.view(),
                dst: bufs.s_slab.view_mut(),
                k: updates.len(),
                n: self.n,
            };
            dev.try_launch(LaunchConfig::grid2d(1, 1, TENSOR_BLOCK), &kernel)
        }));
        self.total_us += dev.timeline().breakdown_since(mark).total_us();
        if !matches!(applied, Ok(Ok(()))) {
            // The mirror is authoritative; a rebuild re-ships it whole.
            self.absorb_fault();
        }
    }

    /// Counts a device fault against the retry budget: rebuild while
    /// budget remains, degrade to the serial fallback after.
    fn absorb_fault(&mut self) {
        if self.retries < self.max_recoveries && !self.solver.device.is_lost() {
            self.retries += 1;
            self.try_build();
            if self.dev_state.is_some() {
                return;
            }
        }
        self.degraded = true;
        self.dev_state = None;
    }

    /// Excludes a scenario from further rounds; its resident state (and
    /// final voltages) stay exactly as its last live round left them.
    pub fn retire(&mut self, s: usize) {
        assert!(s < self.nb, "scenario {s} of {}", self.nb);
        self.retired[s] = true;
    }

    /// One batched inner solve over every live scenario, re-iterating
    /// from the resident voltages. Falls back to per-scenario serial
    /// solves (warm off the host mirror) when the device is out.
    pub fn solve_round(&mut self, cfg: &SolverConfig) -> OuterRound {
        loop {
            if self.degraded || self.dev_state.is_none() {
                return self.host_round(cfg);
            }
            let round = catch_unwind(AssertUnwindSafe(|| self.device_round_raw(cfg)));
            match round {
                Ok(Ok(r)) => return r,
                _ => self.absorb_fault(),
            }
        }
    }

    /// Device path of one round. Any `Err` or panic is a device fault
    /// handled by the caller.
    fn device_round_raw(&mut self, cfg: &SolverConfig) -> Result<OuterRound, DeviceError> {
        let (n, nb) = (self.n, self.nb);
        let np = self.probe_pos.len();
        let bufs = self.dev_state.as_mut().expect("device path has state");
        let dev = &mut self.solver.device;
        let mark = dev.timeline().mark();

        let mut mask_host: Vec<u32> =
            self.retired.iter().map(|&r| if r { 0 } else { 1 }).collect();
        let mut active = mask_host.iter().filter(|&&m| m == 1).count();
        dev.try_htod_checked(&mut bufs.mask, &mask_host)?;

        let mut monitors: Vec<ConvergenceMonitor> =
            (0..nb).map(|_| ConvergenceMonitor::new(cfg, self.a.source.abs())).collect();
        let mut iters_done = vec![0u32; nb];
        let mut frozen: Vec<Option<SolveStatus>> = vec![None; nb];
        let grid_sweep =
            LaunchConfig::grid2d(1, nb.div_ceil(SCENARIOS_PER_BLOCK) as u32, TENSOR_BLOCK);
        let level_offsets: Vec<u32> = self.a.levels.level_offsets.clone();
        let memo = self.solver.sweep_memo.start(nb, dev.fault_plan().is_some());

        let mut iteration = 0u32;
        while active > 0 && iteration < cfg.max_iter {
            iteration += 1;
            {
                let kernel = SweepKernel {
                    loads: LoadsRef::Explicit(bufs.s_slab.view()),
                    v: bufs.v.view_mut(),
                    j: bufs.j.view_mut(),
                    z: bufs.topo.z.view(),
                    parent_pos: bufs.topo.parent_pos.view(),
                    child_lo: bufs.topo.child_lo.view(),
                    child_hi: bufs.topo.child_hi.view(),
                    mask: bufs.mask.view(),
                    residuals: bufs.res.view_mut(),
                    patch: None,
                    min_v: None,
                    level_offsets: &level_offsets,
                    n,
                    nb,
                    memo,
                };
                dev.try_launch(grid_sweep, &kernel)?;
            }
            let residuals = dev.try_dtoh_checked(&bufs.res)?;
            let mut any_froze = false;
            for ls in 0..nb {
                if mask_host[ls] == 0 {
                    continue;
                }
                iters_done[ls] = iteration;
                if let Some(status) = monitors[ls].observe(iteration, residuals[ls]) {
                    frozen[ls] = Some(status);
                    mask_host[ls] = 0;
                    active -= 1;
                    any_froze = true;
                }
            }
            if any_froze && active > 0 {
                dev.try_htod_checked(&mut bufs.mask, &mask_host)?;
            }
        }

        // Probe readback: `nb·np` words instead of the full slabs.
        let mut probe_v = vec![Vec::new(); nb];
        if np > 0 {
            {
                let kernel = GatherKernel {
                    src: bufs.v.view(),
                    slots: bufs.probe_pos.view(),
                    out: bufs.probe_out.view_mut(),
                    np,
                    n,
                };
                dev.try_launch(LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK), &kernel)?;
            }
            let gathered = dev.try_dtoh_checked(&bufs.probe_out)?;
            for (s, slot) in probe_v.iter_mut().enumerate() {
                *slot = gathered[s * np..s * np + np].to_vec();
            }
        }

        self.total_us += dev.timeline().breakdown_since(mark).total_us();
        let mut iterations = vec![0u32; nb];
        for s in 0..nb {
            if self.retired[s] {
                continue;
            }
            self.statuses[s] = frozen[s].unwrap_or(SolveStatus::MaxIterations);
            iterations[s] = iters_done[s];
        }
        Ok(OuterRound { statuses: self.statuses.clone(), iterations, probe_v })
    }

    /// Serial fallback round: each live scenario re-solves on the host,
    /// warm off its previous fallback profile when one exists.
    fn host_round(&mut self, cfg: &SolverConfig) -> OuterRound {
        let serial = SerialSolver::new(HostProps::paper_rig());
        let np = self.probe_pos.len();
        let mut iterations = vec![0u32; self.nb];
        let mut probe_v = vec![Vec::new(); self.nb];
        for s in 0..self.nb {
            if self.retired[s] {
                if let Some(v) = &self.host_v[s] {
                    probe_v[s] = self.probes_of(v, np);
                }
                continue;
            }
            let res = self.host_solve(&serial, s, cfg);
            iterations[s] = res.iterations;
            self.statuses[s] = res.status;
            probe_v[s] = self.probes_of(&res.v, np);
            self.total_us += res.timing.total_us();
            self.host_v[s] = Some(res.v);
        }
        OuterRound { statuses: self.statuses.clone(), iterations, probe_v }
    }

    /// One host solve of scenario `s` from the load mirror.
    fn host_solve(
        &self,
        serial: &SerialSolver,
        s: usize,
        cfg: &SolverConfig,
    ) -> crate::report::SolveResult {
        let mut a2 = self.a.clone();
        for (p, slot) in a2.s.iter_mut().enumerate() {
            *slot = self.loads[s][self.a.levels.order[p] as usize];
        }
        serial.solve_warm(&a2, cfg, self.host_v[s].as_deref().or(self.warm.as_deref()))
    }

    fn probes_of(&self, v: &[Complex], np: usize) -> Vec<Complex> {
        (0..np)
            .map(|k| v[self.a.levels.order[self.probe_pos[k] as usize] as usize])
            .collect()
    }

    /// Downloads every scenario's final voltages and closes the
    /// session.
    pub fn finish(mut self, cfg: &SolverConfig) -> SessionReport {
        let v = loop {
            if self.degraded || self.dev_state.is_none() {
                // Fallback: scenarios the serial path never touched
                // re-solve cold off the load mirror — same fixed point.
                let serial = SerialSolver::new(HostProps::paper_rig());
                let mut all = Vec::with_capacity(self.nb);
                for s in 0..self.nb {
                    match self.host_v[s].take() {
                        Some(v) => all.push(v),
                        None => {
                            let res = self.host_solve(&serial, s, cfg);
                            self.total_us += res.timing.total_us();
                            all.push(res.v);
                        }
                    }
                }
                break all;
            }
            let bufs = self.dev_state.as_ref().expect("device path has state");
            let dev = &mut self.solver.device;
            let mark = dev.timeline().mark();
            let slab = catch_unwind(AssertUnwindSafe(|| dev.try_dtoh_checked(&bufs.v)));
            self.total_us += dev.timeline().breakdown_since(mark).total_us();
            match slab {
                Ok(Ok(flat)) => {
                    break (0..self.nb)
                        .map(|s| unpermute(self.a, &flat[s * self.n..(s + 1) * self.n]))
                        .collect();
                }
                // A rebuild restarts the iterate cold, so the resident
                // voltages are gone: re-deriving them means re-solving,
                // which is exactly the fallback path.
                _ => {
                    self.degraded = true;
                    self.dev_state = None;
                }
            }
        };
        SessionReport {
            v,
            total_us: self.total_us,
            retries: self.retries,
            degraded: self.degraded,
        }
    }
}

/// Scatters sparse load updates into the resident slab:
/// `dst[s_idx[k]·n + pos[k]] = vals[k]`.
struct ScatterKernel<'a> {
    s_idx: GlobalRef<'a, u32>,
    pos: GlobalRef<'a, u32>,
    vals: GlobalRef<'a, Complex>,
    dst: GlobalMut<'a, Complex>,
    k: usize,
    n: usize,
}

impl Kernel for ScatterKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_scatter_loads"
    }

    fn block(&self, blk: &mut BlockScope) {
        let bdim = blk.block_dim();
        blk.threads(|t| {
            let mut i = t.tid();
            while i < self.k {
                let s = t.ld(&self.s_idx, i) as usize;
                let p = t.ld(&self.pos, i) as usize;
                let v = t.ld(&self.vals, i);
                t.st(&self.dst, s * self.n + p, v);
                i += bdim;
            }
        });
    }
}

/// Gathers probe positions out of a striped slab:
/// `out[s·np + k] = src[s·n + slots[k]]`. One block per scenario.
struct GatherKernel<'a> {
    src: GlobalRef<'a, Complex>,
    slots: GlobalRef<'a, u32>,
    out: GlobalMut<'a, Complex>,
    np: usize,
    n: usize,
}

impl Kernel for GatherKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_gather_probes"
    }

    fn block(&self, blk: &mut BlockScope) {
        let s = blk.block_idx_y();
        let bdim = blk.block_dim();
        blk.threads(|t| {
            let mut k = t.tid();
            while k < self.np {
                let p = t.ld(&self.slots, k) as usize;
                let v = t.ld(&self.src, s * self.n + p);
                t.st(&self.out, s * self.np + k, v);
                k += bdim;
            }
        });
    }
}

/// One scenario resident in a sweep block: its chunk-local index, load
/// scale, and patch words (`u32::MAX` sentinels when unpatched, which
/// never match a real position or DFS range).
#[derive(Clone, Copy)]
struct Member {
    s_idx: usize,
    scale: f64,
    cut_pos: u32,
    cut_lo: u32,
    cut_hi: u32,
    z_pos: u32,
    z_val: Complex,
}

/// Replicates the warm-start profile (position space, length `n`) into
/// every scenario stripe: `v[s·n + p] = warm[p]`. One block per
/// scenario, threads strided over positions.
struct WarmInitKernel<'a> {
    warm: GlobalRef<'a, Complex>,
    v: GlobalMut<'a, Complex>,
    n: usize,
}

impl Kernel for WarmInitKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_warm_init"
    }

    fn block(&self, blk: &mut BlockScope) {
        let base = blk.block_idx_y() * self.n;
        let bdim = blk.block_dim();
        blk.threads(|t| {
            let mut k = t.tid();
            while k < self.n {
                let w = t.ld(&self.warm, k);
                t.st(&self.v, base + k, w);
                k += bdim;
            }
        });
    }
}

fn unpermute(a: &SolverArrays, pos: &[Complex]) -> Vec<Complex> {
    let mut by_bus = vec![Complex::ZERO; pos.len()];
    for (p, &v) in pos.iter().enumerate() {
        by_bus[a.levels.order[p] as usize] = v;
    }
    by_bus
}

/// One fused FBS iteration per launch: the backward sweep (injection
/// inline, levels leaf→root) runs immediately into the forward ladder
/// sweep (levels root→leaf) as barrier phases of the *same* kernel, one
/// block per [`SCENARIOS_PER_BLOCK`] scenarios (`blockIdx.y`).
///
/// Fusing the two sweeps lets each thread keep the branch current and the
/// previous-iteration voltage of every node it owns in per-thread locals
/// between the halves — the sweep assignment is the same strided
/// `(level, tid + m·bdim)` pattern in both directions, so the forward
/// half re-reads neither slab from global memory. The locals model
/// registers (with spill to L1 local memory): `⌈n/bdim⌉ · 32 B` per
/// thread per resident scenario, ≈ 0.5 KB each on a 4K-node tree at 256
/// threads. Topology words (impedance, parent, child range, base load)
/// are read once per node and applied to every resident scenario. The
/// per-scenario ∞-norm residual accumulates in per-thread locals and
/// tree-folds through shared memory at the end, so it costs one `f64` of
/// global traffic per scenario.
struct SweepKernel<'a> {
    loads: LoadsRef<'a>,
    v: GlobalMut<'a, Complex>,
    j: GlobalMut<'a, Complex>,
    z: GlobalRef<'a, Complex>,
    parent_pos: GlobalRef<'a, u32>,
    child_lo: GlobalRef<'a, u32>,
    child_hi: GlobalRef<'a, u32>,
    mask: GlobalRef<'a, u32>,
    residuals: GlobalMut<'a, f64>,
    /// Patched solves: per-scenario cut ranges and impedance overrides.
    /// `None` keeps the unpatched path byte-identical (no extra reads,
    /// no extra flops).
    patch: Option<PatchRefs<'a>>,
    /// Patched solves: per-scenario `min |V|` over updated nodes,
    /// overwritten every iteration.
    min_v: Option<GlobalMut<'a, f64>>,
    level_offsets: &'a [u32],
    n: usize,
    /// Scenarios in the chunk (the last block may hold fewer than
    /// [`SCENARIOS_PER_BLOCK`]).
    nb: usize,
    /// Known block tallies to replay (`None` tallies every block).
    memo: Option<&'a SweepMemo>,
}

/// Tallies of [`SweepKernel`] blocks, recorded on the first launch that
/// runs a block with a given set of live members and replayed on every
/// later one (see the simt `scope` module's "Host cost" section).
///
/// The key is the block (`blockIdx.y`) and the bitmask of its live
/// members. Everything else a block's tally depends on — which loads are
/// zero, the patch words, the topology, the chunk geometry — must stay
/// fixed for the memo's lifetime, so a memo lives for one chunk of
/// [`run_chunk`] or one round of [`TensorOuterSession`] (whose
/// `update_loads` may zero a load between rounds), and is off whenever
/// the device has an armed fault plan, whose resident bit flips can
/// change what a block reads.
///
/// The solver keeps one and [`SweepMemo::start`]s it afresh for every
/// chunk or round, so its storage is allocated once per solver rather
/// than around every chunk.
#[derive(Default)]
struct SweepMemo {
    tallies: Vec<OnceLock<BlockTally>>,
}

impl SweepMemo {
    /// Forgets every entry and sizes the memo for a sweep over `nb`
    /// scenarios; `None` (no memo) when the device has an armed fault
    /// plan.
    fn start(&mut self, nb: usize, armed: bool) -> Option<&SweepMemo> {
        #[cfg(test)]
        if tests::SWEEP_MEMO_OFF.with(std::cell::Cell::get) {
            return None;
        }
        if armed {
            return None;
        }
        let keys = nb.div_ceil(SCENARIOS_PER_BLOCK) << SCENARIOS_PER_BLOCK;
        self.tallies.clear();
        self.tallies.resize_with(keys, OnceLock::new);
        Some(self)
    }
}

impl Kernel for SweepKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_sweep"
    }

    fn block(&self, blk: &mut BlockScope) {
        let group = blk.block_idx_y() * SCENARIOS_PER_BLOCK;
        let group_end = (group + SCENARIOS_PER_BLOCK).min(self.nb);

        // Active resident scenarios with their load scales and patch
        // words; frozen scenarios cost one 4-byte mask read each and
        // drop out.
        let mut members: Vec<Member> = Vec::new();
        blk.phase::<true, _>(1, |t| {
            for s_idx in group..group_end {
                if t.ld(&self.mask, s_idx) != 0 {
                    let scale = match &self.loads {
                        LoadsRef::Scaled { scales, .. } => t.ld(scales, s_idx),
                        LoadsRef::Explicit(_) => 0.0,
                    };
                    let mut mb = Member {
                        s_idx,
                        scale,
                        cut_pos: u32::MAX,
                        cut_lo: u32::MAX,
                        cut_hi: u32::MAX,
                        z_pos: u32::MAX,
                        z_val: Complex::ZERO,
                    };
                    if let Some(pr) = &self.patch {
                        mb.cut_pos = t.ld(&pr.cut_pos, s_idx);
                        mb.cut_lo = t.ld(&pr.cut_lo, s_idx);
                        mb.cut_hi = t.ld(&pr.cut_hi, s_idx);
                        mb.z_pos = t.ld(&pr.z_pos, s_idx);
                        mb.z_val = t.ld(&pr.z_val, s_idx);
                    }
                    members.push(mb);
                }
            }
        });
        if members.is_empty() {
            return;
        }
        // The members phase is always tallied: it is what decides the
        // key. Only the first launch with this set of live members pays
        // for the rest of the block's tally; later ones replay it.
        let Some(memo) = self.memo else {
            return self.sweep::<true>(blk, &members);
        };
        let live = members.iter().fold(0, |m, mb| m | 1 << (mb.s_idx - group));
        let key = blk.block_idx_y() << SCENARIOS_PER_BLOCK | live;
        match memo.tallies[key].get() {
            Some(tally) => {
                self.sweep::<false>(blk, &members);
                blk.replay(tally);
                #[cfg(test)]
                tests::SWEEP_MEMO_HITS.with(|h| h.set(h.get() + 1));
            }
            None => {
                let start = blk.tally_snapshot();
                self.sweep::<true>(blk, &members);
                let _ = memo.tallies[key].set(blk.tally_snapshot().since(&start));
            }
        }
    }
}

impl SweepKernel<'_> {
    /// Everything after the members phase: both sweep halves and the
    /// residual folds, tallied or (for a replayed block) not.
    fn sweep<const T: bool>(&self, blk: &mut BlockScope, members: &[Member]) {
        let bdim = blk.block_dim();
        let nm = members.len();

        // Per-thread local slots: thread `t` owns node `off + t + m·bdim`
        // of level `l` at slot `(slot_base[l] + m)·bdim + t`, one bank of
        // slots per resident scenario.
        let nl = self.level_offsets.len() - 1;
        let mut slot_base = vec![0usize; nl + 1];
        for l in 0..nl {
            let w = (self.level_offsets[l + 1] - self.level_offsets[l]) as usize;
            slot_base[l + 1] = slot_base[l] + w.div_ceil(bdim);
        }
        let bank = slot_base[nl] * bdim;
        let mut local_j = vec![Complex::ZERO; nm * bank];
        let mut local_v = vec![Complex::ZERO; nm * bank];

        // Backward half, leaf→root: injection fused in, children summed
        // over their contiguous level-order range. Each current is stored
        // to global (the parent phase and the audit read it there) and
        // kept in this thread's local slot for the forward half, along
        // with the pre-update voltage.
        for l in (0..nl).rev() {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            let sb = slot_base[l];
            blk.phase::<T, _>(w.min(bdim), |t| {
                let mut k = t.tid();
                let mut m = 0usize;
                while k < w {
                    let p = off + k;
                    // One topology read per node, shared by the members.
                    let base_sv = match &self.loads {
                        LoadsRef::Scaled { base: bs, .. } => Some(t.ld(bs, p)),
                        LoadsRef::Explicit(_) => None,
                    };
                    let lo = t.ld(&self.child_lo, p) as usize;
                    let hi = t.ld(&self.child_hi, p) as usize;
                    // Cut membership is two compares against the node's
                    // DFS position (one extra topology read, patched
                    // solves only).
                    let dp = match &self.patch {
                        Some(pr) => t.ld(&pr.dfs_pos, p),
                        None => 0,
                    };
                    let slot = (sb + m) * bdim + t.tid();
                    for (qi, mb) in members.iter().enumerate() {
                        if dp >= mb.cut_lo && dp < mb.cut_hi {
                            continue; // de-energized in this scenario
                        }
                        let base = mb.s_idx * self.n;
                        let g = base + p;
                        let sv = match (&self.loads, base_sv) {
                            (_, Some(b)) => {
                                t.flops(2);
                                b * mb.scale
                            }
                            (LoadsRef::Explicit(s), _) => t.ld(s, g),
                            _ => unreachable!("scaled loads stage base_sv"),
                        };
                        let vv = t.ld_mut(&self.v, g);
                        let mut acc = if sv == Complex::ZERO {
                            Complex::ZERO
                        } else {
                            t.flops(Complex::DIV_FLOPS + 1);
                            (sv / vv).conj()
                        };
                        for c in lo..hi {
                            if c as u32 == mb.cut_pos {
                                continue; // the opened branch carries no current
                            }
                            t.flops(Complex::ADD_FLOPS);
                            acc += t.ld_mut(&self.j, base + c);
                        }
                        t.st(&self.j, g, acc);
                        local_j[qi * bank + slot] = acc;
                        local_v[qi * bank + slot] = vv;
                    }
                    k += bdim;
                    m += 1;
                }
            });
        }

        // Forward half, root→leaf: the ladder update reads the parent's
        // fresh voltage from global (written the previous phase) but takes
        // its own current and previous voltage from the local slots. Each
        // member's residual partial accumulates per thread in the exact
        // per-node order of the unfused sweep.
        let mut partial = vec![0.0f64; nm * bdim];
        let mut partial_min = vec![f64::INFINITY; if self.min_v.is_some() { nm * bdim } else { 0 }];
        for (l, &sb) in slot_base.iter().enumerate().take(nl).skip(1) {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            blk.phase::<T, _>(w.min(bdim), |t| {
                let tid = t.tid();
                let mut k = tid;
                let mut m = 0usize;
                while k < w {
                    let p = off + k;
                    let parent = t.ld(&self.parent_pos, p) as usize;
                    let zv = t.ld(&self.z, p);
                    let dp = match &self.patch {
                        Some(pr) => t.ld(&pr.dfs_pos, p),
                        None => 0,
                    };
                    let slot = (sb + m) * bdim + tid;
                    for (qi, mb) in members.iter().enumerate() {
                        if dp >= mb.cut_lo && dp < mb.cut_hi {
                            continue; // de-energized: frozen, not folded
                        }
                        let base = mb.s_idx * self.n;
                        let g = base + p;
                        let vp = t.ld_mut(&self.v, base + parent);
                        let jv = local_j[qi * bank + slot];
                        let old = local_v[qi * bank + slot];
                        let zm = if p as u32 == mb.z_pos { mb.z_val } else { zv };
                        let nv = vp - zm * jv;
                        t.flops(Complex::MUL_FLOPS + Complex::ADD_FLOPS + 4);
                        t.st(&self.v, g, nv);
                        t.flops(MaxAbsF64::FLOPS);
                        let slot_max = &mut partial[qi * bdim + tid];
                        *slot_max = max_abs_fold(*slot_max, nv - old);
                        if self.min_v.is_some() {
                            t.flops(2);
                            let slot_min = &mut partial_min[qi * bdim + tid];
                            *slot_min = min_abs_fold(*slot_min, nv);
                        }
                    }
                    k += bdim;
                    m += 1;
                }
            });
        }

        // Tree-fold each member's partials and publish its residual
        // (and, for patched solves, its minimum updated `|V|`).
        let sh = blk.shared::<f64>(bdim);
        for (qi, mb) in members.iter().enumerate() {
            blk.phase::<T, _>(bdim, |t| {
                t.sts(&sh, t.tid(), partial[qi * bdim + t.tid()]);
            });
            let mut stride = bdim / 2;
            while stride > 0 {
                blk.phase::<T, _>(stride, |t| {
                    let tid = t.tid();
                    let a = t.lds(&sh, tid);
                    let c = t.lds(&sh, tid + stride);
                    t.flops(MaxAbsF64::FLOPS);
                    t.sts(&sh, tid, MaxAbsF64::combine(a, c));
                });
                stride /= 2;
            }
            blk.phase::<T, _>(1, |t| {
                let r = t.lds(&sh, 0);
                t.st(&self.residuals, mb.s_idx, r);
            });
            if let Some(min_buf) = &self.min_v {
                blk.phase::<T, _>(bdim, |t| {
                    t.sts(&sh, t.tid(), partial_min[qi * bdim + t.tid()]);
                });
                let mut stride = bdim / 2;
                while stride > 0 {
                    blk.phase::<T, _>(stride, |t| {
                        let tid = t.tid();
                        let a = t.lds(&sh, tid);
                        let c = t.lds(&sh, tid + stride);
                        t.flops(1);
                        t.sts(&sh, tid, a.min(c));
                    });
                    stride /= 2;
                }
                blk.phase::<T, _>(1, |t| {
                    let r = t.lds(&sh, 0);
                    t.st(min_buf, mb.s_idx, r);
                });
            }
        }
    }
}

/// One *no-commit* iteration for the integrity audit: recomputes branch
/// currents and next-iteration voltages into scratch slabs (the resident
/// state is untouched) and writes per-node `|ΔV|`. A scenario at a true
/// fixed point audits at or below its final residual; corrupted state,
/// a premature convergence, or a poisoned stripe audits above tolerance
/// (or NaN) and is routed to the host oracle.
struct AuditKernel<'a> {
    loads: LoadsRef<'a>,
    v: GlobalRef<'a, Complex>,
    j: GlobalRef<'a, Complex>,
    j_audit: GlobalMut<'a, Complex>,
    v_audit: GlobalMut<'a, Complex>,
    delta: GlobalMut<'a, f64>,
    z: GlobalRef<'a, Complex>,
    parent_pos: GlobalRef<'a, u32>,
    child_lo: GlobalRef<'a, u32>,
    child_hi: GlobalRef<'a, u32>,
    /// Patched solves: the audit recomputes under the *same* patched
    /// topology, or every patched scenario would flag suspicious.
    patch: Option<PatchRefs<'a>>,
    level_offsets: &'a [u32],
    n: usize,
}

impl Kernel for AuditKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_audit"
    }

    fn block(&self, blk: &mut BlockScope) {
        let s_idx = blk.block_idx_y();
        let base = s_idx * self.n;
        let bdim = blk.block_dim();

        let mut scale = 0.0f64;
        let mut cut = (u32::MAX, u32::MAX, u32::MAX); // (pos, lo, hi)
        let mut z_over = (u32::MAX, Complex::ZERO);
        blk.threads(|t| {
            if t.tid() == 0 {
                if let LoadsRef::Scaled { scales, .. } = &self.loads {
                    scale = t.ld(scales, s_idx);
                }
                if let Some(pr) = &self.patch {
                    cut = (
                        t.ld(&pr.cut_pos, s_idx),
                        t.ld(&pr.cut_lo, s_idx),
                        t.ld(&pr.cut_hi, s_idx),
                    );
                    z_over = (t.ld(&pr.z_pos, s_idx), t.ld(&pr.z_val, s_idx));
                }
            }
        });

        let nl = self.level_offsets.len() - 1;
        // Backward into the scratch currents.
        for l in (0..nl).rev() {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            blk.threads(|t| {
                let mut k = t.tid();
                while k < w {
                    let p = off + k;
                    if let Some(pr) = &self.patch {
                        let dp = t.ld(&pr.dfs_pos, p);
                        if dp >= cut.1 && dp < cut.2 {
                            k += bdim;
                            continue; // de-energized: no recompute
                        }
                    }
                    let g = base + p;
                    let sv = match &self.loads {
                        LoadsRef::Explicit(s) => t.ld(s, g),
                        LoadsRef::Scaled { base: bs, .. } => {
                            let b = t.ld(bs, p);
                            t.flops(2);
                            b * scale
                        }
                    };
                    let mut acc = if sv == Complex::ZERO {
                        Complex::ZERO
                    } else {
                        let vv = t.ld(&self.v, g);
                        t.flops(Complex::DIV_FLOPS + 1);
                        (sv / vv).conj()
                    };
                    let lo = t.ld(&self.child_lo, p) as usize;
                    let hi = t.ld(&self.child_hi, p) as usize;
                    for c in lo..hi {
                        if c as u32 == cut.0 {
                            continue; // the opened branch carries no current
                        }
                        t.flops(Complex::ADD_FLOPS);
                        acc += t.ld_mut(&self.j_audit, base + c);
                    }
                    t.st(&self.j_audit, g, acc);
                    k += bdim;
                }
            });
        }
        // Forward into the scratch voltages, exactly the ladder update.
        // Each position's delta folds the voltage drift with a relative
        // branch-current cross-check: the recomputed current of a true
        // fixed point agrees with the resident one to O(tol), while a
        // flipped exponent bit shifts it by a factor of two or more —
        // this catches corruption of a frozen scenario's current slab,
        // which no voltage-only audit can see.
        for l in 0..nl {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            blk.threads(|t| {
                let mut k = t.tid();
                while k < w {
                    let p = off + k;
                    let g = base + p;
                    if let Some(pr) = &self.patch {
                        let dp = t.ld(&pr.dfs_pos, p);
                        if dp >= cut.1 && dp < cut.2 {
                            // De-energized nodes audit clean by
                            // definition; the slab is zero-initialised
                            // but write explicitly for clarity.
                            t.st(&self.delta, g, 0.0);
                            k += bdim;
                            continue;
                        }
                    }
                    let ja = t.ld_mut(&self.j_audit, g);
                    let jr = t.ld(&self.j, g);
                    let denom = ja.abs() + jr.abs();
                    t.flops(10);
                    let jerr = if denom > 1e-300 {
                        let rel = (ja - jr).abs() / denom;
                        // NaN currents are flagged alongside mismatches.
                        if rel > 0.25 || rel.is_nan() {
                            f64::INFINITY
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    };
                    if l == 0 {
                        let root = t.ld(&self.v, g);
                        t.st(&self.v_audit, g, root);
                        t.st(&self.delta, g, jerr);
                    } else {
                        let parent = t.ld(&self.parent_pos, p) as usize;
                        let vp = t.ld_mut(&self.v_audit, base + parent);
                        let zv0 = t.ld(&self.z, p);
                        let zv = if p as u32 == z_over.0 { z_over.1 } else { zv0 };
                        let nv = vp - zv * ja;
                        t.flops(Complex::MUL_FLOPS + Complex::ADD_FLOPS + 4);
                        let old = t.ld(&self.v, g);
                        t.st(&self.v_audit, g, nv);
                        t.flops(MaxAbsF64::FLOPS);
                        t.st(&self.delta, g, MaxAbsF64::combine((nv - old).abs(), jerr));
                    }
                    k += bdim;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::c;
    use powergrid::gen::{balanced_binary, chain, random_tree, star, GenSpec};
    use powergrid::ieee::{ieee13, ieee37};
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::DeviceProps;
    use std::cell::Cell;

    thread_local! {
        /// Forces [`SweepMemo::start`] off on this thread, so the
        /// exactness test can compare every tallied launch with its
        /// replayed twin.
        pub(super) static SWEEP_MEMO_OFF: Cell<bool> = const { Cell::new(false) };
        /// Sweep blocks replayed from a memo on this thread (small
        /// launches run their blocks on the launching thread).
        pub(super) static SWEEP_MEMO_HITS: Cell<u64> = const { Cell::new(0) };
    }

    fn device() -> Device {
        Device::with_workers(DeviceProps::paper_rig(), 2)
    }

    fn solver() -> TensorBatchSolver {
        TensorBatchSolver::new(device())
    }

    fn base_loads(net: &RadialNetwork) -> Vec<Complex> {
        net.buses().iter().map(|b| b.load).collect()
    }

    fn scaled_scenarios(net: &RadialNetwork, scales: &[f64]) -> Vec<Vec<Complex>> {
        let base = base_loads(net);
        scales.iter().map(|&sc| base.iter().map(|&s| s * sc).collect()).collect()
    }

    #[test]
    fn shard_ranges_cover_exactly_and_respect_the_floor() {
        for (n, shards, min) in
            [(96, 3, 16), (100, 3, 33), (5, 8, 2), (0, 4, 1), (20_000, 3, 64)]
        {
            let ranges = shard_ranges(n, shards, min);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= shards);
            // Contiguous, ordered, exactly covering 0..n.
            let mut expect = 0usize;
            for r in &ranges {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
            assert_eq!(expect, n, "n={n} shards={shards} min={min}");
            if ranges.len() > 1 {
                assert!(
                    ranges.iter().all(|r| r.len() >= min),
                    "n={n}: every shard clears the floor, got {ranges:?}"
                );
            }
        }
        // Big shards align interior boundaries to the chunk cap.
        let ranges = shard_ranges(3 * MAX_CHUNK_SCENARIOS + 100, 2, 64);
        assert_eq!(ranges[0].end % MAX_CHUNK_SCENARIOS, 0);
    }

    #[test]
    fn matches_serial_per_scenario_on_ieee_feeders() {
        let cfg = SolverConfig::default();
        for net in [ieee13(), ieee37()] {
            let scales = [0.5, 1.0, 1.3];
            let res = solver().solve(&net, &scaled_scenarios(&net, &scales), &cfg);
            assert!(res.converged(), "{:?}", res.statuses);
            let a = SolverArrays::new(&net);
            for (s, &sc) in scales.iter().enumerate() {
                let mut a2 = a.clone();
                for slot in a2.s.iter_mut() {
                    *slot = *slot * sc;
                }
                let serial = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a2, &cfg);
                assert_eq!(
                    res.per_scenario_iterations[s], serial.iterations,
                    "scenario {s} iteration parity"
                );
                for bus in 0..net.num_buses() {
                    let d = (res.v[s][bus] - serial.v[bus]).abs();
                    assert!(d < 1e-9, "scenario {s} bus {bus} off by {d}");
                }
            }
        }
    }

    #[test]
    fn scaled_mode_matches_explicit_mode_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_tree(300, 6, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let scales: Vec<f64> = (0..9).map(|k| 0.55 + 0.1 * k as f64).collect();
        let explicit = solver().solve(&net, &scaled_scenarios(&net, &scales), &cfg);
        let scaled = solver().solve_scaled(&net, &scales, &cfg);
        assert!(explicit.converged() && scaled.converged());
        assert_eq!(explicit.per_scenario_iterations, scaled.per_scenario_iterations);
        assert_eq!(explicit.residuals, scaled.residuals);
        for s in 0..scales.len() {
            assert_eq!(explicit.v[s], scaled.v[s], "scenario {s}");
            assert_eq!(explicit.j[s], scaled.j[s], "scenario {s}");
        }
    }

    #[test]
    fn chunked_solve_is_identical_to_unchunked() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = random_tree(150, 5, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let scales: Vec<f64> = (0..23).map(|k| 0.6 + 0.03 * k as f64).collect();
        let whole = solver().solve_scaled(&net, &scales, &cfg);
        let chunked = TensorBatchSolver::new(device())
            .with_chunk_scenarios(4)
            .solve_scaled(&net, &scales, &cfg);
        assert_eq!(whole.statuses, chunked.statuses);
        assert_eq!(whole.per_scenario_iterations, chunked.per_scenario_iterations);
        assert_eq!(whole.residuals, chunked.residuals);
        for s in 0..scales.len() {
            assert_eq!(whole.v[s], chunked.v[s], "scenario {s}");
        }
    }

    #[test]
    fn masks_divergent_scenarios_without_perturbing_the_rest() {
        let mut rng = StdRng::seed_from_u64(41);
        let net = random_tree(120, 8, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let healthy = [0.6, 0.9, 1.2];
        let clean = solver().solve(&net, &scaled_scenarios(&net, &healthy), &cfg);
        assert!(clean.converged(), "{:?}", clean.statuses);

        let mut scenarios = scaled_scenarios(&net, &healthy);
        scenarios.push(base_loads(&net).iter().map(|&s| s * 1e6).collect());
        let mixed = solver().solve(&net, &scenarios, &cfg);
        for s in 0..3 {
            assert_eq!(mixed.statuses[s], SolveStatus::Converged);
            assert_eq!(mixed.v[s], clean.v[s], "healthy lane {s} perturbed");
            assert_eq!(
                mixed.per_scenario_iterations[s],
                clean.per_scenario_iterations[s]
            );
        }
        assert!(!mixed.statuses[3].is_converged());
        assert!(!mixed.converged());
        assert_eq!(mixed.worst_status(), mixed.statuses[3]);
        // The sick lane froze early — it must not drag the batch loop.
        assert!(
            mixed.per_scenario_iterations[3] < cfg.max_iter,
            "divergence must freeze early, ran {}",
            mixed.per_scenario_iterations[3]
        );
        assert_eq!(mixed.iterations, clean.iterations);
    }

    #[test]
    fn nan_load_is_a_numerical_failure_with_its_freeze_iteration() {
        let mut rng = StdRng::seed_from_u64(43);
        let net = random_tree(60, 8, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let mut sick = base_loads(&net);
        sick[7] = c(f64::NAN, 0.0);
        let scenarios = [base_loads(&net), sick];
        let flat = vec![vec![net.source_voltage(); net.num_buses()]; scenarios.len()];
        let res = assert_residuals_match_plain_hypot(
            |m| solver().solve(&net, &scenarios, &capped(m)),
            &flat,
        );
        assert!(res.residuals[1].is_nan());
        assert_eq!(res.statuses[0], SolveStatus::Converged);
        match res.statuses[1] {
            SolveStatus::NumericalFailure { at_iteration } => {
                assert_eq!(at_iteration, res.per_scenario_iterations[1]);
                assert!(at_iteration < cfg.max_iter);
            }
            other => panic!("NaN load must be a numerical failure, got {other}"),
        }
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Solves through `run(max_iter)` and checks every scenario's
    /// reported residual bit for bit against a plain-`hypot` max fold of
    /// its last update, `v_k − v_{k−1}`: `v_{k−1}` comes from the same
    /// solve capped one iteration earlier, or from `start` when `k = 1`.
    fn assert_residuals_match_plain_hypot(
        run: impl Fn(u32) -> TensorBatchResult,
        start: &[Vec<Complex>],
    ) -> TensorBatchResult {
        let res = run(SolverConfig::default().max_iter);
        for (s, v_start) in start.iter().enumerate() {
            let k = res.per_scenario_iterations[s];
            let prev = if k == 1 { v_start.clone() } else { run(k - 1).v[s].clone() };
            let want = prev
                .iter()
                .zip(&res.v[s])
                .fold(0.0, |m, (&old, &nv)| MaxAbsF64::combine(m, (nv - old).abs()));
            assert!(
                same_bits(res.residuals[s], want),
                "scenario {s}: residual {:e} vs plain fold {want:e}",
                res.residuals[s]
            );
        }
        res
    }

    fn capped(max_iter: u32) -> SolverConfig {
        SolverConfig { max_iter, ..SolverConfig::default() }
    }

    /// The network with source, loads and impedances all scaled by
    /// `alpha` (the same branch currents at `alpha` times the voltages).
    fn rescaled(net: &RadialNetwork, alpha: f64) -> RadialNetwork {
        let mut b = powergrid::NetworkBuilder::new(net.source_voltage() * alpha);
        for bus in net.buses() {
            b.add_bus(bus.load * alpha);
        }
        for br in net.branches() {
            b.connect(br.from, br.to, br.z * alpha);
        }
        b.build().unwrap()
    }

    #[test]
    fn residual_fold_is_exact_for_a_warm_start_at_the_fixed_point() {
        let net = ieee37();
        let a = SolverArrays::new(&net);
        let loads = scaled_scenarios(&net, &[0.9, 1.2]);
        let step = |warm: &[Vec<Complex>], m: u32| {
            solver().try_solve_arrays_warm(&a, &loads, &capped(m), warm).unwrap()
        };
        // Iterate one sweep at a time until a sweep leaves every bit of
        // both profiles in place.
        let mut fixed = solver().solve_arrays(&a, &loads, &SolverConfig::default()).v;
        loop {
            let next = step(&fixed, 1).v;
            if next == fixed {
                break;
            }
            fixed = next;
        }
        let res = assert_residuals_match_plain_hypot(|m| step(&fixed, m), &fixed);
        assert_eq!(res.per_scenario_iterations, vec![1, 1]);
        assert!(res.residuals.iter().all(|&r| r == 0.0), "{:?}", res.residuals);
    }

    #[test]
    fn residual_and_min_v_folds_are_exact_at_extreme_scalings() {
        let net = ieee13();
        let v0 = net.source_voltage().abs();
        // Around 1e-160 and 1e152 the squared magnitudes leave the
        // normal range and the folds must fall back to `hypot`; at 1e160
        // `|V|²` overflows inside the complex division itself, so the
        // solve fails numerically and the folds carry NaN.
        for (target, solvable) in [(1e-160, true), (1e152, true), (1e160, false)] {
            let scaled = rescaled(&net, target / v0);
            let a = SolverArrays::new(&scaled);
            let dfs = DfsOrder::new(&scaled);
            let patches = [ScenarioPatch::base(), ScenarioPatch::outage(6)];
            let plan = PatchPlan::build(&a, &dfs, &patches, None);
            let mut start = vec![vec![a.source; scaled.num_buses()]; patches.len()];
            for &bus in &plan.isolated[1] {
                start[1][bus as usize] = Complex::ZERO;
            }
            let res = assert_residuals_match_plain_hypot(
                |m| solver().try_solve_patched_arrays(&a, &dfs, &patches, &capped(m), None).unwrap(),
                &start,
            );
            assert_eq!(res.converged(), solvable, "scale {target:e}: {:?}", res.statuses);
            for s in 0..patches.len() {
                let want = host_min_v(&res.v[s], plan.root, &plan.isolated[s]);
                assert!(same_bits(res.min_v[s], want), "scale {target:e} scenario {s}");
            }
        }
    }

    #[test]
    fn residual_and_min_v_folds_are_exact_on_patched_outages() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = random_tree(400, 6, &GenSpec::default(), &mut rng);
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let patches = [
            ScenarioPatch::outage(7),
            ScenarioPatch { scale: 1.3, ..ScenarioPatch::default() },
            ScenarioPatch::outage(200),
        ];
        let plan = PatchPlan::build(&a, &dfs, &patches, None);
        let mut start = vec![vec![a.source; net.num_buses()]; patches.len()];
        for (s, dead) in plan.isolated.iter().enumerate() {
            for &bus in dead {
                start[s][bus as usize] = Complex::ZERO;
            }
        }
        let res = assert_residuals_match_plain_hypot(
            |m| solver().try_solve_patched_arrays(&a, &dfs, &patches, &capped(m), None).unwrap(),
            &start,
        );
        assert!(res.converged(), "{:?}", res.statuses);
        for s in 0..patches.len() {
            let want = host_min_v(&res.v[s], plan.root, &plan.isolated[s]);
            assert!(same_bits(res.min_v[s], want), "scenario {s}: {} vs {want}", res.min_v[s]);
        }
    }

    #[test]
    fn stats_only_mode_reports_without_state() {
        let net = ieee37();
        let res = TensorBatchSolver::new(device()).stats_only().solve_scaled(
            &net,
            &[0.8, 1.0, 1.1],
            &SolverConfig::default(),
        );
        assert!(res.converged());
        assert!(res.v.is_empty() && res.j.is_empty());
        assert_eq!(res.per_scenario_iterations.len(), 3);
        assert!(res.scenarios_per_sec > 0.0);
    }

    #[test]
    fn launches_are_one_per_iteration_not_per_level() {
        let mut rng = StdRng::seed_from_u64(17);
        // A deep chain would cost hundreds of launches per iteration in
        // the per-level batch solver.
        let net = chain(512, &GenSpec::default(), &mut rng);
        let mut s = solver();
        let res = s.solve_scaled(&net, &[0.9, 1.0, 1.1, 1.2], &SolverConfig::default());
        assert!(res.converged());
        let kernels = s.device().timeline().breakdown().kernels;
        // 1 fused sweep/iteration + 2 fills; freezing scenarios never add
        // launches.
        assert!(
            kernels as u32 <= res.iterations + 2,
            "expected fused launches, got {kernels} for {} iterations",
            res.iterations
        );
    }

    #[test]
    fn star_and_binary_topologies_converge_and_match_serial() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(23);
        for net in [balanced_binary(255, &spec, &mut rng), star(200, &spec, &mut rng)] {
            let res = solver().solve_scaled(&net, &[1.0], &cfg);
            assert!(res.converged());
            let serial =
                SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            for bus in 0..net.num_buses() {
                let d = (res.v[0][bus] - serial.v[bus]).abs();
                assert!(d < 1e-9, "bus {bus} off by {d}");
            }
        }
    }

    #[test]
    fn invalid_config_short_circuits() {
        let net = ieee13();
        let mut cfg = SolverConfig::default();
        cfg.max_iter = 0;
        let res = solver().solve_scaled(&net, &[1.0, 2.0], &cfg);
        assert_eq!(res.statuses, vec![SolveStatus::InvalidConfig; 2]);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.scenarios_per_sec, 0.0);
    }

    #[test]
    fn single_bus_network_converges_immediately() {
        let mut b = powergrid::NetworkBuilder::new(c(240.0, 0.0));
        b.add_bus(Complex::ZERO);
        let net = b.build().unwrap();
        let res = solver().solve_scaled(&net, &[1.0], &SolverConfig::default());
        assert!(res.converged());
        assert_eq!(res.v[0][0], c(240.0, 0.0));
        assert_eq!(res.per_scenario_iterations, vec![1]);
    }

    #[test]
    fn outage_patch_matches_serial_with_subtree_masked() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let patches =
            [ScenarioPatch::outage(6), ScenarioPatch::base(), ScenarioPatch::outage(9)];
        let res =
            solver().try_solve_patched_arrays(&a, &dfs, &patches, &cfg, None).unwrap();
        assert!(res.converged(), "{:?}", res.statuses);
        assert_eq!(res.min_v.len(), 3, "patched solves report min |V|");

        let serial = SerialSolver::new(HostProps::paper_rig());
        let plan = PatchPlan::build(&a, &dfs, &patches, None);
        for s in 0..patches.len() {
            let arrays = repair_arrays(&a, &Loads::Scaled(&plan.scales), Some(&plan), s);
            let sref = serial.solve_arrays(&arrays, &cfg);
            assert_eq!(
                res.per_scenario_iterations[s], sref.iterations,
                "scenario {s} iteration parity with the masked serial solve"
            );
            let mut dead = vec![false; net.num_buses()];
            for &b in &plan.isolated[s] {
                dead[b as usize] = true;
            }
            for bus in 0..net.num_buses() {
                if dead[bus] {
                    assert_eq!(res.v[s][bus], Complex::ZERO, "scenario {s} bus {bus}");
                    assert_eq!(res.j[s][bus], Complex::ZERO, "scenario {s} bus {bus}");
                } else {
                    let dv = (res.v[s][bus] - sref.v[bus]).abs();
                    assert!(dv < 1e-9, "scenario {s} bus {bus} off by {dv}");
                }
            }
            let want = host_min_v(&sref.v, plan.root, &plan.isolated[s]);
            assert!(
                (res.min_v[s] - want).abs() < 1e-9,
                "scenario {s} min_v {} vs host fold {want}",
                res.min_v[s]
            );
        }

        // The base-case lane is bitwise the scaled-mode solve.
        let scaled = solver().solve_scaled(&net, &[1.0], &cfg);
        assert_eq!(res.v[1], scaled.v[0]);
        assert_eq!(res.per_scenario_iterations[1], scaled.per_scenario_iterations[0]);
    }

    #[test]
    fn impedance_override_patch_matches_a_rebuilt_network() {
        let net = ieee37();
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let zb = c(1.9, 0.8);
        let patch =
            ScenarioPatch { z_override: Some((5, zb)), ..ScenarioPatch::default() };
        let res = solver()
            .try_solve_patched_arrays(&a, &dfs, &[patch], &cfg, None)
            .unwrap();
        assert!(res.converged());

        // Reference: rebuild the network with that branch retuned.
        let mut b = powergrid::NetworkBuilder::new(net.source_voltage());
        for bus in net.buses() {
            b.add_bus(bus.load);
        }
        for br in net.branches() {
            b.connect(br.from, br.to, if br.to == 5 { zb } else { br.z });
        }
        let rebuilt = b.build().unwrap();
        let sref = SerialSolver::new(HostProps::paper_rig()).solve(&rebuilt, &cfg);
        for bus in 0..net.num_buses() {
            let dv = (res.v[0][bus] - sref.v[bus]).abs();
            assert!(dv < 1e-9, "bus {bus} off by {dv}");
        }
    }

    #[test]
    fn warm_start_seeds_every_lane_and_never_costs_iterations() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = random_tree(400, 6, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let base = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, &cfg);
        assert_eq!(base.status, SolveStatus::Converged);

        let patches = [
            ScenarioPatch { scale: 1.02, ..ScenarioPatch::default() },
            ScenarioPatch::outage(7),
            ScenarioPatch::outage(200),
        ];
        let cold =
            solver().try_solve_patched_arrays(&a, &dfs, &patches, &cfg, None).unwrap();
        let warm = solver()
            .try_solve_patched_arrays(&a, &dfs, &patches, &cfg, Some(&base.v))
            .unwrap();
        assert!(cold.converged() && warm.converged());
        for s in 0..patches.len() {
            assert!(
                warm.per_scenario_iterations[s] <= cold.per_scenario_iterations[s],
                "scenario {s}: warm {} > cold {}",
                warm.per_scenario_iterations[s],
                cold.per_scenario_iterations[s]
            );
            // Both iterates stop within `tol` of the same fixed point,
            // along different paths — they agree to O(tol), not exactly.
            let tol = cfg.tol_volts(a.source.abs());
            for bus in 0..net.num_buses() {
                let dv = (warm.v[s][bus] - cold.v[s][bus]).abs();
                assert!(dv < 2.0 * tol, "scenario {s} bus {bus}: fixed points differ by {dv}");
            }
        }
        // A near-base reload converges strictly faster from the profile.
        assert!(
            warm.per_scenario_iterations[0] < cold.per_scenario_iterations[0],
            "warm start must beat the flat start near the base case"
        );
    }

    #[test]
    fn patched_chunking_and_stats_only_agree_with_the_whole_batch() {
        let mut rng = StdRng::seed_from_u64(29);
        let net = random_tree(180, 5, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let patches: Vec<ScenarioPatch> =
            (1..20).map(ScenarioPatch::outage).collect();
        let whole =
            solver().try_solve_patched_arrays(&a, &dfs, &patches, &cfg, None).unwrap();
        let chunked = TensorBatchSolver::new(device())
            .with_chunk_scenarios(3)
            .try_solve_patched_arrays(&a, &dfs, &patches, &cfg, None)
            .unwrap();
        assert_eq!(whole.statuses, chunked.statuses);
        assert_eq!(whole.per_scenario_iterations, chunked.per_scenario_iterations);
        assert_eq!(whole.min_v, chunked.min_v);
        let stats = TensorBatchSolver::new(device())
            .stats_only()
            .try_solve_patched_arrays(&a, &dfs, &patches, &cfg, None)
            .unwrap();
        assert!(stats.v.is_empty());
        assert_eq!(stats.min_v, whole.min_v);
        assert_eq!(stats.per_scenario_iterations, whole.per_scenario_iterations);
    }

    #[test]
    #[should_panic(expected = "root")]
    fn outage_of_the_root_is_rejected() {
        let net = ieee13();
        solver().solve_patched(
            &net,
            &[ScenarioPatch::outage(0)],
            &SolverConfig::default(),
            None,
        );
    }

    #[test]
    fn throughput_headline_is_positive_and_finite() {
        let net = ieee37();
        let res = solver().solve_scaled(&net, &[0.9, 1.0], &SolverConfig::default());
        assert!(res.scenarios_per_sec.is_finite() && res.scenarios_per_sec > 0.0);
        let expect = 2.0 / (res.timing.total_us() * 1e-6);
        assert!((res.scenarios_per_sec - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn per_scenario_warm_start_matches_cold_and_cuts_iterations() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = balanced_binary(511, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let scenarios = scaled_scenarios(&net, &[0.8, 1.0, 1.2]);

        let cold = solver().try_solve_arrays(&arrays, &scenarios, &cfg).unwrap();
        assert!(cold.converged());

        // Warm-starting each scenario from its own converged profile
        // must reconverge almost immediately, to the same fixed point
        // (modulo the tolerance band both iterations stop inside).
        let warm = solver()
            .try_solve_arrays_warm(&arrays, &scenarios, &cfg, &cold.v)
            .unwrap();
        assert!(warm.converged());
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        let tol = 1e-7 * net.source_voltage().abs();
        for s in 0..scenarios.len() {
            for (a, b) in warm.v[s].iter().zip(&cold.v[s]) {
                assert!((*a - *b).abs() <= tol, "{a:?} vs {b:?}");
            }
        }

        // Mismatched shapes are a caller bug, not device weather.
        let short: Vec<Vec<Complex>> = cold.v[..2].to_vec();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            solver().try_solve_arrays_warm(&arrays, &scenarios, &cfg, &short)
        }));
        assert!(r.is_err(), "short warm slate must panic");
    }

    #[test]
    fn outer_session_matches_the_one_shot_batch_and_reads_back_probes() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = balanced_binary(255, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let scenarios = scaled_scenarios(&net, &[0.7, 1.0, 1.3]);
        let probes = vec![1usize, 57, 200, 254];

        let oneshot = solver().try_solve_arrays(&arrays, &scenarios, &cfg).unwrap();
        assert!(oneshot.converged());

        let mut tbs = solver();
        let mut session = tbs.outer_session(&arrays, &scenarios, &probes, None, &cfg);
        let round = session.solve_round(&cfg);
        assert!(round.statuses.iter().all(|s| s.is_converged()), "{:?}", round.statuses);
        let report = session.finish(&cfg);
        assert!(!report.degraded);
        assert_eq!(report.retries, 0);
        assert!(report.total_us > 0.0);

        let tol = 1e-9 * net.source_voltage().abs();
        for s in 0..scenarios.len() {
            for (bus, (a, b)) in report.v[s].iter().zip(&oneshot.v[s]).enumerate() {
                assert!((*a - *b).abs() <= tol, "scenario {s} bus {bus}: {a:?} vs {b:?}");
            }
            // The probe readback is the final state at those buses.
            for (k, &bus) in probes.iter().enumerate() {
                assert_eq!(round.probe_v[s][k], report.v[s][bus], "scenario {s} probe {bus}");
            }
        }
    }

    #[test]
    fn outer_session_sparse_updates_and_retirement_track_serial_resolves() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = balanced_binary(127, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let mut scenarios = scaled_scenarios(&net, &[0.9, 1.1]);
        let v0 = net.source_voltage().abs();

        let mut tbs = solver();
        let mut session = tbs.outer_session(&arrays, &scenarios, &[64], None, &cfg);
        let first = session.solve_round(&cfg);
        assert!(first.statuses.iter().all(|s| s.is_converged()));

        // Scenario 0 retires at its round-1 state; scenario 1 takes a
        // sparse load bump and re-solves warm.
        session.retire(0);
        let bump = scenarios[1][30] * 1.5 + c(2_000.0, 500.0);
        scenarios[1][30] = bump;
        session.update_loads(&[(1, 30, bump)]);
        let second = session.solve_round(&cfg);
        assert_eq!(second.iterations[0], 0, "retired scenario must not iterate");
        assert!(second.statuses[1].is_converged());
        let report = session.finish(&cfg);

        // Both scenarios land on the serial fixed points of their own
        // final loads (within the band both solvers stop inside).
        let serial = SerialSolver::new(HostProps::paper_rig());
        for (s, loads) in scenarios.iter().enumerate() {
            let mut a2 = arrays.clone();
            for (p, slot) in a2.s.iter_mut().enumerate() {
                *slot = loads[arrays.levels.order[p] as usize];
            }
            let want = serial.solve_arrays(&a2, &cfg);
            assert!(want.converged());
            for (bus, (a, w)) in report.v[s].iter().zip(&want.v).enumerate() {
                assert!(
                    (*a - *w).abs() <= 1e-5 * v0,
                    "scenario {s} bus {bus}: {a:?} vs serial {w:?}"
                );
            }
        }
    }

    #[test]
    fn outer_session_absorbs_faults_and_still_lands_on_the_fixed_point() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = balanced_binary(127, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let scenarios = scaled_scenarios(&net, &[0.8, 1.0, 1.2]);
        let v0 = net.source_voltage().abs();

        let serial = SerialSolver::new(HostProps::paper_rig());
        for seed in 0..6u64 {
            let mut dev = device();
            dev.arm_faults(simt::FaultPlan::seeded(0x5E55 + seed, 0.05));
            let mut tbs = TensorBatchSolver::new(dev);
            let mut session = tbs.outer_session(&arrays, &scenarios, &[1], None, &cfg);
            let round = session.solve_round(&cfg);
            assert!(
                round.statuses.iter().all(|s| s.is_converged()),
                "seed {seed}: {:?}",
                round.statuses
            );
            let report = session.finish(&cfg);
            // Whether the round survived on-device, rebuilt, or fell
            // back to the host, the answer is the same fixed point.
            for (s, loads) in scenarios.iter().enumerate() {
                let mut a2 = arrays.clone();
                for (p, slot) in a2.s.iter_mut().enumerate() {
                    *slot = loads[arrays.levels.order[p] as usize];
                }
                let want = serial.solve_arrays(&a2, &cfg);
                for (bus, (a, w)) in report.v[s].iter().zip(&want.v).enumerate() {
                    assert!(
                        (*a - *w).abs() <= 1e-5 * v0,
                        "seed {seed} scenario {s} bus {bus}: {a:?} vs {w:?} \
                         (degraded {}, retries {})",
                        report.degraded,
                        report.retries
                    );
                }
            }
        }
    }

    /// Bits of everything a batch answer holds.
    fn answer_bits(r: &TensorBatchResult) -> String {
        let floats = r.v.iter().chain(&r.j).flatten().flat_map(|z| [z.re, z.im]);
        let floats = floats.chain(r.residuals.iter().chain(&r.min_v).copied());
        let floats = floats.chain([r.residual, r.timing.total_us(), r.timing.transfer_us]);
        let bits: Vec<u64> = floats.map(f64::to_bits).collect();
        format!(
            "{bits:?} {:?} {} {:?} {:?}",
            r.per_scenario_iterations, r.iterations, r.statuses, r.fault_report
        )
    }

    /// Runs `op` on a fresh solver from `make` with the sweep memo on and
    /// again with it off, and asserts that both leave the same timeline
    /// (every event's kind — kernel name, geometry, full `LaunchStats` —
    /// and its modeled time's bits) and the same answer. Returns the
    /// sweep launches of the run and the sweep blocks the memo-on run
    /// replayed.
    fn assert_memo_exact(
        case: &str,
        make: impl Fn() -> TensorBatchSolver,
        op: impl Fn(&mut TensorBatchSolver) -> String,
    ) -> (usize, u64) {
        let run = |off: bool| {
            SWEEP_MEMO_OFF.with(|m| m.set(off));
            SWEEP_MEMO_HITS.with(|h| h.set(0));
            let mut tbs = make();
            let answer = op(&mut tbs);
            SWEEP_MEMO_OFF.with(|m| m.set(false));
            let events: Vec<(String, u64)> = tbs
                .device()
                .timeline()
                .events()
                .iter()
                .map(|e| (format!("{:?}", e.kind), e.modeled_us.to_bits()))
                .collect();
            (events, answer, SWEEP_MEMO_HITS.with(Cell::get))
        };
        let (on, off) = (run(false), run(true));
        assert_eq!(on.0.len(), off.0.len(), "{case}: event counts differ");
        for (i, (a, b)) in on.0.iter().zip(&off.0).enumerate() {
            assert_eq!(a, b, "{case}: event {i} differs");
        }
        assert_eq!(on.1, off.1, "{case}: answers differ");
        assert_eq!(off.2, 0, "{case}: the memo was forced off");
        (on.0.iter().filter(|(k, _)| k.contains("tensor_sweep")).count(), on.2)
    }

    #[test]
    fn replayed_sweep_tallies_are_exact() {
        let mut rng = StdRng::seed_from_u64(0x3E30);
        let net = random_tree(300, 7, &GenSpec::default(), &mut rng);
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let cfg = SolverConfig::default();
        let scales = [0.5, 0.9, 1.0, 1.3, 0.0, 1.7, 0.75];

        let (_, hits) = assert_memo_exact("scaled", solver, |tbs| {
            answer_bits(&tbs.try_solve_scaled_arrays(&a, &scales, &cfg).unwrap())
        });
        assert!(hits > 0, "scaled: no block was replayed");

        // Explicit loads: zero loads skip a division, a NaN scenario
        // freezes early and changes its block's live set.
        let mut explicit = scaled_scenarios(&net, &scales);
        explicit[1][7] = c(f64::NAN, 0.0);
        for bus in (0..net.num_buses()).step_by(5) {
            explicit[2][bus] = Complex::ZERO;
        }
        let (_, hits) = assert_memo_exact("explicit + NaN", solver, |tbs| {
            let r = tbs.try_solve_arrays(&a, &explicit, &cfg).unwrap();
            assert!(matches!(r.statuses[1], SolveStatus::NumericalFailure { .. }));
            answer_bits(&r)
        });
        assert!(hits > 0, "explicit: no block was replayed");

        // Per-scenario warm starts from a perturbed earlier solve.
        let first = solver().try_solve_arrays(&a, &explicit, &cfg).unwrap();
        let warm: Vec<Vec<Complex>> =
            first.v.iter().map(|v| v.iter().map(|&x| x * 0.999).collect()).collect();
        let (_, hits) = assert_memo_exact("per-scenario warm", solver, |tbs| {
            answer_bits(&tbs.try_solve_arrays_warm(&a, &explicit, &cfg, &warm).unwrap())
        });
        assert!(hits > 0, "warm: no block was replayed");

        // A warm N-1 screen with an impedance override, chunked small.
        let base = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, &cfg);
        let mut patches: Vec<ScenarioPatch> = (1..12).map(ScenarioPatch::outage).collect();
        patches.push(ScenarioPatch {
            z_override: Some((9, c(0.4, 0.8))),
            scale: 1.1,
            ..ScenarioPatch::default()
        });
        let chunked = || TensorBatchSolver::new(device()).with_chunk_scenarios(3);
        let (_, hits) = assert_memo_exact("patched warm screen, chunked", chunked, |tbs| {
            answer_bits(
                &tbs.try_solve_patched_arrays(&a, &dfs, &patches, &cfg, Some(&base.v)).unwrap(),
            )
        });
        assert!(hits > 0, "patched: no block was replayed");

        // A modeled deadline freezes every live scenario mid-solve.
        let mut deadline_cfg = cfg.clone().with_deadline(1.0);
        deadline_cfg.max_iter = 50;
        let (sweeps, _) = assert_memo_exact("deadline", solver, |tbs| {
            let r = tbs.try_solve_scaled_arrays(&a, &scales, &deadline_cfg).unwrap();
            assert!(matches!(r.statuses[0], SolveStatus::DeadlineExceeded { .. }));
            answer_bits(&r)
        });
        assert!(sweeps > 0, "deadline: no sweep ran");

        // The outer session: sparse load updates (one zeroes a load)
        // and a retirement between rounds.
        let loads = scaled_scenarios(&net, &scales[..5]);
        let session = |tbs: &mut TensorBatchSolver| {
            let mut out = String::new();
            let mut s = tbs.outer_session(&a, &loads, &[3, 150], None, &cfg);
            for round in 0..3 {
                let r = s.solve_round(&cfg);
                let probes: Vec<u64> =
                    r.probe_v.iter().flatten().flat_map(|z| [z.re, z.im]).map(f64::to_bits).collect();
                out += &format!("{probes:?} {:?} {:?};", r.statuses, r.iterations);
                match round {
                    0 => s.update_loads(&[(1, 20, Complex::ZERO), (3, 40, c(900.0, 300.0))]),
                    _ => s.retire(round),
                }
            }
            let rep = s.finish(&cfg);
            let v: Vec<u64> =
                rep.v.iter().flatten().flat_map(|z| [z.re, z.im]).map(f64::to_bits).collect();
            out + &format!("{v:?} {} {} {}", rep.total_us.to_bits(), rep.retries, rep.degraded)
        };
        let (_, hits) = assert_memo_exact("outer session", solver, session);
        assert!(hits > 0, "session: no block was replayed");

        // An armed plan with resident bit flips keeps the memo off.
        let mut armed_sweeps = 0;
        for seed in 0..4u64 {
            let armed = || {
                let mut dev = device();
                dev.arm_faults(simt::FaultPlan::seeded(0xB17F + seed, 0.05));
                TensorBatchSolver::new(dev)
            };
            let (sweeps, hits) = assert_memo_exact("armed", armed, |tbs| {
                let r = tbs.try_solve_scaled_arrays(&a, &scales, &cfg);
                format!("{} {:?}", r.as_ref().map_or(String::new(), answer_bits), r.err())
            });
            assert_eq!(hits, 0, "armed seed {seed}: the memo must stay off");
            armed_sweeps += sweeps;
            let (sweeps, hits) = assert_memo_exact("armed session", armed, session);
            assert_eq!(hits, 0, "armed session seed {seed}: the memo must stay off");
            armed_sweeps += sweeps;
        }
        assert!(armed_sweeps > 0, "no armed run reached a sweep");
    }
}
