//! Weakly-meshed networks and distributed generation.
//!
//! The radial sweeps in this crate exploit the tree structure of
//! distribution feeders; real feeders carry a handful of normally-closed
//! tie switches (weak loops) and, increasingly, distributed generators
//! holding voltage set-points. This module closes both gaps with the
//! classic *compensation* construction (Shirmohammadi et al.), keeping
//! the radial inner solvers — serial, multicore, GPU — completely
//! unchanged:
//!
//! * **Break-point compensation.** Each closed tie is opened at a break
//!   point by [`powergrid::MeshedNetwork`]'s spanning-tree extraction.
//!   After each inner radial solve, the voltage mismatch across break
//!   point `j` is `E_j = V_a − V_b − z_tie·J_j`. The loop currents are
//!   corrected by one dense k×k complex solve `Z·ΔJ = E`, where `Z` is
//!   the Thevenin loop-impedance matrix (`Z_ij` = signed overlap of the
//!   two loops' tree paths, `Z_ii` additionally carries the tie's own
//!   impedance), then injected into the next inner solve as equivalent
//!   constant-power loads `S_a += V_a·conj(J)`, `S_b −= V_b·conj(J)`.
//! * **PV-bus outer loop.** Each generator ([`powergrid::PvBus`]) holds
//!   `|V|` at its set-point by adjusting reactive output with the
//!   root-path-reactance sensitivity `Δq ≈ err·|V|/x_th`. Hitting a Q
//!   limit switches the bus to PQ (fixed at the limit); it re-enters PV
//!   only once the desired Q falls back inside the limits by a
//!   hysteresis margin, and a per-generator mode-flip budget turns
//!   genuine limit-cycling into a structural failure instead of a
//!   silently burned iteration cap.
//!
//! Both corrections share one outer loop and one [`OuterStatus`], so
//! divergence and limit-cycling surface in [`SolveStatus`] (as
//! [`SolveStatus::OuterDiverged`], CLI exit code 9) rather than
//! masquerading as `MaxIterations`.

use std::collections::BTreeMap;

use numc::{c, solve_dense, CVec3, Complex};
use powergrid::three_phase::{ThreePhaseBuilder, ThreePhaseNetwork};
use powergrid::{MeshedNetwork, NetworkBuilder, PvBus, RadialNetwork};
use simt::HostProps;
use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::gpu::GpuSolver;
use crate::multicore::MulticoreSolver;
use crate::obs::Obs;
use crate::recovery::{Resilient3Solver, ResilienceError, ResilientSolver};
use crate::report::{FaultReport, SolveResult, Timing};
use crate::serial::SerialSolver;
use crate::status::SolveStatus;
use crate::tensor_batch::TensorBatchSolver;
use crate::three_phase::{Arrays3, Gpu3Solver, Serial3Solver, Solve3Result};

/// Knobs of the mesh/DG outer loop (the inner sweeps keep using
/// [`SolverConfig`] untouched).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OuterConfig {
    /// Maximum outer iterations (each runs one full inner solve).
    pub max_outer: u32,
    /// Outer convergence tolerance, relative to the source-voltage
    /// magnitude — both the break-point mismatch `max|E_j|` and the
    /// worst PV set-point error must fall under it.
    pub tol_rel: f64,
    /// Hysteresis for PV re-entry after a Q-limit clamp, as a fraction
    /// of the generator's `q_max − q_min` range: the desired Q must come
    /// back inside the limit by this margin before the bus flips back to
    /// PV. Damps chattering right at a limit.
    pub hysteresis: f64,
    /// Damping on the PV reactive-power update (1.0 = full Newton step
    /// on the root-path-reactance sensitivity). Values below 1 trade a
    /// few outer iterations for robustness when generators couple
    /// through shared trunk impedance.
    pub damping: f64,
    /// Per-generator PV↔PQ mode-flip budget; exceeding it is declared a
    /// limit cycle ([`OuterStatus::LimitCycle`]).
    pub max_mode_flips: u32,
    /// Consecutive outer iterations the mismatch may grow before the
    /// outer loop is declared divergent.
    pub patience: u32,
}

impl Default for OuterConfig {
    fn default() -> Self {
        OuterConfig {
            max_outer: 40,
            tol_rel: 1e-6,
            hysteresis: 0.05,
            damping: 0.7,
            max_mode_flips: 6,
            patience: 4,
        }
    }
}

impl OuterConfig {
    /// Builder: outer iteration cap.
    pub fn with_max_outer(mut self, max_outer: u32) -> Self {
        self.max_outer = max_outer;
        self
    }

    /// Builder: relative outer tolerance.
    pub fn with_tol(mut self, tol_rel: f64) -> Self {
        self.tol_rel = tol_rel;
        self
    }

    /// `true` when every knob is usable.
    pub fn is_valid(&self) -> bool {
        self.max_outer >= 1
            && self.tol_rel.is_finite()
            && self.tol_rel > 0.0
            && self.hysteresis.is_finite()
            && (0.0..=0.5).contains(&self.hysteresis)
            && self.damping.is_finite()
            && self.damping > 0.0
            && self.damping <= 1.0
            && self.patience >= 1
    }
}

/// How the mesh/DG outer loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OuterStatus {
    /// The network had no loops and no generators; exactly one inner
    /// solve ran and no outer machinery was engaged.
    Radial,
    /// Break-point mismatch and PV errors met the outer tolerance.
    Converged {
        /// Outer iterations spent (≥ 1).
        outer_iterations: u32,
    },
    /// The outer cap was reached with a finite, non-exploding mismatch —
    /// slow coupling, not structural failure.
    MaxOuterIterations,
    /// The mismatch grew without bound (or went non-finite, or the loop
    /// Thevenin system was singular).
    Diverged {
        /// Outer iteration (1-based) at which divergence was declared.
        at_outer: u32,
    },
    /// A generator exhausted its PV↔PQ mode-flip budget.
    LimitCycle {
        /// Outer iteration (1-based) at which the budget ran out.
        at_outer: u32,
    },
    /// An inner radial solve failed (or timed out) before the outer loop
    /// could settle; the inner [`SolveStatus`] carries the detail.
    InnerFailed {
        /// Outer iteration (1-based) of the failing inner solve.
        at_outer: u32,
    },
}

impl std::fmt::Display for OuterStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OuterStatus::Radial => write!(f, "radial"),
            OuterStatus::Converged { outer_iterations } => {
                write!(f, "converged ({outer_iterations} outer iterations)")
            }
            OuterStatus::MaxOuterIterations => write!(f, "max-outer-iterations"),
            OuterStatus::Diverged { at_outer } => {
                write!(f, "diverged (outer iteration {at_outer})")
            }
            OuterStatus::LimitCycle { at_outer } => {
                write!(f, "limit-cycle (outer iteration {at_outer})")
            }
            OuterStatus::InnerFailed { at_outer } => {
                write!(f, "inner-failed (outer iteration {at_outer})")
            }
        }
    }
}

/// Operating mode of one generator at the end of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenMode {
    /// Holding its voltage set-point (Q inside the limits).
    Pv,
    /// Clamped at `q_min`, behaving as a PQ bus.
    ClampedMin,
    /// Clamped at `q_max`, behaving as a PQ bus.
    ClampedMax,
}

impl std::fmt::Display for GenMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GenMode::Pv => "pv",
            GenMode::ClampedMin => "clamped-at-qmin",
            GenMode::ClampedMax => "clamped-at-qmax",
        })
    }
}

/// Result of one meshed/DG solve.
#[derive(Clone, Debug)]
pub struct MeshResult {
    /// The final inner solve (voltages and branch currents by bus id,
    /// with timing/iterations *accumulated over every inner solve* of
    /// the outer loop). Its own `status` is the last inner outcome.
    pub inner: SolveResult,
    /// Overall status: the inner status when the outer loop settled
    /// (or never engaged), [`SolveStatus::OuterDiverged`] on outer
    /// divergence or limit-cycling, [`SolveStatus::MaxIterations`] on
    /// outer-cap exhaustion.
    pub status: SolveStatus,
    /// How the outer loop ended.
    pub outer_status: OuterStatus,
    /// Outer iterations run (0 for a plain radial network).
    pub outer_iterations: u32,
    /// Final break-point mismatch `max_j |E_j|`, volts (0 with no loops).
    pub breakpoint_residual: f64,
    /// Final worst PV set-point error over PV-mode generators, volts
    /// (0 with no generators in PV mode).
    pub pv_error: f64,
    /// Final loop (tie) currents, one per break point, amperes.
    pub loop_currents: Vec<Complex>,
    /// Final reactive output per generator, vars.
    pub q_gen: Vec<f64>,
    /// Final operating mode per generator.
    pub gen_modes: Vec<GenMode>,
    /// Total PV↔PQ mode flips across all generators.
    pub mode_flips: u32,
}

impl MeshResult {
    /// `true` when the overall status met the tolerance.
    pub fn converged(&self) -> bool {
        self.status.is_converged()
    }
}

/// A radial sweep backend the mesh outer loop can drive: anything that
/// can re-solve prepared arrays from a warm start. Implemented by the
/// serial, multicore and GPU solvers; the resilient supervisor has its
/// own entry point ([`solve_meshed_resilient`]) because its
/// checkpoint/rollback machinery owns device lifetimes.
pub trait SweepBackend {
    /// Backend name for reports.
    fn name(&self) -> &'static str;
    /// One inner radial solve over `a`, warm-started from `v_init`
    /// (indexed by bus id) when given.
    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult;
}

impl SweepBackend for SerialSolver {
    fn name(&self) -> &'static str {
        "serial"
    }
    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        self.solve_warm(a, cfg, v_init)
    }
}

impl SweepBackend for MulticoreSolver {
    fn name(&self) -> &'static str {
        "multicore"
    }
    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        self.solve_warm(a, cfg, v_init)
    }
}

impl SweepBackend for GpuSolver {
    fn name(&self) -> &'static str {
        "gpu"
    }
    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        self.solve_warm(a, cfg, v_init)
    }
}

/// The precomputed, topology-only part of a meshed/DG problem: base
/// loads, the Thevenin loop-impedance matrix and per-generator voltage
/// sensitivities. Shared by [`MeshSolver`], the resilient entry point
/// and the tensor-batched DG sweep — none of it changes across outer
/// iterations or scenarios.
#[derive(Clone, Debug)]
pub struct MeshProblem {
    /// Base constant-power loads by bus id (no DG, no compensation).
    base: Vec<Complex>,
    /// Generator records.
    gens: Vec<PvBus>,
    /// Root-path reactance at each generator bus, ohms (PV sensitivity).
    x_th: Vec<f64>,
    /// Break-point endpoints and tie impedances `(a, b, z_tie)`.
    bps: Vec<(usize, usize, Complex)>,
    /// Row-major k×k Thevenin loop-impedance matrix.
    thevenin: Vec<Complex>,
}

impl MeshProblem {
    /// Precomputes the compensation data for a meshed network.
    pub fn new(net: &MeshedNetwork) -> Self {
        let tree = net.tree();
        let base: Vec<Complex> = tree.buses().iter().map(|b| b.load).collect();
        let gens: Vec<PvBus> = net.generators().to_vec();
        let x_th = gens
            .iter()
            .map(|g| root_path_impedance(tree, g.bus).im.max(1e-9))
            .collect();

        let bps: Vec<(usize, usize, Complex)> =
            net.break_points().iter().map(|bp| (bp.a, bp.b, bp.z)).collect();
        let k = bps.len();
        // Signed tree-path incidence per loop: σ_i(branch) = +1 for
        // branches on root-path(a_i), −1 on root-path(b_i); shared
        // prefixes cancel, leaving exactly the a→b tree path. Ordered by
        // bus id so the Thevenin sums below add in the same order in
        // every process.
        let sigmas: Vec<BTreeMap<usize, f64>> = bps
            .iter()
            .map(|&(a, b, _)| {
                let mut sig = BTreeMap::new();
                for bus in root_path(tree, a) {
                    *sig.entry(bus).or_insert(0.0) += 1.0;
                }
                for bus in root_path(tree, b) {
                    *sig.entry(bus).or_insert(0.0) -= 1.0;
                }
                sig.retain(|_, s| *s != 0.0);
                sig
            })
            .collect();
        let mut thevenin = vec![Complex::ZERO; k * k];
        for i in 0..k {
            for jj in 0..k {
                let mut z = Complex::ZERO;
                for (&bus, &si) in &sigmas[i] {
                    if let Some(&sj) = sigmas[jj].get(&bus) {
                        let zb = tree.parent_branch(bus).expect("non-root bus has a parent").z;
                        z += zb * (si * sj);
                    }
                }
                thevenin[i * k + jj] = z;
            }
            thevenin[i * k + i] += bps[i].2;
        }

        MeshProblem { base, gens, x_th, bps, thevenin }
    }

    /// Number of loops (break points).
    pub fn num_loops(&self) -> usize {
        self.bps.len()
    }

    /// Number of generators.
    pub fn num_gens(&self) -> usize {
        self.gens.len()
    }

    /// The row-major k×k Thevenin loop-impedance matrix (tests compare
    /// it against hand-computed references).
    pub fn thevenin(&self) -> &[Complex] {
        &self.thevenin
    }

    /// A fresh outer-loop state: zero loop currents, generators in PV
    /// mode at `Q = 0` (clamped into their limits).
    pub fn initial_state(&self) -> MeshState {
        MeshState {
            j_loop: vec![Complex::ZERO; self.bps.len()],
            q: self.gens.iter().map(|g| 0.0f64.clamp(g.q_min, g.q_max)).collect(),
            modes: vec![GenMode::Pv; self.gens.len()],
            flips: vec![0; self.gens.len()],
        }
    }

    /// The constant-power loads (by bus id) the next inner solve should
    /// use: base loads minus DG injections (`p_gen` scaled by
    /// `dg_scale`) minus/plus the break-point compensation converted to
    /// power at the latest voltages `v`.
    pub fn loads(&self, state: &MeshState, v: &[Complex], dg_scale: f64) -> Vec<Complex> {
        let mut s = self.base.clone();
        for (gi, g) in self.gens.iter().enumerate() {
            s[g.bus] -= c(g.p_gen * dg_scale, state.q[gi]);
        }
        for (j, &(a, b, _)) in self.bps.iter().enumerate() {
            let jj = state.j_loop[j];
            s[a] += v[a] * jj.conj();
            s[b] -= v[b] * jj.conj();
        }
        s
    }

    /// One outer correction from the solved voltages `v` (by bus id):
    /// measures the break-point mismatch, solves the Thevenin system for
    /// the loop-current update, and steps every generator's Q toward its
    /// set-point with limit/hysteresis handling. Returns the mismatch
    /// measured *before* the update (the quantity the outer loop
    /// converges on).
    pub fn step(&self, state: &mut MeshState, v: &[Complex], outer: &OuterConfig) -> OuterStep {
        let k = self.bps.len();
        // Break-point mismatch and compensation update.
        let mut e: Vec<Complex> = self
            .bps
            .iter()
            .enumerate()
            .map(|(j, &(a, b, z))| v[a] - v[b] - z * state.j_loop[j])
            .collect();
        let bp_residual = e.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let mut singular = false;
        if k > 0 {
            let mut z = self.thevenin.clone();
            match solve_dense(&mut z, &mut e, k) {
                Ok(()) => {
                    for (jj, dj) in state.j_loop.iter_mut().zip(&e) {
                        *jj += *dj;
                    }
                }
                Err(_) => singular = true,
            }
        }

        // PV outer step with Q-limit clamping and hysteresis.
        let vm: Vec<f64> = self.gens.iter().map(|g| v[g.bus].abs()).collect();
        let (pv_error, limit_cycle) = pv_step(&self.gens, &self.x_th, state, &vm, outer);

        OuterStep { bp_residual, pv_error, singular, limit_cycle }
    }
}

/// One PV-control step over every generator, shared by the single- and
/// three-phase outer loops: Newton Q update on the root-path-reactance
/// sensitivity, Q-limit clamping with hysteresis re-entry, mode-flip
/// accounting. `vm` is the controlled voltage magnitude per generator
/// (the bus magnitude single-phase, the mean phase magnitude
/// three-phase). Returns `(pv_error, limit_cycle)`.
fn pv_step(
    gens: &[PvBus],
    x_th: &[f64],
    state: &mut MeshState,
    vm: &[f64],
    outer: &OuterConfig,
) -> (f64, bool) {
    let mut pv_error = 0.0f64;
    let mut limit_cycle = false;
    for (gi, g) in gens.iter().enumerate() {
        let vm = vm[gi];
        let err = g.v_set - vm;
        let dq = outer.damping * err * vm / x_th[gi];
        let desired = state.q[gi] + dq;
        let hyst = outer.hysteresis * (g.q_max - g.q_min);
        let mode = state.modes[gi];
        let new_mode = match mode {
            GenMode::Pv if desired > g.q_max => GenMode::ClampedMax,
            GenMode::Pv if desired < g.q_min => GenMode::ClampedMin,
            GenMode::ClampedMax if desired < g.q_max - hyst => GenMode::Pv,
            GenMode::ClampedMin if desired > g.q_min + hyst => GenMode::Pv,
            m => m,
        };
        if new_mode != mode {
            state.flips[gi] += 1;
            if state.flips[gi] > outer.max_mode_flips {
                limit_cycle = true;
            }
        }
        state.modes[gi] = new_mode;
        let q_before = state.q[gi];
        state.q[gi] = match new_mode {
            GenMode::Pv => desired.clamp(g.q_min, g.q_max),
            GenMode::ClampedMax => g.q_max,
            GenMode::ClampedMin => g.q_min,
        };
        // Only PV-mode buses owe their set-point; clamped buses are
        // honest PQ buses at the limit.
        if new_mode == GenMode::Pv {
            pv_error = pv_error.max(err.abs());
        }
        // Whatever the mode, the solution just measured was computed
        // with the *previous* Q: an applied Q change means the
        // voltages are stale by about Δq·x_th/|V|, so a limit clamp
        // (which zeroes the set-point obligation) cannot declare
        // convergence before one consistent re-solve.
        let dv_stale = (state.q[gi] - q_before).abs() * x_th[gi] / vm.max(1.0);
        pv_error = pv_error.max(dv_stale);
    }
    (pv_error, limit_cycle)
}

/// Mutable outer-loop state: loop currents plus per-generator Q, mode
/// and flip counters. One per scenario in batched sweeps.
#[derive(Clone, Debug)]
pub struct MeshState {
    /// Loop (tie) current per break point, amperes, flowing a→b.
    pub j_loop: Vec<Complex>,
    /// Reactive output per generator, vars.
    pub q: Vec<f64>,
    /// Operating mode per generator.
    pub modes: Vec<GenMode>,
    /// PV↔PQ mode flips per generator.
    pub flips: Vec<u32>,
}

impl MeshState {
    /// Total mode flips across all generators.
    pub fn total_flips(&self) -> u32 {
        self.flips.iter().sum()
    }
}

/// What one [`MeshProblem::step`] measured and decided.
#[derive(Clone, Copy, Debug)]
pub struct OuterStep {
    /// `max_j |E_j|` before the update, volts.
    pub bp_residual: f64,
    /// Worst PV set-point error over PV-mode generators, volts.
    pub pv_error: f64,
    /// The Thevenin system was singular (degenerate tie impedances).
    pub singular: bool,
    /// Some generator exceeded its mode-flip budget this step.
    pub limit_cycle: bool,
}

impl OuterStep {
    /// The scalar the outer loop converges on.
    pub fn mismatch(&self) -> f64 {
        self.bp_residual.max(self.pv_error)
    }
}

/// The meshed/DG solver: an outer compensation loop wrapped around any
/// [`SweepBackend`].
pub struct MeshSolver<B> {
    backend: B,
    outer: OuterConfig,
    recorder: Option<Recorder>,
}

impl<B: SweepBackend> MeshSolver<B> {
    /// Wraps a radial backend with the default outer configuration.
    pub fn new(backend: B) -> Self {
        MeshSolver { backend, outer: OuterConfig::default(), recorder: None }
    }

    /// Sets the outer-loop configuration.
    pub fn with_outer(mut self, outer: OuterConfig) -> Self {
        self.outer = outer;
        self
    }

    /// Attaches a telemetry recorder: the inner solves emit their usual
    /// spans, and the outer loop adds `mesh.breakpoint_residual` samples
    /// plus a `solver.outer_iterations` histogram observation per solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Solves a weakly-meshed/DG network.
    pub fn solve(&mut self, net: &MeshedNetwork, cfg: &SolverConfig) -> MeshResult {
        let outer = self.outer;
        let rec = self.recorder.clone();
        let backend = &mut self.backend;
        let arrays = SolverArrays::new(net.tree());
        let mut a = arrays;
        drive_outer::<std::convert::Infallible>(net, cfg, &outer, rec.as_ref(), &mut |loads, warm| {
            a.s = a.levels.permute(loads);
            Ok(backend.solve_warm_arrays(&a, cfg, warm))
        })
        .unwrap_or_else(|e| match e {})
    }
}

/// Solves a weakly-meshed/DG network under the fault-tolerant
/// supervisor: every inner radial solve runs through
/// [`ResilientSolver::solve`], so checkpoint/rollback, certification and
/// GPU→CPU degradation compose with the outer loop unchanged. Fault
/// reports are accumulated across outer iterations.
pub fn solve_meshed_resilient(
    solver: &mut ResilientSolver,
    net: &MeshedNetwork,
    cfg: &SolverConfig,
    outer: &OuterConfig,
) -> Result<MeshResult, ResilienceError> {
    let tree = net.tree();
    let n = tree.num_buses();
    let source = tree.source_voltage();
    let branches: Vec<_> = tree.branches().to_vec();
    drive_outer(net, cfg, outer, None, &mut |loads, _warm| {
        // The supervisor owns its device sessions, so the outer loop
        // hands it a freshly patched network instead of raw arrays (and
        // forgoes warm starts — recovery certification assumes the flat
        // start is known clean).
        let mut b = NetworkBuilder::with_capacity(source, n);
        for &load in loads {
            b.add_bus(load);
        }
        for br in &branches {
            b.connect(br.from, br.to, br.z);
        }
        let patched = b.build().expect("patched tree keeps the validated topology");
        solver.solve(&patched, cfg)
    })
}

/// Inner-solve callback for [`drive_outer`]: compensated loads plus an
/// optional warm-start voltage profile.
type InnerSolve<'a, E> = dyn FnMut(&[Complex], Option<&[Complex]>) -> Result<SolveResult, E> + 'a;

/// The shared outer loop: repeatedly build compensated loads, run one
/// inner solve through `inner`, and apply [`MeshProblem::step`] until
/// the mismatch settles or fails structurally.
fn drive_outer<E>(
    net: &MeshedNetwork,
    cfg: &SolverConfig,
    outer: &OuterConfig,
    rec: Option<&Recorder>,
    inner: &mut InnerSolve<'_, E>,
) -> Result<MeshResult, E> {
    let tree = net.tree();
    let n = tree.num_buses();
    let v0 = tree.source_voltage();
    let problem = MeshProblem::new(net);
    let state = problem.initial_state();
    let obs = Obs::new(rec, "solver.mesh");

    if cfg.validate().is_err() || !outer.is_valid() {
        let inner_res = crate::report::invalid_config_result(n, v0);
        return Ok(finish(inner_res, SolveStatus::InvalidConfig, OuterStatus::Radial, 0, &state, 0.0, 0.0, rec));
    }

    // No loops, no generators: one plain inner solve, zero outer overhead.
    if problem.num_loops() == 0 && problem.num_gens() == 0 {
        let res = inner(&problem.base, None)?;
        let status = res.status;
        return Ok(finish(res, status, OuterStatus::Radial, 0, &state, 0.0, 0.0, rec));
    }

    let tol_v = outer.tol_rel * v0.abs();
    let cap_v = cfg.divergence_cap_volts(v0.abs());
    let mut state = state;
    let mut v: Vec<Complex> = vec![v0; n];
    let mut total = Timing::default();
    let mut total_inner_iters = 0u32;
    let mut faults = FaultAccumulator::default();
    let mut last: Option<SolveResult> = None;
    let mut prev_mismatch = f64::INFINITY;
    let mut growth = 0u32;
    let mut outcome: Option<(SolveStatus, OuterStatus)> = None;
    let mut step = OuterStep { bp_residual: 0.0, pv_error: 0.0, singular: false, limit_cycle: false };
    let mut outer_iters = 0u32;

    for it in 1..=outer.max_outer {
        outer_iters = it;
        let loads = problem.loads(&state, &v, 1.0);
        let warm = (it > 1).then_some(v.as_slice());
        let res = inner(&loads, warm)?;
        accumulate(&mut total, &res.timing);
        total_inner_iters += res.iterations;
        faults.fold(res.fault_report.as_ref());
        if !res.status.is_converged() {
            let status = res.status;
            outcome = Some((status, OuterStatus::InnerFailed { at_outer: it }));
            last = Some(res);
            break;
        }
        v.copy_from_slice(&res.v);
        step = problem.step(&mut state, &v, outer);
        obs.phase("outer", total.total_us(), total.total_us());
        if let Some(r) = rec {
            r.counter_sample("mesh.breakpoint_residual", total.total_us(), step.bp_residual);
        }
        let m = step.mismatch();
        last = Some(res);
        if step.singular || !m.is_finite() || m > cap_v {
            outcome = Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::Diverged { at_outer: it },
            ));
            break;
        }
        if step.limit_cycle {
            outcome = Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::LimitCycle { at_outer: it },
            ));
            break;
        }
        if m <= tol_v {
            let status = last.as_ref().expect("an inner solve just ran").status;
            outcome = Some((status, OuterStatus::Converged { outer_iterations: it }));
            break;
        }
        growth = if m > prev_mismatch { growth + 1 } else { 0 };
        if growth >= outer.patience {
            outcome = Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::Diverged { at_outer: it },
            ));
            break;
        }
        prev_mismatch = m;
    }

    let (status, outer_status) =
        outcome.unwrap_or((SolveStatus::MaxIterations, OuterStatus::MaxOuterIterations));
    let mut res = last.expect("max_outer >= 1 guarantees at least one inner solve");
    res.timing = total;
    res.iterations = total_inner_iters;
    faults.fold(None); // no-op; keeps the accumulator used symmetrically
    if let Some(fr) = faults.into_report() {
        res.fault_report = Some(fr);
    }
    Ok(finish(res, status, outer_status, outer_iters, &state, step.bp_residual, step.pv_error, rec))
}

#[allow(clippy::too_many_arguments)]
fn finish(
    inner: SolveResult,
    status: SolveStatus,
    outer_status: OuterStatus,
    outer_iterations: u32,
    state: &MeshState,
    breakpoint_residual: f64,
    pv_error: f64,
    rec: Option<&Recorder>,
) -> MeshResult {
    if let Some(r) = rec {
        r.observe("solver.outer_iterations", f64::from(outer_iterations));
    }
    MeshResult {
        inner,
        status,
        outer_status,
        outer_iterations,
        breakpoint_residual,
        pv_error,
        loop_currents: state.j_loop.clone(),
        q_gen: state.q.clone(),
        gen_modes: state.modes.clone(),
        mode_flips: state.total_flips(),
    }
}

/// Sums inner-solve timings so the final [`MeshResult`] reports the cost
/// of the whole outer loop, not just its last inner solve.
fn accumulate(total: &mut Timing, t: &Timing) {
    total.phases.setup_us += t.phases.setup_us;
    total.phases.injection_us += t.phases.injection_us;
    total.phases.backward_us += t.phases.backward_us;
    total.phases.forward_us += t.phases.forward_us;
    total.phases.convergence_us += t.phases.convergence_us;
    total.phases.teardown_us += t.phases.teardown_us;
    total.transfer_us += t.transfer_us;
    total.transfer_sweep_us += t.transfer_sweep_us;
    total.wall_us += t.wall_us;
}

/// Accumulates fault reports across the outer loop's inner solves.
#[derive(Default)]
struct FaultAccumulator {
    report: Option<FaultReport>,
}

impl FaultAccumulator {
    fn fold(&mut self, fr: Option<&FaultReport>) {
        let Some(fr) = fr else { return };
        let acc = self.report.get_or_insert_with(FaultReport::default);
        acc.faults_injected += fr.faults_injected;
        acc.rollbacks += fr.rollbacks;
        acc.retries += fr.retries;
        acc.checkpoints += fr.checkpoints;
        acc.checkpoint_us += fr.checkpoint_us;
        acc.corruptions_detected += fr.corruptions_detected;
        for b in &fr.backends {
            if acc.backends.last() != Some(b) {
                acc.backends.push(b.clone());
            }
        }
    }

    fn into_report(self) -> Option<FaultReport> {
        self.report
    }
}

/// Result of one tensor-batched DG-scale sweep ([`solve_dg_batch`]).
#[derive(Clone, Debug)]
pub struct DgBatchResult {
    /// Per-scenario bus voltages, `[scenario][bus id]`, from each
    /// scenario's final inner solve.
    pub v: Vec<Vec<Complex>>,
    /// Per-scenario overall status (same mapping as [`MeshResult`]).
    pub statuses: Vec<SolveStatus>,
    /// Per-scenario outer outcome.
    pub outer_statuses: Vec<OuterStatus>,
    /// Per-scenario outer iterations until convergence (or failure).
    pub outer_iterations: Vec<u32>,
    /// Per-scenario final reactive output per generator, vars.
    pub q_gen: Vec<Vec<f64>>,
    /// Per-scenario final operating mode per generator.
    pub gen_modes: Vec<Vec<GenMode>>,
    /// Outer (batched inner solve) rounds actually run.
    pub outer_rounds: u32,
    /// Total modeled time across all batched inner rounds, µs.
    pub total_us: f64,
    /// Modeled throughput: scenarios per modeled device second, over
    /// the *whole* outer loop.
    pub scenarios_per_sec: f64,
}

impl DgBatchResult {
    /// Whether every scenario converged.
    pub fn converged(&self) -> bool {
        self.statuses.iter().all(|s| s.is_converged())
    }

    /// The most severe scenario outcome.
    pub fn worst_status(&self) -> SolveStatus {
        self.statuses.iter().fold(SolveStatus::Converged, |w, &s| w.worse(s))
    }
}

/// Solves a family of DG-penetration scenarios of one weakly-meshed
/// network on the tensor-batched solver: scenario `s` runs the network
/// with every generator's active output scaled by `dg_scales[s]`
/// (`0.0` = no DG, `1.0` = nameplate). All scenarios share one outer
/// loop over a resident [`TensorOuterSession`]: the topology and the
/// per-scenario load slab are uploaded once, each outer round is a
/// *single* batched inner solve that re-iterates from the resident
/// voltages, and between rounds only the sparse load corrections
/// (generator buses and break-point endpoints) and the probe-bus
/// voltages cross the transfer link — so the per-scenario cost is the
/// amortized sweep cost, not a serial outer-loop re-solve and not a
/// per-round slab re-upload. This is the E17 headline path.
///
/// Scenarios that settle (or fail) retire from the batch: their
/// resident state freezes at the deciding round and later sweeps skip
/// them entirely. Device faults are absorbed by the session (rebuild
/// within the recovery budget, serial fallback past it), so `Err`
/// never escapes in practice; the signature keeps the `Result` for
/// call-site stability.
pub fn solve_dg_batch(
    tbs: &mut TensorBatchSolver,
    net: &MeshedNetwork,
    dg_scales: &[f64],
    cfg: &SolverConfig,
    outer: &OuterConfig,
) -> Result<DgBatchResult, simt::DeviceError> {
    let tree = net.tree();
    let n = tree.num_buses();
    let v0 = tree.source_voltage();
    let nb = dg_scales.len();
    assert!(nb >= 1, "batch must contain at least one scenario");
    let problem = MeshProblem::new(net);
    let arrays = SolverArrays::new(tree);

    if cfg.validate().is_err() || !outer.is_valid() {
        return Ok(DgBatchResult {
            v: vec![vec![v0; n]; nb],
            statuses: vec![SolveStatus::InvalidConfig; nb],
            outer_statuses: vec![OuterStatus::Radial; nb],
            outer_iterations: vec![0; nb],
            q_gen: vec![vec![0.0; problem.num_gens()]; nb],
            gen_modes: vec![vec![GenMode::Pv; problem.num_gens()]; nb],
            outer_rounds: 0,
            total_us: 0.0,
            scenarios_per_sec: 0.0,
        });
    }

    let tol_v = outer.tol_rel * v0.abs();
    let cap_v = cfg.divergence_cap_volts(v0.abs());
    let mut states: Vec<MeshState> = (0..nb).map(|_| problem.initial_state()).collect();
    let mut v: Vec<Vec<Complex>> = vec![vec![v0; n]; nb];
    let mut outcome: Vec<Option<(SolveStatus, OuterStatus)>> = vec![None; nb];
    let mut outer_iters = vec![0u32; nb];
    let mut prev_mismatch = vec![f64::INFINITY; nb];
    let mut growth = vec![0u32; nb];
    let mut rounds = 0u32;

    // The outer driver only ever reads voltages at generator buses and
    // break-point endpoints ([`MeshProblem::step`]/[`loads`]), so those
    // are the only buses the session reads back between rounds.
    let mut probe_set = std::collections::BTreeSet::new();
    for g in net.generators() {
        probe_set.insert(g.bus);
    }
    for bp in net.break_points() {
        probe_set.insert(bp.a);
        probe_set.insert(bp.b);
    }
    let probes: Vec<usize> = probe_set.into_iter().collect();

    // One cheap serial solve of the base tree seeds every scenario's
    // first batched round: the DG/compensation corrections only move a
    // handful of loads off the base case, so the whole family starts a
    // few iterations from its fixed points instead of a cold sweep
    // away. The pre-solve is charged to the batch total.
    let base = SerialSolver::new(HostProps::paper_rig()).solve_warm(&arrays, cfg, None);
    let warm = base.status.is_converged().then_some(base.v);
    let mut total_us = base.timing.total_us();

    let chunk = tbs.chunk_capacity().max(1);
    let mut start = 0;
    while start < nb {
        let end = (start + chunk).min(nb);
        let width = end - start;
        let mut loads: Vec<Vec<Complex>> = (start..end)
            .map(|s| problem.loads(&states[s], &v[s], dg_scales[s]))
            .collect();
        let mut session = tbs.outer_session(&arrays, &loads, &probes, warm.as_deref(), cfg);
        let mut live = width;

        // Inexact-outer tolerance ladder: rounds far from outer
        // convergence only feed the compensation/PV correction, so
        // their inner solves stop at a loose tolerance; once the worst
        // live mismatch closes to within 100× the outer tolerance the
        // rounds run tight. Convergence is only ever declared off a
        // tight round, so the answer is exactly as converged as before
        // — the ladder saves iterations, not accuracy.
        let loose_cfg =
            SolverConfig { tol_rel: cfg.tol_rel.clamp(1e-4, 1e-2), ..*cfg };
        let ladder = loose_cfg.tol_rel > cfg.tol_rel;
        let mut worst_live = f64::INFINITY;

        for it in 1..=outer.max_outer {
            if live == 0 {
                break;
            }
            rounds = rounds.max(it);
            let tight = !ladder || worst_live <= 100.0 * tol_v;
            // Each round re-iterates from the resident voltages — the
            // compensation/PV update only nudged a handful of loads, so
            // the re-solve needs a few iterations, not the cold count.
            let round = session.solve_round(if tight { cfg } else { &loose_cfg });
            let mut next_worst = 0.0f64;
            let mut updates = Vec::new();
            #[allow(clippy::needless_range_loop)] // ls indexes four parallel arrays
            for ls in 0..width {
                let s = start + ls;
                if outcome[s].is_some() {
                    continue;
                }
                outer_iters[s] = it;
                if !round.statuses[ls].is_converged() {
                    outcome[s] =
                        Some((round.statuses[ls], OuterStatus::InnerFailed { at_outer: it }));
                    session.retire(ls);
                    live -= 1;
                    continue;
                }
                for (k, &bus) in probes.iter().enumerate() {
                    v[s][bus] = round.probe_v[ls][k];
                }
                let step = problem.step(&mut states[s], &v[s], outer);
                let m = step.mismatch();
                if step.singular || !m.is_finite() || m > cap_v {
                    outcome[s] = Some((
                        SolveStatus::OuterDiverged { at_outer: it },
                        OuterStatus::Diverged { at_outer: it },
                    ));
                    session.retire(ls);
                    live -= 1;
                    continue;
                }
                if step.limit_cycle {
                    outcome[s] = Some((
                        SolveStatus::OuterDiverged { at_outer: it },
                        OuterStatus::LimitCycle { at_outer: it },
                    ));
                    session.retire(ls);
                    live -= 1;
                    continue;
                }
                if tight && m <= tol_v {
                    outcome[s] = Some((
                        round.statuses[ls],
                        OuterStatus::Converged { outer_iterations: it },
                    ));
                    session.retire(ls);
                    live -= 1;
                    continue;
                }
                growth[s] = if m > prev_mismatch[s] { growth[s] + 1 } else { 0 };
                if growth[s] >= outer.patience {
                    outcome[s] = Some((
                        SolveStatus::OuterDiverged { at_outer: it },
                        OuterStatus::Diverged { at_outer: it },
                    ));
                    session.retire(ls);
                    live -= 1;
                    continue;
                }
                prev_mismatch[s] = m;
                next_worst = next_worst.max(m);
                // Ship only the loads the outer step actually moved —
                // generator buses and break-point endpoints.
                let fresh = problem.loads(&states[s], &v[s], dg_scales[s]);
                for (bus, (&old, &new)) in loads[ls].iter().zip(&fresh).enumerate() {
                    if old != new {
                        updates.push((ls, bus, new));
                    }
                }
                loads[ls] = fresh;
            }
            worst_live = next_worst;
            session.update_loads(&updates);
        }

        let report = session.finish(cfg);
        total_us += report.total_us;
        for (ls, vs) in report.v.into_iter().enumerate() {
            v[start + ls] = vs;
        }
        start = end;
    }

    let (statuses, outer_statuses): (Vec<_>, Vec<_>) = outcome
        .into_iter()
        .map(|o| o.unwrap_or((SolveStatus::MaxIterations, OuterStatus::MaxOuterIterations)))
        .unzip();
    let scenarios_per_sec =
        if total_us > 0.0 { nb as f64 / (total_us * 1e-6) } else { 0.0 };
    Ok(DgBatchResult {
        v,
        statuses,
        outer_statuses,
        outer_iterations: outer_iters,
        q_gen: states.iter().map(|st| st.q.clone()).collect(),
        gen_modes: states.iter().map(|st| st.modes.clone()).collect(),
        outer_rounds: rounds,
        total_us,
        scenarios_per_sec,
    })
}

/// Result of one three-phase DG solve ([`solve3_dg`]). Three-phase
/// networks are radial by construction, so only the PV-bus half of the
/// outer loop engages — no break points, no loop currents.
#[derive(Clone, Debug)]
pub struct Mesh3Result {
    /// The final inner three-phase solve (per-bus phase voltages and
    /// currents, timing/iterations accumulated over every inner solve).
    pub inner: Solve3Result,
    /// Overall status (same mapping as [`MeshResult::status`]).
    pub status: SolveStatus,
    /// How the outer loop ended.
    pub outer_status: OuterStatus,
    /// Outer iterations run (0 for a generator-free network).
    pub outer_iterations: u32,
    /// Final worst PV set-point error over PV-mode generators, volts.
    pub pv_error: f64,
    /// Final reactive output per generator (total over the three
    /// phases), vars.
    pub q_gen: Vec<f64>,
    /// Final operating mode per generator.
    pub gen_modes: Vec<GenMode>,
    /// Total PV↔PQ mode flips across all generators.
    pub mode_flips: u32,
}

impl Mesh3Result {
    /// `true` when the overall status met the tolerance.
    pub fn converged(&self) -> bool {
        self.status.is_converged()
    }
}

/// A three-phase sweep backend the DG outer loop can drive. Implemented
/// by [`Serial3Solver`] and [`Gpu3Solver`]; [`Resilient3Solver`] has its
/// own entry point ([`solve3_dg_resilient`]) because it owns device
/// lifetimes and returns `Result`.
pub trait Sweep3Backend {
    /// Backend name for reports.
    fn name(&self) -> &'static str;
    /// One inner three-phase solve over prepared arrays.
    fn solve3_arrays(&mut self, a: &Arrays3, cfg: &SolverConfig) -> Solve3Result;
}

impl Sweep3Backend for Serial3Solver {
    fn name(&self) -> &'static str {
        "serial3"
    }
    fn solve3_arrays(&mut self, a: &Arrays3, cfg: &SolverConfig) -> Solve3Result {
        self.solve_arrays(a, cfg)
    }
}

impl Sweep3Backend for Gpu3Solver {
    fn name(&self) -> &'static str {
        "gpu3"
    }
    fn solve3_arrays(&mut self, a: &Arrays3, cfg: &SolverConfig) -> Solve3Result {
        self.solve_arrays(a, cfg)
    }
}

/// Solves a three-phase network with distributed generators: the PV-bus
/// outer loop around any [`Sweep3Backend`]. A generator is balanced —
/// `p_gen` and the dispatched Q split equally across the phases, and the
/// set-point regulates the *mean* phase magnitude (regulators on real
/// feeders act on an average or a single monitored phase; the mean keeps
/// the control scalar smooth under unbalance).
pub fn solve3_dg<B: Sweep3Backend>(
    backend: &mut B,
    net: &ThreePhaseNetwork,
    cfg: &SolverConfig,
    outer: &OuterConfig,
    rec: Option<&Recorder>,
) -> Mesh3Result {
    let mut a = Arrays3::new(net);
    drive_outer3::<std::convert::Infallible>(net, cfg, outer, rec, &mut |loads| {
        a.s = a.levels.permute(loads);
        Ok(backend.solve3_arrays(&a, cfg))
    })
    .unwrap_or_else(|e| match e {})
}

/// Solves a three-phase DG network under the fault-tolerant supervisor:
/// every inner solve runs through [`Resilient3Solver::solve`], so
/// recovery and degradation compose with the PV outer loop unchanged.
pub fn solve3_dg_resilient(
    solver: &mut Resilient3Solver,
    net: &ThreePhaseNetwork,
    cfg: &SolverConfig,
    outer: &OuterConfig,
) -> Result<Mesh3Result, ResilienceError> {
    let source = net.source_voltage();
    let branches: Vec<_> = net.branches().to_vec();
    drive_outer3(net, cfg, outer, None, &mut |loads| {
        // The supervisor takes a network, not arrays: hand it a patched
        // copy with the generators folded into the loads (and no `gen`
        // records, so the patched net is an honest PQ-only feeder).
        let mut b = ThreePhaseBuilder::new(source);
        for &load in loads {
            b.add_bus(load);
        }
        for br in &branches {
            b.connect(br.from, br.to, br.z);
        }
        let patched = b.build().expect("patched feeder keeps the validated topology");
        solver.solve(&patched, cfg)
    })
}

/// The three-phase outer loop: PV control only (three-phase networks are
/// radial, so there is nothing to compensate). Shares the mode machine,
/// hysteresis, stale-voltage accounting and limit-cycle budget with the
/// single-phase loop through [`pv_step`].
fn drive_outer3<E>(
    net: &ThreePhaseNetwork,
    cfg: &SolverConfig,
    outer: &OuterConfig,
    rec: Option<&Recorder>,
    inner: &mut dyn FnMut(&[CVec3]) -> Result<Solve3Result, E>,
) -> Result<Mesh3Result, E> {
    let n = net.num_buses();
    let v0 = net.source_voltage();
    let v0m = mean_phase_mag(v0);
    let gens: Vec<PvBus> = net.generators().to_vec();
    let base: Vec<CVec3> = net.buses().iter().map(|b| b.load).collect();
    let obs = Obs::new(rec, "solver.mesh3");

    let mut state = MeshState {
        j_loop: Vec::new(),
        q: gens.iter().map(|g| 0.0f64.clamp(g.q_min, g.q_max)).collect(),
        modes: vec![GenMode::Pv; gens.len()],
        flips: vec![0; gens.len()],
    };

    if cfg.validate().is_err() || !outer.is_valid() {
        let inner_res = crate::three_phase::invalid_config_result3(n, v0);
        return Ok(finish3(inner_res, SolveStatus::InvalidConfig, OuterStatus::Radial, 0, &state, 0.0, rec));
    }

    // No generators: one plain inner solve, zero outer overhead.
    if gens.is_empty() {
        let res = inner(&base)?;
        let status = res.status;
        return Ok(finish3(res, status, OuterStatus::Radial, 0, &state, 0.0, rec));
    }

    // Mean-diagonal root-path reactance per generator, divided by 3:
    // the dispatched Q splits equally across the phases, so the mean
    // phase magnitude moves by `(q/3)·x̄/|V|` per unit of *total* Q —
    // the balanced analogue of the single-phase `x_th` sensitivity.
    let x_th: Vec<f64> = gens
        .iter()
        .map(|g| {
            let mut x = 0.0;
            let mut b = g.bus;
            while let Some(br) = net.parent_branch(b) {
                x += (br.z.m[0][0].im + br.z.m[1][1].im + br.z.m[2][2].im) / 3.0;
                b = br.from;
            }
            (x / 3.0).max(1e-9)
        })
        .collect();

    let tol_v = outer.tol_rel * v0m;
    let cap_v = cfg.divergence_cap_volts(v0m);
    let mut total = Timing::default();
    let mut total_inner_iters = 0u32;
    let mut last: Option<Solve3Result> = None;
    let mut prev_mismatch = f64::INFINITY;
    let mut growth = 0u32;
    let mut outcome: Option<(SolveStatus, OuterStatus)> = None;
    let mut pv_error = 0.0;
    let mut outer_iters = 0u32;

    for it in 1..=outer.max_outer {
        outer_iters = it;
        let loads: Vec<CVec3> = {
            let mut l = base.clone();
            for (gi, g) in gens.iter().enumerate() {
                let s_phase = c(g.p_gen, state.q[gi]) / 3.0;
                let inj = CVec3 { a: s_phase, b: s_phase, c: s_phase };
                l[g.bus] -= inj;
            }
            l
        };
        let res = inner(&loads)?;
        accumulate(&mut total, &res.timing);
        total_inner_iters += res.iterations;
        if !res.status.is_converged() {
            let status = res.status;
            outcome = Some((status, OuterStatus::InnerFailed { at_outer: it }));
            last = Some(res);
            break;
        }
        let vm: Vec<f64> = gens.iter().map(|g| mean_phase_mag(res.v[g.bus])).collect();
        let (err, limit_cycle) = pv_step(&gens, &x_th, &mut state, &vm, outer);
        pv_error = err;
        obs.phase("outer", total.total_us(), total.total_us());
        last = Some(res);
        if !err.is_finite() || err > cap_v {
            outcome = Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::Diverged { at_outer: it },
            ));
            break;
        }
        if limit_cycle {
            outcome = Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::LimitCycle { at_outer: it },
            ));
            break;
        }
        if err <= tol_v {
            let status = last.as_ref().expect("an inner solve just ran").status;
            outcome = Some((status, OuterStatus::Converged { outer_iterations: it }));
            break;
        }
        growth = if err > prev_mismatch { growth + 1 } else { 0 };
        if growth >= outer.patience {
            outcome = Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::Diverged { at_outer: it },
            ));
            break;
        }
        prev_mismatch = err;
    }

    let (status, outer_status) =
        outcome.unwrap_or((SolveStatus::MaxIterations, OuterStatus::MaxOuterIterations));
    let mut res = last.expect("max_outer >= 1 guarantees at least one inner solve");
    res.timing = total;
    res.iterations = total_inner_iters;
    Ok(finish3(res, status, outer_status, outer_iters, &state, pv_error, rec))
}

fn finish3(
    inner: Solve3Result,
    status: SolveStatus,
    outer_status: OuterStatus,
    outer_iterations: u32,
    state: &MeshState,
    pv_error: f64,
    rec: Option<&Recorder>,
) -> Mesh3Result {
    if let Some(r) = rec {
        r.observe("solver.outer_iterations", f64::from(outer_iterations));
    }
    Mesh3Result {
        inner,
        status,
        outer_status,
        outer_iterations,
        pv_error,
        q_gen: state.q.clone(),
        gen_modes: state.modes.clone(),
        mode_flips: state.total_flips(),
    }
}

/// Mean phase-voltage magnitude (the three-phase PV control scalar).
fn mean_phase_mag(v: CVec3) -> f64 {
    (v.a.abs() + v.b.abs() + v.c.abs()) / 3.0
}

/// Branch impedance sum from `bus` up to the root (the PV sensitivity
/// path).
fn root_path_impedance(tree: &RadialNetwork, bus: usize) -> Complex {
    let mut z = Complex::ZERO;
    let mut b = bus;
    while let Some(br) = tree.parent_branch(b) {
        z += br.z;
        b = tree.parent(b).expect("a bus with a parent branch has a parent");
    }
    z
}

/// Bus ids (each identifying its parent branch) on the path from `bus`
/// up to — excluding — the root.
fn root_path(tree: &RadialNetwork, bus: usize) -> Vec<usize> {
    let mut path = Vec::new();
    let mut b = bus;
    while tree.parent_branch(b).is_some() {
        path.push(b);
        b = tree.parent(b).expect("a bus with a parent branch has a parent");
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Backend;
    use numc::{approx_eq_eps, CMat3};
    use powergrid::ieee::ieee123_dg;
    use powergrid::{MeshedNetworkBuilder, PvBus};
    use simt::{Device, DeviceProps, FaultPlan, HostProps};

    fn serial_mesh() -> MeshSolver<SerialSolver> {
        MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
    }

    /// Root 0 — 1 — 2 ladder with a closed tie 2→0: one loop.
    fn ladder_loop(load2: Complex) -> MeshedNetwork {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(Complex::ZERO);
        b.add_bus(load2);
        b.connect(0, 1, c(1.0, 0.5));
        b.connect(1, 2, c(1.0, 0.5));
        b.tie(2, 0, c(0.5, 0.25), true);
        b.build().unwrap()
    }

    #[test]
    fn thevenin_matrix_matches_hand_computed_single_loop() {
        let net = ladder_loop(c(10_000.0, 2_000.0));
        let p = MeshProblem::new(&net);
        assert_eq!(p.num_loops(), 1);
        // Loop impedance = tree path (z01 + z12) + tie impedance.
        let want = c(1.0, 0.5) + c(1.0, 0.5) + c(0.5, 0.25);
        assert!((p.thevenin()[0] - want).abs() < 1e-12, "{:?}", p.thevenin());
    }

    #[test]
    fn thevenin_matrix_is_bitwise_reproducible() {
        // Every build sums the loop paths in the same order: 20 builds
        // in one process (each with fresh per-map state, were the sums
        // ordered by a hash) give identical bits.
        let net = ieee123_dg();
        let first = MeshProblem::new(&net);
        assert!(first.num_loops() > 1, "needs off-diagonal sums");
        let bits = |p: &MeshProblem| -> Vec<(u64, u64)> {
            p.thevenin().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for _ in 0..20 {
            assert_eq!(bits(&MeshProblem::new(&net)), bits(&first));
        }
    }

    #[test]
    fn radial_network_is_passed_through_bitwise() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(5_000.0, 1_000.0));
        b.add_bus(c(2_000.0, 500.0));
        b.connect(0, 1, c(1.0, 0.5));
        b.connect(1, 2, c(1.0, 0.5));
        b.tie(2, 0, c(0.5, 0.25), false); // open tie: inert
        let net = b.build().unwrap();
        let cfg = SolverConfig::default();
        let res = serial_mesh().solve(&net, &cfg);
        assert_eq!(res.outer_status, OuterStatus::Radial);
        assert_eq!(res.outer_iterations, 0);
        let radial = SerialSolver::new(HostProps::paper_rig()).solve(net.tree(), &cfg);
        assert_eq!(res.inner.v, radial.v, "no loops and no gens must be the plain solve");
        assert_eq!(res.inner.iterations, radial.iterations);
    }

    #[test]
    fn closed_tie_supports_the_remote_bus_voltage() {
        let net = ladder_loop(c(10_000.0, 2_000.0));
        let cfg = SolverConfig::default();
        let res = serial_mesh().solve(&net, &cfg);
        assert!(res.converged(), "got {}", res.status);
        assert!(matches!(res.outer_status, OuterStatus::Converged { .. }));
        // KVL across the (virtually closed) tie must hold.
        let jt = res.loop_currents[0];
        let e = res.inner.v[2] - res.inner.v[0] - c(0.5, 0.25) * jt;
        assert!(e.abs() <= 2.0 * 1e-6 * 1000.0, "tie KVL violated: |E| = {}", e.abs());
        assert!(jt.abs() > 1.0, "the tie must actually carry current");
        // The second feed path raises the loaded bus's voltage.
        let radial = SerialSolver::new(HostProps::paper_rig()).solve(net.tree(), &cfg);
        assert!(res.inner.v[2].abs() > radial.v[2].abs() + 0.1);
    }

    #[test]
    fn pv_generator_with_wide_limits_holds_its_set_point() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.add_bus(c(10_000.0, 3_000.0));
        b.connect(0, 1, c(1.0, 0.8));
        b.connect(1, 2, c(1.0, 0.8));
        b.generator(PvBus { bus: 2, p_gen: 5_000.0, v_set: 985.0, q_min: -1e6, q_max: 1e6 });
        let net = b.build().unwrap();
        let res = serial_mesh().solve(&net, &SolverConfig::default());
        assert!(res.converged(), "got {}", res.status);
        assert_eq!(res.gen_modes[0], GenMode::Pv);
        assert!(
            (res.inner.v[2].abs() - 985.0).abs() < 1e-2,
            "|V| = {} must sit at the set-point",
            res.inner.v[2].abs()
        );
        assert!(res.q_gen[0].abs() > 1.0, "holding the set-point takes real vars");
    }

    #[test]
    fn clamped_generator_behaves_as_pq_at_the_limit() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.add_bus(c(10_000.0, 3_000.0));
        b.connect(0, 1, c(1.0, 0.8));
        b.connect(1, 2, c(1.0, 0.8));
        // The set-point needs far more vars than the limit allows.
        let q_max = 2_000.0;
        b.generator(PvBus { bus: 2, p_gen: 5_000.0, v_set: 995.0, q_min: -2_000.0, q_max });
        let net = b.build().unwrap();
        // Tight tolerances: once clamped the gen is *exactly* a PQ load,
        // so the only daylight between the two solves is solver tolerance.
        let mut cfg = SolverConfig::default();
        cfg.tol_rel = 1e-13;
        let res = serial_mesh()
            .with_outer(OuterConfig::default().with_tol(1e-12))
            .solve(&net, &cfg);
        assert!(res.converged(), "got {}", res.status);
        assert_eq!(res.gen_modes[0], GenMode::ClampedMax);
        assert_eq!(res.q_gen[0], q_max);
        assert!(res.inner.v[2].abs() < 995.0, "a clamped gen cannot reach the set-point");

        // Reference: the identical network with the generator replaced
        // by an explicit PQ load drawing (−p_gen, −q_max).
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.add_bus(c(10_000.0, 3_000.0) - c(5_000.0, q_max));
        b.connect(0, 1, c(1.0, 0.8));
        b.connect(1, 2, c(1.0, 0.8));
        let pq_net = b.build().unwrap();
        let pq = SerialSolver::new(HostProps::paper_rig()).solve(pq_net.tree(), &cfg);
        for (a, b) in res.inner.v.iter().zip(&pq.v) {
            assert!((*a - *b).abs() < 1e-9 * 1000.0, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn exhausted_flip_budget_is_a_structural_limit_cycle() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.connect(0, 1, c(1.0, 0.8));
        b.generator(PvBus { bus: 1, p_gen: 0.0, v_set: 995.0, q_min: -3_000.0, q_max: 3_000.0 });
        let net = b.build().unwrap();
        // A zero flip budget turns the first clamp into a limit cycle:
        // the structural-failure path, exit code 9.
        let outer = OuterConfig { max_mode_flips: 0, ..OuterConfig::default() };
        let res = serial_mesh().with_outer(outer).solve(&net, &SolverConfig::default());
        assert!(matches!(res.outer_status, OuterStatus::LimitCycle { .. }), "{}", res.outer_status);
        assert!(matches!(res.status, SolveStatus::OuterDiverged { .. }));
        assert_eq!(res.status.exit_code(), 9);
        assert!(res.status.is_failure());
    }

    #[test]
    fn all_backends_agree_on_ieee123_dg() {
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let serial = serial_mesh().solve(&net, &cfg);
        assert!(serial.converged(), "serial: {}", serial.status);
        assert!(serial.outer_iterations >= 2, "loops + DG must engage the outer loop");
        assert!(serial.loop_currents.iter().any(|j| j.abs() > 0.01));

        let mut mc = MeshSolver::new(MulticoreSolver::new(HostProps::paper_rig(), 8));
        let m = mc.solve(&net, &cfg);
        assert!(m.converged(), "multicore: {}", m.status);

        let mut gpu = MeshSolver::new(GpuSolver::new(Device::new(DeviceProps::paper_rig())));
        let g = gpu.solve(&net, &cfg);
        assert!(g.converged(), "gpu: {}", g.status);

        let scale = net.tree().source_voltage().abs();
        for i in 0..net.tree().num_buses() {
            assert!(
                (serial.inner.v[i] - m.inner.v[i]).abs() <= 1e-9 * scale,
                "serial vs multicore at bus {i}"
            );
            assert!(
                (serial.inner.v[i] - g.inner.v[i]).abs() <= 1e-9 * scale,
                "serial vs gpu at bus {i}"
            );
        }
        for (a, b) in serial.q_gen.iter().zip(&m.q_gen) {
            assert!(approx_eq_eps(*a, *b, 1e-6, 1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn invalid_configs_are_reported_not_run() {
        let net = ladder_loop(c(1_000.0, 0.0));
        let mut cfg = SolverConfig::default();
        cfg.max_iter = 0;
        let res = serial_mesh().solve(&net, &cfg);
        assert_eq!(res.status, SolveStatus::InvalidConfig);
        let bad_outer = OuterConfig { tol_rel: f64::NAN, ..OuterConfig::default() };
        let res = serial_mesh().with_outer(bad_outer).solve(&net, &SolverConfig::default());
        assert_eq!(res.status, SolveStatus::InvalidConfig);
    }

    #[test]
    fn resilient_mesh_solve_composes_with_fault_recovery() {
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let outer = OuterConfig::default();
        let reference = serial_mesh().solve(&net, &cfg);
        assert!(reference.converged());

        // Fault-free supervisor run matches the plain mesh solve.
        let mut clean =
            ResilientSolver::new(Backend::Gpu, DeviceProps::paper_rig(), HostProps::paper_rig());
        let res = solve_meshed_resilient(&mut clean, &net, &cfg, &outer).unwrap();
        assert!(res.converged(), "got {}", res.status);
        let scale = net.tree().source_voltage().abs();
        for (a, b) in res.inner.v.iter().zip(&reference.inner.v) {
            assert!((*a - *b).abs() <= 1e-6 * scale, "{a:?} vs {b:?}");
        }

        // Seeded faults: the answer must still match, with the recovery
        // visible in the accumulated fault report.
        let mut faulty =
            ResilientSolver::new(Backend::Gpu, DeviceProps::paper_rig(), HostProps::paper_rig())
                .with_fault_plan(FaultPlan::seeded(20260808, 0.01));
        let res = solve_meshed_resilient(&mut faulty, &net, &cfg, &outer).unwrap();
        assert!(res.converged(), "got {}", res.status);
        for (a, b) in res.inner.v.iter().zip(&reference.inner.v) {
            assert!((*a - *b).abs() <= 1e-6 * scale, "{a:?} vs {b:?}");
        }
        let fr = res.inner.fault_report.as_ref().expect("faulted run carries a report");
        assert!(fr.faults_injected > 0);
    }

    #[test]
    fn batched_dg_sweep_matches_serial_outer_loop_per_scenario() {
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let outer = OuterConfig::default();
        let scales = [0.0, 0.5, 1.0, 1.5];
        let mut tbs = TensorBatchSolver::new(Device::paper_rig());
        let batch = solve_dg_batch(&mut tbs, &net, &scales, &cfg, &outer).unwrap();
        assert!(batch.converged(), "worst: {}", batch.worst_status());
        assert!(batch.scenarios_per_sec > 0.0);

        let scale_v = net.tree().source_voltage().abs();
        for (s, &dg) in scales.iter().enumerate() {
            // Serial reference: the same scenario as a standalone meshed
            // network with scaled generator output.
            let mut b = MeshedNetworkBuilder::new(net.tree().source_voltage());
            for bus in net.tree().buses() {
                b.add_bus(bus.load);
            }
            for br in net.tree().branches() {
                b.connect(br.from, br.to, br.z);
            }
            for bp in net.break_points() {
                b.tie(bp.a, bp.b, bp.z, true);
            }
            for t in net.ties() {
                if !t.closed {
                    b.tie(t.from, t.to, t.z, false);
                }
            }
            for g in net.generators() {
                b.generator(PvBus { p_gen: g.p_gen * dg, ..*g });
            }
            let scen = b.build().unwrap();
            let serial = serial_mesh().with_outer(outer).solve(&scen, &cfg);
            assert!(serial.converged(), "scenario {s}: {}", serial.status);
            for i in 0..scen.tree().num_buses() {
                assert!(
                    (batch.v[s][i] - serial.inner.v[i]).abs() <= 1e-5 * scale_v,
                    "scenario {s} bus {i}: {:?} vs {:?}",
                    batch.v[s][i],
                    serial.inner.v[i]
                );
            }
            for (a, b) in batch.q_gen[s].iter().zip(&serial.q_gen) {
                assert!(approx_eq_eps(*a, *b, 1e-3, 1.0), "scenario {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mesh_telemetry_lands_in_the_registry() {
        let rec = Recorder::new();
        let net = ieee123_dg();
        let mut solver = serial_mesh().with_recorder(rec.clone());
        let res = solver.solve(&net, &SolverConfig::default());
        assert!(res.converged());
        let (_, reg) = rec.snapshot();
        let hists: Vec<&str> = reg.histograms().map(|(n, _)| n).collect();
        assert!(hists.contains(&"solver.outer_iterations"), "{hists:?}");
    }

    /// Balanced 0 — 1 — 2 three-phase feeder, optionally with a
    /// generator at bus 2.
    fn feeder3(gen: Option<PvBus>) -> ThreePhaseNetwork {
        let mut b = ThreePhaseBuilder::new(CVec3::balanced(2400.0));
        let load = CVec3 {
            a: c(15_000.0, 4_000.0),
            b: c(15_000.0, 4_000.0),
            c: c(15_000.0, 4_000.0),
        };
        b.add_bus(CVec3::ZERO);
        b.add_bus(load);
        b.add_bus(load);
        b.connect(0, 1, CMat3::diag(c(1.2, 0.9)));
        b.connect(1, 2, CMat3::diag(c(1.0, 0.8)));
        if let Some(g) = gen {
            b.generator(g);
        }
        b.build().unwrap()
    }

    #[test]
    fn three_phase_without_generators_is_a_plain_solve() {
        let net = feeder3(None);
        let cfg = SolverConfig::default();
        let mut serial = Serial3Solver::new(HostProps::paper_rig());
        let plain = serial.solve(&net, &cfg);
        let r = solve3_dg(&mut serial, &net, &cfg, &OuterConfig::default(), None);
        assert_eq!(r.outer_status, OuterStatus::Radial);
        assert_eq!(r.outer_iterations, 0);
        assert!(r.converged());
        for (a, b) in r.inner.v.iter().zip(&plain.v) {
            assert_eq!(a, b, "generator-free 3φ solve must be a bitwise pass-through");
        }
    }

    #[test]
    fn three_phase_pv_generator_holds_mean_phase_magnitude() {
        let v_set = 2392.0;
        let gen = PvBus { bus: 2, p_gen: 10_000.0, v_set, q_min: -150_000.0, q_max: 150_000.0 };
        let net = feeder3(Some(gen));
        let cfg = SolverConfig::default();

        let mut serial = Serial3Solver::new(HostProps::paper_rig());
        let sagged = serial.solve(&net, &cfg);
        let vm0 = (sagged.v[2].a.abs() + sagged.v[2].b.abs() + sagged.v[2].c.abs()) / 3.0;
        assert!(vm0 < v_set - 1.0, "test wants a sagged feeder, got {vm0}");

        let r = solve3_dg(&mut serial, &net, &cfg, &OuterConfig::default(), None);
        assert!(r.converged(), "{:?}", r.outer_status);
        assert!(r.outer_iterations >= 2);
        let vm = (r.inner.v[2].a.abs() + r.inner.v[2].b.abs() + r.inner.v[2].c.abs()) / 3.0;
        assert!((vm - v_set).abs() < 1e-2, "mean |V| {vm} vs set-point {v_set}");
        assert_eq!(r.gen_modes[0], GenMode::Pv);
        assert!(r.q_gen[0] > 0.0, "supporting the voltage takes capacitive vars");

        // The GPU backend lands on the same operating point.
        let mut gpu = Gpu3Solver::new(Device::paper_rig());
        let g = solve3_dg(&mut gpu, &net, &cfg, &OuterConfig::default(), None);
        assert!(g.converged());
        for (a, b) in g.inner.v.iter().zip(&r.inner.v) {
            assert!((a.a - b.a).abs() < 1e-6 && (a.b - b.b).abs() < 1e-6 && (a.c - b.c).abs() < 1e-6);
        }
        assert!(approx_eq_eps(g.q_gen[0], r.q_gen[0], 1e-6, 1e-3));
    }

    #[test]
    fn three_phase_clamped_generator_rides_at_its_limit() {
        // Limits far too small to reach the set-point: the generator
        // must clamp at q_max and stay there.
        let gen = PvBus { bus: 2, p_gen: 5_000.0, v_set: 2395.0, q_min: -800.0, q_max: 800.0 };
        let net = feeder3(Some(gen));
        let cfg = SolverConfig::default();
        let mut serial = Serial3Solver::new(HostProps::paper_rig());
        let r = solve3_dg(&mut serial, &net, &cfg, &OuterConfig::default(), None);
        assert!(r.converged(), "{:?}", r.outer_status);
        assert_eq!(r.gen_modes[0], GenMode::ClampedMax);
        assert!((r.q_gen[0] - 800.0).abs() < 1e-12);
    }

    #[test]
    fn three_phase_resilient_solve_composes_with_fault_recovery() {
        let gen = PvBus { bus: 2, p_gen: 10_000.0, v_set: 2392.0, q_min: -150_000.0, q_max: 150_000.0 };
        let net = feeder3(Some(gen));
        let cfg = SolverConfig::default();
        let mut serial = Serial3Solver::new(HostProps::paper_rig());
        let want = solve3_dg(&mut serial, &net, &cfg, &OuterConfig::default(), None);

        let mut res = Resilient3Solver::new(DeviceProps::paper_rig(), HostProps::paper_rig())
            .with_fault_plan(FaultPlan::seeded(20260808, 0.01));
        let got = solve3_dg_resilient(&mut res, &net, &cfg, &OuterConfig::default()).unwrap();
        assert!(got.converged(), "{:?}", got.outer_status);
        for (a, b) in got.inner.v.iter().zip(&want.inner.v) {
            assert!((a.a - b.a).abs() < 1e-6 && (a.b - b.b).abs() < 1e-6 && (a.c - b.c).abs() < 1e-6);
        }
    }
}
