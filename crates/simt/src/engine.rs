//! The launch engine: schedules blocks over host worker threads.
//!
//! Workers model SMs only in the sense that they drain the grid's blocks;
//! modeled time comes from [`crate::timing`], never from host wall-clock.
//! Small launches run inline on the calling thread — spawning costs more
//! than it saves below a few thousand simulated threads.
//!
//! Each worker keeps one [`BlockAccounting`] for all the blocks it runs,
//! so the coalescing slots and the atomic-conflict map are allocated once
//! per worker, not once per block.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::kernel::{Kernel, LaunchConfig};
use crate::scope::BlockScope;
use crate::stats::{BlockAccounting, LaunchStats};

/// Launches below this many simulated threads run on the calling thread.
const PARALLEL_THRESHOLD_THREADS: u64 = 8192;

/// Blocks handed to a worker per queue pop (amortises the atomic).
fn chunk_size(total_blocks: u64, workers: usize) -> u64 {
    (total_blocks / (workers as u64 * 8)).max(1)
}

fn run_block<K: Kernel + ?Sized>(
    kernel: &K,
    block_idx: u64,
    cfg: &LaunchConfig,
    warp_size: u32,
    shared_limit: u32,
    acc: &mut BlockAccounting,
    out: &mut LaunchStats,
) {
    let mut scope = BlockScope::new(
        block_idx,
        cfg.grid,
        cfg.grid_y,
        cfg.block,
        warp_size,
        shared_limit,
        std::mem::take(acc),
    );
    kernel.block(&mut scope);
    *acc = scope.acc;
    acc.fold_into(out, cfg.block as u64);
}

/// Executes every block of the grid (in flat row-major order) and returns
/// merged statistics.
pub(crate) fn run_grid<K: Kernel + ?Sized>(
    kernel: &K,
    cfg: &LaunchConfig,
    warp_size: u32,
    shared_limit: u32,
    max_workers: usize,
) -> LaunchStats {
    let total = cfg.total_blocks();
    let workers = (max_workers as u64).min(total).max(1) as usize;
    if workers == 1 || cfg.total_threads() < PARALLEL_THRESHOLD_THREADS {
        let mut stats = LaunchStats::default();
        let mut acc = BlockAccounting::default();
        for b in 0..total {
            run_block(kernel, b, cfg, warp_size, shared_limit, &mut acc, &mut stats);
        }
        return stats;
    }

    let next = AtomicU64::new(0);
    let merged: Mutex<LaunchStats> = Mutex::new(LaunchStats::default());
    let chunk = chunk_size(total, workers);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local = LaunchStats::default();
                let mut acc = BlockAccounting::default();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + chunk).min(total);
                    for b in start..end {
                        run_block(kernel, b, cfg, warp_size, shared_limit, &mut acc, &mut local);
                    }
                }
                merged.lock().expect("stats mutex poisoned").merge(&local);
            });
        }
    });

    merged.into_inner().expect("stats mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufId, DeviceBuffer, GlobalMut, GlobalRef};
    use crate::scope::BlockScope;
    use crate::stats::TRANSACTION_BYTES;

    /// y[i] = a*x[i] + y[i]
    struct Saxpy<'a> {
        a: f64,
        x: crate::buffer::GlobalRef<'a, f64>,
        y: crate::buffer::GlobalMut<'a, f64>,
        n: usize,
    }

    impl Kernel for Saxpy<'_> {
        fn name(&self) -> &'static str {
            "saxpy"
        }
        fn block(&self, blk: &mut BlockScope) {
            blk.threads(|t| {
                let i = t.global_id();
                if i < self.n {
                    let xv = t.ld(&self.x, i);
                    let yv = t.ld_mut(&self.y, i);
                    t.flops(2);
                    t.st(&self.y, i, self.a * xv + yv);
                }
            });
        }
    }

    fn saxpy_case(n: usize, workers: usize) -> (Vec<f64>, LaunchStats) {
        let host_x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let host_y: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let mut x = DeviceBuffer::<f64>::zeroed(n);
        x.copy_from_host(&host_x);
        let mut y = DeviceBuffer::<f64>::zeroed(n);
        y.copy_from_host(&host_y);
        let cfg = LaunchConfig::for_elems(n);
        let k = Saxpy { a: 3.0, x: x.view(), y: y.view_mut(), n };
        let stats = run_grid(&k, &cfg, 32, 48 * 1024, workers);
        (y.copy_to_host(), stats)
    }

    #[test]
    fn sequential_path_computes_saxpy() {
        let (y, stats) = saxpy_case(1000, 1);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64 + 2.0 * i as f64);
        }
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.threads, 1024);
        assert_eq!(stats.flops, 2000);
        assert_eq!(stats.gmem_loads, 2000);
        assert_eq!(stats.gmem_stores, 1000);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let n = 100_000;
        let (y_seq, s_seq) = saxpy_case(n, 1);
        let (y_par, s_par) = saxpy_case(n, 8);
        assert_eq!(y_seq, y_par);
        // Stats are order-independent sums → identical.
        assert_eq!(s_seq, s_par);
    }

    #[test]
    fn worker_count_never_exceeds_grid() {
        // Must not deadlock or double-run blocks with more workers than blocks.
        let (y, stats) = saxpy_case(64, 64);
        assert_eq!(stats.blocks, 1);
        assert_eq!(y.len(), 64);
    }

    #[test]
    fn chunk_size_is_sane() {
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(64, 8), 1);
        assert_eq!(chunk_size(6400, 8), 100);
    }

    /// One step of a thread in [`RandomKernel`].
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Global load of element `i` from read-only buffer `buf`.
        Load { buf: usize, i: usize },
        /// Global store to the thread's own cell for step `k`.
        Store,
        /// Atomic add to element `i` (complex when `wide`); consumes an
        /// access ordinal without touching the coalescing slots.
        Atomic { wide: bool, i: usize },
        Flops(u64),
        SharedLoad(usize),
        SharedStore(usize),
    }

    /// Element sizes of the read-only buffers: 12 bytes straddles
    /// segment boundaries.
    const LOAD_ELEM: [u64; 4] = [4, 8, 12, 16];
    const LOAD_LEN: usize = 12_000;
    const ATOMIC_LEN: usize = 5;
    const MAX_STEPS: usize = 5;

    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A random multi-phase program, drawn from a hash of its seed and
    /// the (block, phase, thread, step) coordinates so that the kernel
    /// and the reference read the same program without storing it.
    struct Program {
        seed: u64,
        block_dim: u64,
    }

    impl Program {
        fn draw(&self, parts: [u64; 5]) -> u64 {
            parts.iter().fold(self.seed, |x, &p| mix(x ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        }
        fn phases(&self, b: u64) -> u64 {
            1 + self.draw([1, b, 0, 0, 0]) % 3
        }
        fn shared_len(&self, b: u64) -> usize {
            1 + (self.draw([2, b, 0, 0, 0]) % 64) as usize
        }
        fn steps(&self, b: u64, p: u64, tid: u64) -> usize {
            let slots = self.draw([3, b, p, 0, 0]) % MAX_STEPS as u64;
            (self.draw([4, b, p, tid, 0]) % (slots + 1)) as usize
        }
        fn op(&self, b: u64, p: u64, tid: u64, k: u64) -> Op {
            // A per-(block, phase, step) pattern the block's threads
            // share, so warps mostly coalesce; per-thread noise breaks it.
            let pattern = self.draw([5, b, p, k, 0]);
            let noise = self.draw([6, b, p, tid, k]);
            let gid = (b * self.block_dim + tid) as usize;
            let buf = (pattern % 4) as usize;
            match noise % 16 {
                0 | 1 => {
                    Op::Atomic { wide: noise & 16 != 0, i: (noise >> 8) as usize % ATOMIC_LEN }
                }
                2 => Op::Flops(noise >> 59),
                3 => Op::SharedLoad((noise >> 8) as usize),
                4 => Op::SharedStore(tid as usize),
                5 => Op::Load { buf: (noise >> 4) as usize % 4, i: gid % LOAD_LEN },
                6 => Op::Load { buf, i: (noise >> 8) as usize % LOAD_LEN },
                7 | 8 => Op::Store,
                _ => Op::Load { buf, i: ((pattern >> 8) as usize + gid) % LOAD_LEN },
            }
        }
    }

    struct RandomKernel<'a> {
        prog: Program,
        lu32: GlobalRef<'a, u32>,
        lf64: GlobalRef<'a, f64>,
        lu32x3: GlobalRef<'a, [u32; 3]>,
        lf64x2: GlobalRef<'a, [f64; 2]>,
        out: GlobalMut<'a, f64>,
        atom: GlobalMut<'a, u32>,
        atom_c: GlobalMut<'a, numc::Complex>,
    }

    impl Kernel for RandomKernel<'_> {
        fn name(&self) -> &'static str {
            "random_phases"
        }
        fn block(&self, blk: &mut BlockScope) {
            let b = blk.block_idx() as u64;
            let sh = blk.shared::<f64>(self.prog.shared_len(b));
            for p in 0..self.prog.phases(b) {
                blk.threads(|t| {
                    let tid = t.tid() as u64;
                    let mut acc = 0.0;
                    for k in 0..self.prog.steps(b, p, tid) {
                        match self.prog.op(b, p, tid, k as u64) {
                            Op::Load { buf: 0, i } => acc += t.ld(&self.lu32, i) as f64,
                            Op::Load { buf: 1, i } => acc += t.ld(&self.lf64, i),
                            Op::Load { buf: 2, i } => acc += t.ld(&self.lu32x3, i)[0] as f64,
                            Op::Load { i, .. } => acc += t.ld(&self.lf64x2, i)[1],
                            Op::Store => {
                                t.st(&self.out, k * t.launch_threads() + t.global_id(), acc)
                            }
                            Op::Atomic { wide: false, i } => t.atomic_add(&self.atom, i, 1),
                            Op::Atomic { wide: true, i } => {
                                t.atomic_add(&self.atom_c, i, numc::Complex::new(1.0, 0.0))
                            }
                            Op::Flops(n) => t.flops(n),
                            Op::SharedLoad(i) => acc += t.lds(&sh, i % sh.len()),
                            Op::SharedStore(i) => t.sts(&sh, i % sh.len(), acc),
                        }
                    }
                });
            }
        }
    }

    /// The stats of `prog` on `cfg` computed from the program alone:
    /// the per-(phase, warp, slot) coalescing rule, per-phase maxima of
    /// the access chain and of same-address atomics, fresh state per
    /// block.
    fn reference(prog: &Program, cfg: &LaunchConfig, warp: u64, ids: &[BufId; 5]) -> LaunchStats {
        let bd = cfg.block as u64;
        let mut out = LaunchStats::default();
        for b in 0..cfg.total_blocks() {
            out.blocks += 1;
            out.threads += bd;
            out.max_block_threads = bd;
            out.max_shared_bytes = out.max_shared_bytes.max(8 * prog.shared_len(b) as u64);
            let mut last = std::collections::HashMap::new();
            for p in 0..prog.phases(b) {
                out.phases += 1;
                let mut conflicts = std::collections::HashMap::new();
                let mut chain = 0;
                for tid in 0..bd {
                    let mut seq = 0;
                    for k in 0..prog.steps(b, p, tid) {
                        let (buf, byte_off, bytes, store) = match prog.op(b, p, tid, k as u64) {
                            Op::Load { buf, i } => {
                                (ids[buf], i as u64 * LOAD_ELEM[buf], LOAD_ELEM[buf], false)
                            }
                            Op::Store => {
                                let cell = k as u64 * cfg.total_threads() + b * bd + tid;
                                (ids[4], 8 * cell, 8, true)
                            }
                            Op::Atomic { wide, i } => {
                                let ops = 1 + u64::from(wide);
                                out.gmem_atomics += ops;
                                out.gmem_transactions += ops;
                                out.gmem_bytes += 4 + 12 * u64::from(wide);
                                *conflicts.entry((wide, i)).or_insert(0u64) += 1;
                                seq += 1;
                                continue;
                            }
                            Op::Flops(n) => {
                                out.flops += n;
                                continue;
                            }
                            Op::SharedLoad(_) | Op::SharedStore(_) => {
                                out.smem_accesses += 1;
                                continue;
                            }
                        };
                        out.gmem_loads += u64::from(!store);
                        out.gmem_stores += u64::from(store);
                        out.gmem_bytes += bytes;
                        let first = byte_off / TRANSACTION_BYTES;
                        let end = (byte_off + bytes - 1) / TRANSACTION_BYTES;
                        let here = (p, tid / warp, buf);
                        if last.get(&seq) != Some(&(here, first)) {
                            out.gmem_transactions += 1;
                        }
                        out.gmem_transactions += end - first;
                        last.insert(seq, (here, end));
                        seq += 1;
                    }
                    chain = chain.max(seq);
                }
                out.mem_chain += chain;
                out.atomic_chain += conflicts.values().copied().max().unwrap_or(0);
            }
        }
        out
    }

    #[test]
    fn reused_accounting_equals_the_reference_on_random_kernels() {
        let lu32 = DeviceBuffer::<u32>::zeroed(LOAD_LEN);
        let lf64 = DeviceBuffer::<f64>::zeroed(LOAD_LEN);
        let lu32x3 = DeviceBuffer::<[u32; 3]>::zeroed(LOAD_LEN);
        let lf64x2 = DeviceBuffer::<[f64; 2]>::zeroed(LOAD_LEN);
        let mut atom = DeviceBuffer::<u32>::zeroed(ATOMIC_LEN);
        let mut atom_c = DeviceBuffer::<numc::Complex>::zeroed(ATOMIC_LEN);
        for case in 0..12u64 {
            let warp = [3u32, 7, 32][(case % 3) as usize];
            let block_dim = 33 + (mix(case) % 268) as u32;
            // Enough threads for the parallel path, and at least three
            // blocks per worker.
            let grid = (PARALLEL_THRESHOLD_THREADS as u32).div_ceil(block_dim) + 6;
            let cfg = LaunchConfig::new(grid, block_dim);
            let mut out = DeviceBuffer::<f64>::zeroed(MAX_STEPS * cfg.total_threads() as usize);
            let prog = || Program { seed: mix(case ^ 0x5EED), block_dim: block_dim as u64 };
            let ids = [lu32.id(), lf64.id(), lu32x3.id(), lf64x2.id(), out.id()];
            let want = reference(&prog(), &cfg, warp as u64, &ids);
            let k = RandomKernel {
                prog: prog(),
                lu32: lu32.view(),
                lf64: lf64.view(),
                lu32x3: lu32x3.view(),
                lf64x2: lf64x2.view(),
                out: out.view_mut(),
                atom: atom.view_mut(),
                atom_c: atom_c.view_mut(),
            };
            for workers in [1, 2] {
                assert_eq!(run_grid(&k, &cfg, warp, 48 * 1024, workers), want, "case {case}");
            }
            // A fresh accounting per block gives the same stats.
            let mut fresh = LaunchStats::default();
            for b in 0..cfg.total_blocks() {
                let acc = &mut BlockAccounting::default();
                run_block(&k, b, &cfg, warp, 48 * 1024, acc, &mut fresh);
            }
            assert_eq!(fresh, want, "case {case}, fresh per block");
            // So does one accounting that starts two warps short of the
            // epoch wrap.
            let mut acc = BlockAccounting::at_epoch(u32::MAX - 1);
            let mut wrapped = LaunchStats::default();
            for b in 0..cfg.total_blocks() {
                run_block(&k, b, &cfg, warp, 48 * 1024, &mut acc, &mut wrapped);
            }
            assert!(acc.warp_epoch < u32::MAX - 1, "the epoch wrapped");
            assert_eq!(wrapped, want, "case {case}, across the wrap");
        }
    }

    /// out[y*grid + x] = flat block index, from a 2-D launch.
    struct GridStamp<'a> {
        out: crate::buffer::GlobalMut<'a, u32>,
    }

    impl Kernel for GridStamp<'_> {
        fn name(&self) -> &'static str {
            "grid_stamp"
        }
        fn block(&self, blk: &mut BlockScope) {
            let (x, y, gx) = (blk.block_idx_x(), blk.block_idx_y(), blk.grid_dim());
            blk.threads(|t| {
                if t.tid() == 0 {
                    t.st(&self.out, t.block_idx_y() * gx + t.block_idx_x(), (y * gx + x) as u32);
                }
            });
        }
    }

    #[test]
    fn two_dimensional_grid_runs_every_block_once() {
        for workers in [1usize, 4] {
            let (gx, gy) = (7u32, 5u32);
            let mut out = DeviceBuffer::<u32>::zeroed((gx * gy) as usize);
            let k = GridStamp { out: out.view_mut() };
            // Large block size so the parallel path engages at workers=4.
            let cfg = LaunchConfig::grid2d(gx, gy, 256);
            let stats = run_grid(&k, &cfg, 32, 48 * 1024, workers);
            assert_eq!(stats.blocks, (gx * gy) as u64);
            let host = out.copy_to_host();
            for (i, v) in host.iter().enumerate() {
                assert_eq!(*v as usize, i, "block {i} ran with wrong coordinates");
            }
        }
    }
}
