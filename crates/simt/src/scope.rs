//! Block- and thread-level execution scopes — the kernel-facing API.
//!
//! # Execution model
//!
//! A kernel's [`crate::Kernel::block`] runs once per block and expresses
//! the block as a sequence of *phases*:
//!
//! ```ignore
//! fn block(&self, blk: &mut BlockScope) {
//!     let tile = blk.shared::<f64>(256);
//!     blk.threads(|t| { /* phase 1: every thread runs this */ });
//!     // implicit __syncthreads() here
//!     blk.threads(|t| { /* phase 2 */ });
//! }
//! ```
//!
//! Each [`BlockScope::threads`] call executes its closure once per thread
//! of the block with an implicit barrier afterwards — the
//! barrier-synchronous subset of CUDA that well-synchronised kernels use.
//! Within a phase, threads must not communicate (the race checker enforces
//! this); across phases, shared and global memory written by the block are
//! visible to all its threads, exactly as after `__syncthreads()`.
//!
//! Threads of one block execute sequentially on one host worker, so
//! shared memory needs no host-side synchronisation; different blocks run
//! in parallel across workers.
//!
//! # Host cost
//!
//! Every simulated access runs on the host, so a phase is kept cheap:
//! [`BlockScope::threads`] builds one [`ThreadCtx`] per phase and
//! re-points it at each thread in turn, finds warp boundaries with a lane
//! countdown, and tallies the phase's counters by value in the context
//! ([`crate::stats::PhaseTally`]), adding them into the block's
//! accounting once when the phase ends. The accounting itself belongs to
//! the engine worker and is reused from block to block.
//!
//! [`BlockScope::phase`] is the general form: it runs only threads
//! `0..active` (idle threads make no accesses, so skipping them changes
//! no statistic), and with `TALLY = false` it counts nothing at all —
//! accesses keep their out-of-bounds device-fault check and their race
//! hooks, but add no flop, load, store, transaction or phase to the
//! block. The mode is a const parameter, so the tallied path compiles
//! exactly as [`BlockScope::threads`] and the untallied one carries no
//! per-access flag.
//!
//! An untallied phase is only correct when its statistics are already
//! known. A kernel that memoises them takes [`BlockScope::tally_snapshot`]
//! before and after a tallied run of a block's phases, keeps the
//! difference, and on a later launch runs the same phases untallied and
//! hands the difference to [`BlockScope::replay`]. The memo's key must
//! cover everything the tally depends on — the block's identity and every
//! value that steers its control flow or addresses (which work items are
//! live, which loads are zero, the patch words, the topology, the launch
//! geometry) — and the memo must not outlive any of them. Data the kernel
//! only computes with (the iterate itself) needs no key. A device with an
//! armed fault plan can flip resident bits under the kernel, changing
//! what a block reads and so where it goes; memos stay off there.

use std::cell::UnsafeCell;
use std::rc::Rc;

use crate::buffer::{BufId, DeviceCopy, GlobalMut, GlobalRef};
use crate::stats::{BlockAccounting, BlockTally, PhaseTally};

/// Per-block execution scope handed to [`crate::Kernel::block`].
pub struct BlockScope {
    /// Flat block index in row-major order (`y * gridDim.x + x`).
    pub(crate) block_idx: u64,
    pub(crate) grid_dim: u32,
    pub(crate) grid_dim_y: u32,
    pub(crate) block_dim: u32,
    pub(crate) warp_size: u32,
    pub(crate) shared_limit: u32,
    pub(crate) acc: BlockAccounting,
    pub(crate) phase: u32,
}

impl BlockScope {
    pub(crate) fn new(
        block_idx: u64,
        grid_dim: u32,
        grid_dim_y: u32,
        block_dim: u32,
        warp_size: u32,
        shared_limit: u32,
        acc: BlockAccounting,
    ) -> Self {
        BlockScope {
            block_idx,
            grid_dim,
            grid_dim_y,
            block_dim,
            warp_size,
            shared_limit,
            acc,
            phase: 0,
        }
    }

    /// Flat index of this block within the launch grid
    /// (`blockIdx.y * gridDim.x + blockIdx.x`; equals `blockIdx.x` for
    /// 1-D launches).
    #[inline]
    pub fn block_idx(&self) -> usize {
        self.block_idx as usize
    }

    /// Block index along x (`blockIdx.x`).
    #[inline]
    pub fn block_idx_x(&self) -> usize {
        (self.block_idx % self.grid_dim as u64) as usize
    }

    /// Block index along y (`blockIdx.y`; 0 for 1-D launches).
    #[inline]
    pub fn block_idx_y(&self) -> usize {
        (self.block_idx / self.grid_dim as u64) as usize
    }

    /// Blocks along x (`gridDim.x`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim as usize
    }

    /// Blocks along y (`gridDim.y`; 1 for 1-D launches).
    #[inline]
    pub fn grid_dim_y(&self) -> usize {
        self.grid_dim_y as usize
    }

    /// Threads per block.
    #[inline]
    pub fn block_dim(&self) -> usize {
        self.block_dim as usize
    }

    /// Allocates `len` zero-initialised elements of block-shared memory
    /// (the `__shared__` analog). Panics — modeling a launch failure —
    /// when the block's cumulative footprint exceeds the device limit.
    pub fn shared<T: DeviceCopy>(&mut self, len: usize) -> Shared<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        self.acc.shared_bytes += bytes;
        if self.acc.shared_bytes > self.shared_limit as u64 {
            panic!(
                "launch failure: block requested {} bytes of shared memory \
                 (limit {} bytes)",
                self.acc.shared_bytes, self.shared_limit
            );
        }
        Shared {
            inner: Rc::new(SharedInner {
                cells: UnsafeCell::new(vec![T::default(); len].into_boxed_slice()),
            }),
        }
    }

    /// Runs one barrier-delimited phase: the closure executes once per
    /// thread (tid 0 .. block_dim), followed by an implicit barrier.
    pub fn threads<F: FnMut(&mut ThreadCtx<'_>)>(&mut self, f: F) {
        self.phase::<true, F>(self.block_dim as usize, f)
    }

    /// Runs one barrier-delimited phase over threads `0..active` only
    /// (threads `active..block_dim` are idle: they make no accesses).
    /// With `TALLY = false` the phase adds nothing to the block's
    /// statistics; see the module's "Host cost" section for when that is
    /// sound. Panics if `active` exceeds the block size.
    pub fn phase<const TALLY: bool, F: FnMut(&mut ThreadCtx<'_, TALLY>)>(
        &mut self,
        active: usize,
        mut f: F,
    ) {
        assert!(
            active <= self.block_dim as usize,
            "phase of {active} threads in a block of {}",
            self.block_dim
        );
        if TALLY {
            self.acc.begin_phase();
        }
        let warp_size = self.warp_size;
        let mut ctx = ThreadCtx {
            tid: 0,
            block_idx: self.block_idx,
            block_dim: self.block_dim,
            grid_dim: self.grid_dim,
            grid_dim_y: self.grid_dim_y,
            #[cfg(feature = "racecheck")]
            phase: self.phase.min(u16::MAX as u32) as u16,
            seq: 0,
            tally: PhaseTally::default(),
            acc: &mut self.acc,
        };
        // Longest per-thread access chain of the phase.
        let mut chain = 0;
        let mut lanes_left = 0;
        for tid in 0..active as u32 {
            if TALLY {
                if lanes_left == 0 {
                    ctx.acc.next_warp();
                    lanes_left = warp_size;
                }
                lanes_left -= 1;
            }
            ctx.tid = tid;
            ctx.seq = 0;
            f(&mut ctx);
            if TALLY {
                chain = chain.max(ctx.seq);
            }
        }
        if TALLY {
            let tally = ctx.tally;
            self.acc.end_phase(&tally, chain);
        }
        self.phase += 1;
    }

    /// The block's statistics so far, shared-memory footprint aside.
    pub fn tally_snapshot(&self) -> BlockTally {
        self.acc.snapshot()
    }

    /// Adds a tally recorded from an earlier run of the same phases (the
    /// difference of two [`BlockScope::tally_snapshot`]s) to the block's
    /// statistics.
    pub fn replay(&mut self, tally: &BlockTally) {
        self.acc.replay(tally);
    }
}

struct SharedInner<T> {
    cells: UnsafeCell<Box<[T]>>,
}

/// Handle to a block-shared memory array.
///
/// `Shared` is `!Send` (it is `Rc`-backed), pinning it to the worker
/// thread executing its block — shared memory can never leak across
/// blocks, matching hardware scoping.
#[derive(Clone)]
pub struct Shared<T> {
    inner: Rc<SharedInner<T>>,
}

impl<T: DeviceCopy> Shared<T> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        // SAFETY: single-threaded within the block; no outstanding &mut.
        unsafe { (&*self.inner.cells.get()).len() }
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn raw_load(&self, i: usize) -> T {
        // SAFETY: block threads run sequentially on one host thread, so
        // no concurrent access exists; bounds are checked by indexing.
        unsafe { (&*self.inner.cells.get())[i] }
    }

    #[inline]
    fn raw_store(&self, i: usize, v: T) {
        // SAFETY: as raw_load.
        unsafe { (&mut *self.inner.cells.get())[i] = v }
    }
}

/// Execution context of the current thread in one phase. The phase
/// hands the same context to each of its threads in turn. `TALLY`
/// (default `true`) is the phase's mode; untallied contexts skip only
/// the accounting, never the fault check or the race hooks.
pub struct ThreadCtx<'b, const TALLY: bool = true> {
    tid: u32,
    /// Flat block index (`blockIdx.y * gridDim.x + blockIdx.x`).
    block_idx: u64,
    block_dim: u32,
    grid_dim: u32,
    grid_dim_y: u32,
    #[cfg(feature = "racecheck")]
    phase: u16,
    /// Memory accesses issued by this thread in this phase (the
    /// coalescing slot counter).
    seq: u32,
    /// Counters of the whole phase so far, all threads.
    tally: PhaseTally,
    acc: &'b mut BlockAccounting,
}

impl<const TALLY: bool> ThreadCtx<'_, TALLY> {
    /// Thread index within the block (`threadIdx.x`).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid as usize
    }

    /// Flat block index (`blockIdx.y * gridDim.x + blockIdx.x`; equals
    /// `blockIdx.x` for 1-D launches).
    #[inline]
    pub fn block_idx(&self) -> usize {
        self.block_idx as usize
    }

    /// Block index along x (`blockIdx.x`).
    #[inline]
    pub fn block_idx_x(&self) -> usize {
        (self.block_idx % self.grid_dim as u64) as usize
    }

    /// Block index along y (`blockIdx.y`; 0 for 1-D launches).
    #[inline]
    pub fn block_idx_y(&self) -> usize {
        (self.block_idx / self.grid_dim as u64) as usize
    }

    /// Threads per block (`blockDim.x`).
    #[inline]
    pub fn block_dim(&self) -> usize {
        self.block_dim as usize
    }

    /// Blocks per grid along x (`gridDim.x`).
    #[inline]
    pub fn grid_dim(&self) -> usize {
        self.grid_dim as usize
    }

    /// Blocks per grid along y (`gridDim.y`; 1 for 1-D launches).
    #[inline]
    pub fn grid_dim_y(&self) -> usize {
        self.grid_dim_y as usize
    }

    /// Flat global thread id
    /// (`block_idx() * blockDim.x + threadIdx.x`).
    #[inline]
    pub fn global_id(&self) -> usize {
        self.block_idx as usize * self.block_dim as usize + self.tid as usize
    }

    /// Total threads in the launch (`gridDim.x * gridDim.y * blockDim.x`).
    #[inline]
    pub fn launch_threads(&self) -> usize {
        self.grid_dim as usize * self.grid_dim_y as usize * self.block_dim as usize
    }

    /// Tallies `n` floating-point operations against the timing model.
    ///
    /// By convention kernels charge [`numc` complex-op costs][costs] —
    /// e.g. 6 for a complex multiply — so modeled compute time is
    /// consistent across the workspace.
    ///
    /// [costs]: https://docs.rs/numc (Complex::MUL_FLOPS etc.)
    #[inline]
    pub fn flops(&mut self, n: u64) {
        if TALLY {
            self.tally.flops += n;
        }
    }

    /// Loads element `i` from a read-only global view.
    #[inline(always)]
    pub fn ld<T: DeviceCopy>(&mut self, g: &GlobalRef<'_, T>, i: usize) -> T {
        self.note_gmem(g.id, i, std::mem::size_of::<T>(), false, g.data.len());
        g.raw_load(i)
    }

    /// Loads element `i` from a read-write global view.
    #[inline(always)]
    pub fn ld_mut<T: DeviceCopy>(&mut self, g: &GlobalMut<'_, T>, i: usize) -> T {
        self.note_gmem(g.id, i, std::mem::size_of::<T>(), false, g.data.len());
        #[cfg(feature = "racecheck")]
        g.race.on_read(i, self.race_id());
        g.raw_load(i)
    }

    /// Stores `v` to element `i` of a read-write global view.
    #[inline(always)]
    pub fn st<T: DeviceCopy>(&mut self, g: &GlobalMut<'_, T>, i: usize, v: T) {
        self.note_gmem(g.id, i, std::mem::size_of::<T>(), true, g.data.len());
        #[cfg(feature = "racecheck")]
        g.race.on_write(i, self.race_id());
        g.raw_store(i, v);
    }

    /// Atomically adds `v` to element `i` of a read-write global view
    /// (the `atomicAdd` analog). Concurrent atomic updates from any
    /// thread of the launch are well-defined; mixing them with plain
    /// loads/stores of the same element within one launch is a race
    /// (flagged under `racecheck`).
    #[inline]
    pub fn atomic_add<T: crate::atomic::AtomicAdd>(
        &mut self,
        g: &GlobalMut<'_, T>,
        i: usize,
        v: T,
    ) {
        if i >= g.data.len() {
            panic!(
                "device fault: atomic on element {i} out of bounds (len {}) by block {} thread {}",
                g.data.len(),
                self.block_idx,
                self.tid
            );
        }
        if TALLY {
            self.acc.note_atomic(g.id, i, std::mem::size_of::<T>() as u64, T::COMPONENT_OPS);
            self.seq += 1;
        }
        #[cfg(feature = "racecheck")]
        g.race.on_atomic(i, self.race_id());
        // SAFETY: bounds checked above; access is atomic per AtomicAdd.
        unsafe { T::atomic_add_at(g.data[i].get(), v) }
    }

    /// Loads element `i` of a shared-memory array.
    #[inline]
    pub fn lds<T: DeviceCopy>(&mut self, s: &Shared<T>, i: usize) -> T {
        if TALLY {
            self.tally.smem_accesses += 1;
        }
        s.raw_load(i)
    }

    /// Stores `v` to element `i` of a shared-memory array.
    #[inline]
    pub fn sts<T: DeviceCopy>(&mut self, s: &Shared<T>, i: usize, v: T) {
        if TALLY {
            self.tally.smem_accesses += 1;
        }
        s.raw_store(i, v)
    }

    #[cfg(feature = "racecheck")]
    fn race_id(&self) -> crate::racecheck::ThreadId {
        crate::racecheck::ThreadId {
            block: self.block_idx as u32,
            tid: self.tid,
            phase: self.phase,
        }
    }

    #[inline(always)]
    fn note_gmem(&mut self, buf: BufId, i: usize, elem: usize, store: bool, len: usize) {
        if i >= len {
            self.gmem_fault(i, store, len);
        }
        if TALLY {
            self.tally_gmem(buf, (i * elem) as u64, elem as u64, store);
        }
    }

    /// Tallies one in-bounds global access of `bytes` at byte offset
    /// `byte_off`. The counters are added as 0/1 values, not branched on.
    #[inline(always)]
    fn tally_gmem(&mut self, buf: BufId, byte_off: u64, bytes: u64, store: bool) {
        self.tally.gmem_stores += u64::from(store);
        self.tally.gmem_loads += u64::from(!store);
        self.tally.gmem_bytes += bytes;
        self.tally.gmem_transactions += self.acc.transactions(buf, byte_off, bytes, self.seq);
        self.seq += 1;
    }

    #[cold]
    #[inline(never)]
    fn gmem_fault(&self, i: usize, store: bool, len: usize) -> ! {
        panic!(
            "device fault: {} of element {i} out of bounds (len {len}) \
             by block {} thread {}",
            if store { "store" } else { "load" },
            self.block_idx,
            self.tid
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;
    use crate::stats::{LaunchStats, TRANSACTION_BYTES};

    fn scope(block_idx: u64, grid: u32, block: u32) -> BlockScope {
        BlockScope::new(block_idx, grid, 1, block, 32, 48 * 1024, BlockAccounting::default())
    }

    #[test]
    fn indices_and_dims() {
        let mut s = scope(3, 8, 64);
        assert_eq!(s.block_idx(), 3);
        assert_eq!(s.grid_dim(), 8);
        assert_eq!(s.block_dim(), 64);
        let mut seen = Vec::new();
        s.threads(|t| {
            seen.push((t.tid(), t.global_id()));
            assert_eq!(t.block_idx(), 3);
            assert_eq!(t.block_dim(), 64);
            assert_eq!(t.grid_dim(), 8);
            assert_eq!(t.launch_threads(), 512);
        });
        assert_eq!(seen.len(), 64);
        assert_eq!(seen[0], (0, 192));
        assert_eq!(seen[63], (63, 255));
    }

    #[test]
    fn two_dimensional_indices_decompose_row_major() {
        // grid = (4, 3): flat block 9 sits at (x=1, y=2).
        let mut s = BlockScope::new(9, 4, 3, 16, 32, 48 * 1024, BlockAccounting::default());
        assert_eq!(s.block_idx(), 9);
        assert_eq!(s.block_idx_x(), 1);
        assert_eq!(s.block_idx_y(), 2);
        assert_eq!(s.grid_dim(), 4);
        assert_eq!(s.grid_dim_y(), 3);
        s.threads(|t| {
            assert_eq!(t.block_idx(), 9);
            assert_eq!(t.block_idx_x(), 1);
            assert_eq!(t.block_idx_y(), 2);
            assert_eq!(t.grid_dim_y(), 3);
            assert_eq!(t.launch_threads(), 4 * 3 * 16);
            assert_eq!(t.global_id(), 9 * 16 + t.tid());
        });
    }

    #[test]
    fn phases_and_chain_accounting() {
        let mut b = DeviceBuffer::<f64>::zeroed(128);
        let g = b.view_mut();
        let mut s = scope(0, 1, 64);
        s.threads(|t| {
            let i = t.tid();
            t.st(&g, i, i as f64);
        });
        s.threads(|t| {
            let i = t.tid();
            let v = t.ld_mut(&g, i);
            t.st(&g, i, v + 1.0);
        });
        assert_eq!(s.acc.phases, 2);
        // Phase 1: 1 access per thread; phase 2: 2 → chain = 3.
        assert_eq!(s.acc.mem_chain, 3);
        assert_eq!(s.acc.gmem_stores, 128);
        assert_eq!(s.acc.gmem_loads, 64);
        let _ = g;
        let host = b.copy_to_host();
        assert_eq!(host[5], 6.0);
    }

    #[test]
    fn shared_memory_roundtrip_across_phases() {
        let mut s = scope(0, 1, 32);
        let sh = s.shared::<u32>(32);
        assert_eq!(sh.len(), 32);
        s.threads(|t| {
            let i = t.tid();
            t.sts(&sh, i, (i * 10) as u32);
        });
        let mut total = 0u32;
        s.threads(|t| {
            if t.tid() == 0 {
                for i in 0..32 {
                    total += t.lds(&sh, i);
                }
            }
        });
        assert_eq!(total, (0..32).map(|i| i * 10).sum::<u32>());
        assert_eq!(s.acc.smem_accesses, 32 + 32);
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn shared_over_limit_is_launch_failure() {
        let mut s = scope(0, 1, 32);
        let _ = s.shared::<f64>(48 * 1024); // 384 KiB > 48 KiB limit
    }

    #[test]
    #[should_panic(expected = "device fault")]
    fn out_of_bounds_store_is_device_fault() {
        let mut b = DeviceBuffer::<u32>::zeroed(4);
        let g = b.view_mut();
        let mut s = scope(0, 1, 8);
        s.threads(|t| {
            let i = t.tid();
            t.st(&g, i, 1); // threads 4..8 fault
        });
    }

    #[test]
    #[should_panic(expected = "device fault")]
    fn out_of_bounds_store_is_device_fault_untallied() {
        let mut b = DeviceBuffer::<u32>::zeroed(4);
        let g = b.view_mut();
        let mut s = scope(0, 1, 8);
        s.phase::<false, _>(8, |t| {
            let i = t.tid();
            t.st(&g, i, 1); // threads 4..8 fault
        });
    }

    /// Two phases of mixed traffic over the first `active` threads.
    fn mixed_phases<const T: bool>(s: &mut BlockScope, g: &GlobalMut<'_, f64>, active: usize) {
        let sh = s.shared::<f64>(64);
        s.phase::<T, _>(active, |t| {
            let i = t.tid();
            let v = t.ld_mut(g, 3 * i);
            t.flops(3);
            t.sts(&sh, i, v);
        });
        s.phase::<T, _>(active, |t| {
            let i = t.tid();
            let v = t.lds(&sh, i);
            t.st(g, 3 * i + 1, v + 1.0);
        });
    }

    #[test]
    fn untallied_phases_count_nothing_and_replay_restores_the_tally() {
        let mut b = DeviceBuffer::<f64>::zeroed(3 * 64);
        let g = b.view_mut();
        let mut tallied = scope(0, 1, 64);
        let start = tallied.tally_snapshot();
        mixed_phases::<true>(&mut tallied, &g, 40);
        let delta = tallied.tally_snapshot().since(&start);

        let mut replayed = scope(0, 1, 64);
        mixed_phases::<false>(&mut replayed, &g, 40);
        assert_eq!(replayed.tally_snapshot(), BlockTally::default());
        assert_eq!(replayed.acc.shared_bytes, 64 * 8, "shared memory is charged in both modes");
        replayed.replay(&delta);
        let (mut want, mut got) = (LaunchStats::default(), LaunchStats::default());
        tallied.acc.fold_into(&mut want, 64);
        replayed.acc.fold_into(&mut got, 64);
        assert_eq!(got, want);
        assert_eq!(want.gmem_loads, 40);
        assert_eq!(want.phases, 2);
    }

    #[test]
    fn a_phase_over_the_active_threads_equals_a_guarded_full_phase() {
        let src = DeviceBuffer::<f64>::zeroed(3 * 96);
        let mut dst = DeviceBuffer::<f64>::zeroed(96);
        let (src, dst) = (src.view(), dst.view_mut());
        for active in [0, 1, 31, 33, 96] {
            let mut narrow = scope(0, 1, 96);
            narrow.phase::<true, _>(active, |t| {
                let i = t.tid();
                let v = t.ld(&src, 3 * i);
                t.st(&dst, i, v);
            });
            let mut full = scope(0, 1, 96);
            full.threads(|t| {
                let i = t.tid();
                if i < active {
                    let v = t.ld(&src, 3 * i);
                    t.st(&dst, i, v);
                }
            });
            assert_eq!(narrow.tally_snapshot(), full.tally_snapshot(), "active {active}");
        }
    }

    #[test]
    #[should_panic(expected = "phase of 9 threads")]
    fn a_phase_wider_than_the_block_is_refused() {
        let mut s = scope(0, 1, 8);
        s.phase::<true, _>(9, |_| {});
    }

    #[test]
    fn coalesced_warp_counts_minimal_transactions() {
        let b = DeviceBuffer::<f64>::zeroed(64);
        let g = b.view();
        let mut s = scope(0, 1, 64);
        s.threads(|t| {
            let i = t.global_id();
            let _ = t.ld(&g, i);
        });
        // 64 threads × 8B, coalesced: 2 warps × 2 segments = 4 transactions.
        assert_eq!(s.acc.gmem_transactions, 4);
        assert_eq!(s.acc.gmem_bytes, 512);
    }

    #[test]
    fn strided_warp_counts_many_transactions() {
        let b = DeviceBuffer::<f64>::zeroed(64 * 32);
        let g = b.view();
        let mut s = scope(0, 1, 32);
        s.threads(|t| {
            let _ = t.ld(&g, t.tid() * 32); // 256-byte stride
        });
        assert_eq!(s.acc.gmem_transactions, 32);
    }

    /// One step of a thread's access stream.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Access { buf: u32, byte_off: u64, bytes: u64, store: bool },
        /// Consumes an access ordinal without a coalesced access (what
        /// an atomic does), leaving that slot's state as it was.
        Skip,
    }

    /// `phases[p][tid]` is thread `tid`'s stream in phase `p`.
    type Block = Vec<Vec<Vec<Step>>>;

    /// The per-warp, per-slot coalescing rule written out plainly: an
    /// access costs a fresh transaction unless the previous access at
    /// the same slot, in the same phase and warp, touched the same
    /// buffer and ended in the segment this one starts in; every extra
    /// segment it spans costs one more.
    fn reference(block: &Block, warp: usize) -> LaunchStats {
        let block_dim = block[0].len();
        let mut out = LaunchStats {
            blocks: 1,
            threads: block_dim as u64,
            phases: block.len() as u64,
            max_block_threads: block_dim as u64,
            ..Default::default()
        };
        let mut last = std::collections::BTreeMap::new();
        for (p, threads) in block.iter().enumerate() {
            out.mem_chain += threads.iter().map(|steps| steps.len() as u64).max().unwrap_or(0);
            for (tid, steps) in threads.iter().enumerate() {
                for (slot, step) in steps.iter().enumerate() {
                    let Step::Access { buf, byte_off, bytes, store } = *step else { continue };
                    if store {
                        out.gmem_stores += 1;
                    } else {
                        out.gmem_loads += 1;
                    }
                    out.gmem_bytes += bytes;
                    let first = byte_off / TRANSACTION_BYTES;
                    let end = (byte_off + bytes - 1) / TRANSACTION_BYTES;
                    let here = (p, tid / warp, buf);
                    if last.get(&slot) != Some(&(here, first)) {
                        out.gmem_transactions += 1;
                    }
                    out.gmem_transactions += end - first;
                    last.insert(slot, (here, end));
                }
            }
        }
        out
    }

    /// Runs `block` through [`BlockScope::threads`], one phase per
    /// entry, on an accounting whose warp epoch starts at `epoch`.
    fn tally(block: &Block, warp: usize, epoch: u32) -> LaunchStats {
        let block_dim = block[0].len() as u32;
        let acc = BlockAccounting::at_epoch(epoch);
        let mut s = BlockScope::new(0, 1, 1, block_dim, warp as u32, 48 * 1024, acc);
        for threads in block {
            s.threads(|t| {
                for step in &threads[t.tid()] {
                    match *step {
                        Step::Access { buf, byte_off, bytes, store } => {
                            t.tally_gmem(BufId(buf), byte_off, bytes, store)
                        }
                        Step::Skip => t.seq += 1,
                    }
                }
            });
        }
        let mut out = LaunchStats::default();
        s.acc.fold_into(&mut out, block_dim as u64);
        out
    }

    fn random_block(r: &mut impl rng::Rng) -> (Block, usize) {
        let warp = [1, 3, 4, 8, 32][r.gen_range(0..5usize)];
        let block_dim = r.gen_range(1..=96usize);
        let phases = r.gen_range(1..=4usize);
        let block = (0..phases)
            .map(|_| {
                let slots = r.gen_range(0..=6usize);
                // Per-slot pattern shared by the block's threads, so
                // warps mostly coalesce; per-thread noise breaks it up.
                let pattern: Vec<(u32, u64, u64)> = (0..slots)
                    .map(|_| {
                        let elem = [4u64, 8, 16][r.gen_range(0..3usize)];
                        (r.gen_range(0..3u32), elem, r.gen_range(0..64u64) * elem)
                    })
                    .collect();
                (0..block_dim)
                    .map(|tid| {
                        let len = r.gen_range(0..=slots);
                        pattern[..len]
                            .iter()
                            .map(|&(buf, elem, base)| {
                                let aligned = base + tid as u64 * elem;
                                match r.gen_range(0..10u32) {
                                    0 => Step::Skip,
                                    1 => Step::Access {
                                        buf: r.gen_range(0..3u32),
                                        byte_off: aligned,
                                        bytes: elem,
                                        store: false,
                                    },
                                    // Unaligned: may straddle a segment.
                                    2 => Step::Access {
                                        buf,
                                        byte_off: aligned + r.gen_range(1..elem),
                                        bytes: elem,
                                        store: r.gen_bool(0.5),
                                    },
                                    3 => Step::Access {
                                        buf,
                                        byte_off: r.gen_range(0..8192u64),
                                        bytes: elem,
                                        store: true,
                                    },
                                    _ => Step::Access {
                                        buf,
                                        byte_off: aligned,
                                        bytes: elem,
                                        store: r.gen_bool(0.3),
                                    },
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (block, warp)
    }

    #[test]
    fn tally_equals_the_reference_rule_on_random_streams() {
        let mut r = rng::SplitMix64::new(0x7A11);
        for case in 0..2000 {
            let (block, warp) = random_block(&mut r);
            let want = reference(&block, warp);
            assert_eq!(tally(&block, warp, 0), want, "case {case}: {block:?}");
            // Starting just short of the wrap runs the epoch reset.
            assert_eq!(tally(&block, warp, u32::MAX - 1), want, "case {case} at the wrap");
        }
    }

    #[cfg(feature = "racecheck")]
    #[test]
    #[should_panic(expected = "race")]
    fn racecheck_catches_same_phase_conflict() {
        let mut b = DeviceBuffer::<u32>::zeroed(1);
        let g = b.view_mut();
        let mut s = scope(0, 1, 2);
        s.threads(|t| {
            t.st(&g, 0, t.tid() as u32); // both threads write cell 0
        });
    }

    #[cfg(feature = "racecheck")]
    #[test]
    #[should_panic(expected = "race")]
    fn racecheck_catches_same_phase_conflict_untallied() {
        let mut b = DeviceBuffer::<u32>::zeroed(1);
        let g = b.view_mut();
        let mut s = scope(0, 1, 2);
        s.phase::<false, _>(2, |t| {
            t.st(&g, 0, t.tid() as u32); // both threads write cell 0
        });
    }

    #[cfg(feature = "racecheck")]
    #[test]
    fn racecheck_allows_barrier_separated_reuse() {
        let mut b = DeviceBuffer::<u32>::zeroed(2);
        let g = b.view_mut();
        let mut s = scope(0, 1, 2);
        s.threads(|t| t.st(&g, t.tid(), 1));
        s.threads(|t| {
            // Read the *other* thread's cell — legal after the barrier.
            let other = 1 - t.tid();
            assert_eq!(t.ld_mut(&g, other), 1);
        });
    }
}
