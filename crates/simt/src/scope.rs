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

use std::cell::UnsafeCell;
use std::rc::Rc;

use crate::buffer::{DeviceCopy, GlobalMut, GlobalRef};
use crate::stats::BlockAccounting;

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
    ) -> Self {
        BlockScope {
            block_idx,
            grid_dim,
            grid_dim_y,
            block_dim,
            warp_size,
            shared_limit,
            acc: BlockAccounting::default(),
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
    pub fn threads<F: FnMut(&mut ThreadCtx<'_>)>(&mut self, mut f: F) {
        self.acc.phase_chain_max = 0;
        self.acc.phase_atomic_max = 0;
        self.acc.atomic_conflicts.clear();
        let phase = self.phase.min(u16::MAX as u32) as u16;
        for tid in 0..self.block_dim {
            if tid % self.warp_size == 0 {
                self.acc.warp_epoch += 1;
            }
            let mut ctx = ThreadCtx {
                tid,
                block_idx: self.block_idx,
                block_dim: self.block_dim,
                grid_dim: self.grid_dim,
                grid_dim_y: self.grid_dim_y,
                phase,
                seq: 0,
                acc: &mut self.acc,
            };
            f(&mut ctx);
            let seq = ctx.seq as u64;
            if seq > self.acc.phase_chain_max {
                self.acc.phase_chain_max = seq;
            }
        }
        self.acc.phases += 1;
        self.acc.mem_chain += self.acc.phase_chain_max;
        self.acc.atomic_chain += self.acc.phase_atomic_max as u64;
        self.phase += 1;
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

/// Per-thread execution context for one phase.
pub struct ThreadCtx<'b> {
    tid: u32,
    /// Flat block index (`blockIdx.y * gridDim.x + blockIdx.x`).
    block_idx: u64,
    block_dim: u32,
    grid_dim: u32,
    grid_dim_y: u32,
    #[cfg_attr(not(feature = "racecheck"), allow(dead_code))]
    phase: u16,
    /// Memory accesses issued by this thread in this phase (the
    /// coalescing slot counter).
    seq: u32,
    acc: &'b mut BlockAccounting,
}

impl ThreadCtx<'_> {
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
        self.acc.flops += n;
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
        self.acc.note_atomic(g.id, i, std::mem::size_of::<T>() as u64, T::COMPONENT_OPS);
        self.seq += 1;
        #[cfg(feature = "racecheck")]
        g.race.on_atomic(i, self.race_id());
        // SAFETY: bounds checked above; access is atomic per AtomicAdd.
        unsafe { T::atomic_add_at(g.data[i].get(), v) }
    }

    /// Loads element `i` of a shared-memory array.
    #[inline]
    pub fn lds<T: DeviceCopy>(&mut self, s: &Shared<T>, i: usize) -> T {
        self.acc.smem_accesses += 1;
        s.raw_load(i)
    }

    /// Stores `v` to element `i` of a shared-memory array.
    #[inline]
    pub fn sts<T: DeviceCopy>(&mut self, s: &Shared<T>, i: usize, v: T) {
        self.acc.smem_accesses += 1;
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
    fn note_gmem(&mut self, buf: crate::buffer::BufId, i: usize, elem: usize, store: bool, len: usize) {
        if i >= len {
            self.gmem_fault(i, store, len);
        }
        self.acc.note_gmem(buf, (i * elem) as u64, elem as u64, self.seq, store);
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

    fn scope(block_idx: u64, grid: u32, block: u32) -> BlockScope {
        BlockScope::new(block_idx, grid, 1, block, 32, 48 * 1024)
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
        let mut s = BlockScope::new(9, 4, 3, 16, 32, 48 * 1024);
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
