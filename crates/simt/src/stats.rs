//! Execution statistics gathered while kernels run.
//!
//! Every global/shared memory access and every tallied flop flows into a
//! [`LaunchStats`]; the timing model in [`crate::timing`] converts the
//! totals into modeled microseconds. Stats are gathered per block (no
//! cross-thread sharing while the kernel runs) and merged once at the end
//! of the launch, so collection adds no synchronization to the hot path.
//!
//! The tally runs on every simulated load and store, which makes it the
//! simulator's innermost host loop, so it is kept in three tiers:
//!
//! - A [`PhaseTally`] held by value in the phase's [`crate::ThreadCtx`]
//!   counts flops, loads, stores, bytes, transactions and shared
//!   accesses. Per access that is a few register adds plus one slot
//!   load, compare and store in [`BlockAccounting::transactions`], with
//!   no data-dependent branch; the out-of-bounds device fault and
//!   slot-vector growth sit on cold paths.
//! - [`BlockAccounting`] receives each phase's tally once, when the
//!   phase ends, and folds into the launch's [`LaunchStats`] once per
//!   block.
//! - Each engine worker reuses one [`BlockAccounting`] for all its
//!   blocks, so the slot vector and the atomic-conflict map are not
//!   rebuilt per block. Slots are tagged with the warp epoch that wrote
//!   them, and the epoch keeps counting across blocks: a slot written by
//!   an earlier warp, phase or block can never coalesce.

use crate::buffer::BufId;

/// Size in bytes of one modeled global-memory transaction (the 128-byte
/// cache-line-sized segment the CUDA coalescer issues).
pub const TRANSACTION_BYTES: u64 = 128;

/// Aggregated statistics for one kernel launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Blocks executed.
    pub blocks: u64,
    /// Threads executed (sum of block sizes; includes early-exit threads).
    pub threads: u64,
    /// Tallied floating-point operations.
    pub flops: u64,
    /// Global-memory load instructions (per thread, per access).
    pub gmem_loads: u64,
    /// Global-memory store instructions.
    pub gmem_stores: u64,
    /// Bytes requested by global loads+stores.
    pub gmem_bytes: u64,
    /// Modeled 128-byte transactions after per-warp coalescing.
    pub gmem_transactions: u64,
    /// Global-memory atomic operations (component ops; a complex
    /// atomic-add counts 2).
    pub gmem_atomics: u64,
    /// Sum over blocks of the per-phase max same-address atomic conflict
    /// count (the intra-block serialisation chain of the atomic unit).
    pub atomic_chain: u64,
    /// Shared-memory accesses (loads + stores).
    pub smem_accesses: u64,
    /// Barrier-delimited phases executed, summed over blocks.
    pub phases: u64,
    /// Sum over blocks of the per-block dependent-memory-access chain
    /// (Σ over phases of the max per-thread access count in that phase).
    /// Drives the latency term of the timing model.
    pub mem_chain: u64,
    /// Largest shared-memory footprint of any block, bytes.
    pub max_shared_bytes: u64,
    /// Largest block-dim seen (uniform in practice; kept for reporting).
    pub max_block_threads: u64,
}

impl LaunchStats {
    /// Merges another stats record into this one (per-worker fold).
    pub fn merge(&mut self, o: &LaunchStats) {
        self.blocks += o.blocks;
        self.threads += o.threads;
        self.flops += o.flops;
        self.gmem_loads += o.gmem_loads;
        self.gmem_stores += o.gmem_stores;
        self.gmem_bytes += o.gmem_bytes;
        self.gmem_transactions += o.gmem_transactions;
        self.gmem_atomics += o.gmem_atomics;
        self.atomic_chain += o.atomic_chain;
        self.smem_accesses += o.smem_accesses;
        self.phases += o.phases;
        self.mem_chain += o.mem_chain;
        self.max_shared_bytes = self.max_shared_bytes.max(o.max_shared_bytes);
        self.max_block_threads = self.max_block_threads.max(o.max_block_threads);
    }

    /// Average coalescing efficiency: ideal transactions over issued
    /// transactions (1.0 = perfectly coalesced, →0 = scattered). Returns
    /// `None` when no global traffic occurred.
    pub fn coalescing_efficiency(&self) -> Option<f64> {
        if self.gmem_transactions == 0 {
            return None;
        }
        let ideal = self.gmem_bytes.div_ceil(TRANSACTION_BYTES);
        Some(ideal as f64 / self.gmem_transactions as f64)
    }
}

/// One phase's counters, held by value in the phase's
/// [`crate::ThreadCtx`] and added into the block's [`BlockAccounting`]
/// once when the phase ends.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PhaseTally {
    pub flops: u64,
    pub gmem_loads: u64,
    pub gmem_stores: u64,
    pub gmem_bytes: u64,
    pub gmem_transactions: u64,
    pub smem_accesses: u64,
}

/// Per-block accounting that [`crate::scope::BlockScope`] writes into as
/// phases finish. Folded into a [`LaunchStats`] contribution when the
/// block finishes, then reused by the same engine worker for its next
/// block.
#[derive(Debug, Default)]
pub(crate) struct BlockAccounting {
    pub flops: u64,
    pub gmem_loads: u64,
    pub gmem_stores: u64,
    pub gmem_bytes: u64,
    pub gmem_transactions: u64,
    pub gmem_atomics: u64,
    pub atomic_chain: u64,
    /// Same-address atomic conflict counts for the current phase.
    pub atomic_conflicts: std::collections::HashMap<(BufId, usize), u32>,
    /// Max conflict count seen this phase.
    pub phase_atomic_max: u32,
    pub smem_accesses: u64,
    pub phases: u64,
    pub mem_chain: u64,
    pub shared_bytes: u64,
    /// Coalescing state per access slot (per-thread access sequence number
    /// within the current phase). Epoch-tagged so warp changes invalidate
    /// lazily instead of clearing the vector; kept across blocks.
    slots: Vec<SlotState>,
    /// The current warp's epoch. Never 0 once a warp has started, so a
    /// fresh slot (tag 0) always misses.
    pub warp_epoch: u32,
}

/// Coalescing state for one warp-instruction slot: the warp epoch and
/// buffer of the last access packed into one tag (epoch in the high 32
/// bits), and the segment that access ended in.
#[derive(Clone, Copy, Debug, Default)]
struct SlotState {
    tag: u64,
    segment: u64,
}

impl BlockAccounting {
    /// A fresh accounting whose warp epoch starts at `warp_epoch`, so
    /// tests can reach the epoch wrap.
    #[cfg(test)]
    pub fn at_epoch(warp_epoch: u32) -> Self {
        BlockAccounting { warp_epoch, ..Default::default() }
    }

    /// Starts a phase: no atomic has conflicted yet.
    #[inline]
    pub fn begin_phase(&mut self) {
        self.phase_atomic_max = 0;
        if !self.atomic_conflicts.is_empty() {
            self.atomic_conflicts.clear();
        }
    }

    /// Starts the next warp. Its epoch differs from every epoch a slot
    /// still carries, so no slot written by an earlier warp, phase or
    /// block can coalesce with it.
    #[inline(always)]
    pub fn next_warp(&mut self) {
        self.warp_epoch = self.warp_epoch.wrapping_add(1);
        if self.warp_epoch == 0 {
            self.epoch_wrapped();
        }
    }

    /// After 2³² warps the epochs start over, so old tags could match
    /// again: forget every slot and skip epoch 0, which fresh slots carry.
    #[cold]
    #[inline(never)]
    fn epoch_wrapped(&mut self) {
        self.slots.fill(SlotState::default());
        self.warp_epoch = 1;
    }

    /// Transactions issued by a global access of `bytes` at byte offset
    /// `byte_off` of buffer `buf`; `slot` is the thread's access ordinal
    /// within the current phase (0-based).
    ///
    /// Per-warp coalescing: one new transaction whenever this slot's
    /// 128-byte segment differs from the segment touched by the previous
    /// thread of the same warp at the same slot, plus one per extra
    /// segment a straddling access spans. Straight-line on purpose: the
    /// miss is added as a 0/1 value, not branched on.
    #[inline(always)]
    pub fn transactions(&mut self, buf: BufId, byte_off: u64, bytes: u64, slot: u32) -> u64 {
        let first_seg = byte_off / TRANSACTION_BYTES;
        let last_seg = (byte_off + bytes - 1) / TRANSACTION_BYTES;
        let slot = slot as usize;
        if slot >= self.slots.len() {
            self.grow_slots(slot);
        }
        let tag = (u64::from(self.warp_epoch) << 32) | u64::from(buf.0);
        let s = &mut self.slots[slot];
        let miss = (s.tag != tag) | (s.segment != first_seg);
        *s = SlotState { tag, segment: last_seg };
        u64::from(miss) + (last_seg - first_seg)
    }

    /// Extends the slot vector to cover `slot` (fresh slots carry tag 0,
    /// whose epoch no warp uses, so their first access always misses).
    #[cold]
    #[inline(never)]
    fn grow_slots(&mut self, slot: usize) {
        self.slots.resize(slot + 1, SlotState::default());
    }

    /// Records an atomic RMW by the current thread on element `i` of
    /// buffer `buf` (`component_ops` component operations of `bytes`
    /// each). Atomics bypass the coalescer: every component op is its
    /// own transaction. Same-address conflicts within the phase feed the
    /// serialisation chain.
    pub fn note_atomic(&mut self, buf: BufId, i: usize, bytes: u64, component_ops: u64) {
        self.gmem_atomics += component_ops;
        self.gmem_bytes += bytes;
        self.gmem_transactions += component_ops;
        let e = self.atomic_conflicts.entry((buf, i)).or_insert(0);
        *e += 1;
        if *e > self.phase_atomic_max {
            self.phase_atomic_max = *e;
        }
    }

    /// Ends a phase: adds its tally, its longest per-thread access chain
    /// `chain` and its atomic serialisation chain to the block.
    #[inline]
    pub fn end_phase(&mut self, t: &PhaseTally, chain: u32) {
        self.flops += t.flops;
        self.gmem_loads += t.gmem_loads;
        self.gmem_stores += t.gmem_stores;
        self.gmem_bytes += t.gmem_bytes;
        self.gmem_transactions += t.gmem_transactions;
        self.smem_accesses += t.smem_accesses;
        self.phases += 1;
        self.mem_chain += u64::from(chain);
        self.atomic_chain += u64::from(self.phase_atomic_max);
    }

    /// Folds this block's accounting into a launch-level stats record and
    /// zeroes the block's counters, keeping the slots, the warp epoch and
    /// the conflict map's capacity for the next block.
    pub fn fold_into(&mut self, out: &mut LaunchStats, block_threads: u64) {
        out.blocks += 1;
        out.threads += block_threads;
        out.flops += self.flops;
        out.gmem_loads += self.gmem_loads;
        out.gmem_stores += self.gmem_stores;
        out.gmem_bytes += self.gmem_bytes;
        out.gmem_transactions += self.gmem_transactions;
        out.gmem_atomics += self.gmem_atomics;
        out.atomic_chain += self.atomic_chain;
        out.smem_accesses += self.smem_accesses;
        out.phases += self.phases;
        out.mem_chain += self.mem_chain;
        out.max_shared_bytes = out.max_shared_bytes.max(self.shared_bytes);
        out.max_block_threads = out.max_block_threads.max(block_threads);
        *self = BlockAccounting {
            atomic_conflicts: std::mem::take(&mut self.atomic_conflicts),
            slots: std::mem::take(&mut self.slots),
            warp_epoch: self.warp_epoch,
            ..Default::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_maxes() {
        let mut a = LaunchStats { blocks: 1, flops: 10, max_shared_bytes: 64, ..Default::default() };
        let b = LaunchStats { blocks: 2, flops: 5, max_shared_bytes: 128, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.flops, 15);
        assert_eq!(a.max_shared_bytes, 128);
    }

    #[test]
    fn coalesced_sequential_warp_is_one_transaction_per_segment() {
        let mut acc = BlockAccounting::at_epoch(1);
        // 32 threads each load 4 bytes at consecutive addresses: 128 bytes
        // = exactly one transaction.
        let tx: u64 = (0..32u64).map(|t| acc.transactions(BufId(1), t * 4, 4, 0)).sum();
        assert_eq!(tx, 1);
    }

    #[test]
    fn coalesced_f64_warp_is_two_transactions() {
        let mut acc = BlockAccounting::at_epoch(1);
        // 32 × 8 bytes = 256 bytes = two 128-byte segments.
        let tx: u64 = (0..32u64).map(|t| acc.transactions(BufId(1), t * 8, 8, 0)).sum();
        assert_eq!(tx, 2);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_thread() {
        let mut acc = BlockAccounting::at_epoch(1);
        let tx: u64 = (0..32u64).map(|t| acc.transactions(BufId(1), t * 4096, 4, 0)).sum();
        assert_eq!(tx, 32);
    }

    #[test]
    fn new_warp_epoch_restarts_coalescing() {
        let mut acc = BlockAccounting::at_epoch(1);
        assert_eq!(acc.transactions(BufId(1), 0, 4, 0), 1);
        // Same address, same slot, but a new warp → a fresh transaction.
        acc.next_warp();
        assert_eq!(acc.transactions(BufId(1), 0, 4, 0), 1);
    }

    #[test]
    fn epoch_wrap_forgets_every_slot() {
        let mut acc = BlockAccounting::at_epoch(u32::MAX);
        assert_eq!(acc.transactions(BufId(7), 0, 8, 0), 1);
        assert_eq!(acc.transactions(BufId(7), 0, 8, 0), 0);
        acc.next_warp();
        assert_eq!(acc.warp_epoch, 1);
        assert_eq!(acc.transactions(BufId(7), 0, 8, 0), 1);
        // A slot written at epoch 1 before the wrap would have matched
        // here; the wrap reset it to the fresh tag.
        let mut acc = BlockAccounting::at_epoch(1);
        acc.transactions(BufId(0), 0, 8, 0);
        acc.warp_epoch = u32::MAX;
        acc.next_warp();
        assert_eq!(acc.transactions(BufId(0), 0, 8, 0), 1);
    }

    #[test]
    fn distinct_buffers_do_not_coalesce_together() {
        let mut acc = BlockAccounting::at_epoch(1);
        assert_eq!(acc.transactions(BufId(1), 0, 4, 0), 1);
        assert_eq!(acc.transactions(BufId(2), 4, 4, 0), 1);
    }

    #[test]
    fn straddling_access_counts_both_segments() {
        let mut acc = BlockAccounting::at_epoch(1);
        // 16-byte access starting 8 bytes before a segment boundary.
        assert_eq!(acc.transactions(BufId(1), 120, 16, 0), 2);
    }

    #[test]
    fn different_slots_track_independently() {
        let mut acc = BlockAccounting::at_epoch(1);
        // Two threads, two access slots each, both slots coalesced.
        let mut tx = 0;
        for t in 0..2u64 {
            tx += acc.transactions(BufId(1), t * 8, 8, 0);
            tx += acc.transactions(BufId(2), t * 8, 8, 1);
        }
        assert_eq!(tx, 2); // one per slot
    }

    #[test]
    fn slot_state_packs_into_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<SlotState>(), 16);
    }

    #[test]
    fn coalescing_efficiency_reporting() {
        let s = LaunchStats {
            gmem_bytes: 256,
            gmem_transactions: 4,
            ..Default::default()
        };
        // Ideal = 2 transactions for 256 bytes; issued 4 → 0.5.
        assert_eq!(s.coalescing_efficiency(), Some(0.5));
        assert_eq!(LaunchStats::default().coalescing_efficiency(), None);
    }

    #[test]
    fn fold_into_tracks_maxima() {
        let mut acc =
            BlockAccounting { flops: 7, shared_bytes: 256, warp_epoch: 9, ..Default::default() };
        let mut out = LaunchStats::default();
        acc.fold_into(&mut out, 128);
        assert_eq!(out.blocks, 1);
        assert_eq!(out.threads, 128);
        assert_eq!(out.flops, 7);
        assert_eq!(out.max_shared_bytes, 256);
        assert_eq!(out.max_block_threads, 128);
        // The block's counters start over; the warp epoch keeps running.
        assert_eq!((acc.flops, acc.shared_bytes, acc.warp_epoch), (0, 0, 9));
    }
}
