//! Execution statistics gathered while kernels run.
//!
//! Every global/shared memory access and every tallied flop flows into a
//! [`LaunchStats`]; the timing model in [`crate::timing`] converts the
//! totals into modeled microseconds. Stats are gathered per block (no
//! cross-thread sharing while the kernel runs) and merged once at the end
//! of the launch, so collection adds no synchronization to the hot path.
//!
//! The global-memory tally runs on every simulated load and store, which
//! makes it the simulator's innermost host loop.
//! [`BlockAccounting::note_gmem`] is forced inline into
//! [`crate::ThreadCtx`]'s `ld`/`ld_mut`/`st`, and the out-of-bounds device
//! fault and slot-vector growth sit on cold paths. What stays on the
//! per-access path is one bounds compare, one slot load, compare and
//! store, and a handful of adds with no data-dependent branch.

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

/// Per-block accounting that [`crate::scope::BlockScope`] writes into as
/// threads execute. Converted into a [`LaunchStats`] contribution when the
/// block finishes.
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
    /// lazily instead of clearing the vector.
    pub slots: Vec<SlotState>,
    pub warp_epoch: u64,
    /// Max per-thread memory-access count in the current phase.
    pub phase_chain_max: u64,
}

/// Coalescing state for one warp-instruction slot.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SlotState {
    pub epoch: u64,
    pub buf: BufId,
    pub segment: u64,
}

impl BlockAccounting {
    /// Records a global access by thread `tid` at element byte offset
    /// `byte_off` of buffer `buf`; `seq` is the thread's access ordinal
    /// within the current phase (0-based).
    ///
    /// Straight-line on purpose (see the module docs): the counters and
    /// the coalescing miss are added as 0/1 values, not branched on.
    #[inline(always)]
    pub fn note_gmem(
        &mut self,
        buf: BufId,
        byte_off: u64,
        bytes: u64,
        seq: u32,
        is_store: bool,
    ) {
        self.gmem_stores += u64::from(is_store);
        self.gmem_loads += u64::from(!is_store);
        self.gmem_bytes += bytes;

        // Per-warp coalescing: one new transaction whenever this slot's
        // 128-byte segment differs from the segment touched by the
        // previous thread of the same warp at the same slot. An access
        // spanning multiple segments issues one transaction per segment.
        let first_seg = byte_off / TRANSACTION_BYTES;
        let last_seg = (byte_off + bytes - 1) / TRANSACTION_BYTES;
        let slot = seq as usize;
        if slot >= self.slots.len() {
            self.grow_slots(slot);
        }
        let epoch = self.warp_epoch;
        let s = &mut self.slots[slot];
        let miss = (s.epoch != epoch) | (s.buf != buf) | (s.segment != first_seg);
        self.gmem_transactions += u64::from(miss) + (last_seg - first_seg); // + straddles
        *s = SlotState { epoch, buf, segment: last_seg };
    }

    /// Extends the slot vector to cover `slot` (fresh slots carry epoch
    /// 0, which no warp uses, so their first access always misses).
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

    /// Folds this block's accounting into a launch-level stats record.
    pub fn fold_into(&self, out: &mut LaunchStats, block_threads: u64) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::Rng;

    #[test]
    fn merge_accumulates_and_maxes() {
        let mut a = LaunchStats { blocks: 1, flops: 10, max_shared_bytes: 64, ..Default::default() };
        let b = LaunchStats { blocks: 2, flops: 5, max_shared_bytes: 128, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.flops, 15);
        assert_eq!(a.max_shared_bytes, 128);
    }

    fn acc_with_epoch(epoch: u64) -> BlockAccounting {
        BlockAccounting { warp_epoch: epoch, ..Default::default() }
    }

    #[test]
    fn coalesced_sequential_warp_is_one_transaction_per_segment() {
        let mut acc = acc_with_epoch(1);
        // 32 threads each load 4 bytes at consecutive addresses: 128 bytes
        // = exactly one transaction.
        for t in 0..32u64 {
            acc.note_gmem(BufId(1), t * 4, 4, 0, false);
        }
        assert_eq!(acc.gmem_transactions, 1);
        assert_eq!(acc.gmem_loads, 32);
        assert_eq!(acc.gmem_bytes, 128);
    }

    #[test]
    fn coalesced_f64_warp_is_two_transactions() {
        let mut acc = acc_with_epoch(1);
        // 32 × 8 bytes = 256 bytes = two 128-byte segments.
        for t in 0..32u64 {
            acc.note_gmem(BufId(1), t * 8, 8, 0, false);
        }
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_thread() {
        let mut acc = acc_with_epoch(1);
        for t in 0..32u64 {
            acc.note_gmem(BufId(1), t * 4096, 4, 0, false);
        }
        assert_eq!(acc.gmem_transactions, 32);
    }

    #[test]
    fn new_warp_epoch_restarts_coalescing() {
        let mut acc = acc_with_epoch(1);
        acc.note_gmem(BufId(1), 0, 4, 0, false);
        // Same address, same slot, but a new warp → a fresh transaction.
        acc.warp_epoch = 2;
        acc.note_gmem(BufId(1), 0, 4, 0, false);
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn distinct_buffers_do_not_coalesce_together() {
        let mut acc = acc_with_epoch(1);
        acc.note_gmem(BufId(1), 0, 4, 0, false);
        acc.note_gmem(BufId(2), 4, 4, 0, false);
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn straddling_access_counts_both_segments() {
        let mut acc = acc_with_epoch(1);
        // 16-byte access starting 8 bytes before a segment boundary.
        acc.note_gmem(BufId(1), 120, 16, 0, false);
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn different_slots_track_independently() {
        let mut acc = acc_with_epoch(1);
        // Two threads, two access slots each, both slots coalesced.
        for t in 0..2u64 {
            acc.note_gmem(BufId(1), t * 8, 8, 0, false);
            acc.note_gmem(BufId(2), t * 8, 8, 1, false);
        }
        assert_eq!(acc.gmem_transactions, 2); // one per slot
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
            max_block_threads: block_dim as u64,
            ..Default::default()
        };
        let mut last = std::collections::BTreeMap::new();
        for (p, threads) in block.iter().enumerate() {
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

    /// Feeds `block` to [`BlockAccounting`] the way
    /// [`crate::scope::BlockScope::threads`] does: a new warp epoch at
    /// every warp's first thread and access ordinals restarting per
    /// thread.
    fn tally(block: &Block, warp: usize) -> LaunchStats {
        let mut acc = BlockAccounting::default();
        for threads in block {
            for (tid, steps) in threads.iter().enumerate() {
                if tid % warp == 0 {
                    acc.warp_epoch += 1;
                }
                for (seq, step) in steps.iter().enumerate() {
                    if let Step::Access { buf, byte_off, bytes, store } = *step {
                        acc.note_gmem(BufId(buf), byte_off, bytes, seq as u32, store);
                    }
                }
            }
        }
        let mut out = LaunchStats::default();
        acc.fold_into(&mut out, block[0].len() as u64);
        out
    }

    fn random_block(r: &mut impl Rng) -> (Block, usize) {
        let warp = [1, 4, 8, 32][r.gen_range(0..4usize)];
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
            assert_eq!(tally(&block, warp), reference(&block, warp), "case {case}: {block:?}");
        }
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
        let acc = BlockAccounting { flops: 7, shared_bytes: 256, ..Default::default() };
        let mut out = LaunchStats::default();
        acc.fold_into(&mut out, 128);
        assert_eq!(out.blocks, 1);
        assert_eq!(out.threads, 128);
        assert_eq!(out.flops, 7);
        assert_eq!(out.max_shared_bytes, 256);
        assert_eq!(out.max_block_threads, 128);
    }
}
