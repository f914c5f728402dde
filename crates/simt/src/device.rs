//! The device handle: allocation, transfers, launches, timeline.

use std::sync::Arc;
use std::time::Instant;

use crate::buffer::{DeviceBuffer, DeviceCopy, MemPool};
use crate::engine;
use crate::fault::{DeviceError, FaultKind, FaultPlan, FaultRecord, FaultSite};
use crate::kernel::{Kernel, LaunchConfig};
use crate::props::DeviceProps;
use crate::timeline::{Event, EventKind, Timeline};
use crate::timing;

/// A simulated CUDA device.
///
/// All operations are synchronous (the paper's pipeline is too: upload,
/// iterate kernels with a host-side convergence loop, download). Modeled
/// time for every operation is appended to the [`Timeline`].
///
/// # Fallible vs. panicking API
///
/// Every operation exists in two forms. The `try_*` methods
/// ([`Device::try_alloc`], [`Device::try_htod`], [`Device::try_dtoh`],
/// [`Device::try_launch`]) return [`DeviceError`] for capacity
/// exhaustion, transfer-size mismatches, launch-geometry violations and
/// injected faults — this is the path recovery-aware callers use. The
/// historical infallible methods are thin wrappers that panic with the
/// error's `Display` text, which reproduces the pre-fallible panic
/// messages exactly. Device faults raised *inside* kernels
/// (out-of-bounds accesses) still panic from the launch engine,
/// mirroring sticky memcheck errors on real hardware.
///
/// # Fault injection
///
/// [`Device::arm_faults`] attaches a [`FaultPlan`]. Each subsequent
/// operation consumes one op index from the plan and may fail loudly
/// (OOM / launch failure / device loss) or corrupt data silently
/// (transfer corruption, resident-buffer bit flips). Injected faults
/// are recorded on the timeline and in [`Device::fault_log`]. A
/// [`FaultKind::DeviceLost`] is sticky: every later op returns
/// [`DeviceError::DeviceLost`].
pub struct Device {
    props: DeviceProps,
    timeline: Timeline,
    workers: usize,
    mem: Arc<MemPool>,
    plan: Option<FaultPlan>,
    fault_log: Vec<FaultRecord>,
    lost_at: Option<u64>,
    ordinal: u32,
}

impl Device {
    /// Creates a device with the given properties, using every host core
    /// for functional execution.
    pub fn new(props: DeviceProps) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_workers(props, workers)
    }

    /// Creates a device with an explicit host worker-thread cap
    /// (functional execution only; modeled time is unaffected).
    pub fn with_workers(props: DeviceProps, workers: usize) -> Self {
        props.validate().expect("invalid DeviceProps");
        Device {
            props,
            timeline: Timeline::default(),
            workers: workers.max(1),
            mem: Arc::new(MemPool::default()),
            plan: None,
            fault_log: Vec::new(),
            lost_at: None,
            ordinal: 0,
        }
    }

    /// Tags the device with a fleet ordinal. The ordinal rides on the
    /// timeline (and from there on every exported telemetry event), so a
    /// merged trace of several devices stays attributable per device.
    pub fn with_ordinal(mut self, ordinal: u32) -> Self {
        self.ordinal = ordinal;
        self.timeline.set_device(ordinal);
        self
    }

    /// The device's fleet ordinal (0 for single-device use).
    pub fn ordinal(&self) -> u32 {
        self.ordinal
    }

    /// The calibrated reproduction device ([`DeviceProps::paper_rig`]).
    pub fn paper_rig() -> Self {
        Self::new(DeviceProps::paper_rig())
    }

    /// Device properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Total bytes currently charged to live device allocations
    /// (decreases when a [`DeviceBuffer`] drops).
    pub fn allocated_bytes(&self) -> u64 {
        self.mem.in_use()
    }

    /// The event log.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Mutable event log (for clearing between experiment phases).
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.timeline
    }

    /// Arms a fault plan; subsequent operations draw fault decisions
    /// from it. Pass a clone of a shared plan to continue one op stream
    /// across several devices (see [`FaultPlan`]). The device's ordinal
    /// is stamped onto the plan (unless one was bound explicitly) so
    /// storm kill windows correlate on the fleet ordinal.
    pub fn arm_faults(&mut self, mut plan: FaultPlan) {
        plan.bind_ordinal(self.ordinal);
        self.plan = Some(plan);
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Every fault injected on this device so far, oldest first.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// True once a [`FaultKind::DeviceLost`] has fired; all operations
    /// fail from then on.
    pub fn is_lost(&self) -> bool {
        self.lost_at.is_some()
    }

    /// Draws the fault decision for the next op. `Err` only for device
    /// loss (sticky); silent faults come back as `Ok(Some(..))` for the
    /// caller to apply.
    fn poll_fault(&mut self, site: FaultSite) -> Result<Option<(u64, FaultKind)>, DeviceError> {
        if let Some(at_op) = self.lost_at {
            return Err(DeviceError::DeviceLost { at_op });
        }
        let Some(plan) = &self.plan else { return Ok(None) };
        let op = plan.next_op();
        let Some(kind) = plan.decide(op, site) else { return Ok(None) };
        self.fault_log.push(FaultRecord { op, site, kind: kind.clone() });
        self.timeline.push(Event {
            kind: EventKind::Fault {
                desc: format!("{} @ {}", kind.label(), site.label()),
                op,
            },
            modeled_us: 0.0,
            wall_us: 0.0,
        });
        if let FaultKind::DeviceLost { at_op } = kind {
            self.lost_at = Some(at_op);
            return Err(DeviceError::DeviceLost { at_op });
        }
        Ok(Some((op, kind)))
    }

    /// Allocates `len` zero-initialised elements on the device, failing
    /// when the allocation would exceed
    /// [`DeviceProps::global_mem_bytes`] or an OOM fault is injected.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_alloc<T: DeviceCopy>(&mut self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let injected = self.poll_fault(FaultSite::Alloc)?.is_some();
        let in_use = self.mem.in_use();
        if injected || in_use + bytes > self.props.global_mem_bytes {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                in_use,
                capacity: self.props.global_mem_bytes,
            });
        }
        let buf = DeviceBuffer::zeroed_in(len, &self.mem);
        self.timeline.push(Event {
            kind: EventKind::Alloc { bytes: buf.size_bytes() },
            modeled_us: 0.0,
            wall_us: 0.0,
        });
        Ok(buf)
    }

    /// Allocates and uploads in one step (`cudaMalloc` + `cudaMemcpy`).
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_alloc_from<T: DeviceCopy>(
        &mut self,
        src: &[T],
    ) -> Result<DeviceBuffer<T>, DeviceError> {
        let mut buf = self.try_alloc(src.len())?;
        self.try_htod(&mut buf, src)?;
        Ok(buf)
    }

    /// Uploads a host slice into a device buffer (lengths must match).
    /// An injected [`FaultKind::TransferCorruption`] flips one
    /// exponent-range bit of the device copy — silently.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_htod<T: DeviceCopy>(
        &mut self,
        buf: &mut DeviceBuffer<T>,
        src: &[T],
    ) -> Result<(), DeviceError> {
        let fault = self.poll_fault(FaultSite::Htod)?;
        if src.len() != buf.len() {
            return Err(DeviceError::TransferSize { host: src.len(), device: buf.len() });
        }
        let t0 = Instant::now();
        buf.copy_from_host(src);
        if let Some((op, FaultKind::TransferCorruption)) = fault {
            if let Some((byte, bit)) =
                self.plan.as_ref().and_then(|p| p.flip_target(op, buf.size_bytes()))
            {
                buf.flip_bit(byte as usize, bit);
            }
        }
        let bytes = buf.size_bytes();
        self.timeline.push(Event {
            kind: EventKind::Htod { bytes },
            modeled_us: timing::transfer_time(&self.props, bytes),
            wall_us: t0.elapsed().as_secs_f64() * 1e6,
        });
        Ok(())
    }

    /// Downloads a device buffer into a fresh host vector. Seeded plans
    /// never corrupt this path (read-backs are CRC-protected on real
    /// parts); a *scripted* [`FaultKind::TransferCorruption`] flips one
    /// bit of the returned host copy.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh<T: DeviceCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
    ) -> Result<Vec<T>, DeviceError> {
        let fault = self.poll_fault(FaultSite::Dtoh)?;
        let t0 = Instant::now();
        let mut out = buf.copy_to_host();
        if let Some((op, FaultKind::TransferCorruption)) = fault {
            if let Some((byte, bit)) =
                self.plan.as_ref().and_then(|p| p.flip_target(op, buf.size_bytes()))
            {
                // SAFETY: T is plain-old-data (DeviceCopy) and byte is in
                // bounds by flip_target's contract.
                unsafe {
                    let p = out.as_mut_ptr() as *mut u8;
                    *p.add(byte as usize) ^= 1 << (bit % 8);
                }
            }
        }
        let bytes = buf.size_bytes();
        self.timeline.push(Event {
            kind: EventKind::Dtoh { bytes },
            modeled_us: timing::transfer_time(&self.props, bytes),
            wall_us: t0.elapsed().as_secs_f64() * 1e6,
        });
        Ok(out)
    }

    /// [`Device::try_htod`] with end-to-end integrity: a CRC64 of the
    /// host payload is compared against a CRC64 recomputed over the
    /// device copy after the transfer (the link-CRC model, see
    /// [`crate::crc`]). A mismatch — e.g. an injected
    /// [`FaultKind::TransferCorruption`] — returns
    /// [`DeviceError::TransferCorrupted`] instead of corrupting
    /// silently; the device copy is left as transferred so the caller
    /// can retry the upload. Consumes exactly one fault-plan op, like
    /// the unchecked path.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_htod_checked<T: DeviceCopy>(
        &mut self,
        buf: &mut DeviceBuffer<T>,
        src: &[T],
    ) -> Result<(), DeviceError> {
        let expected = crate::crc::crc64_of(src);
        self.try_htod(buf, src)?;
        let actual = buf.crc64();
        if actual != expected {
            return Err(DeviceError::TransferCorrupted {
                site: FaultSite::Htod,
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// [`Device::try_dtoh`] with end-to-end integrity: the device-side
    /// CRC64 is computed before the read-back and compared with the
    /// CRC64 of the host copy. A scripted dtoh
    /// [`FaultKind::TransferCorruption`] surfaces as
    /// [`DeviceError::TransferCorrupted`] instead of handing the caller
    /// corrupted data. Consumes exactly one fault-plan op.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh_checked<T: DeviceCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
    ) -> Result<Vec<T>, DeviceError> {
        let expected = buf.crc64();
        let out = self.try_dtoh(buf)?;
        let actual = crate::crc::crc64_of(&out);
        if actual != expected {
            return Err(DeviceError::TransferCorrupted {
                site: FaultSite::Dtoh,
                expected,
                actual,
            });
        }
        Ok(out)
    }

    /// On-demand canary audit over every live allocation (the free-side
    /// check runs unconditionally when a buffer drops). Returns the
    /// number of live guarded buffers when all frames are intact, or
    /// [`DeviceError::CanarySmashed`] naming the first violated buffer.
    #[must_use = "an audit result reporting corruption must not be dropped"]
    pub fn audit_canaries(&self) -> Result<usize, DeviceError> {
        let (live, smashed) = self.mem.audit();
        match smashed.first() {
            None => Ok(live),
            Some(&buffer) => Err(DeviceError::CanarySmashed { buffer }),
        }
    }

    /// Canary violations caught by the free-side check so far (counted
    /// even when the free happened during a panic unwind).
    pub fn canary_violations(&self) -> u64 {
        self.mem.freed_smashed()
    }

    /// Launches a kernel over the given grid. Injected
    /// [`FaultKind::LaunchFailure`]s fail the launch before it runs;
    /// injected [`FaultKind::BufferBitFlip`]s corrupt one bit of a
    /// resident allocation and then run the kernel normally — silently.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_launch<K: Kernel>(
        &mut self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<(), DeviceError> {
        let fault = self.poll_fault(FaultSite::Launch)?;
        if cfg.grid < 1 || cfg.grid_y < 1 {
            return Err(DeviceError::Launch { reason: "empty grid".into() });
        }
        if cfg.block < 1 || cfg.block > self.props.max_threads_per_block {
            return Err(DeviceError::Launch {
                reason: format!(
                    "block size {} outside 1..={}",
                    cfg.block, self.props.max_threads_per_block
                ),
            });
        }
        match fault {
            Some((op, FaultKind::LaunchFailure)) => {
                return Err(DeviceError::Launch { reason: format!("injected (op {op})") });
            }
            Some((_, FaultKind::BufferBitFlip { buffer, word, bit })) => {
                self.mem.flip_bit(buffer, word, bit);
            }
            _ => {}
        }
        let t0 = Instant::now();
        let stats = engine::run_grid(
            kernel,
            &cfg,
            self.props.warp_size,
            self.props.shared_mem_per_block,
            self.workers,
        );
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let timing = timing::kernel_time(&self.props, &cfg, &stats);
        self.timeline.push(Event {
            kind: EventKind::Kernel {
                name: kernel.name(),
                grid: cfg.total_blocks().min(u32::MAX as u64) as u32,
                block: cfg.block,
                stats,
                timing,
            },
            modeled_us: timing.total_us,
            wall_us,
        });
        Ok(())
    }

    /// Panicking wrapper over [`Device::try_alloc`].
    pub fn alloc<T: DeviceCopy>(&mut self, len: usize) -> DeviceBuffer<T> {
        self.try_alloc(len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_alloc_from`].
    pub fn alloc_from<T: DeviceCopy>(&mut self, src: &[T]) -> DeviceBuffer<T> {
        self.try_alloc_from(src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_htod`].
    pub fn htod<T: DeviceCopy>(&mut self, buf: &mut DeviceBuffer<T>, src: &[T]) {
        self.try_htod(buf, src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_dtoh`].
    pub fn dtoh<T: DeviceCopy>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.try_dtoh(buf).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_launch`].
    pub fn launch<K: Kernel>(&mut self, cfg: LaunchConfig, kernel: &K) {
        self.try_launch(cfg, kernel).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{GlobalMut, GlobalRef};
    use crate::scope::BlockScope;

    struct Double<'a> {
        src: GlobalRef<'a, u32>,
        dst: GlobalMut<'a, u32>,
        n: usize,
    }

    impl Kernel for Double<'_> {
        fn name(&self) -> &'static str {
            "double"
        }
        fn block(&self, blk: &mut BlockScope) {
            blk.threads(|t| {
                let i = t.global_id();
                if i < self.n {
                    let v = t.ld(&self.src, i);
                    t.flops(1);
                    t.st(&self.dst, i, v * 2);
                }
            });
        }
    }

    #[test]
    fn end_to_end_launch_records_timeline() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 2);
        let host: Vec<u32> = (0..1000).collect();
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(1000);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1000 };
        dev.launch(LaunchConfig::for_elems(1000), &k);
        let out = dev.dtoh(&dst);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));

        let b = dev.timeline().breakdown();
        assert_eq!(b.kernels, 1);
        assert_eq!(b.htod_bytes, 4000);
        assert_eq!(b.dtoh_bytes, 4000);
        assert!(b.kernel_us >= dev.props().launch_overhead_us);
        assert!(b.htod_us > dev.props().pcie_latency_us);
        assert_eq!(dev.allocated_bytes(), 8000);
    }

    #[test]
    fn modeled_time_is_deterministic() {
        let run = || {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 4);
            let host: Vec<u32> = (0..50_000).collect();
            let src = dev.alloc_from(&host);
            let mut dst = dev.alloc::<u32>(50_000);
            let k = Double { src: src.view(), dst: dst.view_mut(), n: 50_000 };
            dev.launch(LaunchConfig::for_elems(50_000), &k);
            dev.timeline().total_modeled_us()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "launch failure")]
    fn oversized_block_is_rejected() {
        let mut dev = Device::paper_rig();
        let mut dst = dev.alloc::<u32>(1);
        let src = DeviceBuffer::<u32>::zeroed(1);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 };
        dev.launch(LaunchConfig::new(1, 2048), &k);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_is_rejected() {
        let mut dev = Device::paper_rig();
        let mut dst = dev.alloc::<u32>(1);
        let src = DeviceBuffer::<u32>::zeroed(1);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 };
        dev.launch(LaunchConfig::new(0, 32), &k);
    }

    fn tiny_props(capacity: u64) -> DeviceProps {
        DeviceProps { global_mem_bytes: capacity, ..DeviceProps::paper_rig() }
    }

    #[test]
    fn capacity_is_enforced_and_freed_on_drop() {
        let mut dev = Device::with_workers(tiny_props(1000), 1);
        let a = dev.try_alloc::<f64>(100).expect("800 B fits in 1000 B");
        assert_eq!(dev.allocated_bytes(), 800);
        let err = dev.try_alloc::<f64>(100).expect_err("second 800 B must not fit");
        assert_eq!(
            err,
            DeviceError::OutOfMemory { requested: 800, in_use: 800, capacity: 1000 }
        );
        drop(a);
        assert_eq!(dev.allocated_bytes(), 0, "drop must release the bytes");
        dev.try_alloc::<f64>(100).expect("freed capacity is reusable");
    }

    #[test]
    #[should_panic(expected = "device out of memory: requested 1600 B with 0 B of 1000 B in use")]
    fn infallible_alloc_panics_on_oom() {
        let mut dev = Device::with_workers(tiny_props(1000), 1);
        let _ = dev.alloc::<f64>(200);
    }

    #[test]
    fn try_htod_reports_length_mismatch() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let mut buf = dev.try_alloc::<u32>(2).unwrap();
        let err = dev.try_htod(&mut buf, &[1, 2, 3]).unwrap_err();
        assert_eq!(err.to_string(), "htod length mismatch: host 3 vs device 2");
    }

    #[test]
    fn try_launch_reports_geometry_errors() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let mut dst = dev.alloc::<u32>(1);
        let src = dev.alloc_from(&[1u32]);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 };
        let err = dev.try_launch(LaunchConfig::new(0, 32), &k).unwrap_err();
        assert_eq!(err.to_string(), "launch failure: empty grid");
        let err = dev.try_launch(LaunchConfig::new(1, 4096), &k).unwrap_err();
        assert_eq!(err.to_string(), "launch failure: block size 4096 outside 1..=1024");
    }

    #[test]
    fn scripted_launch_failure_is_transient_and_logged() {
        let host: Vec<u32> = (0..8).collect();
        // Ops: 0 = src alloc, 1 = src htod, 2 = dst alloc, 3 = launch.
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(3, FaultKind::LaunchFailure)]));
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(8);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 8 };
        let err = dev.try_launch(LaunchConfig::for_elems(8), &k).unwrap_err();
        assert!(matches!(err, DeviceError::Launch { .. }), "{err}");
        assert_eq!(dev.fault_log().len(), 1);
        // The very next launch (op 4) succeeds: the failure was transient.
        dev.try_launch(LaunchConfig::for_elems(8), &k).expect("transient");
        assert_eq!(dev.dtoh(&dst), (0..8).map(|v| 2 * v).collect::<Vec<u32>>());
        let b = dev.timeline().breakdown();
        assert_eq!(b.faults, 1, "fault must appear on the timeline");
    }

    #[test]
    fn launch_fault_sites_fire_only_on_launch_ops() {
        // A LaunchFailure scripted onto an alloc op is site-incompatible
        // and must not fire.
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(0, FaultKind::LaunchFailure)]));
        dev.try_alloc::<u32>(4).expect("alloc op ignores launch-only fault");
        assert!(dev.fault_log().is_empty());
    }

    #[test]
    fn device_lost_is_sticky() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(1, FaultKind::DeviceLost { at_op: 0 })]));
        let _a = dev.try_alloc::<u32>(4).expect("op 0 clean");
        let err = dev.try_alloc::<u32>(4).unwrap_err();
        assert_eq!(err, DeviceError::DeviceLost { at_op: 1 });
        assert!(dev.is_lost());
        // Every later op fails identically without consuming plan ops.
        let err = dev.try_alloc::<u32>(4).unwrap_err();
        assert_eq!(err, DeviceError::DeviceLost { at_op: 1 });
        assert_eq!(dev.fault_plan().unwrap().ops_started(), 2);
    }

    #[test]
    fn scripted_htod_corruption_flips_exactly_one_bit() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(1, FaultKind::TransferCorruption)]));
        let host = vec![1.0f64; 64];
        let mut buf = dev.try_alloc::<f64>(64).unwrap(); // op 0
        dev.try_htod(&mut buf, &host).unwrap(); // op 1 — corrupted
        let back = dev.try_dtoh(&buf).unwrap(); // op 2 — clean
        let diffs: Vec<usize> =
            back.iter().zip(&host).enumerate().filter(|(_, (a, b))| a != b).map(|(i, _)| i).collect();
        assert_eq!(diffs.len(), 1, "exactly one word corrupted, got {diffs:?}");
        let bad = back[diffs[0]];
        // Exponent-range flip: the corruption is catastrophic, not subtle.
        assert!(bad == 0.0 || !(0.5..=2.0).contains(&bad.abs()), "flip too subtle: {bad}");
    }

    #[test]
    fn checked_htod_detects_injected_corruption_and_clean_retry_succeeds() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(1, FaultKind::TransferCorruption)]));
        let host = vec![1.0f64; 64];
        let mut buf = dev.try_alloc::<f64>(64).unwrap(); // op 0
        let err = dev.try_htod_checked(&mut buf, &host).unwrap_err(); // op 1 — corrupted
        let DeviceError::TransferCorrupted { site, expected, actual } = err else {
            panic!("expected TransferCorrupted, got {err}");
        };
        assert_eq!(site, FaultSite::Htod);
        assert_ne!(expected, actual);
        // The retry (op 2) is clean and round-trips exactly.
        dev.try_htod_checked(&mut buf, &host).expect("clean retry");
        assert_eq!(dev.try_dtoh_checked(&buf).unwrap(), host);
    }

    #[test]
    fn checked_dtoh_detects_scripted_readback_corruption() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(2, FaultKind::TransferCorruption)]));
        let host = vec![2.0f64; 32];
        let mut buf = dev.try_alloc::<f64>(32).unwrap(); // op 0
        dev.try_htod_checked(&mut buf, &host).unwrap(); // op 1
        let err = dev.try_dtoh_checked(&buf).unwrap_err(); // op 2 — corrupted
        assert!(
            matches!(
                err,
                DeviceError::TransferCorrupted { site: FaultSite::Dtoh, .. }
            ),
            "{err}"
        );
        // Device memory itself is untouched; the retry reads it back clean.
        assert_eq!(dev.try_dtoh_checked(&buf).unwrap(), host);
    }

    #[test]
    fn checked_transfers_consume_the_same_op_budget_as_unchecked() {
        let run = |checked: bool| {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
            dev.arm_faults(FaultPlan::seeded(3, 0.0));
            let host = vec![1.0f64; 8];
            let mut buf = dev.try_alloc::<f64>(8).unwrap();
            if checked {
                dev.try_htod_checked(&mut buf, &host).unwrap();
                dev.try_dtoh_checked(&buf).unwrap();
            } else {
                dev.try_htod(&mut buf, &host).unwrap();
                dev.try_dtoh(&buf).unwrap();
            }
            dev.fault_plan().unwrap().ops_started()
        };
        assert_eq!(run(true), run(false), "checked paths must not skew op indices");
    }

    #[test]
    fn audit_canaries_reports_live_buffers_and_violations() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let _a = dev.try_alloc::<f64>(16).unwrap();
        let mut b = dev.try_alloc::<u32>(4).unwrap();
        assert_eq!(dev.audit_canaries(), Ok(2));
        b.smash_rear_canary_for_test();
        let err = dev.audit_canaries().unwrap_err();
        assert_eq!(err, DeviceError::CanarySmashed { buffer: b.id().0 });
        assert_eq!(dev.canary_violations(), 0, "free-side counter untouched by audits");
        std::mem::forget(b); // skip the intended free-side panic
    }

    #[test]
    fn seeded_device_runs_replay_identically() {
        let run = |seed: u64| {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
            dev.arm_faults(FaultPlan::seeded(seed, 0.2));
            let host: Vec<u32> = (0..64).collect();
            let mut log = Vec::new();
            for _ in 0..40 {
                match dev.try_alloc_from(&host) {
                    Ok(buf) => match dev.try_dtoh(&buf) {
                        Ok(v) => log.push(format!("ok {}", v.iter().sum::<u32>())),
                        Err(e) => log.push(format!("dtoh err {e}")),
                    },
                    Err(e) => log.push(format!("alloc err {e}")),
                }
            }
            (log, dev.fault_log().to_vec())
        };
        assert_eq!(run(7), run(7), "same seed must replay byte-identically");
        assert_ne!(run(7).1, run(8).1, "different seeds must differ");
    }
}
