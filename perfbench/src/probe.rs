//! A fixed reference workload that gauges how fast the host runs at the
//! moment.
//!
//! A shared host's speed drifts by a fifth or more over minutes, as
//! other tenants come and go, and every CPU-bound timing drifts with it.
//! The probe is one radial backward/forward sweep in plain `f64`
//! arithmetic, written here rather than taken from the library, so that
//! no change to the program changes what it measures. A monitor thread
//! runs it every few milliseconds for the whole run and records the
//! thread CPU time of each sweep; dividing a phase's mean wall time by
//! the mean sweep time of the same phase cancels most of the host's
//! drift. Both are means, not medians: the host flips between a fast and
//! a slow state many times a second, so a median lands on one state or
//! the other, while a mean moves smoothly with the share of time spent
//! slow, alike for the sweeps and for the work.
//!
//! The ratio only holds when the probe runs on the core the work runs
//! on: the host's vCPUs are slowed independently of each other. The
//! runner therefore pins itself to one CPU before it starts any thread
//! ([`pin_to_current_cpu`]); the monitor and every thread the library
//! spawns inherit that CPU. The monitor takes 4–5% of it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Buses of the probe's feeder: its arrays (about 4 MiB) outgrow the
/// core's private caches, as the workloads' do.
const BUSES: usize = 1 << 16;
/// Pause between two sweeps of the monitor.
const PERIOD: Duration = Duration::from_millis(20);
/// The sweep time normalised figures are scaled to, ms: about the mean
/// sweep on a two-vCPU 2 GHz Xeon guest, so a normalised time reads
/// close to the wall time there.
const NOMINAL_MS: f64 = 0.8;

/// Every sweep the monitor timed: when it ended, and its thread CPU ms.
static SAMPLES: Mutex<Vec<(Instant, f64)>> = Mutex::new(Vec::new());

/// The probe's feeder.
struct Sweep {
    parent: Vec<u32>,
    z: Vec<(f64, f64)>,
    s: Vec<(f64, f64)>,
    v: Vec<(f64, f64)>,
    i: Vec<(f64, f64)>,
}

impl Sweep {
    fn new() -> Self {
        // A fixed linear congruential stream: the probe's work is the
        // same in every run.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        let parent = (0..BUSES)
            .map(|b| if b == 0 { 0 } else { (next() * b as f64) as u32 })
            .collect();
        let z = (0..BUSES)
            .map(|_| (1e-4 * (1.0 + next()), 2e-4 * (1.0 + next())))
            .collect();
        let s = (0..BUSES)
            .map(|_| (1e-6 * (1.0 + next()), 5e-7 * (1.0 + next())))
            .collect();
        Sweep {
            parent,
            z,
            s,
            v: vec![(1.0, 0.0); BUSES],
            i: vec![(0.0, 0.0); BUSES],
        }
    }

    /// Thread CPU ms of one backward/forward sweep: load currents
    /// `conj(S / V)`, summed toward the root, then voltages pushed back
    /// down the tree.
    fn timed(&mut self) -> f64 {
        let t = thread_cpu_ms();
        for b in 0..BUSES {
            let (sr, si) = self.s[b];
            let (vr, vi) = self.v[b];
            let d = vr * vr + vi * vi;
            self.i[b] = ((sr * vr + si * vi) / d, (si * vr - sr * vi) / d);
        }
        for b in (1..BUSES).rev() {
            let p = self.parent[b] as usize;
            let (ir, ii) = self.i[b];
            self.i[p].0 += ir;
            self.i[p].1 += ii;
        }
        self.v[0] = (1.0, 0.0);
        for b in 1..BUSES {
            let (vr, vi) = self.v[self.parent[b] as usize];
            let (zr, zi) = self.z[b];
            let (ir, ii) = self.i[b];
            self.v[b] = (vr - (zr * ir - zi * ii), vi - (zr * ii + zi * ir));
        }
        let ms = thread_cpu_ms() - t;
        // Keeps the answer observable, so the sweep is not optimised away.
        assert!(self.v[BUSES - 1].0.is_finite(), "probe sweep diverged");
        ms
    }
}

/// The monitor thread; dropping it stops and joins it.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Monitor {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut sweep = Sweep::new();
            while !flag.load(Ordering::Relaxed) {
                let ms = sweep.timed();
                SAMPLES
                    .lock()
                    .expect("probe samples")
                    .push((Instant::now(), ms));
                std::thread::sleep(PERIOD);
            }
        });
        Monitor {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // A panicked monitor has nothing left to stop.
            let _ = h.join();
        }
    }
}

/// Mean sweep time, ms, of the samples taken since `since`. With none
/// (no monitor, or a phase shorter than its period), one sweep on the
/// calling thread stands in.
pub fn mean_ms_since(since: Instant) -> f64 {
    let ms: Vec<f64> = SAMPLES
        .lock()
        .expect("probe samples")
        .iter()
        .filter(|(t, _)| *t >= since)
        .map(|&(_, ms)| ms)
        .collect();
    if ms.is_empty() {
        return Sweep::new().timed();
    }
    ms.iter().sum::<f64>() / ms.len() as f64
}

/// `ms`, measured since `since`, scaled to a host on which the sweep
/// takes `NOMINAL_MS`.
pub fn normalise(ms: f64, since: Instant) -> f64 {
    ms * NOMINAL_MS / mean_ms_since(since)
}

/// CPU time of the calling thread, ms.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live `struct timespec` of the platform's layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Wall time stands in where the thread CPU clock is not wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ms() -> f64 {
    use std::sync::OnceLock;
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// Pins the process to the CPU its main thread is running on. Call it
/// before any other thread starts: threads inherit the mask, and
/// `std::thread::available_parallelism` reads 1 from then on. Returns
/// the CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only returns a number.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: the mask is a live, correctly sized `cpu_set_t`, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    Err("pinning needs Linux".to_string())
}
