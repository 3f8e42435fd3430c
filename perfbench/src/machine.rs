//! The machine fingerprint printed beside every run, so a noisy run can
//! be explained from its own data: core count, CPU model, L3 size, the
//! share of CPU time the hypervisor stole during the run, the process's
//! own CPU seconds and peak resident set, a fixed-work calibration timed
//! at the start and at the end of the run, and the run's work counters.
//! A slower host shows in the calibration; more work shows in the
//! counters. It also counts heap bytes, for the peak memory a job needs.
//! Linux `/proc` and `/sys` only; fields read as unknown elsewhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use htp_server::json::{obj, Json};

/// `/proc` reports CPU time in `USER_HZ` ticks, 100 per second on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// Aggregate `cpu` line of `/proc/stat`: (steal ticks, all ticks).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user time.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// User plus system CPU seconds of this process so far.
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|x| x.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// A `kB` field of `/proc/self/status` in MiB; NaN when unreadable.
fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The system allocator, counting the bytes live on the heap and their
/// high-water mark. The counts are statistics only and publish no other
/// data, so every access is `Relaxed`.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Runs `f` and returns its result with the most memory live on the
/// heap at any point during the call, in MiB: what is live when `f`
/// starts plus what `f` allocates, independent of how much freed memory
/// the allocator keeps resident.
pub fn with_peak_heap<T>(f: impl FnOnce() -> T) -> (T, f64) {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0))
}

/// How often [`with_heap_samples`] reads the live heap.
const HEAP_SAMPLE_PERIOD: Duration = Duration::from_millis(5);

/// Runs `f` while a sampler thread reads the bytes live on the heap
/// every [`HEAP_SAMPLE_PERIOD`]; returns `f`'s result and the samples in
/// MiB, at least one.
pub fn with_heap_samples<T>(f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            loop {
                samples.push(LIVE.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0));
                if done.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(HEAP_SAMPLE_PERIOD);
            }
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        (
            out,
            sampler.join().expect("the heap sampler does not panic"),
        )
    })
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l3_size() -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = fs::read_to_string(format!("{dir}/level")).ok()?;
            if level.trim() != "3" {
                return None;
            }
            fs::read_to_string(format!("{dir}/size"))
                .ok()
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Steps of the compute calibration: a dependent multiply–xorshift chain
/// (about 14 ms on the reference host when it is quiet).
const CALIBRATION_STEPS: u64 = 1 << 23;
/// Slots of the memory calibration's pointer cycle: 8 MiB, past the
/// per-core caches.
const CHASE_SLOTS: usize = 1 << 20;
/// Timings per calibration kernel; the fingerprint reports their median.
const CALIBRATION_REPEATS: usize = 5;

/// Milliseconds the host takes for a fixed amount of single-core work,
/// median of [`CALIBRATION_REPEATS`] timings per kernel.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// The compute chain: core clock and sharing of the core.
    pub compute_ms: f64,
    /// A dependent walk once around a random cycle through 8 MiB: the
    /// memory system, shared with other tenants of the host.
    pub memory_ms: f64,
}

impl Calibration {
    pub fn measure() -> Self {
        // Sattolo's shuffle turns the identity into one cycle through
        // every slot; the generator is fixed, so the walk is too.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..CHASE_SLOTS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        let time = |f: &dyn Fn() -> u64| {
            let ms: Vec<f64> = (0..CALIBRATION_REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            crate::stats::median(&ms)
        };
        let compute_ms = time(&|| {
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..CALIBRATION_STEPS {
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 31;
            }
            x
        });
        let memory_ms = time(&|| {
            let mut at = 0u32;
            for _ in 0..CHASE_SLOTS {
                at = next[at as usize];
            }
            u64::from(at)
        });
        Calibration {
            compute_ms,
            memory_ms,
        }
    }

    fn to_json(self) -> Json {
        obj(vec![
            ("compute_ms", Json::Num(self.compute_ms)),
            ("memory_ms", Json::Num(self.memory_ms)),
        ])
    }
}

/// Captures the machine-wide CPU counters and the calibration at the
/// start of a run.
pub struct Fingerprint {
    start_ticks: Option<(u64, u64)>,
    start_calibration: Calibration,
}

impl Fingerprint {
    pub fn start() -> Self {
        Fingerprint {
            start_calibration: Calibration::measure(),
            start_ticks: cpu_ticks(),
        }
    }

    /// The fingerprint of the run so far, with the run's work counters.
    pub fn finish(&self, work: &crate::Report) -> Json {
        let end_calibration = Calibration::measure();
        let steal_share = match (self.start_ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => f64::NAN,
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        obj(vec![
            ("nproc", Json::Num(nproc as f64)),
            ("cpu_model", Json::Str(cpu_model())),
            ("l3", Json::Str(l3_size())),
            ("steal_share", Json::Num(steal_share)),
            ("process_cpu_s", Json::Num(process_cpu_seconds())),
            ("vmhwm_mb", Json::Num(status_mb("VmHWM:"))),
            ("calibration_start", self.start_calibration.to_json()),
            ("calibration_end", end_calibration.to_json()),
            (
                "work",
                Json::Obj(
                    work.iter()
                        .map(|(&k, &v)| (k.to_owned(), Json::Num(v)))
                        .collect(),
                ),
            ),
        ])
    }
}
