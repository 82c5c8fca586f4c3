//! Small helpers shared by every workload: the seeded generator, process
//! CPU and peak-memory readings, percentiles, and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// SplitMix64: a tiny, seedable generator, so the inputs depend on
/// `--seed` alone and on no library's idea of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A shuffled sequence holding each kind exactly `count` times, so
    /// every seed runs the same mix and only the order differs.
    pub fn mix<K: Copy>(&mut self, counts: &[(K, usize)]) -> Vec<K> {
        let mut kinds: Vec<K> = counts
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.below(i + 1));
        }
        kinds
    }
}

/// Seconds the host-speed probe takes at the reference speed: its
/// median on the reference host (README), so that normalized figures read
/// close to raw ones there.
pub const PROBE_REF_S: f64 = 0.0012;

/// The host-speed probe: a fixed piece of work shaped like the engine's
/// own (hashing keys into an open-addressing table of one MiB, then
/// looking every key up again). Its time tracks how fast this CPU runs
/// right now; on a shared virtual machine that swings by a third within a
/// minute. It allocates nothing after its first call, so the state the
/// program leaves in the allocator cannot move it.
///
/// Records the median of three runs, in seconds, for [`take_probes`], and
/// the CPU time the calling thread spent on them, for [`probe_cpu`].
/// Workloads probe before a round's set-up, after its server has shut
/// down, and at idle points of the timed phase (never while an operation
/// is in flight), so the probes sample the host across the whole round.
pub fn probe() {
    let cpu0 = thread_cpu();
    const SLOTS: usize = 1 << 17;
    const KEYS: u64 = 1 << 16;
    static TABLE: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
    let mut table = TABLE.lock().unwrap();
    if table.is_empty() {
        table.resize(SLOTS, 0);
    }
    let mut times: Vec<f64> = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = std::time::Instant::now();
        table.fill(0);
        let hash = |k: u64| {
            let h = (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h ^ (h >> 29)) as usize & (SLOTS - 1)
        };
        for k in 0..KEYS {
            let mut slot = hash(k);
            while table[slot] != 0 {
                slot = (slot + 1) & (SLOTS - 1);
            }
            table[slot] = k + 1;
        }
        let mut found = 0u64;
        for k in 0..KEYS {
            let mut slot = hash(k);
            while table[slot] != k + 1 {
                slot = (slot + 1) & (SLOTS - 1);
            }
            found += 1;
        }
        std::hint::black_box(found);
        times.push(start.elapsed().as_secs_f64());
    }
    drop(table);
    let mut probes = PROBES.lock().unwrap();
    probes.0.push(median(&mut times));
    probes.1 += thread_cpu().saturating_sub(cpu0);
}

/// The probes recorded since the last [`take_probes`], and the CPU time
/// every probe so far has taken.
static PROBES: std::sync::Mutex<(Vec<f64>, Duration)> =
    std::sync::Mutex::new((Vec::new(), Duration::ZERO));

/// The CPU time the probing threads have spent in probes so far.
pub fn probe_cpu() -> Duration {
    PROBES.lock().unwrap().1
}

/// The median of the probes recorded since the last call, in seconds.
pub fn take_probes() -> f64 {
    median(&mut std::mem::take(&mut PROBES.lock().unwrap().0))
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and so every thread it starts later, to
/// the first CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the mask is a 1024-bit cpu_set_t; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    ok.then_some(cpu)
}

/// User + system CPU time of `who`: `RUSAGE_SELF` (0) or
/// `RUSAGE_THREAD` (1).
fn cpu_time(who: i32) -> Duration {
    let mut u = Rusage::default();
    // SAFETY: getrusage fills the struct, whose layout matches the Linux
    // x86-64/aarch64 `struct rusage`.
    unsafe { getrusage(who, &mut u) };
    let micros = (u.utime.sec + u.stime.sec) * 1_000_000 + u.utime.usec + u.stime.usec;
    Duration::from_micros(micros.max(0) as u64)
}

/// User + system CPU time of the whole process (every thread).
pub fn process_cpu() -> Duration {
    cpu_time(0)
}

/// User + system CPU time of the calling thread.
fn thread_cpu() -> Duration {
    cpu_time(1)
}

/// Peak resident set size of the process so far, in MiB: `VmHWM`, the
/// high-water mark of this process's own address space. (`getrusage`'s
/// `ru_maxrss` survives `execve`, so under `cargo run` it would report
/// cargo's footprint whenever this process stays smaller.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The mean of the best quarter of a sample (at least one value): the
/// lowest values when `lower_is_better`, else the highest.
pub fn best_quarter_mean(samples: &mut [f64], lower_is_better: bool) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if !lower_is_better {
        samples.reverse();
    }
    let k = (samples.len() / 4).max(1).min(samples.len());
    mean(&samples[..k])
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The benchmark's scratch area: `.bench_data/<pid>` under the working
/// directory (the checkout root), removed again by [`Scratch::drop`].
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    pub fn new() -> Scratch {
        let root = PathBuf::from(".bench_data").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create .bench_data");
        Scratch {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    /// A fresh, not yet existing path under the scratch root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += dir_bytes(&path);
            } else if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

/// Copies a directory tree (the WAL directory has no nesting, but the
/// copy does not rely on that).
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read WAL dir").flatten() {
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_dir(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy WAL file");
        }
    }
}
