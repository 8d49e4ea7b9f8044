//! Operating-system facilities the standard library lacks, declared
//! directly since no libc crate is available: per-thread and per-process
//! CPU time (`clock_gettime`), peak resident set size (`VmHWM` in
//! `/proc/self/status`), thread pinning (`sched_setaffinity`) and the
//! allocator's tuning knobs (`mallopt`).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and both clock ids are defined
    // by Linux, so `clock_gettime` writes only inside `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed so far by every thread of the process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of the process in MB (10^6 bytes), or `None`
/// when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// A CPU set as glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Pin the calling thread to the `n`-th CPU (modulo their number) the
/// process may run on, so each rank of a job keeps its own core from run
/// to run. Does nothing if the kernel refuses.
pub fn pin_to_nth_cpu(n: usize) {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable 128-byte CPU set for the whole
    // call, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[n % cpus.len()];
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte CPU set for the whole call, and pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
}

/// Fix glibc's allocator configuration for the run: one arena, and fixed
/// (not self-adjusting) mmap and trim thresholds. With the defaults, where
/// a 1 MiB buffer lives and how much memory the process keeps depend on the
/// order of the first frees, which made timings and peak memory bimodal
/// from run to run. Call before any thread starts.
pub fn fix_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    for (param, value) in [
        (M_ARENA_MAX, 1),
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_TRIM_THRESHOLD, 256 << 20),
    ] {
        // SAFETY: `mallopt` takes two plain integers and only changes the
        // allocator's tuning; no thread is allocating concurrently yet.
        unsafe { mallopt(param, value) };
    }
}
