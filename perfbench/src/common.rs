//! Pieces shared by the workloads: the run plan, per-op-kind tallies,
//! program counter snapshots, the seeded input generator and the
//! out-of-band barrier that paces ranks between timed blocks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Every workload runs three op kinds, reported as `op_a_us`, `op_b_us`
/// and `op_c_us`.
pub const KINDS: usize = 3;

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 25;

/// Budget for every bounded wait in a workload that should never fail.
pub const WAIT: Duration = Duration::from_secs(2);

/// One measured phase of a run: untraced, or traced, and how many rounds
/// of the workload it runs. Every run of a workload at a given `--seconds`
/// does the same work, so op counts, failure shares and memory compare
/// across runs and commits; the round rates are set so that a run
/// measures for about `--seconds` on a 2-core x86-64 host.
#[derive(Clone, Copy, Debug)]
pub struct PhasePlan {
    pub traced: bool,
    pub rounds: usize,
}

/// Program counters read before and after each timed block, as
/// `(component, name)` pairs summed over all processes.
pub const COUNTERS: [(&str, &str); 16] = [
    ("fabric", "msgs_on_node"),
    ("fabric", "msgs_inter_node"),
    ("fabric", "bytes_on_node"),
    ("fabric", "bytes_inter_node"),
    ("pmix", "stage_fanin"),
    ("pmix", "stage_xchg"),
    ("pmix", "stage_fanout"),
    ("pmix", "group_construct_completed"),
    ("pmix", "pgcid_pool_hits"),
    ("pmix", "pgcid_allocated"),
    ("cid", "derivations"),
    ("cid", "refills"),
    ("cid", "subfields_recycled"),
    ("pml", "handshakes"),
    ("pml", "ext_sent"),
    ("pml", "advert_hits"),
];

/// Position of a counter in [`COUNTERS`].
pub fn counter_ix(component: &str, name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|&(c, n)| c == component && n == name)
        .unwrap_or_else(|| panic!("counter {component}.{name} is not in COUNTERS"))
}

pub type Counters = [u64; COUNTERS.len()];

pub fn snapshot(reg: &obs::Registry) -> Counters {
    let mut out = [0; COUNTERS.len()];
    for (slot, (c, n)) in out.iter_mut().zip(COUNTERS) {
        *slot = reg.sum_counters(c, n);
    }
    out
}

/// Timings and outcomes of one op kind within one phase.
#[derive(Default, Clone, Debug)]
pub struct KindTally {
    /// One wall-time sample per op or per window of ops (µs, the slower
    /// rank where the op spans ranks).
    pub samples_us: Vec<f64>,
    /// Failed ops per sample.
    pub fails: Vec<u32>,
    /// Ops per sample: 1, or the window size of a message stream.
    pub ops_per_sample: u64,
    /// Counter deltas summed over the kind's blocks.
    pub counters: Counters,
    /// Ops inside those blocks, which per-op counter ratios divide by.
    pub counted_ops: u64,
}

impl KindTally {
    pub fn record(&mut self, us: f64, fails: u32) {
        self.samples_us.push(us);
        self.fails.push(fails);
    }

    pub fn ops(&self) -> u64 {
        self.samples_us.len() as u64 * self.ops_per_sample
    }

    pub fn failed(&self) -> u64 {
        self.fails.iter().map(|&f| f as u64).sum()
    }

    /// Median wall time per op, in µs.
    pub fn per_op_median_us(&self) -> f64 {
        crate::stats::median(&self.samples_us) / self.ops_per_sample.max(1) as f64
    }

    pub fn add_counters(&mut self, before: &Counters, after: &Counters, ops: u64) {
        self.counted_ops += ops;
        for ((acc, b), a) in self.counters.iter_mut().zip(before).zip(after) {
            *acc += a.saturating_sub(*b);
        }
    }

    /// Fold in the same kind as another rank saw it: each op takes the
    /// slower rank's time and the larger failure count of the two ranks.
    /// Counters stay: only rank 0 reads them.
    pub fn merge_rank(&mut self, other: &KindTally) {
        for (s, o) in self.samples_us.iter_mut().zip(&other.samples_us) {
            *s = s.max(*o);
        }
        for (f, o) in self.fails.iter_mut().zip(&other.fails) {
            *f = (*f).max(*o);
        }
    }
}

/// One phase as measured.
#[derive(Default, Clone, Debug)]
pub struct Phase {
    pub wall_s: f64,
    /// Per round: process CPU time (µs) less the time ranks spent waiting
    /// in the pacing barrier, divided by the round's ops. Its median is
    /// `cpu_us_per_op`, so a burst of load on the host moves a few rounds,
    /// not the run's figure.
    pub round_cpu_us_per_op: Vec<f64>,
    pub kinds: [KindTally; KINDS],
    /// `launch_init` only: `Launcher::spawn` → `JobHandle::join`, per job.
    pub job_us: Vec<f64>,
}

impl Phase {
    pub fn new(ops_per_sample: [u64; KINDS]) -> Self {
        let mut ph = Phase::default();
        for (k, n) in ph.kinds.iter_mut().zip(ops_per_sample) {
            k.ops_per_sample = n;
        }
        ph
    }

    pub fn ops(&self) -> u64 {
        self.kinds.iter().map(KindTally::ops).sum()
    }
    pub fn failed(&self) -> u64 {
        self.kinds.iter().map(KindTally::failed).sum()
    }

    /// Record one round that took `cpu_ns` of CPU time over `ops` ops.
    pub fn record_round_cpu(&mut self, cpu_ns: u64, ops: u64) {
        self.round_cpu_us_per_op
            .push(cpu_ns as f64 / 1e3 / ops.max(1) as f64);
    }
}

/// A whole run of one workload.
#[derive(Default)]
pub struct RunOut {
    pub setup_s: Vec<f64>,
    pub boot_ms: Vec<f64>,
    pub phases: Vec<Phase>,
    pub trace: crate::trace::ThreadTrace,
    /// Per job: last rank-body return → `JobHandle::join` return (µs).
    pub join_tail_us: Vec<f64>,
    /// Failures outside the measured phases (set-up, warm-up, teardown).
    pub other_failed: u64,
    pub spans_dropped: u64,
    pub events_dropped: u64,
}

/// SplitMix64: the seeded generator for tags and payload bytes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_0F5E_55ED)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// The 8-byte payload rank `rank` sends for op `op` in a run seeded by
/// `seed`: distinct per op, so a message matched to the wrong op shows.
pub fn payload8(seed: u64, op: u64, rank: u32) -> [u8; 8] {
    let mut r = Rng::new(seed ^ op.rotate_left(17) ^ ((rank as u64) << 56));
    r.next_u64().to_le_bytes()
}

/// A barrier outside the program under test: it paces ranks between timed
/// blocks without sending a message through the stack. A waiter spins for
/// up to [`Pace::SPIN`], so ranks that arrive together leave together,
/// then sleeps, leaving its CPU to the stack's helper threads.
pub struct Pace {
    parties: usize,
    /// Arrived count and generation.
    state: Mutex<(usize, u64)>,
    wake: Condvar,
    /// The generation, readable without the lock while spinning.
    generation: AtomicU64,
    /// Thread CPU time spent waiting here, summed over threads.
    wait_cpu_ns: AtomicU64,
}

impl Pace {
    const SPIN: Duration = Duration::from_micros(20);

    pub fn new(parties: usize) -> Self {
        Self {
            parties,
            state: Mutex::new((0, 0)),
            wake: Condvar::new(),
            generation: AtomicU64::new(0),
            wait_cpu_ns: AtomicU64::new(0),
        }
    }

    /// CPU time threads have spent waiting in this barrier so far.
    pub fn wait_cpu_ns(&self) -> u64 {
        self.wait_cpu_ns.load(Ordering::Relaxed)
    }

    pub fn wait(&self) {
        let gen = {
            let mut st = self
                .state
                .lock()
                .expect("no rank panics while holding the pace lock");
            st.0 += 1;
            if st.0 == self.parties {
                st.0 = 0;
                st.1 += 1;
                self.generation.store(st.1, Ordering::Release);
                self.wake.notify_all();
                return;
            }
            st.1
        };
        let cpu0 = crate::sys::thread_cpu_ns();
        let t0 = Instant::now();
        while self.generation.load(Ordering::Acquire) == gen && t0.elapsed() < Self::SPIN {
            std::hint::spin_loop();
        }
        let mut st = self
            .state
            .lock()
            .expect("no rank panics while holding the pace lock");
        while st.1 == gen {
            st = self
                .wake
                .wait(st)
                .expect("no rank panics while holding the pace lock");
        }
        drop(st);
        let spent = crate::sys::thread_cpu_ns().saturating_sub(cpu0);
        self.wait_cpu_ns.fetch_add(spent, Ordering::Relaxed);
    }
}

/// Wait for every receive with one shared budget; each entry is the
/// payload or the wait's error.
pub fn wait_recvs(
    reqs: Vec<mpi_sessions::Request>,
    budget: Duration,
) -> Vec<mpi_sessions::Result<bytes::Bytes>> {
    let deadline = Instant::now() + budget;
    reqs.into_iter()
        .map(|mut r| r.wait_data_timeout(left(deadline)).map(|(d, _)| d))
        .collect()
}

/// Wait for every send with one shared budget; returns how many failed.
pub fn wait_sends(reqs: Vec<mpi_sessions::Request>, budget: Duration) -> u32 {
    let deadline = Instant::now() + budget;
    reqs.into_iter()
        .map(|mut r| r.wait_timeout(left(deadline)).is_err() as u32)
        .sum()
}

fn left(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// The value rank `rank` contributes to the `allreduce` of op `op`.
fn contribution(seed: u64, op: u64, rank: u32) -> u64 {
    u64::from_le_bytes(payload8(seed, op ^ 0xA11, rank)) >> 8
}

/// Sum-`allreduce` of seeded values inside span `name`; returns 1 when the
/// call fails or the result is wrong.
pub fn checked_allreduce(comm: &mpi_sessions::Comm, name: &'static str, seed: u64, op: u64) -> u32 {
    use mpi_sessions::{coll, ReduceOp};
    let mine = contribution(seed, op, comm.rank());
    let want: u64 = (0..comm.size()).map(|r| contribution(seed, op, r)).sum();
    let got = crate::trace::span(name, op, || coll::allreduce_t(comm, ReduceOp::Sum, &[mine]));
    !matches!(got.as_deref(), Ok([v]) if *v == want) as u32
}

/// An 8-byte exchange between this rank and `peer` on `comm`: post the
/// receive, send, then wait for both within `budget`. Returns 1 on any
/// error or a payload other than the one `peer` sends for `op`.
pub fn exchange8(
    comm: &mpi_sessions::Comm,
    peer: u32,
    tag: i32,
    seed: u64,
    op: u64,
    budget: Duration,
) -> u32 {
    use crate::trace::span;
    let me = comm.rank();
    let rreq = span("request.issue", op, || comm.irecv(peer as i32, tag));
    let sreq = span("request.issue", op, || {
        comm.isend(peer, tag, &payload8(seed, op, me))
    });
    let (Ok(mut rreq), Ok(sreq)) = (rreq, sreq) else {
        return 1;
    };
    let recv_ok =
        matches!(rreq.wait_data_timeout(budget), Ok((d, _)) if d[..] == payload8(seed, op, peer));
    let sends_failed = wait_sends(vec![sreq], budget);
    (!recv_ok || sends_failed > 0) as u32
}

/// Send the 8-byte payload of `op` to `dst` and wait; 1 on failure.
pub fn send8(comm: &mpi_sessions::Comm, dst: u32, tag: i32, seed: u64, op: u64) -> u32 {
    let data = payload8(seed, op, comm.rank());
    match crate::trace::span("request.issue", op, || comm.isend(dst, tag, &data)) {
        Ok(r) => wait_sends(vec![r], WAIT),
        Err(_) => 1,
    }
}

/// Receive the 8-byte payload `src` sends for `op`; 1 on failure.
pub fn recv8(comm: &mpi_sessions::Comm, src: u32, tag: i32, seed: u64, op: u64) -> u32 {
    match crate::trace::span("request.issue", op, || comm.irecv(src as i32, tag)) {
        Ok(mut r) => {
            let got = r.wait_data_timeout(WAIT);
            !matches!(got, Ok((d, _)) if d[..] == payload8(seed, op, src)) as u32
        }
        Err(_) => 1,
    }
}

/// One 8-byte ping-pong on `comm`: rank 0 sends then receives, rank 1
/// receives then sends. Returns 1 on any error or wrong payload.
pub fn pingpong8(comm: &mpi_sessions::Comm, tag: i32, seed: u64, op: u64) -> u32 {
    let peer = 1 - comm.rank();
    let fails = if comm.rank() == 0 {
        let sent = send8(comm, peer, tag, seed, op);
        sent + recv8(comm, peer, tag, seed, op)
    } else {
        let got = recv8(comm, peer, tag, seed, op);
        got + send8(comm, peer, tag, seed, op)
    };
    fails.min(1)
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}
