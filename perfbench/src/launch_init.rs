//! `launch_init`: time to a usable communicator (the paper's Fig. 3).
//!
//! One DVM on `tiny(2,1)` runs a sequence of 2-rank jobs that rotates a
//! fixed order of MPI_Init (kind a), eager Sessions (kind b) and lazy
//! Sessions (kind c); the seed picks the mode of the first job. A round is
//! one job of each mode. Each job runs init → first `allreduce` → direct
//! PMIx calls (fence, get of the peer's key, group construct and destruct)
//! → a warm `allreduce` → finalize. A kind's sample is init → first
//! `allreduce` done, taking the slower rank.

use crate::common::*;
use crate::sys::process_cpu_ns;
use crate::trace::{self, span, ThreadTrace};
use mpi_sessions::info::keys;
use mpi_sessions::session::PSET_WORLD;
use mpi_sessions::{Comm, ErrHandler, Info, Session, ThreadLevel};
use pmix::{GroupDirectives, ProcId};
use prrte::{JobSpec, Launcher, ProcCtx};
use simnet::SimTestbed;
use std::time::Instant;

/// Rounds (one job of each mode) per second of `--seconds`.
pub const ROUNDS_PER_SECOND: f64 = 200.0;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Wpm,
    Eager,
    Lazy,
}

/// Rounds of the traced phase whose jobs are bracketed by counter
/// snapshots; per-job counts of a mode repeat from job to job.
const COUNTER_ROUNDS: usize = 20;

/// Kind index = position in the rotation.
const ROTATION: [Mode; KINDS] = [Mode::Wpm, Mode::Eager, Mode::Lazy];

struct RankOut {
    init_us: f64,
    fails: u32,
    end: Instant,
    trace: ThreadTrace,
    /// Probe jobs only: rank 0's ping-pong half round trips (µs).
    pingpong_us: Vec<f64>,
}

struct JobOut {
    job_us: f64,
    init_us: f64,
    join_tail_us: f64,
    failed: u32,
    pingpong_us: Vec<f64>,
}

pub fn run(seed: u64, plan: &[PhasePlan]) -> RunOut {
    let mut out = RunOut::default();
    let mut op = 0u64;
    let mut launcher = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let l = Launcher::new(SimTestbed::tiny(2, 1));
        out.boot_ms.push(us_since(t0) / 1e3);
        // Warm-up: one job of each mode, so the first timed job finds
        // threads, allocator and lazy statics already set up.
        for mode in ROTATION {
            let job = run_job(&l, mode, false, seed, op, &mut out.trace);
            out.other_failed += job.failed as u64;
            out.join_tail_us.push(job.join_tail_us);
            op += 1;
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        launcher = Some(l);
    }
    let launcher = launcher.expect("SETUPS is at least 1");
    let reg = launcher.universe().fabric().obs();
    let mut next = (seed % KINDS as u64) as usize;
    for p in plan {
        trace::set_enabled(p.traced);
        let mut ph = Phase::new([1; KINDS]);
        // Process CPU of the jobs of the current round, without the
        // counter snapshots around them.
        let mut round_cpu_ns = 0;
        // A counter sum scans every process's counters, and the registry
        // keeps those of every job ever launched, so bracketing every job
        // would make a run's cost grow with the square of its length. Only
        // the traced phase, whose per-layer metrics use them, reads counters,
        // and only around every job of [`COUNTER_ROUNDS`] rounds spread
        // evenly over it.
        let stride = (p.rounds / COUNTER_ROUNDS).max(1);
        let t0 = Instant::now();
        for i in 0..p.rounds * KINDS {
            let kind = next;
            next = (next + 1) % KINDS;
            let bracket = p.traced && (i / KINDS) % stride == 0;
            let before = bracket.then(|| snapshot(&reg));
            let cpu0 = process_cpu_ns();
            let job = run_job(&launcher, ROTATION[kind], false, seed, op, &mut out.trace);
            round_cpu_ns += process_cpu_ns().saturating_sub(cpu0);
            if i % KINDS == KINDS - 1 {
                ph.record_round_cpu(std::mem::take(&mut round_cpu_ns), KINDS as u64);
            }
            op += 1;
            let k = &mut ph.kinds[kind];
            k.record(job.init_us, job.failed);
            if let Some(before) = before {
                k.add_counters(&before, &snapshot(&reg), 1);
            }
            ph.job_us.push(job.job_us);
            out.join_tail_us.push(job.join_tail_us);
        }
        ph.wall_s = t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        out.phases.push(ph);
    }
    out.spans_dropped = reg.spans_dropped();
    out.events_dropped = reg.events_dropped();
    out.trace.merge(trace::take_thread());
    out
}

fn run_job(
    l: &Launcher,
    mode: Mode,
    probe: bool,
    seed: u64,
    op: u64,
    acc: &mut ThreadTrace,
) -> JobOut {
    let t0 = Instant::now();
    let handle = span("prrte.spawn", op, || {
        l.spawn(JobSpec::new(2), move |ctx| {
            rank_body(&ctx, mode, probe, seed, op)
        })
    });
    let joined = handle.join();
    let done = Instant::now();
    let job_us = us_since(t0);
    match joined {
        Ok(ranks) => {
            let last_end = ranks.iter().map(|r| r.end).max().unwrap_or(done);
            let init_us = ranks.iter().map(|r| r.init_us).fold(0.0, f64::max);
            let failed = ranks.iter().any(|r| r.fails > 0) as u32;
            let mut pingpong_us = Vec::new();
            for r in ranks {
                acc.merge(r.trace);
                pingpong_us.extend(r.pingpong_us);
            }
            JobOut {
                job_us,
                init_us,
                join_tail_us: done.duration_since(last_end).as_secs_f64() * 1e6,
                failed,
                pingpong_us,
            }
        }
        Err(_) => JobOut {
            job_us,
            init_us: job_us,
            join_tail_us: 0.0,
            failed: 1,
            pingpong_us: Vec::new(),
        },
    }
}

fn rank_body(ctx: &ProcCtx, mode: Mode, probe: bool, seed: u64, op: u64) -> RankOut {
    crate::sys::pin_to_nth_cpu(ctx.rank() as usize);
    let t0 = Instant::now();
    let mut pingpong_us = Vec::new();
    let (init_us, fails) = match mode {
        Mode::Wpm => wpm(ctx, seed, op, t0),
        Mode::Eager | Mode::Lazy => {
            let p2p = probe.then_some(&mut pingpong_us);
            sessions(ctx, mode == Mode::Lazy, p2p, seed, op, t0)
        }
    };
    RankOut {
        init_us,
        fails,
        end: Instant::now(),
        trace: trace::take_thread(),
        pingpong_us,
    }
}

fn wpm(ctx: &ProcCtx, seed: u64, op: u64, t0: Instant) -> (f64, u32) {
    let Ok(world) = span("world.init", op, || mpi_sessions::world::init(ctx)) else {
        return (us_since(t0), 1);
    };
    let mut fails = checked_allreduce(world.comm(), "coll.allreduce_first", seed, op);
    let init_us = us_since(t0);
    fails += pmix_calls(ctx, seed, op);
    fails += checked_allreduce(world.comm(), "coll.allreduce", seed, op ^ 1);
    fails += span("world.finalize", op, || world.finalize()).is_err() as u32;
    (init_us, fails)
}

fn sessions(
    ctx: &ProcCtx,
    lazy: bool,
    p2p: Option<&mut Vec<f64>>,
    seed: u64,
    op: u64,
    t0: Instant,
) -> (f64, u32) {
    let info = Info::new();
    info.set(keys::INIT_MODE, if lazy { "lazy" } else { "eager" });
    let Ok(session) = span("session.init", op, || {
        Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &info)
    }) else {
        return (us_since(t0), 1);
    };
    let Ok(group) = span("group.from_pset", op, || {
        session.group_from_pset(PSET_WORLD)
    }) else {
        return (us_since(t0), 1);
    };
    let tag = format!("pb{seed:x}.init.{op}");
    let Ok(comm) = span("comm.create", op, || Comm::create_from_group(&group, &tag)) else {
        return (us_since(t0), 1);
    };
    let mut fails = checked_allreduce(&comm, "coll.allreduce_first", seed, op);
    let init_us = us_since(t0);
    fails += pmix_calls(ctx, seed, op);
    fails += checked_allreduce(&comm, "coll.allreduce", seed, op ^ 1);
    if let Some(pingpong_us) = p2p {
        fails += probe_p2p(&comm, seed, op, pingpong_us);
    }
    fails += span("comm.free", op, || comm.free()).is_err() as u32;
    fails += span("session.finalize", op, || session.finalize()).is_err() as u32;
    (init_us, fails)
}

/// Direct calls into the PMIx client, each bounded: publish a key, fence,
/// read the peer's key, construct and destruct a group over the job.
fn pmix_calls(ctx: &ProcCtx, seed: u64, op: u64) -> u32 {
    let pmix = ctx.pmix();
    let me = ctx.proc();
    let procs: Vec<ProcId> = (0..ctx.size())
        .map(|r| ProcId::new(me.nspace(), r))
        .collect();
    let peer = (ctx.rank() + 1) % ctx.size();
    let value = |rank| u64::from_le_bytes(payload8(seed, op ^ 0xB0B, rank));
    let key = "perfbench.key";
    pmix.put(key, value(ctx.rank()));
    pmix.commit();
    let mut fails =
        span("pmix.fence", op, || pmix.fence_timeout(&procs, false, WAIT)).is_err() as u32;
    let got = span("pmix.get", op, || {
        pmix.get_timeout(&procs[peer as usize], key, WAIT)
    });
    fails += !matches!(got, Ok(v) if v == value(peer).into()) as u32;
    let name = format!("pb{seed:x}.grp.{op}");
    let directives = GroupDirectives::default().with_timeout(Some(WAIT));
    match span("pmix.group_construct", op, || {
        pmix.group_construct(&name, &procs, &directives)
    }) {
        Ok(group) => {
            fails += span("pmix.group_destruct", op, || {
                pmix.group_destruct(&group, Some(WAIT))
            })
            .is_err() as u32;
        }
        Err(_) => fails += 1,
    }
    fails
}

/// Probe jobs of each mode the layer probe runs.
const PROBE_JOBS: usize = 8;
/// Ping-pongs per probe job.
const PROBE_PINGPONGS: usize = 200;

/// What the layer probe measured.
pub struct Probe {
    pub trace: ThreadTrace,
    pub pingpong_us: Vec<f64>,
    pub failed: u64,
}

/// The layer probe: a fixed set of traced calls into every layer, run on
/// a fresh `tiny(2,1)` DVM after a workload's traced phase. Each probe job
/// is MPI_Init or eager Sessions init → `allreduce` → the direct PMIx
/// calls → `allreduce`; Sessions jobs then dup the communicator, exchange
/// 8 B on the child, stream one window and ping-pong before finalize.
/// Per-layer timings of a layer the workload itself leaves idle come from
/// here, so every per-layer metric is a measurement in every workload.
pub fn layer_probe(seed: u64) -> Probe {
    trace::set_enabled(true);
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let mut probe = Probe {
        trace: ThreadTrace::default(),
        pingpong_us: Vec::new(),
        failed: 0,
    };
    for i in 0..PROBE_JOBS * 2 {
        let mode = if i % 2 == 0 { Mode::Wpm } else { Mode::Eager };
        let job = run_job(
            &launcher,
            mode,
            true,
            seed,
            1 << 40 | i as u64,
            &mut probe.trace,
        );
        probe.failed += job.failed as u64;
        probe.pingpong_us.extend(job.pingpong_us);
    }
    trace::set_enabled(false);
    probe.trace.merge(trace::take_thread());
    probe
}

/// The probe's point-to-point part on `comm`: dup → 8 B exchange on the
/// child → one window of [`crate::p2p_stream::WINDOW`] 8 B messages →
/// [`PROBE_PINGPONGS`] ping-pongs → free.
fn probe_p2p(comm: &Comm, seed: u64, op: u64, pingpong_us: &mut Vec<f64>) -> u32 {
    let Ok(child) = span("comm.dup", op, || comm.dup()) else {
        return 1;
    };
    let me = child.rank();
    let peer = 1 - me;
    let tag = (seed % 1000) as i32 + 1;
    let mut fails = span("pml.first_msg", op, || {
        exchange8(&child, peer, tag, seed, op, WAIT)
    });
    let window = crate::p2p_stream::WINDOW as u64;
    if me == 0 {
        let reqs: Vec<_> = (0..window)
            .filter_map(|j| {
                span("request.issue", op, || {
                    child.isend(1, tag, &payload8(seed, op + j, 0))
                })
                .ok()
            })
            .collect();
        fails += (window as usize - reqs.len()) as u32;
        fails += span("request.wait_all", op, || wait_sends(reqs, WAIT));
    } else {
        let reqs: Vec<_> = (0..window)
            .filter_map(|_| span("request.issue", op, || child.irecv(0, tag)).ok())
            .collect();
        let got = span("request.wait_all", op, || wait_recvs(reqs, WAIT));
        fails += (window as usize - got.len()) as u32;
        for (j, data) in got.iter().enumerate() {
            fails += !matches!(data, Ok(d) if d[..] == payload8(seed, op + j as u64, 0)) as u32;
        }
    }
    for i in 0..PROBE_PINGPONGS as u64 {
        let t0 = Instant::now();
        fails += pingpong8(&child, tag, seed, op + window + i);
        if me == 0 {
            pingpong_us.push(us_since(t0) / 2.0);
        }
    }
    fails + span("comm.free", op, || child.free()).is_err() as u32
}
