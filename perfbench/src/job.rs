//! The frame shared by the workloads that run inside one long job
//! (`comm_churn`, `comm_skew`, `p2p_stream`): set-up repeated [`SETUPS`]
//! times, measured phases in the last job, and counter-bracketed blocks.

use crate::common::*;
use crate::sys::process_cpu_ns;
use crate::trace::{self, ThreadTrace};
use mpi_sessions::info::keys;
use mpi_sessions::session::PSET_WORLD;
use mpi_sessions::{Comm, ErrHandler, Info, Session, ThreadLevel};
use prrte::{JobSpec, Launcher, ProcCtx};
use simnet::SimTestbed;
use std::sync::Arc;
use std::time::Instant;

/// What one rank of the job returns.
#[derive(Default)]
pub struct RankOut {
    /// When the rank was ready for its first timed operation.
    pub ready: Option<Instant>,
    /// When the rank body returned.
    pub end: Option<Instant>,
    pub phases: Vec<Phase>,
    pub other_failed: u64,
    pub trace: ThreadTrace,
}

/// Boot a DVM on `testbed` and run a 2-rank job of `body`, [`SETUPS`]
/// times; only the last job gets `plan` to measure, the others set up and
/// tear down. `setup_s` runs from `Launcher::new` until both ranks are
/// ready. Per-op samples of the two ranks merge by taking the slower.
pub fn one_job_workload(
    testbed: fn() -> SimTestbed,
    plan: &[PhasePlan],
    body: impl Fn(&ProcCtx, &[PhasePlan], &Pace) -> RankOut + Send + Sync + 'static,
) -> RunOut {
    let body = Arc::new(body);
    let plan: Arc<[PhasePlan]> = plan.into();
    let mut out = RunOut::default();
    for rep in 0..SETUPS {
        let measure = rep + 1 == SETUPS;
        let t0 = Instant::now();
        let launcher = Launcher::new(testbed());
        out.boot_ms.push(us_since(t0) / 1e3);
        let pace = Arc::new(Pace::new(2));
        let job_plan = if measure {
            plan.clone()
        } else {
            Arc::from(Vec::new())
        };
        let body = body.clone();
        let joined = launcher
            .spawn(JobSpec::new(2), move |ctx| body(&ctx, &job_plan, &pace))
            .join();
        let done = Instant::now();
        let Ok(ranks) = joined else {
            out.other_failed += 1;
            return out;
        };
        let ready = ranks.iter().filter_map(|r| r.ready).max();
        out.setup_s
            .push(ready.map_or(0.0, |r| r.duration_since(t0).as_secs_f64()));
        if let Some(end) = ranks.iter().filter_map(|r| r.end).max() {
            out.join_tail_us
                .push(done.duration_since(end).as_secs_f64() * 1e6);
        }
        let mut ranks = ranks.into_iter();
        let mut r0 = ranks.next().expect("a 2-rank job returns rank 0");
        for other in ranks {
            for (p, q) in r0.phases.iter_mut().zip(&other.phases) {
                for (k, o) in p.kinds.iter_mut().zip(&q.kinds) {
                    k.merge_rank(o);
                }
            }
            r0.other_failed += other.other_failed;
            out.trace.merge(other.trace);
        }
        out.other_failed += r0.other_failed;
        out.trace.merge(r0.trace);
        if measure {
            out.phases = r0.phases;
            let reg = launcher.universe().fabric().obs();
            out.spans_dropped = reg.spans_dropped();
            out.events_dropped = reg.events_dropped();
        }
    }
    out
}

/// Run every phase of `plan` on this rank: `round` runs `rounds` times
/// per phase, given the phase and the registry to bracket blocks with
/// (only in the traced phase). Rank 0 switches tracing; CPU time excludes
/// waiting in `pace`.
pub fn run_phases(
    me: u32,
    plan: &[PhasePlan],
    pace: &Pace,
    reg: &obs::Registry,
    ops_per_sample: [u64; KINDS],
    mut round: impl FnMut(&mut Phase, Option<&obs::Registry>),
) -> Vec<Phase> {
    let mut phases = Vec::with_capacity(plan.len());
    for p in plan {
        if me == 0 {
            trace::set_enabled(p.traced);
        }
        pace.wait();
        let mut ph = Phase::new(ops_per_sample);
        let counters = p.traced.then_some(reg);
        let busy_ns = || process_cpu_ns().saturating_sub(pace.wait_cpu_ns());
        let t0 = Instant::now();
        let mut cpu0 = busy_ns();
        for _ in 0..p.rounds {
            let ops0 = ph.ops();
            round(&mut ph, counters);
            let cpu = busy_ns();
            ph.record_round_cpu(cpu.saturating_sub(cpu0), ph.ops() - ops0);
            cpu0 = cpu;
        }
        pace.wait();
        ph.wall_s = t0.elapsed().as_secs_f64();
        if me == 0 {
            trace::set_enabled(false);
        }
        phases.push(ph);
    }
    pace.wait();
    phases
}

/// Run one block of ops with both ranks idle at its ends, so that rank 0's
/// counter snapshots (taken when `reg` is given) cover exactly the block.
pub fn block(
    pace: &Pace,
    me: u32,
    reg: Option<&obs::Registry>,
    tally: &mut KindTally,
    body: impl FnOnce(&mut KindTally),
) {
    pace.wait();
    let before = reg.filter(|_| me == 0).map(snapshot);
    pace.wait();
    let ops0 = tally.ops();
    body(tally);
    pace.wait();
    if let (Some(before), Some(reg)) = (before, reg) {
        let ops = tally.ops() - ops0;
        tally.add_counters(&before, &snapshot(reg), ops);
    }
}

/// The set-up of a rank: pin it to its own CPU, then eager Sessions init →
/// world group → a communicator over it named `tag`.
pub fn eager_comm(ctx: &ProcCtx, tag: &str) -> (Session, Comm) {
    crate::sys::pin_to_nth_cpu(ctx.rank() as usize);
    let info = Info::new();
    info.set(keys::INIT_MODE, "eager");
    let session = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &info)
        .expect("session init during set-up");
    let group = session
        .group_from_pset(PSET_WORLD)
        .expect("world group during set-up");
    let comm = Comm::create_from_group(&group, tag).expect("communicator during set-up");
    (session, comm)
}

/// The teardown of a rank: free `comm`, finalize `session`, hand over the
/// rank's spans.
pub fn finish(mut out: RankOut, comm: Comm, session: Session) -> RankOut {
    out.other_failed += comm.free().is_err() as u64;
    out.other_failed += session.finalize().is_err() as u64;
    out.trace = trace::take_thread();
    out.end = Some(Instant::now());
    out
}
