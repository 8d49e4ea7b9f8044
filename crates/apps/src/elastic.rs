//! Elastic churn workload: follow a runtime-owned pset through its epochs
//! (DESIGN.md §10), the churn-driven twin of [`crate::recover`]. Both
//! drive the same core loop, `Session::rebuild`.

use mpi_sessions::{coll, ErrHandler, Info, Rebuild, ReduceOp, Session, ThreadLevel};
use pmix::ProcId;
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Follow `pset` from its current definition until the caller leaves it
/// or it is deleted. Each change is applied with [`Session::rebuild`],
/// and each rebuilt communicator is proven live with an allreduce of one
/// per member: `on_epoch(epoch, sum)` sees the sum, which is the epoch's
/// width. `step` bounds each wait for a change and each rebuild. Returns
/// the terminal [`Rebuild::Removed`] or [`Rebuild::Deleted`]; panics on a
/// rebuild error.
pub fn follow_pset(
    session: &Session,
    pset: &str,
    step: Duration,
    mut on_epoch: impl FnMut(u64, u32),
) -> Rebuild {
    let watcher = session.watch_psets().expect("watch_psets");
    let (mut comm, mut epoch) = (None, 0);
    loop {
        let update = watcher.next_for(pset, epoch, step).expect("pset change before timeout");
        match session.rebuild(pset, comm.take(), Some(update), step) {
            Ok(Rebuild::Rebuilt { comm: c, epoch: e }) => {
                let sum = coll::allreduce_t(&c, ReduceOp::Sum, &[1u32]).expect("allreduce")[0];
                on_epoch(e, sum);
                (comm, epoch) = (Some(c), e);
            }
            Ok(done) => return done,
            Err(e) => panic!("rebuild of '{pset}' after epoch {epoch} failed: {e}"),
        }
    }
}

/// One settled epoch of [`churn_drill`].
#[derive(Debug, Clone, Serialize)]
pub struct Settled {
    /// The change that opened the epoch.
    pub phase: &'static str,
    /// The pset epoch.
    pub epoch: u64,
    /// Members at that epoch; each acked an allreduce of this width.
    pub members: u32,
    /// Wall time from the change to the last member's ack.
    pub rebuild_us: f64,
}

/// The four-epoch churn drill: launch 4 ranks as job `nspace` on `pset`,
/// each running [`follow_pset`]; grow the job to 8, kill rank 7 through
/// `kill`, retire rank 6, then delete the pset. Every member must ack each
/// epoch at its full width before the next change, and nobody acks past
/// the last one. Returns one row per epoch.
pub fn churn_drill(
    launcher: &Launcher,
    nspace: &str,
    pset: &'static str,
    step: Duration,
    kill: impl Fn(&ProcId),
) -> Vec<Settled> {
    let (tx, rx) = mpsc::channel::<(u32, u64, u32)>();
    let spec = JobSpec::new(4).with_pset(pset, vec![0, 1, 2, 3]);
    let handle = launcher.spawn_named(nspace, spec, move |ctx| {
        let session = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
            .expect("session init");
        follow_pset(&session, pset, step, |epoch, sum| {
            tx.send((ctx.rank(), epoch, sum)).expect("ack");
        });
        session.finalize().expect("finalize");
    });
    let ctl = handle.ctl();
    let mut rows = Vec::new();
    let mut settle = |phase, members: u32| {
        let (t0, epoch) = (Instant::now(), rows.len() as u64 + 1);
        for _ in 0..members {
            let (rank, e, s) = rx.recv_timeout(step).expect("ack before timeout");
            assert_eq!((e, s), (epoch, members), "rank {rank} settled on the wrong epoch");
        }
        let rebuild_us = t0.elapsed().as_secs_f64() * 1e6;
        rows.push(Settled { phase, epoch, members, rebuild_us });
    };
    settle("establish", 4);
    assert_eq!(ctl.spawn_ranks(4, Some(pset)), vec![4, 5, 6, 7]);
    settle("grow_4to8", 8);
    kill(&ProcId::new(nspace, 7));
    settle("kill_rank7", 7);
    ctl.retire_ranks(&[6], Some(pset)).expect("retire");
    settle("retire_rank6", 6);
    launcher.universe().registry().undefine_pset(pset);
    let out = handle.join().expect("elastic job");
    assert_eq!(out.len(), 7, "6 survivors + the killed rank's thread");
    assert!(rx.try_recv().is_err(), "no member acks past the final epoch");
    rows
}
