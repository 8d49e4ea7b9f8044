//! Elastic session: follow a runtime-owned process set through churn.
//!
//! The Sessions model's core claim is that process sets belong to the
//! runtime, not the application — so membership can change while the job
//! runs. This example drives the full lifecycle: launch 4 ranks on a pset,
//! grow to 8, kill one rank (failure-driven shrink), retire one gracefully
//! (runtime-driven shrink), then delete the pset. Every surviving rank
//! follows along through `Session::rebuild`: each pset epoch yields a freshly
//! derived group and a rebuilt communicator, proven live by a collective.
//!
//! Run with: `cargo run --release --example elastic`

use mpi_sessions_repro::apps::elastic::follow_pset;
use mpi_sessions_repro::mpi::{ErrHandler, Info, Session, ThreadLevel};
use mpi_sessions_repro::prrte::{JobSpec, Launcher};
use mpi_sessions_repro::simnet::SimTestbed;
use std::sync::mpsc;
use std::time::Duration;

const PSET: &str = "app://elastic";
const STEP: Duration = Duration::from_secs(20);

fn main() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 4));
    let (tx, rx) = mpsc::channel::<(u32, u64, u32)>();
    let spec = JobSpec::new(4).with_pset(PSET, vec![0, 1, 2, 3]);
    let handle = launcher.spawn_named("elastic", spec, move |ctx| {
        let session =
            Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                .expect("session init");
        // Subscribe to the pset; its replayed definition builds the first
        // communicator (late joiners see the epoch they were grown into),
        // and one allreduce per epoch proves every member of that epoch
        // is on the rebuilt communicator, or this would hang.
        let mut epochs = 0u32;
        let end = follow_pset(&session, PSET, STEP, |epoch, sum| {
            epochs += 1;
            tx.send((ctx.rank(), epoch, sum)).expect("ack");
        });
        // `Removed` (killed or retired) or `Deleted` (the pset is gone).
        println!("  rank {} stopped following: {end:?}", ctx.rank());
        session.finalize().expect("finalize");
        epochs
    });
    let ctl = handle.ctl();

    let settle = |n: u32, epoch: u64, what: &str| {
        for _ in 0..n {
            let (rank, e, s) = rx.recv_timeout(STEP).expect("ack before timeout");
            assert_eq!((e, s), (epoch, n), "rank {rank} settled on the wrong epoch");
        }
        println!("epoch {epoch}: {what} — all {n} members on the rebuilt communicator");
    };

    settle(4, 1, "launch-time pset definition");
    ctl.spawn_ranks(4, Some(PSET));
    settle(8, 2, "grew the job by 4 ranks");
    handle.kill_rank(7);
    settle(7, 3, "rank 7 died; failure bridge shrank the pset");
    ctl.retire_ranks(&[6], Some(PSET)).expect("retire");
    settle(6, 4, "rank 6 retired gracefully");
    launcher.universe().registry().undefine_pset(PSET);
    let out = handle.join().expect("elastic job");

    let obs = launcher.universe().fabric().obs();
    println!(
        "{} rebuilds across {} rank-lifetimes; {} stale handshake-cache entries evicted",
        obs.sum_counters("session", "rebuilds"),
        out.len(),
        obs.sum_counters("pml", "cache_invalidated"),
    );
    assert_eq!(out.len(), 7, "6 survivors + the killed rank's thread");
    println!("elastic OK");
}
