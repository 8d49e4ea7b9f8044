//! Fault-recovery workload: settle latency of the checkpoint-free
//! allreduce loop across injected kills (DESIGN.md §15).
//!
//! Four ranks run [`apps::recover::run_rank_with_progress`] — a ring
//! allreduce over the widest available communicator, repaired through the
//! survivors pset on every observed fault. The driver kills rank 3 at
//! step 4, then rank 2 at step 8 — every live rank parks at a kill step
//! until that kill has landed ([`apps::recover::KillPacer`]) — and reports
//! per episode how long it takes **every** survivor to make fresh step
//! progress on the repaired communicator (driver-observed wall time from
//! the kill to the last survivor's first new step ack).
//!
//! Usage: `fig_recover [--metrics-out <path>] [--trace-out <path>]`

use apps::recover::{KillPacer, RankOutcome, RecoverConfig};
use bench_harness::dump_json;
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use simnet::SimTestbed;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const ACK_LIMIT: Duration = Duration::from_secs(60);

#[derive(Serialize)]
struct Row {
    phase: &'static str,
    members: u32,
    settle_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    // Fast typed Timeout verdicts while repair epochs disagree
    // (docs/TUNING.md: pmix.group_timeout_ms).
    let obs = launcher.universe().fabric().obs();
    obs.cvar_write("universe", "pmix.group_timeout_ms", obs::CvarValue::U64(2000)).unwrap();
    let cfg = RecoverConfig {
        steps: 12,
        step_wait: Duration::from_secs(2),
        repair_budget: Duration::from_secs(30),
    };
    // (rank, step): rank 3 dies at step 4, rank 2 at step 8.
    const KILLS: [(u32, u32); 2] = [(3, 4), (2, 8)];
    let pacer = KillPacer::new(KILLS.iter().map(|&(_, step)| step).collect());
    let (tx, rx) = mpsc::channel::<(u32, u32)>();
    let handle = launcher.spawn_named("recover", JobSpec::new(4), {
        let cfg = cfg.clone();
        let pacer = pacer.clone();
        move |ctx| {
            let tx = tx.clone();
            let rank = ctx.rank();
            apps::recover::run_rank_with_progress(&ctx, &cfg, |step| {
                let _ = tx.send((rank, step));
                pacer.hold(step);
            })
        }
    });

    // Highest step acked per rank. After a repair the step-agreement ring
    // may roll a survivor back to the last globally consistent step, so
    // "settled" means acking a step beyond the kill step — fresh
    // progress, not a recomputation of old ground.
    let mut latest = [0u32; 4];
    let reach = |ranks: &[u32], step: u32, latest: &mut [u32; 4]| {
        let t0 = Instant::now();
        while ranks.iter().any(|&r| latest[r as usize] < step) {
            let (rank, step) = rx.recv_timeout(ACK_LIMIT).expect("step progress before timeout");
            let slot = &mut latest[rank as usize];
            *slot = (*slot).max(step);
        }
        t0.elapsed().as_secs_f64() * 1e6
    };

    let mut live = vec![0, 1, 2, 3];
    let mut rows =
        vec![Row { phase: "steady_4", members: 4, settle_us: reach(&live, 1, &mut latest) }];
    for (phase, (victim, step)) in ["kill_rank3", "kill_rank2"].into_iter().zip(KILLS) {
        reach(&live, step, &mut latest);
        handle.kill_rank(victim);
        pacer.killed();
        live.retain(|&r| r != victim);
        let settle_us = reach(&live, step + 1, &mut latest);
        rows.push(Row { phase, members: live.len() as u32, settle_us });
    }
    let out = handle.join().expect("recover job");

    println!("# Checkpoint-free recovery: kill-to-fresh-progress settle latency");
    println!("{:>12} {:>8} {:>14}", "phase", "members", "settle (us)");
    for r in &rows {
        println!("{:>12} {:>8} {:>14.1}", r.phase, r.members, r.settle_us);
    }

    let mut repairs = 0u32;
    let mut step_faults = 0u32;
    for (rank, outcome) in out.iter().enumerate() {
        match (rank, outcome) {
            (2 | 3, RankOutcome::Removed { .. }) => {}
            (0 | 1, RankOutcome::Survivor(r)) => {
                assert_eq!(r.steps_done, cfg.steps, "rank {rank} must finish every step");
                assert_eq!(r.final_size, 2, "the final steps run over the two survivors");
                assert_eq!(r.sums.last(), Some(&2), "final sum is the surviving width");
                repairs += r.repairs;
                step_faults += r.step_faults;
            }
            _ => panic!("rank {rank} ended in the wrong state: {outcome:?}"),
        }
    }
    assert!(repairs >= 4, "two survivors x two kill episodes = at least 4 repairs");
    let registry = launcher.universe().fabric().obs();
    println!(
        "\n# survivors repaired {repairs} times ({} rebuild re-entries, {} timed-out \
         rebuild retries, {step_faults} typed step faults routed into repair)",
        registry.sum_counters("session", "rebuild_reentered"),
        registry.sum_counters("session", "rebuild_retries"),
    );
    // Drain the tail of in-flight step acks (survivors kept stepping past
    // the last settle point); none may claim a step beyond the configured
    // count.
    while let Ok((rank, step)) = rx.recv_timeout(Duration::from_millis(50)) {
        assert!(step <= cfg.steps, "rank {rank} acked step {step} past the last step");
    }

    let mut sink = bench_harness::MetricsSink::from_args(&args);
    sink.record("recover", registry.export());
    sink.finish();
    let mut traces = bench_harness::TraceSink::from_args(&args);
    if traces.enabled() {
        traces.record(
            "recover",
            obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped()),
        );
    }
    traces.finish();
    dump_json("fig_recover", &rows);
}
