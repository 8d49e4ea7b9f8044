//! Elastic-session workload: rebuild latency through pset churn.
//!
//! The Sessions model makes process sets runtime-owned, so membership can
//! change while the job runs. This workload drives the full churn sequence
//! — grow 4→8 ranks, kill one, retire one gracefully, delete the pset —
//! and reports, per epoch, how long it takes **every** surviving rank to
//! come back with a rebuilt communicator (driver-observed wall time from
//! the mutation to the last collective ack on the new comm).
//!
//! Usage: `fig_elastic [--metrics-out <path>] [--trace-out <path>]`
//! (`--metrics-out` dumps the obs export — `session.rebuilds`,
//! `prrte.ranks_grown`/`ranks_retired`, `pml.cache_invalidated`;
//! `--trace-out` dumps the causal span DAG whose `pset.update →
//! session.rebuild` chains carry the rebuild critical path.)

use bench_harness::dump_json;
use prrte::Launcher;
use simnet::SimTestbed;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let launcher = Launcher::new(SimTestbed::tiny(2, 4));
    // Every rank follows the pset with one allreduce per epoch: its ack
    // proves it is on the rebuilt communicator with the full membership.
    let kill = |p: &pmix::ProcId| launcher.universe().kill_proc(p).expect("kill");
    let step = Duration::from_secs(30);
    let rows = apps::elastic::churn_drill(&launcher, "elastic", "app://elastic", step, kill);

    println!("# Elastic sessions: time for every member to rejoin the rebuilt comm");
    println!("{:>14} {:>6} {:>8} {:>14}", "phase", "epoch", "members", "rebuild (us)");
    for r in &rows {
        println!("{:>14} {:>6} {:>8} {:>14.1}", r.phase, r.epoch, r.members, r.rebuild_us);
    }

    let registry = launcher.universe().fabric().obs();
    let rebuilds = registry.sum_counters("session", "rebuilds");
    let invalidated = registry.sum_counters("pml", "cache_invalidated");
    println!(
        "\n# {} communicator rebuilds across 4 epochs; {} handshake-cache entries \
         invalidated for departed peers",
        rebuilds, invalidated
    );
    assert_eq!(rebuilds, 4 + 8 + 7 + 6, "one rebuild per member per epoch");
    assert!(invalidated > 0, "departed peers must be evicted from the PML cache");

    let mut sink = bench_harness::MetricsSink::from_args(&args);
    sink.record("elastic_churn", registry.export());
    sink.finish();
    let mut traces = bench_harness::TraceSink::from_args(&args);
    if traces.enabled() {
        traces.record(
            "elastic_churn",
            obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped()),
        );
    }
    traces.finish();
    dump_json("fig_elastic", &rows);
}
