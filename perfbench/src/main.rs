//! Wall-clock benchmark of the simulated MPI Sessions stack.
//!
//! Usage: `perfbench --workload <launch_init|comm_churn|p2p_stream|comm_skew|comm_race>
//!         --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]`
//!
//! Every workload runs two ranks on a zero-cost `SimTestbed::tiny`
//! testbed, so the timings measure the Rust code of the stack, not its
//! modeled delays. Each layer is timed from outside, by spans around calls
//! into its public functions and by deltas of the program's `obs`
//! counters. The last line of standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`
//! (a run whose first half is untraced and second half traced, so the
//! tracing overhead is measured too). See `README.md` for the metrics.

mod comm_churn;
mod common;
mod job;
mod launch_init;
mod p2p_stream;
mod probe;
mod report;
mod stats;
mod sys;
mod trace;

use common::PhasePlan;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, 1, 10.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--trace-out" => trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    sys::fix_allocator();
    // No wait in the stack may hang the run: past this limit the run
    // fails without a result.
    let limit = Duration::from_secs(170);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; a wait in the stack hung");
        std::process::exit(3);
    });
    let rate = match args.workload.as_str() {
        "launch_init" => launch_init::ROUNDS_PER_SECOND,
        "comm_churn" => comm_churn::ROUNDS_PER_SECOND,
        "comm_skew" | "comm_race" => comm_churn::SKEW_ROUNDS_PER_SECOND,
        "p2p_stream" => p2p_stream::ROUNDS_PER_SECOND,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let rounds = ((args.seconds * rate).round() as usize).max(2);
    let plan = if args.trace {
        let untraced = PhasePlan {
            traced: false,
            rounds: rounds / 2,
        };
        vec![
            untraced,
            PhasePlan {
                traced: true,
                ..untraced
            },
        ]
    } else {
        vec![PhasePlan {
            traced: false,
            rounds,
        }]
    };
    let mut out = match args.workload.as_str() {
        "launch_init" => launch_init::run(args.seed, &plan),
        "comm_churn" => comm_churn::run(comm_churn::Variant::Churn, args.seed, &plan),
        "comm_skew" => comm_churn::run(comm_churn::Variant::Skew, args.seed, &plan),
        "comm_race" => comm_churn::run(comm_churn::Variant::Race, args.seed, &plan),
        _ => p2p_stream::run(args.seed, &plan),
    };
    let probe = args.trace.then(|| launch_init::layer_probe(args.seed));
    let floor = args.trace.then(|| probe::simnet_pingpong(20_000));
    if let (Some(dir), true) = (&args.trace_out, args.trace) {
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path, &out.trace.raw) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            out.other_failed += 1;
        }
    }
    let traced = probe
        .as_ref()
        .zip(floor.as_ref())
        .map(|(probe, (floor_us, floor_failed))| report::Traced {
            probe,
            floor_us,
            floor_failed: *floor_failed,
        });
    report::print(&args.workload, args.seed, &out, traced);
}
