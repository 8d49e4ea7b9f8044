//! Turns a run into metrics: a readable report on standard output, then
//! the result line (one JSON object) that ends it.

use crate::common::{counter_ix, KindTally, Phase, RunOut, KINDS};
use crate::launch_init::Probe;
use crate::stats::{median, percentile};
use crate::sys::peak_rss_mb;

/// Spans recorded around calls into the layers; each gives `<name>_us`
/// (wall), `<name>.cpu_us` (thread CPU) and `<name>.self_us`.
pub const SPANS: [&str; 18] = [
    "prrte.spawn",
    "pmix.fence",
    "pmix.get",
    "pmix.group_construct",
    "pmix.group_destruct",
    "world.init",
    "world.finalize",
    "session.init",
    "session.finalize",
    "group.from_pset",
    "comm.create",
    "comm.dup",
    "comm.free",
    "pml.first_msg",
    "request.issue",
    "request.wait_all",
    "coll.allreduce_first",
    "coll.allreduce",
];

const KIND_SUFFIX: [&str; KINDS] = ["a", "b", "c"];

/// The per-workload names of a workload's three op kinds.
fn kind_names(workload: &str) -> [&'static str; KINDS] {
    match workload {
        "launch_init" => ["init_wpm_us", "init_sessions_us", "init_lazy_us"],
        "comm_churn" => ["dup_cycle_us", "create_cycle_us", "chain_cycle_us"],
        "p2p_stream" => ["pingpong_us", "msg8_us", "msg1m_us"],
        "comm_skew" => ["dup_cycle_us", "create_cycle_us", "skew_cycle_us"],
        _ => ["race_cycle_us", "unused_b_us", "unused_c_us"],
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Sheet(Vec<Metric>);

impl Sheet {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-op counter ratios of one kind, named `<metric>.<kind>`.
fn counter_metrics(sheet: &mut Sheet, k: &KindTally, suffix: &str) {
    let c = |comp, name| k.counters[counter_ix(comp, name)];
    let (ops, n) = (k.counted_ops, k.counted_ops as usize);
    let msgs = c("fabric", "msgs_on_node") + c("fabric", "msgs_inter_node");
    let bytes = c("fabric", "bytes_on_node") + c("fabric", "bytes_inter_node");
    let per_op = [
        ("cid.derivations", c("cid", "derivations"), "count/op"),
        ("cid.refills", c("cid", "refills"), "count/op"),
        (
            "cid.subfields_recycled",
            c("cid", "subfields_recycled"),
            "count/op",
        ),
        ("pml.handshakes", c("pml", "handshakes"), "count/op"),
        ("pml.ext_sent", c("pml", "ext_sent"), "count/op"),
        ("simnet.msgs_per_op", msgs, "count/op"),
        ("simnet.bytes_per_op", bytes, "B/op"),
    ];
    for (name, v, unit) in per_op {
        sheet.add(format!("{name}.{suffix}"), ratio(v, ops), unit, n);
    }
    let (hits, handshakes) = (c("pml", "advert_hits"), c("pml", "handshakes"));
    let stages = c("pmix", "stage_fanin") + c("pmix", "stage_xchg") + c("pmix", "stage_fanout");
    let (pool, alloc) = (c("pmix", "pgcid_pool_hits"), c("pmix", "pgcid_allocated"));
    let ratios = [
        (
            "pml.advert_hit_ratio",
            ratio(hits, hits + handshakes),
            "ratio",
        ),
        (
            "pmix.stages_per_construct",
            ratio(stages, c("pmix", "group_construct_completed")),
            "count",
        ),
        ("pmix.pgcid_hit_ratio", ratio(pool, pool + alloc), "ratio"),
    ];
    for (name, v, unit) in ratios {
        sheet.add(format!("{name}.{suffix}"), v, unit, n);
    }
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(sheet: &mut Sheet, out: &RunOut, ph: &Phase) {
    sheet.add("setup_s", median(&out.setup_s), "s", out.setup_s.len());
    for (k, suffix) in ph.kinds.iter().zip(KIND_SUFFIX) {
        sheet.add(
            format!("op_{suffix}_us"),
            k.per_op_median_us(),
            "us",
            k.samples_us.len(),
        );
    }
    let cpu = &ph.round_cpu_us_per_op;
    sheet.add("cpu_us_per_op", median(cpu), "us", cpu.len());
    sheet.add("rss_peak_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
}

/// Per-workload names and derived figures, printed but not in the result.
fn readable_extras(sheet: &mut Sheet, workload: &str, ph: &Phase) {
    for (k, name) in ph.kinds.iter().zip(kind_names(workload)) {
        sheet.add(name, k.per_op_median_us(), "us", k.samples_us.len());
        let failed = k.failed();
        sheet.add(
            format!("{name}.failed"),
            failed as f64,
            "count",
            k.ops() as usize,
        );
    }
    if !ph.job_us.is_empty() {
        sheet.add("job_us", median(&ph.job_us), "us", ph.job_us.len());
    }
    if workload == "p2p_stream" {
        let [_, b, c] = &ph.kinds;
        sheet.add(
            "msg_rate_kmps",
            1e3 / b.per_op_median_us(),
            "1e3msg/s",
            b.samples_us.len(),
        );
        let bw = crate::p2p_stream::LARGE as f64 / c.per_op_median_us();
        sheet.add("bw_MBps", bw, "MB/s", c.samples_us.len());
    }
    sheet.add(
        "ops_failed_frac",
        ratio(ph.failed(), ph.ops()),
        "ratio",
        ph.ops() as usize,
    );
    sheet.add("measured_s", ph.wall_s, "s", 1);
}

fn per_layer(sheet: &mut Sheet, workload: &str, out: &RunOut, probe: &Probe, floor: &[f64]) {
    let floor_us = median(floor);
    let (untraced, traced) = (&out.phases[0], &out.phases[1]);
    sheet.add(
        "prrte.boot_ms",
        median(&out.boot_ms),
        "ms",
        out.boot_ms.len(),
    );
    sheet.add(
        "prrte.join_us",
        median(&out.join_tail_us),
        "us",
        out.join_tail_us.len(),
    );
    for name in SPANS {
        // A layer this workload leaves idle is timed by the layer probe.
        let stats = out
            .trace
            .stats
            .get(name)
            .or_else(|| probe.trace.stats.get(name));
        let (wall, cpu, own) = stats.map_or((&[][..], &[][..], &[][..]), |s| {
            (&s.wall_us[..], &s.cpu_us[..], &s.self_us[..])
        });
        sheet.add(format!("{name}_us"), median(wall), "us", wall.len());
        sheet.add(format!("{name}.cpu_us"), median(cpu), "us", cpu.len());
        sheet.add(format!("{name}.self_us"), median(own), "us", own.len());
    }
    for (k, suffix) in traced.kinds.iter().zip(KIND_SUFFIX) {
        counter_metrics(sheet, k, suffix);
    }
    for (k, suffix) in untraced.kinds.iter().zip(KIND_SUFFIX) {
        let p99: Vec<f64> = k
            .samples_us
            .iter()
            .map(|s| s / k.ops_per_sample.max(1) as f64)
            .collect();
        sheet.add(
            format!("op_{suffix}_us.p99"),
            percentile(&p99, 99.0),
            "us",
            p99.len(),
        );
    }
    sheet.add("simnet.pingpong_us", floor_us, "us", floor.len());
    // The stack's own share of a ping-pong: the workload's own ping-pong
    // where it has one, else the layer probe's.
    let (pingpong, n) = if workload == "p2p_stream" {
        let k = &untraced.kinds[0];
        (k.per_op_median_us(), k.samples_us.len())
    } else {
        (median(&probe.pingpong_us), probe.pingpong_us.len())
    };
    sheet.add("pml.pingpong_self_us", pingpong - floor_us, "us", n);
    sheet.add("obs.spans_dropped", out.spans_dropped as f64, "count", 1);
    sheet.add("obs.events_dropped", out.events_dropped as f64, "count", 1);
    let overheads: Vec<f64> = untraced
        .kinds
        .iter()
        .zip(&traced.kinds)
        .filter(|(u, t)| !u.samples_us.is_empty() && !t.samples_us.is_empty())
        .map(|(u, t)| t.per_op_median_us() / u.per_op_median_us() - 1.0)
        .collect();
    let mean = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    sheet.add("obs.trace_overhead_frac", mean, "ratio", overheads.len());
}

/// What a traced run adds: the layer probe and the transport floor.
pub struct Traced<'a> {
    pub probe: &'a Probe,
    pub floor_us: &'a [f64],
    pub floor_failed: u64,
}

/// Print the readable report, then the result line. Exits with code 1,
/// printing no result, when the workload never reached its measured phase.
pub fn print(workload: &str, seed: u64, out: &RunOut, traced: Option<Traced>) {
    let Some(ph) = out.phases.first() else {
        eprintln!(
            "perfbench: {workload} failed during set-up ({} failures)",
            out.other_failed
        );
        std::process::exit(1);
    };
    let mut readable = Sheet::default();
    end_to_end(&mut readable, out, ph);
    let e2e_len = readable.0.len();
    readable_extras(&mut readable, workload, ph);
    let mut failed: u64 = out.phases.iter().map(Phase::failed).sum::<u64>() + out.other_failed;
    let attempted: u64 = out.phases.iter().map(Phase::ops).sum();
    let mut layers = Sheet::default();
    if let Some(t) = &traced {
        per_layer(&mut layers, workload, out, t.probe, t.floor_us);
        failed += t.probe.failed + t.floor_failed;
    }
    let all_kinds_ran = ph.kinds.iter().all(|k| !k.samples_us.is_empty());
    let correct = failed == 0 && all_kinds_ran;

    println!(
        "# perfbench workload={workload} seed={seed} traced={}",
        traced.is_some()
    );
    for m in readable.0.iter().chain(&layers.0) {
        println!(
            "{:<36} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let setups: Vec<String> = out
        .setup_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    println!("# setup_ms per set-up: {}", setups.join(" "));
    if traced.is_some() {
        let (kept, dropped) = (out.trace.raw.len(), out.trace.raw_dropped);
        println!("# spans written: {kept} (over the per-thread cap, not written: {dropped})");
    }
    println!("# attempted={attempted} failed={failed} correct={correct}");
    let result: &[Metric] = if traced.is_some() {
        &layers.0
    } else {
        &readable.0[..e2e_len]
    };
    let metrics: Vec<String> = result
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
}
