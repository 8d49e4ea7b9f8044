//! The benchmark's own span recorder, used only in traced runs.
//!
//! A span wraps one call into a layer of the stack. It records wall time,
//! the calling thread's CPU time, its parent (the span open around it on the
//! same thread) and an op id shared by every span of one job, cycle or
//! message window. Self time is the span's wall time minus the wall time of
//! its direct children. Spans stay in per-thread memory until the run ends.
//! With tracing off, [`span`] only calls its closure.

use crate::sys::thread_cpu_ns;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Raw spans kept per thread for the written trace; statistics use every
/// span, kept or not.
const RAW_CAP: usize = 20_000;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    pub self_ns: u64,
}

/// Wall, CPU and self time samples (µs) of one span name.
#[derive(Default, Clone)]
pub struct SpanStats {
    pub wall_us: Vec<f64>,
    pub cpu_us: Vec<f64>,
    pub self_us: Vec<f64>,
}

/// What one thread recorded.
#[derive(Default)]
pub struct ThreadTrace {
    pub raw: Vec<SpanRec>,
    pub raw_dropped: u64,
    pub stats: BTreeMap<&'static str, SpanStats>,
}

impl ThreadTrace {
    /// Fold another thread's trace into this one.
    pub fn merge(&mut self, other: ThreadTrace) {
        self.raw.extend(other.raw);
        self.raw_dropped += other.raw_dropped;
        for (name, s) in other.stats {
            let e = self.stats.entry(name).or_default();
            e.wall_us.extend(s.wall_us);
            e.cpu_us.extend(s.cpu_us);
            e.self_us.extend(s.self_us);
        }
    }
}

struct Open {
    id: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    tid: u64,
    stack: Vec<Open>,
    trace: ThreadTrace,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Run `f` inside a span named `name` belonging to op `op`.
pub fn span<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().map(|o| o.id);
        l.stack.push(Open { id, child_ns: 0 });
        parent
    });
    let cpu0 = thread_cpu_ns();
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    let cpu = thread_cpu_ns().saturating_sub(cpu0);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.tid == 0 {
            l.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        let open = l
            .stack
            .pop()
            .expect("span stack holds the span being closed");
        let wall = end - start;
        let self_ns = wall.saturating_sub(open.child_ns);
        if let Some(p) = l.stack.last_mut() {
            p.child_ns += wall;
        }
        let stats = l.trace.stats.entry(name).or_default();
        stats.wall_us.push(wall as f64 / 1e3);
        stats.cpu_us.push(cpu as f64 / 1e3);
        stats.self_us.push(self_ns as f64 / 1e3);
        if l.trace.raw.len() < RAW_CAP {
            let tid = l.tid;
            l.trace.raw.push(SpanRec {
                name,
                id,
                parent,
                op,
                tid,
                start_ns: start,
                end_ns: end,
                cpu_ns: cpu,
                self_ns,
            });
        } else {
            l.trace.raw_dropped += 1;
        }
    });
    out
}

/// Take everything the calling thread recorded so far.
pub fn take_thread() -> ThreadTrace {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().trace))
}

/// Write `spans` as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"tid\":{},\
             \"start_us\":{:.3},\"end_us\":{:.3},\"cpu_us\":{:.3},\"self_us\":{:.3}}}",
            s.name,
            s.id,
            parent,
            s.op,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.cpu_ns as f64 / 1e3,
            s.self_ns as f64 / 1e3,
        )?;
    }
    out.flush()
}
