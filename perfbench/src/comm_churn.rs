//! `comm_churn`: communicator creation and release inside one job, with no
//! launch or init in the timed path (the paper's Fig. 4).
//!
//! One job on `tiny(2,1)` keeps one session per rank and a long-lived
//! parent communicator. A round runs three blocks of cycles; an
//! out-of-band barrier starts every cycle on both ranks together:
//!
//! * kind a: `Comm::dup` → 8 B exchange on the child → `free`
//!   (local exCID derivation, first-message handshake/advert path);
//! * kind b: `Comm::create_from_group` with a fresh tag → `allreduce` →
//!   `free` (PMIx group construct/destruct, PGCID pool);
//! * kind c: a chain of nested dups ([`CHAIN`] deep, each a dup of the
//!   last) → 8 B exchange on the deepest → free in reverse: derivation
//!   through every exCID subfield. The warm-up chain uses them up and
//!   refills once through PMIx; later chains reuse the freed exCIDs.
//!
//! Two unlisted variants run the patterns of the seed's known lost-message
//! defect (see README). `comm_skew` replaces kind c with a skewed batch:
//! rank 0 issues [`SKEW_K`] dup → `isend` → free cycles, and only then does
//! rank 1 run its dup → `irecv` → free cycles. `comm_race` runs kind a
//! alone, without the per-cycle barrier.

use crate::common::*;
use crate::job::{block, eager_comm, finish, one_job_workload, run_phases, RankOut};
use crate::trace::span;
use mpi_sessions::{Comm, MpiGroup};
use prrte::ProcCtx;
use simnet::SimTestbed;
use std::time::{Duration, Instant};

/// Rounds per second of `--seconds`, for `comm_churn` and for the two
/// defect variants (whose rounds each wait out a lost message).
pub const ROUNDS_PER_SECOND: f64 = 270.0;
pub const SKEW_ROUNDS_PER_SECOND: f64 = 5.0;
/// Depth of a kind-c dup chain: one dup per exCID derivation subfield.
pub const CHAIN: usize = 8;
/// Cycles per round of kinds a, b, c.
const ROUND: [usize; KINDS] = [40, 4, 4];

/// `comm_skew`: the skew `k` (rank 1 starts receiving only after rank 0
/// has issued `k` send cycles).
const SKEW_K: usize = 2;
/// Budget of a wait where messages are known to get lost: long enough
/// that a message that exists is always matched (the wait also needs the
/// fabric quiet to expire).
const SKEW_WAIT: Duration = Duration::from_millis(40);

#[derive(Clone, Copy, PartialEq)]
pub enum Variant {
    Churn,
    Skew,
    Race,
}

pub fn run(variant: Variant, seed: u64, plan: &[PhasePlan]) -> RunOut {
    one_job_workload(
        || SimTestbed::tiny(2, 1),
        plan,
        move |ctx, plan, pace| rank_body(ctx, variant, seed, plan, pace),
    )
}

fn rank_body(
    ctx: &ProcCtx,
    variant: Variant,
    seed: u64,
    plan: &[PhasePlan],
    pace: &Pace,
) -> RankOut {
    let mut out = RankOut::default();
    let (session, parent) = eager_comm(ctx, &format!("pb{seed:x}.parent"));
    let me = parent.rank();
    let reg = ctx.endpoint().obs();
    let budget = if variant == Variant::Race {
        SKEW_WAIT
    } else {
        WAIT
    };
    let mut c = Cycles {
        parent: &parent,
        budget,
        group: parent.group(),
        seed,
        tag: (seed % 1000) as i32 + 1,
        op: 0,
    };
    // Kinds that run as plain cycles: all three, kinds a and b around the
    // skewed batch, or kind a alone.
    let cycled = match variant {
        Variant::Churn => KINDS,
        Variant::Skew => 2,
        Variant::Race => 1,
    };
    // Warm-up: one paced cycle of each of those kinds.
    for kind in 0..cycled {
        pace.wait();
        out.other_failed += c.run(kind) as u64;
    }
    pace.wait();
    out.ready = Some(Instant::now());
    let paced = variant != Variant::Race;
    out.phases = run_phases(me, plan, pace, &reg, [1; KINDS], |ph, counters| {
        for (kind, &n) in ROUND.iter().enumerate().take(cycled) {
            block(pace, me, counters, &mut ph.kinds[kind], |t| {
                for _ in 0..n {
                    if paced {
                        pace.wait();
                    }
                    let t1 = Instant::now();
                    let fails = c.run(kind);
                    t.record(us_since(t1), fails);
                }
            });
        }
        if variant == Variant::Skew {
            c.skew_batch(pace, &mut ph.kinds[2]);
        }
    });
    finish(out, parent, session)
}

struct Cycles<'a> {
    parent: &'a Comm,
    /// Budget of each wait: [`WAIT`], or [`SKEW_WAIT`] in `comm_skew`,
    /// where messages are known to get lost.
    budget: Duration,
    group: MpiGroup,
    seed: u64,
    tag: i32,
    /// Op id of the next cycle; the ranks run the same cycles in the same
    /// order, so it agrees across ranks.
    op: u64,
}

impl Cycles<'_> {
    fn peer(&self) -> u32 {
        1 - self.parent.rank()
    }

    /// One cycle of `kind`; returns 1 if anything in it failed.
    fn run(&mut self, kind: usize) -> u32 {
        let op = self.op;
        self.op += 1;
        match kind {
            0 => self.dup_cycle(op),
            1 => self.create_cycle(op),
            _ => self.chain_cycle(op),
        }
    }

    fn dup_cycle(&self, op: u64) -> u32 {
        let Ok(child) = span("comm.dup", op, || self.parent.dup()) else {
            return 1;
        };
        let fails = span("pml.first_msg", op, || {
            exchange8(&child, self.peer(), self.tag, self.seed, op, self.budget)
        });
        (fails + span("comm.free", op, || child.free()).is_err() as u32).min(1)
    }

    fn create_cycle(&self, op: u64) -> u32 {
        let tag = format!("pb{:x}.create.{op}", self.seed);
        let Ok(comm) = span("comm.create", op, || {
            Comm::create_from_group(&self.group, &tag)
        }) else {
            return 1;
        };
        let fails = checked_allreduce(&comm, "coll.allreduce_first", self.seed, op);
        (fails + span("comm.free", op, || comm.free()).is_err() as u32).min(1)
    }

    fn chain_cycle(&self, op: u64) -> u32 {
        let mut chain: Vec<Comm> = Vec::with_capacity(CHAIN);
        let mut fails = 0;
        for _ in 0..CHAIN {
            let base = chain.last().unwrap_or(self.parent);
            match span("comm.dup", op, || base.dup()) {
                Ok(child) => chain.push(child),
                Err(_) => {
                    fails = 1;
                    break;
                }
            }
        }
        if let Some(deepest) = chain.last() {
            fails += span("pml.first_msg", op, || {
                exchange8(deepest, self.peer(), self.tag, self.seed, op, self.budget)
            });
        }
        while let Some(comm) = chain.pop() {
            fails += span("comm.free", op, || comm.free()).is_err() as u32;
        }
        fails.min(1)
    }

    /// `comm_skew`: rank 0 issues [`SKEW_K`] dup → `isend` → free cycles;
    /// only then does rank 1 run its [`SKEW_K`] dup → `irecv` → free
    /// cycles. Sample `j` is the slower of the two ranks' cycle `j`. A
    /// receive that gets no message, or the wrong one, within
    /// [`SKEW_WAIT`] fails.
    fn skew_batch(&mut self, pace: &Pace, tally: &mut KindTally) {
        let me = self.parent.rank();
        let first = self.op;
        self.op += SKEW_K as u64;
        let ops = first..first + SKEW_K as u64;
        let mut samples = Vec::with_capacity(SKEW_K);
        let mut sends = Vec::with_capacity(SKEW_K);
        pace.wait();
        if me == 0 {
            for op in ops.clone() {
                let t1 = Instant::now();
                let fails = match self.parent.dup() {
                    Ok(child) => {
                        let sent = child.isend(1, self.tag, &payload8(self.seed, op, 0));
                        let freed = child.free();
                        let failed = sent.is_err() || freed.is_err();
                        sends.extend(sent);
                        failed as u32
                    }
                    Err(_) => 1,
                };
                samples.push((us_since(t1), fails));
            }
        }
        pace.wait();
        if me == 1 {
            for op in ops {
                let t1 = Instant::now();
                let fails = match self.parent.dup() {
                    Ok(child) => {
                        let got = child
                            .irecv(0, self.tag)
                            .map(|mut r| r.wait_data_timeout(SKEW_WAIT));
                        let ok =
                            matches!(got, Ok(Ok((d, _))) if d[..] == payload8(self.seed, op, 0));
                        let freed = child.free();
                        (!ok || freed.is_err()) as u32
                    }
                    Err(_) => 1,
                };
                samples.push((us_since(t1), fails));
            }
        }
        pace.wait();
        if let Some(last) = samples.last_mut() {
            last.1 += wait_sends(sends, SKEW_WAIT);
        }
        for (us, fails) in samples {
            tally.record(us, fails);
        }
    }
}
