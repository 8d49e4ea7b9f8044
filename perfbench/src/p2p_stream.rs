//! `p2p_stream`: the steady-state point-to-point fast path (the paper's
//! Fig. 5a, on-node).
//!
//! One job on `tiny(1,2)` builds one eager Sessions communicator during
//! set-up. A round runs three blocks from rank 0 to rank 1:
//!
//! * kind a: 8 B ping-pong; a sample is half the round trip;
//! * kind b: 8 B windowed stream, [`WINDOW`] sends then one ack per window
//!   (as in `osu_mbw_mr`); a sample is one window;
//! * kind c: 1 MiB windowed stream (rendezvous path), same shape; rank 1
//!   checks every byte after acking, and both ranks meet at an
//!   out-of-band barrier before the next window, so the check is not
//!   timed.
//!
//! Only rank 0's times count; rank 1 reports failures.

use crate::common::*;
use crate::job::{block, eager_comm, finish, one_job_workload, run_phases, RankOut};
use crate::trace::span;
use mpi_sessions::Comm;
use prrte::ProcCtx;
use simnet::SimTestbed;
use std::time::Instant;

/// Rounds per second of `--seconds`.
pub const ROUNDS_PER_SECOND: f64 = 45.0;
pub const WINDOW: usize = 8;
pub const LARGE: usize = 1 << 20;
/// Ping-pongs, 8 B windows and 1 MiB windows per round.
const ROUND: [usize; KINDS] = [400, 100, 3];

pub fn run(seed: u64, plan: &[PhasePlan]) -> RunOut {
    one_job_workload(
        || SimTestbed::tiny(1, 2),
        plan,
        move |ctx, plan, pace| rank_body(ctx, seed, plan, pace),
    )
}

fn rank_body(ctx: &ProcCtx, seed: u64, plan: &[PhasePlan], pace: &Pace) -> RankOut {
    let mut out = RankOut::default();
    let (session, comm) = eager_comm(ctx, &format!("pb{seed:x}.stream"));
    let me = comm.rank();
    let reg = ctx.endpoint().obs();
    let mut large = vec![0u8; LARGE];
    Rng::new(seed ^ 0x1A26E).fill(&mut large);
    let mut s = Stream {
        comm: &comm,
        seed,
        tag: (seed % 1000) as i32 + 1,
        op: 0,
        large,
        pace,
    };
    // Warm-up: the first messages pay the handshake; take them here.
    for kind in 0..KINDS {
        pace.wait();
        let mut t = KindTally::default();
        for _ in 0..4 {
            s.run(kind, &mut t);
        }
        out.other_failed += t.failed();
    }
    pace.wait();
    out.ready = Some(Instant::now());
    out.phases = run_phases(
        me,
        plan,
        pace,
        &reg,
        [1, WINDOW as u64, WINDOW as u64],
        |ph, counters| {
            for (kind, &n) in ROUND.iter().enumerate() {
                block(pace, me, counters, &mut ph.kinds[kind], |t| {
                    for _ in 0..n {
                        s.run(kind, t);
                    }
                });
            }
        },
    );
    finish(out, comm, session)
}

struct Stream<'a> {
    comm: &'a Comm,
    seed: u64,
    tag: i32,
    /// Op id of the next message; the same on both ranks.
    op: u64,
    large: Vec<u8>,
    pace: &'a Pace,
}

impl Stream<'_> {
    fn run(&mut self, kind: usize, t: &mut KindTally) {
        match kind {
            0 => self.pingpong(t),
            1 => self.window(t, false),
            _ => self.window(t, true),
        }
    }

    fn pingpong(&mut self, t: &mut KindTally) {
        let op = self.op;
        self.op += 1;
        let t0 = Instant::now();
        let fails = pingpong8(self.comm, self.tag, self.seed, op);
        let us = if self.comm.rank() == 0 {
            us_since(t0) / 2.0
        } else {
            0.0
        };
        t.record(us, fails);
    }

    /// Whether `data` is message `op`: 8 seeded bytes, or the seeded 1 MiB
    /// buffer with `op` in its first 8 bytes.
    fn is_payload(&self, data: &[u8], op: u64, large: bool) -> bool {
        if large {
            data.len() == LARGE && data[..8] == op.to_le_bytes() && data[8..] == self.large[8..]
        } else {
            data[..] == payload8(self.seed, op, 0)
        }
    }

    fn window(&mut self, t: &mut KindTally, large: bool) {
        let first = self.op;
        self.op += WINDOW as u64 + 1;
        let ack_op = first + WINDOW as u64;
        let (c, tag) = (self.comm, self.tag);
        let ops = first..first + WINDOW as u64;
        let t0 = Instant::now();
        if c.rank() == 0 {
            let mut fails = 0;
            let mut reqs = Vec::with_capacity(WINDOW);
            for op in ops {
                let small = payload8(self.seed, op, 0);
                let data: &[u8] = if large {
                    self.large[..8].copy_from_slice(&op.to_le_bytes());
                    &self.large
                } else {
                    &small
                };
                match span("request.issue", op, || c.isend(1, tag, data)) {
                    Ok(r) => reqs.push(r),
                    Err(_) => fails += 1,
                }
            }
            fails += span("request.wait_all", first, || wait_sends(reqs, WAIT));
            fails += recv8(c, 1, tag + 1, self.seed, ack_op);
            t.record(us_since(t0), fails);
        } else {
            let issued: Vec<_> = ops
                .clone()
                .filter_map(|op| span("request.issue", op, || c.irecv(0, tag)).ok())
                .collect();
            let mut fails = (WINDOW - issued.len()) as u32;
            let got = span("request.wait_all", first, || wait_recvs(issued, WAIT));
            fails += send8(c, 0, tag + 1, self.seed, ack_op);
            for (data, op) in got.iter().zip(ops) {
                fails += !matches!(data, Ok(d) if self.is_payload(d, op, large)) as u32;
            }
            t.record(0.0, fails);
        }
        if large {
            self.pace.wait();
        }
    }
}
