//! The transport floor: a raw 8 B ping-pong between two endpoints of a
//! zero-cost `simnet::Fabric`, with no MPI layer above it.

use crate::common::{us_since, WAIT};
use bytes::Bytes;
use simnet::{CostModel, Fabric, NodeId};
use std::time::Instant;

/// Half round-trip samples (µs) of `iters` ping-pongs, and the number
/// that failed (error, timeout or wrong payload). Like the ranks of the
/// workloads, the two sides run pinned to CPUs of their own; this pins the
/// calling thread, so call it last.
pub fn simnet_pingpong(iters: usize) -> (Vec<f64>, u64) {
    crate::sys::pin_to_nth_cpu(0);
    let fabric = Fabric::new(CostModel::zero());
    let a = fabric.register(NodeId(0));
    let b = fabric.register(NodeId(0));
    let (a_id, b_id) = (a.id(), b.id());
    let msg = Bytes::copy_from_slice(&0x05EE_D0FF_10A7_u64.to_le_bytes());
    let mut samples = Vec::with_capacity(iters);
    let mut failed = 0;
    std::thread::scope(|s| {
        s.spawn(move || {
            crate::sys::pin_to_nth_cpu(1);
            while let Ok(env) = b.recv_timeout(WAIT) {
                if env.payload.is_empty() || b.send(a_id, env.payload).is_err() {
                    break;
                }
            }
        });
        for _ in 0..iters {
            let t0 = Instant::now();
            let ok = a.send(b_id, msg.clone()).is_ok()
                && matches!(a.recv_timeout(WAIT), Ok(env) if env.payload == msg);
            samples.push(us_since(t0) / 2.0);
            failed += !ok as u64;
        }
        let _ = a.send(b_id, Bytes::new());
    });
    (samples, failed)
}
