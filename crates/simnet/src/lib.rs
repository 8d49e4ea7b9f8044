//! # simnet — a simulated cluster fabric
//!
//! This crate is the hardware substrate for the MPI Sessions reproduction.
//! The paper ran on two Cray XC systems (Aries interconnect); we have no such
//! hardware, so we simulate the *relevant* properties of a cluster:
//!
//! * a set of **nodes**, each hosting a fixed number of **slots** (cores);
//! * **endpoints** (one per simulated process or daemon) that exchange
//!   reliable, ordered, unbounded point-to-point byte messages;
//! * a **cost model** that makes on-node communication cheap (shared-memory
//!   analog: direct queue handoff, no injected delay) and off-node
//!   communication expensive (injected latency plus per-byte bandwidth delay);
//! * **failure injection**: an endpoint can be killed; in-flight and future
//!   messages to it are dropped and interested parties are notified.
//!
//! All effects the paper measures are *algorithmic* (extra RPC round trips,
//! extra protocol messages, more reduction rounds), so a
//! latency/bandwidth-parameterized fabric preserves the shape of every
//! experiment even though absolute numbers differ from Aries hardware.
//!
//! The fabric is intentionally neutral: it knows nothing about PMIx or MPI.
//! Higher layers (the `pmix`, `prrte` and `mpi-sessions` crates) build their
//! wire protocols on top of [`Endpoint`] and [`Fabric`].

pub mod cost;
pub mod endpoint;
pub mod fabric;
pub mod failure;
pub mod inject;
pub mod message;
pub mod testbed;
pub mod topology;

pub use cost::CostModel;
pub use endpoint::{Endpoint, EndpointId, EndpointSender, RecvError, SendError, Waker};
pub use fabric::Fabric;
pub use failure::{FailureEvent, FailureWatcher};
pub use inject::{FaultAction, FaultHook, FaultVerdict, MsgView};
pub use message::Envelope;
pub use testbed::SimTestbed;
pub use topology::{ClusterSpec, NodeId};
