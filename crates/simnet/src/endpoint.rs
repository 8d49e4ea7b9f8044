//! Endpoints: per-process mailboxes attached to the fabric.

use crate::fabric::FabricCore;
use crate::message::Envelope;
use crate::topology::NodeId;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fabric-unique identifier of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointId(pub u64);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Errors surfaced by the receive side of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message available right now (only from `try_recv`).
    Empty,
    /// The wait deadline elapsed (only from `recv_timeout`).
    Timeout,
    /// This endpoint has been killed or the fabric has shut down.
    Disconnected,
}

/// Errors surfaced by the send side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination endpoint does not exist or has been killed.
    PeerDead(EndpointId),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::PeerDead(ep) => write!(f, "destination endpoint {ep} is dead"),
        }
    }
}

impl std::error::Error for SendError {}

/// One mailbox item: a fabric message, or a wake from a [`Waker`]. Wakes
/// never leave this module: the receive calls absorb them.
pub(crate) enum Mail {
    Env(Envelope),
    Wake,
}

/// A process's attachment point to the fabric: an id, a home node and a
/// mailbox of incoming [`Envelope`]s.
///
/// `Endpoint` is `Send` (it can be moved into the thread that plays the
/// simulated process) but receiving is single-consumer: exactly one thread
/// should drain it, which is exactly the MPI progress-engine discipline.
pub struct Endpoint {
    id: EndpointId,
    node: NodeId,
    rx: Receiver<Mail>,
    wake_pending: Arc<AtomicBool>,
    fabric: Arc<FabricCore>,
}

impl Endpoint {
    pub(crate) fn new(
        id: EndpointId,
        node: NodeId,
        rx: Receiver<Mail>,
        wake_pending: Arc<AtomicBool>,
        fabric: Arc<FabricCore>,
    ) -> Self {
        Self { id, node, rx, wake_pending, fabric }
    }

    /// This endpoint's fabric-unique id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The node this endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A cloneable handle to the fabric this endpoint is attached to.
    pub fn fabric(&self) -> crate::fabric::Fabric {
        crate::fabric::Fabric::from_core(self.fabric.clone())
    }

    /// The observability registry of the fabric this endpoint lives on.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.fabric.obs().clone()
    }

    /// Send `payload` to `dst`, applying the fabric's cost model.
    ///
    /// Sends are asynchronous: the call returns once the message is scheduled
    /// for delivery. Per-(src,dst) ordering is guaranteed even when delays
    /// differ by message size.
    ///
    /// The sending thread's current trace context (entered span or ambient)
    /// is piggybacked on the envelope automatically, so receivers can link
    /// the causal predecessor without any wire-format change.
    pub fn send(&self, dst: EndpointId, payload: Bytes) -> Result<(), SendError> {
        self.send_ctx(dst, payload, obs::trace::current_context())
    }

    /// Send with an explicit piggybacked trace context (overriding the
    /// thread-current one) — used where the logically-owning span is held
    /// in protocol state rather than entered on the calling thread.
    pub fn send_ctx(
        &self,
        dst: EndpointId,
        payload: Bytes,
        ctx: Option<obs::TraceContext>,
    ) -> Result<(), SendError> {
        self.fabric.send(Envelope::with_ctx(self.id, dst, payload, ctx))
    }

    /// Blocking receive. Returns `Disconnected` once this endpoint is killed
    /// (and its queue fully drained) or the fabric is gone. A wake from a
    /// [`Waker`] is absorbed: this call has no "nothing arrived" outcome,
    /// so it keeps waiting for a message.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        loop {
            match self.rx.recv() {
                Ok(Mail::Env(env)) => return Ok(env),
                Ok(Mail::Wake) => self.absorb_wake(),
                Err(_) => return Err(RecvError::Disconnected),
            }
        }
    }

    /// Receive with a deadline. A wake from a [`Waker`] ends the wait early:
    /// the call then returns a message queued behind the wake, if any, and
    /// `Timeout` otherwise.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Mail::Env(env)) => Ok(env),
            Ok(Mail::Wake) => {
                self.absorb_wake();
                self.try_recv().map_err(|e| match e {
                    RecvError::Empty => RecvError::Timeout,
                    e => e,
                })
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Non-blocking receive. Pending wakes are skipped.
    pub fn try_recv(&self) -> Result<Envelope, RecvError> {
        loop {
            match self.rx.try_recv() {
                Ok(Mail::Env(env)) => return Ok(env),
                Ok(Mail::Wake) => self.absorb_wake(),
                Err(TryRecvError::Empty) => return Err(RecvError::Empty),
                Err(TryRecvError::Disconnected) => return Err(RecvError::Disconnected),
            }
        }
    }

    // Re-arm the waker once its wake has been taken off the queue.
    fn absorb_wake(&self) {
        self.wake_pending.store(false, Ordering::SeqCst);
    }

    /// Number of messages currently queued in the mailbox.
    pub fn queued(&self) -> usize {
        let wake = self.wake_pending.load(Ordering::SeqCst) as usize;
        self.rx.len().saturating_sub(wake)
    }

    /// A handle that wakes this endpoint's blocked receive from any thread,
    /// without sending it a message (see [`Waker`]).
    pub fn waker(&self) -> Waker {
        Waker { id: self.id, fabric: self.fabric.clone() }
    }

    /// A cloneable send-only handle for this endpoint, usable from threads
    /// that do not own the mailbox (e.g. a server's worker threads).
    pub fn sender(&self) -> EndpointSender {
        EndpointSender { id: self.id, node: self.node, fabric: self.fabric.clone() }
    }
}

/// Wakes one endpoint's blocked [`Endpoint::recv_timeout`] early, so a
/// thread that completes work on the endpoint owner's behalf (a PMIx
/// server answering its KVS fetch) can hand control back at once instead
/// of leaving the owner to sleep out its timeout.
///
/// A wake is not a fabric message: it touches no traffic counter, no
/// activity tick, no fault hook and no trace context. Wakes sent before
/// the owner receives coalesce into one. The waker looks the endpoint up
/// on every wake, so it never keeps a killed endpoint's mailbox open; a
/// wake to a dead endpoint does nothing.
#[derive(Clone)]
pub struct Waker {
    id: EndpointId,
    fabric: Arc<FabricCore>,
}

impl Waker {
    /// Wake the endpoint's current or next blocked receive.
    pub fn wake(&self) {
        self.fabric.wake(self.id);
    }
}

/// Send-only handle to the fabric on behalf of an endpoint.
#[derive(Clone)]
pub struct EndpointSender {
    id: EndpointId,
    node: NodeId,
    fabric: Arc<FabricCore>,
}

impl EndpointSender {
    /// The endpoint this sender sends as.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The node the owning endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send `payload` to `dst` as the owning endpoint. The sending thread's
    /// current trace context is piggybacked, as with [`Endpoint::send`].
    pub fn send(&self, dst: EndpointId, payload: Bytes) -> Result<(), SendError> {
        self.send_ctx(dst, payload, obs::trace::current_context())
    }

    /// Send with an explicit piggybacked trace context, as with
    /// [`Endpoint::send_ctx`].
    pub fn send_ctx(
        &self,
        dst: EndpointId,
        payload: Bytes,
        ctx: Option<obs::TraceContext>,
    ) -> Result<(), SendError> {
        self.fabric.send(Envelope::with_ctx(self.id, dst, payload, ctx))
    }

    /// The observability registry of the fabric this sender sends on.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.fabric.obs().clone()
    }

    /// A cloneable handle to the fabric this sender sends on (quiescence
    /// probes for logical-time deadlines).
    pub fn fabric(&self) -> crate::fabric::Fabric {
        crate::fabric::Fabric::from_core(self.fabric.clone())
    }
}

impl std::fmt::Debug for EndpointSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointSender").field("id", &self.id).finish()
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("node", &self.node)
            .field("queued", &self.queued())
            .finish()
    }
}
