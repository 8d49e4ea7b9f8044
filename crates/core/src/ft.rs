//! Fault-tolerance surface (paper §II-C).
//!
//! Sessions as fault-isolation domains rest on two capabilities this
//! module exposes:
//!
//! * **failure notification** — a session can subscribe to process-failure
//!   events (PMIx event forwarding) and learn which peers died;
//! * **re-initialization** — because `MPI_Session_init` is repeatable, an
//!   application can finalize everything after a failure and re-initialize
//!   MPI over the surviving processes ("roll forward ... and use whatever
//!   resources are available at the point of re-initialization").
//!
//! The client/server isolation scenario (a client failure must not cascade
//!   into the server's internal session) is exercised by the
//! `client_server` example and the integration tests.

use crate::error::Result;
use crate::session::Session;
use pmix::{Event, EventCode, PmixUniverse, ProcId};
use std::sync::Arc;
use std::time::Duration;

/// A subscription to peer-failure notifications, scoped to a session.
pub struct FailureNotifier {
    stream: pmix::event::EventStream,
}

impl FailureNotifier {
    /// Poll for the next failure, if any.
    pub fn try_next(&self) -> Option<ProcId> {
        self.stream.try_next().and_then(|e| e.source)
    }

    /// Wait up to `timeout` for a failure notification.
    pub fn next_timeout(&self, timeout: Duration) -> Option<ProcId> {
        self.stream.next_timeout(timeout).and_then(|e: Event| e.source)
    }

    /// Number of queued notifications.
    pub fn pending(&self) -> usize {
        self.stream.pending()
    }
}

/// A fault subscription rooted at the fabric's dead set, scoped to the
/// session's namespace.
///
/// Unlike [`FailureNotifier`] (PMIx event forwarding: live events only, a
/// subscriber attaching after a death never hears about it), a
/// `FaultWatcher` has the same **exactly-once replay** contract as
/// [`Session::watch_psets`]: deaths that happened before the subscription
/// are replayed on attach (in endpoint-id order), deaths after it arrive
/// live, and no death is ever reported twice. A subscriber attaching at
/// any point — before the kill, after the kill but before the first lazy
/// resolution, long after — converges on the same fault knowledge.
pub struct FaultWatcher {
    watcher: simnet::FailureWatcher,
    universe: Arc<PmixUniverse>,
    nspace: String,
}

impl FaultWatcher {
    /// Map a fabric death onto a process of this watcher's namespace.
    /// Server endpoints are not registered as processes and deaths from
    /// other jobs carry a different nspace; both filter to `None`.
    fn decode(&self, ev: simnet::FailureEvent) -> Option<ProcId> {
        let proc = self.universe.registry().find_by_endpoint(ev.endpoint)?;
        (proc.nspace() == self.nspace).then_some(proc)
    }

    /// Poll for the next fault, if any (replayed or live).
    pub fn try_next(&mut self) -> Option<ProcId> {
        while let Some(ev) = self.watcher.try_recv() {
            if let Some(p) = self.decode(ev) {
                return Some(p);
            }
        }
        None
    }

    /// Wait up to `timeout` for the next fault of this namespace.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<ProcId> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let ev = self.watcher.recv_timeout(left)?;
            if let Some(p) = self.decode(ev) {
                return Some(p);
            }
        }
    }
}

impl Session {
    /// Subscribe this session to process-failure events.
    pub fn failure_notifier(&self) -> Result<FailureNotifier> {
        let stream = self
            .process()
            .pmix()
            .register_events(Some(vec![EventCode::ProcTerminated, EventCode::GroupMemberFailed]));
        Ok(FailureNotifier { stream })
    }

    /// Subscribe to faults of this session's job with exactly-once replay
    /// of deaths that predate the subscription (see [`FaultWatcher`]).
    pub fn watch_faults(&self) -> Result<FaultWatcher> {
        self.check_live()?;
        let process = self.process();
        Ok(FaultWatcher {
            watcher: process.universe().fabric().watch_failures(),
            universe: process.universe().clone(),
            nspace: process.proc().nspace().to_owned(),
        })
    }

    /// Opt this session's job into the queryable faults pset: defines (or
    /// returns) `mpi://survivors/{nspace}` — the job's world minus every
    /// process the runtime has observed dead, shrunk live by the failure
    /// bridge on each kill and by the launcher on each graceful retire.
    ///
    /// The pset is versioned under the registry epoch like any other, so
    /// it composes with [`Session::group_from_pset`],
    /// [`Session::group_from_pset_at`] (epoch-pinned), and
    /// [`Session::rebuild`]. It is **opt-in** (not defined at
    /// launch) so jobs that never track faults keep their exact pset
    /// epoch sequence. Returns the pset name.
    pub fn track_faults(&self) -> Result<String> {
        self.check_live()?;
        let process = self.process();
        Ok(process.universe().track_faults(process.proc().nspace())?)
    }

    /// Build the set of *surviving* members of a pset: the pset membership
    /// minus processes the fabric has marked dead. This is what an
    /// application uses to re-initialize after a failure.
    pub fn surviving_group(&self, pset: &str) -> Result<crate::group::MpiGroup> {
        let group = self.group_from_pset(pset)?;
        let process = self.process().clone();
        let fabric = process.universe().fabric().clone();
        let members: Vec<crate::group::ProcRef> = group
            .iter()
            .filter(|m| fabric.is_alive(m.endpoint))
            .collect();
        Ok(crate::group::MpiGroup::from_members(members).bind(process))
    }
}
