//! Elastic sessions: pset churn, versioned groups, and the one
//! fault-aware communicator rebuild loop.
//!
//! The runtime's pset registry is **versioned**: every definition,
//! membership change, and deletion bumps a global epoch and is broadcast
//! through the PMIx event subsystem (with replay to late subscribers).
//! This module is the application-facing rim of that machinery:
//!
//! * [`Session::watch_psets`] — subscribe to pset changes as decoded
//!   [`PsetUpdate`]s;
//! * [`Session::group_from_pset_at`] — resolve a pset *at a pinned epoch*,
//!   failing with a typed [`ErrClass::Stale`] error when the registry has
//!   moved on (torn-read detection);
//! * [`Session::rebuild`] — the rebuild loop shared by elastic churn
//!   (grow, graceful retire, pset deletion) and fault recovery (the
//!   failure bridge shrinking a pset around a corpse): retire the old
//!   communicator, then re-derive a replacement from the pset at a pinned
//!   epoch with [`Comm::repair_via_pset`]'s construct, retrying its typed
//!   verdicts until the membership settles.
//!
//! Every member of an epoch observes the same ordered stream of epochs,
//! so the `repair:{pset}@{epoch}` string tags line up and each
//! `create_from_group` is a well-formed collective over exactly the
//! members of that epoch.

use crate::comm::Comm;
use crate::error::{ErrClass, MpiError, Result};
use crate::group::{MpiGroup, ProcRef};
use crate::session::Session;
use pmix::value::keys;
use pmix::{Event, EventCode, ProcId};
use std::time::{Duration, Instant};

/// One decoded pset change, as observed through a [`PsetWatcher`].
#[derive(Debug, Clone)]
pub struct PsetUpdate {
    /// Name of the pset that changed.
    pub pset: String,
    /// Global registry epoch at which the change took effect.
    pub epoch: u64,
    /// What happened.
    pub kind: PsetUpdateKind,
    /// Membership after the change (empty for deletions).
    pub members: Vec<ProcId>,
    /// Causal context of the runtime-side `pset.update` span, so rebuild
    /// spans can link back across the event hop.
    pub ctx: Option<obs::TraceContext>,
}

/// The kind of a [`PsetUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsetUpdateKind {
    /// The pset was defined (also synthesized on replay for subscribers
    /// that arrive after the definition).
    Defined,
    /// The membership changed (grow, retire, or failure-driven shrink).
    Membership,
    /// The pset was deleted.
    Deleted,
}

/// A subscription to pset-change events, scoped to a session.
pub struct PsetWatcher {
    stream: pmix::event::EventStream,
}

fn decode(ev: Event) -> Option<PsetUpdate> {
    let kind = match ev.code {
        EventCode::PsetDefined => PsetUpdateKind::Defined,
        EventCode::PsetMembership => PsetUpdateKind::Membership,
        EventCode::PsetDeleted => PsetUpdateKind::Deleted,
        _ => return None,
    };
    Some(PsetUpdate {
        pset: ev.get(keys::PSET_NAME)?.as_str()?.to_owned(),
        epoch: ev.get(keys::PSET_EPOCH)?.as_u64()?,
        members: ev
            .get(keys::PSET_MEMBERS)
            .and_then(|v| v.as_proc_list())
            .map(|m| m.to_vec())
            .unwrap_or_default(),
        kind,
        ctx: ev.ctx,
    })
}

impl PsetWatcher {
    /// Poll for the next pset change, if any is queued.
    pub fn try_next(&self) -> Option<PsetUpdate> {
        while let Some(ev) = self.stream.try_next() {
            if let Some(u) = decode(ev) {
                return Some(u);
            }
        }
        None
    }

    /// Wait up to `timeout` for the next pset change.
    pub fn next_timeout(&self, timeout: Duration) -> Option<PsetUpdate> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let ev = self.stream.next_timeout(left)?;
            if let Some(u) = decode(ev) {
                return Some(u);
            }
        }
    }

    /// Wait up to `timeout` for the next change to `pset` past epoch
    /// `after`, dropping changes to other psets and any queued change at
    /// or below `after` (a rebuild already covered those epochs).
    pub fn next_for(&self, pset: &str, after: u64, timeout: Duration) -> Option<PsetUpdate> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let u = self.next_timeout(left)?;
            if u.pset == pset && u.epoch > after {
                return Some(u);
            }
        }
    }
}

impl Session {
    /// Subscribe this session to pset-change events. The subscription
    /// replays the registry's current state (one synthesized `Defined` per
    /// live pset, in epoch order) before live events, so a late subscriber
    /// starts from a consistent snapshot.
    pub fn watch_psets(&self) -> Result<PsetWatcher> {
        self.check_live()?;
        Ok(PsetWatcher { stream: self.process().pmix().watch_psets() })
    }

    /// `MPI_Group_from_session_pset` pinned at `epoch`: resolves the pset
    /// membership only if the registry is still exactly at that version.
    /// A mismatch returns an [`ErrClass::Stale`] error naming both epochs,
    /// so callers distinguish "the world moved on" from "no such pset".
    pub fn group_from_pset_at(&self, name: &str, epoch: u64) -> Result<MpiGroup> {
        self.check_live()?;
        let process = self.process().clone();
        let registry = process.universe().registry();
        let (current, members) = registry.pset_members_versioned(name).map_err(|_| {
            MpiError::new(ErrClass::Arg, format!("unknown process set '{name}'"))
        })?;
        if current != epoch {
            return Err(MpiError::new(
                ErrClass::Stale,
                format!("pset '{name}' is at epoch {current}, caller pinned epoch {epoch}"),
            ));
        }
        let refs: Vec<ProcRef> = members
            .iter()
            .map(|proc| {
                let entry = registry.locate(proc)?;
                Ok(ProcRef { proc: proc.clone(), endpoint: entry.endpoint })
            })
            .collect::<Result<_>>()?;
        Ok(MpiGroup::from_members(refs).bind(process))
    }
}

/// What [`Session::rebuild`] settled on.
#[derive(Debug)]
pub enum Rebuild {
    /// The caller is a member at `epoch`: a replacement communicator over
    /// exactly that epoch's membership.
    Rebuilt {
        /// The rebuilt communicator.
        comm: Comm,
        /// The epoch it was built at.
        epoch: u64,
    },
    /// The caller is no longer a member of the pset (killed or retired).
    Removed {
        /// The first epoch without the caller.
        epoch: u64,
    },
    /// The pset itself was deleted.
    Deleted {
        /// The deletion epoch.
        epoch: u64,
    },
}

impl Session {
    /// The fault-rebuild loop: re-derive this process's communicator over
    /// `pset` from `trigger` — an update from the caller's own
    /// [`PsetWatcher`] — or, for `None`, from the pset's current registry
    /// state (a recovery loop that learned of a fault some other way).
    ///
    /// `old` is retired first, locally: stale unexpected messages are
    /// counted, departed peers are invalidated in the PML handshake cache,
    /// and the CID and route are released without a collective free. The
    /// loop then pins the update's epoch and builds with the construct
    /// behind [`Comm::repair_via_pset`], acting on its verdicts:
    /// * caller not a member → [`Rebuild::Removed`]; pset deleted →
    ///   [`Rebuild::Deleted`];
    /// * [`ErrClass::Stale`], or [`ErrClass::ProcFailed`] (the membership
    ///   names a corpse, or a member died during the fan-in) → wait on a
    ///   pset watcher for the next update — for a death, the failure
    ///   bridge's prune — and rebuild at that epoch;
    /// * [`ErrClass::Timeout`] → retry the same epoch (the collective
    ///   aborted symmetrically on every participant).
    ///
    /// Every wait and retry draws on `budget`. A caller following a
    /// watcher then drops its updates at or below the rebuilt epoch
    /// ([`PsetWatcher::next_for`]).
    pub fn rebuild(
        &self,
        pset: &str,
        old: Option<Comm>,
        trigger: Option<PsetUpdate>,
        budget: Duration,
    ) -> Result<Rebuild> {
        let deadline = Instant::now() + budget;
        let process = self.process().clone();
        let (registry, fabric) = (process.universe().registry(), process.universe().fabric());
        let (obs, p) = (process.obs(), process.proc().to_string());
        let mut update = match trigger {
            Some(u) => u,
            None => {
                let (epoch, members) = registry.pset_members_versioned(pset)?;
                let (kind, members) = (PsetUpdateKind::Membership, members.to_vec());
                PsetUpdate { pset: pset.to_owned(), epoch, kind, members, ctx: None }
            }
        };
        let stale_unexpected = old.map_or(0, |old| retire(old, &update, &obs, &p));
        let mut watcher = None;
        loop {
            if update.kind == PsetUpdateKind::Deleted {
                return Ok(Rebuild::Deleted { epoch: update.epoch });
            }
            if !update.members.contains(process.proc()) {
                return Ok(Rebuild::Removed { epoch: update.epoch });
            }
            let dead = update.members.iter().find(|m| {
                registry.locate(m).is_ok_and(|entry| !fabric.is_alive(entry.endpoint))
            });
            let verdict = if let Some(dead) = dead {
                // Its prune is queued or imminent: skip the doomed fan-in.
                Err(MpiError::new(
                    ErrClass::ProcFailed,
                    format!("pset '{pset}'@{} names dead member {dead}", update.epoch),
                ))
            } else {
                let mut span = obs.span(&p, "session.rebuild", &format!("{pset}@{}", update.epoch));
                if let Some(ctx) = update.ctx {
                    span.link(ctx);
                }
                span.add_work(update.members.len() as u64);
                let _entered = span.enter();
                Comm::from_pset_at(self, pset, update.epoch)
            };
            let e = match verdict {
                Ok(comm) => {
                    let pgcid = comm.excid().map(|e| e.pgcid).unwrap_or(0);
                    obs.counter(&p, "session", "rebuilds").inc();
                    obs.event(
                        &p,
                        "session.rebuild",
                        vec![
                            ("pset".into(), pset.into()),
                            ("epoch".into(), update.epoch.into()),
                            ("pgcid".into(), pgcid.into()),
                            ("stale_unexpected".into(), stale_unexpected.into()),
                        ],
                    );
                    return Ok(Rebuild::Rebuilt { comm, epoch: update.epoch });
                }
                Err(e) => e,
            };
            match e.class {
                ErrClass::Timeout if Instant::now() < deadline => {
                    obs.counter(&p, "session", "rebuild_retries").inc();
                    continue;
                }
                ErrClass::ProcFailed => {
                    obs.counter(&p, "session", "rebuild_reentered").inc();
                    obs.event(
                        &p,
                        "rebuild.reenter",
                        vec![
                            ("pset".into(), pset.into()),
                            ("epoch".into(), update.epoch.into()),
                            ("error".into(), e.to_string().into()),
                        ],
                    );
                }
                ErrClass::Stale => {}
                _ => return Err(e),
            }
            if watcher.is_none() {
                watcher = Some(self.watch_psets()?);
            }
            let (epoch, left) = (update.epoch, deadline.saturating_duration_since(Instant::now()));
            update = watcher.as_ref().and_then(|w| w.next_for(pset, epoch, left)).ok_or_else(|| {
                let why = format!("pset '{pset}' stuck at epoch {epoch} for {budget:?}: {e}");
                MpiError::new(ErrClass::Timeout, why)
            })?;
        }
    }
}

/// Locally retire `old` ahead of `update` taking effect: count stale
/// unexpected messages, invalidate departed peers in the handshake cache,
/// release the CID and route. Returns the stale count.
fn retire(old: Comm, update: &PsetUpdate, obs: &obs::Registry, p: &str) -> u64 {
    let stale_unexpected = old.unexpected_queued() as u64;
    let mut departed = 0u64;
    for member in old.group().iter() {
        if !update.members.contains(&member.proc)
            && old.process().pml().invalidate_peer(member.endpoint)
        {
            departed += 1;
        }
    }
    old.abandon();
    obs.event(
        p,
        "elastic.retire",
        vec![
            ("pset".into(), update.pset.as_str().into()),
            ("epoch".into(), update.epoch.into()),
            ("stale_unexpected".into(), stale_unexpected.into()),
            ("departed_invalidated".into(), departed.into()),
        ],
    );
    stale_unexpected
}
