//! The per-node PMIx server.
//!
//! One server runs on every simulated node. Local clients interact with it
//! by direct method call (the analog of the shared-memory client↔server
//! channel in the PMIx reference implementation); remote interaction goes
//! through [`crate::wire::ServerMsg`]s over the fabric.
//!
//! ## The three-stage hierarchical collective (paper §III-A)
//!
//! Fences and group construct/destruct all run the same engine:
//!
//! 1. **local fan-in** — every local participant notifies its server
//!    ([`PmixServer::coll_enter`]);
//! 2. **server all-to-all** — once all local participants have arrived, the
//!    server exchanges a [`Contribution`] with every other participating
//!    server;
//! 3. **local fan-out** — when contributions from all participating servers
//!    (plus the PGCID, if requested) are in, waiting clients are released.
//!
//! The **PGCID** is allocated by the resource-manager service hosted on the
//! lead (lowest-node) server of the universe; the lead *participating*
//! server requests it and broadcasts it to the other participants. This
//! inter-node RPC is exactly the "relatively expensive operation" the paper
//! blames for the sessions communicator-construction overhead (§III-B3).
//!
//! ## Sharded hot-path state
//!
//! The server's mutable state used to sit behind one big mutex, which
//! serialized *independent* collectives and KVS traffic from many local
//! clients. It is now split into [`SERVER_SHARDS`] key-hashed shards:
//!
//! * **ops shards** — collective-op tables plus their epoch counters,
//!   hashed by `(kind, name, mhash)` so every instance of one collective
//!   lands on one shard and unrelated collectives proceed concurrently;
//! * **kvs shards** — committed local data, the remote-data cache, and
//!   in-flight/parked dmodex state, hashed by the owning [`ProcId`];
//! * a small **control plane** (subscriptions, live groups, invites,
//!   client registry) that is off every hot path.
//!
//! Each shard pairs its mutex with its own condvar, so a fence waking up
//! only disturbs waiters of collectives in the same shard. Correlation
//! tokens encode their kvs shard (`token % SERVER_SHARDS`) so reply
//! handlers route without any global lookup. The lock order is
//! `ops shard → { kvs shard, pgcid pool/waiting, dead (read) }` and
//! `ctl → dead (read)`; no two shards of the same kind are ever held
//! together, which rules out deadlock by construction.
//!
//! ## Batched PGCID allocation
//!
//! A group construct that needs a PGCID used to cost one RM round trip per
//! construct. The lead server now requests a *block* of
//! [`DEFAULT_PGCID_BLOCK`] consecutive ids (tunable through the
//! universe's `pmix.pgcid_block` cvar) and parks the surplus in a local pool;
//! subsequent constructs led by this server take a pooled id without any
//! RM traffic — no `pgcid.request` span, one `pgcid_pool_hits` tick. The
//! RM accounts every id of a block under `pgcid_allocated` at grant time,
//! so the accounting invariant (ids exposed ⊆ ids allocated) stays exact.

use crate::error::{PmixError, Result};
use crate::event::{Event, EventCode, EventStream, Subscription};
use crate::group::{GroupDirectives, GroupResult, InviteOutcome, InviteReport};
use crate::nspace::{NamespaceRegistry, PsetChange, PsetChangeKind};
use crate::types::ProcId;
use crate::value::{keys, PmixValue};
use crate::wire::{membership_hash, AbortReason, Contribution, OpId, OpKind, ServerMsg};
use parking_lot::{Condvar, Mutex, RwLock};
use simnet::{Endpoint, EndpointId, EndpointSender, NodeId, Waker};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of key-hashed shards the server's ops and KVS tables are split
/// into. Eight is plenty for the simulated node sizes while keeping the
/// per-shard memory overhead negligible.
pub const SERVER_SHARDS: usize = 8;

/// Default PGCID block size requested from the RM per round trip. One RM
/// RPC now serves this many group constructs led by the same server
/// (`count == 1` reproduces the paper's one-at-a-time behavior).
pub const DEFAULT_PGCID_BLOCK: u64 = 8;

/// Per-shard cap on retained collective epoch counters. Under sustained
/// session churn every distinct `(kind, name, mhash)` that ever ran a
/// collective would otherwise pin one counter forever. Once a shard holds
/// more keys than this, counters whose collective has no live op are
/// evicted in first-use order. An evicted key that later re-runs restarts
/// at epoch 0 — acceptable because a collision needs more than
/// `EPOCH_RETENTION_CAP` *distinct* collectives on one shard between the
/// two runs, far beyond any scenario's working set.
pub const EPOCH_RETENTION_CAP: usize = 1024;

/// Outcome of a completed collective, as handed back to local clients.
#[derive(Debug, Clone)]
pub struct CollOutcome {
    /// Union of all contributions' members, sorted, dead members removed.
    pub members: Vec<ProcId>,
    /// PGCID if one was requested.
    pub pgcid: Option<u64>,
    /// Context of the server's `group.fanout` span: clients link it so the
    /// release edge of the collective is visible in the span DAG.
    pub ctx: Option<obs::TraceContext>,
}

/// One participant's handle on an in-flight collective, returned by
/// [`PmixServer::coll_begin`]. The fan-in has already happened; the handle
/// tracks when *this* waiter observes the outcome. Exactly one of
/// [`PmixServer::coll_wait`] / a successful [`PmixServer::coll_poll`] /
/// [`PmixServer::coll_abandon`] must consume it, or the op-state entry
/// leaks until its epoch is evicted.
#[derive(Debug)]
pub struct PendingColl {
    op_id: OpId,
    si: usize,
    me: ProcId,
    deadline: Option<Instant>,
    directives: GroupDirectives,
    finished: bool,
}

impl PendingColl {
    /// True once this handle has delivered (or abandoned) its result.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

#[derive(Debug, Clone)]
struct GroupInfo {
    members: Vec<ProcId>,
    pgcid: Option<u64>,
    notify_on_termination: bool,
}

struct OpState {
    // Filled by the first *local* arrival; remote contributions can create
    // the op before any local participant enters.
    expected_local: Option<Vec<ProcId>>,
    // Full membership, known once a local participant arrives.
    membership: Vec<ProcId>,
    arrived_local: Vec<ProcId>,
    expected_servers: BTreeSet<NodeId>,
    contribs: HashMap<NodeId, Contribution>,
    need_pgcid: bool,
    error_on_early_termination: bool,
    notify_on_termination: bool,
    pgcid: Option<u64>,
    pending_pgcid: Option<u64>, // a CollPgcid that arrived before local fan-in
    pgcid_requested: bool,
    fanin_done: bool,
    epoch_bumped: bool,
    sent_contrib: bool,
    // Local kvs contributions gathered during fan-in (fence with data).
    local_kvs: Vec<(ProcId, HashMap<String, PmixValue>)>,
    result: Option<std::result::Result<CollOutcome, PmixError>>,
    observed: usize,
    // Local waiters that abandoned their pending handle before observing
    // the result (nonblocking enter dropped mid-flight). They will never
    // call back in, so reaping counts them alongside `observed`.
    abandoned: usize,
    // Stage spans (paper §III-A): fan-in is open from the first local
    // arrival to local completeness; exchange from then until every peer
    // contribution (and the PGCID) is in; fan-out is the release instant.
    fanin: Option<obs::Span>,
    xchg: Option<obs::Span>,
    // Piggybacked contexts of everything that gated completion (peer
    // contributions, the PGCID broadcast); linked into `xchg` when it ends.
    contrib_ctxs: Vec<obs::TraceContext>,
}

impl OpState {
    fn new() -> Self {
        Self {
            expected_local: None,
            membership: Vec::new(),
            arrived_local: Vec::new(),
            expected_servers: BTreeSet::new(),
            contribs: HashMap::new(),
            need_pgcid: false,
            error_on_early_termination: true,
            notify_on_termination: false,
            pgcid: None,
            pending_pgcid: None,
            pgcid_requested: false,
            fanin_done: false,
            epoch_bumped: false,
            sent_contrib: false,
            local_kvs: Vec::new(),
            result: None,
            observed: 0,
            abandoned: 0,
            fanin: None,
            xchg: None,
            contrib_ctxs: Vec::new(),
        }
    }
}

struct InviteState {
    initiator: ProcId,
    invited: Vec<ProcId>,
    responses: HashMap<ProcId, bool>,
    request_pgcid: bool,
}

/// Coalescing state for RM block requests. At most one `PgcidRequest` is
/// outstanding per server: constructs that hit an empty pool while one is
/// in flight queue here and are served from the same (or a follow-up)
/// block grant, so K overlapping constructions cost ~ceil(K/block) RM
/// round trips instead of K.
#[derive(Default)]
struct PgcidCtl {
    inflight: bool,
    backlog: VecDeque<OpId>,
}

/// One shard: its state plus a dedicated condvar so wakeups stay local.
struct Shard<T> {
    state: Mutex<T>,
    cv: Condvar,
}

impl<T> Shard<T> {
    fn new(t: T) -> Self {
        Self { state: Mutex::new(t), cv: Condvar::new() }
    }
}

/// Collective-op tables for one ops shard. The epoch counters live next to
/// the ops they disambiguate (same `(kind, name, mhash)` hash key).
#[derive(Default)]
struct OpsShard {
    ops: HashMap<OpId, OpState>,
    // Next epoch to assign to a locally-entered instance of each key.
    // Bounded to [`EPOCH_RETENTION_CAP`] entries; see `bound_epochs`.
    epochs: HashMap<(OpKind, String, u64), u64>,
    // Epoch keys in first-use order: the deterministic eviction queue.
    epoch_order: VecDeque<(OpKind, String, u64)>,
}

/// Key-value tables for one kvs shard, hashed by the owning process.
#[derive(Default)]
struct KvsShard {
    // Committed KV data of *local* clients.
    kvs_local: HashMap<ProcId, HashMap<String, PmixValue>>,
    // Data learned about remote processes (fence collection / dmodex).
    kvs_cache: HashMap<ProcId, HashMap<String, PmixValue>>,
    // In-flight fetches issued by local clients: token -> reply slot.
    dmodex_waiting: HashMap<u64, FetchSlot>,
    // Remote dmodex requests for keys not committed yet.
    dmodex_parked: Vec<(ProcId, String, EndpointId, u64)>,
}

/// Reply slot of one in-flight fetch. The requester's waker lives in the
/// slot, so every path that removes the slot also drops the waker.
#[derive(Default)]
struct FetchSlot {
    /// Owner process and key the fetch waits on (`None` for a scalar RM
    /// reply).
    awaits: Option<(ProcId, String)>,
    /// `Some` once terminal: the value, or `None` for "not found".
    reply: Option<Option<PmixValue>>,
    /// Wakes the requesting rank's progress wait (nonblocking tickets).
    waker: Option<Waker>,
}

impl FetchSlot {
    fn awaiting(proc: &ProcId, key: &str, waker: Option<Waker>) -> Self {
        Self { awaits: Some((proc.clone(), key.to_owned())), reply: None, waker }
    }

    /// Terminal transition: store the reply and wake the requester.
    fn complete(&mut self, reply: Option<PmixValue>) {
        self.reply = Some(reply);
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

/// Cold control-plane state (off every collective/KVS hot path).
#[derive(Default)]
struct CtlState {
    subs: Vec<(ProcId, Subscription)>,
    // Live groups with local members.
    groups: HashMap<String, GroupInfo>,
    // Asynchronous (invite/join) constructions initiated locally.
    invites: HashMap<String, InviteState>,
    local_clients: HashSet<ProcId>,
}

/// Per-shard completion/stage counters. Scoping them to
/// `server:{node}/s{k}` means the sharding refactor cannot silently
/// double-count: `sum_counters` still yields the per-server totals the
/// invariants assert, while per-shard values stay individually auditable.
struct ShardCounters {
    fence_completed: obs::Counter,
    group_construct_completed: obs::Counter,
    group_destruct_completed: obs::Counter,
    stage_fanin: obs::Counter,
    stage_xchg: obs::Counter,
    stage_fanout: obs::Counter,
    coll_aborted: obs::Counter,
    // Live KV pairs (local + cached) in this shard's tables; its high-water
    // mark is the per-shard memory footprint the soak harness reports.
    kvs_entries: obs::Gauge,
}

/// Per-server observability handles, resolved once at construction.
struct ServerMetrics {
    /// `(process, component)` scope for events/spans this server emits.
    /// Stage *counters* are per-shard (`server:{node}/s{k}`); events and
    /// spans keep the plain `server:{node}` scope the golden traces and
    /// invariant checkers key on.
    process: String,
    obs: Arc<obs::Registry>,
    rpc_handled: obs::Counter,
    rpc_ns: obs::Histogram,
    pgcid_allocated: obs::Counter,
    pgcid_pool_hits: obs::Counter,
    // Constructs whose PGCID need piggybacked on an already-in-flight RM
    // request instead of paying their own round trip.
    pgcid_coalesced: obs::Counter,
    // Nonblocking collective handles dropped before observing their result.
    coll_abandoned: obs::Counter,
    // Ids returned to the pool by a group destruct (lifecycle GC).
    pgcid_recycled: obs::Counter,
    // KV pairs dropped when their owning process was declared dead.
    kvs_purged: obs::Counter,
    // Epoch counters evicted by the retention bound.
    epochs_evicted: obs::Counter,
    // Current occupancy of the local PGCID pool (block surplus + recycled).
    pgcid_pool_len: obs::Gauge,
    shards: Vec<ShardCounters>,
}

impl ServerMetrics {
    fn new(obs: Arc<obs::Registry>, node: NodeId) -> Self {
        let process = format!("server:{}", node.0);
        let c = |name: &str| obs.counter(&process, "pmix", name);
        let rpc_ns = obs.histogram(&process, "pmix", "rpc_ns");
        let shards = (0..SERVER_SHARDS)
            .map(|k| {
                let sp = format!("server:{}/s{}", node.0, k);
                let sc = |name: &str| obs.counter(&sp, "pmix", name);
                ShardCounters {
                    fence_completed: sc("fence_completed"),
                    group_construct_completed: sc("group_construct_completed"),
                    group_destruct_completed: sc("group_destruct_completed"),
                    stage_fanin: sc("stage_fanin"),
                    stage_xchg: sc("stage_xchg"),
                    stage_fanout: sc("stage_fanout"),
                    coll_aborted: sc("coll_aborted"),
                    kvs_entries: obs.gauge(&sp, "pmix", "kvs_entries"),
                }
            })
            .collect();
        Self {
            rpc_handled: c("rpc_handled"),
            pgcid_allocated: c("pgcid_allocated"),
            pgcid_pool_hits: c("pgcid_pool_hits"),
            pgcid_coalesced: c("pgcid_coalesced"),
            coll_abandoned: c("coll_abandoned"),
            pgcid_recycled: c("pgcid_recycled"),
            kvs_purged: c("kvs_purged"),
            epochs_evicted: c("epochs_evicted"),
            pgcid_pool_len: obs.gauge(&process, "pmix", "pgcid_pool_len"),
            rpc_ns,
            shards,
            process,
            obs,
        }
    }

    fn shard(&self, si: usize) -> &ShardCounters {
        &self.shards[si]
    }

    fn stage_event(&self, stage: &str, op: &OpId, extra: Vec<(String, obs::AttrValue)>) {
        let mut attrs: Vec<(String, obs::AttrValue)> = vec![
            ("op".into(), op.name.as_str().into()),
            ("kind".into(), kind_str(op.kind).into()),
            // The epoch disambiguates re-runs of the same (kind, name,
            // membership) — invariant checkers key on (kind, name, epoch).
            ("epoch".into(), op.epoch.into()),
        ];
        attrs.extend(extra);
        self.obs.event(&self.process, stage, attrs);
    }
}

fn kind_str(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Fence => "fence",
        OpKind::GroupConstruct => "group_construct",
        OpKind::GroupDestruct => "group_destruct",
    }
}

/// Poll slice for logical-deadline waits: short enough to notice fabric
/// quiescence promptly, long enough not to busy-spin.
const LOGICAL_POLL: Duration = Duration::from_millis(2);
/// Consecutive quiet polls (no fabric activity, nothing in flight) required
/// after the wall budget elapses before a wait is declared expired.
const LOGICAL_GRACE: u32 = 3;
/// Safety valve: even a never-quiescent fabric cannot stretch a wait past
/// this multiple of the caller's budget.
const LOGICAL_HARD_CAP: u32 = 20;

/// A deadline in *logical* time.
///
/// Wall-clock deadlines inside the deterministic simnet world are a
/// determinism hazard: a chaos delay rule can hold a reply in the delivery
/// pump past the wall deadline on one run and under it on the next, so the
/// same seed yields different invite outcomes (and different traces). A
/// logical deadline expires only once (a) the caller's wall budget has
/// elapsed AND (b) the fabric has quiesced — zero messages in flight and no
/// send/delivery activity — for `LOGICAL_GRACE` consecutive polls. A
/// scheduled-but-delayed reply keeps `in_flight` nonzero, so injected
/// delays defer expiry instead of flipping the outcome.
///
/// Public because every layer that offers a timed wait over the simulated
/// fabric needs the same discipline — the MPI core's
/// `SetupRequest::wait_timeout` reuses this type for its stall-diagnosis
/// expiry.
pub struct LogicalDeadline {
    fabric: simnet::Fabric,
    start: Instant,
    budget: Duration,
    hard_cap: Duration,
    last_activity: u64,
    quiet: u32,
}

impl LogicalDeadline {
    /// Start a deadline of `budget` wall time over `fabric`.
    pub fn new(fabric: simnet::Fabric, budget: Duration) -> Self {
        let last_activity = fabric.activity();
        Self {
            fabric,
            start: Instant::now(),
            budget,
            hard_cap: budget.saturating_mul(LOGICAL_HARD_CAP),
            last_activity,
            quiet: 0,
        }
    }

    /// One poll; true once the deadline has logically expired.
    pub fn expired(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        if elapsed < self.budget {
            return false;
        }
        if elapsed >= self.hard_cap {
            return true;
        }
        let activity = self.fabric.activity();
        let quiet_now = activity == self.last_activity && self.fabric.in_flight() == 0;
        self.last_activity = activity;
        self.quiet = if quiet_now { self.quiet + 1 } else { 0 };
        self.quiet >= LOGICAL_GRACE
    }
}

/// Render a registry pset change as the event delivered to subscribers.
/// The change's causal context rides along (local delivery only), so a
/// rebuild triggered by the event can link the mutating `pset.update` span.
fn pset_change_event(change: &PsetChange) -> Event {
    let code = match change.kind {
        PsetChangeKind::Defined => EventCode::PsetDefined,
        PsetChangeKind::Membership => EventCode::PsetMembership,
        PsetChangeKind::Deleted => EventCode::PsetDeleted,
    };
    Event::new(code, None)
        .with(keys::PSET_NAME, change.name.as_str())
        .with(keys::PSET_EPOCH, change.epoch)
        .with(keys::PSET_MEMBERS, change.members.as_ref().clone())
        .with_ctx(change.ctx)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h.wrapping_mul(FNV_PRIME)
}

/// An in-flight nonblocking KVS fetch (see [`PmixServer::fetch_begin`]).
/// Drive with [`PmixServer::fetch_poll`] until it returns `Some`; between
/// polls, block on the receive of the endpoint whose waker the ticket got.
pub struct FetchTicket {
    proc: ProcId,
    key: String,
    /// KVS shard holding the reply slot / data tables for `proc`.
    shard: usize,
    mode: FetchMode,
}

impl FetchTicket {
    /// The process whose data this ticket is fetching.
    pub fn proc(&self) -> &ProcId {
        &self.proc
    }

    /// The key being fetched.
    pub fn key(&self) -> &str {
        &self.key
    }
}

enum FetchMode {
    /// Answered at begin time; `fetch_poll` hands the value out once.
    Resolved(Option<PmixValue>),
    /// Owner is a local client that has not committed yet; its commit
    /// fills the reply slot the token names.
    LocalWait { token: u64 },
    /// One dmodex round trip in flight; the token names the reply slot.
    Remote { token: u64 },
    /// Terminal: the result has been handed out (or the ticket cancelled).
    Done,
}

/// Per-shard occupancy snapshot of one server (see
/// [`PmixServer::shard_occupancy`]). Indexed `0..SERVER_SHARDS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerShardOccupancy {
    /// Live KV pairs per kvs shard (local commits + remote cache).
    pub kvs_entries: Vec<usize>,
    /// In-flight collective operations per ops shard.
    pub ops_live: Vec<usize>,
    /// Retained collective epoch counters per ops shard.
    pub epochs_retained: Vec<usize>,
}

/// A per-node PMIx server.
pub struct PmixServer {
    node: NodeId,
    registry: NamespaceRegistry,
    sender: EndpointSender,
    ops_shards: Vec<Shard<OpsShard>>,
    kvs_shards: Vec<Shard<KvsShard>>,
    ctl: Mutex<CtlState>,
    ctl_cv: Condvar,
    // Processes known dead. Read on every hot path, written once per
    // failure — a reader-writer lock keeps readers from serializing.
    dead: RwLock<HashSet<ProcId>>,
    // Correlation-token mint; tokens encode their kvs shard
    // (`token % SERVER_SHARDS`) so reply handlers route shard-locally.
    next_token: AtomicU64,
    // In-flight PGCID requests: token -> (op the reply belongs to, plus the
    // open `pgcid.request` span that times the RM round-trip).
    pgcid_waiting: Mutex<HashMap<u64, (OpId, Option<obs::Span>)>>,
    // Single-request coalescing: ops queued behind the in-flight RM trip.
    pgcid_ctl: Mutex<PgcidCtl>,
    // Locally pooled PGCIDs (surplus of RM block grants).
    pgcid_pool: Mutex<VecDeque<u64>>,
    // Block size requested from the RM per miss (>= 1); written by the
    // universe's `pmix.pgcid_block` cvar.
    pub(crate) pgcid_block: AtomicU64,
    // Resource-manager service: present only on the universe's lead server.
    rm_next_pgcid: Option<AtomicU64>,
    // Per-RPC processing cost (control-plane software overhead).
    rpc_processing: Duration,
    metrics: ServerMetrics,
}

impl PmixServer {
    /// Create a server bound to `endpoint` (whose mailbox must be drained by
    /// [`PmixServer::run_loop`]). `is_rm` marks the lead server hosting the
    /// resource-manager services; `rpc_processing` is the per-message RPC
    /// processing cost (see `simnet::CostModel::rpc_processing`).
    pub fn new(
        endpoint: &Endpoint,
        registry: NamespaceRegistry,
        is_rm: bool,
        rpc_processing: Duration,
    ) -> Arc<Self> {
        registry.register_server(endpoint.node(), endpoint.id());
        Arc::new(Self {
            node: endpoint.node(),
            registry,
            sender: endpoint.sender(),
            ops_shards: (0..SERVER_SHARDS).map(|_| Shard::new(OpsShard::default())).collect(),
            kvs_shards: (0..SERVER_SHARDS).map(|_| Shard::new(KvsShard::default())).collect(),
            ctl: Mutex::new(CtlState::default()),
            ctl_cv: Condvar::new(),
            dead: RwLock::new(HashSet::new()),
            next_token: AtomicU64::new(1),
            pgcid_waiting: Mutex::new(HashMap::new()),
            pgcid_ctl: Mutex::new(PgcidCtl::default()),
            pgcid_pool: Mutex::new(VecDeque::new()),
            pgcid_block: AtomicU64::new(DEFAULT_PGCID_BLOCK),
            rm_next_pgcid: is_rm.then(|| AtomicU64::new(1)),
            rpc_processing,
            metrics: ServerMetrics::new(endpoint.obs(), endpoint.node()),
        })
    }

    /// How many PGCIDs this server requests from the RM per pool miss
    /// (the universe's `pmix.pgcid_block` cvar). `1` reproduces the
    /// paper's one-round-trip-per-construct behavior; larger values
    /// amortize the RM RPC across future constructs led by this server.
    pub fn pgcid_block(&self) -> u64 {
        self.pgcid_block.load(Ordering::Relaxed)
    }

    /// PGCIDs currently parked in the local pool.
    pub fn pgcid_pool_len(&self) -> usize {
        self.pgcid_pool.lock().len()
    }

    /// Deterministic occupancy snapshot of this server's sharded state,
    /// for the introspection flight recorder: per-shard live KV-pair
    /// counts, per-shard in-flight collective-op counts, and per-shard
    /// retained epoch-counter counts (bounded by [`EPOCH_RETENTION_CAP`]).
    pub fn shard_occupancy(&self) -> ServerShardOccupancy {
        let mut kvs_entries = Vec::with_capacity(SERVER_SHARDS);
        for shard in &self.kvs_shards {
            let ks = shard.state.lock();
            kvs_entries.push(
                ks.kvs_local.values().map(|m| m.len()).sum::<usize>()
                    + ks.kvs_cache.values().map(|m| m.len()).sum::<usize>(),
            );
        }
        let mut ops_live = Vec::with_capacity(SERVER_SHARDS);
        let mut epochs_retained = Vec::with_capacity(SERVER_SHARDS);
        for shard in &self.ops_shards {
            let os = shard.state.lock();
            ops_live.push(os.ops.len());
            epochs_retained.push(os.epochs.len());
        }
        ServerShardOccupancy { kvs_entries, ops_live, epochs_retained }
    }

    /// The node this server manages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This server's fabric endpoint id.
    pub fn endpoint_id(&self) -> EndpointId {
        self.sender.id()
    }

    /// The shared namespace registry.
    pub fn registry(&self) -> &NamespaceRegistry {
        &self.registry
    }

    /// The observability registry this server records into.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.metrics.obs.clone()
    }

    /// Drain `endpoint` until it is killed; must run on a dedicated thread.
    pub fn run_loop(self: &Arc<Self>, endpoint: &Endpoint) {
        while let Ok(env) = endpoint.recv() {
            if let Some(msg) = ServerMsg::decode(&env.payload) {
                // Control-plane software overhead: the server's event loop
                // processes one RPC at a time, each costing real work in
                // the reference implementation.
                let t0 = Instant::now();
                if !self.rpc_processing.is_zero() {
                    std::thread::sleep(self.rpc_processing);
                }
                self.handle_ctx(msg, env.ctx);
                self.metrics.rpc_handled.inc();
                self.metrics.rpc_ns.record(t0.elapsed());
            }
        }
    }

    // ---------------------------------------------------------------
    // Shard routing
    // ---------------------------------------------------------------

    /// Ops shard of a collective: every epoch of one `(kind, name, mhash)`
    /// lands on the same shard, so its epoch counter lives there too.
    fn ops_shard_of(kind: OpKind, name: &str, mhash: u64) -> usize {
        let k = match kind {
            OpKind::Fence => 1u64,
            OpKind::GroupConstruct => 2,
            OpKind::GroupDestruct => 3,
        };
        let mut h = fnv_u64(FNV_OFFSET, k);
        h = fnv_bytes(h, name.as_bytes());
        h = fnv_u64(h, mhash);
        (h % SERVER_SHARDS as u64) as usize
    }

    /// Kvs shard of a process (owner of the data being read or written).
    fn kvs_shard_of(proc: &ProcId) -> usize {
        let mut h = fnv_bytes(FNV_OFFSET, proc.nspace().as_bytes());
        h = fnv_u64(h, proc.rank() as u64);
        (h % SERVER_SHARDS as u64) as usize
    }

    /// Mint a correlation token that routes replies to kvs shard `shard`.
    fn mint_token(&self, shard: usize) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed) * SERVER_SHARDS as u64 + shard as u64
    }

    // ---------------------------------------------------------------
    // Resource-lifecycle bookkeeping
    // ---------------------------------------------------------------

    /// Publish the PGCID pool's occupancy; call after every pool mutation.
    fn publish_pool_gauge(&self, len: usize) {
        self.metrics.pgcid_pool_len.set(len as i64);
    }

    /// Publish shard `ki`'s live KV-pair count; call (under the shard lock)
    /// after every mutation of its tables.
    fn publish_kvs_gauge(&self, ki: usize, ks: &KvsShard) {
        let n = ks.kvs_local.values().map(|m| m.len()).sum::<usize>()
            + ks.kvs_cache.values().map(|m| m.len()).sum::<usize>();
        self.metrics.shard(ki).kvs_entries.set(n as i64);
    }

    /// Advance the epoch counter for `key`, then enforce the retention
    /// bound. New keys join the deterministic first-use eviction queue.
    fn bump_epoch(&self, st: &mut OpsShard, key: (OpKind, String, u64)) {
        if !st.epochs.contains_key(&key) {
            st.epoch_order.push_back(key.clone());
        }
        *st.epochs.entry(key).or_insert(0) += 1;
        self.bound_epochs(st);
    }

    /// Evict epoch counters past [`EPOCH_RETENTION_CAP`], oldest first-use
    /// first, skipping keys whose collective still has a live op (their
    /// counter is what disambiguates the in-flight instance).
    fn bound_epochs(&self, st: &mut OpsShard) {
        let mut scan = st.epoch_order.len();
        while st.epochs.len() > EPOCH_RETENTION_CAP && scan > 0 {
            scan -= 1;
            let Some(key) = st.epoch_order.pop_front() else { break };
            let live = st
                .ops
                .keys()
                .any(|o| o.kind == key.0 && o.name == key.1 && o.mhash == key.2);
            if live {
                st.epoch_order.push_back(key);
            } else {
                st.epochs.remove(&key);
                self.metrics.epochs_evicted.inc();
            }
        }
    }

    // ---------------------------------------------------------------
    // Local client entry points (the "shared-memory RPC" surface)
    // ---------------------------------------------------------------

    /// Register a local client.
    pub fn attach_client(&self, proc: &ProcId) {
        self.ctl.lock().local_clients.insert(proc.clone());
    }

    /// Deregister a local client (normal finalize — not a failure).
    pub fn detach_client(&self, proc: &ProcId) {
        let mut st = self.ctl.lock();
        st.local_clients.remove(proc);
        st.subs.retain(|(p, _)| p != proc);
    }

    /// Commit key-value data for a local client, waking any parked dmodex
    /// requests, local getters and local fetch tickets.
    pub fn commit_kvs(&self, proc: &ProcId, data: HashMap<String, PmixValue>) {
        let kshard = &self.kvs_shards[Self::kvs_shard_of(proc)];
        let mut ks = kshard.state.lock();
        ks.kvs_local.entry(proc.clone()).or_default().extend(data);
        // Serve parked remote fetches that are now satisfiable. Parked
        // entries live in the owner's shard, so this drain sees them all.
        let mut served = Vec::new();
        let mut still_parked = Vec::new();
        let parked = std::mem::take(&mut ks.dmodex_parked);
        for (p, key, reply_to, token) in parked {
            let val = ks.kvs_local.get(&p).and_then(|m| m.get(&key)).cloned();
            match val {
                Some(v) => served.push((reply_to, token, v)),
                None => still_parked.push((p, key, reply_to, token)),
            }
        }
        ks.dmodex_parked = still_parked;
        // Complete local tickets waiting for this owner to publish.
        let KvsShard { kvs_local, dmodex_waiting, .. } = &mut *ks;
        let committed = &kvs_local[proc];
        for slot in dmodex_waiting.values_mut() {
            let value = match &slot.awaits {
                Some((p, key)) if p == proc && slot.reply.is_none() => committed.get(key).cloned(),
                _ => None,
            };
            if let Some(v) = value {
                slot.complete(Some(v));
            }
        }
        self.publish_kvs_gauge(Self::kvs_shard_of(proc), &ks);
        drop(ks);
        for (reply_to, token, v) in served {
            let _ = self
                .sender
                .send(reply_to, ServerMsg::DmodexReply { token, value: Some(v) }.encode());
        }
        kshard.cv.notify_all();
    }

    /// Fetch `key` of `proc`: from local/cached data if available, else via
    /// direct modex from the owning server, waiting up to `timeout`.
    pub fn fetch(&self, proc: &ProcId, key: &str, timeout: Duration) -> Result<PmixValue> {
        let deadline = Instant::now() + timeout;
        let entry = self.registry.locate(proc)?;
        let local = entry.node == self.node;
        let ki = Self::kvs_shard_of(proc);
        let kshard = &self.kvs_shards[ki];
        let mut ks = kshard.state.lock();
        loop {
            let found = ks
                .kvs_local
                .get(proc)
                .and_then(|m| m.get(key))
                .or_else(|| ks.kvs_cache.get(proc).and_then(|m| m.get(key)))
                .cloned();
            if let Some(v) = found {
                return Ok(v);
            }
            if local {
                // Owner is here but has not committed yet: wait for commit.
                if kshard.cv.wait_until(&mut ks, deadline).timed_out() {
                    return Err(PmixError::Timeout);
                }
                continue;
            }
            // Remote: issue (or re-check) a dmodex fetch. The token routes
            // the reply back to this shard.
            let token = self.mint_token(ki);
            ks.dmodex_waiting.insert(token, FetchSlot::awaiting(proc, key, None));
            let owner = self
                .registry
                .server_of(entry.node)
                .ok_or(PmixError::Unreachable)?;
            drop(ks);
            let msg = ServerMsg::DmodexReq {
                reply_to: self.sender.id(),
                token,
                proc: proc.clone(),
                key: key.to_owned(),
            };
            self.sender
                .send(owner, msg.encode())
                .map_err(|_| PmixError::Unreachable)?;
            ks = kshard.state.lock();
            loop {
                if let Some(slot) = ks.dmodex_waiting.get(&token) {
                    if let Some(reply) = slot.reply.clone() {
                        ks.dmodex_waiting.remove(&token);
                        return match reply {
                            Some(v) => {
                                ks.kvs_cache
                                    .entry(proc.clone())
                                    .or_default()
                                    .insert(key.to_owned(), v.clone());
                                self.publish_kvs_gauge(ki, &ks);
                                Ok(v)
                            }
                            None => Err(PmixError::NotFound(format!("{proc}/{key}"))),
                        };
                    }
                }
                if kshard.cv.wait_until(&mut ks, deadline).timed_out() {
                    ks.dmodex_waiting.remove(&token);
                    return Err(PmixError::Timeout);
                }
            }
        }
    }

    /// Begin a nonblocking fetch of `key` from `proc`'s business-card data:
    /// the ticket-based twin of [`PmixServer::fetch`] for callers that must
    /// not park a thread (the lazy-init peer resolver drives these from the
    /// PML progress loop). Resolution order mirrors `fetch`:
    ///
    /// * the owner must still be registered — a retired/deregistered peer
    ///   yields `NotFound` immediately, never a stale cached card;
    /// * a peer already known dead yields `ProcTerminated`;
    /// * locally-committed or cached data resolves the ticket at begin time;
    /// * a local-but-uncommitted owner produces a ticket that waits for the
    ///   owner's `commit_kvs` (wait-for-publish semantics);
    /// * a remote owner issues one dmodex round trip whose reply lands in
    ///   the ticket's shard slot.
    ///
    /// A pending ticket's slot holds `waker`, woken on every terminal
    /// transition: the owner's commit, the dmodex reply, and the owner's
    /// death or retirement. The requester blocks in its own receive and
    /// polls once woken.
    pub fn fetch_begin(&self, proc: &ProcId, key: &str, waker: Waker) -> Result<FetchTicket> {
        let ki = Self::kvs_shard_of(proc);
        let ticket =
            |mode| FetchTicket { proc: proc.clone(), key: key.to_owned(), shard: ki, mode };
        let mut ks = self.kvs_shards[ki].state.lock();
        // Both checks run under the shard lock: a death or retirement
        // landing after them purges this shard only after the slot below
        // exists, so its wake is never lost.
        let entry = self.registry.locate(proc)?;
        if self.dead.read().contains(proc) {
            return Err(PmixError::ProcTerminated(proc.clone()));
        }
        let found = ks
            .kvs_local
            .get(proc)
            .and_then(|m| m.get(key))
            .or_else(|| ks.kvs_cache.get(proc).and_then(|m| m.get(key)))
            .cloned();
        if let Some(v) = found {
            return Ok(ticket(FetchMode::Resolved(Some(v))));
        }
        let owner = if entry.node == self.node {
            None
        } else {
            Some(self.registry.server_of(entry.node).ok_or(PmixError::Unreachable)?)
        };
        let token = self.mint_token(ki);
        ks.dmodex_waiting.insert(token, FetchSlot::awaiting(proc, key, Some(waker)));
        drop(ks);
        let Some(owner) = owner else {
            return Ok(ticket(FetchMode::LocalWait { token }));
        };
        let msg = ServerMsg::DmodexReq {
            reply_to: self.sender.id(),
            token,
            proc: proc.clone(),
            key: key.to_owned(),
        };
        self.sender.send(owner, msg.encode()).map_err(|_| {
            self.kvs_shards[ki].state.lock().dmodex_waiting.remove(&token);
            PmixError::Unreachable
        })?;
        Ok(ticket(FetchMode::Remote { token }))
    }

    /// Poll a ticket from [`PmixServer::fetch_begin`]: `None` while the
    /// publish/dmodex is still outstanding, `Some(result)` exactly once at
    /// the terminal state. A peer that dies or is deregistered mid-flight
    /// terminates the ticket with the matching typed error — a lazy get
    /// never silently degrades to a stale answer.
    pub fn fetch_poll(&self, ticket: &mut FetchTicket) -> Option<Result<PmixValue>> {
        let (token, remote) = match &mut ticket.mode {
            FetchMode::Resolved(slot) => return slot.take().map(Ok),
            FetchMode::Done => return None,
            FetchMode::LocalWait { token } => (*token, false),
            FetchMode::Remote { token } => (*token, true),
        };
        if self.dead.read().contains(&ticket.proc) {
            self.fetch_cancel(ticket);
            return Some(Err(PmixError::ProcTerminated(ticket.proc.clone())));
        }
        if let Err(e) = self.registry.locate(&ticket.proc) {
            self.fetch_cancel(ticket);
            return Some(Err(e));
        }
        let mut ks = self.kvs_shards[ticket.shard].state.lock();
        if ks.dmodex_waiting.get(&token).is_some_and(|slot| slot.reply.is_none()) {
            return None;
        }
        // Only the ticket removes its slot, so a missing one cannot happen
        // here; read it as "not found" rather than panic.
        let reply = ks.dmodex_waiting.remove(&token).and_then(|slot| slot.reply).flatten();
        ticket.mode = FetchMode::Done;
        match reply {
            Some(v) => {
                if remote {
                    ks.kvs_cache
                        .entry(ticket.proc.clone())
                        .or_default()
                        .insert(ticket.key.clone(), v.clone());
                    self.publish_kvs_gauge(ticket.shard, &ks);
                }
                Some(Ok(v))
            }
            None => Some(Err(PmixError::NotFound(format!("{}/{}", ticket.proc, ticket.key)))),
        }
    }

    /// Abandon an in-flight ticket, releasing its reply slot (a late
    /// dmodex reply for a removed token is ignored by the handler).
    pub fn fetch_cancel(&self, ticket: &mut FetchTicket) {
        if let FetchMode::LocalWait { token } | FetchMode::Remote { token } = ticket.mode {
            self.kvs_shards[ticket.shard].state.lock().dmodex_waiting.remove(&token);
        }
        ticket.mode = FetchMode::Done;
    }

    /// Drop every business card of `proc` — committed data, remote cache
    /// entries, parked dmodex fetches and local tickets waiting on it (all
    /// answered "not found" rather than left to time out) — without
    /// declaring the process dead. This is the
    /// graceful-retirement twin of the purge inside
    /// [`PmixServer::on_proc_failed`]: `retire_ranks` produces no failure
    /// event, so without this call a retired rank's card would sit in the
    /// KVS forever and a lazy get could resolve it to a stale endpoint.
    pub fn purge_kvs_for(&self, proc: &ProcId) {
        let ki = Self::kvs_shard_of(proc);
        let kshard = &self.kvs_shards[ki];
        let mut ks = kshard.state.lock();
        let purged = ks.kvs_local.remove(proc).map(|m| m.len()).unwrap_or(0)
            + ks.kvs_cache.remove(proc).map(|m| m.len()).unwrap_or(0);
        let parked = std::mem::take(&mut ks.dmodex_parked);
        let (gone_parked, live_parked): (Vec<_>, Vec<_>) =
            parked.into_iter().partition(|(p, ..)| p == proc);
        ks.dmodex_parked = live_parked;
        // Local tickets waiting on `proc` end too: their poll reports the
        // typed verdict (dead: `ProcTerminated`, retired: `NotFound`).
        for slot in ks.dmodex_waiting.values_mut() {
            if matches!(&slot.awaits, Some((p, _)) if p == proc) && slot.reply.is_none() {
                slot.complete(None);
            }
        }
        self.publish_kvs_gauge(ki, &ks);
        drop(ks);
        if purged > 0 {
            self.metrics.kvs_purged.add(purged as u64);
        }
        for (_, _, reply_to, token) in gone_parked {
            let _ = self
                .sender
                .send(reply_to, ServerMsg::DmodexReply { token, value: None }.encode());
        }
        kshard.cv.notify_all();
    }

    /// Snapshot of everything a local client has committed so far.
    pub fn local_committed(&self, proc: &ProcId) -> Option<HashMap<String, PmixValue>> {
        self.kvs_shards[Self::kvs_shard_of(proc)].state.lock().kvs_local.get(proc).cloned()
    }

    /// Subscribe a local client to events.
    pub fn subscribe(&self, proc: &ProcId, codes: Option<Vec<EventCode>>) -> EventStream {
        let (sub, stream) = EventStream::pair(codes);
        self.ctl.lock().subs.push((proc.clone(), sub));
        stream
    }

    /// Subscribe a local client to pset change events, with replay: the
    /// registry's current table is rendered as synthetic `PsetDefined` /
    /// `PsetDeleted` events (at their real epochs) into the stream before
    /// the subscription goes live. Replay and registration both happen
    /// under the registry's emission lock, and live deliveries
    /// ([`PmixServer::handle_pset_change`]) hold the same lock — so a late
    /// subscriber sees every change exactly once, mirroring the
    /// `watch_failures` idiom in simnet.
    pub fn subscribe_psets(&self, proc: &ProcId) -> EventStream {
        let codes =
            vec![EventCode::PsetDefined, EventCode::PsetMembership, EventCode::PsetDeleted];
        self.registry.with_pset_replay(|replay| {
            let (sub, stream) = EventStream::pair(Some(codes));
            for change in replay {
                let _ = sub.tx.send(pset_change_event(change));
            }
            self.ctl.lock().subs.push((proc.clone(), sub));
            stream
        })
    }

    /// Deliver one pset change to this server's matching subscribers.
    /// Called by the universe's registry listener, synchronously, under the
    /// registry emission lock (see [`PmixServer::subscribe_psets`]).
    pub fn handle_pset_change(&self, change: &PsetChange) {
        let event = pset_change_event(change);
        let st = self.ctl.lock();
        for (_, sub) in &st.subs {
            if sub.matches(event.code) {
                let _ = sub.tx.send(event.clone());
            }
        }
    }

    /// Enter a collective operation (stage 1: local fan-in).
    ///
    /// * `members` — the full, caller-supplied membership (will be sorted).
    /// * `kvs` — this participant's data contribution (fence with collect).
    ///
    /// Blocks until the collective completes, fails or times out.
    pub fn coll_enter(
        &self,
        kind: OpKind,
        name: &str,
        members: &[ProcId],
        directives: &GroupDirectives,
        me: &ProcId,
        kvs: HashMap<String, PmixValue>,
    ) -> Result<CollOutcome> {
        let pending = self.coll_begin(kind, name, members, directives, me, kvs)?;
        self.coll_wait(pending)
    }

    /// Nonblocking collective entry: run the local fan-in and return a
    /// pollable handle instead of parking the thread. Completion is driven
    /// by the message loop exactly as for the blocking path; the handle
    /// merely decides *when this participant observes* the result —
    /// [`PmixServer::coll_poll`] to test, [`PmixServer::coll_wait`] to
    /// block, [`PmixServer::coll_abandon`] to walk away.
    pub fn coll_begin(
        &self,
        kind: OpKind,
        name: &str,
        members: &[ProcId],
        directives: &GroupDirectives,
        me: &ProcId,
        kvs: HashMap<String, PmixValue>,
    ) -> Result<PendingColl> {
        if members.is_empty() {
            return Err(PmixError::BadParam("empty membership".into()));
        }
        let mut sorted: Vec<ProcId> = members.to_vec();
        sorted.sort();
        sorted.dedup();
        if !sorted.contains(me) {
            return Err(PmixError::NotMember);
        }
        let mhash = membership_hash(&sorted);
        let key = (kind, name.to_owned(), mhash);

        // Resolve the participating servers and this server's local slice.
        let mut servers = BTreeSet::new();
        let mut locals = Vec::new();
        for m in &sorted {
            let e = self.registry.locate(m)?;
            servers.insert(e.node);
            if e.node == self.node {
                locals.push(m.clone());
            }
        }

        let deadline = directives.timeout.map(|t| Instant::now() + t);
        // coll_enter is a direct method call: we are still on the client's
        // thread, so its operation span (if entered) is the causal parent
        // of this server's fan-in.
        let caller_ctx = obs::trace::current_context();

        let si = Self::ops_shard_of(kind, name, mhash);
        let shard = &self.ops_shards[si];
        let mut st = shard.state.lock();
        let epoch = *st.epochs.get(&key).unwrap_or(&0);
        let op_id = OpId { kind, name: name.to_owned(), mhash, epoch };
        // Participants may already be dead (failure observed earlier). The
        // scan covers the *full* membership, not just this server's locals:
        // a dead member homed on a remote node would otherwise stall the
        // fan-in here forever — its own server gets no local arrival to
        // detect the death against, and the failure sweep ran before this
        // op existed. The failure bridge replicates the dead set to every
        // server synchronously before any pset event fires, so each server
        // reaches the same verdict at its own first arrival.
        let dead_members: Vec<ProcId> = {
            let dead = self.dead.read();
            sorted.iter().filter(|p| dead.contains(*p)).cloned().collect()
        };
        let op = st.ops.entry(op_id.clone()).or_insert_with(OpState::new);
        if op.expected_local.is_none() {
            // First local arrival opens the fan-in stage span. The span is
            // parentless — it adopts the trace of the first arriving client
            // it links, so server work joins the job's trace.
            op.fanin = Some(self.metrics.obs.span_with_parent(
                &self.metrics.process,
                "group.fanin",
                &op_id.to_string(),
                None,
            ));
            op.expected_local = Some(locals.clone());
            op.membership = sorted.clone();
            op.expected_servers = servers.clone();
            op.need_pgcid = kind == OpKind::GroupConstruct && directives.request_pgcid;
            op.error_on_early_termination = directives.error_on_early_termination;
            op.notify_on_termination = directives.notify_on_termination;
            if let Some(p) = op.pending_pgcid.take() {
                op.pgcid = Some(p);
            }
            for d in dead_members {
                if op.error_on_early_termination {
                    op.result = Some(Err(PmixError::ProcTerminated(d)));
                } else if let Some(exp) = op.expected_local.as_mut() {
                    // Tolerant ops (fences) just stop expecting the dead
                    // local; a remote dead member is its own server's
                    // problem and a no-op here.
                    exp.retain(|p| p != &d);
                }
            }
        }
        if op.result.is_none() {
            if op.arrived_local.contains(me) {
                return Err(PmixError::BadParam(format!("{me} entered {op_id} twice")));
            }
            op.arrived_local.push(me.clone());
            if let Some(fanin) = op.fanin.as_mut() {
                if let Some(ctx) = caller_ctx {
                    fanin.link(ctx);
                }
                fanin.add_work(1);
            }
            if !kvs.is_empty() {
                op.local_kvs.push((me.clone(), kvs));
            }
        }
        self.advance_op(&mut st, si, &op_id);
        drop(st);
        self.try_complete(&op_id);
        Ok(PendingColl {
            op_id,
            si,
            me: me.clone(),
            deadline,
            directives: directives.clone(),
            finished: false,
        })
    }

    /// Test an in-flight collective. `Some(result)` exactly once when this
    /// participant's observation of the outcome happens; `None` while still
    /// in flight. The poll is also the timeout clock for nonblocking
    /// callers: a poll past the deadline aborts the collective everywhere
    /// (the failure surfaces on the next poll, once the Err result posts).
    pub fn coll_poll(&self, pc: &mut PendingColl) -> Option<Result<CollOutcome>> {
        if pc.finished {
            return Some(Err(PmixError::BadParam(format!(
                "{} polled a finished collective {}",
                pc.me, pc.op_id
            ))));
        }
        let shard = &self.ops_shards[pc.si];
        let mut st = shard.state.lock();
        let Some(op) = st.ops.get(&pc.op_id) else {
            // The op completed and was reaped without counting us as a
            // live waiter: this process was declared dead while the
            // collective was in flight (a live waiter is always part of
            // the expected count, so the op cannot be reaped under it).
            pc.finished = true;
            return Some(Err(PmixError::ProcTerminated(pc.me.clone())));
        };
        if op.result.is_some() {
            let res = self.observe_result_locked(&mut st, &pc.op_id);
            drop(st);
            pc.finished = true;
            if let Ok(out) = &res {
                self.finish_group_bookkeeping(pc.op_id.kind, &pc.op_id.name, out, &pc.directives);
            }
            return Some(res);
        }
        if pc.deadline.map(|d| Instant::now() >= d).unwrap_or(false) {
            // Abort the collective everywhere; next poll observes the Err.
            self.fail_op_locked(&mut st, pc.si, &pc.op_id, AbortReason::Timeout);
            let peers = st
                .ops
                .get(&pc.op_id)
                .map(|o| o.expected_servers.clone())
                .unwrap_or_default();
            drop(st);
            self.broadcast(&peers, &ServerMsg::CollAbort {
                op: pc.op_id.clone(),
                reason: AbortReason::Timeout,
            });
        }
        None
    }

    /// Block until an in-flight collective completes, fails or times out
    /// (the blocking [`PmixServer::coll_enter`] is exactly `coll_begin` +
    /// this).
    pub fn coll_wait(&self, mut pc: PendingColl) -> Result<CollOutcome> {
        let shard = &self.ops_shards[pc.si];
        loop {
            if let Some(res) = self.coll_poll(&mut pc) {
                return res;
            }
            let mut st = shard.state.lock();
            // Re-check under the lock so a completion between the poll and
            // the wait cannot become a lost wakeup.
            let in_flight =
                st.ops.get(&pc.op_id).map(|o| o.result.is_none()).unwrap_or(false);
            if in_flight {
                match pc.deadline {
                    Some(d) => {
                        let _ = shard.cv.wait_until(&mut st, d);
                    }
                    None => shard.cv.wait(&mut st),
                }
            }
        }
    }

    /// Block until an in-flight collective is *ready to observe* (or
    /// `limit` elapses) without observing it: the setup engine's blocking
    /// wrappers park here between polls, so an i-variant followed by
    /// `wait()` costs a condvar wake — not a poll-spin — exactly like the
    /// native blocking call.
    pub fn coll_park(&self, pc: &PendingColl, limit: Duration) {
        if pc.finished {
            return;
        }
        let shard = &self.ops_shards[pc.si];
        let mut st = shard.state.lock();
        let ready = st
            .ops
            .get(&pc.op_id)
            .map(|o| o.result.is_some())
            .unwrap_or(true);
        if ready {
            return;
        }
        let cap = Instant::now() + limit;
        let until = pc.deadline.map(|d| d.min(cap)).unwrap_or(cap);
        let _ = shard.cv.wait_until(&mut st, until);
    }

    /// Walk away from an in-flight collective without observing its result.
    /// The op itself still completes (or fails) server-side — abandonment
    /// only transfers this participant's observation duty so the op state
    /// can be reaped once everyone else has seen the outcome.
    pub fn coll_abandon(&self, pc: &mut PendingColl) {
        if pc.finished {
            return;
        }
        pc.finished = true;
        self.metrics.coll_abandoned.inc();
        let shard = &self.ops_shards[pc.si];
        let mut st = shard.state.lock();
        if !st.ops.contains_key(&pc.op_id) {
            return;
        }
        if st.ops.get(&pc.op_id).map(|o| o.result.is_some()).unwrap_or(false) {
            // Result already posted: consume our observation (dropping the
            // outcome) so the last live waiter can still reap the op.
            let _ = self.observe_result_locked(&mut st, &pc.op_id);
        } else {
            let op = st.ops.get_mut(&pc.op_id).expect("present");
            op.abandoned += 1;
        }
    }

    /// Consume one waiter's observation of a finished op, reaping the op
    /// entry (and bumping its epoch, when fan-in never did) once every
    /// live expected local has either observed or abandoned.
    fn observe_result_locked(
        &self,
        st: &mut OpsShard,
        op_id: &OpId,
    ) -> std::result::Result<CollOutcome, PmixError> {
        let remove = {
            // Dead participants never come back to observe the result;
            // count only live expected locals.
            let dead = self.dead.read();
            let op = st.ops.get_mut(op_id).expect("present");
            op.observed += 1;
            let expected = op
                .expected_local
                .as_ref()
                .map(|e| e.iter().filter(|p| !dead.contains(*p)).count())
                .unwrap_or(0);
            op.observed + op.abandoned >= expected
        };
        let res = st.ops.get(op_id).and_then(|o| o.result.clone()).expect("result present");
        if remove {
            let op = st.ops.remove(op_id).expect("present");
            if !op.epoch_bumped {
                self.bump_epoch(st, (op_id.kind, op_id.name.clone(), op_id.mhash));
            }
        }
        res
    }

    /// Reap an op whose result has posted but whose remaining waiters all
    /// abandoned — nobody is left to call `observe_result_locked`. A no-op
    /// for ops with zero abandoners (the last live waiter reaps those,
    /// exactly as before nonblocking entry existed).
    fn reap_if_fully_abandoned(&self, st: &mut OpsShard, op_id: &OpId) {
        let remove = {
            let dead = self.dead.read();
            let Some(op) = st.ops.get(op_id) else { return };
            if op.result.is_none() || op.abandoned == 0 {
                return;
            }
            let expected = op
                .expected_local
                .as_ref()
                .map(|e| e.iter().filter(|p| !dead.contains(*p)).count())
                .unwrap_or(0);
            op.observed + op.abandoned >= expected
        };
        if remove {
            let op = st.ops.remove(op_id).expect("present");
            if !op.epoch_bumped {
                self.bump_epoch(st, (op_id.kind, op_id.name.clone(), op_id.mhash));
            }
        }
    }

    fn finish_group_bookkeeping(
        &self,
        kind: OpKind,
        name: &str,
        out: &CollOutcome,
        directives: &GroupDirectives,
    ) {
        match kind {
            OpKind::GroupConstruct => {
                self.ctl.lock().groups.insert(
                    name.to_owned(),
                    GroupInfo {
                        members: out.members.clone(),
                        pgcid: out.pgcid,
                        notify_on_termination: directives.notify_on_termination,
                    },
                );
            }
            OpKind::GroupDestruct => {
                // The first local completer does this server's bookkeeping
                // (`remove` is idempotent across the other completers).
                let info = self.ctl.lock().groups.remove(name);
                let Some(info) = info else { return };
                self.maybe_recycle_pgcid(&info, out);
            }
            OpKind::Fence => {}
        }
    }

    /// Lifecycle GC: a destructed group's PGCID is safe to hand to a future
    /// construct once no communicator can still be derived from it (the
    /// client layer guarantees that by running the destruct only when the
    /// last communicator of the family is freed). Exactly one server — the
    /// lead participant, lowest node among the destruct's surviving members
    /// — returns the id to its local pool, the same pool RM block grants
    /// feed, so the next construct led here reuses it without RM traffic.
    ///
    /// Skipped entirely when any construct-time member has been declared
    /// dead: per-server dead sets can briefly diverge during a failure, and
    /// leaking one id is always safe while recycling it twice (two live
    /// groups sharing a PGCID) never is.
    fn maybe_recycle_pgcid(&self, info: &GroupInfo, out: &CollOutcome) {
        let Some(pgcid) = info.pgcid else { return };
        {
            let dead = self.dead.read();
            if info.members.iter().any(|m| dead.contains(m)) {
                return;
            }
        }
        let lead = out
            .members
            .iter()
            .filter_map(|m| self.registry.locate(m).ok().map(|e| e.node))
            .min();
        if lead != Some(self.node) {
            return;
        }
        let len = {
            let mut pool = self.pgcid_pool.lock();
            pool.push_back(pgcid);
            pool.len()
        };
        self.publish_pool_gauge(len);
        self.metrics.pgcid_recycled.inc();
        self.metrics.obs.event(
            &self.metrics.process,
            "pgcid.recycled",
            vec![("pgcid".into(), pgcid.into())],
        );
    }

    /// Stage-2 trigger: if the local fan-in just completed, record our own
    /// contribution and ship it to the other participating servers.
    fn advance_op(&self, st: &mut OpsShard, si: usize, op_id: &OpId) {
        let Some(op) = st.ops.get_mut(op_id) else { return };
        if op.result.is_some() || op.sent_contrib {
            return;
        }
        let Some(expected) = op.expected_local.as_ref() else { return };
        if op.arrived_local.len() < expected.len() {
            return;
        }
        op.fanin_done = true;
        op.epoch_bumped = true;
        op.sent_contrib = true;
        // Stage 1 complete on this server: all local participants are in.
        self.metrics.shard(si).stage_fanin.inc();
        self.metrics.stage_event(
            "group.fanin",
            op_id,
            vec![("locals".into(), (op.arrived_local.len() as u64).into())],
        );
        // Stage transition in the span DAG: fan-in closes and the exchange
        // stage opens as its child; every outgoing contribution piggybacks
        // the exchange context so peers can link their causal predecessor.
        if let Some(fanin) = op.fanin.take() {
            let fctx = fanin.context();
            fanin.end();
            op.xchg = Some(self.metrics.obs.span_with_parent(
                &self.metrics.process,
                "group.xchg",
                &op_id.to_string(),
                Some(fctx),
            ));
        }
        let xchg_ctx = op.xchg.as_ref().map(|s| s.context());
        // Batch this shard's full local contribution once, before the xchg
        // stage fans it out to every peer server.
        let contrib = Contribution {
            local_members: op.arrived_local.clone(),
            kvs: op.local_kvs.clone(),
        };
        op.contribs.insert(self.node, contrib.clone());
        let peers: Vec<NodeId> = op
            .expected_servers
            .iter()
            .copied()
            .filter(|n| *n != self.node)
            .collect();
        let key = (op_id.kind, op_id.name.clone(), op_id.mhash);
        self.bump_epoch(st, key);
        // Send outside the borrow of `op` (but still under the shard lock;
        // fabric sends never call back into this server synchronously).
        let msg = ServerMsg::CollContrib {
            op: op_id.clone(),
            from_node: self.node.0,
            contrib,
        };
        let mut sent = 0u64;
        for peer in peers {
            if let Some(ep) = self.registry.server_of(peer) {
                // Stage 2: one contribution exchange per participating peer
                // server — this is the part that scales with node count.
                self.metrics.shard(si).stage_xchg.inc();
                self.metrics.stage_event(
                    "group.xchg",
                    op_id,
                    vec![("to_node".into(), (peer.0 as u64).into())],
                );
                sent += 1;
                let _ = self.sender.send_ctx(ep, msg.encode(), xchg_ctx);
            }
        }
        if sent > 0 {
            if let Some(x) = st.ops.get_mut(op_id).and_then(|o| o.xchg.as_mut()) {
                x.add_work(sent);
            }
        }
    }

    /// Stage-3 trigger: complete the op if every contribution (and the
    /// PGCID, when needed) has arrived.
    fn try_complete(&self, op_id: &OpId) {
        let si = Self::ops_shard_of(op_id.kind, &op_id.name, op_id.mhash);
        let shard = &self.ops_shards[si];
        let mut st = shard.state.lock();
        let Some(op) = st.ops.get_mut(op_id) else { return };
        if op.result.is_some() || !op.fanin_done {
            return;
        }
        if op.contribs.len() < op.expected_servers.len() {
            return;
        }
        if op.need_pgcid && op.pgcid.is_none() {
            // The lead participating server must go get one (exactly once).
            let lead = *op.expected_servers.iter().next().expect("non-empty");
            if lead == self.node && !op.pgcid_requested {
                // Pool fast path: a previous block grant left spare ids, so
                // this construct skips the RM round trip entirely — no
                // `pgcid.request` span appears on its critical path.
                let (pooled, pool_len) = {
                    let mut pool = self.pgcid_pool.lock();
                    (pool.pop_front(), pool.len())
                };
                if let Some(pgcid) = pooled {
                    self.publish_pool_gauge(pool_len);
                    op.pgcid = Some(pgcid);
                    op.pgcid_requested = true;
                    self.metrics.pgcid_pool_hits.inc();
                    let peers = op.expected_servers.clone();
                    let bctx = op.xchg.as_ref().map(|s| s.context());
                    drop(st);
                    self.broadcast_ctx(
                        &peers,
                        &ServerMsg::CollPgcid { op: op_id.clone(), pgcid },
                        bctx,
                    );
                    self.try_complete(op_id);
                    return;
                }
                op.pgcid_requested = true;
                let xchg_ctx = op.xchg.as_ref().map(|s| s.context());
                drop(st);
                self.acquire_pgcid_for(op_id, xchg_ctx);
            }
            return;
        }
        // Complete: merge memberships, filter dead, wake everyone.
        let mut members: Vec<ProcId> = op
            .contribs
            .values()
            .flat_map(|c| c.local_members.iter().cloned())
            .collect();
        members.sort();
        members.dedup();
        let pgcid = op.pgcid;
        let all_kvs: Vec<(ProcId, HashMap<String, PmixValue>)> = op
            .contribs
            .values()
            .flat_map(|c| c.kvs.iter().cloned())
            .collect();
        {
            let dead = self.dead.read();
            members.retain(|m| !dead.contains(m));
        }
        // Install collected data into its kvs shards, batched so each
        // touched shard is locked (and its waiters woken) exactly once.
        let mut by_shard: Vec<Vec<(ProcId, HashMap<String, PmixValue>)>> =
            (0..SERVER_SHARDS).map(|_| Vec::new()).collect();
        for (proc, data) in all_kvs {
            by_shard[Self::kvs_shard_of(&proc)].push((proc, data));
        }
        for (ki, items) in by_shard.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let kshard = &self.kvs_shards[ki];
            let mut ks = kshard.state.lock();
            for (proc, data) in items {
                ks.kvs_cache.entry(proc).or_default().extend(data);
            }
            self.publish_kvs_gauge(ki, &ks);
            drop(ks);
            kshard.cv.notify_all();
        }
        let n_members = members.len() as u64;
        let op = st.ops.get_mut(op_id).expect("present");
        // Close the exchange stage (linking everything that gated
        // completion) and mark the release instant as the fan-out span; its
        // context travels back to the waiting clients in the outcome.
        let xchg_ctx = op.xchg.take().map(|mut xchg| {
            for c in op.contrib_ctxs.drain(..) {
                xchg.link(c);
            }
            let ctx = xchg.context();
            xchg.end();
            ctx
        });
        let mut fanout = self.metrics.obs.span_with_parent(
            &self.metrics.process,
            "group.fanout",
            &op_id.to_string(),
            xchg_ctx,
        );
        fanout.add_work(n_members);
        let fanout_ctx = fanout.context();
        fanout.end();
        op.result = Some(Ok(CollOutcome { members, pgcid, ctx: Some(fanout_ctx) }));
        // If every local waiter already walked away, nobody will observe:
        // reap here so abandoned ops cannot park in the shard forever.
        self.reap_if_fully_abandoned(&mut st, op_id);
        drop(st);
        // Stage 3: local fan-out — waiting clients on this node are released.
        let sc = self.metrics.shard(si);
        sc.stage_fanout.inc();
        self.metrics.stage_event(
            "group.fanout",
            op_id,
            vec![
                ("members".into(), n_members.into()),
                // 0 = no PGCID involved (fences, destructs). Non-zero values
                // let checkers match every exposed PGCID to an RM allocation
                // and assert cross-server agreement per (kind, name, epoch).
                ("pgcid".into(), pgcid.unwrap_or(0).into()),
            ],
        );
        match op_id.kind {
            OpKind::Fence => sc.fence_completed.inc(),
            OpKind::GroupConstruct => sc.group_construct_completed.inc(),
            OpKind::GroupDestruct => sc.group_destruct_completed.inc(),
        }
        shard.cv.notify_all();
    }

    fn fail_op_locked(
        &self,
        st: &mut OpsShard,
        si: usize,
        op_id: &OpId,
        reason: AbortReason,
    ) {
        if let Some(op) = st.ops.get_mut(op_id) {
            if op.result.is_none() {
                op.result = Some(Err(reason.to_error()));
                self.metrics.shard(si).coll_aborted.inc();
                let why = match &reason {
                    AbortReason::Timeout => "timeout",
                    AbortReason::ProcTerminated(_) => "proc_terminated",
                };
                self.metrics
                    .stage_event("group.abort", op_id, vec![("reason".into(), why.into())]);
            }
        }
        self.reap_if_fully_abandoned(st, op_id);
        self.ops_shards[si].cv.notify_all();
    }

    fn broadcast(&self, peers: &BTreeSet<NodeId>, msg: &ServerMsg) {
        self.broadcast_ctx(peers, msg, None);
    }

    fn broadcast_ctx(
        &self,
        peers: &BTreeSet<NodeId>,
        msg: &ServerMsg,
        ctx: Option<obs::TraceContext>,
    ) {
        let encoded = msg.encode();
        for peer in peers {
            if *peer == self.node {
                continue;
            }
            if let Some(ep) = self.registry.server_of(*peer) {
                let _ = self.sender.send_ctx(ep, encoded.clone(), ctx);
            }
        }
    }

    /// RM-side block allocation: reserve `count` consecutive ids and
    /// account every one of them immediately, so the PGCID accounting
    /// invariant (ids exposed ⊆ ids allocated) holds even while pooled
    /// surplus ids sit unused on the requesting server.
    fn rm_allocate_pgcid_block(&self, count: u64) -> u64 {
        self.metrics.pgcid_allocated.add(count);
        self.rm_next_pgcid
            .as_ref()
            .expect("PGCID requested from a non-RM server")
            .fetch_add(count, Ordering::Relaxed)
    }

    /// Allocate a PGCID block and record the allocation as a `pgcid.alloc`
    /// span on this (RM) server, linked to the requesting server's context.
    fn rm_allocate_pgcid_block_traced(
        &self,
        count: u64,
        req_ctx: Option<obs::TraceContext>,
    ) -> (u64, Option<obs::TraceContext>) {
        let pgcid = self.rm_allocate_pgcid_block(count);
        let mut span = self.metrics.obs.span_with_parent(
            &self.metrics.process,
            "pgcid.alloc",
            &pgcid.to_string(),
            None,
        );
        if let Some(c) = req_ctx {
            span.link(c);
        }
        let ctx = span.context();
        span.end();
        (pgcid, Some(ctx))
    }

    /// Get a PGCID for `op_id` (lead server, pool already missed under the
    /// caller's shard lock). If an RM request is already in flight from
    /// this server, queue behind it — the construct's grant rides the same
    /// block and no second `pgcid.request` span opens. Otherwise this op
    /// pays the round trip for everyone who queues after it.
    fn acquire_pgcid_for(&self, op_id: &OpId, parent: Option<obs::TraceContext>) {
        {
            let mut ctl = self.pgcid_ctl.lock();
            if ctl.inflight {
                ctl.backlog.push_back(op_id.clone());
                drop(ctl);
                self.metrics.stage_event("pgcid.coalesced", op_id, vec![]);
                return;
            }
            // The pool may have refilled between the caller's check and
            // here (a reply races the shard lock); prefer it over a trip.
            let (pooled, len) = {
                let mut pool = self.pgcid_pool.lock();
                (pool.pop_front(), pool.len())
            };
            if let Some(pgcid) = pooled {
                drop(ctl);
                self.publish_pool_gauge(len);
                self.metrics.pgcid_pool_hits.inc();
                if let Some(unused) = self.deliver_pgcid(op_id, pgcid, None) {
                    self.repool_front(unused);
                }
                return;
            }
            ctl.inflight = true;
        }
        self.send_pgcid_request(op_id, parent, 1);
    }

    /// Ship one RM block request on behalf of `op_id`. `demand` is how many
    /// queued constructs the grant must cover; the configured block size
    /// still floors the request, so pooling behavior is unchanged.
    fn send_pgcid_request(&self, op_id: &OpId, parent: Option<obs::TraceContext>, demand: u64) {
        // The RM round-trip is the "relatively expensive operation" of
        // §III-B3 — it gets its own span, parented under the exchange
        // stage, so the critical path shows it.
        let req = self.metrics.obs.span_with_parent(
            &self.metrics.process,
            "pgcid.request",
            &op_id.to_string(),
            parent,
        );
        let req_ctx = req.context();
        let count = self.pgcid_block.load(Ordering::Relaxed).max(demand).max(1);
        let token = self.mint_token(0);
        self.pgcid_waiting.lock().insert(token, (op_id.clone(), Some(req)));
        match self.registry.rm_endpoint() {
            Some(rm_ep) if rm_ep == self.sender.id() => {
                // We *are* the RM: allocate inline.
                let (pgcid, alloc_ctx) =
                    self.rm_allocate_pgcid_block_traced(count, Some(req_ctx));
                self.handle_ctx(ServerMsg::PgcidReply { token, pgcid, count }, alloc_ctx);
            }
            Some(rm_ep) => {
                let _ = self.sender.send_ctx(
                    rm_ep,
                    ServerMsg::PgcidRequest { reply_to: self.sender.id(), token, count }
                        .encode(),
                    Some(req_ctx),
                );
            }
            None => {
                if let Some((_, Some(sp))) = self.pgcid_waiting.lock().remove(&token) {
                    sp.end();
                }
                self.pgcid_ctl.lock().inflight = false;
                let si = Self::ops_shard_of(op_id.kind, &op_id.name, op_id.mhash);
                let mut st = self.ops_shards[si].state.lock();
                self.fail_op_locked(&mut st, si, op_id, AbortReason::Timeout);
            }
        }
    }

    /// Hand a granted id to `op_id`: record it, tell the peer servers, and
    /// re-attempt completion. Returns the id back when the op is already
    /// gone (aborted and reaped while the grant was in flight) so the
    /// caller can repool it instead of leaking it.
    fn deliver_pgcid(
        &self,
        op_id: &OpId,
        pgcid: u64,
        ctx: Option<obs::TraceContext>,
    ) -> Option<u64> {
        let si = Self::ops_shard_of(op_id.kind, &op_id.name, op_id.mhash);
        let shard = &self.ops_shards[si];
        let peers = {
            let mut st = shard.state.lock();
            if let Some(op) = st.ops.get_mut(op_id) {
                op.pgcid = Some(pgcid);
                if let Some(c) = ctx {
                    op.contrib_ctxs.push(c);
                }
                Some(op.expected_servers.clone())
            } else {
                None
            }
        };
        let unused = match peers {
            Some(peers) => {
                self.broadcast_ctx(&peers, &ServerMsg::CollPgcid { op: op_id.clone(), pgcid }, ctx);
                self.try_complete(op_id);
                None
            }
            None => Some(pgcid),
        };
        shard.cv.notify_all();
        unused
    }

    /// Return an unused grant to the head of the pool (it is younger than
    /// anything pooled after it left).
    fn repool_front(&self, pgcid: u64) {
        let len = {
            let mut pool = self.pgcid_pool.lock();
            pool.push_front(pgcid);
            pool.len()
        };
        self.publish_pool_gauge(len);
    }

    /// After a block grant lands: serve queued constructs from the pool;
    /// if demand outlives the grant, ship one follow-up request sized for
    /// everything still waiting (and keep the in-flight latch held).
    fn drain_pgcid_backlog(&self) {
        loop {
            let next = {
                let mut ctl = self.pgcid_ctl.lock();
                match ctl.backlog.pop_front() {
                    Some(op) => op,
                    None => {
                        ctl.inflight = false;
                        return;
                    }
                }
            };
            // A backlogged op may have aborted and been reaped meanwhile;
            // skip it without burning a pooled id or an RM trip.
            let si = Self::ops_shard_of(next.kind, &next.name, next.mhash);
            let live = self.ops_shards[si].state.lock().ops.contains_key(&next);
            if !live {
                continue;
            }
            let (pooled, len) = {
                let mut pool = self.pgcid_pool.lock();
                (pool.pop_front(), pool.len())
            };
            match pooled {
                Some(pgcid) => {
                    self.publish_pool_gauge(len);
                    // This construct rode someone else's round trip: the
                    // counter tallies saved RM trips at delivery time (a
                    // queued op promoted to lead a follow-up request is
                    // counted as a request instead, never both).
                    self.metrics.pgcid_coalesced.inc();
                    if let Some(unused) = self.deliver_pgcid(&next, pgcid, None) {
                        self.repool_front(unused);
                    }
                }
                None => {
                    let demand = 1 + self.pgcid_ctl.lock().backlog.len() as u64;
                    let parent = self.ops_shards[si]
                        .state
                        .lock()
                        .ops
                        .get(&next)
                        .and_then(|o| o.xchg.as_ref().map(|s| s.context()));
                    self.send_pgcid_request(&next, parent, demand);
                    return;
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Asynchronous (invite/join) group construction
    // ---------------------------------------------------------------

    /// Initiator side: send invitations. Returns immediately; call
    /// [`PmixServer::invite_wait`] to collect responses.
    pub fn invite(
        &self,
        initiator: &ProcId,
        name: &str,
        invited: &[ProcId],
        directives: &GroupDirectives,
    ) -> Result<()> {
        {
            let mut st = self.ctl.lock();
            if st.invites.contains_key(name) {
                return Err(PmixError::Exists(name.to_owned()));
            }
            st.invites.insert(
                name.to_owned(),
                InviteState {
                    initiator: initiator.clone(),
                    invited: invited.to_vec(),
                    responses: HashMap::new(),
                    request_pgcid: directives.request_pgcid,
                },
            );
        }
        let event = Event::new(EventCode::GroupInvited, Some(initiator.clone()))
            .with("group", name);
        for target in invited {
            let entry = self.registry.locate(target)?;
            let msg = ServerMsg::Notify { event: event.clone(), targets: vec![target.clone()] };
            if entry.node == self.node {
                self.handle(msg);
            } else if let Some(ep) = self.registry.server_of(entry.node) {
                let _ = self.sender.send(ep, msg.encode());
            }
        }
        Ok(())
    }

    /// Invitee side: answer an invitation (routed to the initiator's server).
    pub fn join_reply(&self, name: &str, me: &ProcId, initiator: &ProcId, accept: bool) -> Result<()> {
        let entry = self.registry.locate(initiator)?;
        let msg = ServerMsg::InviteReply { group: name.to_owned(), from: me.clone(), accept };
        if entry.node == self.node {
            self.handle(msg);
        } else {
            let ep = self.registry.server_of(entry.node).ok_or(PmixError::Unreachable)?;
            self.sender.send(ep, msg.encode()).map_err(|_| PmixError::Unreachable)?;
        }
        Ok(())
    }

    /// Initiator side: wait for all invitees to respond (or die), then
    /// finalize the group. Decliners and dead invitees are dropped from the
    /// membership; the initiator is always a member.
    ///
    /// Collapsed view of [`PmixServer::invite_wait_report`]: an invitee that
    /// ran out the clock surfaces as `Err(Timeout)` here. Callers that need
    /// to distinguish declined / dead / timed-out invitees — or want the
    /// partial group despite a straggler — should use the report variant.
    pub fn invite_wait(&self, name: &str, timeout: Duration) -> Result<GroupResult> {
        let report = self.invite_wait_report(name, timeout)?;
        if report.any_timed_out() {
            // The collapsed API treats a straggler as failure: undo the
            // partial finalization the report path performed.
            self.ctl.lock().groups.remove(name);
            return Err(PmixError::Timeout);
        }
        Ok(report.group)
    }

    /// Initiator side: wait for the invitees of `name`, then finalize the
    /// group and report what happened to each invitee individually
    /// ([`InviteOutcome`]: accepted / declined / dead / timed out).
    ///
    /// Unlike [`PmixServer::invite_wait`], an unresponsive invitee does not
    /// fail the construct: at the deadline they are marked
    /// [`InviteOutcome::TimedOut`], dropped from the membership, and the
    /// group is finalized with everyone who did accept. The invitation
    /// record is consumed either way, so a straggler reply is ignored.
    pub fn invite_wait_report(&self, name: &str, timeout: Duration) -> Result<InviteReport> {
        let mut deadline = LogicalDeadline::new(self.sender.fabric(), timeout);
        let mut st = self.ctl.lock();
        loop {
            let resolved = {
                let inv = st
                    .invites
                    .get(name)
                    .ok_or_else(|| PmixError::NotFound(format!("invite {name}")))?;
                let dead = self.dead.read();
                inv.invited
                    .iter()
                    .all(|p| inv.responses.contains_key(p) || dead.contains(p))
            };
            if resolved {
                break;
            }
            if deadline.expired() {
                // Budget spent and the fabric is quiescent — no reply can
                // still be on its way. Classify stragglers as timed out.
                break;
            }
            // Poll in short slices: a reply wakes the condvar immediately,
            // an injected delay shows up as in-flight fabric traffic that
            // defers expiry (see [`LogicalDeadline`]).
            let _ = self.ctl_cv.wait_for(&mut st, LOGICAL_POLL);
        }
        let inv = st.invites.remove(name).expect("checked above");
        let outcomes: Vec<(ProcId, InviteOutcome)> = {
            let dead = self.dead.read();
            inv.invited
                .iter()
                .map(|p| {
                    let outcome = match inv.responses.get(p) {
                        Some(true) => InviteOutcome::Accepted,
                        Some(false) => InviteOutcome::Declined,
                        None if dead.contains(p) => InviteOutcome::Dead,
                        None => InviteOutcome::TimedOut,
                    };
                    (p.clone(), outcome)
                })
                .collect()
        };
        let mut members: Vec<ProcId> = outcomes
            .iter()
            .filter(|(_, o)| *o == InviteOutcome::Accepted)
            .map(|(p, _)| p.clone())
            .collect();
        members.push(inv.initiator.clone());
        members.sort();
        members.dedup();
        drop(st);
        for (p, outcome) in &outcomes {
            self.metrics.obs.event(
                &self.metrics.process,
                "invite.resolved",
                vec![
                    ("group".into(), name.into()),
                    ("proc".into(), p.to_string().as_str().into()),
                    ("outcome".into(), outcome.as_str().into()),
                ],
            );
        }
        let pgcid = if inv.request_pgcid {
            // The RM fetch gets its own full budget: when invitees timed
            // out the original budget has already been spent, yet the
            // partial group still needs its PGCID.
            Some(self.fetch_pgcid_blocking(timeout)?)
        } else {
            None
        };
        self.ctl.lock().groups.insert(
            name.to_owned(),
            GroupInfo { members: members.clone(), pgcid, notify_on_termination: true },
        );
        Ok(InviteReport { group: GroupResult { members, pgcid }, outcomes })
    }

    /// Synchronous PGCID fetch from the RM (used by the async-construct
    /// finalize path, outside any collective op). Pool-aware: a pooled
    /// surplus id is used before any RM traffic happens. The wait runs on
    /// a [`LogicalDeadline`], so a chaos-delayed RM reply defers expiry
    /// rather than racing a wall clock.
    fn fetch_pgcid_blocking(&self, timeout: Duration) -> Result<u64> {
        let (pooled, pool_len) = {
            let mut pool = self.pgcid_pool.lock();
            (pool.pop_front(), pool.len())
        };
        if let Some(pgcid) = pooled {
            self.publish_pool_gauge(pool_len);
            self.metrics.pgcid_pool_hits.inc();
            return Ok(pgcid);
        }
        let rm = self.registry.rm_endpoint().ok_or(PmixError::Unreachable)?;
        if rm == self.sender.id() {
            return Ok(self.rm_allocate_pgcid_block(1));
        }
        let mut deadline = LogicalDeadline::new(self.sender.fabric(), timeout);
        // Reuse the dmodex slot table of kvs shard 0 for the scalar reply;
        // the token's shard encoding routes the PgcidReply there.
        let kshard = &self.kvs_shards[0];
        let token = self.mint_token(0);
        kshard.state.lock().dmodex_waiting.insert(token, FetchSlot::default());
        let count = self.pgcid_block.load(Ordering::Relaxed).max(1);
        self.sender
            .send(
                rm,
                ServerMsg::PgcidRequest { reply_to: self.sender.id(), token, count }.encode(),
            )
            .map_err(|_| PmixError::Unreachable)?;
        let mut ks = kshard.state.lock();
        loop {
            if let Some(Some(Some(PmixValue::U64(v)))) =
                ks.dmodex_waiting.get(&token).map(|slot| slot.reply.clone())
            {
                ks.dmodex_waiting.remove(&token);
                return Ok(v);
            }
            if deadline.expired() {
                ks.dmodex_waiting.remove(&token);
                return Err(PmixError::Timeout);
            }
            let _ = kshard.cv.wait_for(&mut ks, LOGICAL_POLL);
        }
    }

    /// A member leaves a group: remaining members are notified
    /// asynchronously (paper §III-A: departure notifications).
    pub fn group_leave(&self, name: &str, me: &ProcId) -> Result<()> {
        let remaining = {
            let mut st = self.ctl.lock();
            let info = st
                .groups
                .get_mut(name)
                .ok_or_else(|| PmixError::NotFound(format!("group {name}")))?;
            info.members.retain(|m| m != me);
            info.members.clone()
        };
        let event =
            Event::new(EventCode::GroupMemberLeft, Some(me.clone())).with("group", name);
        self.notify_procs(&remaining, &event);
        Ok(())
    }

    /// Route an event to a set of processes (local delivery + remote
    /// forwarding to their servers).
    pub fn notify_procs(&self, targets: &[ProcId], event: &Event) {
        let mut by_node: HashMap<NodeId, Vec<ProcId>> = HashMap::new();
        for t in targets {
            if let Ok(e) = self.registry.locate(t) {
                by_node.entry(e.node).or_default().push(t.clone());
            }
        }
        for (node, procs) in by_node {
            let msg = ServerMsg::Notify { event: event.clone(), targets: procs };
            if node == self.node {
                self.handle(msg);
            } else if let Some(ep) = self.registry.server_of(node) {
                let _ = self.sender.send(ep, msg.encode());
            }
        }
    }

    // ---------------------------------------------------------------
    // Message handling (fabric deliveries from other servers)
    // ---------------------------------------------------------------

    /// Process one server-to-server message (no piggybacked trace context;
    /// used for node-local self-delivery).
    pub fn handle(&self, msg: ServerMsg) {
        self.handle_ctx(msg, None);
    }

    /// Process one server-to-server message together with the trace context
    /// piggybacked on its envelope, so collective stage spans can link their
    /// remote causal predecessors.
    pub fn handle_ctx(&self, msg: ServerMsg, ctx: Option<obs::TraceContext>) {
        match msg {
            ServerMsg::CollContrib { op, from_node, contrib } => {
                let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
                {
                    let mut st = self.ops_shards[si].state.lock();
                    let entry = st.ops.entry(op.clone()).or_insert_with(OpState::new);
                    entry.contribs.insert(NodeId(from_node), contrib);
                    if let Some(c) = ctx {
                        entry.contrib_ctxs.push(c);
                    }
                }
                self.try_complete(&op);
                self.ops_shards[si].cv.notify_all();
            }
            ServerMsg::CollPgcid { op, pgcid } => {
                let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
                {
                    let mut st = self.ops_shards[si].state.lock();
                    let entry = st.ops.entry(op.clone()).or_insert_with(OpState::new);
                    if entry.expected_local.is_some() {
                        entry.pgcid = Some(pgcid);
                    } else {
                        entry.pending_pgcid = Some(pgcid);
                    }
                    if let Some(c) = ctx {
                        entry.contrib_ctxs.push(c);
                    }
                }
                self.try_complete(&op);
                self.ops_shards[si].cv.notify_all();
            }
            ServerMsg::CollAbort { op, reason } => {
                let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
                let mut st = self.ops_shards[si].state.lock();
                self.fail_op_locked(&mut st, si, &op, reason);
            }
            ServerMsg::PgcidRequest { reply_to, token, count } => {
                let (pgcid, alloc_ctx) =
                    self.rm_allocate_pgcid_block_traced(count.max(1), ctx);
                let _ = self.sender.send_ctx(
                    reply_to,
                    ServerMsg::PgcidReply { token, pgcid, count: count.max(1) }.encode(),
                    alloc_ctx,
                );
            }
            ServerMsg::PgcidReply { token, pgcid, count } => {
                // Pool the block's surplus first, so a construct racing this
                // handler can already hit the pool.
                if count > 1 {
                    let len = {
                        let mut pool = self.pgcid_pool.lock();
                        for id in (pgcid + 1)..(pgcid + count) {
                            pool.push_back(id);
                        }
                        pool.len()
                    };
                    self.publish_pool_gauge(len);
                }
                let waiting = self.pgcid_waiting.lock().remove(&token);
                if let Some((op_id, req_span)) = waiting {
                    // Close the RM round-trip span, linking the RM's
                    // allocation as its causal predecessor.
                    let req_ctx = req_span.map(|mut sp| {
                        if let Some(c) = ctx {
                            sp.link(c);
                        }
                        let rc = sp.context();
                        sp.end();
                        rc
                    });
                    if let Some(unused) = self.deliver_pgcid(&op_id, pgcid, req_ctx) {
                        // The op aborted while the grant was in flight.
                        self.repool_front(unused);
                    }
                    // Serve everything that queued behind this round trip.
                    self.drain_pgcid_backlog();
                } else {
                    // A blocking scalar fetch (async-construct path); the
                    // token encodes the kvs shard holding its reply slot.
                    let ki = (token % SERVER_SHARDS as u64) as usize;
                    let kshard = &self.kvs_shards[ki];
                    let mut ks = kshard.state.lock();
                    if let Some(slot) = ks.dmodex_waiting.get_mut(&token) {
                        slot.complete(Some(PmixValue::U64(pgcid)));
                    }
                    drop(ks);
                    kshard.cv.notify_all();
                }
            }
            ServerMsg::ProcFailed { proc } => {
                self.on_proc_failed(&proc);
            }
            ServerMsg::DmodexReq { reply_to, token, proc, key } => {
                // Resolve "is this a (live) local client" before touching
                // the kvs shard: ctl and kvs shards are never nested.
                let is_local = self.ctl.lock().local_clients.contains(&proc)
                    || self
                        .registry
                        .locate(&proc)
                        .map(|e| e.node == self.node)
                        .unwrap_or(false);
                let is_dead = self.dead.read().contains(&proc);
                let kshard = &self.kvs_shards[Self::kvs_shard_of(&proc)];
                let value = {
                    let mut ks = kshard.state.lock();
                    match ks.kvs_local.get(&proc).and_then(|m| m.get(&key)).cloned() {
                        Some(v) => Some(Some(v)),
                        None => {
                            if is_local && !is_dead {
                                // Park until the owner commits.
                                ks.dmodex_parked.push((proc, key, reply_to, token));
                                None
                            } else {
                                Some(None)
                            }
                        }
                    }
                };
                if let Some(value) = value {
                    let _ = self
                        .sender
                        .send(reply_to, ServerMsg::DmodexReply { token, value }.encode());
                }
            }
            ServerMsg::DmodexReply { token, value } => {
                let ki = (token % SERVER_SHARDS as u64) as usize;
                let kshard = &self.kvs_shards[ki];
                let mut ks = kshard.state.lock();
                if let Some(slot) = ks.dmodex_waiting.get_mut(&token) {
                    slot.complete(value);
                }
                drop(ks);
                kshard.cv.notify_all();
            }
            ServerMsg::Notify { event, targets } => {
                let st = self.ctl.lock();
                for (proc, sub) in &st.subs {
                    if !sub.matches(event.code) {
                        continue;
                    }
                    if targets.is_empty() || targets.contains(proc) {
                        let _ = sub.tx.send(event.clone());
                    }
                }
            }
            ServerMsg::InviteReply { group, from, accept } => {
                let mut st = self.ctl.lock();
                if let Some(inv) = st.invites.get_mut(&group) {
                    inv.responses.insert(from, accept);
                }
                drop(st);
                self.ctl_cv.notify_all();
            }
        }
    }

    /// Whether this server has observed `proc`'s death. Dead processes
    /// stay *registered* (their identity is never recycled), so callers
    /// that validate liveness — the lazy-resolver cache, fault-aware
    /// waits — must ask this rather than [`NamespaceRegistry::locate`].
    pub fn proc_is_dead(&self, proc: &ProcId) -> bool {
        self.dead.read().contains(proc)
    }

    /// React to a process death: fail or shrink affected collectives,
    /// notify subscribers, and mark the process dead.
    pub fn on_proc_failed(&self, proc: &ProcId) {
        {
            let mut dead = self.dead.write();
            if !dead.insert(proc.clone()) {
                return; // already processed
            }
        }
        // Lifecycle GC: a dead process's KV data can never be read again —
        // `fetch` routes every lookup through the dead check downstream of
        // here — so drop its committed data and everything cached about it.
        // Parked dmodex fetches for the dead owner can never be served;
        // answer them "not found" instead of letting the requester time out.
        self.purge_kvs_for(proc);
        // Fail or shrink pending collectives that include the dead process,
        // one ops shard at a time (the write above already publishes the
        // death, so concurrent entries on other shards observe it).
        let mut aborts = Vec::new();
        for si in 0..SERVER_SHARDS {
            let shard = &self.ops_shards[si];
            let mut st = shard.state.lock();
            let op_ids: Vec<OpId> = st.ops.keys().cloned().collect();
            for op_id in op_ids {
                let op = st.ops.get_mut(&op_id).expect("present");
                if op.result.is_some() {
                    continue;
                }
                let involved = op.membership.contains(proc)
                    || op
                        .expected_local
                        .as_ref()
                        .map(|e| e.contains(proc))
                        .unwrap_or(false)
                    || op.contribs.values().any(|c| c.local_members.contains(proc))
                    || op.arrived_local.contains(proc);
                if !involved {
                    continue;
                }
                if op.error_on_early_termination {
                    op.result = Some(Err(PmixError::ProcTerminated(proc.clone())));
                    self.metrics.shard(si).coll_aborted.inc();
                    self.metrics.stage_event(
                        "group.abort",
                        &op_id,
                        vec![("reason".into(), "proc_terminated".into())],
                    );
                    aborts.push((op_id.clone(), op.expected_servers.clone()));
                } else {
                    if let Some(exp) = op.expected_local.as_mut() {
                        exp.retain(|p| p != proc);
                    }
                    op.arrived_local.retain(|p| p != proc);
                }
            }
            // Complete any ops whose fan-in this death unblocked.
            let candidates: Vec<OpId> = st
                .ops
                .iter()
                .filter(|(_, o)| o.result.is_none())
                .map(|(k, _)| k.clone())
                .collect();
            for op_id in &candidates {
                self.advance_op(&mut st, si, op_id);
            }
            drop(st);
            for op_id in &candidates {
                self.try_complete(op_id);
            }
            shard.cv.notify_all();
        }
        // Group-membership failure notifications + plain proc-terminated
        // events for subscribers on this node (control plane).
        let notifications = {
            let st = self.ctl.lock();
            let dead = self.dead.read();
            let mut notifications = Vec::new();
            for (name, info) in st.groups.iter() {
                if info.notify_on_termination && info.members.contains(proc) {
                    let targets: Vec<ProcId> = info
                        .members
                        .iter()
                        .filter(|m| *m != proc && !dead.contains(*m))
                        .cloned()
                        .collect();
                    let event = Event::new(EventCode::GroupMemberFailed, Some(proc.clone()))
                        .with("group", name.as_str())
                        .with("pgcid", info.pgcid.unwrap_or(0));
                    notifications.push((targets, event));
                }
            }
            let term = Event::new(EventCode::ProcTerminated, Some(proc.clone()));
            for (p, sub) in &st.subs {
                if sub.matches(EventCode::ProcTerminated) && p != proc {
                    let _ = sub.tx.send(term.clone());
                }
            }
            notifications
        };
        for (op_id, peers) in aborts {
            self.broadcast(&peers, &ServerMsg::CollAbort {
                op: op_id,
                reason: AbortReason::ProcTerminated(proc.clone()),
            });
        }
        for (targets, event) in notifications {
            self.notify_procs(&targets, &event);
        }
        self.ctl_cv.notify_all();
        for ks in &self.kvs_shards {
            ks.cv.notify_all();
        }
    }
}
