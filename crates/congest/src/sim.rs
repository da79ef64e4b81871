//! The synchronous round driver.
//!
//! # Message plane
//!
//! Messages are routed through a flat, double-buffered **arena** instead of
//! per-node `Vec`s. During a round every send is appended to a staging
//! bucket of its sender's lane (one lane unless a pool is attached); at the
//! end of the round a counting pass over the staged sends lays out a
//! CSR-style index (`inbox_start[v] .. inbox_start[v] +
//! inbox_len[v]` into one flat `Vec<Incoming>`) and a stable scatter pass
//! places each message into its receiver's range. The two flat buffers swap
//! roles every round, so after warm-up [`Simulator::step`] performs **zero
//! heap allocation** (pinned by `tests/zero_alloc.rs`).
//!
//! # Active-set scheduler
//!
//! A round does not walk all `n` nodes. It visits exactly:
//!
//! * every node whose inbox is non-empty this round, and
//! * every node that reported `!is_idle()` after its previous visit
//!   (plus, on the first round, all nodes of a [`Simulator::new`] run or
//!   the declared initial set of a [`Simulator::install`]ed one, and all
//!   nodes after [`Simulator::programs_mut`]).
//!
//! This is sound because a node's state can only change inside
//! [`NodeProgram::round`]: a node that was idle after its last visit and has
//! received nothing since is still idle, and calling `round` on it would be
//! a no-op by the [`NodeProgram`] contract. See the crate-level docs for the
//! full invariant list.

use crate::msg::{Incoming, Merge, Msg, MAX_WORDS};
use crate::observe::{NoopRoundObserver, RoundInfo, RoundObserver};
use crate::stats::RunStats;
use crate::trace::{RoundDigest, Transcript};
use nas_graph::{CompactGraph, Graph};
use nas_par::WorkerPool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel port marking a staged local broadcast in an outbox (expanded to
/// every incident edge by the routing passes). Never a real port: degrees
/// are bounded by `n`, and node counts stay below `u32::MAX`.
const BCAST_PORT: u32 = u32::MAX;

/// Sentinel receiver marking a broadcast record in a staging stream; the
/// record's `from_port` field carries the *sender id* instead.
const BCAST_RECV: u32 = u32::MAX;

/// Default [`Simulator::set_bcast_threshold`] value: a `send_all` from a
/// node of at least this degree stages **one** broadcast record instead of
/// `deg` per-port tuples; the counting/scatter passes expand it against the
/// sender's CSR neighbor slice (per receiver range on several lanes — a
/// degree-bucketed broadcast tree). Delivery order, transcripts, and stats
/// are identical either way; only the staging cost changes. Records win
/// from very low degrees already (one staged entry and no per-port outbox
/// walk), so the default covers everything past degree 2.
pub const DEFAULT_BCAST_THRESHOLD: usize = 3;

/// A protocol running at one vertex.
///
/// The simulator calls [`round`](NodeProgram::round) once per synchronous
/// round on every **active** node. Inside, the node reads its inbox
/// (messages sent to it in the *previous* round), updates state, and sends
/// at most one message per incident edge via [`RoundCtx::send`].
///
/// # The activity contract
///
/// To let the simulator skip idle regions of a large network, `round` is
/// only guaranteed to be invoked when at least one of these holds:
///
/// * it is the node's first round (simulator creation or
///   [`Simulator::programs_mut`] re-arm a full wake-up; an
///   [installed](Simulator::install) run visits only its declared initial
///   set, whose complement must be idle with no wake-up);
/// * the node's inbox is non-empty;
/// * the node returned `false` from [`is_idle`](NodeProgram::is_idle) after
///   its previous `round` invocation.
///
/// Consequently a program that wants to act *spontaneously* — send based on
/// the global round number without having received anything — must report
/// `is_idle() == false` until its schedule is complete, **or** name the
/// round of its next spontaneous action via
/// [`next_wake`](NodeProgram::next_wake) and go idle until then (a *timed
/// wake-up*: the node is guaranteed a visit at that round, and sooner if a
/// message arrives). A program whose `round` is a no-op on an empty inbox
/// needs no override. Both `is_idle` and `next_wake` must be pure functions
/// of the program's state (they are consulted at scheduling points, never
/// mid-round).
///
/// The same locality that makes idle-skipping sound also makes *parallel*
/// execution sound: `round` sees only this node's state and inbox, so the
/// simulator may run different nodes' rounds on different threads
/// ([`Simulator::set_pool`]) with bit-identical transcripts — see the
/// crate-level "Determinism under parallelism" notes.
pub trait NodeProgram {
    /// Executes one synchronous round at this node.
    fn round(&mut self, ctx: &mut RoundCtx<'_>);

    /// Whether this node considers the protocol finished *and* has no
    /// spontaneous sends pending. Used by the active-set scheduler (see the
    /// trait docs) and by [`Simulator::run_until_quiet`] as a stop
    /// condition; the default is `true`, which is correct for purely
    /// message-driven programs.
    fn is_idle(&self) -> bool {
        true
    }

    /// The round at which this node next wants to be visited even if it is
    /// idle and no message arrives — a **timed wake-up**, for programs
    /// whose next spontaneous action is at a known future round (e.g. a
    /// fixed phase schedule). `None` (the default) means "no appointment":
    /// the node is revisited only on message arrival or while non-idle.
    ///
    /// Contract: must be a pure function of the program's state, and must
    /// return either `None` or a round *strictly after* the visit at which
    /// it is consulted — a value at or before the current round is ignored
    /// (the node just ran). The wake is an *at-the-latest* guarantee, not
    /// exclusive: the node may also be visited earlier (messages, other
    /// stale wakes), and every visit re-consults this method, so a program
    /// whose plans change simply returns the new round. Stale wake-ups fire
    /// as ordinary visits of an idle node, which the activity contract
    /// already makes no-ops.
    ///
    /// A node with a pending wake-up counts as *not finished* for
    /// quiescence detection ([`Simulator::is_quiescent`]).
    fn next_wake(&self) -> Option<u64> {
        None
    }
}

/// Everything a node may legally observe and do during one round.
///
/// A node knows: its own id, `n` (the paper assumes vertices know `n`), its
/// incident ports and the neighbor id behind each port, the current round
/// number (global synchronous clock), and its inbox.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    id: usize,
    n: usize,
    round: u64,
    neighbors: &'a [u32],
    inbox: &'a [Incoming],
    outbox: &'a mut Vec<(u32, Msg)>,
    sent: &'a mut [bool],
    /// Ports used so far this round (guards the broadcast fast path).
    nsent: u32,
    /// Whether a broadcast record was already staged this round.
    broadcast: bool,
    /// Minimum degree for [`RoundCtx::send_all`] to stage a broadcast
    /// record (`usize::MAX` disables the path, e.g. on the reference
    /// simulator).
    bcast_min_deg: usize,
}

impl<'a> RoundCtx<'a> {
    /// Crate-internal constructor shared by [`Simulator`] and the
    /// [`reference`](crate::reference) differential simulator.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        n: usize,
        round: u64,
        neighbors: &'a [u32],
        inbox: &'a [Incoming],
        outbox: &'a mut Vec<(u32, Msg)>,
        sent: &'a mut [bool],
        bcast_min_deg: usize,
    ) -> Self {
        RoundCtx {
            id,
            n,
            round,
            neighbors,
            inbox,
            outbox,
            sent,
            nsent: 0,
            broadcast: false,
            bcast_min_deg,
        }
    }

    /// This node's id.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The number of vertices in the network.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round number (0-based, counted from simulator creation,
    /// or from the `start` of an enclosing [`since`](RoundCtx::since)).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's degree (number of ports).
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbor id behind `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= self.degree()`.
    #[inline]
    pub fn neighbor(&self, port: usize) -> usize {
        self.neighbors[port] as usize
    }

    /// The port behind neighbor `id` (a binary search: neighbor lists are
    /// sorted).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a neighbor of this node.
    pub fn port_of(&self, id: u32) -> usize {
        let port = self.neighbors.partition_point(|&u| u < id);
        assert!(self.neighbors.get(port) == Some(&id), "no port for {id}");
        port
    }

    /// Runs `f` with [`round`](RoundCtx::round) counted from `start`, then
    /// restores the clock: a composite protocol hosts a stage protocol that
    /// began at round `start` on the stage's own clock, which reads 0 in
    /// the stage's first round. A CONGEST violation inside `f` names the
    /// stage's round.
    ///
    /// # Panics
    ///
    /// Panics if `start` is after the current round.
    pub fn since(&mut self, start: u64, f: impl FnOnce(&mut Self)) {
        let round = self.round;
        self.round = round
            .checked_sub(start)
            .unwrap_or_else(|| panic!("stage starts at round {start}, after round {round}"));
        f(self);
        self.round = round;
    }

    /// Messages delivered to this node this round (sent in the previous
    /// round), ordered by sender id.
    #[inline]
    pub fn inbox(&self) -> &[Incoming] {
        self.inbox
    }

    /// Sends `msg` over `port` this round.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range or a message was already sent over
    /// this port this round — the CONGEST bandwidth constraint.
    pub fn send(&mut self, port: usize, msg: Msg) {
        assert!(port < self.neighbors.len(), "port {port} out of range");
        assert!(
            !self.broadcast && !self.sent[port],
            "CONGEST violation: node {} sent two messages over port {port} in round {}",
            self.id,
            self.round
        );
        self.sent[port] = true;
        self.nsent += 1;
        self.outbox.push((port as u32, msg));
    }

    /// Whether a message was already sent over `port` this round (by
    /// [`send`](RoundCtx::send) or a [`send_all`](RoundCtx::send_all)
    /// broadcast). Lets programs that drain per-port queues skip used ports
    /// instead of tripping the CONGEST assertion.
    #[inline]
    pub fn port_used(&self, port: usize) -> bool {
        self.broadcast || self.sent[port]
    }

    /// Sends `msg` over every incident edge (a local broadcast).
    ///
    /// On the arena simulator, a broadcast from a node of degree at least
    /// the broadcast threshold ([`Simulator::set_bcast_threshold`]) stages
    /// one record instead of `deg` tuples; the routing passes expand it
    /// against the sender's neighbor slice. Observable behavior (delivery
    /// order, stats, transcripts) is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if any port was already used this round.
    pub fn send_all(&mut self, msg: Msg) {
        let deg = self.neighbors.len();
        if self.nsent == 0 && !self.broadcast && deg >= self.bcast_min_deg.max(1) {
            self.broadcast = true;
            self.outbox.push((BCAST_PORT, msg));
            return;
        }
        for port in 0..deg {
            self.send(port, msg);
        }
    }
}

/// Collapses one receiver's freshly scattered inbox range in place,
/// according to the uniform [`Merge`] class of its messages, and returns
/// the new length. Ranges with mixed classes (or any [`Merge::None`]
/// message) are left untouched — mixed traffic degrades to exact delivery,
/// never to a wrong merge.
///
/// `Min`/`Dedup` survivors keep the sender-ascending (= port-ascending)
/// delivery order the determinism contract promises; `Or` synthesizes one
/// message attributed to the smallest port. All three folds are commutative
/// with smallest-port tie-breaks, so the result is independent of staging
/// order and shard boundaries.
fn merge_range(range: &mut [Incoming]) -> usize {
    let len = range.len();
    if len <= 1 {
        return len;
    }
    let class = range[0].msg.merge();
    if class == Merge::None || range[1..].iter().any(|i| i.msg.merge() != class) {
        return len;
    }
    match class {
        Merge::None => len,
        Merge::Min => {
            let best = *range
                .iter()
                .min_by_key(|i| (i.msg.sort_key(), i.from_port))
                .expect("range is non-empty");
            range[0] = best;
            1
        }
        Merge::Dedup => {
            // Fast path: freshly scattered ranges are port-ascending (one
            // message per arc), so keeping the first occurrence of each key
            // both picks the smallest port and preserves delivery order —
            // no sorting. Quadratic in the survivor count, hence gated to
            // short ranges; long or unsorted ranges take the sort path.
            if len <= 16 && range.is_sorted_by_key(|i| i.from_port) {
                let mut w = 1;
                for r in 1..len {
                    let key = range[r].msg.sort_key();
                    if !range[..w].iter().any(|i| i.msg.sort_key() == key) {
                        range[w] = range[r];
                        w += 1;
                    }
                }
                w
            } else {
                range.sort_unstable_by_key(|i| (i.msg.sort_key(), i.from_port));
                let mut w = 1;
                for r in 1..len {
                    if range[r].msg.sort_key() != range[w - 1].msg.sort_key() {
                        range[w] = range[r];
                        w += 1;
                    }
                }
                // Restore sender-ascending delivery order for the survivors.
                range[..w].sort_unstable_by_key(|i| i.from_port);
                w
            }
        }
        Merge::Or => {
            let mut words = [0u64; MAX_WORDS];
            let mut wlen = 0u8;
            let mut port = u32::MAX;
            for inc in range.iter() {
                for (k, &w) in inc.msg.words().iter().enumerate() {
                    words[k] |= w;
                }
                wlen = wlen.max(inc.msg.len() as u8);
                port = port.min(inc.from_port);
            }
            range[0] = Incoming {
                from_port: port,
                msg: Msg::raw(words, wlen, class),
            };
            1
        }
    }
}

/// Appends the sorted-ascending union (duplicates collapsed) of two
/// sorted-ascending, internally duplicate-free slices to `out`.
fn merge_sorted(out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// The routing maps both simulators share, borrowed straight from the
/// graph's cached topology: the reverse port map
/// ([`Graph::rev_ports`] — `rev_port[arc]` is the port of the arc's
/// *source* in the *target*'s neighbor list, parallel to the CSR arc array)
/// and the CSR arc offsets into it ([`Graph::csr_offsets`]). The first
/// simulator over a graph pays one `O(m)` sweep; every later one (each
/// protocol phase of a staged engine builds its own) reuses the table.
pub(crate) fn build_port_maps(graph: &Graph) -> (&[u32], &[usize]) {
    (graph.rev_ports(), graph.csr_offsets())
}

/// The simulator's adjacency plane: either the flat CSR [`Graph`] (borrowed,
/// zero-copy) or the delta/varint [`CompactGraph`] store (shared, decoded
/// per visit into pooled scratch). Selected at construction
/// ([`Simulator::new`] / [`Simulator::new_compact`]) or switched before the
/// first round ([`Simulator::set_compact`]); both planes produce
/// bit-identical transcripts, stats, and program states.
enum Topology<'g> {
    /// Borrowed flat CSR adjacency.
    Flat(&'g Graph),
    /// Shared compressed adjacency (no reverse-port table: sender ports are
    /// recovered at delivery by binary search in the receiver's sorted
    /// neighbor list).
    Compact(Arc<CompactGraph>),
}

impl Topology<'_> {
    fn num_vertices(&self) -> usize {
        match self {
            Topology::Flat(g) => g.num_vertices(),
            Topology::Compact(c) => c.num_vertices(),
        }
    }

    fn max_degree(&self) -> usize {
        match self {
            Topology::Flat(g) => g.max_degree(),
            Topology::Compact(c) => c.max_degree(),
        }
    }
}

/// Monomorphized adjacency access for the round. The round function is
/// generic over this trait, so each store gets its own specialized copy of
/// it — **no virtual call per neighbor** on the hot path.
///
/// The flat impl borrows neighbor slices straight from the CSR and resolves
/// reverse ports from the graph's cached table. The compact impl decodes
/// each visited vertex's adjacency into a pooled scratch `Vec` and defers
/// port resolution: staged messages carry the *sender id* in `from_port`,
/// converted to the receiver-side port after the scatter pass (and before
/// the merge pass) by binary search in the receiver's sorted neighbor list.
/// Sorted adjacency makes sender order equal port order, so delivery order,
/// merge tie-breaks, and digests are bit-identical between the two stores.
trait AdjAccess: Sync {
    /// Whether staged `from_port` fields carry sender *ids* that must be
    /// converted to ports at delivery time.
    const DEFERRED_PORTS: bool;

    /// `v`'s sorted neighbor ids. `scratch` is the pooled decode buffer;
    /// the flat store ignores it and borrows from the CSR.
    fn adj<'s>(&'s self, v: usize, scratch: &'s mut Vec<u32>) -> &'s [u32];

    /// The reverse port of vertex `v` in the neighbor list of its `port`-th
    /// neighbor. Only called when [`AdjAccess::DEFERRED_PORTS`] is false.
    fn rev_port(&self, v: usize, port: usize) -> u32;
}

/// [`AdjAccess`] over the flat CSR: zero-copy neighbor slices plus the
/// graph's cached reverse-port table.
struct FlatAdj<'g> {
    graph: &'g Graph,
    rev: &'g [u32],
    offs: &'g [usize],
}

impl<'g> FlatAdj<'g> {
    fn new(graph: &'g Graph) -> Self {
        let (rev, offs) = build_port_maps(graph);
        FlatAdj { graph, rev, offs }
    }
}

impl AdjAccess for FlatAdj<'_> {
    const DEFERRED_PORTS: bool = false;

    #[inline]
    fn adj<'s>(&'s self, v: usize, _scratch: &'s mut Vec<u32>) -> &'s [u32] {
        self.graph.neighbors(v)
    }

    #[inline]
    fn rev_port(&self, v: usize, port: usize) -> u32 {
        self.rev[self.offs[v] + port]
    }
}

/// [`AdjAccess`] over the compact store: decodes into pooled scratch and
/// defers port resolution to the delivery-time conversion pass.
struct CompactAdj {
    store: Arc<CompactGraph>,
}

impl AdjAccess for CompactAdj {
    const DEFERRED_PORTS: bool = true;

    #[inline]
    fn adj<'s>(&'s self, v: usize, scratch: &'s mut Vec<u32>) -> &'s [u32] {
        self.store.decode_into(v, scratch);
        scratch
    }

    fn rev_port(&self, _v: usize, _port: usize) -> u32 {
        unreachable!("compact-store ports are deferred to the conversion pass")
    }
}

/// Converts one freshly scattered inbox range from deferred sender ids to
/// receiver-side ports: each entry's `from_port` currently holds the sender
/// id; its port is the sender's position in the receiver's sorted neighbor
/// list. Runs after the scatter pass and before the merge pass, so merge
/// tie-breaks and next round's digests see exactly the flat store's values.
fn convert_deferred_ports(range: &mut [Incoming], neighbors: &[u32]) {
    for inc in range {
        let s = inc.from_port;
        let port = neighbors.partition_point(|&x| x < s);
        debug_assert!(
            port < neighbors.len() && neighbors[port] == s,
            "staged sender {s} is not a neighbor of the receiver"
        );
        inc.from_port = port as u32;
    }
}

/// Per-lane staging arena for the visit phase. Built with its
/// [`ParPlane`] and reused every round, so the steady state stays
/// allocation-free.
#[derive(Default)]
struct WorkerArena {
    /// One staging bucket per receiver range: `(receiver, incoming)` in send
    /// order. `buckets[j]` holds this lane's sends whose receiver falls in
    /// receiver range `j`.
    buckets: Vec<Vec<(u32, Incoming)>>,
    /// Per-node outbox scratch (cleared per visited node).
    outbox: Vec<(u32, Msg)>,
    /// Per-port "sent" flags scratch, sized to the graph's max degree.
    sent: Vec<bool>,
    /// Non-idle nodes discovered by this lane, in visit (= id) order.
    nonidle: Vec<u32>,
    /// Timed wake-ups requested by this lane's idle nodes, in visit order:
    /// `(node, wake round)`. Registered into the shared timer wheel by the
    /// merge phase in lane order (= id order), so the registration order is
    /// the same at every lane count.
    wakes: Vec<(u32, u64)>,
    /// Words sent by this lane this round.
    words: u64,
    /// Messages staged by this lane this round.
    staged: u64,
    /// Pooled adjacency decode buffer (compact store only; empty on flat).
    adj: Vec<u32>,
}

/// Per-receiver-range scratch of the counting, layout and scatter phases.
#[derive(Default)]
struct RangeArena {
    /// Receivers in this range staged this round, in id order once the
    /// counting lane has laid the range out.
    touched: Vec<u32>,
    /// Deliveries staged into this range this round: the length of its
    /// span of the delivery buffer.
    total: usize,
    /// Pooled adjacency decode buffer (compact store only; empty on flat).
    adj: Vec<u32>,
}

/// A range lists its receivers by scanning its counters, which yields them
/// in id order, once at least `1 / DENSE_RANGE` of its ids were touched;
/// sparser ranges sort their `touched` list instead.
const DENSE_RANGE: usize = 32;

/// Fills `cuts` with the `t + 1` receiver-range boundaries over `topo`'s
/// nodes: at equal shares of in-arcs, read off the flat store's CSR
/// offsets, or by id on the compact store, whose degrees cost a decode.
/// Every range then holds at most `2m / t + max_degree` in-arcs, and a
/// range may be empty. Any monotone cut delivers the same messages in the
/// same order; the cut only balances the counting and scatter lanes.
fn fill_receiver_cuts(cuts: &mut Vec<usize>, topo: &Topology<'_>, t: usize) {
    let n = topo.num_vertices();
    match topo {
        Topology::Flat(g) => {
            let offs = g.csr_offsets();
            let arcs = offs[n];
            cuts.clear();
            cuts.extend((0..t).map(|k| offs.partition_point(|&o| o < arcs * k / t)));
            cuts.push(n);
        }
        Topology::Compact(_) => nas_par::fill_balanced_cuts(cuts, n, t),
    }
}

/// The receiver range `u` falls in, over the `t + 1` cuts of
/// [`fill_receiver_cuts`]: the number of inner cuts at or below `u`.
#[inline]
fn range_of(ncuts: &[usize], u: u32) -> usize {
    ncuts[1..ncuts.len() - 1].partition_point(|&c| c <= u as usize)
}

/// The lanes a round is sharded over (see the crate-level "Determinism
/// under parallelism" notes): one [`WorkerArena`] and one receiver range
/// per lane of `pool`. Every round runs on one: the attached pool's plane
/// ([`Simulator::set_pool`]), or the arena's one-lane plane, whose private
/// pool spawns no thread and runs each phase inline. Receiver ranges are
/// contiguous id ranges, cut by [`fill_receiver_cuts`] whenever the plane
/// is fitted to a topology: at equal shares of in-arcs, so the ranges
/// that own the hubs are narrow, or by id on the compact store.
struct ParPlane {
    pool: Arc<WorkerPool>,
    workers: Vec<WorkerArena>,
    ranges: Vec<RangeArena>,
    /// Node-id boundaries of the receiver ranges (`threads + 1`): range
    /// `j` owns receivers `ncuts[j]..ncuts[j + 1]`.
    ncuts: Vec<usize>,
    /// Unit cuts `[0, 1, .., threads]` for one-slot-per-lane splits.
    ucuts: Vec<usize>,
    /// Per-round visit-list shard boundaries.
    vcuts: Vec<usize>,
    /// Per-round program-slice boundaries aligned to the visit shards.
    pcuts: Vec<usize>,
    /// Per-round scatter-buffer boundaries aligned to the receiver ranges.
    dcuts: Vec<usize>,
}

impl ParPlane {
    /// A plane of `pool.threads()` lanes; call [`ParPlane::fit`] before its
    /// first round.
    fn new(pool: Arc<WorkerPool>) -> Self {
        let t = pool.threads();
        ParPlane {
            workers: (0..t)
                .map(|_| WorkerArena {
                    buckets: (0..t).map(|_| Vec::new()).collect(),
                    ..WorkerArena::default()
                })
                .collect(),
            ranges: (0..t).map(|_| RangeArena::default()).collect(),
            ncuts: Vec::with_capacity(t + 1),
            ucuts: (0..=t).collect(),
            vcuts: Vec::with_capacity(t + 1),
            pcuts: Vec::with_capacity(t + 1),
            dcuts: Vec::with_capacity(t + 1),
            pool,
        }
    }

    /// Cuts the receiver ranges for `topo` and grows every lane's per-port
    /// flags to its maximum degree.
    fn fit(&mut self, topo: &Topology<'_>) {
        fill_receiver_cuts(&mut self.ncuts, topo, self.workers.len());
        let max_deg = topo.max_degree();
        for w in &mut self.workers {
            if w.sent.len() < max_deg {
                w.sent.resize(max_deg, false);
            }
        }
    }
}

/// The result of [`Simulator::run_until_quiet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietOutcome {
    /// Rounds executed by this call.
    pub rounds: u64,
    /// Whether the run ended because the network went quiet (no messages in
    /// flight and every program idle). `false` means `max_rounds` was
    /// exhausted first — previously indistinguishable from quiescence.
    pub quiescent: bool,
}

/// One receiver's span in the flat inbox arena: `inbox_data[start ..
/// start + len]`. Packed to 8 bytes so the per-visit metadata lookup is a
/// single cache line instead of the two a separate `Vec<usize>` +
/// `Vec<u32>` pair cost — on million-node runs these lookups are random
/// access and miss every time. `start` fits `u32` because a single round
/// cannot stage `> u32::MAX` deliveries (asserted in the counting pass).
#[derive(Debug, Clone, Copy, Default)]
struct InboxRange {
    start: u32,
    len: u32,
}

/// The graph-independent working state of a [`Simulator`]: the n-sized
/// per-node arrays, the message and staging arenas, the visit and timer
/// scratch, and the lane planes rounds are sharded over.
///
/// A [`Simulator::new`] run owns a fresh arena. A driver that runs many
/// simulations back to back over one graph (the stages of a spanner build)
/// keeps one arena instead: each run is [installed](Simulator::install)
/// into it and hands it back through [`Simulator::into_parts`] with its
/// capacities kept (message buffers cut back to O(n)), so no stage pays
/// for allocating, faulting in, or freeing the plane again. See the
/// crate-level "Arena lifecycle" notes.
#[derive(Default)]
pub struct SimArena {
    /// Flat arena of messages to deliver in the *upcoming* round, grouped by
    /// receiver via `inbox_ranges`.
    inbox_data: Vec<Incoming>,
    /// Scratch arena the next round's deliveries are scattered into; swapped
    /// with `inbox_data` at the end of every step.
    next_data: Vec<Incoming>,
    /// `inbox_ranges[v]`: `v`'s range in `inbox_data`. Invariants: `len` is
    /// zero for every `v` not in `msg_active`; `start` is only meaningful
    /// for `v` in `msg_active`.
    inbox_ranges: Vec<InboxRange>,
    /// Receivers with a non-empty inbox this upcoming round, ascending.
    msg_active: Vec<u32>,
    /// Nodes that reported `!is_idle()` at their last visit, ascending.
    nonidle: Vec<u32>,
    /// Scratch: per-receiver staged-message counts; all-zero between steps.
    count: Vec<u32>,
    /// This round's visit list (the last executed round's between steps).
    visit: Vec<u32>,
    /// Timer wheel: wake round → nodes with a registered timed wake-up
    /// ([`NodeProgram::next_wake`]) at that round. Entries are popped into
    /// the visit list when their round arrives. Each per-round list is a
    /// concatenation of ascending runs (one per registering round), so
    /// `build_visit` sorts + dedups the due nodes.
    timers: BTreeMap<u64, Vec<u32>>,
    /// `timer_armed[v]`: the wake round currently registered for `v`
    /// (`u64::MAX` = none). Prevents a node that is visited repeatedly
    /// while holding the same appointment from flooding the wheel with
    /// duplicates. A slot is cleared when its timer fires and when the
    /// wheel is emptied ([`SimArena::disarm_timers`]), so it is `u64::MAX`
    /// for every node without a pending wheel entry — which is what lets a
    /// later install, whose rounds restart at 0, arm the same rounds again.
    timer_armed: Vec<u64>,
    /// Scratch: nodes whose timers fire this round, sorted + deduped.
    due: Vec<u32>,
    /// Scratch: msg_active ∪ nonidle when `due` is non-empty (the 3-way
    /// union is built as two 2-way merges).
    visit_pre: Vec<u32>,
    /// The attached pool's lane plane, built by [`Simulator::set_pool`] and
    /// kept for the next install on the same pool.
    par: Option<ParPlane>,
    /// The one-lane plane every other round runs on, built by the first
    /// run and kept from then on.
    lane: Option<ParPlane>,
}

impl SimArena {
    /// An empty arena; every buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the arena for a run over `topo`. Messages still in flight
    /// when the previous run stopped are dropped and its pending wake-ups
    /// disarmed, in O(leftover); the n-sized arrays are rebuilt only when
    /// `n` changes.
    fn reset(&mut self, topo: &Topology<'_>) {
        let n = topo.num_vertices();
        for &r in &self.msg_active {
            self.inbox_ranges[r as usize].len = 0;
        }
        self.msg_active.clear();
        // The receiver list never holds more than `n` ids, so the rounds
        // that rebuild it never reallocate.
        self.msg_active.reserve(n);
        self.nonidle.clear();
        self.disarm_timers();
        if self.inbox_ranges.len() != n {
            self.inbox_ranges.clear();
            self.inbox_ranges.resize(n, InboxRange::default());
            self.count.clear();
            self.count.resize(n, 0);
            self.timer_armed.clear();
            self.timer_armed.resize(n, u64::MAX);
        }
        self.lane
            .get_or_insert_with(|| ParPlane::new(Arc::new(WorkerPool::new(1))))
            .fit(topo);
    }

    /// Cuts every message buffer back to at most `n` slots (split evenly
    /// over each plane's lane buckets); the dropped slots hold no live
    /// message once the run is over.
    fn trim(&mut self, n: usize) {
        fn cap<T>(v: &mut Vec<T>, slots: usize) {
            if v.capacity() > slots {
                v.truncate(slots);
                v.shrink_to(slots);
            }
        }
        cap(&mut self.inbox_data, n);
        cap(&mut self.next_data, n);
        for plane in self.par.iter_mut().chain(self.lane.iter_mut()) {
            let lanes = plane.workers.len();
            for w in &mut plane.workers {
                for bucket in &mut w.buckets {
                    cap(bucket, n / (lanes * lanes));
                }
            }
        }
    }

    /// Empties the timer wheel, clearing the armed slot of every node that
    /// still held an appointment — O(pending wake-ups), not O(n).
    fn disarm_timers(&mut self) {
        for nodes in std::mem::take(&mut self.timers).into_values() {
            for v in nodes {
                self.timer_armed[v as usize] = u64::MAX;
            }
        }
    }
}

impl std::fmt::Debug for SimArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArena")
            .field("nodes", &self.inbox_ranges.len())
            .field("message_capacity", &self.inbox_data.capacity())
            .field("lanes", &self.par.as_ref().map_or(1, |p| p.pool.threads()))
            .finish_non_exhaustive()
    }
}

/// Holds one [`NodeProgram`] per vertex and delivers messages with exactly
/// one round of latency. See the crate-level docs for an example and for the
/// arena / active-set design notes.
///
/// Programs must be `Send`: any round may be executed on a worker-pool lane
/// ([`Simulator::set_pool`]), so program state moves between threads. Every
/// protocol in this workspace is plain data and satisfies this
/// automatically; a non-`Send` program (e.g. one holding an `Rc`) could
/// not run on a pool's lanes by construction.
pub struct Simulator<'g, P> {
    /// The adjacency plane: borrowed flat CSR or shared compact store.
    topo: Topology<'g>,
    /// Vertex count, cached off the topology.
    n: usize,
    programs: Vec<P>,
    /// The message plane and scheduler state (see [`SimArena`]).
    arena: SimArena,
    /// Visit all nodes next step (fresh simulator, or programs mutated from
    /// outside via [`Simulator::programs_mut`]).
    wake_all: bool,
    /// Whether rounds may be sharded over the attached pool's lane plane
    /// (see [`Simulator::set_pool`]).
    pooled: bool,
    round: u64,
    stats: RunStats,
    /// Optional round-by-round transcript (see [`crate::trace`]).
    transcript: Option<Transcript>,
    /// Minimum visit-list length for a round to run on the pool's lanes
    /// (see [`Simulator::set_par_threshold`]).
    par_threshold: usize,
    /// Minimum degree for `send_all` to stage a broadcast record (see
    /// [`Simulator::set_bcast_threshold`]).
    bcast_threshold: usize,
    /// Whether the run loops may bulk-advance the clock over provably
    /// eventless rounds (see [`Simulator::set_fast_forward`]).
    fast_forward: bool,
}

/// Default [`Simulator::set_par_threshold`] value: rounds visiting fewer
/// nodes than this run on one lane even with a pool attached, because the
/// cross-thread dispatch latency (a few microseconds per round) dwarfs the
/// work in a near-empty round — e.g. a flood on a path graph has an O(1)
/// frontier for ~n rounds. Output is bit-identical either way.
pub const DEFAULT_PAR_THRESHOLD: usize = 1024;

impl<'g, P: NodeProgram + Send> Simulator<'g, P> {
    /// Creates a simulator for `graph` with one program per vertex.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != graph.num_vertices()`.
    pub fn new(graph: &'g Graph, programs: Vec<P>) -> Self {
        Self::with_arena(Topology::Flat(graph), programs, SimArena::new(), None)
    }

    /// Installs `programs` for `graph` into a kept `arena` (see
    /// [`SimArena`]) — one stage of a multi-stage build. The run's clock
    /// starts at round 0 and its accounting at zero, exactly as on a fresh
    /// simulator; [`Simulator::into_parts`] hands the arena back.
    ///
    /// Unlike [`Simulator::new`], the first round is **not** a full
    /// wake-up: it visits only the `initial` nodes (any order, duplicates
    /// allowed) — the stage's declared spontaneous actors, such as the
    /// centers that open Algorithm 1 or the roots of a BFS forest. Every
    /// other program must be idle, hold no [`NodeProgram::next_wake`]
    /// appointment, and treat a round-0 visit with an empty inbox as a
    /// no-op; it is then first visited when a message reaches it, and the
    /// run is indistinguishable from a full wake-up (asserted for the idle
    /// half in debug builds). A stage whose `initial` set is empty costs
    /// O(1) rounds of work, however large the graph.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != graph.num_vertices()` or an `initial`
    /// node is out of range.
    pub fn install(graph: &'g Graph, programs: Vec<P>, initial: &[usize], arena: SimArena) -> Self {
        Self::with_arena(Topology::Flat(graph), programs, arena, Some(initial))
    }

    /// Ends the run, returning the node programs and the arena for the next
    /// [`Simulator::install`]. Capacities are kept, except that a message
    /// buffer a burst grew past one slot per node is cut back to that size:
    /// a kept arena holds O(n) memory, not the peak of every earlier stage.
    pub fn into_parts(mut self) -> (Vec<P>, SimArena) {
        self.arena.trim(self.n);
        (self.programs, self.arena)
    }

    /// Creates a simulator whose adjacency reads come from the delta/varint
    /// [`CompactGraph`] store — no flat CSR and no reverse-port table are
    /// ever materialized. Transcripts, stats, and program states are
    /// bit-identical to a flat-store run over the same topology (pinned by
    /// the `compact_store` differential tests).
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != store.num_vertices()`.
    pub fn new_compact(store: Arc<CompactGraph>, programs: Vec<P>) -> Simulator<'static, P> {
        Simulator::with_arena(Topology::Compact(store), programs, SimArena::new(), None)
    }

    /// `initial = None` arms the full first-round wake-up.
    fn with_arena(
        topo: Topology<'g>,
        programs: Vec<P>,
        mut arena: SimArena,
        initial: Option<&[usize]>,
    ) -> Self {
        let n = topo.num_vertices();
        assert_eq!(programs.len(), n, "need exactly one program per vertex");
        arena.reset(&topo);
        if let Some(initial) = initial {
            for &v in initial {
                assert!(v < n, "initial node {v} out of range");
                arena.nonidle.push(v as u32);
            }
            arena.nonidle.sort_unstable();
            arena.nonidle.dedup();
            debug_assert!(
                {
                    let mut declared = arena.nonidle.iter().peekable();
                    programs.iter().enumerate().all(|(v, p)| {
                        if declared.next_if_eq(&&(v as u32)).is_some() {
                            true
                        } else {
                            p.is_idle() && p.next_wake().is_none()
                        }
                    })
                },
                "a node outside the declared initial set is not idle"
            );
        }
        Simulator {
            topo,
            n,
            programs,
            arena,
            wake_all: initial.is_none(),
            pooled: false,
            round: 0,
            stats: RunStats::new(),
            transcript: None,
            par_threshold: DEFAULT_PAR_THRESHOLD,
            bcast_threshold: DEFAULT_BCAST_THRESHOLD,
            fast_forward: true,
        }
    }

    /// Attaches a worker pool: from now on every [`step`](Simulator::step)
    /// that visits enough nodes ([`Simulator::set_par_threshold`]) is
    /// sharded over `pool`'s lanes instead of running on one lane. Both run
    /// the same round code, and transcripts, stats, and program states are
    /// **bit-identical** at every lane count — see the crate-level
    /// "Determinism under parallelism" notes for the argument.
    ///
    /// All per-lane arenas are allocated here (and grown during warm-up
    /// rounds); the steady-state round stays zero-allocation, pool or not
    /// (pinned by `tests/zero_alloc.rs`). An installed simulator whose
    /// arena already carries the lane plane of this very pool keeps it.
    /// The receiver ranges are cut here, for the current topology: at
    /// equal shares of in-arcs on the flat store, by id on the compact one
    /// (a later [`Simulator::set_compact`] keeps the flat cuts).
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pooled = true;
        let par = match self.arena.par.take() {
            Some(par) if Arc::ptr_eq(&par.pool, &pool) => par,
            _ => ParPlane::new(pool),
        };
        self.arena.par.insert(par).fit(&self.topo);
    }

    /// Detaches the worker pool; subsequent steps run on one lane.
    pub fn clear_pool(&mut self) {
        self.pooled = false;
    }

    /// Sets the minimum visit-list length for a round to be sharded over
    /// the attached pool (default [`DEFAULT_PAR_THRESHOLD`]). Rounds below
    /// it run on one lane — dispatching a handful of nodes to the pool
    /// costs more than visiting them. `0` forces every round onto the pool
    /// (the differential tests do this to exercise shard-boundary edge
    /// cases). The threshold only chooses the lanes a round runs on, never
    /// its output, so it only ever affects wall clock.
    pub fn set_par_threshold(&mut self, threshold: usize) {
        self.par_threshold = threshold;
    }

    /// Sets the minimum degree at which [`RoundCtx::send_all`] stages a
    /// broadcast record instead of per-port tuples (default
    /// [`DEFAULT_BCAST_THRESHOLD`]; clamped to at least 1). Both paths are
    /// delivery-identical, so this only ever affects wall clock — the
    /// differential tests force it to `1` to exercise the record path on
    /// every broadcast.
    pub fn set_bcast_threshold(&mut self, threshold: usize) {
        self.bcast_threshold = threshold;
    }

    /// Enables or disables round fast-forward (default **on**).
    ///
    /// With fast-forward on, the run loops ([`Simulator::run_rounds`],
    /// [`Simulator::run_until_quiet`] and their observed variants)
    /// bulk-advance the clock over *provably eventless* rounds: spans where
    /// no message is in flight and no program is non-idle, so the only
    /// possible future activity is a timer-wheel appointment
    /// ([`NodeProgram::next_wake`]). The CONGEST model only charges for
    /// rounds in which messages move, and an eventless round executes as a
    /// no-op (empty visit list, zero messages, an empty-delivery transcript
    /// record that is a pure function of the round number) — so skipping
    /// the span is **observationally identical** to executing it round by
    /// round: final round numbers, [`RunStats`] (except the informational
    /// [`RunStats::skipped_rounds`] counter), transcripts, and program
    /// states are all bit-for-bit the same, at every thread count (the skip
    /// decision is taken before a round picks the lanes it runs on, so one
    /// lane and many lanes see identical rounds).
    ///
    /// Round observers see skipped spans through
    /// [`RoundObserver::on_rounds_skipped`] instead of per-round
    /// [`RoundObserver::on_round`] calls — no per-round event fires for a
    /// round that provably carries no activity — and can bound each span
    /// via [`RoundObserver::skip_allowance`] so metered cancellation lands
    /// on the same global round as a non-skipping run.
    ///
    /// [`RoundObserver::on_rounds_skipped`]: crate::RoundObserver::on_rounds_skipped
    /// [`RoundObserver::on_round`]: crate::RoundObserver::on_round
    /// [`RoundObserver::skip_allowance`]: crate::RoundObserver::skip_allowance
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// The attached worker pool, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.arena
            .par
            .as_ref()
            .filter(|_| self.pooled)
            .map(|p| &p.pool)
    }

    /// Enables transcript recording (see [`crate::trace`]). Call before the
    /// first round; recording from mid-run yields a partial transcript.
    pub fn enable_transcript(&mut self) {
        if self.transcript.is_none() {
            self.transcript = Some(Transcript::new());
        }
    }

    /// The recorded transcript, if recording was enabled.
    pub fn transcript(&self) -> Option<&Transcript> {
        self.transcript.as_ref()
    }

    /// Switches an already-constructed (but not yet stepped) simulator onto
    /// the compact adjacency store. `store` must describe exactly the same
    /// topology as the graph the simulator was built over — this is how
    /// driver code whose protocol entry points take `&Graph` (the staged
    /// spanner engine) opts a run into the compact read path without
    /// changing any signatures (see `RunHooks::attach`).
    ///
    /// # Panics
    ///
    /// Panics if any round has already executed, or if `store`'s vertex
    /// count or maximum degree disagree with the current topology.
    pub fn set_compact(&mut self, store: Arc<CompactGraph>) {
        assert_eq!(
            self.round, 0,
            "set_compact must be called before the first round"
        );
        assert_eq!(
            store.num_vertices(),
            self.n,
            "compact store does not match the simulator's topology"
        );
        assert_eq!(
            store.max_degree(),
            self.topo.max_degree(),
            "compact store does not match the simulator's topology"
        );
        self.topo = Topology::Compact(store);
    }

    /// The underlying flat graph, when this simulator runs on the flat
    /// store (`None` in compact mode).
    pub fn flat_graph(&self) -> Option<&'g Graph> {
        match self.topo {
            Topology::Flat(g) => Some(g),
            Topology::Compact(_) => None,
        }
    }

    /// The compact store, when this simulator runs on it (`None` in flat
    /// mode).
    pub fn compact_store(&self) -> Option<&Arc<CompactGraph>> {
        match &self.topo {
            Topology::Flat(_) => None,
            Topology::Compact(c) => Some(c),
        }
    }

    /// Read access to all node programs (e.g. to harvest results).
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Mutable access to all node programs (e.g. to seed inputs mid-run).
    ///
    /// Mutating a program can make an idle node non-idle behind the
    /// scheduler's back, so this re-arms a full wake-up: the next
    /// [`step`](Simulator::step) visits every node.
    pub fn programs_mut(&mut self) -> &mut [P] {
        self.wake_all = true;
        // Arbitrary state may change behind the scheduler's back, so any
        // registered appointments are meaningless; the full wake-up
        // revisits everyone, and still-relevant wakes re-register there.
        self.arena.disarm_timers();
        &mut self.programs
    }

    /// Consumes the simulator, returning the node programs.
    pub fn into_programs(self) -> Vec<P> {
        self.programs
    }

    /// Accumulated cost accounting.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether any message is currently in flight (to be delivered next
    /// round). `msg_active` lists exactly the receivers with a non-empty
    /// inbox range (`inbox_data` itself is a grow-only arena whose length
    /// exceeds the live prefix).
    pub fn has_pending_messages(&self) -> bool {
        !self.arena.msg_active.is_empty()
    }

    /// Number of nodes the next [`step`](Simulator::step) will visit: the
    /// union of the nodes with mail, the non-idle nodes and the nodes whose
    /// timed wake-up is due, each counted once.
    pub fn active_nodes(&self) -> usize {
        if self.wake_all {
            return self.n;
        }
        // Count the union of the two sorted lists without materializing it.
        let (a, b) = (&self.arena.msg_active, &self.arena.nonidle);
        let (mut i, mut j, mut out) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
            out += 1;
        }
        // Due wake-ups may repeat a node and may coincide with the lists
        // above (`build_visit` sorts and dedups them the same way).
        let mut due: Vec<u32> = self
            .arena
            .timers
            .range(..=self.round)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        due.sort_unstable();
        due.dedup();
        due.retain(|v| a.binary_search(v).is_err() && b.binary_search(v).is_err());
        out + (a.len() - i) + (b.len() - j) + due.len()
    }

    /// Whether the network is quiet: no messages in flight, every program
    /// idle, and no timed wake-up pending. O(active set + timer wheel),
    /// except after [`Simulator::programs_mut`] (full scan, since arbitrary
    /// state may have changed).
    pub fn is_quiescent(&self) -> bool {
        self.arena.msg_active.is_empty()
            && self.arena.timers.is_empty()
            && if self.wake_all {
                self.programs
                    .iter()
                    .all(|p| p.is_idle() && p.next_wake().is_none())
            } else {
                self.arena.nonidle.is_empty()
            }
    }

    /// Executes exactly one synchronous round.
    ///
    /// Performs no heap allocation once all scratch buffers have reached
    /// their steady-state capacities (pinned by `tests/zero_alloc.rs`).
    /// Every round runs the same sharded round code: on the attached
    /// pool's lanes ([`Simulator::set_pool`]) when it visits enough nodes
    /// ([`Simulator::set_par_threshold`]), otherwise on one lane, with
    /// identical observable behavior.
    pub fn step(&mut self) {
        self.build_visit();
        let pooled = self.pooled && self.arena.visit.len() >= self.par_threshold;
        // Resolve the adjacency plane once per round and monomorphize the
        // round over it (no per-neighbor dispatch). The flat adapter
        // copies `'g` borrows out of the topology; the compact adapter
        // clones the `Arc` — both outlive the `&mut self` round call.
        match &self.topo {
            Topology::Flat(g) => self.step_impl(&FlatAdj::new(g), pooled),
            Topology::Compact(c) => self.step_impl(
                &CompactAdj {
                    store: Arc::clone(c),
                },
                pooled,
            ),
        }
    }

    /// Builds this round's visit list: everyone on wake-up, otherwise the
    /// union of message receivers, self-reported non-idle nodes, and nodes
    /// whose timed wake-up is due, all sorted ascending —
    /// receiver-ascending digest order is part of the determinism contract.
    fn build_visit(&mut self) {
        let n = self.n;
        let a = &mut self.arena;
        a.visit.clear();
        // Pop every timer at or before this round (normally exactly this
        // round: earlier keys were popped by earlier steps). Also done on a
        // full wake-up, where the entries are redundant. A fired node's
        // armed slot is cleared unless it already holds a later round.
        a.due.clear();
        while let Some(entry) = a.timers.first_entry() {
            if *entry.key() > self.round {
                break;
            }
            let (fired, nodes) = entry.remove_entry();
            for &v in &nodes {
                if a.timer_armed[v as usize] == fired {
                    a.timer_armed[v as usize] = u64::MAX;
                }
            }
            a.due.extend_from_slice(&nodes);
        }
        if self.wake_all {
            self.wake_all = false;
            a.visit.extend(0..n as u32);
            return;
        }
        if a.due.is_empty() {
            merge_sorted(&mut a.visit, &a.msg_active, &a.nonidle);
        } else {
            // Per-round timer lists are concatenations of ascending runs
            // and may repeat a node across rounds; normalize, then fold the
            // 3-way union as two 2-way merges.
            a.due.sort_unstable();
            a.due.dedup();
            a.visit_pre.clear();
            merge_sorted(&mut a.visit_pre, &a.msg_active, &a.nonidle);
            merge_sorted(&mut a.visit, &a.visit_pre, &a.due);
        }
    }

    /// The round (visit list already built by `step`), sharded over the
    /// attached pool's plane when `pooled` and over the arena's one-lane
    /// plane otherwise, and monomorphized over the adjacency store.
    /// Bit-identical at every lane count — see the crate-level "Determinism
    /// under parallelism" notes for why contiguous shards preserve the
    /// sender-ascending delivery order and the receiver-ascending digest
    /// order. On the compact store, staged `from_port` fields carry sender
    /// ids, converted to ports per receiver range between scatter and merge
    /// (see [`AdjAccess`]).
    fn step_impl<A: AdjAccess>(&mut self, adj: &A, pooled: bool) {
        let n = self.n;

        // Phase 0 (on the calling thread): the delivery digest. It folds
        // `(receiver, port, words)` in receiver-ascending, sender-ascending
        // order — a pure function of the *previous* round's scatter, so it
        // does not depend on this round's sharding at all. Only
        // materialized when transcripts are enabled.
        let mut digest = self.transcript.is_some().then(RoundDigest::new);
        if let Some(d) = digest.as_mut() {
            for &v in &self.arena.visit {
                let v = v as usize;
                let rg = self.arena.inbox_ranges[v];
                if rg.len != 0 {
                    let start = rg.start as usize;
                    for inc in &self.arena.inbox_data[start..start + rg.len as usize] {
                        d.absorb(v as u64, inc.from_port as u64, inc.msg.words());
                    }
                }
            }
        }

        let bcast_threshold = self.bcast_threshold;
        // Split-borrow the simulator so the phases below can hand disjoint
        // &mut pieces to the pool while sharing the read-only plane.
        let Simulator {
            programs,
            arena:
                SimArena {
                    inbox_data,
                    next_data,
                    inbox_ranges,
                    msg_active,
                    nonidle,
                    count,
                    visit,
                    timers,
                    timer_armed,
                    par,
                    lane,
                    ..
                },
            round,
            stats,
            transcript,
            ..
        } = self;
        let visit: &[u32] = visit;
        let round_now = *round;
        let plane = if pooled { par } else { lane };
        let ParPlane {
            pool,
            workers,
            ranges,
            ncuts,
            ucuts,
            vcuts,
            pcuts,
            dcuts,
        } = plane
            .as_mut()
            .expect("reset builds the one-lane plane and set_pool the pooled one");
        let pool: &WorkerPool = pool;
        let t = pool.threads();
        let ncuts: &[usize] = ncuts;
        let ucuts: &[usize] = ucuts;

        // Per-round cuts. `vcuts` shards the sorted visit list by *visit
        // cost* (1 + inbox length) rather than node count, so a node with
        // a long inbox does not serialize its lane while the others idle
        // (a hub's `send_all` stages one record per receiver range, not
        // one per neighbor, so its degree is not a visit cost). `pcuts`
        // aligns program-slice boundaries to the smallest node id of each
        // shard (visit ids are strictly ascending, so the shards' id
        // ranges are disjoint and ordered). Cut placement never affects
        // transcripts, only wall clock.
        {
            let inbox_ranges: &[InboxRange] = inbox_ranges;
            nas_par::fill_balanced_cuts_weighted(vcuts, visit.len(), t, |i| {
                1 + u64::from(inbox_ranges[visit[i] as usize].len)
            });
        }
        pcuts.clear();
        pcuts.push(0);
        for i in 1..t {
            let lo = if vcuts[i] < visit.len() {
                visit[vcuts[i]] as usize
            } else {
                n
            };
            let prev = *pcuts.last().expect("pcuts is non-empty");
            pcuts.push(lo.max(prev));
        }
        pcuts.push(n);
        let vcuts: &[usize] = vcuts;
        let pcuts: &[usize] = pcuts;

        // Phase A (parallel over visit shards): each lane runs its shard's
        // node programs against the shared read-only inbox plane and stages
        // sends into its own per-receiver-range buckets. Within a lane the
        // stage order is the shard's visit order (sender-ascending); lanes
        // cover ascending sender ranges, so "lane order, then local order"
        // is the global sender-ascending order at every lane count.
        {
            let inbox_data: &[Incoming] = inbox_data;
            let inbox_ranges: &[InboxRange] = inbox_ranges;
            nas_par::for_each_part_mut2(
                pool,
                programs.as_mut_slice(),
                pcuts,
                workers.as_mut_slice(),
                ucuts,
                |w, progs, arena| {
                    let arena = &mut arena[0];
                    arena.words = 0;
                    arena.staged = 0;
                    arena.nonidle.clear();
                    arena.wakes.clear();
                    for bucket in arena.buckets.iter_mut() {
                        bucket.clear();
                    }
                    let base = pcuts[w];
                    for &vu in &visit[vcuts[w]..vcuts[w + 1]] {
                        let v = vu as usize;
                        let neighbors = adj.adj(v, &mut arena.adj);
                        let deg = neighbors.len();
                        let sent = &mut arena.sent[..deg];
                        sent.fill(false);
                        arena.outbox.clear();

                        // `start` is stale for nodes outside `msg_active`,
                        // so gate on the length (zero for every such node).
                        let rg = inbox_ranges[v];
                        let len = rg.len as usize;
                        let inbox: &[Incoming] = if len == 0 {
                            &[]
                        } else {
                            let start = rg.start as usize;
                            &inbox_data[start..start + len]
                        };

                        let mut ctx = RoundCtx::new(
                            v,
                            n,
                            round_now,
                            neighbors,
                            inbox,
                            &mut arena.outbox,
                            sent,
                            bcast_threshold,
                        );
                        progs[v - base].round(&mut ctx);

                        for k in 0..arena.outbox.len() {
                            let (port, msg) = arena.outbox[k];
                            if port == BCAST_PORT {
                                // Stage one broadcast record in every
                                // receiver range the hub's (sorted) neighbor
                                // list intersects — the degree-bucketed
                                // broadcast tree. Ranges expand it against
                                // their slice of the neighbor list in the
                                // counting/scatter phases.
                                let mut lo = 0usize;
                                while lo < deg {
                                    let j = range_of(ncuts, neighbors[lo]);
                                    let end = ncuts[j + 1];
                                    lo += neighbors[lo..].partition_point(|&u| (u as usize) < end);
                                    arena.buckets[j]
                                        .push((BCAST_RECV, Incoming { from_port: vu, msg }));
                                }
                                arena.words += (msg.len() * deg) as u64;
                                arena.staged += deg as u64;
                            } else {
                                let u = neighbors[port as usize];
                                let from_port = if A::DEFERRED_PORTS {
                                    vu
                                } else {
                                    adj.rev_port(v, port as usize)
                                };
                                arena.buckets[range_of(ncuts, u)]
                                    .push((u, Incoming { from_port, msg }));
                                arena.words += msg.len() as u64;
                                arena.staged += 1;
                            }
                        }
                        if !progs[v - base].is_idle() {
                            arena.nonidle.push(vu);
                        } else if let Some(w) = progs[v - base].next_wake() {
                            arena.wakes.push((vu, w));
                        }
                    }
                },
            );
        }

        // Phase B (parallel over receiver ranges): each lane lays out its
        // own node-id range. It retires the range's consumed inboxes,
        // counts the staged messages landing in the range (walking every
        // sender lane's bucket for it), lists the touched receivers in id
        // order, and gives each a range-local start, zeroing its counter.
        {
            let workers_ro: &[WorkerArena] = workers;
            let msg_active: &[u32] = msg_active;
            nas_par::for_each_part_mut3(
                pool,
                count.as_mut_slice(),
                ncuts,
                inbox_ranges.as_mut_slice(),
                ncuts,
                ranges.as_mut_slice(),
                ucuts,
                |j, count_part, rng_part, range| {
                    let range = &mut range[0];
                    let (lo, hi) = (ncuts[j], ncuts[j + 1]);
                    let a = msg_active.partition_point(|&r| (r as usize) < lo);
                    let b = msg_active.partition_point(|&r| (r as usize) < hi);
                    for &r in &msg_active[a..b] {
                        rng_part[r as usize - lo].len = 0;
                    }
                    range.touched.clear();
                    let (lo, hi) = (lo as u32, hi as u32);
                    for arena in workers_ro {
                        for &(u, inc) in &arena.buckets[j] {
                            if u == BCAST_RECV {
                                // Broadcast record: count the sender's
                                // neighbors inside this range.
                                let nb = adj.adj(inc.from_port as usize, &mut range.adj);
                                let a = nb.partition_point(|&x| x < lo);
                                let b = nb.partition_point(|&x| x < hi);
                                for &u2 in &nb[a..b] {
                                    let idx = (u2 - lo) as usize;
                                    if count_part[idx] == 0 {
                                        range.touched.push(u2);
                                    }
                                    count_part[idx] += 1;
                                }
                            } else {
                                let idx = (u - lo) as usize;
                                if count_part[idx] == 0 {
                                    range.touched.push(u);
                                }
                                count_part[idx] += 1;
                            }
                        }
                    }
                    // Lay the range out while listing it: a dense range
                    // scans its counters, a sparse one sorts `touched`.
                    let mut acc = 0usize;
                    let mut place = |idx: usize, c: &mut u32| {
                        rng_part[idx].start = acc as u32;
                        acc += *c as usize;
                        *c = 0;
                    };
                    if range.touched.len() * DENSE_RANGE >= count_part.len() {
                        range.touched.clear();
                        for (idx, c) in count_part.iter_mut().enumerate() {
                            if *c != 0 {
                                range.touched.push(lo + idx as u32);
                                place(idx, c);
                            }
                        }
                    } else {
                        range.touched.sort_unstable();
                        for &r in &range.touched {
                            let idx = (r - lo) as usize;
                            place(idx, &mut count_part[idx]);
                        }
                    }
                    range.total = acc;
                },
            );
        }

        // Phase C (on the calling thread): concatenating the per-range
        // receiver lists in range order *is* the globally sorted receiver
        // list, and the ranges' totals place each range's span of the
        // delivery buffer, so every global start is the same at every lane
        // count.
        msg_active.clear();
        dcuts.clear();
        let mut acc = 0usize;
        for range in ranges.iter() {
            dcuts.push(acc);
            msg_active.extend_from_slice(&range.touched);
            acc += range.total;
        }
        dcuts.push(acc);
        // Truncated range-local `start` writes above are only read by the
        // scatter below, so this assert precedes every such read.
        assert!(
            acc <= u32::MAX as usize,
            "a single round staged more than u32::MAX deliveries"
        );
        // The swap buffer is grow-only: the scatter below writes every slot
        // of `[0, acc)`, and slots past `acc` are never read (all reads go
        // through `inbox_ranges`), so the placeholder fill is paid once at
        // peak size instead of every round, shared over the lanes.
        nas_par::grow(
            pool,
            next_data,
            acc,
            Incoming {
                from_port: 0,
                msg: Msg::one(0),
            },
        );
        // The previous non-idle set was consumed by `build_visit`; the
        // lanes' lists concatenate into the next one, ascending.
        nonidle.clear();
        let mut sent_this_round = 0u64;
        for arena in workers.iter() {
            nonidle.extend_from_slice(&arena.nonidle);
            stats.words += arena.words;
            sent_this_round += arena.staged;
            // Register this lane's timed wake-ups: the node went idle with
            // an appointment. Past/present rounds are ignored per the
            // contract, and `timer_armed` suppresses exact re-registrations
            // from intermediate message-driven visits. The wheel's contents
            // are a pure function of program states, so the lane count
            // cannot change them.
            for &(v, w) in &arena.wakes {
                if w > round_now && timer_armed[v as usize] != w {
                    timer_armed[v as usize] = w;
                    timers.entry(w).or_default().push(v);
                }
            }
        }
        debug_assert_eq!(acc as u64, sent_this_round);
        let dcuts: &[usize] = dcuts;

        // Phase D (parallel over receiver ranges): stable scatter. Each lane
        // owns the scatter-buffer span of its receiver range and walks the
        // sender lanes' buckets for that range *in lane order*, so every
        // inbox fills sender-ascending at every lane count. Broadcast
        // records expand against the sender's neighbor slice restricted to
        // the range, at their staged position, so delivery order matches
        // eager per-port staging exactly. After
        // scattering, each lane merges its own receivers' ranges in place
        // (see [`crate::msg`]); the merge result is a pure function of the
        // staged message set, so it is thread-count independent. Each
        // range's `len` doubles as the per-receiver fill cursor and ends at
        // its final (post-merge) value, and its range-local `start` turns
        // global last.
        let merged_total = AtomicU64::new(0);
        {
            let workers_ro: &[WorkerArena] = workers;
            let merged_total = &merged_total;
            nas_par::for_each_part_mut3(
                pool,
                &mut next_data[..acc],
                dcuts,
                inbox_ranges.as_mut_slice(),
                ncuts,
                ranges.as_mut_slice(),
                ucuts,
                |j, data_part, rng_part, range| {
                    let range = &mut range[0];
                    let lo = ncuts[j];
                    let hi = ncuts[j + 1];
                    for arena in workers_ro {
                        for &(u, inc) in &arena.buckets[j] {
                            if u == BCAST_RECV {
                                let s = inc.from_port as usize;
                                let nb = adj.adj(s, &mut range.adj);
                                let a = nb.partition_point(|&x| (x as usize) < lo);
                                let b = nb.partition_point(|&x| (x as usize) < hi);
                                for (off, &u2) in nb[a..b].iter().enumerate() {
                                    let from_port = if A::DEFERRED_PORTS {
                                        s as u32
                                    } else {
                                        adj.rev_port(s, a + off)
                                    };
                                    let rg = &mut rng_part[u2 as usize - lo];
                                    data_part[(rg.start + rg.len) as usize] = Incoming {
                                        from_port,
                                        msg: inc.msg,
                                    };
                                    rg.len += 1;
                                }
                            } else {
                                let rg = &mut rng_part[u as usize - lo];
                                data_part[(rg.start + rg.len) as usize] = inc;
                                rg.len += 1;
                            }
                        }
                    }
                    // Conversion pass (compact store only): resolve deferred
                    // sender ids to receiver-side ports before merging, so
                    // merge tie-breaks and next round's digests see exactly
                    // the flat store's values.
                    if A::DEFERRED_PORTS {
                        for &r in &range.touched {
                            let rg = rng_part[r as usize - lo];
                            let start = rg.start as usize;
                            let nb = adj.adj(r as usize, &mut range.adj);
                            convert_deferred_ports(
                                &mut data_part[start..start + rg.len as usize],
                                nb,
                            );
                        }
                    }
                    let base = dcuts[j] as u32;
                    let mut merged_here = 0u64;
                    for &r in &range.touched {
                        let rg = &mut rng_part[r as usize - lo];
                        let (start, len) = (rg.start as usize, rg.len as usize);
                        if len > 1 {
                            let new_len = merge_range(&mut data_part[start..start + len]);
                            merged_here += (len - new_len) as u64;
                            rg.len = new_len as u32;
                        }
                        rg.start += base;
                    }
                    if merged_here != 0 {
                        merged_total.fetch_add(merged_here, Ordering::Relaxed);
                    }
                },
            );
        }

        // Phase E (on the calling thread): account and swap the double
        // buffers.
        stats.messages += sent_this_round;
        stats.merged_messages += merged_total.into_inner();
        std::mem::swap(inbox_data, next_data);

        if let (Some(tr), Some(d)) = (transcript.as_mut(), digest) {
            tr.push(d.finish(round_now));
        }
        *round += 1;
        stats.rounds += 1;
        // Per-round accounting is send-round attributed, matching
        // `stats.messages` / `stats.words` (which are charged when a message
        // is sent, not when it is delivered one round later).
        stats.busiest_round_messages = stats.busiest_round_messages.max(sent_this_round);
    }

    /// Bulk-advances the clock over a span of provably eventless rounds,
    /// returning the span length (0 when nothing can be skipped).
    ///
    /// A skip is taken only when `fast_forward` is on, no full wake-up is
    /// pending, no message is in flight, and no program reported non-idle —
    /// then every round strictly before the timer wheel's first key is
    /// eventless by construction. The span is clamped to `limit` (the run's
    /// round bound) and to `allowance` rounds (the observer's metering
    /// window). With an empty timer wheel the network is dead: callers that
    /// must still detect quiescence per round pass `require_timer = true`
    /// (no skip without an actual appointment), while bounded-run callers
    /// pass `false` and skip straight to `limit`.
    ///
    /// Executing an eventless round only pushes an empty-delivery
    /// transcript record (a pure function of the round number) and bumps
    /// the round counters; this helper does exactly that for every skipped
    /// round, so a skipping run is bit-identical to a non-skipping one.
    fn fast_forward_to(&mut self, limit: u64, allowance: u64, require_timer: bool) -> u64 {
        if !self.fast_forward
            || self.wake_all
            || !self.arena.msg_active.is_empty()
            || !self.arena.nonidle.is_empty()
        {
            return 0;
        }
        let target = match self.arena.timers.keys().next() {
            Some(&w) => w.min(limit),
            None if require_timer => return 0,
            None => limit,
        };
        let target = target.min(self.round.saturating_add(allowance));
        if target <= self.round {
            return 0;
        }
        let skipped = target - self.round;
        if let Some(t) = self.transcript.as_mut() {
            for r in self.round..target {
                t.push(RoundDigest::new().finish(r));
            }
        }
        self.round = target;
        self.stats.rounds += skipped;
        self.stats.skipped_rounds += skipped;
        skipped
    }

    /// Runs `k` rounds unconditionally.
    pub fn run_rounds(&mut self, k: u64) {
        self.run_rounds_observed(k, &mut NoopRoundObserver);
    }

    /// Runs up to `k` rounds, reporting each executed round to `obs` and
    /// stopping early if the observer returns `false`. Returns the number
    /// of rounds executed by this call.
    ///
    /// When the observer is disabled ([`RoundObserver::enabled`]) the loop
    /// is equivalent to [`run_rounds`](Simulator::run_rounds): no
    /// [`RoundInfo`] is computed and nothing allocates.
    ///
    /// With fast-forward on (see [`Simulator::set_fast_forward`]) spans of
    /// provably eventless rounds are bulk-skipped and reported through
    /// [`RoundObserver::on_rounds_skipped`] — no per-round
    /// [`RoundObserver::on_round`] call fires for them. The returned count
    /// includes skipped rounds (it is always the clock advance).
    ///
    /// [`RoundObserver::on_rounds_skipped`]: crate::RoundObserver::on_rounds_skipped
    pub fn run_rounds_observed(&mut self, k: u64, obs: &mut dyn RoundObserver) -> u64 {
        let start = self.round;
        let limit = start.saturating_add(k);
        let watching = obs.enabled();
        while self.round < limit {
            let allowance = if watching {
                obs.skip_allowance()
            } else {
                u64::MAX
            };
            let skipped = self.fast_forward_to(limit, allowance, false);
            if skipped > 0 {
                if watching && !obs.on_rounds_skipped(skipped) {
                    break;
                }
                continue;
            }
            if watching {
                let before = self.stats.messages;
                self.step();
                let info = RoundInfo {
                    round: self.round - 1,
                    messages: self.stats.messages - before,
                    active: self.arena.visit.len(),
                };
                if !obs.on_round(info) {
                    break;
                }
            } else {
                self.step();
            }
        }
        self.round - start
    }

    /// Runs until the network is quiet — no messages in flight and every
    /// program reports idle — or until `max_rounds` rounds have been
    /// executed, whichever comes first.
    ///
    /// If `max_rounds > 0`, at least one round executes even if the network
    /// is already quiet (round 0 is where spontaneous initiators act). If
    /// `max_rounds == 0`, no rounds execute and the returned
    /// [`QuietOutcome::quiescent`] reports the *current* state.
    pub fn run_until_quiet(&mut self, max_rounds: u64) -> QuietOutcome {
        self.run_until_quiet_observed(max_rounds, &mut NoopRoundObserver)
    }

    /// [`run_until_quiet`](Simulator::run_until_quiet) with per-round
    /// reports to `obs`. An observer that returns `false` stops the run;
    /// the returned outcome then has `quiescent == false` (cancellation is
    /// recorded by the observer side, e.g. [`crate::RunHooks::stopped`]).
    ///
    /// Quiescence is checked *before* the observer, so a run that goes
    /// quiet on its last permitted round still reports `quiescent == true`.
    ///
    /// With fast-forward on (see [`Simulator::set_fast_forward`]) spans of
    /// eventless rounds between timer appointments are bulk-skipped and
    /// reported through [`RoundObserver::on_rounds_skipped`]. A skip here
    /// requires an actual appointment on the timer wheel (a dead network is
    /// *quiescent*, not skippable — the loop must execute a round to detect
    /// that, exactly like the non-skipping run), so the outcome's round
    /// count and `quiescent` flag are identical with fast-forward on or
    /// off.
    ///
    /// [`RoundObserver::on_rounds_skipped`]: crate::RoundObserver::on_rounds_skipped
    pub fn run_until_quiet_observed(
        &mut self,
        max_rounds: u64,
        obs: &mut dyn RoundObserver,
    ) -> QuietOutcome {
        let start = self.round;
        let limit = start.saturating_add(max_rounds);
        let watching = obs.enabled();
        let mut quiescent = self.is_quiescent();
        while self.round < limit {
            let allowance = if watching {
                obs.skip_allowance()
            } else {
                u64::MAX
            };
            let skipped = self.fast_forward_to(limit, allowance, true);
            if skipped > 0 {
                if watching && !obs.on_rounds_skipped(skipped) {
                    break;
                }
                continue;
            }
            let before = self.stats.messages;
            self.step();
            quiescent = self.is_quiescent();
            if watching {
                let info = RoundInfo {
                    round: self.round - 1,
                    messages: self.stats.messages - before,
                    active: self.arena.visit.len(),
                };
                let go = obs.on_round(info);
                if quiescent {
                    break;
                }
                if !go {
                    break;
                }
            } else if quiescent {
                break;
            }
        }
        QuietOutcome {
            rounds: self.round - start,
            quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use crate::programs::Flood;
    use nas_graph::generators;

    fn flood(g: &nas_graph::Graph, sources: &[usize]) -> Vec<Option<u64>> {
        let programs: Vec<Flood> = (0..g.num_vertices())
            .map(|v| Flood {
                is_source: sources.contains(&v),
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(g, programs);
        sim.run_until_quiet(10 * g.num_vertices() as u64 + 10);
        sim.programs().iter().map(|p| p.dist).collect()
    }

    #[test]
    fn flood_matches_bfs_on_grid() {
        let g = generators::grid2d(6, 7);
        let got = flood(&g, &[0]);
        let want = nas_graph::DistanceMap::from_source(&g, 0);
        for (v, &got_d) in got.iter().enumerate() {
            assert_eq!(got_d, want.get(v).map(|d| d as u64), "vertex {v}");
        }
    }

    #[test]
    fn flood_matches_multi_source_bfs() {
        let g = generators::gnp(80, 0.06, 17);
        let sources = [3, 41, 77];
        let got = flood(&g, &sources);
        let want = nas_graph::DistanceMap::from_sources(&g, sources.iter().copied());
        for (v, &got_d) in got.iter().enumerate() {
            assert_eq!(got_d, want.get(v).map(|d| d as u64), "vertex {v}");
        }
    }

    #[test]
    fn rounds_equal_eccentricity_plus_slack() {
        let g = generators::path(20);
        let programs: Vec<Flood> = (0..20)
            .map(|v| Flood {
                is_source: v == 0,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        let outcome = sim.run_until_quiet(1000);
        assert!(outcome.quiescent);
        // Distance 19 is set in round 19; its forward messages die in round 20;
        // quiescence detected after round 21 at the latest.
        assert!(
            (19..=22).contains(&outcome.rounds),
            "rounds = {}",
            outcome.rounds
        );
    }

    #[test]
    fn stats_are_counted() {
        let g = generators::complete(4);
        let programs: Vec<Flood> = (0..4)
            .map(|v| Flood {
                is_source: v == 0,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        sim.run_until_quiet(100);
        let s = sim.stats();
        // Round 0: node 0 sends 3 msgs. Round 1: nodes 1,2,3 each send 3.
        assert_eq!(s.messages, 12);
        assert_eq!(s.words, 12);
        assert_eq!(s.busiest_round_messages, 9);
    }

    /// Per-round accounting is attributed to the round a message is *sent*
    /// in, consistent with `stats.messages`/`stats.words`. Under the old
    /// delivery-round attribution this run would report 0 (node 0's three
    /// round-0 sends are only delivered in round 1).
    #[test]
    fn busiest_round_uses_send_attribution() {
        let g = generators::complete(4);
        let programs: Vec<Flood> = (0..4)
            .map(|v| Flood {
                is_source: v == 0,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        sim.step();
        let s = sim.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.busiest_round_messages, 3);
    }

    #[test]
    fn determinism_same_transcript() {
        let g = generators::gnp(50, 0.1, 3);
        let run = || {
            let programs: Vec<Flood> = (0..50)
                .map(|v| Flood {
                    is_source: v % 7 == 0,
                    dist: None,
                })
                .collect();
            let mut sim = Simulator::new(&g, programs);
            sim.run_until_quiet(500);
            (
                *sim.stats(),
                sim.programs().iter().map(|p| p.dist).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_quiet_zero_budget_is_honest() {
        let g = generators::path(4);
        let programs: Vec<Flood> = (0..4)
            .map(|v| Flood {
                is_source: v == 0,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        // Zero budget: no rounds execute; the (never-stepped) network has no
        // messages in flight and all programs idle, so it reports quiescent.
        let outcome = sim.run_until_quiet(0);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(sim.round(), 0);
        assert!(outcome.quiescent);
    }

    #[test]
    fn run_until_quiet_reports_budget_exhaustion() {
        let g = generators::path(20);
        let programs: Vec<Flood> = (0..20)
            .map(|v| Flood {
                is_source: v == 0,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        // The flood needs ~20 rounds; a budget of 5 must be reported as
        // exhausted, not as quiescence.
        let outcome = sim.run_until_quiet(5);
        assert_eq!(outcome.rounds, 5);
        assert!(!outcome.quiescent);
        // Resuming with enough budget finishes the job.
        let outcome = sim.run_until_quiet(1000);
        assert!(outcome.quiescent);
        assert_eq!(sim.programs()[19].dist, Some(19));
    }

    /// A deliberately broken protocol that double-sends on port 0.
    struct DoubleSender;
    impl NodeProgram for DoubleSender {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.degree() > 0 {
                ctx.send(0, Msg::one(1));
                ctx.send(0, Msg::one(2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn bandwidth_violation_panics() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, vec![DoubleSender, DoubleSender]);
        sim.step();
    }

    /// Echo protocol used to check port mapping: node 0 sends its id, the
    /// neighbor records which port the message arrived on.
    struct PortCheck {
        heard_from_port: Option<u32>,
        heard_neighbor: Option<usize>,
    }
    impl NodeProgram for PortCheck {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() == 0 && ctx.id() == 2 {
                // Send only to the neighbor that is vertex 3.
                for p in 0..ctx.degree() {
                    if ctx.neighbor(p) == 3 {
                        ctx.send(p, Msg::one(ctx.id() as u64));
                    }
                }
            }
            if let Some(inc) = ctx.inbox().first() {
                self.heard_from_port = Some(inc.from_port);
                self.heard_neighbor = Some(ctx.neighbor(inc.from_port as usize));
            }
        }
    }

    #[test]
    fn reverse_port_mapping_is_correct() {
        // Star with center 3 — ports at 3 differ from ports at leaves.
        let mut b = nas_graph::GraphBuilder::new(5);
        b.add_edge(3, 0)
            .add_edge(3, 1)
            .add_edge(3, 2)
            .add_edge(3, 4);
        let g = b.build();
        let programs: Vec<PortCheck> = (0..5)
            .map(|_| PortCheck {
                heard_from_port: None,
                heard_neighbor: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        sim.run_rounds(2);
        let p3 = &sim.programs()[3];
        assert_eq!(
            p3.heard_neighbor,
            Some(2),
            "message must appear to come from vertex 2"
        );
    }

    #[test]
    #[should_panic(expected = "one program per vertex")]
    fn wrong_program_count_panics() {
        let g = generators::path(3);
        let _ = Simulator::new(&g, vec![DoubleSender]);
    }

    #[test]
    fn run_rounds_exact_count() {
        let g = generators::path(4);
        let programs: Vec<Flood> = (0..4)
            .map(|_| Flood {
                is_source: false,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        sim.run_rounds(17);
        assert_eq!(sim.round(), 17);
        assert_eq!(sim.stats().rounds, 17);
        assert_eq!(sim.stats().messages, 0);
    }

    #[test]
    fn active_set_shrinks_to_frontier() {
        // On a long path, a flood's active set is the O(1)-wide frontier,
        // not all n nodes.
        let n = 1000usize;
        let g = generators::path(n);
        let programs: Vec<Flood> = (0..n)
            .map(|v| Flood {
                is_source: v == 0,
                dist: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, programs);
        assert_eq!(sim.active_nodes(), n); // initial wake-up
        sim.run_rounds(10);
        // Mid-flood: only the frontier (and its just-informed neighbors)
        // are scheduled.
        assert!(
            sim.active_nodes() <= 4,
            "active = {} nodes",
            sim.active_nodes()
        );
        let outcome = sim.run_until_quiet(10 * n as u64);
        assert!(outcome.quiescent);
        assert_eq!(sim.active_nodes(), 0);
        assert_eq!(sim.programs()[n - 1].dist, Some((n - 1) as u64));
    }

    /// A program that acts spontaneously on a round-number schedule and
    /// declares it via `is_idle` — the activity contract's escape hatch.
    struct TimedBomb {
        fire_at: u64,
        fired: bool,
        heard: u64,
    }
    impl NodeProgram for TimedBomb {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            self.heard += ctx.inbox().len() as u64;
            if !self.fired && ctx.round() == self.fire_at {
                self.fired = true;
                ctx.send_all(Msg::one(ctx.round()));
            }
        }
        fn is_idle(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn non_idle_nodes_are_visited_without_messages() {
        // Node 0 fires at round 7 with no prompting; the scheduler must keep
        // visiting it because it reports non-idle.
        let g = generators::path(3);
        let programs = vec![
            TimedBomb {
                fire_at: 7,
                fired: false,
                heard: 0,
            },
            TimedBomb {
                fire_at: u64::MAX,
                fired: true, // starts idle, purely reactive
                heard: 0,
            },
            TimedBomb {
                fire_at: u64::MAX,
                fired: true,
                heard: 0,
            },
        ];
        let mut sim = Simulator::new(&g, programs);
        sim.run_rounds(9);
        assert!(sim.programs()[0].fired);
        assert_eq!(sim.programs()[1].heard, 1); // delivered in round 8
        assert_eq!(sim.programs()[2].heard, 0);
    }

    #[test]
    fn programs_mut_rearms_full_wakeup() {
        let g = generators::path(3);
        let programs = vec![
            TimedBomb {
                fire_at: u64::MAX,
                fired: true,
                heard: 0,
            },
            TimedBomb {
                fire_at: u64::MAX,
                fired: true,
                heard: 0,
            },
            TimedBomb {
                fire_at: u64::MAX,
                fired: true,
                heard: 0,
            },
        ];
        let mut sim = Simulator::new(&g, programs);
        sim.run_rounds(3);
        assert!(sim.is_quiescent());
        // Re-seed node 2 from outside: it must be visited again even though
        // the scheduler believed it idle.
        sim.programs_mut()[2].fired = false;
        sim.programs_mut()[2].fire_at = sim.round();
        assert!(!sim.is_quiescent()); // full-scan fallback sees the change
        sim.run_rounds(2);
        assert!(sim.programs()[2].fired);
        assert_eq!(sim.programs()[1].heard, 1);
    }

    /// Records the active-set size of every executed round.
    struct ActiveLog(Vec<usize>);
    impl crate::RoundObserver for ActiveLog {
        fn on_round(&mut self, info: RoundInfo) -> bool {
            self.0.push(info.active);
            true
        }
    }

    /// Acts once, at its `wake` round; node 0 then messages node 1.
    struct PingAt {
        wake: u64,
        done: bool,
    }
    impl NodeProgram for PingAt {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() == self.wake {
                self.done = true;
                if ctx.id() == 0 {
                    ctx.send(0, Msg::one(0));
                }
            }
        }
        fn next_wake(&self) -> Option<u64> {
            (!self.done).then_some(self.wake)
        }
    }

    /// Idles until round `start`, then hosts a [`Flood`] on a clock that
    /// starts there.
    struct Hosted {
        start: u64,
        flood: Flood,
        /// The clock read back after the first hosted round.
        resumed_at: Option<u64>,
    }
    impl NodeProgram for Hosted {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() < self.start {
                return;
            }
            ctx.since(self.start, |ctx| self.flood.round(ctx));
            self.resumed_at.get_or_insert(ctx.round());
        }
        fn is_idle(&self) -> bool {
            self.resumed_at.is_some()
        }
    }

    /// Records `(round, messages)` of every executed round.
    struct SendLog(Vec<(u64, u64)>);
    impl crate::RoundObserver for SendLog {
        fn on_round(&mut self, info: RoundInfo) -> bool {
            self.0.push((info.round, info.messages));
            true
        }
    }

    #[test]
    fn since_runs_a_stage_on_its_own_clock() {
        let g = generators::grid2d(5, 6);
        let sources = [0usize, 17];
        let k = 4;
        let hosted = Flood::network(30, &sources)
            .into_iter()
            .map(|flood| Hosted {
                start: k,
                flood,
                resumed_at: None,
            })
            .collect();
        let mut sim = Simulator::new(&g, hosted);
        let mut log = SendLog(Vec::new());
        assert!(sim.run_until_quiet_observed(100, &mut log).quiescent);
        let first_send = log.0.iter().find(|&&(_, m)| m > 0).map(|&(r, _)| r);
        assert_eq!(first_send, Some(k));
        let plain = flood(&g, &sources);
        for (v, p) in sim.programs().iter().enumerate() {
            assert_eq!(p.flood.dist, plain[v], "vertex {v}");
            assert_eq!(p.resumed_at, Some(k), "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "stage starts at round 1, after round 0")]
    fn since_rejects_a_start_after_the_current_round() {
        struct Early;
        impl NodeProgram for Early {
            fn round(&mut self, ctx: &mut RoundCtx<'_>) {
                ctx.since(1, |_| {});
            }
        }
        let g = generators::path(2);
        Simulator::new(&g, vec![Early, Early]).run_rounds(1);
    }

    /// A node whose wake comes due in the round a message reaches it is
    /// visited, and reported, once.
    #[test]
    fn active_counts_a_due_wake_and_a_message_once() {
        let g = generators::path(2);
        let ping = |wake| PingAt { wake, done: false };
        let mut sim = Simulator::new(&g, vec![ping(1), ping(2)]);
        let mut log = ActiveLog(Vec::new());
        let mut predicted = Vec::new();
        for _ in 0..3 {
            predicted.push(sim.active_nodes());
            sim.run_rounds_observed(1, &mut log);
        }
        assert!(sim.programs().iter().all(|p| p.done));
        assert_eq!(log.0, [2, 1, 1]);
        assert_eq!(predicted, log.0);
    }

    #[test]
    fn install_visits_only_the_declared_initial_set() {
        let g = generators::grid2d(5, 8);
        let sources = [3usize, 27];
        let mut fresh = Simulator::new(&g, Flood::network(40, &sources));
        fresh.run_until_quiet(100);

        let mut arena = SimArena::new();
        for _ in 0..2 {
            let mut sim = Simulator::install(&g, Flood::network(40, &sources), &sources, arena);
            let mut log = ActiveLog(Vec::new());
            sim.run_until_quiet_observed(100, &mut log);
            // Round 0 visits the two sources, not all 40 nodes; the run is
            // otherwise the fresh simulator's, round for round.
            assert_eq!(log.0[0], 2);
            assert_eq!(sim.stats(), fresh.stats());
            let dist = |s: &Simulator<'_, Flood>| -> Vec<_> {
                s.programs().iter().map(|p| p.dist).collect()
            };
            assert_eq!(dist(&sim), dist(&fresh));
            arena = sim.into_parts().1;
        }
    }

    /// Receiver cuts are monotone from 0 to n, every range holds at most
    /// `2m / t + max_degree` in-arcs, empty ranges are allowed, and
    /// `range_of` routes every id into the range that owns it.
    #[test]
    fn receiver_cuts_balance_in_arcs() {
        let mut hub_last = nas_graph::GraphBuilder::new(40);
        for v in 0..39 {
            hub_last.add_edge(v, 39);
        }
        let graphs = [
            generators::star(50),
            hub_last.build(),
            generators::preferential_attachment(500, 3, 9),
            generators::grid2d(7, 9),
            nas_graph::GraphBuilder::new(12).build(),
            generators::path(1),
        ];
        let mut cuts = Vec::new();
        let mut empty_ranges = 0;
        for g in &graphs {
            let (n, offs) = (g.num_vertices(), g.csr_offsets());
            for t in [1, 2, 3, 8] {
                fill_receiver_cuts(&mut cuts, &Topology::Flat(g), t);
                assert_eq!(cuts.len(), t + 1);
                assert_eq!((cuts[0], cuts[t]), (0, n));
                for j in 0..t {
                    assert!(cuts[j] <= cuts[j + 1], "cuts {cuts:?}");
                    let arcs = offs[cuts[j + 1]] - offs[cuts[j]];
                    assert!(arcs <= g.degree_sum() / t + g.max_degree(), "cuts {cuts:?}");
                    empty_ranges += usize::from(cuts[j] == cuts[j + 1]);
                }
                for u in 0..n {
                    let j = range_of(&cuts, u as u32);
                    assert!(cuts[j] <= u && u < cuts[j + 1], "{u} in {cuts:?}");
                }
            }
        }
        assert!(empty_ranges > 0);
        // The star's hub holds half the arcs: at 2 lanes it is a range of
        // its own.
        fill_receiver_cuts(&mut cuts, &Topology::Flat(&graphs[0]), 2);
        assert_eq!(cuts, [0, 1, 50]);
        // The compact store cuts by id.
        let compact = Topology::Compact(Arc::new(CompactGraph::from_graph(&graphs[0])));
        fill_receiver_cuts(&mut cuts, &compact, 3);
        assert_eq!(cuts, nas_par::balanced_cuts(50, 3));
    }

    /// Sleeps on a timed wake-up and counts the visits at that round.
    struct Alarm {
        wake: u64,
        rang: u32,
    }
    impl NodeProgram for Alarm {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() == self.wake {
                self.rang += 1;
            }
        }
        fn next_wake(&self) -> Option<u64> {
            (self.rang == 0).then_some(self.wake)
        }
    }

    /// Rounds restart at 0 in every install, so wake rounds an earlier
    /// install armed — fired, or still pending when it stopped — must be
    /// armable again: every wake of every install fires.
    #[test]
    fn reinstall_rearms_the_wakes_an_earlier_install_armed() {
        let g = generators::path(9);
        let all: Vec<usize> = (0..9).collect();
        let alarms = || -> Vec<Alarm> {
            (0..9)
                .map(|v| Alarm {
                    wake: 2 + v as u64 % 3,
                    rang: 0,
                })
                .collect()
        };
        let mut arena = SimArena::new();
        // The middle install stops at round 3, with the round-3 and
        // round-4 wakes still on the wheel.
        for rounds in [6u64, 3, 6, 6] {
            let mut sim = Simulator::install(&g, alarms(), &all, arena);
            sim.run_rounds(rounds);
            assert_eq!(sim.round(), rounds);
            for a in sim.programs() {
                let due = a.wake < rounds;
                assert_eq!(a.rang, u32::from(due), "wake at {} of {rounds}", a.wake);
            }
            if rounds == 6 {
                assert!(sim.is_quiescent());
            }
            arena = sim.into_parts().1;
        }
    }
}

#[cfg(test)]
mod transcript_tests {
    use super::*;
    use crate::msg::Msg;
    use nas_graph::generators;

    #[derive(Clone)]
    struct Pulse;
    impl NodeProgram for Pulse {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() < 3 {
                ctx.send_all(Msg::one(ctx.round() * 17 + ctx.id() as u64));
            }
        }
    }

    #[test]
    fn transcripts_are_reproducible() {
        let g = generators::gnp(30, 0.2, 7);
        let run = || {
            let mut sim = Simulator::new(&g, vec![Pulse; 30]);
            sim.enable_transcript();
            sim.run_rounds(6);
            sim.transcript().unwrap().clone()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.first_divergence(&b), None);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn transcript_detects_different_protocols() {
        let g = generators::cycle(10);
        let mut s1 = Simulator::new(&g, vec![Pulse; 10]);
        s1.enable_transcript();
        s1.run_rounds(4);

        #[derive(Clone)]
        struct Quiet;
        impl NodeProgram for Quiet {
            fn round(&mut self, _ctx: &mut RoundCtx<'_>) {}
        }
        let mut s2 = Simulator::new(&g, vec![Quiet; 10]);
        s2.enable_transcript();
        s2.run_rounds(4);
        // Pulse delivers messages in round 1; Quiet never does.
        assert_eq!(
            s1.transcript()
                .unwrap()
                .first_divergence(s2.transcript().unwrap()),
            Some(1)
        );
    }

    #[test]
    fn disabled_by_default() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, vec![Pulse; 3]);
        sim.run_rounds(2);
        assert!(sim.transcript().is_none());
    }
}
