//! **Algorithm 1** of the paper (Appendix A): popular-cluster detection.
//!
//! Given the phase's cluster centers `S_i` and thresholds `(deg_i, δ_i)`,
//! every vertex learns up to `deg_i` centers within distance `δ_i`, with
//! exact distances and a parent pointer per learned center. A center that
//! learns about `deg_i` *other* centers is **popular** (it joins `W_i`);
//! Theorem 2.1 guarantees that an *unpopular* center learns **all** centers
//! within `δ_i`, at exact distances, with parent chains tracing shortest
//! paths — which is what the interconnection step later walks.
//!
//! # Round structure (both implementations, identical semantics)
//!
//! * **Send phase 0** (one round): every center broadcasts its own id.
//! * **Send phase `p`**, `1 ≤ p ≤ δ−1` (`deg+1` rounds each): every vertex
//!   forwards the centers it accepted *at distance exactly `p`*, smallest
//!   ids first, one per round, to all neighbors.
//! * A message sent in phase `p` is accepted at distance `p+1`.
//! * **Acceptance** (the congestion cap): arrivals of one round are
//!   processed in ascending `(center, sender)` order; a new center is
//!   accepted only while the knowledge list has free capacity. Duplicates
//!   (already-known centers) are ignored.
//! * One final drain round delivers the last phase's messages.
//!
//! # The capacity is self-inclusive: `deg + 1`
//!
//! Every vertex effectively maintains up to `deg+1` centers *counting
//! itself*: a center stores itself implicitly and accepts up to `deg`
//! others; a non-center accepts up to `deg+1`. This one-slot headroom is
//! load-bearing. With a flat cap of `deg` others, a relay can waste a list
//! slot on a center's own id, and an *unpopular* center could then miss a
//! center inside its `δ`-ball — violating Theorem 2.1(2) (found by the
//! property tests). With self-inclusive capacity the paper's argument goes
//! through exactly: if any message toward `u` is ever dropped, the dropping
//! vertex was full, so it knew `deg+1` centers (counting itself) that all
//! lie within `δ` of `u` — at least `deg` of them distinct from `u` — so
//! `u` is popular; contrapositively, an unpopular center's knowledge is
//! complete and exact, with parent chains along shortest paths.
//!
//! Total rounds: `(δ−1)·(deg+1) + 2 = O(deg·δ)`, matching Theorem 2.1. The
//! arbitrary choices the paper allows ("choose `deg` arbitrary messages")
//! are made deterministic (smallest ids first) so the centralized and
//! distributed implementations agree bit-for-bit — asserted in tests.
//!
//! # Node state: an append-only knowledge log
//!
//! [`algo1_centralized`] is the reference: it keeps every vertex's
//! [`Knowledge`] table sorted by center and runs the acceptance rule
//! literally. A distributed node ([`Algo1Protocol`]) instead appends what
//! it accepts to a log. Every acceptance round adds entries of a single
//! distance and distances only grow, so the log is in nondecreasing
//! distance order, and each question the protocol asks is answered at its
//! tail:
//!
//! * the phase-`p` forward list is the log's tail run of distance-`p`
//!   entries, sorted by center in place at the phase start;
//! * the next wake-up is the phase of the last entry, if that lies beyond
//!   the current phase;
//! * an arrival is a duplicate iff its center is already in the log (a
//!   linear scan of at most `deg + 1` entries), and new centers are
//!   appended in sender order — the inbox is sender-ascending, so the first
//!   copy of a center carries the smallest sender, as in the reference;
//! * a full log skips the acceptance step; a round whose new centers
//!   overflow the free capacity sorts them in a per-thread scratch and
//!   keeps the smallest ids, so the log never outgrows its capacity.
//!
//! The harvest ([`Algo1Protocol::into_knowledge`]) sorts the log once by
//! center, yielding the same [`Knowledge`] table the reference builds.

use nas_congest::{Merge, Msg, NodeProgram, RoundCtx, RunHooks, RunStats, SimArena, Simulator};
use nas_graph::Graph;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a vertex knows about one discovered center.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownCenter {
    /// Exact hop distance to the center (exact whenever the learning vertex
    /// is unpopular; an upper bound otherwise).
    pub dist: u32,
    /// The neighbor (vertex id) the accepted message arrived from; walking
    /// parents leads to the center along a shortest path.
    pub parent: u32,
}

/// What one vertex knows after Algorithm 1: its known centers with their
/// entries, sorted strictly ascending by center id (its own id is never
/// included).
///
/// The table is capped at the phase's degree budget (`deg + 1` entries, see
/// the module docs on self-inclusive capacity), so a sorted vector is one
/// allocation per vertex, a lookup is a binary search and iteration is a
/// linear scan. This is the harvested form that interconnection, the
/// composite protocol and [`PopularityInfo`] read. [`algo1_centralized`]
/// runs the acceptance rule on it directly; a distributed node sorts its
/// log into it once, when the run is harvested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knowledge {
    entries: Vec<(u32, KnownCenter)>,
}

impl Knowledge {
    /// The table of a distributed node's knowledge log: the log sorted by
    /// center. The log never repeats a center.
    fn from_log(mut entries: Vec<(u32, KnownCenter)>) -> Self {
        entries.sort_unstable_by_key(|&(c, _)| c);
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Knowledge { entries }
    }

    /// Number of known centers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no center is known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for center `c`.
    pub fn get(&self, c: u32) -> Option<&KnownCenter> {
        self.entries
            .binary_search_by_key(&c, |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Iterates `(center, entry)` in ascending center order.
    pub fn iter(&self) -> std::slice::Iter<'_, (u32, KnownCenter)> {
        self.entries.iter()
    }
}

/// Process-wide high-water mark of per-node knowledge-table heap bytes,
/// recorded by the distributed Algorithm 1 runs (see
/// [`take_knowledge_peak_bytes`]).
static KNOWLEDGE_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_knowledge_peak(tables: &[Knowledge]) {
    // Capacity, not length: what the allocator actually holds.
    let entry = std::mem::size_of::<(u32, KnownCenter)>();
    let peak = tables
        .iter()
        .map(|k| (k.entries.capacity() * entry) as u64)
        .max();
    if let Some(peak) = peak {
        KNOWLEDGE_PEAK_BYTES.fetch_max(peak, Ordering::Relaxed);
    }
}

/// Reads and resets the process-wide peak of per-node knowledge-table heap
/// bytes observed across Algorithm 1 runs since the last call. Benchmarks
/// (`sim_scaling` in `nas-bench`) record this next to RSS so the flat
/// table's memory story is visible per leg.
pub fn take_knowledge_peak_bytes() -> u64 {
    KNOWLEDGE_PEAK_BYTES.swap(0, Ordering::Relaxed)
}

/// The full output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopularityInfo {
    /// Per-vertex knowledge tables.
    pub knowledge: Vec<Knowledge>,
    /// The popular centers `W_i`, sorted ascending.
    pub popular: Vec<usize>,
}

impl PopularityInfo {
    /// Reconstructs the shortest path from `v` to the known center `c` by
    /// walking parent pointers. Returns the path `v, …, c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is unknown at `v` or the parent chain is corrupt.
    pub fn trace_path(&self, v: usize, c: usize) -> Vec<usize> {
        let budget = self.knowledge[v]
            .get(c as u32)
            .map(|e| e.dist as usize)
            .unwrap_or_else(|| panic!("vertex {v} does not know center {c}"));
        let mut path = vec![v];
        let mut cur = v;
        while cur != c {
            let e = self.knowledge[cur]
                .get(c as u32)
                .unwrap_or_else(|| panic!("vertex {cur} does not know center {c}"));
            let next = e.parent as usize;
            debug_assert_ne!(next, cur);
            path.push(next);
            cur = next;
            assert!(
                path.len() <= budget + 1,
                "parent chain longer than recorded distance"
            );
        }
        path
    }

    /// Whether center `v` is popular.
    pub fn is_popular(&self, v: usize) -> bool {
        self.popular.binary_search(&v).is_ok()
    }
}

/// Total rounds the protocol occupies: `(δ−1)·(deg+1) + 2`.
pub fn algo1_rounds(deg: usize, delta: u64) -> u64 {
    delta.saturating_sub(1) * (deg as u64 + 1) + 2
}

/// Knowledge capacity of a vertex: self-inclusive `deg + 1` (see module
/// docs) — `deg` others for a center, `deg + 1` for a non-center.
fn capacity(deg: usize, is_center: bool) -> usize {
    if is_center {
        deg
    } else {
        deg.saturating_add(1)
    }
}

/// The acceptance rule, literally: process one round's candidate arrivals
/// (already sorted ascending by `(center, sender)`) against a sorted table.
/// [`Algo1Protocol::accept`] is the distributed node's equivalent.
fn accept_round(
    self_id: u32,
    knowledge: &mut Knowledge,
    cap: usize,
    dist: u32,
    candidates: &[(u32, u32)],
) {
    let entries = &mut knowledge.entries;
    if entries.is_empty() {
        // Size a fresh table to this round's intake: a table filled in a
        // single round (every table of a δ = 1 phase) then carries no
        // growth slack for the harvest to shrink.
        entries.reserve_exact(candidates.len().min(cap));
    }
    for &(c, sender) in candidates {
        if c == self_id {
            continue;
        }
        let Err(i) = entries.binary_search_by_key(&c, |&(k, _)| k) else {
            continue; // already known
        };
        if entries.len() >= cap {
            break; // list full; everything further this round is dropped
        }
        entries.insert(
            i,
            (
                c,
                KnownCenter {
                    dist,
                    parent: sender,
                },
            ),
        );
    }
}

/// Centralized reference implementation of Algorithm 1.
///
/// `is_center[v]` marks `S_i`. Returns knowledge identical to the
/// distributed protocol's (asserted in tests).
pub fn algo1_centralized(g: &Graph, is_center: &[bool], deg: usize, delta: u64) -> PopularityInfo {
    let n = g.num_vertices();
    assert_eq!(is_center.len(), n);
    let empty = Knowledge {
        entries: Vec::new(),
    };
    let mut knowledge = vec![empty; n];

    // Send phase 0: centers broadcast their own id; arrivals have dist 1.
    let mut cands: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (c, &is_c) in is_center.iter().enumerate() {
        if is_c {
            for &u in g.neighbors(c) {
                cands[u as usize].push((c as u32, c as u32));
            }
        }
    }
    for u in 0..n {
        cands[u].sort_unstable();
        let list = std::mem::take(&mut cands[u]);
        accept_round(
            u as u32,
            &mut knowledge[u],
            capacity(deg, is_center[u]),
            1,
            &list,
        );
    }

    // Send phases 1..δ: forward distance-p knowledge, one center per round.
    for p in 1..delta {
        // Forward lists: centers known at distance exactly p, ascending.
        let forwards: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                knowledge[v]
                    .iter()
                    .filter(|(_, e)| e.dist as u64 == p)
                    .map(|&(c, _)| c)
                    .take(deg + 1)
                    .collect()
            })
            .collect();
        let max_k = forwards.iter().map(|f| f.len()).max().unwrap_or(0);
        for k in 0..max_k {
            for (v, fwd) in forwards.iter().enumerate() {
                if let Some(&c) = fwd.get(k) {
                    for &u in g.neighbors(v) {
                        cands[u as usize].push((c, v as u32));
                    }
                }
            }
            for u in 0..n {
                if cands[u].is_empty() {
                    continue;
                }
                cands[u].sort_unstable();
                let list = std::mem::take(&mut cands[u]);
                accept_round(
                    u as u32,
                    &mut knowledge[u],
                    capacity(deg, is_center[u]),
                    p as u32 + 1,
                    &list,
                );
            }
        }
    }

    let popular = collect_popular(&knowledge, is_center, deg);
    note_knowledge_peak(&knowledge);
    // Peak noted; the retained tables go on a diet for the rest of the
    // phase (interconnection reads them but never grows them).
    for k in &mut knowledge {
        k.entries.shrink_to_fit();
    }
    PopularityInfo { knowledge, popular }
}

fn collect_popular(knowledge: &[Knowledge], is_center: &[bool], deg: usize) -> Vec<usize> {
    knowledge
        .iter()
        .enumerate()
        .filter(|(v, k)| is_center[*v] && k.len() >= deg)
        .map(|(v, _)| v)
        .collect()
}

/// Per-node state of the distributed Algorithm 1 protocol.
///
/// The node's knowledge is an append-only log of accepted
/// `(center, entry)` pairs in nondecreasing distance order, at most
/// `deg + 1` long (see the module docs); [`into_knowledge`] sorts it into
/// the [`Knowledge`] table the later stages read.
///
/// [`into_knowledge`]: Algo1Protocol::into_knowledge
#[derive(Debug, Clone)]
pub struct Algo1Protocol {
    is_center: bool,
    deg: usize,
    delta: u64,
    /// Accepted `(center, entry)` pairs in acceptance order. Each
    /// acceptance round appends entries of one distance, never below the
    /// previous round's, so distances never decrease along the log;
    /// centers never repeat.
    log: Vec<(u32, KnownCenter)>,
    /// Log index of the current send phase's forward run, set at the phase
    /// start. Only entries of the phase's distance are forwarded from it,
    /// so a node woken mid-phase after sleeping through the phase start
    /// (which it cannot do while holding entries of that distance) replays
    /// nothing from an earlier phase.
    fwd_start: usize,
    /// Whether this node may still act spontaneously *in the current send
    /// phase* (its forward run has unsent entries). Recomputed at the end
    /// of every visit; see [`Algo1Protocol::is_idle`].
    pending: bool,
    /// Round of the next phase start this node must attend (the phase
    /// forwarding its last log entry, if that lies beyond the current
    /// phase) — surfaced through [`NodeProgram::next_wake`] so the node can
    /// go idle between phases instead of being visited every round.
    wake_at: Option<u64>,
}

thread_local! {
    /// Scratch for the `(center, sender)` candidates of a visit whose new
    /// centers overflow the log's free capacity. A node needs it only
    /// during its own visit, so one buffer per executing thread (the
    /// caller's, or a pool lane's) replaces one per vertex.
    static CANDIDATES: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

impl Algo1Protocol {
    /// Creates the program for one node.
    pub fn new(is_center: bool, deg: usize, delta: u64) -> Self {
        Algo1Protocol {
            is_center,
            deg,
            delta,
            log: Vec::new(),
            fwd_start: 0,
            // Only a center has a spontaneous first act (its round-0
            // broadcast); a non-center's first round is a no-op.
            pending: is_center,
            wake_at: None,
        }
    }

    /// Whether this center is popular (`≥ deg` known others). Meaningful
    /// after the schedule completes.
    pub fn popular(&self) -> bool {
        self.is_center && self.log.len() >= self.deg
    }

    /// The knowledge accumulated, as a table sorted by center (meaningful
    /// after the full schedule).
    pub fn knowledge(&self) -> Knowledge {
        Knowledge::from_log(self.log.clone())
    }

    /// Consumes the program, returning its knowledge table.
    pub fn into_knowledge(self) -> Knowledge {
        Knowledge::from_log(self.log)
    }

    /// Accepts this round's arrivals at distance `dist` into a log with
    /// free capacity: [`accept_round`]'s rule on the log (see the module
    /// docs). The inbox is sender-ascending, so the first copy of a new
    /// center carries its smallest sender.
    fn accept(&mut self, ctx: &RoundCtx<'_>, dist: u32, cap: usize) {
        let self_id = ctx.id() as u32;
        let base = self.log.len();
        if base == 0 {
            // Size a fresh log to this round's intake: a log filled in a
            // single round (every log of a δ = 1 phase) then carries no
            // growth slack for the harvest to shrink.
            self.log.reserve_exact(ctx.inbox().len().min(cap));
        }
        let mut arrivals = ctx.inbox().iter().map(|inc| {
            (
                inc.msg.word(0) as u32,
                ctx.neighbor(inc.from_port as usize) as u32,
            )
        });
        while let Some((c, sender)) = arrivals.next() {
            if c == self_id || self.log.iter().any(|&(k, _)| k == c) {
                continue;
            }
            if self.log.len() < cap {
                self.log.push((
                    c,
                    KnownCenter {
                        dist,
                        parent: sender,
                    },
                ));
                continue;
            }
            // Overflow: this round's new centers, with every copy of them,
            // compete by `(center, sender)` for the `cap − base` free slots.
            CANDIDATES.with_borrow_mut(|cands| {
                cands.clear();
                cands.extend(self.log.drain(base..).map(|(c, e)| (c, e.parent)));
                cands.push((c, sender));
                let known = &self.log[..base];
                cands.extend(
                    arrivals.filter(|&(c, _)| c != self_id && !known.iter().any(|&(k, _)| k == c)),
                );
                cands.sort_unstable();
                cands.dedup_by_key(|&mut (c, _)| c);
                self.log.extend(
                    cands[..cap - base]
                        .iter()
                        .map(|&(c, parent)| (c, KnownCenter { dist, parent })),
                );
            });
            return;
        }
    }

    /// Send phase of send-round `r`: phase 0 is round 0; phase `p ≥ 1`
    /// occupies rounds `[1+(p−1)·(deg+1), 1+p·(deg+1))`.
    fn send_phase(&self, r: u64) -> (u64, u64) {
        let width = self.deg as u64 + 1;
        if r == 0 {
            (0, 0)
        } else {
            let p = (r - 1) / width + 1;
            let k = (r - 1) % width;
            (p, k)
        }
    }
}

impl NodeProgram for Algo1Protocol {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let r = ctx.round();
        // One schedule division per visit: derive the *previous* round's
        // phase (needed to distance-stamp arrivals) from this round's
        // instead of dividing twice. `send_phase` is exercised directly by
        // unit tests; this derivation must stay consistent with it.
        let (p_now, k_now) = self.send_phase(r);
        // 1. Accept this round's arrivals (sent in round r−1); a full log
        //    accepts nothing.
        let cap = capacity(self.deg, self.is_center);
        if r >= 1 && self.log.len() < cap && !ctx.inbox().is_empty() {
            let p = if r == 1 {
                0 // send_phase(0) == (0, 0)
            } else if k_now == 0 {
                p_now - 1 // r−1 closed the previous phase
            } else {
                p_now // same phase, one slot earlier
            };
            self.accept(ctx, p as u32 + 1, cap);
        }
        // 2. Send according to the schedule.
        if r == 0 {
            if self.is_center {
                // Receivers skip duplicates without consuming capacity and
                // keep the smallest sender of a center, so collapsing
                // same-center copies to the smallest sender (`Merge::Dedup`)
                // is unobservable.
                ctx.send_all(Msg::one(ctx.id() as u64).merged(Merge::Dedup));
            }
            // Knowledge is still empty: nothing is scheduled until a message
            // arrives (which re-activates this node by itself).
            self.pending = false;
            self.wake_at = None;
            return;
        }
        let (p, k) = (p_now, k_now);
        if p >= self.delta {
            self.pending = false;
            self.wake_at = None;
            return; // drain round(s): accept only
        }
        if k == 0 {
            // Phase start: every distance-p entry has arrived, and they are
            // the log's tail run. Sorting the run by center makes it the
            // forward list, smallest ids first.
            let run = self
                .log
                .iter()
                .rev()
                .take_while(|(_, e)| u64::from(e.dist) == p)
                .count();
            self.fwd_start = self.log.len() - run;
            self.log[self.fwd_start..].sort_unstable_by_key(|&(c, _)| c);
        }
        let forward = |i: u64| {
            self.log
                .get(self.fwd_start + i as usize)
                .filter(|(_, e)| u64::from(e.dist) == p)
                .map(|&(c, _)| c)
        };
        if let Some(c) = forward(k) {
            ctx.send_all(Msg::one(c as u64).merged(Merge::Dedup));
        }
        // Spontaneous work remains this phase iff the forward run has
        // unsent entries. An entry due in a *later* send phase (phase d
        // forwards distance-d entries; phases ≥ δ never run) can only have
        // distance p+1 — it arrived during this phase — and is the log's
        // last entry; it sets a timed wake-up for that phase's start round
        // instead of keeping the node non-idle through every intervening
        // round. Any entry accepted after this visit arrives by message,
        // and arrivals re-visit the node (recomputing the appointment)
        // regardless of `is_idle`.
        self.pending = forward(k + 1).is_some();
        let width = self.deg as u64 + 1;
        self.wake_at = self
            .log
            .last()
            .map(|(_, e)| u64::from(e.dist))
            .filter(|&d| d > p && d < self.delta)
            .map(|d| 1 + (d - 1) * width);
    }

    /// A center is pending until its round-0 broadcast (and a non-center,
    /// which has nothing to send until a message arrives, never is before
    /// its first visit); afterwards `round` recomputes at each visit whether
    /// any spontaneous send remains in the current phase. Nodes with nothing
    /// left to forward go idle and are only re-visited when a message
    /// arrives or their [`next_wake`](NodeProgram::next_wake) appointment
    /// fires — on high-skew graphs this is the difference between `O(n)`
    /// and `O(active)` work per round.
    fn is_idle(&self) -> bool {
        !self.pending
    }

    /// The start round of the next send phase this node must attend: the
    /// phase forwarding its last log entry, when that entry's distance lies
    /// beyond the current phase (and below δ). Entries at intermediate
    /// distances cannot appear without a message arrival, which re-visits
    /// the node and moves the appointment earlier.
    fn next_wake(&self) -> Option<u64> {
        self.wake_at
    }
}

/// Runs Algorithm 1 on the CONGEST simulator, installed into `arena`.
///
/// Returns the same [`PopularityInfo`] as [`algo1_centralized`] plus the
/// exact round/message accounting. The run reports to `hooks`' round
/// observer (which may cancel it) and attaches `hooks`' worker pool; on
/// cancellation (`hooks.stopped`) the returned knowledge is truncated
/// mid-protocol — callers must check the flag and discard it.
///
/// Only the centers act in the first round (see [`Simulator::install`]).
pub fn algo1_distributed(
    g: &Graph,
    is_center: &[bool],
    deg: usize,
    delta: u64,
    arena: &mut SimArena,
    hooks: &mut RunHooks<'_>,
) -> (PopularityInfo, RunStats) {
    let n = g.num_vertices();
    assert_eq!(is_center.len(), n);
    let centers: Vec<usize> = (0..n).filter(|&v| is_center[v]).collect();
    let programs: Vec<Algo1Protocol> = (0..n)
        .map(|v| Algo1Protocol::new(is_center[v], deg, delta))
        .collect();
    let mut sim = Simulator::install(g, programs, &centers, std::mem::take(arena));
    hooks.attach(&mut sim);
    sim.run_rounds_observed(algo1_rounds(deg, delta), hooks);
    let stats = *sim.stats();
    let (programs, kept) = sim.into_parts();
    *arena = kept;
    let mut knowledge: Vec<Knowledge> = programs.into_iter().map(|p| p.into_knowledge()).collect();
    let popular = collect_popular(&knowledge, is_center, deg);
    note_knowledge_peak(&knowledge);
    // Peak noted; shrink what the rest of the phase retains (see the
    // centralized twin) — growth slack dominates RSS at 10^7 vertices.
    for k in &mut knowledge {
        k.entries.shrink_to_fit();
    }
    (PopularityInfo { knowledge, popular }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::generators;

    fn all_centers(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn phase0_learns_neighbors() {
        let g = generators::star(6);
        // δ = 1: only the initial broadcast.
        let info = algo1_centralized(&g, &all_centers(6), 10, 1);
        // Center 0 learns all 5 leaves; each leaf learns only the hub.
        assert_eq!(info.knowledge[0].len(), 5);
        for leaf in 1..6 {
            assert_eq!(info.knowledge[leaf].len(), 1);
            assert_eq!(info.knowledge[leaf].get(0).unwrap().dist, 1);
        }
    }

    #[test]
    fn popularity_threshold() {
        let g = generators::star(6);
        let info = algo1_centralized(&g, &all_centers(6), 5, 1);
        // Hub has 5 ≥ 5 neighbors: popular. Leaves have 1 < 5.
        assert_eq!(info.popular, vec![0]);
        assert!(info.is_popular(0));
        assert!(!info.is_popular(1));
    }

    #[test]
    fn unpopular_vertices_have_exact_distances() {
        let g = generators::grid2d(5, 5);
        let deg = 1000; // effectively uncapped: nobody drops anything
        let delta = 4;
        let info = algo1_centralized(&g, &all_centers(25), deg, delta);
        for v in 0..25 {
            let d = nas_graph::DistanceMap::from_source(&g, v);
            for &(c, e) in info.knowledge[v].iter() {
                assert_eq!(e.dist, d.get(c as usize).unwrap(), "vertex {v} center {c}");
            }
            // And it knows *all* centers within δ.
            let within = (0..25)
                .filter(|&u| u != v && d.get(u).unwrap() <= delta as u32)
                .count();
            assert_eq!(info.knowledge[v].len(), within);
        }
    }

    #[test]
    fn traceback_is_shortest_path() {
        let g = generators::grid2d(4, 6);
        // Vertex 23 is at distance 8 from vertex 0 (grid corner to corner).
        let info = algo1_centralized(&g, &all_centers(24), 1000, 8);
        let d = nas_graph::DistanceMap::from_source(&g, 23);
        let path = info.trace_path(0, 23);
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), 23);
        assert_eq!(path.len() as u32 - 1, d.get(0).unwrap());
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn cap_limits_knowledge() {
        let g = generators::complete(10);
        let info = algo1_centralized(&g, &all_centers(10), 3, 2);
        for v in 0..10 {
            assert_eq!(info.knowledge[v].len(), 3);
        }
        // Everyone popular (3 ≥ 3).
        assert_eq!(info.popular.len(), 10);
    }

    #[test]
    fn deterministic_cap_prefers_small_ids() {
        let g = generators::complete(8);
        let info = algo1_centralized(&g, &all_centers(8), 3, 1);
        // Vertex 7 hears 0..7 simultaneously and keeps the three smallest.
        let known: Vec<u32> = info.knowledge[7].iter().map(|&(c, _)| c).collect();
        assert_eq!(known, vec![0, 1, 2]);
        // Vertex 0 keeps 1, 2, 3.
        let known: Vec<u32> = info.knowledge[0].iter().map(|&(c, _)| c).collect();
        assert_eq!(known, vec![1, 2, 3]);
    }

    #[test]
    fn subset_of_centers() {
        let g = generators::path(10);
        let mut is_center = vec![false; 10];
        is_center[0] = true;
        is_center[9] = true;
        let info = algo1_centralized(&g, &is_center, 5, 9);
        // Middle vertex 4 knows 0 (dist 4) and 9 (dist 5).
        assert_eq!(info.knowledge[4].get(0).unwrap().dist, 4);
        assert_eq!(info.knowledge[4].get(9).unwrap().dist, 5);
        // The two centers know each other at distance 9.
        assert_eq!(info.knowledge[0].get(9).unwrap().dist, 9);
        assert_eq!(info.popular, Vec::<usize>::new());
    }

    #[test]
    fn distributed_matches_centralized() {
        let cases: Vec<(Graph, usize, u64)> = vec![
            (generators::grid2d(5, 5), 4, 3),
            (generators::complete(9), 3, 2),
            (generators::connected_gnp(60, 0.07, 11), 5, 4),
            (generators::preferential_attachment(50, 3, 7), 6, 3),
            (generators::path(20), 2, 6),
        ];
        for (g, deg, delta) in cases {
            let n = g.num_vertices();
            let centers = all_centers(n);
            let a = algo1_centralized(&g, &centers, deg, delta);
            let (b, stats) = algo1_distributed(
                &g,
                &centers,
                deg,
                delta,
                &mut SimArena::new(),
                &mut RunHooks::none(),
            );
            assert_eq!(a, b, "mismatch on n={n}, deg={deg}, delta={delta}");
            assert_eq!(stats.rounds, algo1_rounds(deg, delta));
        }
    }

    #[test]
    fn distributed_matches_centralized_sparse_centers() {
        let check = |g: &Graph, is_center: &[bool], deg: usize, delta: u64| {
            let a = algo1_centralized(g, is_center, deg, delta);
            let (b, _) = algo1_distributed(
                g,
                is_center,
                deg,
                delta,
                &mut SimArena::new(),
                &mut RunHooks::none(),
            );
            assert_eq!(a, b, "mismatch at deg={deg}, delta={delta}");
            b
        };
        let is_center: Vec<bool> = (0..70).map(|v| v % 3 == 0).collect();
        check(&generators::connected_gnp(70, 0.05, 23), &is_center, 4, 5);
        // δ well past 64: the regime of deep phases on large grids.
        let is_center: Vec<bool> = (0..200).map(|v| [0, 67, 134, 199].contains(&v)).collect();
        let info = check(&generators::path(200), &is_center, 8, 150);
        assert_eq!(info.knowledge[199].get(67).unwrap().dist, 132);
    }

    #[test]
    fn rounds_formula() {
        assert_eq!(algo1_rounds(5, 1), 2);
        assert_eq!(algo1_rounds(5, 4), 3 * 6 + 2);
    }

    #[test]
    fn self_slot_headroom_preserves_unpopular_completeness() {
        // Regression for the off-by-one the module docs describe: a relay
        // must not lose a center because the initiator's own id occupied a
        // list slot. Star-of-stars: hub `m` (non-center) adjacent to center
        // u=0 and centers 1..=4; with deg = 3 and δ = 2, vertex 0 is
        // unpopular iff it knows < 3 others — it has 4 within distance 2, so
        // it must be POPULAR, which requires m to relay ≥ 3 centers besides
        // u's own id.
        let mut b = nas_graph::GraphBuilder::new(6);
        for v in 0..5 {
            b.add_edge(5, v); // 5 = hub m
        }
        let g = b.build();
        let mut is_center = vec![true; 6];
        is_center[5] = false;
        let info = algo1_centralized(&g, &is_center, 3, 2);
        assert!(
            info.is_popular(0),
            "vertex 0 has 4 centers within δ=2 but was deemed unpopular \
             (knowledge: {:?})",
            info.knowledge[0]
        );
    }
}
