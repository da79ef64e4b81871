//! The interconnection step (§2.3): connecting settled clusters to all
//! nearby clusters.
//!
//! Every center `r_C` of a cluster `C ∈ U_i` (not superclustered this phase)
//! adds to `H` a shortest path to *every* center within `δ_i` — which, by
//! Theorem 2.1, it knows exactly, with parent chains along shortest paths,
//! because it is unpopular (Lemma 2.4).
//!
//! Distributed realization: trace-back messages. Each initiating center
//! enqueues one trace per known center; a vertex receiving a trace for
//! center `c` forwards it to *its own* parent for `c` (the chains of
//! different initiators merge — from any vertex the remaining path to `c` is
//! unique), marking each traversed edge for `H`. Per-`(vertex, center)`
//! deduplication plus one-message-per-port-per-round queueing keeps the
//! protocol within the CONGEST bandwidth; every queue holds at most `deg_i`
//! distinct centers, so the step completes in `O(deg_i · δ_i)` rounds
//! (Lemma 2.8's interconnection term).

use crate::algo1::{Knowledge, PopularityInfo};
use nas_congest::{Merge, Msg, NodeProgram, RoundCtx, RunHooks, RunStats, SimArena, Simulator};
use nas_graph::{EdgeSet, Graph};
use std::borrow::Borrow;

/// Output of one interconnection step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interconnection {
    /// Edges added to `H`.
    pub edges: EdgeSet,
    /// Number of (initiator, target) paths added.
    pub paths: usize,
}

/// Centralized interconnection: walk the parent chains recorded by
/// Algorithm 1.
///
/// `initiators` are the centers of `U_i`.
pub fn interconnect_centralized(
    g: &Graph,
    info: &PopularityInfo,
    initiators: &[usize],
) -> Interconnection {
    let n = g.num_vertices();
    let mut edges = EdgeSet::new(n);
    let mut paths = 0usize;
    for &rc in initiators {
        for &(c, _) in info.knowledge[rc].iter() {
            let path = info.trace_path(rc, c as usize);
            edges.insert_path(&path);
            paths += 1;
        }
    }
    Interconnection { edges, paths }
}

/// Per-node state of the distributed trace-back protocol.
///
/// Parent pointers are read straight from the node's Algorithm 1
/// knowledge table `K` — borrowed (`&Knowledge`) by the staged runner, so
/// nothing is copied per vertex, or owned by a composite protocol that has
/// no further use for the table.
#[derive(Debug, Clone)]
pub struct TraceProtocol<K> {
    is_initiator: bool,
    /// Algorithm 1's table at this node: the parent per known center,
    /// center-ascending (looked up by binary search).
    knowledge: K,
    /// Centers already forwarded (dedup), kept sorted for binary search.
    forwarded: Vec<u32>,
    /// Outgoing `(port, center)` entries in arrival order. One flat FIFO
    /// replaces per-port `VecDeque`s: sending the first pending entry of
    /// each port every round and keeping the rest in order is exactly the
    /// per-port-FIFO schedule, without `degree` queue allocations per node.
    pending: Vec<(u32, u32)>,
    /// Edges this node marked (as (self, neighbor)).
    marked: Vec<(u32, u32)>,
    /// Trace initiations performed (for the path count).
    initiated: usize,
}

impl<K: Borrow<Knowledge>> TraceProtocol<K> {
    /// Creates the program for one node from its Algorithm 1 knowledge.
    pub fn new(is_initiator: bool, knowledge: K) -> Self {
        TraceProtocol {
            is_initiator,
            knowledge,
            forwarded: Vec::new(),
            pending: Vec::new(),
            marked: Vec::new(),
            initiated: 0,
        }
    }

    /// Edges this node marked for `H` (as `(self, neighbor)` pairs).
    pub fn marked_edges(&self) -> &[(u32, u32)] {
        &self.marked
    }

    /// Whether all outgoing queues have drained.
    pub fn drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues a trace for `c` toward this node's parent for `c`.
    fn enqueue(&mut self, ctx: &RoundCtx<'_>, c: u32) {
        match self.forwarded.binary_search(&c) {
            Ok(_) => return,
            Err(i) => self.forwarded.insert(i, c),
        }
        let parent = match self.knowledge.borrow().get(c) {
            Some(e) => e.parent,
            None => panic!("node {} asked to trace unknown center {c}", ctx.id()),
        };
        let port = ctx.port_of(parent);
        self.marked.push((ctx.id() as u32, parent));
        self.pending.push((port as u32, c));
    }
}

impl<K: Borrow<Knowledge>> NodeProgram for TraceProtocol<K> {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round() == 0 {
            if self.is_initiator {
                let knowledge = self.knowledge.borrow();
                self.initiated = knowledge.len();
                for &(c, e) in knowledge.iter() {
                    let port = ctx.port_of(e.parent);
                    self.marked.push((ctx.id() as u32, e.parent));
                    self.pending.push((port as u32, c));
                }
                // All centers enqueued, in ascending order.
                self.forwarded.extend(knowledge.iter().map(|&(c, _)| c));
            }
        } else {
            for i in 0..ctx.inbox().len() {
                let c = ctx.inbox()[i].msg.word(0) as u32;
                if c == ctx.id() as u32 {
                    continue; // trace reached its target center
                }
                self.enqueue(ctx, c);
            }
        }
        // Drain: one message per port per round — the first pending entry of
        // each port goes out, the rest keep their order. A parent receiving
        // the same center from several children forwards it once
        // (`forwarded` makes duplicates no-ops), so same-payload traces may
        // merge to the smallest sender on the wire (`Merge::Dedup`).
        let mut w = 0usize;
        for i in 0..self.pending.len() {
            let (port, c) = self.pending[i];
            if ctx.port_used(port as usize) {
                self.pending[w] = (port, c);
                w += 1;
            } else {
                ctx.send(port as usize, Msg::one(c as u64).merged(Merge::Dedup));
            }
        }
        self.pending.truncate(w);
    }

    /// Idle exactly when the outgoing queue has drained. An initiator's one
    /// spontaneous act, enqueueing its traces, happens in round 0, when
    /// every run visits it: the staged runner installs the initiators as
    /// the initial set and [`Simulator::new`] visits every node.
    fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Rounds the distributed interconnection step may take: `δ·(deg+1) + 2`.
///
/// A node forwards each center once and knows at most `deg + 1` centers,
/// so an entry waits at most `deg` rounds in its port's queue; parent
/// chains are at most `δ` hops long, so the last delivery lands by round
/// `δ·(deg+1)`. The composite protocol's interconnection window is this
/// same budget.
pub fn interconnect_rounds(deg: usize, delta: u64) -> u64 {
    delta * (deg as u64 + 1) + 2
}

/// Runs the distributed interconnection step, installed into `arena`.
///
/// The run is capped at [`interconnect_rounds`]`(deg, delta)`; the
/// protocol must go quiet within it, which is asserted. The run reports to
/// `hooks`' round observer (which may cancel it) and attaches `hooks`'
/// worker pool. On cancellation (`hooks.stopped`) the must-go-quiet
/// assertion is waived and the returned edges are partial — callers must
/// check the flag and discard them.
///
/// Only the initiators act in the first round (see [`Simulator::install`]),
/// so a step without initiators executes one empty round. The programs
/// borrow `info`'s knowledge tables instead of copying them.
pub fn interconnect_distributed(
    g: &Graph,
    info: &PopularityInfo,
    initiators: &[usize],
    deg: usize,
    delta: u64,
    arena: &mut SimArena,
    hooks: &mut RunHooks<'_>,
) -> (Interconnection, RunStats) {
    let max_rounds = interconnect_rounds(deg, delta);
    let n = g.num_vertices();
    let mut is_initiator = vec![false; n];
    for &v in initiators {
        is_initiator[v] = true;
    }
    let programs: Vec<TraceProtocol<&Knowledge>> = (0..n)
        .map(|v| TraceProtocol::new(is_initiator[v], &info.knowledge[v]))
        .collect();
    let mut sim = Simulator::install(g, programs, initiators, std::mem::take(arena));
    hooks.attach(&mut sim);
    let outcome = sim.run_until_quiet_observed(max_rounds, hooks);
    assert!(
        outcome.quiescent || hooks.stopped,
        "interconnection did not finish within {max_rounds} rounds"
    );
    let stats = *sim.stats();
    let (programs, kept) = sim.into_parts();
    *arena = kept;
    let mut edges = EdgeSet::new(n);
    let mut paths = 0usize;
    for p in &programs {
        for &(a, b) in &p.marked {
            edges.insert(a as usize, b as usize);
        }
        paths += p.initiated;
    }
    (Interconnection { edges, paths }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo1::algo1_centralized;
    use nas_graph::{generators, DistanceMap};

    fn run(
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        deg: usize,
        delta: u64,
    ) -> (Interconnection, RunStats) {
        let mut arena = SimArena::new();
        interconnect_distributed(
            g,
            info,
            initiators,
            deg,
            delta,
            &mut arena,
            &mut RunHooks::none(),
        )
    }

    /// Shared check: both implementations add the same edge set, and every
    /// initiator can reach each known center in the added edges at the exact
    /// graph distance. Popular candidates are filtered out — the driver only
    /// ever initiates from unpopular centers, and only those enjoy
    /// Theorem 2.1's exactness guarantee.
    fn check(g: &Graph, deg: usize, delta: u64, candidates: &[usize]) {
        let n = g.num_vertices();
        let is_center = vec![true; n];
        let info = algo1_centralized(g, &is_center, deg, delta);
        let initiators: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&v| !info.is_popular(v))
            .collect();
        let initiators = initiators.as_slice();
        let a = interconnect_centralized(g, &info, initiators);
        let (b, _) = run(g, &info, initiators, deg, delta);

        assert_eq!(a.edges, b.edges, "edge sets differ");
        assert_eq!(a.paths, b.paths);
        assert!(a.edges.verify_subgraph_of(g).is_ok());

        let h = a.edges.to_graph();
        for &rc in initiators {
            let dg = DistanceMap::from_source(g, rc);
            let dh = DistanceMap::from_source(&h, rc);
            for &(c, e) in info.knowledge[rc].iter() {
                let c = c as usize;
                assert_eq!(e.dist, dg.get(c).unwrap(), "algo1 distance must be exact");
                assert_eq!(
                    dh.get(c),
                    Some(e.dist),
                    "initiator {rc} must reach {c} in H at the graph distance"
                );
            }
        }
    }

    #[test]
    fn path_graph_traces() {
        let g = generators::path(12);
        // deg larger than any δ-neighborhood: everyone unpopular, all checked.
        check(&g, 10, 4, &[0, 5, 11]);
    }

    #[test]
    fn grid_traces() {
        let g = generators::grid2d(5, 6);
        check(&g, 30, 3, &[0, 14, 29]);
    }

    #[test]
    fn random_graph_traces_uncapped() {
        let g = generators::connected_gnp(50, 0.08, 31);
        let initiators: Vec<usize> = (0..50).filter(|v| v % 7 == 0).collect();
        check(&g, 64, 3, &initiators);
    }

    #[test]
    fn random_graph_traces_with_popularity_filter() {
        // Small cap: some candidates are popular and get filtered; the
        // remaining unpopular ones must still satisfy all guarantees.
        let g = generators::connected_gnp(50, 0.08, 31);
        let initiators: Vec<usize> = (0..50).filter(|v| v % 3 == 0).collect();
        check(&g, 5, 3, &initiators);
    }

    #[test]
    fn no_initiators_adds_nothing() {
        let g = generators::grid2d(4, 4);
        let info = algo1_centralized(&g, &[true; 16], 3, 2);
        let a = interconnect_centralized(&g, &info, &[]);
        assert!(a.edges.is_empty());
        assert_eq!(a.paths, 0);
        let (b, stats) = run(&g, &info, &[], 3, 2);
        assert!(b.edges.is_empty());
        // Quiet immediately after the first round.
        assert!(stats.rounds <= 2);
    }

    #[test]
    fn merging_traces_share_suffixes() {
        // Star: leaves 1..6 all trace to leaf-center 1 through the hub 0;
        // the hub forwards each center once.
        let g = generators::star(6);
        let info = algo1_centralized(&g, &[true; 6], 10, 2);
        let initiators = vec![2, 3, 4, 5];
        let a = interconnect_centralized(&g, &info, &initiators);
        let (b, _) = run(&g, &info, &initiators, 10, 2);
        assert_eq!(a.edges, b.edges);
        // Star has only 5 edges; all get added.
        assert_eq!(a.edges.len(), 5);
    }

    #[test]
    fn phase0_semantics_all_neighbor_edges() {
        // With δ = 1 and all vertices as centers, initiators add exactly
        // their incident edges — the paper's phase-0 interconnection.
        let g = generators::connected_gnp(30, 0.1, 7);
        let info = algo1_centralized(&g, &[true; 30], 1000, 1);
        let initiators = vec![4, 9];
        let a = interconnect_centralized(&g, &info, &initiators);
        let expected: usize = {
            let mut s = std::collections::HashSet::new();
            for &v in &initiators {
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    s.insert((v.min(u), v.max(u)));
                }
            }
            s.len()
        };
        assert_eq!(a.edges.len(), expected);
    }
}
