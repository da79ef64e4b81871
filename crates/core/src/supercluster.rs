//! The superclustering step (§2.2): growing clusters around ruling-set roots.
//!
//! Given the ruling set `RS_i ⊆ W_i`, a BFS forest `F_i` rooted at `RS_i` is
//! grown to depth `2·c·δ_i` (the ruling set's domination radius, so Lemma 2.4
//! holds: every popular center is covered). Every cluster center spanned by
//! `F_i` is superclustered into the cluster of its root, and the tree path
//! from the root to that center is added to the spanner `H` (Figure 4).
//!
//! Distributed realization (two sub-protocols, both `O(depth)` rounds):
//!
//! 1. **Claim flood** — multi-source BFS from the roots; a vertex adopts the
//!    smallest `(root, sender)` claim it hears in its first round of contact.
//!    Identical tie-breaking to [`nas_graph::bfs::bfs_forest`], so the
//!    centralized and distributed forests agree exactly.
//! 2. **Confirm upcast** — every *cluster center* spanned by the forest sends
//!    a confirm toward its parent; each vertex forwards at most one confirm
//!    (deduplicated), marking the traversed edges for inclusion in `H`.
//!    Shared path prefixes are confirmed once, and the union of marked edges
//!    equals the union of root→center tree paths.

use nas_congest::{Merge, Msg, NodeProgram, RoundCtx, RunHooks, RunStats, SimArena, Simulator};
use nas_graph::{bfs, EdgeSet, Graph};

/// Output of one superclustering step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superclustering {
    /// For every vertex: the root whose tree claimed it (within depth).
    pub root: Vec<Option<u32>>,
    /// BFS parent of every claimed non-root vertex.
    pub parent: Vec<Option<u32>>,
    /// Centers that were superclustered, paired with their root:
    /// `(center, root)`, sorted by center.
    pub assignment: Vec<(usize, usize)>,
    /// Edges added to `H` (the root→center tree paths).
    pub path_edges: EdgeSet,
}

/// Centralized superclustering: BFS forest + path extraction.
///
/// `roots` are the ruling-set members; `centers` the phase's cluster centers
/// `S_i`; `depth` the exploration depth `2·c·δ_i`.
pub fn supercluster_centralized(
    g: &Graph,
    roots: &[usize],
    centers: &[usize],
    depth: u64,
) -> Superclustering {
    let n = g.num_vertices();
    let forest = bfs::bfs_forest(g, roots.iter().copied(), Some(depth as u32));
    let mut assignment = Vec::new();
    let mut path_edges = EdgeSet::new(n);
    for &c in centers {
        if let Some(root) = forest.root[c] {
            assignment.push((c, root as usize));
            let path = forest
                .path_to_root(c)
                .expect("claimed center has a path to its root");
            path_edges.insert_path(&path);
        }
    }
    Superclustering {
        root: forest.root,
        parent: forest.parent,
        assignment,
        path_edges,
    }
}

/// Per-node state of the two-stage distributed superclustering protocol.
///
/// Rounds `[0, depth]` run the claim flood; rounds `(depth, 2·depth+2]` run
/// the confirm upcast. Total: `2·depth + 2` rounds.
#[derive(Debug, Clone)]
pub struct SuperclusterProtocol {
    is_root: bool,
    is_center: bool,
    depth: u64,
    claim: Option<(u32, u32)>, // (root, parent) — parent == self id for roots
    confirmed: bool,
    /// Edges this node marked for `H` during the upcast (as (self, neighbor)).
    marked: Vec<(u32, u32)>,
}

impl SuperclusterProtocol {
    /// Creates the program for one node.
    pub fn new(is_root: bool, is_center: bool, depth: u64) -> Self {
        SuperclusterProtocol {
            is_root,
            is_center,
            depth,
            claim: None,
            confirmed: false,
            marked: Vec::new(),
        }
    }

    /// Edges this node marked for `H` (as `(self, neighbor)` pairs).
    pub fn marked_edges(&self) -> &[(u32, u32)] {
        &self.marked
    }

    /// Total rounds of the combined protocol.
    pub fn total_rounds(depth: u64) -> u64 {
        2 * depth + 2
    }

    /// The root that claimed this node, if any.
    pub fn root(&self) -> Option<u32> {
        self.claim.map(|(r, _)| r)
    }

    /// The BFS parent (meaningful for claimed non-roots).
    pub fn parent(&self) -> Option<u32> {
        self.claim.and_then(|(r, p)| {
            if self.is_root && r == p {
                None
            } else {
                Some(p)
            }
        })
    }
}

impl NodeProgram for SuperclusterProtocol {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let r = ctx.round();
        if r <= self.depth {
            // --- Claim flood ---
            if r == 0 {
                if self.is_root {
                    self.claim = Some((ctx.id() as u32, ctx.id() as u32));
                    if self.depth > 0 {
                        // Adoption takes min `(root, sender)`; ports ascend
                        // with neighbor ids, so min `(payload, port)` — the
                        // `Merge::Min` representative — is the same claim.
                        ctx.send_all(Msg::one(ctx.id() as u64).merged(Merge::Min));
                    }
                }
                return;
            }
            if self.claim.is_none() && !ctx.inbox().is_empty() {
                let best = ctx
                    .inbox()
                    .iter()
                    .map(|inc| {
                        (
                            inc.msg.word(0) as u32,
                            ctx.neighbor(inc.from_port as usize) as u32,
                        )
                    })
                    .min()
                    .expect("inbox non-empty");
                self.claim = Some(best);
                if r < self.depth {
                    ctx.send_all(Msg::one(best.0 as u64).merged(Merge::Min));
                }
            }
            return;
        }
        // --- Confirm upcast ---
        let up_round = r - self.depth - 1;
        let send_confirm = if up_round == 0 {
            // Spanned centers initiate (roots have no path to confirm).
            self.is_center && !self.is_root && self.claim.is_some() && !self.confirmed
        } else {
            !self.confirmed && !ctx.inbox().is_empty()
        };
        if send_confirm {
            self.confirmed = true;
            if let Some((_, parent)) = self.claim {
                if parent != ctx.id() as u32 {
                    let port = ctx.port_of(parent);
                    self.marked.push((ctx.id() as u32, parent));
                    // A parent only tests "any confirm arrived?", so confirms
                    // from several children OR together into one slot.
                    ctx.send(port, Msg::one(0).merged(Merge::Or));
                }
            }
        } else if !ctx.inbox().is_empty() && self.confirmed {
            // Duplicate confirms from other descendants: already forwarded.
        }
    }

    /// Roots act spontaneously once (launching the claim flood at round 0);
    /// everything else — claim relays and confirm forwarding — happens in
    /// the same visit a message arrives, so those nodes are purely
    /// reactive. Claimed non-root centers *do* act spontaneously once more
    /// (initiating the confirm upcast), but at a round they can compute the
    /// moment they are claimed, so they sleep on a timed wake-up
    /// ([`SuperclusterProtocol::next_wake`]) instead of staying non-idle
    /// through the rest of the claim flood.
    fn is_idle(&self) -> bool {
        !self.is_root || self.claim.is_some()
    }

    /// A claimed non-root center must attend the first upcast round
    /// (`depth + 1`) to initiate its confirm; claims are only adopted
    /// during the flood (rounds `≤ depth`), so the appointment is always in
    /// the future when set.
    fn next_wake(&self) -> Option<u64> {
        (self.is_center && !self.is_root && !self.confirmed && self.claim.is_some())
            .then_some(self.depth + 1)
    }
}

/// Runs the distributed superclustering step, installed into `arena`, and
/// packages the result.
///
/// The run reports to `hooks`' round observer (which may cancel it) and
/// attaches `hooks`' worker pool. On cancellation (`hooks.stopped`) the
/// returned forest is truncated mid-protocol — callers must check the flag
/// and discard it. Only the roots act in the first round (see
/// [`Simulator::install`]), so a step without roots costs no visits.
pub fn supercluster_distributed(
    g: &Graph,
    roots: &[usize],
    centers: &[usize],
    depth: u64,
    arena: &mut SimArena,
    hooks: &mut RunHooks<'_>,
) -> (Superclustering, RunStats) {
    let n = g.num_vertices();
    let mut is_root = vec![false; n];
    for &r in roots {
        is_root[r] = true;
    }
    let mut is_center = vec![false; n];
    for &c in centers {
        is_center[c] = true;
    }
    let programs: Vec<SuperclusterProtocol> = (0..n)
        .map(|v| SuperclusterProtocol::new(is_root[v], is_center[v], depth))
        .collect();
    let mut sim = Simulator::install(g, programs, roots, std::mem::take(arena));
    hooks.attach(&mut sim);
    sim.run_rounds_observed(SuperclusterProtocol::total_rounds(depth), hooks);
    let stats = *sim.stats();
    let (programs, kept) = sim.into_parts();
    *arena = kept;

    let root: Vec<Option<u32>> = programs.iter().map(|p| p.root()).collect();
    let parent: Vec<Option<u32>> = programs.iter().map(|p| p.parent()).collect();
    let mut assignment = Vec::new();
    for &c in centers {
        if let Some(r) = root[c] {
            assignment.push((c, r as usize));
        }
    }
    assignment.sort_unstable();
    let mut path_edges = EdgeSet::new(n);
    for p in &programs {
        for &(a, b) in &p.marked {
            path_edges.insert(a as usize, b as usize);
        }
    }
    (
        Superclustering {
            root,
            parent,
            assignment,
            path_edges,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::generators;

    #[test]
    fn single_root_claims_within_depth() {
        let g = generators::path(10);
        let sc = supercluster_centralized(&g, &[0], &(0..10).collect::<Vec<_>>(), 4);
        for v in 0..=4 {
            assert_eq!(sc.root[v], Some(0));
        }
        for v in 5..10 {
            assert_eq!(sc.root[v], None);
        }
        // Path edges 0-1-2-3-4 added (paths to each spanned center).
        assert_eq!(sc.path_edges.len(), 4);
    }

    #[test]
    fn assignment_lists_spanned_centers_only() {
        let g = generators::path(10);
        let centers = vec![0, 3, 7];
        let sc = supercluster_centralized(&g, &[0], &centers, 4);
        assert_eq!(sc.assignment, vec![(0, 0), (3, 0)]);
    }

    #[test]
    fn two_roots_split_by_distance() {
        let g = generators::path(11);
        let sc = supercluster_centralized(&g, &[0, 10], &(0..11).collect::<Vec<_>>(), 5);
        assert_eq!(sc.root[4], Some(0));
        assert_eq!(sc.root[5], Some(0)); // tie at distance 5 goes to root 0
        assert_eq!(sc.root[6], Some(10));
    }

    #[test]
    fn distributed_matches_centralized() {
        let cases = vec![
            (generators::grid2d(6, 6), vec![0, 35], 4u64),
            (generators::connected_gnp(60, 0.06, 3), vec![5, 20, 40], 3),
            (generators::cycle(20), vec![0, 7], 5),
            (generators::preferential_attachment(50, 2, 1), vec![10], 6),
        ];
        for (g, roots, depth) in cases {
            let n = g.num_vertices();
            let centers: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
            let a = supercluster_centralized(&g, &roots, &centers, depth);
            let (b, stats) = supercluster_distributed(
                &g,
                &roots,
                &centers,
                depth,
                &mut SimArena::new(),
                &mut RunHooks::none(),
            );
            assert_eq!(a.root, b.root, "roots differ");
            assert_eq!(a.assignment, b.assignment, "assignment differs");
            assert_eq!(a.path_edges, b.path_edges, "path edges differ");
            assert_eq!(stats.rounds, SuperclusterProtocol::total_rounds(depth));
        }
    }

    #[test]
    fn paths_lie_in_graph_and_reach_roots() {
        let g = generators::connected_gnp(40, 0.1, 9);
        let centers: Vec<usize> = (0..40).collect();
        let sc = supercluster_centralized(&g, &[0, 17], &centers, 3);
        assert!(sc.path_edges.verify_subgraph_of(&g).is_ok());
        // Every spanned center reaches its root within the path edges.
        let h = sc.path_edges.to_graph();
        for &(c, r) in &sc.assignment {
            if c == r {
                continue;
            }
            let d = nas_graph::DistanceMap::from_source(&h, c);
            assert!(d.reached(r), "center {c} cannot reach root {r} in H-paths");
            assert!(d.get(r).unwrap() <= 3);
        }
    }

    #[test]
    fn depth_zero_claims_only_roots() {
        let g = generators::path(5);
        let sc = supercluster_centralized(&g, &[2], &(0..5).collect::<Vec<_>>(), 0);
        assert_eq!(sc.assignment, vec![(2, 2)]);
        assert!(sc.path_edges.is_empty());
    }
}
