//! Deterministic graph generators for the experiment workloads.
//!
//! Structured families (paths, cycles, grids, tori, trees, hypercubes,
//! circulants) are fully deterministic; random families (G(n,p), G(n,m),
//! random regular, preferential attachment) take an explicit `u64` seed and
//! use the crate-local `SplitMix64` stream, so every
//! experiment is reproducible bit-for-bit.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::rng::SplitMix64;
use crate::weighted::{WeightDist, WeightedGraph};

/// Path graph `0 – 1 – … – (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// Cycle on `n ≥ 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_capacity(n, n);
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    b.add_edge(n - 1, 0);
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(0, v);
    }
    b.build()
}

/// `rows × cols` 2-D grid (4-neighbor mesh). Vertex `(r, c)` has id
/// `r * cols + c`.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_edge(v, v + 1);
            }
            if r + 1 < rows {
                b.add_edge(v, v + cols);
            }
        }
    }
    b.build()
}

/// `rows × cols` 2-D torus (grid with wraparound).
///
/// # Panics
///
/// Panics if either dimension is `< 3` (wraparound would create multi-edges).
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            b.add_edge(v, r * cols + (c + 1) % cols);
            b.add_edge(v, ((r + 1) % rows) * cols + c);
        }
    }
    b.build()
}

/// `d`-dimensional hypercube `Q_d` on `2^d` vertices.
///
/// # Panics
///
/// Panics if `d > 20` (guard against accidental huge graphs).
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 20, "hypercube dimension too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::with_capacity(n, n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge(v, u);
            }
        }
    }
    b.build()
}

/// Complete binary tree on `n` vertices (heap layout: children of `v` are
/// `2v+1`, `2v+2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v, (v - 1) / 2);
    }
    b.build()
}

/// Circulant graph: vertex `v` is adjacent to `v ± s (mod n)` for each shift
/// `s` in `shifts`. With well-chosen shifts this is a decent expander.
///
/// # Panics
///
/// Panics if `n < 3` or any shift is `0` or `>= n`.
pub fn circulant(n: usize, shifts: &[usize]) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::with_capacity(n, n * shifts.len());
    for &s in shifts {
        assert!(s > 0 && s < n, "shift {s} out of range");
        for v in 0..n {
            b.add_edge(v, (v + s) % n);
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: every pair independently an edge with probability
/// `p`, driven by `seed`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new(n);
    if p >= 1.0 {
        return complete(n);
    }
    if p <= 0.0 || n < 2 {
        return b.build();
    }
    // Geometric skipping (Batagelj–Brandes): O(n + m) instead of O(n^2).
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r = rng.next_f64();
        let skip = ((1.0 - r).ln() / log_q).floor() as i64;
        w += 1 + skip;
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            b.add_edge(w as usize, v);
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct random edges.
///
/// # Panics
///
/// Panics if `m` exceeds the number of vertex pairs.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_m = n * n.saturating_sub(1) / 2;
    assert!(m <= max_m, "too many edges requested: {m} > {max_m}");
    let mut rng = SplitMix64::new(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(n, m);
    while chosen.len() < m {
        let u = rng.next_index(n);
        let v = rng.next_index(n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Random `d`-regular graph via the pairing model with restarts.
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be < n");
    // Steger–Wormald-style incremental pairing: repeatedly match two random
    // *suitable* stubs (distinct endpoints, edge not yet present), restarting
    // only when no suitable pair can be found. Unlike the naive pairing
    // model (restart on first collision; success probability ~e^{-d²/4}),
    // this succeeds in O(1) attempts for d ≪ n.
    let mut rng = SplitMix64::new(seed);
    'restart: loop {
        let mut stubs: Vec<u32> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v as u32, d))
            .collect();
        let mut seen = std::collections::HashSet::with_capacity(n * d);
        let mut b = GraphBuilder::with_capacity(n, n * d / 2);
        while !stubs.is_empty() {
            let mut tries = 0;
            loop {
                let i = rng.next_index(stubs.len());
                let mut j = rng.next_index(stubs.len());
                while j == i {
                    j = rng.next_index(stubs.len());
                }
                let (u, v) = (stubs[i] as usize, stubs[j] as usize);
                let key = (u.min(v) as u32, u.max(v) as u32);
                if u != v && !seen.contains(&key) {
                    seen.insert(key);
                    b.add_edge(u, v);
                    // Remove the larger index first so the smaller stays valid.
                    let (hi, lo) = (i.max(j), i.min(j));
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    break;
                }
                tries += 1;
                if tries > 200 {
                    continue 'restart; // dead end (rare; only near the end)
                }
            }
        }
        return b.build();
    }
}

/// Barabási–Albert preferential attachment: start from a clique on
/// `attach + 1` vertices, each new vertex attaches to `attach` existing
/// vertices sampled proportionally to degree. Models social-network overlays
/// (one of the paper's motivating application domains for spanners).
///
/// # Panics
///
/// Panics if `attach == 0` or `n <= attach`.
pub fn preferential_attachment(n: usize, attach: usize, seed: u64) -> Graph {
    assert!(attach > 0, "attach must be positive");
    assert!(n > attach, "need n > attach");
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::with_capacity(n, n * attach);
    // Repeated-endpoint list: sampling uniformly from it = degree-proportional.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * attach);
    let core = attach + 1;
    for u in 0..core {
        for v in (u + 1)..core {
            b.add_edge(u, v);
            endpoints.push(u as u32);
            endpoints.push(v as u32);
        }
    }
    for v in core..n {
        // BTreeSet: deterministic iteration order — the endpoints list feeds
        // future sampling, so hash-order iteration would make the generator
        // nondeterministic across runs (caught by a property test).
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < attach {
            let t = endpoints[rng.next_index(endpoints.len())] as usize;
            picked.insert(t);
        }
        for &t in &picked {
            b.add_edge(v, t);
            endpoints.push(v as u32);
            endpoints.push(t as u32);
        }
    }
    b.build()
}

/// Barbell: two cliques of size `k` joined by a path of `bridge` extra
/// vertices. A classic hard case for distance preservation.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 2);
    let n = 2 * k + bridge;
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v);
            b.add_edge(k + bridge + u, k + bridge + v);
        }
    }
    // Path k-1 -> k .. k+bridge-1 -> k+bridge (first vertex of second clique).
    let mut prev = k - 1;
    for i in 0..bridge {
        b.add_edge(prev, k + i);
        prev = k + i;
    }
    b.add_edge(prev, k + bridge);
    b.build()
}

/// Caterpillar: a path of length `spine` where each spine vertex gets
/// `legs` pendant vertices.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..spine {
        b.add_edge(v - 1, v);
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(s, spine + s * legs + l);
        }
    }
    b.build()
}

/// A connected G(n,p)-style graph: generates `gnp` and then links the
/// components along a deterministic spanning chain of cheapest vertices, so
/// the result is connected but statistically close to `G(n,p)`.
pub fn connected_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let g = gnp(n, p, seed);
    let comps = crate::connectivity::components(&g);
    if comps.count() <= 1 {
        return g;
    }
    let mut b = GraphBuilder::with_capacity(n, g.num_edges() + comps.count());
    b.extend_edges(g.edges());
    let reps = comps.representatives();
    for w in reps.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7);
        assert_eq!(g.num_edges(), 7);
        assert!((0..7).all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_graph_size() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!((0..6).all(|v| g.degree(v) == 5));
    }

    #[test]
    fn grid_degrees() {
        let g = grid2d(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // edge
        assert_eq!(g.degree(5), 4); // interior
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus2d(4, 5);
        assert!((0..20).all(|v| g.degree(v) == 4));
        assert_eq!(g.num_edges(), 40);
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.num_vertices(), 16);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert!(is_connected(&g));
    }

    #[test]
    fn binary_tree_is_tree() {
        let g = binary_tree(15);
        assert_eq!(g.num_edges(), 14);
        assert!(is_connected(&g));
    }

    #[test]
    fn circulant_degrees() {
        let g = circulant(11, &[1, 3, 5]);
        assert!((0..11).all(|v| g.degree(v) == 6));
    }

    #[test]
    fn gnp_deterministic_and_plausible() {
        let a = gnp(200, 0.05, 99);
        let b = gnp(200, 0.05, 99);
        assert_eq!(a.num_edges(), b.num_edges());
        let expected = 0.05 * (200.0 * 199.0 / 2.0);
        let m = a.num_edges() as f64;
        assert!(m > expected * 0.6 && m < expected * 1.4, "m = {m}");
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = gnm(50, 120, 7);
        assert_eq!(g.num_edges(), 120);
    }

    #[test]
    fn random_regular_is_regular() {
        let g = random_regular(30, 4, 11);
        assert!((0..30).all(|v| g.degree(v) == 4));
    }

    #[test]
    fn preferential_attachment_size() {
        let g = preferential_attachment(100, 3, 5);
        assert_eq!(g.num_vertices(), 100);
        // core clique 4C2 = 6 edges + 96 * 3
        assert_eq!(g.num_edges(), 6 + 96 * 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn barbell_connected_with_bridge() {
        let g = barbell(5, 3);
        assert_eq!(g.num_vertices(), 13);
        assert!(is_connected(&g));
        assert_eq!(g.num_edges(), 2 * 10 + 4);
    }

    #[test]
    fn caterpillar_is_tree() {
        let g = caterpillar(6, 2);
        assert_eq!(g.num_vertices(), 18);
        assert_eq!(g.num_edges(), 17);
        assert!(is_connected(&g));
    }

    #[test]
    fn connected_gnp_is_connected() {
        // Low p would normally give a disconnected graph at this size.
        let g = connected_gnp(100, 0.01, 3);
        assert!(is_connected(&g));
    }
}

/// Watts–Strogatz small world: a ring lattice where each vertex connects to
/// its `k/2` nearest neighbors on each side, with every edge rewired to a
/// random endpoint with probability `p_rewire`. Small diameter, high
/// clustering — the "overlay network" workload shape.
///
/// # Panics
///
/// Panics if `k` is odd, `k >= n`, or `n < 3`.
pub fn watts_strogatz(n: usize, k: usize, p_rewire: f64, seed: u64) -> Graph {
    assert!(n >= 3);
    assert!(k.is_multiple_of(2), "k must be even");
    assert!(k < n, "k must be < n");
    let mut rng = SplitMix64::new(seed);
    let mut edges = std::collections::HashSet::new();
    for v in 0..n {
        for j in 1..=(k / 2) {
            let u = (v + j) % n;
            edges.insert((v.min(u), v.max(u)));
        }
    }
    let mut list: Vec<(usize, usize)> = edges.iter().copied().collect();
    list.sort_unstable();
    for &(u, v) in &list {
        if rng.next_bool(p_rewire) {
            // Rewire (u, v) -> (u, w) for a random non-neighbor w.
            for _attempt in 0..16 {
                let w = rng.next_index(n);
                let key = (u.min(w), u.max(w));
                if w != u && !edges.contains(&key) {
                    edges.remove(&(u.min(v), u.max(v)));
                    edges.insert(key);
                    break;
                }
            }
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Random geometric graph on the unit square: `n` points placed uniformly
/// (seeded); vertices within Euclidean distance `radius` are adjacent.
/// The "wireless mesh" workload shape: long graph distances, local edges.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
    let r2 = radius * radius;
    // Grid hashing for near-linear construction.
    let cell = radius.max(1e-9);
    let cells = (1.0 / cell).ceil() as i64 + 1;
    let mut grid: std::collections::HashMap<(i64, i64), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        grid.entry(((x / cell) as i64, (y / cell) as i64))
            .or_default()
            .push(i);
    }
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = ((x / cell) as i64, (y / cell) as i64);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < 0 || ny < 0 || nx > cells || ny > cells {
                    continue;
                }
                if let Some(bucket) = grid.get(&(nx, ny)) {
                    for &j in bucket {
                        if j <= i {
                            continue;
                        }
                        let (qx, qy) = pts[j];
                        let (ddx, ddy) = (x - qx, y - qy);
                        if ddx * ddx + ddy * ddy <= r2 {
                            b.add_edge(i, j);
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Connected variant of [`random_geometric`]: components are chained via
/// their representative vertices (same trick as [`connected_gnp`]).
pub fn connected_random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    let g = random_geometric(n, radius, seed);
    let comps = crate::connectivity::components(&g);
    if comps.count() <= 1 {
        return g;
    }
    let mut b = GraphBuilder::with_capacity(n, g.num_edges() + comps.count());
    b.extend_edges(g.edges());
    let reps = comps.representatives();
    for w in reps.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.build()
}

/// Salt xored into a topology seed to derive the independent weight stream
/// used by the `weighted_*` generator wrappers — so the weighted twin of a
/// seeded graph shares its topology but not its weight randomness.
const WEIGHT_STREAM_SALT: u64 = 0x57E1_66B2_9C4F_0A3D;

/// Weighted [`gnp`]: the same topology as `gnp(n, p, seed)`, with one
/// weight per edge drawn from `dist` on an independent seeded stream.
pub fn weighted_gnp(n: usize, p: f64, seed: u64, dist: WeightDist) -> WeightedGraph {
    WeightedGraph::from_graph(gnp(n, p, seed), dist, seed ^ WEIGHT_STREAM_SALT)
}

/// Weighted [`grid2d`]: the deterministic grid topology with seeded edge
/// weights from `dist`.
pub fn weighted_grid2d(rows: usize, cols: usize, seed: u64, dist: WeightDist) -> WeightedGraph {
    WeightedGraph::from_graph(grid2d(rows, cols), dist, seed ^ WEIGHT_STREAM_SALT)
}

/// Weighted [`path`]: the deterministic path topology with seeded edge
/// weights from `dist`.
pub fn weighted_path(n: usize, seed: u64, dist: WeightDist) -> WeightedGraph {
    WeightedGraph::from_graph(path(n), dist, seed ^ WEIGHT_STREAM_SALT)
}

#[cfg(test)]
mod more_generator_tests {
    use super::*;
    use crate::connectivity::is_connected;

    #[test]
    fn watts_strogatz_no_rewire_is_ring_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 1);
        assert!((0..20).all(|v| g.degree(v) == 4));
        assert!(is_connected(&g));
    }

    #[test]
    fn watts_strogatz_rewired_keeps_edge_budget() {
        let g = watts_strogatz(50, 6, 0.3, 2);
        // Rewiring never adds edges (only moves them), may drop on collision.
        assert!(g.num_edges() <= 150);
        assert!(g.num_edges() > 120);
    }

    #[test]
    fn watts_strogatz_deterministic() {
        assert_eq!(watts_strogatz(30, 4, 0.2, 9), watts_strogatz(30, 4, 0.2, 9));
    }

    #[test]
    fn random_geometric_radius_extremes() {
        let empty = random_geometric(20, 0.0, 3);
        assert_eq!(empty.num_edges(), 0);
        let full = random_geometric(20, 1.5, 3);
        assert_eq!(full.num_edges(), 190); // sqrt(2) < 1.5: complete
    }

    #[test]
    fn random_geometric_matches_bruteforce() {
        let n = 60;
        let (radius, seed) = (0.25, 7);
        let g = random_geometric(n, radius, seed);
        // Recompute points with the same stream and check each pair.
        let mut rng = SplitMix64::new(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                let within = dx * dx + dy * dy <= radius * radius;
                assert_eq!(g.has_edge(i, j), within, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn connected_random_geometric_is_connected() {
        let g = connected_random_geometric(80, 0.08, 5);
        assert!(is_connected(&g));
    }

    #[test]
    fn weighted_wrappers_share_topology_with_unweighted() {
        let dist = WeightDist::Uniform { lo: 1, hi: 50 };
        let wg = weighted_gnp(60, 0.1, 4, dist);
        assert_eq!(wg.graph(), &gnp(60, 0.1, 4));
        let wgr = weighted_grid2d(4, 6, 9, dist);
        assert_eq!(wgr.graph(), &grid2d(4, 6));
        let wpa = weighted_path(12, 1, dist);
        assert_eq!(wpa.graph(), &path(12));
        assert!(wg.edges_weighted().all(|(_, _, w)| (1..=50).contains(&w)));
    }

    #[test]
    fn weight_stream_is_independent_of_topology_stream() {
        // Same topology seed, different distributions: same graph, and the
        // weights only depend on the weight stream.
        let a = weighted_gnp(40, 0.1, 7, WeightDist::Uniform { lo: 1, hi: 9 });
        let b = weighted_gnp(40, 0.1, 7, WeightDist::Constant(4));
        assert_eq!(a.graph(), b.graph());
        assert!(b.edges_weighted().all(|(_, _, w)| w == 4));
    }
}
