//! Clusterings `P_i` and the bookkeeping the analysis lemmas talk about.

use crate::driver::PhaseStats;
use nas_graph::{BfsScratch, DistanceMap, EdgeSet};

/// One collection of clusters `P_i`: a set of disjoint, centered clusters
/// covering a subset of `V`.
///
/// `center_of[v] = Some(r)` means `v` belongs to the cluster centered at `r`
/// in this phase; `None` means `v` is not in any phase-`i` cluster (its
/// cluster settled into some `U_j`, `j < i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    center_of: Vec<Option<u32>>,
    centers: Vec<usize>,
}

impl Clustering {
    /// The phase-0 clustering: every vertex is a singleton cluster centered
    /// at itself.
    pub fn singletons(n: usize) -> Self {
        Clustering {
            center_of: (0..n).map(|v| Some(v as u32)).collect(),
            centers: (0..n).collect(),
        }
    }

    /// Builds a clustering from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if some assigned center is not itself assigned to itself.
    pub fn from_assignment(center_of: Vec<Option<u32>>) -> Self {
        let mut centers: Vec<usize> = center_of
            .iter()
            .enumerate()
            .filter_map(|(v, &c)| (c == Some(v as u32)).then_some(v))
            .collect();
        centers.sort_unstable();
        for (v, &c) in center_of.iter().enumerate() {
            if let Some(c) = c {
                assert_eq!(
                    center_of[c as usize],
                    Some(c),
                    "center {c} of vertex {v} must be its own center"
                );
            }
        }
        Clustering { center_of, centers }
    }

    /// The sorted cluster centers `S_i`.
    pub fn centers(&self) -> &[usize] {
        &self.centers
    }

    /// Number of clusters `|P_i|`.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// The center of `v`'s cluster, if `v` is clustered in this phase.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn center_of(&self, v: usize) -> Option<usize> {
        self.center_of[v].map(|c| c as usize)
    }

    /// Whether `v` is a cluster center.
    pub fn is_center(&self, v: usize) -> bool {
        self.center_of[v] == Some(v as u32)
    }

    /// The members of the cluster centered at `r` (sorted).
    pub fn members(&self, r: usize) -> Vec<usize> {
        self.center_of
            .iter()
            .enumerate()
            .filter_map(|(v, &c)| (c == Some(r as u32)).then_some(v))
            .collect()
    }

    /// Total number of clustered vertices.
    pub fn clustered_vertices(&self) -> usize {
        self.center_of.iter().filter(|c| c.is_some()).count()
    }

    /// Maximum cluster radius **measured in the spanner `H`**: for every
    /// clustered vertex, the distance in `H` to its center (Lemma 2.3's
    /// `Rad(P_i)` is defined w.r.t. `H`). Returns 0 for all-singleton or
    /// empty clusterings.
    ///
    /// # Panics
    ///
    /// Panics if some clustered vertex cannot reach its center in `H` — that
    /// would falsify the algorithm's radius invariant.
    pub fn radius_in(&self, h: &EdgeSet) -> u64 {
        let hg = h.to_graph();
        let mut worst = 0u64;
        // One flat row + scratch reused across all centers.
        let mut d = DistanceMap::new();
        let mut scratch = BfsScratch::new();
        for &r in &self.centers {
            d.fill(&hg, [r], &mut scratch);
            for (v, &c) in self.center_of.iter().enumerate() {
                if c == Some(r as u32) {
                    let dv = d
                        .get(v)
                        .unwrap_or_else(|| panic!("vertex {v} cannot reach its center {r} in H"));
                    worst = worst.max(dv as u64);
                }
            }
        }
        worst
    }

    /// Builds the next clustering `P_{i+1}` from the superclustering step:
    /// each root `r ∈ roots` absorbs the members of every cluster whose
    /// center is assigned to `r` in `center_to_root`.
    ///
    /// Returns the new clustering; vertices of non-superclustered clusters
    /// become unclustered (`None`).
    pub fn supercluster(&self, center_to_root: &[(usize, usize)]) -> Clustering {
        let n = self.center_of.len();
        let mut root_of_center: Vec<Option<u32>> = vec![None; n];
        for &(c, r) in center_to_root {
            debug_assert!(self.is_center(c), "{c} is not a center");
            root_of_center[c] = Some(r as u32);
        }
        let center_of = (0..n)
            .map(|v| self.center_of[v].and_then(|c| root_of_center[c as usize]))
            .collect();
        Clustering::from_assignment(center_of)
    }
}

/// Verifies that the per-phase settled sets `U_0, …, U_ℓ` partition `V`
/// (Corollary 2.5): every vertex settled in exactly one phase, with a valid
/// cluster center recorded.
///
/// `settled[v] = (phase, center)` as recorded by the driver.
pub fn verify_settled_partition(n: usize, settled: &[Option<(usize, u32)>]) -> Result<(), String> {
    if settled.len() != n {
        return Err(format!(
            "settled table has {} entries, want {n}",
            settled.len()
        ));
    }
    for (v, s) in settled.iter().enumerate() {
        if s.is_none() {
            return Err(format!(
                "vertex {v} never settled — U^(ℓ) is not a partition"
            ));
        }
    }
    Ok(())
}

/// Verifies the per-phase spanner-size accounting of an `n`-vertex run
/// (Lemma 2.12): in every phase `i`, the superclustering forest adds at
/// most `n−1` edges, and interconnection adds at most
/// `|U_i|·min(deg_i, n+1)` paths (one per known center) of at most `δ_i`
/// edges each, so at most `max(1, |U_i|·min(deg_i, n)·δ_i)` edges.
///
/// The asymptotic `O(β·n^{1+1/κ})` size bound has no constant to check, so
/// this accounting is the form of it a run can be checked against. On
/// `Backend::Full` the structural counters read zero, so the check passes
/// trivially there.
pub fn verify_phase_sizes(n: usize, phases: &[PhaseStats]) -> Result<(), String> {
    let n = n as u64;
    let forest = n.saturating_sub(1);
    for p in phases {
        let u = p.settled_clusters as u64;
        let paths = u.saturating_mul(p.deg.min(n + 1));
        let edges = u.saturating_mul(p.deg.min(n)).saturating_mul(p.delta);
        for (what, count, bound) in [
            ("forest edges", p.supercluster_path_edges, forest),
            ("interconnect paths", p.interconnect_paths, paths),
            ("interconnect edges", p.interconnect_edges, edges.max(1)),
        ] {
            if count as u64 > bound {
                return Err(format!("phase {}: {count} {what} exceed {bound}", p.phase));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::generators;

    #[test]
    fn singletons_shape() {
        let c = Clustering::singletons(5);
        assert_eq!(c.len(), 5);
        assert!(c.is_center(3));
        assert_eq!(c.center_of(2), Some(2));
        assert_eq!(c.members(4), vec![4]);
        assert_eq!(c.clustered_vertices(), 5);
    }

    #[test]
    fn supercluster_merges_members() {
        let c = Clustering::singletons(6);
        // Clusters 0,1,2 join root 0; clusters 3,4 join root 4; cluster 5 settles.
        let next = c.supercluster(&[(0, 0), (1, 0), (2, 0), (3, 4), (4, 4)]);
        assert_eq!(next.len(), 2);
        assert_eq!(next.centers(), &[0, 4]);
        assert_eq!(next.members(0), vec![0, 1, 2]);
        assert_eq!(next.members(4), vec![3, 4]);
        assert_eq!(next.center_of(5), None);
    }

    #[test]
    fn radius_in_spanner() {
        let g = generators::path(5);
        let c = Clustering::singletons(5).supercluster(&[(0, 2), (1, 2), (2, 2), (3, 2), (4, 2)]);
        let mut h = nas_graph::EdgeSet::new(5);
        h.extend(g.edges());
        assert_eq!(c.radius_in(&h), 2);
    }

    #[test]
    #[should_panic(expected = "cannot reach its center")]
    fn radius_detects_disconnection() {
        let c = Clustering::singletons(3).supercluster(&[(0, 0), (2, 0)]);
        let h = nas_graph::EdgeSet::new(3); // empty spanner
        let _ = c.radius_in(&h);
    }

    #[test]
    fn settled_partition_checks() {
        let ok = vec![Some((0, 0u32)), Some((1, 0))];
        assert!(verify_settled_partition(2, &ok).is_ok());
        let bad = vec![Some((0, 0u32)), None];
        assert!(verify_settled_partition(2, &bad).is_err());
    }

    #[test]
    #[should_panic(expected = "must be its own center")]
    fn invalid_assignment_panics() {
        // Vertex 0's center is 1 but 1's center is 0 — inconsistent.
        Clustering::from_assignment(vec![Some(1), Some(0)]);
    }
}
