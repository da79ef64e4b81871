//! Centralized reference implementation of the digit-elimination ruling set.
//!
//! Runs the exact same sub-phase schedule as the distributed protocol (see
//! [`crate::distributed`]), but executes each kill wave as a plain
//! multi-source BFS. A kill only needs to know that some wave arrived, so
//! the waves carry no origin. The distributed protocol must reproduce this
//! membership exactly, and [`crate::verify_ruling_set`] certifies both.
//! Used by the centralized and LOCAL spanner engines.

use crate::digits::DigitPlan;
use crate::result::{in_w_mask, RulingParams, RulingSet};
use nas_graph::{EpochMarks, Graph};

/// Computes a `(q+1, cq)`-ruling set for `w` in `g` (centralized).
///
/// `w` may list vertices in any order; duplicates are ignored.
///
/// # Panics
///
/// Panics if a vertex of `w` is out of range.
pub fn ruling_set_centralized(g: &Graph, w: &[usize], params: RulingParams) -> RulingSet {
    let n = g.num_vertices();
    // active[v]: v ∈ W and not yet killed.
    let mut active = in_w_mask(n, w);
    if w.is_empty() {
        return RulingSet::default();
    }

    let plan = DigitPlan::new(n, params.c);
    let q = params.q;

    // Scratch for the per-sub-phase kill wave, on the flat distance plane:
    // an epoch-marked visited set (O(1) logical clear between waves — no
    // touched-list rewind) plus swap frontiers, so no dense distance table
    // is needed at all. Zero allocation at steady state once the buffers
    // hit their high-water mark.
    let mut visited = EpochMarks::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    // The surviving members, sorted by the current iteration's digit: each
    // run of equal digits `b` holds sub-phase `b`'s candidate sources.
    let mut members: Vec<usize> = (0..n).filter(|&v| active[v]).collect();

    for i in 0..params.c {
        let digit = |v: usize| plan.digit(v as u64, i);
        members.retain(|&v| active[v]);
        members.sort_by_key(|&v| digit(v));
        for run in members.chunk_by(|&a, &b| digit(a) == digit(b)) {
            let b = digit(run[0]);
            // Depth-q multi-source wave from the run's active vertices (the
            // sources whose i-th digit is b), expanded level by level; kills
            // are applied at visit time (wave propagation never reads
            // `active`, so inline kills match a post-wave sweep). Sub-phases
            // whose run is absent or fully killed send no wave: an empty
            // wave kills nobody.
            visited.begin(n);
            frontier.clear();
            for &s in run.iter().filter(|&&v| active[v]) {
                visited.mark(s);
                frontier.push(s as u32);
            }
            for _depth in 0..q {
                if frontier.is_empty() {
                    break;
                }
                next.clear();
                for &v in &frontier {
                    for &u in g.neighbors(v as usize) {
                        let u = u as usize;
                        if visited.mark(u) {
                            if active[u] && digit(u) > b {
                                active[u] = false;
                            }
                            next.push(u as u32);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
    }

    RulingSet {
        members: (0..n).filter(|&v| active[v]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_ruling_set;
    use nas_graph::generators;

    #[test]
    fn path_full_w() {
        let g = generators::path(30);
        let w: Vec<usize> = (0..30).collect();
        let params = RulingParams::new(2, 2);
        let rs = ruling_set_centralized(&g, &w, params);
        verify_ruling_set(&g, &w, params, &rs).unwrap();
        assert!(!rs.members.is_empty());
    }

    #[test]
    fn grid_partial_w() {
        let g = generators::grid2d(8, 8);
        let w: Vec<usize> = (0..64).filter(|v| v % 3 == 0).collect();
        let params = RulingParams::new(3, 3);
        let rs = ruling_set_centralized(&g, &w, params);
        verify_ruling_set(&g, &w, params, &rs).unwrap();
    }

    #[test]
    fn clique_keeps_exactly_one() {
        let g = generators::complete(12);
        let w: Vec<usize> = (0..12).collect();
        let params = RulingParams::new(1, 2);
        let rs = ruling_set_centralized(&g, &w, params);
        // Everything is at distance 1, so at most one survivor; domination
        // requires at least one.
        assert_eq!(rs.members.len(), 1);
        verify_ruling_set(&g, &w, params, &rs).unwrap();
    }

    #[test]
    fn empty_w() {
        let g = generators::path(5);
        let rs = ruling_set_centralized(&g, &[], RulingParams::new(2, 2));
        assert_eq!(rs, RulingSet::default());
    }

    #[test]
    fn singleton_w_is_kept() {
        let g = generators::cycle(9);
        let rs = ruling_set_centralized(&g, &[4], RulingParams::new(3, 2));
        assert_eq!(rs.members, vec![4]);
    }

    #[test]
    fn random_graphs_hold_guarantees() {
        for seed in 0..5 {
            let g = generators::connected_gnp(80, 0.05, seed);
            let w: Vec<usize> = (0..80)
                .filter(|v| !(v + seed as usize).is_multiple_of(4))
                .collect();
            let params = RulingParams::new(2, 3);
            let rs = ruling_set_centralized(&g, &w, params);
            verify_ruling_set(&g, &w, params, &rs).unwrap();
        }
    }
}
