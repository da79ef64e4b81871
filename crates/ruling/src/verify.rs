//! The linear-time certificate of Theorem 2.2's two guarantees.
//!
//! [`verify_ruling_set`] runs one multi-source BFS from the members and
//! labels every vertex with the member that reached it first, so a
//! vertex's BFS distance is its distance to the nearest member: domination
//! is read off the distances of `W`. Separation is read off the edges: the
//! least `d(u) + 1 + d(v)` over the edges whose two labels differ is exactly
//! the distance between the two closest members. Each such edge closes a
//! walk between two distinct members; conversely, a shortest path between
//! the two closest members changes label on some edge `(x, y)`, and
//! `d(x) + 1 + d(y)` is at most that path's length.

use crate::result::{in_w_mask, RulingParams, RulingSet};
use nas_graph::Graph;

/// What [`verify_ruling_set`] measured on a valid ruling set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RulingCertificate {
    /// The distance between the two closest members; `None` when no two
    /// members share a component.
    pub min_separation: Option<u32>,
    /// The largest distance from a `W` vertex to its nearest member (0 when
    /// `W` is empty).
    pub max_domination: u32,
}

/// The guarantee a claimed ruling set breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RulingViolation {
    /// A member outside `W` (or outside the graph).
    NotInW {
        /// The offending member.
        a: usize,
    },
    /// The two closest members, `a ≤ b`, are nearer than `q + 1` (a member
    /// listed twice is `a = b` at distance 0).
    TooClose {
        /// The smaller member id.
        a: usize,
        /// The larger member id (or `a` again).
        b: usize,
        /// Their distance in `G`.
        dist: u32,
    },
    /// A `W` vertex farther than `c·q` from every member.
    Undominated {
        /// The offending `W` vertex.
        w: usize,
        /// Its distance to the nearest member; `None` when its component
        /// holds no member.
        dist: Option<u32>,
    },
}

/// Checks that `rs` is a `(q+1, cq)`-ruling set for `w` in `g`, in
/// `O(n + m)` time (see the module docs), and returns what it measured.
///
/// Separation is checked only between members of one component.
///
/// # Errors
///
/// Returns the first violation found, in this order: a member outside `W`,
/// the closest pair of members if nearer than `q + 1`, or the first vertex
/// of `w` farther than `c·q` from every member.
///
/// # Panics
///
/// Panics if a vertex of `w` is out of range.
pub fn verify_ruling_set(
    g: &Graph,
    w: &[usize],
    params: RulingParams,
    rs: &RulingSet,
) -> Result<RulingCertificate, RulingViolation> {
    const UNSEEN: u32 = u32::MAX;
    let n = g.num_vertices();
    let in_w = in_w_mask(n, w);
    let mut dist = vec![UNSEEN; n];
    let mut label = vec![0u32; n];
    // BFS order; after the loop, exactly the vertices a member reaches.
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    for &a in &rs.members {
        if !in_w.get(a).copied().unwrap_or(false) {
            return Err(RulingViolation::NotInW { a });
        }
        if dist[a] == 0 {
            return Err(RulingViolation::TooClose { a, b: a, dist: 0 });
        }
        dist[a] = 0;
        label[a] = a as u32;
        queue.push(a as u32);
    }
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let v = v as usize;
        for &u in g.neighbors(v) {
            if dist[u as usize] == UNSEEN {
                dist[u as usize] = dist[v] + 1;
                label[u as usize] = label[v];
                queue.push(u);
            }
        }
    }

    // Each edge with differing labels is seen once, from its smaller label.
    let mut closest: Option<(u64, usize, usize)> = None;
    for &v in &queue {
        let v = v as usize;
        for &u in g.neighbors(v) {
            let u = u as usize;
            if label[v] < label[u] {
                let d = dist[v] as u64 + 1 + dist[u] as u64;
                if closest.is_none_or(|(best, _, _)| d < best) {
                    closest = Some((d, label[v] as usize, label[u] as usize));
                }
            }
        }
    }
    if let Some((d, a, b)) = closest {
        if d < params.separation() as u64 {
            return Err(RulingViolation::TooClose {
                a,
                b,
                dist: d as u32,
            });
        }
    }

    let mut max_domination = 0;
    for &v in w {
        let d = dist[v];
        if d == UNSEEN || d > params.domination_radius() {
            let dist = (d != UNSEEN).then_some(d);
            return Err(RulingViolation::Undominated { w: v, dist });
        }
        max_domination = max_domination.max(d);
    }
    Ok(RulingCertificate {
        min_separation: closest.map(|(d, _, _)| d as u32),
        max_domination,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ruling_set_centralized;
    use nas_graph::{generators, GraphBuilder};
    use RulingViolation::{NotInW, TooClose, Undominated};

    /// Certifies `members` at `q = 2`, `c = 2`: members must be `≥ 3` apart
    /// and every `W` vertex within 4 of one.
    fn check(
        g: &Graph,
        w: &[usize],
        members: &[usize],
    ) -> Result<RulingCertificate, RulingViolation> {
        let rs = RulingSet {
            members: members.to_vec(),
        };
        verify_ruling_set(g, w, RulingParams::new(2, 2), &rs)
    }

    #[test]
    fn planted_violations_are_named() {
        let g = generators::path(12);
        let all: Vec<usize> = (0..12).collect();
        let even: Vec<usize> = (0..12).step_by(2).collect();
        let too_close = |a, b, dist| Err(TooClose { a, b, dist });
        assert_eq!(check(&g, &all, &[0, 2, 8]), too_close(0, 2, 2));
        assert_eq!(check(&g, &all, &[3, 3]), too_close(3, 3, 0));
        let undominated = Undominated {
            w: 5,
            dist: Some(5),
        };
        assert_eq!(check(&g, &all, &[0, 11]), Err(undominated));
        assert_eq!(check(&g, &even, &[0, 3, 8]), Err(NotInW { a: 3 }));
        assert_eq!(check(&g, &all, &[0, 12]), Err(NotInW { a: 12 }));
        let cert = check(&g, &all, &[1, 5, 9]).unwrap();
        assert_eq!((cert.min_separation, cert.max_domination), (Some(4), 2));
    }

    #[test]
    fn separation_is_per_component() {
        // Two paths 0–1–2–3 and 4–5–6–7.
        let mut b = GraphBuilder::new(8);
        for v in (1..4).chain(5..8) {
            b.add_edge(v - 1, v);
        }
        let g = b.build();
        let w: Vec<usize> = (0..8).collect();
        let cert = check(&g, &w, &[1, 5]).unwrap();
        assert_eq!((cert.min_separation, cert.max_domination), (None, 2));
        let undominated = Undominated { w: 4, dist: None };
        assert_eq!(check(&g, &w, &[1]), Err(undominated));
    }

    #[test]
    fn min_separation_is_the_least_gap() {
        let g = generators::path(30);
        let w: Vec<usize> = (0..30).collect();
        let rs = ruling_set_centralized(&g, &w, RulingParams::new(2, 2));
        assert!(rs.members.len() >= 2);
        let cert = check(&g, &w, &rs.members).unwrap();
        let least_gap = rs.members.windows(2).map(|p| (p[1] - p[0]) as u32).min();
        assert_eq!(cert.min_separation, least_gap);
    }
}
