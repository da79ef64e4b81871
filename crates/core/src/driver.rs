//! The phase loop: the complete spanner construction of §2.1–§2.3, written
//! **once**, generic over a [`PhaseEngine`].
//!
//! # The `PhaseEngine` contract
//!
//! [`build_with_engine`] is the *only* phase loop in the crate. It owns
//! every decision the paper's pseudocode makes — which thresholds apply in
//! phase `i`, when to supercluster versus conclude, which clusters settle,
//! how the clustering advances — and delegates the five per-phase
//! operations to the engine it is instantiated with:
//!
//! | engine operation                  | paper reference | role in the phase |
//! |-----------------------------------|-----------------|-------------------|
//! | [`PhaseEngine::detect_popular`]   | Theorem 2.1 / Appendix A (Algorithm 1) | each center discovers up to `deg_i` centers within `δ_i`; those with `≥ deg_i` near neighbors form `W_i` |
//! | [`PhaseEngine::ruling_set`]       | Theorem 2.2     | deterministic `(2δ_i+1, 2cδ_i)`-ruling set over `W_i` — the derandomization replacing EN17's sampling |
//! | [`PhaseEngine::supercluster`]     | Lemma 2.4       | depth-`2cδ_i` BFS forest around the ruling set; spanned centers merge into `P_{i+1}`, tree paths enter `H` |
//! | [`PhaseEngine::interconnect`]     | Lemma 2.6       | every settled cluster connects to all clusters it knows along exact shortest paths |
//! | [`PhaseEngine::take_phase_rounds`] / [`PhaseEngine::stats`] | Lemma 2.8 / Corollary 2.9 | per-phase and aggregate cost accounting under the engine's model |
//!
//! The loop also enforces, per phase, the invariants the analysis rests on:
//! every popular center superclusters (Lemma 2.4), and every vertex settles
//! exactly once across the run (Corollary 2.5, checked via
//! [`crate::cluster::verify_settled_partition`] in tests).
//!
//! # Backends
//!
//! [`crate::Session`] runs this loop for each [`crate::Backend`] but one:
//!
//! * [`crate::engine::CentralizedEngine`] runs it over the reference
//!   implementations (zero cost);
//! * [`crate::engine::CongestEngine`] runs the *same* loop with every
//!   operation a real CONGEST protocol on the simulator, with exact round
//!   accounting;
//! * [`crate::local::LocalEngine`] adapts the loop to LOCAL-model cost
//!   accounting;
//! * `Backend::Full` is the engine-free cross-check: the entire
//!   construction as one monolithic CONGEST protocol (see [`crate::full`]).
//!
//! Centralized and distributed runs produce bit-identical spanners
//! (asserted at unit, integration and property level) — a direct
//! demonstration of the paper's headline property: the construction is
//! *deterministic*.

use crate::cluster::Clustering;
use crate::engine::PhaseEngine;
use crate::params::{ParamError, Params, Schedule};
use crate::session::{Conduit, SessionError};
use nas_congest::{RunHooks, RunStats};
use nas_graph::{CompactGraph, EdgeSet, Graph};
use nas_par::WorkerPool;
use nas_ruling::verify_ruling_set;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-phase observability record (the quantities Figures 1–5 and
/// Lemmas 2.10–2.12 are about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// The phase index `i`.
    pub phase: usize,
    /// `|P_i|` — clusters entering the phase.
    pub num_clusters: usize,
    /// `|W_i|` — popular centers detected.
    pub popular: usize,
    /// `|RS_i|` — ruling-set members selected (0 in the concluding phase).
    pub ruling_set: usize,
    /// Centers superclustered into `P_{i+1}` (0 in the concluding phase).
    pub superclustered: usize,
    /// `|U_i|` — clusters settled this phase.
    pub settled_clusters: usize,
    /// Edges added to `H` by the superclustering step (forest paths).
    pub supercluster_path_edges: usize,
    /// Paths added by the interconnection step.
    pub interconnect_paths: usize,
    /// Edges added to `H` by the interconnection step.
    pub interconnect_edges: usize,
    /// `|H|` after this phase.
    pub h_edges_cumulative: usize,
    /// The phase's distance threshold `δ_i`.
    pub delta: u64,
    /// The phase's degree threshold `deg_i`.
    pub deg: u64,
    /// CONGEST rounds spent in this phase (0 in centralized runs).
    pub rounds: u64,
}

/// The result of a spanner construction.
#[derive(Debug, Clone)]
pub struct SpannerResult {
    /// The spanner edge set `H`.
    pub spanner: EdgeSet,
    /// The schedule the run used.
    pub schedule: Schedule,
    /// Aggregate CONGEST cost (zeros for centralized runs).
    pub stats: RunStats,
    /// Per-phase records.
    pub phases: Vec<PhaseStats>,
    /// For every vertex: `(phase, center)` of the settled cluster it ended
    /// in — the `U_i` it belongs to (Corollary 2.5: always `Some`).
    pub settled: Vec<Option<(usize, u32)>>,
}

/// The phase loop of §2.1–§2.3, generic over the execution backend.
///
/// See the module docs for the engine contract. `Session::run` drives the
/// observed variant of this loop; this function runs it with no observer,
/// round budget or worker pool, over an engine the caller brings.
///
/// # Errors
///
/// Propagates parameter/schedule validation errors.
pub fn build_with_engine<E: PhaseEngine>(
    g: &Graph,
    params: Params,
    engine: &mut E,
) -> Result<SpannerResult, ParamError> {
    let mut ctl = Conduit::noop();
    build_with_engine_ctl(g, params, engine, &mut ctl, None, None)
        .map_err(SessionError::expect_param)
}

/// Builds the per-call execution hooks an engine operation runs under: the
/// conduit as the round observer, the session's worker pool, and (when the
/// session selected the compact store) the shared [`CompactGraph`] every
/// attached simulator reads its adjacency from.
fn hooks<'a>(
    ctl: &'a mut Conduit<'_>,
    pool: Option<&'a Arc<WorkerPool>>,
    store: Option<&Arc<CompactGraph>>,
) -> RunHooks<'a> {
    let fast_forward = ctl.fast_forward_enabled();
    RunHooks {
        observer: Some(ctl),
        pool,
        stopped: false,
        fast_forward,
        compact: store.map(Arc::clone),
    }
}

/// The observed phase loop behind [`build_with_engine`] and
/// `Session::run`: emits `PhaseStarted` / `PhaseFinished` events through
/// `ctl`, threads the round-observer + worker-pool hooks into every engine
/// operation, and aborts (discarding the operation's result) as soon as the
/// conduit reports the round budget exhausted.
pub(crate) fn build_with_engine_ctl<E: PhaseEngine>(
    g: &Graph,
    params: Params,
    engine: &mut E,
    ctl: &mut Conduit<'_>,
    pool: Option<&Arc<WorkerPool>>,
    store: Option<&Arc<CompactGraph>>,
) -> Result<SpannerResult, SessionError> {
    let n = g.num_vertices();
    let schedule = params.schedule(n)?;
    let ell = schedule.ell;

    let mut h = EdgeSet::new(n);
    let mut clustering = Clustering::singletons(n);
    let mut settled: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut phases = Vec::with_capacity(ell + 1);

    for i in 0..=ell {
        let delta = schedule.delta[i];
        let deg = schedule.stage_deg(i);
        let centers = clustering.centers().to_vec();
        ctl.phase_started(i, centers.len(), delta, schedule.deg[i]);

        if centers.is_empty() {
            // Everything settled in earlier phases; later phases are no-ops.
            let ps = PhaseStats {
                phase: i,
                num_clusters: 0,
                popular: 0,
                ruling_set: 0,
                superclustered: 0,
                settled_clusters: 0,
                supercluster_path_edges: 0,
                interconnect_paths: 0,
                interconnect_edges: 0,
                h_edges_cumulative: h.len(),
                delta,
                deg: schedule.deg[i],
                rounds: 0,
            };
            phases.push(ps);
            ctl.phase_finished(&ps);
            ctl.bail()?;
            continue;
        }

        let mut is_center = vec![false; n];
        for &c in &centers {
            is_center[c] = true;
        }

        // --- Step 1: Algorithm 1 (popular detection + neighborhood maps) ---
        let info = engine.detect_popular(
            g,
            &centers,
            &is_center,
            deg,
            delta,
            &mut hooks(ctl, pool, store),
        );
        ctl.bail()?;
        let w_i = info.popular.clone();

        // --- Step 2: superclustering (all phases but the concluding one) ---
        let (u_centers, assignment, rs_len, sc_edges) = if i < ell {
            let rp = schedule.ruling_params(i);
            let rs = engine.ruling_set(g, &w_i, rp, &mut hooks(ctl, pool, store));
            ctl.bail()?;
            // Theorem 2.2, certified in O(n + m) on every debug build.
            if cfg!(debug_assertions) {
                if let Err(v) = verify_ruling_set(g, &w_i, rp, &rs) {
                    panic!("Theorem 2.2 violated in phase {i}: {v:?}");
                }
            }
            let depth = schedule.sc_depth(i);
            let sc = engine.supercluster(
                g,
                &rs.members,
                &centers,
                depth,
                &mut hooks(ctl, pool, store),
            );
            // A cancelled superclustering run is truncated garbage — bail
            // before the Lemma 2.4 assertion can fire on it.
            ctl.bail()?;
            // Lemma 2.4: every popular center must be superclustered. Only
            // membership is ever queried, so a sorted id list beats a map.
            let mut spanned: Vec<usize> = sc.assignment.iter().map(|&(c, _)| c).collect();
            spanned.sort_unstable();
            for &p in &w_i {
                assert!(
                    spanned.binary_search(&p).is_ok(),
                    "Lemma 2.4 violated: popular center {p} not superclustered in phase {i}"
                );
            }
            let sc_edges = sc.path_edges.len();
            h.union_with(&sc.path_edges);
            let u: Vec<usize> = centers
                .iter()
                .copied()
                .filter(|c| spanned.binary_search(c).is_err())
                .collect();
            (u, Some(sc.assignment), rs.members.len(), sc_edges)
        } else {
            // Concluding phase: no superclustering; U_ℓ = P_ℓ.
            (centers.clone(), None, 0, 0)
        };

        // --- Step 3: interconnection from the settled clusters ---
        let h_before = h.len();
        let inter = engine.interconnect(
            g,
            &info,
            &u_centers,
            deg,
            delta,
            &mut hooks(ctl, pool, store),
        );
        ctl.bail()?;
        h.union_with(&inter.edges);
        let interconnect_edges = h.len() - h_before;

        // --- Step 4: settle U_i and advance the clustering ---
        // `u_centers` is ascending (filtered from the ascending center
        // list), so one membership probe per vertex settles every member of
        // a settled cluster without materializing a members-of map.
        debug_assert!(u_centers.windows(2).all(|w| w[0] < w[1]));
        for (v, slot) in settled.iter_mut().enumerate().take(n) {
            if let Some(c) = clustering.center_of(v) {
                if u_centers.binary_search(&c).is_ok() {
                    debug_assert!(slot.is_none(), "vertex {v} settled twice");
                    *slot = Some((i, c as u32));
                }
            }
        }

        let ps = PhaseStats {
            phase: i,
            num_clusters: centers.len(),
            popular: w_i.len(),
            ruling_set: rs_len,
            superclustered: assignment.as_ref().map_or(0, |a| a.len()),
            settled_clusters: u_centers.len(),
            supercluster_path_edges: sc_edges,
            interconnect_paths: inter.paths,
            interconnect_edges,
            h_edges_cumulative: h.len(),
            delta,
            deg: schedule.deg[i],
            rounds: engine.take_phase_rounds(),
        };
        phases.push(ps);
        ctl.phase_finished(&ps);
        ctl.bail()?;

        if let Some(assignment) = assignment {
            clustering = clustering.supercluster(&assignment);
        }
    }

    Ok(SpannerResult {
        spanner: h,
        schedule,
        stats: engine.stats(),
        phases,
        settled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::verify_settled_partition;
    use crate::engine::{CentralizedEngine, CongestEngine};
    use nas_graph::generators;

    fn practical() -> Params {
        Params::practical(0.5, 4, 0.45)
    }

    fn centralized(g: &Graph) -> SpannerResult {
        build_with_engine(g, practical(), &mut CentralizedEngine).unwrap()
    }

    #[test]
    fn builds_on_small_graphs() {
        for g in [
            generators::path(20),
            generators::cycle(15),
            generators::grid2d(5, 5),
            generators::connected_gnp(40, 0.1, 3),
        ] {
            let r = centralized(&g);
            assert!(r.spanner.verify_subgraph_of(&g).is_ok());
            verify_settled_partition(g.num_vertices(), &r.settled).unwrap();
            assert_eq!(r.phases.len(), r.schedule.ell + 1);
        }
    }

    #[test]
    fn spanner_preserves_connectivity() {
        let g = generators::connected_gnp(60, 0.08, 17);
        let r = centralized(&g);
        let h = r.spanner.to_graph();
        assert!(nas_graph::connectivity::is_connected(&h));
    }

    #[test]
    fn distributed_equals_centralized_small() {
        let g = generators::connected_gnp(30, 0.12, 5);
        let a = centralized(&g);
        let b = build_with_engine(&g, practical(), &mut CongestEngine::new()).unwrap();
        assert_eq!(a.spanner, b.spanner, "spanners differ");
        assert_eq!(a.settled, b.settled);
        assert!(b.stats.rounds > 0);
        assert!(
            b.stats.rounds <= b.schedule.total_round_bound(),
            "measured rounds {} exceed the schedule bound {}",
            b.stats.rounds,
            b.schedule.total_round_bound()
        );
    }

    #[test]
    fn phase_zero_settles_unpopular_singletons() {
        // A path: every vertex has ≤ 2 neighbors; with deg_0 = n^{1/κ} ≥ 3
        // every cluster is unpopular, everything settles in phase 0 and the
        // spanner is the whole path.
        let g = generators::path(100); // deg_0 = ceil(100^{0.25}) = 4
        let r = centralized(&g);
        assert_eq!(r.phases[0].settled_clusters, 100);
        assert_eq!(r.spanner.len(), 99);
        assert!(r.settled.iter().all(|s| s.map(|(p, _)| p) == Some(0)));
    }

    #[test]
    fn radius_invariant_lemma_2_3() {
        // Rebuild the per-phase clusterings and check Rad(P_i) ≤ R_i in H.
        let g = generators::connected_gnp(50, 0.15, 11);
        let r = centralized(&g);
        // The final spanner contains all phase trees, so radius measured in
        // the final H underestimates nothing the lemma promises.
        // Reconstruct P_i from settled info is not direct; instead verify via
        // the cluster trail: every settled vertex reaches its settled center
        // within R_{phase} in H.
        let h = r.spanner.to_graph();
        for v in 0..50 {
            let (phase, center) = r.settled[v].unwrap();
            let d = nas_graph::DistanceMap::from_source(&h, v)
                .get(center as usize)
                .expect("vertex connected to its settled center in H");
            assert!(
                (d as u64) <= r.schedule.r_bound[phase],
                "vertex {v} at distance {d} from center, R_{phase} = {}",
                r.schedule.r_bound[phase]
            );
        }
    }

    #[test]
    fn stats_zero_for_centralized() {
        let g = generators::grid2d(4, 4);
        let r = centralized(&g);
        assert_eq!(r.stats.rounds, 0);
        assert!(r.phases.iter().all(|p| p.rounds == 0));
    }

    #[test]
    fn invalid_params_rejected() {
        let g = generators::path(10);
        assert!(
            build_with_engine(&g, Params::practical(0.5, 1, 0.4), &mut CentralizedEngine).is_err()
        );
    }

    #[test]
    fn cluster_counts_decay() {
        // Lemmas 2.10/2.11: the number of clusters must shrink phase over
        // phase (strictly, once superclustering kicks in on a dense graph).
        let g = generators::complete(64);
        let r = centralized(&g);
        for w in r.phases.windows(2) {
            assert!(
                w[1].num_clusters <= w[0].num_clusters,
                "cluster count must not grow"
            );
        }
    }
}
