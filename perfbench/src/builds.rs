//! The build workloads, `grid_deep` and `hub_wide`: set-up (graph
//! generation), untraced `Session::run` builds, the sampled stretch audit,
//! then point and batch queries on the built spanner through an in-process
//! `SpannerOracle`.

use crate::trace::traced_build;
use crate::util::{median, percentile, secs, sorted_edges};
use crate::{Config, Ledger, Outcome};
use nas_core::{Backend, Params, Report, Session, Store};
use nas_graph::dist::DistanceBatch;
use nas_graph::rng::SplitMix64;
use nas_graph::{generators, DistanceMap, Graph};
use nas_metrics::{stretch_audit_sampled, SpannerOracle};
use nas_par::WorkerPool;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Sources of the sampled stretch audit.
pub const AUDIT_SOURCES: usize = 16;
/// Audits per run at least; `audit_s` is their median.
pub const AUDIT_REPEATS: usize = 3;
/// Pairs per batch query.
pub const BATCH_PAIRS: usize = 64;
/// A block of a cheap timed step (a set-up or an audit) repeats until it
/// has run this long. One block follows every build, so the samples of a
/// step are spread over the whole run rather than bunched in one slow or
/// fast spell of the host.
const BLOCK_S: f64 = 0.3;
/// With `--trace 1` the point-query and batch phases each keep sampling
/// until they have run this long; untraced and smoke runs only take the
/// minimum counts, whose answers are checked but whose timings are not
/// reported.
const PHASE_S: f64 = 3.0;
/// Every `CHECK_EVERY`-th point query is checked against a BFS of `G`.
const CHECK_EVERY: usize = 32;

/// Per-layer metrics of the nas-serve daemon, which only `serve_mixed`
/// starts. The build workloads report them as 0: the contract wants every
/// per-layer metric on every traced run, and these have nothing to measure.
pub const SERVE_ONLY: [&str; 8] = [
    "serve.oracle.hit_ratio",
    "serve.oracle.traversals",
    "serve.query_p50_us",
    "serve.query_p99_us",
    "serve.query_p99_us.during_rebuild",
    "serve.batch_p50_us",
    "serve.batch_pairs_per_s",
    "loadgen.max_lag_ms",
];

/// Runs `op` at least `min` times and until the runs add up to `total_s`
/// seconds (at most 64 times), dropping each result before the next run
/// starts. Returns the wall of every run and the last result.
pub fn repeat<T>(min: usize, total_s: f64, mut op: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < min || (walls.iter().sum::<f64>() < total_s && walls.len() < 64) {
        drop(last.take());
        let t = Instant::now();
        last = Some(std::hint::black_box(op()));
        walls.push(secs(t));
    }
    (walls, last.expect("at least one run"))
}

/// The input graph of a build workload.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// `grid2d(side, side)`.
    Grid {
        /// Side length.
        side: usize,
    },
    /// `preferential_attachment(n, attach, seed)`.
    PrefAttach {
        /// Vertices.
        n: usize,
        /// Edges per new vertex.
        attach: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Generates the graph.
    pub fn generate(&self) -> Graph {
        match *self {
            GraphSpec::Grid { side } => generators::grid2d(side, side),
            GraphSpec::PrefAttach { n, attach, seed } => {
                generators::preferential_attachment(n, attach, seed)
            }
        }
    }
}

/// One build workload's configuration.
#[derive(Debug, Clone)]
pub struct BuildWorkload {
    /// The input graph.
    pub graph: GraphSpec,
    /// `(ε, κ, ρ)`.
    pub params: Params,
    /// Simulator lanes (`Session::threads`).
    pub lanes: usize,
    /// Phases that must select a non-empty ruling set: the regime check
    /// that keeps the build out of a trivial phase-0 settlement.
    pub min_ruling_phases: usize,
    /// Cold point queries on the built spanner, at least.
    pub queries: usize,
    /// Batch queries of [`BATCH_PAIRS`] pairs, at least.
    pub batches: usize,
}

impl BuildWorkload {
    /// `grid2d(240, 240)` at `(0.5, 10, 0.45)` on one lane.
    pub fn grid_deep(cfg: &Config) -> Self {
        BuildWorkload {
            graph: GraphSpec::Grid {
                side: if cfg.smoke { 60 } else { 240 },
            },
            params: Params::practical(0.5, 10, 0.45),
            lanes: 1,
            min_ruling_phases: 2,
            queries: if cfg.smoke { 64 } else { 300 },
            batches: if cfg.smoke { 2 } else { 8 },
        }
    }

    /// `preferential_attachment(300 000, 4, 42)` at `(0.5, 4, 0.45)` on two
    /// lanes.
    pub fn hub_wide(cfg: &Config) -> Self {
        BuildWorkload {
            graph: GraphSpec::PrefAttach {
                n: if cfg.smoke { 5_000 } else { 300_000 },
                attach: 4,
                seed: 42,
            },
            params: Params::practical(0.5, 4, 0.45),
            lanes: 2,
            min_ruling_phases: 1,
            queries: if cfg.smoke { 64 } else { 100 },
            batches: 2,
        }
    }
}

/// Checks the paper's guarantees on one build: `H ⊆ G`, the schedule's
/// round bound, the settled partition (Corollary 2.5), and the regime
/// (at least `min_ruling_phases` phases with a non-empty ruling set).
/// Returns the per-phase regime record as a JSON array.
pub fn check_build(ledger: &mut Ledger, g: &Graph, r: &Report, min_ruling_phases: usize) -> String {
    let sub = r.spanner.verify_subgraph_of(g);
    ledger.check(sub.is_ok(), || format!("spanner edge {sub:?} not in G"));
    let bound = r.schedule.total_round_bound();
    ledger.check(r.rounds() <= bound, || {
        format!("{} rounds exceed the schedule bound {bound}", r.rounds())
    });
    let part = nas_core::cluster::verify_settled_partition(g.num_vertices(), &r.settled);
    ledger.check(part.is_ok(), || {
        format!("settled partition broken: {part:?}")
    });
    let ruling_phases = r.phases.iter().filter(|p| p.ruling_set > 0).count();
    ledger.check(ruling_phases >= min_ruling_phases, || {
        format!(
            "trivial regime: {ruling_phases} phases with a ruling set, need {min_ruling_phases}"
        )
    });
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"clusters\":{},\"popular\":{},\"ruling_set\":{},\"settled\":{},\"rounds\":{}}}",
                p.num_clusters, p.popular, p.ruling_set, p.settled_clusters, p.rounds
            )
        })
        .collect();
    format!("[{}]", phases.join(","))
}

/// `phase.{0,1,2}.wall_s`: the median over `reports` of each phase's wall
/// as `Session::run` recorded it; 0 for a phase the builds never reached.
pub fn phase_walls(reports: &[Vec<f64>]) -> [(&'static str, f64); 3] {
    let at = |i: usize| -> f64 {
        let walls: Vec<f64> = reports.iter().filter_map(|w| w.get(i).copied()).collect();
        median(&walls)
    };
    [
        ("phase.0.wall_s", at(0)),
        ("phase.1.wall_s", at(1)),
        ("phase.2.wall_s", at(2)),
    ]
}

/// Per-phase walls of one report, in seconds.
pub fn phase_wall_s(r: &Report) -> Vec<f64> {
    r.phase_wall.iter().map(|d| d.as_secs_f64()).collect()
}

/// Whether `d_H` is a valid spanner answer for `d_G` under the envelope.
pub fn within_envelope(dg: Option<u32>, dh: Option<u32>, alpha: f64, beta: f64) -> bool {
    match (dg, dh) {
        (Some(g), Some(h)) => h >= g && f64::from(h) <= alpha * f64::from(g) + beta,
        (None, None) => true,
        _ => false,
    }
}

/// Point and batch queries on spanner `h` through an in-process
/// `SpannerOracle`, every point query a cold BFS of `h`. Sampled point
/// answers are checked against `g` under the `(alpha, beta)` envelope, and
/// each batch's first answer against a point query. With `timed`,
/// each phase samples for [`PHASE_S`]; otherwise only the minimum counts
/// run. Returns the `metrics.oracle.*` figures.
#[allow(clippy::too_many_arguments)]
pub fn oracle_queries(
    ledger: &mut Ledger,
    g: &Graph,
    h: Graph,
    (alpha, beta): (f64, f64),
    seed: u64,
    queries: usize,
    batches: usize,
    timed: bool,
) -> [(&'static str, f64); 6] {
    let n = g.num_vertices();
    let mut oracle = SpannerOracle::new(h);
    let mut rng = SplitMix64::new(seed);
    let phase_s = if timed { PHASE_S } else { 0.0 };
    let mut lat = Vec::with_capacity(queries);
    let started = Instant::now();
    for i in 0.. {
        if i >= queries && secs(started) >= phase_s {
            break;
        }
        let (a, b) = (rng.next_index(n), rng.next_index(n));
        let t = Instant::now();
        let d = std::hint::black_box(oracle.distance(a, b));
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        ledger.attempted += 1;
        if i.is_multiple_of(CHECK_EVERY) {
            let dg = DistanceMap::from_source(g, a).get(b);
            ledger.check(within_envelope(dg, d, alpha, beta), || {
                format!("query ({a}, {b}): d_H {d:?} vs d_G {dg:?}")
            });
        }
    }
    let stats = oracle.stats();

    // Batch queries: one BFS per distinct source, sharded over the pool.
    let pool = nas_par::global();
    let mut out = DistanceBatch::new();
    let mut blat = Vec::with_capacity(batches);
    let started = Instant::now();
    while blat.len() < batches || secs(started) < phase_s {
        let pairs: Vec<(usize, usize)> = (0..BATCH_PAIRS)
            .map(|_| (rng.next_index(n), rng.next_index(n)))
            .collect();
        let t = Instant::now();
        let mut sources: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        sources.sort_unstable();
        sources.dedup();
        oracle.distances_batch_into(&sources, &mut out, pool);
        let answers: Vec<Option<u32>> = pairs
            .iter()
            .map(|&(a, b)| out.get(sources.binary_search(&a).expect("source row"), b))
            .collect();
        blat.push(t.elapsed().as_secs_f64() * 1e6);
        ledger.attempted += 1;
        let (a, b) = pairs[0];
        let point = oracle.distance(a, b);
        ledger.check(answers[0] == point, || {
            format!(
                "batch answer {:?} != point answer {point:?} for ({a}, {b})",
                answers[0]
            )
        });
    }
    [
        ("metrics.oracle.hit_ratio", stats.hit_rate()),
        ("metrics.oracle.traversals", stats.traversals as f64),
        ("metrics.oracle.query_p50_us", median(&lat)),
        ("metrics.oracle.query_p99_us", percentile(&lat, 99.0)),
        ("metrics.oracle.batch_p50_us", median(&blat)),
        (
            "metrics.oracle.batch_pairs_per_s",
            BATCH_PAIRS as f64 * 1e6 / median(&blat),
        ),
    ]
}

/// Runs a build workload.
///
/// Set-up generates the graph. Then, until the budget is spent (at least
/// once): one untraced `Session::run` build, a block of set-ups and a
/// block of sampled stretch audits. `setup_s`, `build_s` and `audit_s` are
/// the medians of their samples.
///
/// # Errors
///
/// The construction rejected the workload's parameters.
pub fn run(w: &BuildWorkload, cfg: &Config) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    let (mut setups, g) = repeat(SETUPS, BLOCK_S, || w.graph.generate());
    let n = g.num_vertices();

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut phase_walls_s = Vec::new();
    let mut audit_walls = Vec::new();
    let mut report: Option<(Report, Graph)> = None;
    let audit = loop {
        let round = Instant::now();
        let t = Instant::now();
        let r = Session::on(&g)
            .params(w.params)
            .backend(Backend::Congest)
            .store(Store::Flat)
            .threads(w.lanes)
            .run()
            .map_err(|e| format!("build failed: {e}"))?;
        walls.push(secs(t));
        phase_walls_s.push(phase_wall_s(&r));
        ledger.attempted += 1;
        match &report {
            None => {
                let h = r.to_graph();
                report = Some((r, h));
            }
            Some((first, _)) => {
                ledger.check(
                    sorted_edges(&first.spanner) == sorted_edges(&r.spanner)
                        && first.stats == r.stats
                        && first.settled == r.settled,
                    || "repeated build differs from the first".to_string(),
                );
            }
        }
        let (block, regenerated) = repeat(1, BLOCK_S, || w.graph.generate());
        setups.extend(block);
        ledger.check(regenerated.num_edges() == g.num_edges(), || {
            "regenerated graph differs".to_string()
        });
        drop(regenerated);
        let h = &report.as_ref().expect("a build").1;
        let (block, a) = repeat(1, BLOCK_S, || {
            stretch_audit_sampled(&g, h, w.params.eps, AUDIT_SOURCES)
        });
        audit_walls.extend(block);
        let spent = secs(started);
        if spent + secs(round) > cfg.seconds && audit_walls.len() >= AUDIT_REPEATS {
            break a;
        }
    };
    let (r, h) = report.expect("at least one build");
    let regime = check_build(&mut ledger, &g, &r, w.min_ruling_phases);
    let build_s = median(&walls);
    v.insert("setup_s", median(&setups));
    v.insert("graph.generate_s", median(&setups));
    v.insert("build_s", build_s);
    v.insert("rounds", r.rounds() as f64);
    v.insert("messages", r.messages() as f64);
    v.insert("spanner_edges", r.num_edges() as f64);
    v.extend(phase_walls(&phase_walls_s));

    // The sampled stretch audit's checks.
    let (alpha, beta) = (r.stretch.alpha_envelope, r.stretch.beta_envelope);
    let audit_s = median(&audit_walls);
    ledger.check(audit.disconnected_pairs == 0, || {
        format!(
            "{} sampled pairs disconnected in H",
            audit.disconnected_pairs
        )
    });
    ledger.check(audit.satisfies(alpha - 1.0, beta), || {
        format!("an audit bucket breaks the ({alpha}, {beta}) envelope")
    });
    v.insert("audit_s", audit_s);
    v.insert("effective_beta", audit.effective_beta);
    v.insert(
        "metrics.audit_mvert_per_s",
        (2 * AUDIT_SOURCES.min(n) * n) as f64 / audit_s / 1e6,
    );

    // The traced build: the same program through build_with_engine.
    if cfg.trace {
        // The pool Session::threads(lanes) creates for one run.
        let pool = (w.lanes > 1).then(|| Arc::new(WorkerPool::new(w.lanes)));
        let (built, trace) =
            traced_build(&g, w.params, pool.as_ref()).map_err(|e| format!("traced build: {e}"))?;
        ledger.check(
            sorted_edges(&built.spanner) == sorted_edges(&r.spanner)
                && built.stats == r.stats
                && built.settled == r.settled
                && built.phases == r.phases,
            || "traced build differs from the untraced Session run".to_string(),
        );
        let cost = trace.stage_cost();
        ledger.check(
            cost.rounds == r.stats.rounds && cost.messages == r.stats.messages,
            || format!("stage spans sum to {cost:?}, build reports {:?}", r.stats),
        );
        v.extend(trace.summary());
        v.insert(
            "trace.overhead_pct",
            (trace.wall.as_secs_f64() - build_s) / build_s * 100.0,
        );
    }

    v.extend(oracle_queries(
        &mut ledger,
        &g,
        h,
        (alpha, beta),
        cfg.seed,
        w.queries,
        w.batches,
        cfg.trace && !cfg.smoke,
    ));
    v.extend(SERVE_ONLY.map(|name| (name, 0.0)));
    v.insert("peak_rss_mib", crate::util::peak_rss_mib());

    let detail = format!(
        "{{\"lanes\":{},\"store\":\"flat\",\"graph_seed\":{},\"n\":{n},\"m\":{},\"build_walls_s\":{:?},\"audits\":{},\"setups\":{},\"phases\":{regime}}}",
        w.lanes,
        match w.graph {
            GraphSpec::Grid { .. } => "null".to_string(),
            GraphSpec::PrefAttach { seed, .. } => seed.to_string(),
        },
        g.num_edges(),
        walls,
        audit_walls.len(),
        setups.len(),
    );
    Ok(Outcome {
        ledger,
        values: v,
        detail,
    })
}
