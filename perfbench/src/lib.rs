//! The repository's canonical benchmark: three workloads, each one process
//! per sample, timed through public APIs only and checked on every run.
//!
//! | workload      | what runs                                                        |
//! |---------------|------------------------------------------------------------------|
//! | `grid_deep`   | `grid2d(240, 240)` at `(ε, κ, ρ) = (0.5, 10, 0.45)`, CONGEST, flat store, 1 lane: thin rounds, Algorithm 1 pipelining dominates, ruling sets non-empty in phases 0 and 1 |
//! | `hub_wide`    | `preferential_attachment(300 000, 4, 42)` at `(0.5, 4, 0.45)`, CONGEST, flat store, 2 lanes: fat merged rounds on skewed hubs, broadcast records, lane sharding |
//! | `serve_mixed` | in-process nas-serve on `gnp(20 000, deg 8)`: open-loop point reads at 250/s, a closed-loop `/batch` client and a live `/rebuild` every 4 s on 2 cores |
//!
//! Every workload runs the same pipeline — set-up, build, audit, queries —
//! so every metric has a value on every workload:
//!
//! * the build workloads alternate `Session::run` builds with blocks of
//!   graph generations and `stretch_audit_sampled` audits until the budget
//!   is spent, then query the built spanner through an in-process
//!   `SpannerOracle` (cold point queries and 64-pair batches);
//! * `serve_mixed` starts the daemon (set-up = start plus first build),
//!   drives loopback HTTP load while `POST /rebuild`s run (build = one
//!   rebuild as the client sees it), and audits the served spanner over
//!   `POST /batch` with `mode=both`, one source per request between the
//!   load's batches.
//!
//! Each run checks its output: `H ⊆ G`, the schedule's round bound, the
//! settled partition, no disconnected audited pair and every audited pair
//! inside the `(α, β)` envelope, a regime of at least one or two phases
//! with non-empty ruling sets, served exact answers against a local BFS,
//! and the epoch count. A failed check counts in `failed`.
//!
//! With `--trace 1` the build is repeated through the public
//! `build_with_engine` under [`trace::TracedEngine`], a `PhaseEngine` that
//! wraps `CongestEngine`, times each stage call and diffs `stats()` around
//! it; the traced build must reproduce the untraced one exactly, and the
//! run reports per-layer metrics instead of end-to-end ones.
//!
//! The input graphs are fixed per workload, so runs on different `--seed`s
//! measure the same construction and the round, message and edge counts
//! repeat exactly; the seed drives the query streams. (Re-seeding the
//! `hub_wide` generator moves its message count by up to ±25%.)

pub mod builds;
pub mod serve;
pub mod trace;
pub mod util;

use std::collections::BTreeMap;

/// Lanes of the process-wide `nas-par` pool.
pub const GLOBAL_LANES: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["grid_deep", "hub_wide", "serve_mixed"];

/// End-to-end metrics `(name, unit)`: printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("audit_s", "s"),
    ("rounds", "count"),
    ("messages", "count"),
    ("spanner_edges", "count"),
    ("effective_beta", "hops"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`: printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.algo1.wall_s", "s"),
    ("core.algo1.rounds_executed", "count"),
    ("core.algo1.messages", "count"),
    ("ruling.wall_s", "s"),
    ("ruling.rounds_executed", "count"),
    ("ruling.messages", "count"),
    ("core.supercluster.wall_s", "s"),
    ("core.supercluster.rounds_executed", "count"),
    ("core.supercluster.messages", "count"),
    ("core.interconnect.wall_s", "s"),
    ("core.interconnect.rounds_executed", "count"),
    ("core.interconnect.messages", "count"),
    ("congest.zero_msg_stage_s", "s"),
    ("core.driver.self_s", "s"),
    ("phase.0.wall_s", "s"),
    ("phase.1.wall_s", "s"),
    ("phase.2.wall_s", "s"),
    ("congest.rounds_skipped", "count"),
    ("congest.msgs_per_executed_round", "msg/round"),
    ("congest.merge_ratio", "ratio"),
    ("graph.generate_s", "s"),
    ("metrics.audit_mvert_per_s", "Mvert/s"),
    ("metrics.oracle.hit_ratio", "ratio"),
    ("metrics.oracle.traversals", "count"),
    ("metrics.oracle.query_p50_us", "us"),
    ("metrics.oracle.query_p99_us", "us"),
    ("metrics.oracle.batch_p50_us", "us"),
    ("metrics.oracle.batch_pairs_per_s", "1/s"),
    ("serve.oracle.hit_ratio", "ratio"),
    ("serve.oracle.traversals", "count"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.query_p99_us.during_rebuild", "us"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_pairs_per_s", "1/s"),
    ("loadgen.max_lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the query streams.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// Emit per-layer metrics from an extra traced build.
    pub trace: bool,
    /// Tiny inputs, every check on — the self-test configuration; the
    /// command line always runs full size.
    pub smoke: bool,
}

/// Operations attempted and failed; every guarantee check is one operation.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
}

impl Ledger {
    /// Records one operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
        ok
    }
}

/// A finished run: the ledger, every metric the workload measured, and a
/// JSON object of run details (stamp, per-phase regime, sample counts).
#[derive(Debug)]
pub struct Outcome {
    /// Operations and failures.
    pub ledger: Ledger,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra record fields, as a JSON object.
    pub detail: String,
}

impl Outcome {
    /// The metrics the run reports: every end-to-end metric, or with
    /// `trace` every per-layer metric, in declaration order.
    ///
    /// # Errors
    ///
    /// Names a declared metric the workload did not measure.
    pub fn reported(&self, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(&v) if v.is_finite() => Ok((name, unit, v)),
                Some(v) => Err(format!("metric {name} measured as {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`.
    ///
    /// # Errors
    ///
    /// See [`Outcome::reported`].
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics: Vec<String> = self
            .reported(trace)?
            .into_iter()
            .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ledger.failed == 0,
            self.ledger.attempted.max(1),
            self.ledger.failed,
            metrics.join(",")
        ))
    }
}

/// Runs one workload end to end.
///
/// # Errors
///
/// An unknown workload name, or a run that could not complete.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // The stderr stage tap would both cost time and print; the traced run
    // measures stages itself.
    std::env::remove_var("NAS_STAGE_TIMING");
    // Audits, batch fills and the daemon's builds run on the process-wide
    // pool; fix its width rather than inherit it from the environment. The
    // first call wins, so a test process running several workloads keeps
    // one pool.
    let _ = nas_par::init_global(GLOBAL_LANES);
    match cfg.workload.as_str() {
        "grid_deep" => builds::run(&builds::BuildWorkload::grid_deep(cfg), cfg),
        "hub_wide" => builds::run(&builds::BuildWorkload::hub_wide(cfg), cfg),
        "serve_mixed" => serve::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
