//! Golden fast-forward legs for the pref_attach spanner.
//!
//! The round fast-forward scheduler bulk-advances the clock over provably
//! eventless rounds instead of executing them. These tests pin its core
//! contract on the preferential-attachment workload the benchmarks track:
//! a skipping run and a non-skipping run of the same build are **verbatim
//! identical** — same spanner edges, same round count, same message and
//! word counts — and the skipping run actually skips.

use nas_core::{Backend, Params, Report, Session};
use nas_graph::Graph;

/// The exact graph `sim_scaling`'s pref_attach workload builds:
/// `large_scale(n, 8, 42)` → `preferential_attachment(n, 4, 42)`.
fn pref_attach(n: usize) -> Graph {
    nas_graph::generators::preferential_attachment(n, 4, 42)
}

/// `threads: None` runs on the process-wide pool, sized by `NAS_THREADS`.
fn run_spanner(g: &Graph, threads: Option<usize>, fast_forward: bool) -> Report {
    let session = Session::on(g)
        .params(Params::practical(0.5, 4, 0.45))
        .backend(Backend::Congest)
        .fast_forward(fast_forward);
    match threads {
        Some(t) => session.threads(t),
        None => session,
    }
    .run()
    .expect("valid parameters")
}

/// Asserts the fast-forward contract between a skip-enabled baseline and a
/// skip-disabled run: identical outputs and executed-round accounting, with
/// `skipped_rounds` the only permitted difference.
fn assert_toggle_equivalent(on: &Report, off: &Report, label: &str) {
    assert!(
        on.stats.skipped_rounds > 0,
        "{label}: fast-forward never skipped a round"
    );
    assert_eq!(
        off.stats.skipped_rounds, 0,
        "{label}: skip-disabled run skipped rounds"
    );
    assert_eq!(on.spanner, off.spanner, "{label}: edges diverge");
    assert_eq!(on.settled, off.settled, "{label}: settled map diverges");
    assert_eq!(on.stats.rounds, off.stats.rounds, "{label}: rounds diverge");
    assert_eq!(
        on.stats.messages, off.stats.messages,
        "{label}: messages diverge"
    );
    assert_eq!(on.stats.words, off.stats.words, "{label}: words diverge");
    assert_eq!(
        on.stats.busiest_round_messages, off.stats.busiest_round_messages,
        "{label}: busiest-round accounting diverges"
    );
}

/// Fast-forward on vs off on a mid-scale pref_attach spanner, sequential
/// and sharded. (The full-scale pinned case is the `#[ignore]`d test
/// below; the differential proptests cover the same toggle on the small
/// random corpus.)
#[test]
fn fast_forward_toggle_bit_identical_pref_attach() {
    let g = pref_attach(4000);
    let on = run_spanner(&g, Some(1), true);
    for threads in [1usize, 4] {
        let off = run_spanner(&g, Some(threads), false);
        assert_toggle_equivalent(&on, &off, &format!("pref_attach(4000) @{threads}t"));
    }
}

/// The full-scale golden: the pinned 10^6 pref_attach invariants
/// (7634 rounds, 63 407 237 messages, 1 000 012 spanner edges) hold with
/// fast-forward on **and** off, verbatim. Two million-node builds — run it
/// in release: `cargo test --release -p nas-bench -- --ignored`. Both run
/// on the process-wide pool, so `NAS_THREADS` sets the lanes their large
/// rounds are sharded over (CI runs it at 2 and 3).
#[test]
#[ignore = "two 10^6 spanner builds; run with --release -- --ignored"]
fn full_scale_pinned_pref_attach_invariants() {
    let g = pref_attach(1_000_000);
    let on = run_spanner(&g, None, true);
    assert_eq!(on.stats.rounds, 7634, "pinned round count drifted");
    assert_eq!(
        on.stats.messages, 63_407_237,
        "pinned message count drifted"
    );
    assert_eq!(on.num_edges(), 1_000_012, "pinned edge count drifted");
    let off = run_spanner(&g, None, false);
    assert_toggle_equivalent(&on, &off, "pref_attach(10^6)");
}
