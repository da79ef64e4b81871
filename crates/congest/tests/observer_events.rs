//! Golden test for the round-observation plane: the exact event sequence of
//! a BFS flood on a path graph, pinned literally and asserted bit-identical
//! between 1 and 4 worker-pool lanes.
//!
//! The sequence below is a direct consequence of the simulator's contracts:
//!
//! * round 0 is the wake-up round (`active = n`); the single source sends
//!   one message down its only port;
//! * the frontier then walks the path at one hop per round, each newly
//!   informed interior node echoing to both neighbors (`messages = 2`,
//!   `active = 2`: the frontier node plus the just-informed predecessor
//!   that receives the echo and does nothing);
//! * the far endpoint (degree 1) sends only one message back, and the final
//!   round delivers that echo into silence (`messages = 0`).
//!
//! Any change to delivery order, active-set scheduling, or the observer's
//! accounting shows up here as a drifted tuple. The 4-lane run must match
//! the one-lane run **exactly** — the observation plane sits outside the
//! sharded round, so determinism-under-parallelism extends to it.

use nas_congest::programs::Flood;
use nas_congest::{RoundInfo, RoundObserver, Simulator};
use nas_graph::generators;
use nas_par::WorkerPool;
use std::sync::Arc;

struct Recorder(Vec<(u64, u64, usize)>);

impl RoundObserver for Recorder {
    fn on_round(&mut self, info: RoundInfo) -> bool {
        self.0.push((info.round, info.messages, info.active));
        true
    }
}

/// The pinned golden sequence: `(round, messages sent, active nodes)` per
/// round of a single-source flood on `path(8)`.
const GOLDEN_PATH8: &[(u64, u64, usize)] = &[
    (0, 1, 8),
    (1, 2, 1),
    (2, 2, 2),
    (3, 2, 2),
    (4, 2, 2),
    (5, 2, 2),
    (6, 2, 2),
    (7, 1, 2),
    (8, 0, 1),
];

fn flood_events(lanes: usize) -> Vec<(u64, u64, usize)> {
    let g = generators::path(8);
    let mut sim = Simulator::new(&g, Flood::network(8, &[0]));
    if lanes > 1 {
        sim.set_pool(Arc::new(WorkerPool::new(lanes)));
        // Force every round onto the pool — the default threshold would
        // keep an 8-node run on one lane.
        sim.set_par_threshold(0);
    }
    let mut rec = Recorder(Vec::new());
    let outcome = sim.run_until_quiet_observed(100, &mut rec);
    assert!(outcome.quiescent, "flood must go quiet");
    assert_eq!(sim.programs()[7].dist, Some(7), "flood must reach the end");
    rec.0
}

#[test]
fn flood_on_path_event_sequence_is_golden_at_one_lane() {
    assert_eq!(flood_events(1), GOLDEN_PATH8);
}

#[test]
fn flood_on_path_event_sequence_is_golden_at_four_lanes() {
    assert_eq!(flood_events(4), GOLDEN_PATH8);
}

#[test]
fn event_sequences_are_bit_identical_across_lane_counts() {
    let seq = flood_events(1);
    for lanes in [2usize, 3, 4, 8] {
        assert_eq!(flood_events(lanes), seq, "{lanes} lanes diverged");
    }
}

/// The observer's per-round message counts must reconcile exactly with the
/// aggregate statistics — on a workload big enough to actually exercise the
/// multi-lane per-lane accounting merge.
#[test]
fn observed_message_counts_reconcile_with_stats() {
    let g = generators::gnp(600, 0.02, 3);
    for lanes in [1usize, 4] {
        let mut sim = Simulator::new(&g, Flood::network(600, &[0, 17]));
        if lanes > 1 {
            sim.set_pool(Arc::new(WorkerPool::new(lanes)));
            sim.set_par_threshold(0);
        }
        let mut rec = Recorder(Vec::new());
        sim.run_until_quiet_observed(10_000, &mut rec);
        let streamed: u64 = rec.0.iter().map(|&(_, m, _)| m).sum();
        assert_eq!(streamed, sim.stats().messages, "{lanes} lanes");
        assert_eq!(rec.0.len() as u64, sim.stats().rounds, "{lanes} lanes");
    }
}
