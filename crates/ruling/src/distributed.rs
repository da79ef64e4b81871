//! The distributed digit-elimination protocol on the CONGEST simulator.
//!
//! Faithful round-by-round implementation of the algorithm described in the
//! crate docs. The protocol's synchronous clock is divided into
//! `c · m` sub-phases of `q + 1` rounds each; every node derives the current
//! (iteration, digit-value, offset) triple from the round number — the same
//! "synchronization by round counting" the paper's vertices use (they know
//! `n` and all parameters).
//!
//! Kill waves are floods with per-sub-phase deduplication: each vertex
//! transmits at most one wave message per sub-phase, so the per-edge
//! bandwidth is one word per round — a legal CONGEST protocol, enforced by
//! the simulator.

use crate::digits::DigitPlan;
use crate::result::{in_w_mask, RulingParams, RulingSet};
use nas_congest::{Merge, Msg, NodeProgram, RoundCtx, RunHooks, RunStats, SimArena, Simulator};
use nas_graph::Graph;

/// Per-node state of the distributed ruling-set protocol.
///
/// [`ruling_set_distributed`] runs it on its own; it is public so the
/// spanner's one-simulation backend can host it as a stage.
#[derive(Debug, Clone)]
pub struct RulingProtocol {
    plan: DigitPlan,
    q: u32,
    /// In `W` and not yet killed; starts as `W` membership.
    active: bool,
    /// The last sub-phase in which this node saw a wave (dedup flag).
    /// Tagging instead of resetting at each sub-phase start lets the
    /// active-set scheduler skip passive nodes at sub-phase boundaries.
    wave_seen: Option<u64>,
    /// Round of this node's next spontaneous wave launch, or `None` once
    /// the digit schedule holds no further launches for it. Recomputed on
    /// every visit; consumed by [`NodeProgram::next_wake`].
    wake_at: Option<u64>,
}

impl RulingProtocol {
    /// Creates the program for one node.
    pub fn new(n: usize, params: RulingParams, in_w: bool) -> Self {
        RulingProtocol {
            plan: DigitPlan::new(n, params.c),
            q: params.q,
            active: in_w,
            wave_seen: None,
            // Fresh `W` members hold a pending appointment at the schedule
            // start so a pre-step quiescence probe cannot declare the
            // network finished before the first launch.
            wake_at: in_w.then_some(0),
        }
    }

    /// Total number of rounds the protocol runs: `c · m · (q + 1)`.
    pub fn total_rounds(n: usize, params: RulingParams) -> u64 {
        let plan = DigitPlan::new(n, params.c);
        plan.count() as u64 * plan.base() * (params.q as u64 + 1)
    }

    /// Whether this node survived (is a ruling-set member, hence in `W`).
    /// Meaningful only after the full schedule has run.
    pub fn is_member(&self) -> bool {
        self.active
    }

    /// Decomposes a round number into
    /// (digit iteration, digit value, offset within sub-phase).
    fn position(&self, round: u64) -> (u32, u64, u64) {
        let len = self.q as u64 + 1;
        let subphase = round / len;
        let offset = round % len;
        let i = (subphase / self.plan.base()) as u32;
        let b = subphase % self.plan.base();
        (i, b, offset)
    }

    /// Points `wake_at` at the start of this node's next launch sub-phase
    /// strictly after `cur_sp`, or clears it when the schedule holds no
    /// further launches (node killed, or all digit iterations spent).
    ///
    /// Iteration `i` launches this node's wave at sub-phase
    /// `i · base + digit(id, i)`; the first strictly-future launch is found
    /// in the current iteration or the next, so the scan below inspects at
    /// most two candidates.
    fn schedule_wake(&mut self, id: u64, cur_sp: u64) {
        self.wake_at = None;
        if !self.active {
            return;
        }
        let len = self.q as u64 + 1;
        let base = self.plan.base();
        let mut i = (cur_sp / base) as u32;
        while i < self.plan.count() {
            let sp = i as u64 * base + self.plan.digit(id, i);
            if sp > cur_sp {
                self.wake_at = Some(sp * len);
                return;
            }
            i += 1;
        }
    }
}

impl NodeProgram for RulingProtocol {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let round = ctx.round();
        let (i, b, offset) = self.position(round);
        if i >= self.plan.count() {
            self.wake_at = None;
            return; // schedule exhausted
        }
        let subphase = round / (self.q as u64 + 1);
        let seen_this_subphase = self.wave_seen == Some(subphase);
        if offset == 0 {
            // Sub-phase start: sources launch their wave. (Passive nodes
            // need not be visited here: their stale `wave_seen` tag can't
            // match the new sub-phase.)
            if self.active && self.plan.digit(ctx.id() as u64, i) == b {
                self.wave_seen = Some(subphase);
                // A receiver only takes the minimum origin id over its inbox,
                // so colliding waves merge losslessly (`Merge::Min`).
                ctx.send_all(Msg::one(ctx.id() as u64).merged(Merge::Min));
            }
        } else if !seen_this_subphase && !ctx.inbox().is_empty() {
            // offset ∈ [1, q]: wave propagation and kills.
            let origin = ctx
                .inbox()
                .iter()
                .map(|m| m.msg.word(0))
                .min()
                .expect("inbox non-empty");
            self.wave_seen = Some(subphase);
            if self.active && self.plan.digit(ctx.id() as u64, i) > b {
                self.active = false;
            }
            if offset < self.q as u64 {
                ctx.send_all(Msg::one(origin).merged(Merge::Min));
            }
        }
        self.schedule_wake(ctx.id() as u64, subphase);
    }

    /// Always idle between visits: the only spontaneous action is a wave
    /// launch at a node's own launch sub-phases, and those are booked as
    /// timed appointments ([`Self::next_wake`]). Everything else — relays,
    /// kills — reacts to an arriving message, which schedules the visit by
    /// itself. Surviving `W` members therefore sleep through the sub-phases
    /// (the overwhelming majority) in which they neither launch nor hear a
    /// wave, instead of being visited every round of the digit schedule.
    fn is_idle(&self) -> bool {
        true
    }

    fn next_wake(&self) -> Option<u64> {
        self.wake_at
    }
}

/// Computes a `(q+1, cq)`-ruling set for `w` by running the distributed
/// protocol on the CONGEST simulator, installed into `arena`. Returns the
/// result together with the exact round/message accounting.
///
/// The returned membership is identical to
/// [`ruling_set_centralized`](crate::ruling_set_centralized) (asserted by the
/// test suite and certified by [`verify_ruling_set`](crate::verify_ruling_set)).
///
/// The run reports to `hooks`' round observer (which may cancel it) and
/// attaches `hooks`' worker pool. When the observer cancels the run
/// (`hooks.stopped`), the returned set is read from the truncated
/// protocol state and is **not** a valid ruling set — callers must check
/// `hooks.stopped` and discard it. Only the members of `w` act in the
/// first round (see [`Simulator::install`]).
///
/// # Panics
///
/// Panics if a vertex of `w` is out of range.
pub fn ruling_set_distributed(
    g: &Graph,
    w: &[usize],
    params: RulingParams,
    arena: &mut SimArena,
    hooks: &mut RunHooks<'_>,
) -> (RulingSet, RunStats) {
    let n = g.num_vertices();
    let in_w = in_w_mask(n, w);
    if w.is_empty() {
        return (RulingSet::default(), RunStats::new());
    }
    let programs: Vec<RulingProtocol> = (0..n)
        .map(|v| RulingProtocol::new(n, params, in_w[v]))
        .collect();
    let mut sim = Simulator::install(g, programs, w, std::mem::take(arena));
    hooks.attach(&mut sim);
    sim.run_rounds_observed(RulingProtocol::total_rounds(n, params), hooks);
    let stats = *sim.stats();
    let (programs, kept) = sim.into_parts();
    *arena = kept;
    let members = (0..n).filter(|&v| programs[v].is_member()).collect();
    (RulingSet { members }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::ruling_set_centralized;
    use crate::verify_ruling_set;
    use nas_graph::generators;

    fn run(g: &Graph, w: &[usize], params: RulingParams) -> (RulingSet, RunStats) {
        ruling_set_distributed(g, w, params, &mut SimArena::new(), &mut RunHooks::none())
    }

    #[test]
    fn matches_centralized_on_corpus() {
        let graphs: Vec<(Graph, u64)> = vec![
            (generators::path(40), 0),
            (generators::cycle(33), 0),
            (generators::grid2d(6, 6), 0),
            (generators::connected_gnp(70, 0.06, 5), 0),
            (generators::preferential_attachment(60, 2, 9), 0),
        ];
        for (g, _) in &graphs {
            let n = g.num_vertices();
            let w: Vec<usize> = (0..n).filter(|v| v % 3 != 1).collect();
            for params in [
                RulingParams::new(1, 2),
                RulingParams::new(2, 3),
                RulingParams::new(4, 2),
            ] {
                let central = ruling_set_centralized(g, &w, params);
                let (dist, stats) = run(g, &w, params);
                assert_eq!(central.members, dist.members, "membership differs on n={n}");
                assert_eq!(stats.rounds, RulingProtocol::total_rounds(n, params));
                verify_ruling_set(g, &w, params, &dist).unwrap();
            }
        }
    }

    #[test]
    fn round_count_formula() {
        // n=64, c=2 → base 8; q=3 → sub-phase length 4; 2*8*4 = 64 rounds.
        assert_eq!(
            RulingProtocol::total_rounds(64, RulingParams::new(3, 2)),
            64
        );
    }

    #[test]
    fn rounds_scale_with_root_of_n() {
        // Doubling c should roughly take the base from n to sqrt(n).
        let r1 = RulingProtocol::total_rounds(256, RulingParams::new(1, 1));
        let r2 = RulingProtocol::total_rounds(256, RulingParams::new(1, 2));
        assert_eq!(r1, 256 * 2);
        assert_eq!(r2, 2 * 16 * 2);
    }

    #[test]
    fn empty_w_short_circuits() {
        let g = generators::path(5);
        let (rs, stats) = run(&g, &[], RulingParams::new(2, 2));
        assert!(rs.members.is_empty());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn disconnected_components_rule_independently() {
        let mut b = nas_graph::GraphBuilder::new(8);
        for v in 1..4 {
            b.add_edge(v - 1, v);
        }
        for v in 5..8 {
            b.add_edge(v - 1, v);
        }
        let g = b.build();
        let w: Vec<usize> = (0..8).collect();
        let params = RulingParams::new(2, 2);
        let (rs, _) = run(&g, &w, params);
        // Each path component must contain at least one member.
        assert!(rs.members.iter().any(|&m| m < 4));
        assert!(rs.members.iter().any(|&m| m >= 4));
    }
}
