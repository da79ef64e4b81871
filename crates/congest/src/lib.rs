//! A deterministic synchronous **CONGEST**-model network simulator.
//!
//! The CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*) has a processor at every vertex of a graph; computation
//! proceeds in synchronous rounds, and in each round every processor may send
//! one message of `O(1)` machine words (i.e. `O(log n)` bits each) over each
//! incident edge. The running time of an algorithm is the number of rounds.
//!
//! This crate simulates that model *faithfully and measurably*:
//!
//! * **Bandwidth enforcement.** A node may send at most one [`Msg`] (at most
//!   [`MAX_WORDS`] words) per incident edge per round; violations panic, so a
//!   protocol that would not be a CONGEST protocol cannot silently pass the
//!   test suite.
//! * **Determinism.** Inboxes are delivered in a fixed order (by sender id);
//!   running the same protocol on the same graph twice yields identical
//!   transcripts. The paper's algorithm is deterministic end-to-end, and so is
//!   the simulation.
//! * **Accounting.** The simulator counts rounds, messages and words, which is
//!   exactly what the paper's `O(β · n^ρ · ρ⁻¹)` round bound is about. All
//!   per-round quantities (including [`RunStats::busiest_round_messages`])
//!   are attributed to the round a message is *sent* in.
//!
//! Protocols implement [`NodeProgram`]; one program instance runs at every
//! vertex and sees only local information: its id, its neighbor ids, `n`, and
//! its inbox. See the `nas-ruling` and `nas-core` crates for real protocols.
//!
//! # The arena message plane
//!
//! Million-node runs live or die on the per-round constant factor, so the
//! simulator routes messages through a flat, double-buffered arena instead
//! of `n` per-node `Vec`s:
//!
//! * During a round, every send is appended to a flat **staging bucket**
//!   `(receiver, Incoming)` in send order — one bucket per lane and
//!   receiver range, so a run without a pool stages into a single bucket.
//! * At the end of the round a **counting pass** over the staged sends
//!   tallies how many messages each receiver will get and lays out
//!   CSR-style ranges over the sorted receivers — `inbox_start[v]`,
//!   `inbox_len[v]` into one flat `Vec<Incoming>` — and a **stable scatter
//!   pass** moves each staged message into its receiver's range. Stability
//!   plus sender-ascending visit order keeps every inbox sorted by sender
//!   id, the delivery order the determinism contract promises.
//! * The flat delivery buffer and the scatter target **swap roles** every
//!   round; all scratch vectors are reused, so a steady-state
//!   [`Simulator::step`] performs **zero heap allocation** (pinned by the
//!   `zero_alloc` integration test).
//!
//! # Message combining and broadcast records
//!
//! Two optimizations target high-skew graphs, where a hub with `10^5`
//! neighbors would otherwise dominate every round:
//!
//! * **Sender-side combining.** A protocol may tag a [`Msg`] with a
//!   commutative [`Merge`] class (`Min`, `Dedup`, `Or` — see the
//!   [`msg`] module docs for the commutativity contract). After the
//!   scatter pass, every inbox whose messages all share one class is
//!   collapsed in place — a hub that was sent `10^5` copies of the same
//!   wave absorbs one merged message. Sends are still counted in full
//!   ([`RunStats`] stays send-attributed; [`RunStats::merged_messages`]
//!   counts the eliminated slots), bandwidth enforcement is unchanged,
//!   and merging never empties an inbox, so quiescence detection is
//!   unaffected. Delivery for *merged* classes legitimately differs from
//!   the unmerged baseline (fewer inbox entries), which is exactly why
//!   [`mod@reference`] never merges: differential tests pin the final
//!   protocol outputs, not the wire format, against it.
//! * **Broadcast records.** [`RoundCtx::send_all`] from a node whose
//!   degree is at least the broadcast threshold
//!   ([`Simulator::set_bcast_threshold`], default
//!   [`DEFAULT_BCAST_THRESHOLD`]) stages one broadcast record instead of
//!   `deg` copies; the counting and scatter passes expand it against the
//!   sender's sorted adjacency slice — per receiver range, forming a
//!   degree-bucketed broadcast tree on several lanes. Expansion
//!   happens at the record's staged position, so delivery order, stats,
//!   digests, and transcripts are bit-identical to the per-port loop.
//!
//! # The active-set scheduler
//!
//! A round visits only the nodes that can possibly do anything:
//!
//! * nodes whose inbox is non-empty this round,
//! * nodes that reported `!is_idle()` after their previous visit,
//! * nodes whose timed wake-up ([`NodeProgram::next_wake`]) is due,
//! * plus, on the first round, every node of a [`Simulator::new`] run (and
//!   after [`Simulator::programs_mut`], which may change state behind the
//!   scheduler's back) — or only the declared initial set of an
//!   [installed](Simulator::install) run (see "Arena lifecycle").
//!
//! The soundness invariant: **a node's state changes only inside
//! [`NodeProgram::round`]**, so a node that was idle after its last visit
//! and has received nothing since is still idle, and skipping its `round`
//! call is unobservable — provided the program honors the activity contract
//! documented on [`NodeProgram`]: `is_idle` is a pure function of state, and
//! any program that acts *spontaneously* (sends based on the round number
//! alone) either reports non-idle until its schedule completes or books the
//! round of its next spontaneous act as a timed wake-up. Purely
//! message-driven programs need no override. Wake-ups are kept in a timer
//! wheel (a `BTreeMap` keyed by round, with an O(1) per-node armed-round
//! slot suppressing duplicate registrations) and merged into the sorted
//! visit list when due; a program that sleeps for hundreds of rounds
//! between its scheduled sends — an Algorithm-1 node waiting for a future
//! phase, a ruling-set source between launch sub-phases, a supercluster
//! center waiting for the confirm upcast — costs *zero* visits in between
//! instead of one per round, which is what flattens the long tail of tiny
//! rounds on skewed (hub-heavy) inputs. Quiescence detection
//! ([`Simulator::run_until_quiet`]) reads the same bookkeeping — a node
//! holding a pending wake-up counts as unfinished — and is O(active set)
//! instead of O(n) per round.
//!
//! # Arena lifecycle
//!
//! A simulator's graph-independent working state — the n-sized inbox
//! ranges, counters and armed-timer slots, the message and staging
//! buffers, the visit and timer scratch, and the lanes' buckets — lives in
//! a [`SimArena`]. [`Simulator::new`] builds a fresh one per run.
//! A driver that runs many protocols back to back over one graph (the
//! stages of a spanner build) keeps a single arena instead:
//!
//! 1. [`Simulator::install`] moves the programs into the kept arena. The
//!    run starts at round 0 with zeroed accounting, like a fresh
//!    simulator. Messages still in flight and wake-ups still pending from
//!    the previous run are dropped in O(leftover); the n-sized arrays are
//!    rebuilt only when `n` changes, and a pool's lane plane only when the
//!    pool does.
//! 2. The run executes as usual.
//! 3. [`Simulator::into_parts`] hands the programs and the arena back with
//!    capacities kept — except that a message buffer a burst grew past one
//!    slot per node is cut back to that size, so a kept arena holds O(n)
//!    memory rather than the peak of every earlier stage.
//!
//! **The first-round rule for installed runs.** An installed run does not
//! open with a full wake-up. Its first round visits only the `initial`
//! nodes the caller declares — the protocol's spontaneous actors, such as
//! Algorithm 1's centers or a BFS forest's roots. Every other program must
//! be idle, hold no wake-up, and treat a round-0 visit with an empty inbox
//! as a no-op; it is then first visited when a message reaches it, which
//! makes the run indistinguishable from one that began with a full
//! wake-up (transcripts, stats and program states; only
//! [`RoundInfo::active`] and [`RunStats::skipped_rounds`] see the
//! difference). A run whose initial set is empty does O(1) work per
//! round, however large the graph: a bounded run fast-forwards over its
//! whole schedule, and a run-until-quiet executes its one empty round.
//!
//! Because every run restarts at round 0, an armed-timer slot is cleared
//! as soon as its wake-up fires or the wheel is emptied, so the next run
//! can book the same rounds again.
//!
//! # Streaming observation
//!
//! Callers that want to *watch* a run — progress bars, streaming metrics,
//! round budgets — attach a [`RoundObserver`] via
//! [`Simulator::run_rounds_observed`] /
//! [`Simulator::run_until_quiet_observed`] and receive one [`RoundInfo`]
//! (round index, messages sent, active-set size) per executed round; the
//! observer can cancel the run by returning `false`. A disabled observer
//! costs one branch per round and nothing allocates on either path (see
//! [`observe`]). This replaces transcript retention for everything except
//! bit-level divergence hunting, which stays on [`trace`].
//!
//! The [`mod@reference`] module keeps the naive visit-everyone,
//! `Vec<Vec<_>>`-based simulator alive for differential testing: both
//! planes must agree message-for-message on any contract-honoring protocol.
//!
//! # Determinism under parallelism
//!
//! Every round runs one round function, sharded over *lanes*. Without a
//! pool, and for rounds that visit fewer nodes than the dispatch threshold
//! ([`Simulator::set_par_threshold`]), it runs on one lane of the calling
//! thread; attaching a worker pool ([`Simulator::set_pool`], built on
//! `nas-par`) shards larger rounds across the pool's threads. One lane runs
//! the same code as several: its round is the case of a single shard that
//! spans the whole visit list and a single receiver range that spans every
//! node. Transcripts are therefore **bit-identical** at every lane count by
//! *contiguity* alone:
//!
//! * **Sender side.** The sorted visit list is split into contiguous
//!   shards, one per lane; lane `w` runs its shard's programs in visit
//!   order against the (read-only) previous-round inbox plane and stages
//!   sends into its own arenas. Because the shards partition an ascending
//!   id list, "lane order, then within-lane order" *is* the global
//!   sender-ascending order — concatenating the lanes' staged streams
//!   reproduces the one-lane staging stream exactly, no sorting needed.
//! * **Receiver side.** Staged sends are bucketed by contiguous
//!   *receiver ranges* (range `j` owns node ids `[j·c, (j+1)·c)`). The
//!   counting pass runs one lane per range (each lane walks every sender
//!   lane's bucket for its range, in lane order), and the per-range sorted
//!   `touched` lists concatenate — again by contiguity — into the globally
//!   sorted receiver list, so the CSR layout (`inbox_start`) matches the
//!   one-lane counting pass value-for-value. The scatter then runs one
//!   lane per range into *disjoint* spans of the delivery buffer, walking
//!   sender lanes in lane order, which fills every inbox sender-ascending:
//!   the exact delivery order the determinism contract promises.
//! * **Digest.** The per-round delivery digest folds
//!   `(receiver, port, words)` receiver-ascending; it is a pure function of
//!   the *previous* round's scatter, so the round computes it from the
//!   inbox plane before sharding — byte-identical by construction.
//!
//! Program execution itself is unordered across lanes, which is sound for
//! the same reason the active-set scheduler is: a [`NodeProgram`] can only
//! read its own state and its inbox, never a neighbor's state, so rounds
//! have no intra-round data flow. The per-lane arenas are allocated with
//! their plane (the one-lane plane by the first run over a vertex count,
//! a pool's by [`Simulator::set_pool`]) and reused, keeping the
//! steady-state round zero-allocation on either (also pinned by
//! `zero_alloc`). `tests/par_differential.rs` checks all of this
//! message-for-message between unpooled runs, pools of 1/2/3/8 lanes and
//! the reference simulator, and the golden transcripts are asserted
//! verbatim at every lane count.
//!
//! # Example: distributed BFS flood
//!
//! ```
//! use nas_congest::{Msg, NodeProgram, RoundCtx, Simulator};
//! use nas_graph::generators;
//!
//! #[derive(Clone)]
//! struct Flood { dist: Option<u64> }
//!
//! impl NodeProgram for Flood {
//!     fn round(&mut self, ctx: &mut RoundCtx<'_>) {
//!         let start = ctx.round() == 0 && ctx.id() == 0;
//!         if start { self.dist = Some(0); }
//!         let heard = ctx.inbox().iter().map(|m| m.msg.word(0)).min();
//!         let newly = match (self.dist, heard) {
//!             (None, Some(d)) => { self.dist = Some(d + 1); true }
//!             _ => start,
//!         };
//!         if newly {
//!             let d = self.dist.unwrap();
//!             for p in 0..ctx.degree() { ctx.send(p, Msg::one(d)); }
//!         }
//!     }
//! }
//!
//! let g = generators::path(5);
//! let mut sim = Simulator::new(&g, vec![Flood { dist: None }; 5]);
//! sim.run_until_quiet(100);
//! assert_eq!(sim.programs()[4].dist, Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod msg;
pub mod observe;
pub mod programs;
pub mod reference;
mod sim;
mod stats;
pub mod trace;

pub use msg::{Incoming, Merge, Msg, MAX_WORDS};
pub use observe::{NoopRoundObserver, RoundInfo, RoundObserver, RunHooks};
pub use reference::ReferenceSimulator;
pub use sim::{
    NodeProgram, QuietOutcome, RoundCtx, SimArena, Simulator, DEFAULT_BCAST_THRESHOLD,
    DEFAULT_PAR_THRESHOLD,
};
pub use stats::RunStats;
pub use trace::{RoundRecord, Transcript};
