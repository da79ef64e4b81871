//! The whole construction as ONE message-passing protocol.
//!
//! Runs the complete algorithm — Algorithm 1, ruling sets, superclustering,
//! interconnection, across all phases — inside a single CONGEST simulation
//! where every stage transition is a local decision (nodes count rounds
//! against the schedule derived from `(n, ε, κ, ρ)`, as in the paper).
//! The result is compared with the centralized reference: identical.
//!
//! ```sh
//! cargo run --release --example one_simulation
//! ```

use nas_core::{Backend, Params, Session};
use nas_graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::connected_gnp(128, 0.08, 77);
    let params = Params::practical(0.5, 4, 0.45);
    println!(
        "graph: n = {}, m = {}; running the full pipeline as a single protocol…",
        g.num_vertices(),
        g.num_edges()
    );

    let full = Session::on(&g)
        .params(params)
        .backend(Backend::Full)
        .run()?;
    println!(
        "single-simulation run: {} rounds (= the fixed schedule length), \
         {} messages, {} spanner edges",
        full.rounds(),
        full.messages(),
        full.num_edges()
    );

    let reference = Session::on(&g).params(params).run()?;
    assert_eq!(full.spanner, reference.spanner);
    println!(
        "spanner is bit-identical to the centralized reference ✓ \
         (deterministic end to end, with purely local stage transitions)"
    );
    println!(
        "schedule bound (Lemma 2.8 analogue): {} rounds ≥ measured {}",
        full.schedule.total_round_bound(),
        full.rounds()
    );
    Ok(())
}
