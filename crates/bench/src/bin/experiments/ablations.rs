//! Ablations of three design choices.

use crate::harness::default_params;
use nas_bench::BenchCli;
use nas_congest::{RunHooks, SimArena};
use nas_core::{Backend, Params, Session};
use nas_graph::generators;
use nas_metrics::{tables::fmt_f64, TableBuilder};
use nas_ruling::{ruling_set_distributed, verify_ruling_set, RulingParams};

/// Ablations of three design choices:
///
/// 1. ruling-set iteration count `c`: domination radius vs round cost;
/// 2. the time/size knob `ρ`: phase count, thresholds, measured rounds;
/// 3. paper vs practical constants: schedule magnitudes.
pub fn ablations(cli: &BenchCli) {
    // Per-experiment defaults reproduce the pre-BenchCli outputs exactly.
    ablation_ruling_c(cli.seed(5));
    ablation_rho(cli.seed(3));
    ablation_constants();
}

/// Ablation 1: the `(q+1, cq)`-ruling set trade-off — larger `c` costs more
/// domination radius but fewer rounds (`n^{1/c}` sub-phases per digit).
fn ablation_ruling_c(seed: u64) {
    println!("== ablation 1: ruling-set iteration count c ==\n");
    let g = generators::connected_gnp(400, 0.03, seed);
    let w: Vec<usize> = (0..g.num_vertices()).filter(|v| v % 2 == 0).collect();
    let q = 4u32;
    let mut t = TableBuilder::new(vec![
        "c",
        "guarantee cq",
        "measured max domination",
        "|A|",
        "rounds (measured)",
    ]);
    let mut arena = SimArena::new();
    for c in [1u32, 2, 3, 4] {
        let params = RulingParams::new(q, c);
        let (rs, stats) = ruling_set_distributed(&g, &w, params, &mut arena, &mut RunHooks::none());
        let cert = verify_ruling_set(&g, &w, params, &rs)
            .unwrap_or_else(|v| panic!("Theorem 2.2 violated at c = {c}: {v:?}"));
        t.row(vec![
            c.to_string(),
            (c * q).to_string(),
            cert.max_domination.to_string(),
            rs.members.len().to_string(),
            stats.rounds.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("larger c: fewer rounds (n^(1/c) shrinks), looser domination — the\nexact trade the paper's Theorem 2.2 exposes.\n");
}

/// Ablation 2: `ρ` sweeps the time/β trade-off (the paper's headline knob).
fn ablation_rho(seed: u64) {
    println!("== ablation 2: the time exponent ρ ==\n");
    // n = 64 keeps the smallest-ρ point (4 phases, δ_ℓ in the thousands)
    // runnable in seconds.
    let g = generators::random_regular(64, 8, seed);
    let mut t = TableBuilder::new(vec![
        "ρ",
        "ℓ (phases)",
        "δ_ℓ",
        "nominal β",
        "measured rounds",
        "spanner edges",
    ]);
    for rho in [0.35f64, 0.4, 0.45, 0.49] {
        let r = Session::on(&g)
            .params(Params::practical(0.5, 4, rho))
            .backend(Backend::Congest)
            .run()
            .unwrap();
        t.row(vec![
            rho.to_string(),
            (r.schedule.ell + 1).to_string(),
            r.schedule.delta[r.schedule.ell].to_string(),
            fmt_f64(r.schedule.beta_nominal()),
            r.rounds().to_string(),
            r.num_edges().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "smaller ρ ⟹ more phases, larger δ_ℓ and larger nominal β (eq. (1)): the\n\
         time/quality knob. (Measured rounds move little here because this sparse\n\
         workload settles early and later phases run empty.)\n"
    );
}

/// Ablation 3: paper-exact vs practical constants.
fn ablation_constants() {
    println!("== ablation 3: paper vs practical constants ==\n");
    let n = 256;
    let mut t = TableBuilder::new(vec![
        "mode",
        "ε_internal",
        "δ_0..δ_ℓ",
        "R_ℓ",
        "α nominal",
        "β nominal",
    ]);
    for (label, params) in [
        ("practical", default_params()),
        ("paper", Params::paper(0.5, 4, 0.45)),
    ] {
        let s = params.schedule(n).unwrap();
        t.row(vec![
            label.to_string(),
            fmt_f64(s.eps_internal),
            format!("{:?}", s.delta),
            s.r_bound[s.ell].to_string(),
            fmt_f64(s.alpha_nominal()),
            fmt_f64(s.beta_nominal()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper-mode constants (ε rescaled by 30ℓ/ρ) make δ_i three orders larger —\n\
         structurally identical, unrunnable at simulation scale; practical mode\n\
         keeps every invariant and runs, so the experiments use practical mode."
    );
}
