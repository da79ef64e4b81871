//! Criterion benches for the ablation experiments.
//! Printable version: the `ablations` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nas_congest::{RunHooks, SimArena};
use nas_core::{Backend, Params, Session};
use nas_graph::generators;
use nas_ruling::{ruling_set_distributed, RulingParams};
use std::hint::black_box;

/// Ablation 1: ruling-set round cost as a function of c.
fn bench_ablation_ruling_c(c: &mut Criterion) {
    let g = generators::connected_gnp(64, 0.1, 5);
    let w: Vec<usize> = (0..g.num_vertices()).filter(|v| v % 2 == 0).collect();
    let mut group = c.benchmark_group("ablation_ruling_c");
    group.sample_size(10);
    for cc in [1u32, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(cc), &cc, |b, &cc| {
            let mut arena = SimArena::new();
            b.iter(|| {
                let (rs, stats) = ruling_set_distributed(
                    &g,
                    &w,
                    RulingParams::new(3, cc),
                    &mut arena,
                    &mut RunHooks::none(),
                );
                black_box((rs.members.len(), stats.rounds))
            })
        });
    }
    group.finish();
}

/// Ablation 2: the ρ knob — full distributed runs.
fn bench_ablation_rho(c: &mut Criterion) {
    let g = generators::random_regular(32, 6, 3);
    let mut group = c.benchmark_group("ablation_rho");
    group.sample_size(10);
    for rho in [0.45f64, 0.49] {
        group.bench_with_input(BenchmarkId::from_parameter(rho), &rho, |b, &rho| {
            b.iter(|| {
                let r = Session::on(&g)
                    .params(Params::practical(0.5, 4, rho))
                    .backend(Backend::Congest)
                    .run()
                    .unwrap();
                black_box(r.rounds())
            })
        });
    }
    group.finish();
}

/// Ablation 3: schedule derivation cost paper vs practical (cheap; included
/// for experiment coverage).
fn bench_ablation_constants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_constants");
    for (label, params) in [
        ("practical", Params::practical(0.5, 4, 0.45)),
        ("paper", Params::paper(0.5, 4, 0.45)),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(params.schedule(1024).unwrap().total_round_bound()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation_ruling_c, bench_ablation_rho, bench_ablation_constants
}
criterion_main!(benches);
