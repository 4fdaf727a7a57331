//! One representative cell per registered figure: each iteration runs a
//! 300-simulated-second slice of the figure's last cell (its heaviest
//! load or largest population), resolved exactly as the driver resolves
//! it. The figure data itself comes from `--bin experiments`.

use bench::driver::{figure_spec, FIGURES, HIDDEN_FIGURES};
use criterion::{criterion_group, criterion_main, Criterion};
use pmm_core::prelude::*;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    for name in FIGURES.iter().chain(&HIDDEN_FIGURES) {
        let spec = figure_spec(name).expect("registered figure");
        let cell = *spec.cells.last().expect("figure has cells");
        g.bench_function(format!("{name}/{}@{}", cell.label(), cell.x), |b| {
            b.iter(|| {
                let sim = spec.resolve(&cell, 300.0);
                let policy = cell.make_policy(&sim);
                black_box(run_simulation(sim, policy))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
