//! Criterion bench comparing the steady-state solvers on the MAP queueing
//! network (the DESIGN.md solver ablation): exact block level-reduction
//! versus dense LU versus the default CSR solver (D-ILU BiCGSTAB) on a
//! well-conditioned instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use burstcap_map::fit::Map2Fitter;
use burstcap_qn::ctmc::{Ctmc, SteadyStateMethod};
use burstcap_qn::mapqn::MapNetwork;

fn bench(c: &mut Criterion) {
    let front = Map2Fitter::new(0.005, 40.0, 0.015)
        .fit()
        .expect("feasible")
        .map();
    let db = Map2Fitter::new(0.004, 120.0, 0.012)
        .fit()
        .expect("feasible")
        .map();

    let mut group = c.benchmark_group("mapqn_solver");
    for &pop in &[25usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("block_direct", pop), &pop, |b, &pop| {
            let net = MapNetwork::new(pop, 0.5, front, db).expect("valid");
            b.iter(|| black_box(&net).solve().expect("solves"))
        });
    }
    // Dense LU only fits small populations.
    let small = MapNetwork::new(10, 0.5, front, db).expect("valid");
    group.bench_function("dense_lu_pop10", |b| {
        b.iter(|| {
            black_box(&small)
                .solve_iterative(SteadyStateMethod::DenseLu { limit: 100_000 })
                .expect("solves")
        })
    });
    group.finish();

    // Iterative-vs-direct comparison on a well-conditioned common instance
    // (an M/M/1/400 birth-death chain) where both converge reliably.
    let mut tr = Vec::new();
    for i in 0..400 {
        tr.push((i, i + 1, 3.0));
        tr.push((i + 1, i, 4.0));
    }
    let chain = Ctmc::from_transitions(401, tr).expect("valid chain");
    let mut iterative = c.benchmark_group("ctmc_solver");
    iterative.bench_function("bicgstab_birth_death_401", |b| {
        b.iter(|| {
            black_box(&chain)
                .steady_state(SteadyStateMethod::default())
                .expect("converges")
        })
    });
    iterative.bench_function("dense_lu_birth_death_401", |b| {
        b.iter(|| {
            black_box(&chain)
                .steady_state(SteadyStateMethod::DenseLu { limit: 1000 })
                .expect("solves")
        })
    });
    iterative.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
