//! Criterion bench for the sparse CTMC engine: CSR assembly, transpose, and
//! the sparse BiCGSTAB solve versus the dense LU oracle on the MAP
//! queueing network (the scaling story of the ARCHITECTURE.md "sparse
//! engine" section).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use burstcap_map::fit::Map2Fitter;
use burstcap_qn::ctmc::{Ctmc, SteadyStateMethod};
use burstcap_qn::mapqn::MapNetwork;

fn bench(c: &mut Criterion) {
    // Moderately bursty fits: stiff enough to be representative, mild
    // enough that the iterative engine converges.
    let front = Map2Fitter::new(0.01, 8.0, 0.03)
        .fit()
        .expect("feasible")
        .map();
    let db = Map2Fitter::new(0.008, 12.0, 0.02)
        .fit()
        .expect("feasible")
        .map();

    let mut group = c.benchmark_group("ctmc_sparse");
    // Streaming CSR assembly of the generator (no triplet list).
    for &pop in &[25usize, 50] {
        group.bench_with_input(BenchmarkId::new("csr_assembly", pop), &pop, |b, &pop| {
            let net = MapNetwork::new(pop, 0.3, front, db).expect("valid");
            b.iter(|| black_box(&net).outgoing_csr().expect("assembles"))
        });
    }
    // O(nnz) transpose, the cost of turning outgoing into incoming adjacency.
    {
        let net = MapNetwork::new(50, 0.3, front, db).expect("valid");
        let csr = net.outgoing_csr().expect("assembles");
        group.bench_function("transpose_pop50", |b| {
            b.iter(|| black_box(&csr).transpose())
        });
    }
    // The sparse production solve at populations dense LU cannot touch.
    for &pop in &[25usize, 50] {
        group.bench_with_input(BenchmarkId::new("sparse_gs", pop), &pop, |b, &pop| {
            let net = MapNetwork::new(pop, 0.3, front, db).expect("valid");
            b.iter(|| {
                black_box(&net)
                    .solve_sparse_with_initial(None)
                    .expect("converges")
            })
        });
    }
    // The dense oracle at a size it still handles, for the crossover story.
    group.bench_function("dense_lu_pop15", |b| {
        let net = MapNetwork::new(15, 0.3, front, db).expect("valid");
        b.iter(|| {
            black_box(&net)
                .solve_iterative(SteadyStateMethod::DenseLu { limit: 100_000 })
                .expect("solves")
        })
    });
    // Uniformized power iteration on a well-conditioned mid-size chain.
    group.bench_function("power_birth_death_401", |b| {
        let mut tr = Vec::new();
        for i in 0..400 {
            tr.push((i, i + 1, 3.0));
            tr.push((i + 1, i, 4.0));
        }
        let chain = Ctmc::from_transitions(401, tr).expect("valid chain");
        b.iter(|| {
            black_box(&chain)
                .steady_state(SteadyStateMethod::power(1e-10, 2_000_000))
                .expect("converges")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
