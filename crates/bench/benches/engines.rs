//! Criterion bench: alternative engines — heap FM vs bucket FM, spectral
//! seeding, and the multilevel V-cycle vs flat FLOW.

use criterion::{criterion_group, criterion_main, Criterion};
use htp_baselines::fm::bipartition::{fm_bipartition, random_balanced_init, BisectionBounds};
use htp_baselines::fm::buckets::fm_bipartition_buckets;
use htp_baselines::spectral::{spectral_fm_bipartition, SpectralParams};
use htp_bench::{paper_spec, threads_from_env};
use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
use htp_core::injector::FlowParams;
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fm_engines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let h = rent_circuit(
        RentParams {
            nodes: 1024,
            primary_inputs: 64,
            ..RentParams::default()
        },
        &mut rng,
    );
    let bounds = BisectionBounds::symmetric((h.total_size() * 11).div_ceil(20));
    let init = random_balanced_init(&h, bounds, &mut rng).unwrap();

    let mut group = c.benchmark_group("fm_engines");
    group.bench_function("heap", |b| {
        b.iter(|| black_box(fm_bipartition(&h, init.clone(), bounds, 8).unwrap()))
    });
    group.bench_function("buckets", |b| {
        b.iter(|| black_box(fm_bipartition_buckets(&h, init.clone(), bounds, 8).unwrap()))
    });
    group.bench_function("spectral_seed_plus_fm", |b| {
        b.iter(|| {
            black_box(spectral_fm_bipartition(&h, bounds, SpectralParams::default(), 8).unwrap())
        })
    });
    group.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let h = rent_circuit(
        RentParams {
            nodes: 700,
            primary_inputs: 48,
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    let spec = paper_spec(&h);

    // Both engines honour the shared HTP_THREADS knob; results are
    // bit-identical at any thread count, only the wall-clock moves.
    let threads = threads_from_env();
    let partitioner = PartitionerParams {
        flow: FlowParams {
            threads,
            ..FlowParams::default()
        },
        ..PartitionerParams::default()
    };
    let mut vcycle = VCycleParams::default();
    vcycle.partitioner.flow.threads = threads;

    let mut group = c.benchmark_group("multilevel_vs_flat");
    group.sample_size(10);
    group.bench_function("flat_flow", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(13);
            black_box(
                FlowPartitioner::try_new(partitioner)
                    .unwrap()
                    .run(&h, &spec, &mut rng)
                    .unwrap(),
            )
        })
    });
    group.bench_function("vcycle", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(13);
            black_box(vcycle_partition(&h, &spec, vcycle, &mut rng).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fm_engines, bench_multilevel);
criterion_main!(benches);
