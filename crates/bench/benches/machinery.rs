//! Criterion benchmarks of the real machinery: enumeration, space
//! construction, simulation, surrogate modeling, and the actual executors.
//!
//! These measure wall time of this implementation (not simulated GPU time),
//! so they answer "is the autotuner itself fast enough" — the paper's §V
//! point that search must be practical.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use barracuda::prelude::*;
use barracuda::variant::StatementTuner;
use cpusim::{execute_parallel, execute_sequential};
use surf::{ExtraTrees, ForestParams};
use tcr::mapping::map_program;
use tensor::index::uniform_dims;
use tensor::{Shape, Tensor};

fn eqn1_workload() -> Workload {
    kernels::eqn1(10)
}

fn bench_octopi_enumeration(c: &mut Criterion) {
    let w = eqn1_workload();
    c.bench_function("octopi/enumerate_eqn1_15_versions", |b| {
        b.iter(|| {
            let fs =
                octopi::enumerate_factorizations(black_box(&w.statements[0]), black_box(&w.dims));
            assert_eq!(fs.len(), 15);
            fs
        })
    });
    let tce = kernels::tce_ex(10);
    c.bench_function("octopi/enumerate_tce_ex", |b| {
        b.iter(|| {
            octopi::enumerate_factorizations(black_box(&tce.statements[0]), black_box(&tce.dims))
        })
    });
}

fn bench_space_build(c: &mut Criterion) {
    let w = eqn1_workload();
    c.bench_function("tcr/build_eqn1_statement_tuner", |b| {
        b.iter(|| StatementTuner::build("ex", black_box(&w.statements[0]), &w.dims))
    });
}

fn bench_simulator_eval(c: &mut Criterion) {
    let w = kernels::lg3(12, 512);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let total = tuner.total_space();
    c.bench_function("gpusim/evaluate_lg3_configuration", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 7919) % total;
            black_box(tuner.gpu_seconds(i, &arch))
        })
    });
}

fn bench_forest(c: &mut Criterion) {
    // Training set shaped like a real SURF iteration: ~256 samples of ~150
    // binarized features.
    let w = eqn1_workload();
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let pool = tuner.pool(256, 3);
    let xs: Vec<Vec<f64>> = pool.iter().map(|&id| tuner.features(id)).collect();
    let ys: Vec<f64> = pool
        .iter()
        .map(|&id| tuner.gpu_seconds(id, &arch))
        .collect();
    let params = ForestParams {
        n_trees: 30,
        min_samples_leaf: 2,
        k_features: Some(48),
        seed: 1,
    };
    c.bench_function("surf/fit_forest_256_samples", |b| {
        b.iter(|| ExtraTrees::fit(black_box(&xs), black_box(&ys), params))
    });
    let model = ExtraTrees::fit(&xs, &ys, params);
    c.bench_function("surf/predict_256", |b| {
        b.iter(|| {
            let out: Vec<f64> = xs.iter().map(|x| model.predict(black_box(x))).collect();
            out
        })
    });
}

fn bench_executors(c: &mut Criterion) {
    // Real CPU contraction execution, sequential vs 4 threads.
    let w = kernels::lg3(12, 64);
    let programs = barracuda::cpu::cpu_programs(&w);
    let p = &programs[0];
    let ids = p.input_ids();
    let inputs: Vec<Tensor> = ids
        .iter()
        .map(|&id| Tensor::random(p.arrays[id].shape(&p.dims), id as u64))
        .collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    c.bench_function("cpusim/lg3_statement_sequential", |b| {
        b.iter(|| execute_sequential(black_box(p), black_box(&refs)))
    });
    c.bench_function("cpusim/lg3_statement_4_threads", |b| {
        b.iter(|| execute_parallel(black_box(p), black_box(&refs), 4))
    });
    c.bench_function("cpusim/lg3_statement_tiled32", |b| {
        b.iter(|| cpusim::execute_tiled(black_box(p), black_box(&refs), 32))
    });

    // Functional GPU executor on a mapped kernel.
    let tuner = WorkloadTuner::build(&w);
    let st = &tuner.statements[0];
    let space = &st.variants[0].space;
    let cfg = space.config(0);
    let kernels = map_program(&st.variants[0].program, space, &cfg, false)
        .unwrap_or_else(|e| panic!("config 0 must map: {e}"));
    c.bench_function("gpusim/execute_lg3_statement", |b| {
        b.iter_batched(
            || refs.clone(),
            |refs| gpusim::execute_program(&st.variants[0].program, &kernels, &refs),
            BatchSize::SmallInput,
        )
    });
}

fn bench_oracle(c: &mut Criterion) {
    let dims = uniform_dims(&["i", "j", "k"], 32);
    let spec = tensor::EinsumSpec::new(&[&["i", "j"], &["j", "k"]], &["i", "k"], dims);
    let a = Tensor::random(Shape::new([32, 32]), 1);
    let b = Tensor::random(Shape::new([32, 32]), 2);
    c.bench_function("tensor/einsum_oracle_matmul32", |bch| {
        bch.iter(|| spec.evaluate(black_box(&[&a, &b])))
    });
}

fn bench_codegen(c: &mut Criterion) {
    let w = eqn1_workload();
    let tuner = WorkloadTuner::build(&w);
    let tuned = tuner
        .autotune(&gpusim::gtx980(), TuneParams::quick())
        .unwrap();
    c.bench_function("tcr/cuda_codegen_eqn1", |b| {
        b.iter(|| black_box(&tuned).cuda_source())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_octopi_enumeration,
    bench_space_build,
    bench_simulator_eval,
    bench_forest,
    bench_executors,
    bench_oracle,
    bench_codegen,

}
criterion_main!(benches);
