//! Criterion microbenchmarks of the evaluation hot path: the exact
//! per-evaluation operations the SURF search loop performs millions of
//! times — config decode, kernel timing, surrogate refit and pool scoring —
//! each with its baseline next to the fast path the search uses, so
//! regressions in either show up as a ratio, not just a number — plus
//! the lowering every cold tune pays before its first evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use barracuda::prelude::*;
use barracuda::stages::LoweredVersions;
use barracuda::EvalCache;
use surf::{ExtraTrees, ForestParams, SlicedPool};

fn bench_config_decode(c: &mut Criterion) {
    let w = kernels::table2_benchmarks()
        .into_iter()
        .find(|w| w.name == "tce")
        .unwrap();
    let tuner = WorkloadTuner::build(&w);
    let st = &tuner.statements[0];
    let total: u128 = st.total();

    // Allocating baseline: a fresh Configuration per id.
    c.bench_function("hotpath/decode_alloc_tce_statement", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 7919) % total;
            black_box(st.decode(black_box(i)))
        })
    });

    // Zero-allocation path used by the memoized evaluator: raw version
    // split plus mixed-radix digits into a reused scratch vector.
    c.bench_function("hotpath/decode_zero_alloc_tce_statement", |b| {
        let mut i = 0u128;
        let mut choices: Vec<usize> = Vec::new();
        b.iter(|| {
            i = (i + 7919) % total;
            let (v, local) = st.decode_raw(black_box(i));
            st.variants[v].space.choices_into(local, &mut choices);
            black_box((v, choices.len()))
        })
    });
}

fn bench_kernel_timing(c: &mut Criterion) {
    let w = kernels::lg3(12, 512);
    let tuner = WorkloadTuner::build(&w);
    let st = &tuner.statements[0];
    let space = &st.variants[0].space;
    let cfg = space.config(0);
    let kernels = tcr::mapping::map_program(&st.variants[0].program, space, &cfg, false)
        .unwrap_or_else(|e| panic!("config 0 must map: {e}"));
    let arch = gpusim::k20();

    // Full breakdown: clones the kernel name and builds a KernelTiming.
    c.bench_function("hotpath/time_kernel_breakdown", |b| {
        b.iter(|| {
            black_box(gpusim::time_kernel(
                black_box(&kernels[0]),
                black_box(&arch),
            ))
        })
    });

    // Fast path the per-op memo layer stores: just the seconds.
    c.bench_function("hotpath/kernel_time_s_fast", |b| {
        b.iter(|| {
            black_box(gpusim::kernel_time_s(
                black_box(&kernels[0]),
                black_box(&arch),
            ))
        })
    });
}

fn bench_predict(c: &mut Criterion) {
    // Shaped like a late SURF round on eqn1: a forest fitted on 160
    // evaluated configurations scores a pool of 4 096 candidates (a
    // paper-budget search fits on ~150 and scores up to 20 000).
    let w = kernels::eqn1(10);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let pool = tuner.pool(4096, 3);
    let xs: Vec<Vec<f64>> = pool.iter().map(|&id| tuner.features(id)).collect();
    let ys: Vec<f64> = pool[..160]
        .iter()
        .map(|&id| tuner.gpu_seconds(id, &arch))
        .collect();
    let params = ForestParams {
        n_trees: 30,
        min_samples_leaf: 2,
        k_features: Some(48),
        seed: 1,
    };
    let model = ExtraTrees::fit(&xs[..160], &ys, params);

    // Baseline: one root-to-leaf walk per candidate per tree.
    c.bench_function("hotpath/predict_per_row_4096", |b| {
        b.iter(|| {
            let out: Vec<f64> = xs.iter().map(|x| model.predict(black_box(x))).collect();
            black_box(out)
        })
    });

    // Search-loop path: the pool laid out once as column bitsets, each
    // tree evaluated node by node over sets of rows.
    let pool = SlicedPool::from_rows(&xs);
    let rows: Vec<u32> = (0..xs.len() as u32).collect();
    c.bench_function("hotpath/predict_sliced_4096", |b| {
        let mut out: Vec<f64> = Vec::new();
        b.iter(|| {
            pool.score(black_box(&model), black_box(&rows), false, &mut out);
            black_box(out.len())
        })
    });
}

fn bench_fit(c: &mut Criterion) {
    // One SURF refit late in a paper-budget tce search: the forest the
    // tuner runs, fitted on 160 evaluated configurations (unmappable
    // ones, timed NaN, are skipped as the search skips them).
    let w = kernels::builtin("tce").unwrap();
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = tuner
        .pool(4096, 3)
        .into_iter()
        .filter_map(|id| {
            let t = tuner.gpu_seconds(id, &arch);
            t.is_finite().then(|| (tuner.features(id), t))
        })
        .take(160)
        .unzip();
    assert_eq!(xs.len(), 160);
    let params = TuneParams::paper().surf.forest;
    c.bench_function("hotpath/fit_tce_160", |b| {
        b.iter(|| black_box(ExtraTrees::fit(black_box(&xs), black_box(&ys), params)))
    });
}

fn bench_pool_feature_reuse(c: &mut Criterion) {
    // The search used to re-featurize every remaining candidate on every
    // scoring round. This pair pins the win from building the pool once:
    // the baseline pays featurization and the bit-sliced layout per
    // round, the cached path only scores.
    let w = kernels::eqn1(10);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let pool = tuner.pool(512, 3);
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
    let model = ExtraTrees::fit(&xs, &ys, params);
    let rows: Vec<u32> = (0..pool.len() as u32).collect();

    // Per-round baseline: featurize and lay out the pool from scratch.
    c.bench_function("hotpath/score_refeaturize_each_round_512", |b| {
        let mut out: Vec<f64> = Vec::new();
        b.iter(|| {
            let feats: Vec<Vec<f64>> = pool.iter().map(|&id| tuner.features(id)).collect();
            SlicedPool::from_rows(&feats).score(&model, black_box(&rows), false, &mut out);
            black_box(out.len())
        })
    });

    // Cached-pool path: the layout is built once outside the round.
    let sliced = SlicedPool::from_rows(&xs);
    c.bench_function("hotpath/score_cached_pool_features_512", |b| {
        let mut out: Vec<f64> = Vec::new();
        b.iter(|| {
            sliced.score(&model, black_box(&rows), false, &mut out);
            black_box(out.len())
        })
    });
}

fn bench_memoized_eval(c: &mut Criterion) {
    let w = kernels::table2_benchmarks()
        .into_iter()
        .find(|w| w.name == "tce")
        .unwrap();
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let total = tuner.total_space();

    // Unmemoized whole-configuration evaluation (map + validate + time).
    c.bench_function("hotpath/eval_tce_unmemoized", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 104_729) % total;
            black_box(tuner.gpu_seconds(black_box(i), &arch))
        })
    });

    // Same ids through the per-op memo layer with a warm cache: every op
    // digit has been seen, so the evaluation is pure cache hits plus a sum.
    let cache = EvalCache::new();
    let ids: Vec<u128> = (0..256u128).map(|k| (k * 104_729) % total).collect();
    for &id in &ids {
        let _ = tuner.try_gpu_seconds_memo(id, &arch, &cache);
    }
    c.bench_function("hotpath/eval_tce_memoized_warm", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % ids.len();
            black_box(
                tuner
                    .try_gpu_seconds_memo(black_box(ids[k]), &arch, &cache)
                    .ok(),
            )
        })
    });
}

fn bench_lower(c: &mut Criterion) {
    let w = kernels::builtin("tce").unwrap();
    // Every OCTOPI version of tce lowered with its op spaces: set-up every
    // cold tune of tce pays before its first evaluation.
    c.bench_function("hotpath/lower_tce", |b| {
        b.iter(|| black_box(LoweredVersions::build(black_box(&w))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_config_decode,
    bench_kernel_timing,
    bench_predict,
    bench_fit,
    bench_pool_feature_reuse,
    bench_memoized_eval,
    bench_lower,
}
criterion_main!(benches);
