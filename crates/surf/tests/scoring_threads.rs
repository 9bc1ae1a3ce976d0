//! The forest fit, pool scoring and the search built on them give
//! bit-identical results on the serial and parallel backends at 1 and at
//! 2 rayon threads.
//!
//! The rayon pool reads `RAYON_NUM_THREADS` once per process, so the test
//! re-runs itself in a child process for each thread count and compares
//! the children's digests.

use std::process::Command;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf::{
    surf_search_parallel, surf_search_serial, ExtraTrees, ForestParams, ParallelEvaluator,
    SlicedPool, SurfParams,
};

const TEST: &str = "serial_and_parallel_agree_at_one_and_two_threads";
const CHILD: &str = "SURF_SCORING_THREADS_CHILD";

/// Features with one-hot, 11-value, 3-value and continuous columns.
fn features(id: u128) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(id as u64);
    let mut x = vec![0.0; 7];
    x[rng.gen_range(0..4usize)] = 1.0;
    x[4] = rng.gen_range(0..11u32) as f64 / 10.0;
    x[5] = rng.gen_range(0..3u32) as f64 / 2.0;
    x[6] = rng.gen_range(0.0..1.0);
    x
}

fn cost(id: u128) -> f64 {
    let x = features(id);
    1.0 + 2.0 * x[1] + (x[4] - 0.3).powi(2) + 0.5 * x[5] * x[6]
}

struct Synthetic;

impl ParallelEvaluator for Synthetic {
    fn features(&self, id: u128) -> Vec<f64> {
        features(id)
    }
    fn evaluate(&self, id: u128) -> f64 {
        cost(id)
    }
}

/// FNV-1a over the bit patterns of everything the child computed.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn child() {
    let threads: usize = std::env::var("RAYON_NUM_THREADS").unwrap().parse().unwrap();
    assert_eq!(rayon::current_num_threads(), threads);

    let train: Vec<u128> = (0..120).collect();
    let xs: Vec<Vec<f64>> = train.iter().map(|&id| features(id)).collect();
    let ys: Vec<f64> = train.iter().map(|&id| cost(id)).collect();
    let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
    let pool_ids: Vec<u128> = (1_000..6_000).collect();
    let rows: Vec<Vec<f64>> = pool_ids.iter().map(|&id| features(id)).collect();
    let pool = SlicedPool::from_rows(&rows);
    let selected: Vec<u32> = (0..rows.len() as u32).rev().step_by(3).collect();
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    pool.score(&model, &selected, false, &mut serial);
    pool.score(&model, &selected, true, &mut parallel);
    for ((&r, s), p) in selected.iter().zip(&serial).zip(&parallel) {
        let want = model.predict(&rows[r as usize]).to_bits();
        assert_eq!(s.to_bits(), want, "serial row {r}");
        assert_eq!(p.to_bits(), want, "parallel row {r}");
    }

    let params = SurfParams {
        max_evals: 60,
        ..SurfParams::default()
    };
    let ser = surf_search_serial(&pool_ids, &Synthetic, params).unwrap();
    let par = surf_search_parallel(&pool_ids, &Synthetic, params).unwrap();
    assert_eq!(ser.evaluated, par.evaluated);
    assert_eq!(par.threads, threads);

    // A second forest with the tuner's leaf size and a feature subset per
    // split: its trees grow in parallel, one rng per tree.
    let sampled = ExtraTrees::fit(
        &xs,
        &ys,
        ForestParams {
            n_trees: 30,
            min_samples_leaf: 2,
            k_features: Some(3),
            seed: 7,
        },
    );
    let fitted = rows
        .iter()
        .map(|x| sampled.predict(x))
        .chain(sampled.feature_importance().iter().copied())
        .map(f64::to_bits);

    let bits = serial.iter().map(|p| p.to_bits());
    let picks = par
        .evaluated
        .iter()
        .flat_map(|&(id, y)| [id as u64, y.to_bits()]);
    println!("digest {:016x}", digest(bits.chain(fitted).chain(picks)));
}

#[test]
fn serial_and_parallel_agree_at_one_and_two_threads() {
    if std::env::var_os(CHILD).is_some() {
        return child();
    }
    let exe = std::env::current_exe().unwrap();
    let digests: Vec<String> = ["1", "2"]
        .into_iter()
        .map(|threads| {
            let out = Command::new(&exe)
                .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
                .env(CHILD, "1")
                .env("RAYON_NUM_THREADS", threads)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(
                out.status.success(),
                "child at {threads} thread(s) failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let digest = stdout.split("digest ").nth(1).and_then(|s| s.get(..16));
            digest
                .unwrap_or_else(|| panic!("no digest at {threads} thread(s):\n{stdout}"))
                .to_string()
        })
        .collect();
    assert_eq!(digests[0], digests[1]);
}
