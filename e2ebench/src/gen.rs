//! Seeded input generation. Everything a workload feeds the program is
//! derived here from `--seed`; the program only ever sees the result.

/// The paper's Table II workloads, first in every tune set.
pub const TABLE2: [&str; 4] = ["eqn1", "lg3", "lg3t", "tce"];

/// The 31 builtin workloads `kernels::builtin` resolves, in a fixed order.
pub fn builtins() -> Vec<String> {
    let table2 = TABLE2.map(String::from);
    let nwchem = ["s1", "d1", "d2"]
        .iter()
        .flat_map(|f| (1..=9).map(move |v| format!("{f}_{v}")));
    table2.into_iter().chain(nwchem).collect()
}

/// SplitMix64: a tiny, well-mixed, seedable generator (no dependency).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BA22_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The 27 NWChem kernels in four strata of similar tune-sweep cost
/// (lowering plus the calls on the three searchable backends, mean of two
/// measurements on a 2-vCPU x86 virtual machine at the commit that added
/// this benchmark): 0.54–0.78 s, 0.80–0.91 s, 0.90–1.13 s, 1.23–1.45 s.
/// The three heaviest kernels make a stratum of their own, so the draw
/// from each stratum moves the sweep's cost little.
const NWCHEM_STRATA: [&[&str]; 4] = [
    &[
        "d2_1", "d1_3", "d2_3", "d1_1", "d1_2", "d1_7", "d2_8", "s1_6",
    ],
    &[
        "d1_5", "s1_5", "d2_7", "d2_9", "d2_2", "d1_9", "s1_9", "d2_6",
    ],
    &[
        "d2_4", "s1_7", "d1_6", "s1_8", "s1_4", "d1_8", "d2_5", "d1_4",
    ],
    &["s1_3", "s1_2", "s1_1"],
];

/// The tune-sweep set: the four Table II workloads plus one NWChem
/// kernel drawn by `seed` from each cost stratum, so every seed's sweep
/// does about the same amount of work.
pub fn sweep_set(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let table2 = builtins().into_iter().take(4);
    let drawn = NWCHEM_STRATA.map(|stratum| stratum[rng.below(stratum.len())].to_string());
    table2.chain(drawn).collect()
}

/// The tune-cold order: all 31 builtins, shuffled by `seed`.
pub fn cold_order(seed: u64) -> Vec<String> {
    let mut all = builtins();
    Rng::new(seed ^ 0xC01D).shuffle(&mut all);
    all
}

/// One generated serve request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub workload: String,
    /// Index in the sequence of this workload's first request: equal to
    /// the request's own index for the one cold request per workload.
    pub first: usize,
}

impl Request {
    pub fn line(&self) -> String {
        format!(r#"{{"op":"tune","workload":"builtin:{}"}}"#, self.workload)
    }
}

/// Zipf exponent of the warm popularity distribution: 0.99, the
/// `zipfian` request distribution's constant in YCSB (Cooper et al.,
/// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010), the
/// usual published stand-in for skewed key popularity. A larger exponent
/// concentrates warm traffic on the first-touched (Table II) workloads.
const ZIPF_S: f64 = 0.99;

/// The serve-mixed request sequence. Popularity follows [`builtins`]
/// order (the Table II kernels hottest), and workloads are first touched
/// in that order, so every workload is cold exactly once and the cold
/// searches are the same from seed to seed. After the `k`-th first touch
/// (`k ≥ 1`) come `warm_per_cold` warm requests over the `k` workloads
/// touched before it, drawn by `seed` with Zipf([`ZIPF_S`]) weights by
/// popularity rank: none of them waits for the search the `k`-th touch
/// starts, so they all run beside it.
pub fn serve_sequence(seed: u64, warm_per_cold: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E2F);
    let names = builtins();
    let mut seq: Vec<Request> = Vec::with_capacity(names.len() * (warm_per_cold + 1));
    let mut first = Vec::with_capacity(names.len());
    let mut weights: Vec<f64> = Vec::with_capacity(names.len());
    for (k, w) in names.iter().enumerate() {
        first.push(seq.len());
        seq.push(Request {
            workload: w.clone(),
            first: seq.len(),
        });
        let total: f64 = weights.iter().sum();
        for _ in 0..if k > 0 { warm_per_cold } else { 0 } {
            let mut x = rng.unit() * total;
            let mut r = 0;
            while r + 1 < weights.len() && x >= weights[r] {
                x -= weights[r];
                r += 1;
            }
            seq.push(Request {
                workload: names[r].clone(),
                first: first[r],
            });
        }
        weights.push(1.0 / ((k + 1) as f64).powf(ZIPF_S));
    }
    seq
}

/// Closed-loop clients (threads, each with one connection) the serve
/// generator runs: two, but never more than the machine has cores.
pub fn client_count(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn builtins_are_the_31_known_workloads() {
        let b = builtins();
        assert_eq!(b.len(), 31);
        assert_eq!(b.iter().collect::<BTreeSet<_>>().len(), 31);
        for name in &b {
            assert!(barracuda::kernels::builtin(name).is_some(), "{name}");
        }
    }

    #[test]
    fn serve_sequence_repeats_per_seed_and_differs_across_seeds() {
        let a = serve_sequence(7, 50);
        assert_eq!(a, serve_sequence(7, 50));
        assert_ne!(a, serve_sequence(8, 50));
        assert_ne!(sweep_set(1), sweep_set(2));
        assert_eq!(sweep_set(3), sweep_set(3));
        assert_eq!(cold_order(5), cold_order(5));
        assert_ne!(cold_order(5), cold_order(6));
    }

    #[test]
    fn every_workload_is_cold_exactly_once_and_warm_only_after() {
        let seq = serve_sequence(11, 40);
        assert_eq!(seq.len(), 31 + 30 * 40);
        let cold: Vec<usize> = (0..seq.len()).filter(|&i| seq[i].first == i).collect();
        assert_eq!(cold.len(), 31);
        let names: BTreeSet<_> = cold.iter().map(|&i| &seq[i].workload).collect();
        assert_eq!(names.len(), 31);
        for (i, r) in seq.iter().enumerate() {
            assert!(r.first <= i);
            assert_eq!(seq[r.first].workload, r.workload);
            // A warm request's workload was touched before the latest
            // first touch: it never waits on the search running beside it.
            let latest = cold.iter().rev().find(|&&c| c <= i).unwrap();
            assert!(r.first == i || r.first < *latest, "request {i}");
        }
    }

    #[test]
    fn warm_traffic_is_skewed_towards_the_hottest_workload() {
        let seq = serve_sequence(3, 200);
        let warm: Vec<&Request> = seq
            .iter()
            .enumerate()
            .filter(|(i, r)| r.first != *i)
            .map(|(_, r)| r)
            .collect();
        let share = |name: &str| {
            warm.iter().filter(|r| r.workload == name).count() as f64 / warm.len() as f64
        };
        // Zipf(0.99) by rank, and the earliest-touched workloads are warm
        // the longest: the hottest takes far more than a uniform 1/31.
        assert!(share("eqn1") > 0.2, "eqn1 share {}", share("eqn1"));
        assert!(share("eqn1") > share("lg3") && share("lg3") > share("d2_9"));
    }

    #[test]
    fn the_generator_never_exceeds_nproc_threads_or_connections() {
        for n in 1..=16 {
            let c = client_count(n);
            assert!(c >= 1 && c <= n && c <= 2, "nproc {n} -> {c} clients");
        }
        assert!(client_count(nproc()) <= nproc());
    }

    #[test]
    fn sweep_set_is_table2_plus_one_kernel_per_stratum() {
        let nwchem: BTreeSet<String> = builtins().into_iter().skip(4).collect();
        let strata: BTreeSet<String> = NWCHEM_STRATA
            .iter()
            .flat_map(|s| s.iter().map(|w| w.to_string()))
            .collect();
        assert_eq!(strata, nwchem, "the strata partition the 27 NWChem kernels");
        assert_eq!(NWCHEM_STRATA.iter().map(|s| s.len()).sum::<usize>(), 27);
        for seed in 0..20 {
            let s = sweep_set(seed);
            assert_eq!(&s[..4], &["eqn1", "lg3", "lg3t", "tce"]);
            for (w, stratum) in s[4..].iter().zip(NWCHEM_STRATA) {
                assert!(stratum.contains(&w.as_str()), "{w}");
            }
        }
    }
}
