//! Extremely randomized trees regressor (Geurts, Ernst & Wehenkel 2006),
//! the surrogate model the paper adopts "due to their ability to handle the
//! binarized parameters using recursive partitioning and to model nonlinear
//! interactions among the parameters" (§V).
//!
//! Implemented from scratch: each tree is grown on the full training set;
//! at every node, `k_features` attributes are drawn at random, each gets a
//! uniformly random cut-point between its node-local min and max, and the
//! split with the best variance reduction wins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the forest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForestParams {
    pub n_trees: usize,
    /// Nodes with fewer samples become leaves.
    pub min_samples_leaf: usize,
    /// Random attributes examined per split; `None` = all attributes.
    pub k_features: Option<usize>,
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 30,
            min_samples_leaf: 2,
            k_features: None,
            seed: 0xBA22ACDA,
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct Tree {
    pub(crate) nodes: Vec<Node>,
}

impl Tree {
    /// Depth of the deepest leaf (a lone root leaf has depth 0).
    pub(crate) fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((at, d)) = stack.pop() {
            deepest = deepest.max(d);
            if let Node::Split { left, right, .. } = &self.nodes[at] {
                stack.push((*left, d + 1));
                stack.push((*right, d + 1));
            }
        }
        deepest
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A fitted extra-trees regression forest.
#[derive(Clone, Debug)]
pub struct ExtraTrees {
    trees: Vec<Tree>,
    pub params: ForestParams,
    n_features: usize,
    /// Accumulated variance reduction per (binarized) feature across every
    /// split of every tree, normalized to sum to 1 (all zeros when no tree
    /// ever split).
    importance: Vec<f64>,
}

/// Reusable per-tree buffers for `grow`: without these every candidate
/// split allocates two partition vectors, which dominates fit time.
#[derive(Default)]
struct GrowScratch {
    cand: Vec<usize>,
    left_ys: Vec<f64>,
    right_ys: Vec<f64>,
}

/// Column-major view of the training set, built once per fit so the
/// per-candidate min/max and partition passes scan one contiguous column
/// instead of chasing a row pointer per sample.
struct Cols<'a> {
    data: &'a [f64],
    n: usize,
    d: usize,
}

impl Cols<'_> {
    #[inline(always)]
    fn get(&self, i: usize, f: usize) -> f64 {
        self.data[f * self.n + i]
    }
}

fn mean(ys: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64
}

fn sse(ys: &[f64], idx: &[usize]) -> f64 {
    let m = mean(ys, idx);
    idx.iter().map(|&i| (ys[i] - m).powi(2)).sum()
}

#[allow(clippy::too_many_arguments)]
fn grow(
    xs: &Cols<'_>,
    ys: &[f64],
    idx: Vec<usize>,
    nodes: &mut Vec<Node>,
    params: &ForestParams,
    rng: &mut StdRng,
    importance: &mut [f64],
    scratch: &mut GrowScratch,
) -> usize {
    let n_features = xs.d;
    let make_leaf = |nodes: &mut Vec<Node>, idx: &[usize]| {
        nodes.push(Node::Leaf {
            value: mean(ys, idx),
        });
        nodes.len() - 1
    };

    if idx.len() < params.min_samples_leaf.max(2) {
        return make_leaf(nodes, &idx);
    }
    let first_y = ys[idx[0]];
    if idx.iter().all(|&i| (ys[i] - first_y).abs() < 1e-15) {
        return make_leaf(nodes, &idx);
    }

    // Candidate features with non-constant values at this node.
    let k = params.k_features.unwrap_or(n_features).min(n_features);
    scratch.cand.clear();
    scratch.cand.extend(0..n_features);
    // Partial Fisher–Yates to draw k distinct features.
    for i in 0..k.min(n_features) {
        let j = rng.gen_range(i..n_features);
        scratch.cand.swap(i, j);
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
    let parent_sse = sse(ys, &idx);
    for ci in 0..k {
        let f = scratch.cand[ci];
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &idx {
            lo = lo.min(xs.get(i, f));
            hi = hi.max(xs.get(i, f));
        }
        if hi - lo < 1e-12 {
            continue;
        }
        let threshold = rng.gen_range(lo..hi).max(lo + (hi - lo) * 1e-9);
        // One partition pass gathers each side's targets contiguously and
        // accumulates their sums in the same left-to-right order `mean`
        // would, so the means — and the sse passes below — are bit-identical
        // to the separate filter+mean+sse formulation.
        scratch.left_ys.clear();
        scratch.right_ys.clear();
        let (mut sum_l, mut sum_r) = (0.0f64, 0.0f64);
        for &i in &idx {
            let y = ys[i];
            if xs.get(i, f) < threshold {
                scratch.left_ys.push(y);
                sum_l += y;
            } else {
                scratch.right_ys.push(y);
                sum_r += y;
            }
        }
        if scratch.left_ys.is_empty() || scratch.left_ys.len() == idx.len() {
            continue;
        }
        let m_l = sum_l / scratch.left_ys.len() as f64;
        let m_r = sum_r / scratch.right_ys.len() as f64;
        let sse_l: f64 = scratch.left_ys.iter().map(|&y| (y - m_l).powi(2)).sum();
        let sse_r: f64 = scratch.right_ys.iter().map(|&y| (y - m_r).powi(2)).sum();
        let score = parent_sse - sse_l - sse_r;
        if best.map(|(_, _, s)| score > s).unwrap_or(true) {
            best = Some((f, threshold, score));
        }
    }

    let Some((feature, threshold, gain)) = best else {
        return make_leaf(nodes, &idx);
    };
    importance[feature] += gain.max(0.0);
    let left_idx: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| xs.get(i, feature) < threshold)
        .collect();
    let right_idx: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| xs.get(i, feature) >= threshold)
        .collect();

    let at = nodes.len();
    nodes.push(Node::Leaf { value: 0.0 }); // placeholder
    let left = grow(xs, ys, left_idx, nodes, params, rng, importance, scratch);
    let right = grow(xs, ys, right_idx, nodes, params, rng, importance, scratch);
    nodes[at] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    at
}

impl ExtraTrees {
    /// Fits the forest on binarized configurations `xs` with targets `ys`.
    ///
    /// Trees are grown in parallel on the rayon pool: each tree draws its
    /// own rng from `seed + tree_index`, so the forest is identical at any
    /// thread count. Per-tree importance contributions are summed in tree
    /// order, keeping the floating-point reduction scheduling-independent.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: ForestParams) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty training set");
        let n_features = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == n_features));
        // Transpose once; every tree's split passes then scan contiguous
        // columns (values and visit order unchanged, so trees are
        // bit-identical to the row-major layout).
        let n = xs.len();
        let mut colmaj = vec![0.0; n * n_features];
        for (i, x) in xs.iter().enumerate() {
            for (f, &v) in x.iter().enumerate() {
                colmaj[f * n + i] = v;
            }
        }
        let cols = Cols {
            data: &colmaj,
            n,
            d: n_features,
        };
        let tree_ids: Vec<u64> = (0..params.n_trees as u64).collect();
        let grown: Vec<(Tree, Vec<f64>)> = rayon::par_map_slice(&tree_ids, |&t| {
            let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(t));
            let mut nodes = Vec::new();
            let mut importance = vec![0.0; n_features];
            let mut scratch = GrowScratch::default();
            let root = grow(
                &cols,
                ys,
                (0..n).collect(),
                &mut nodes,
                &params,
                &mut rng,
                &mut importance,
                &mut scratch,
            );
            debug_assert_eq!(root, 0);
            (Tree { nodes }, importance)
        });
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut importance = vec![0.0; n_features];
        for (tree, imp) in grown {
            trees.push(tree);
            for (acc, v) in importance.iter_mut().zip(imp) {
                *acc += v;
            }
        }
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            importance.iter_mut().for_each(|v| *v /= total);
        }
        ExtraTrees {
            trees,
            params,
            n_features,
            importance,
        }
    }

    /// Normalized per-feature importance (variance reduction attribution).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Predicts the target for one configuration (mean over trees).
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// The fitted trees, in fit order.
    pub(crate) fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Binarized width the forest was fitted on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// A forest of hand-built trees, for scoring tests that need exact
    /// thresholds and leaf values.
    #[cfg(test)]
    pub(crate) fn from_nodes(trees: Vec<Vec<Node>>, n_features: usize) -> ExtraTrees {
        ExtraTrees {
            trees: trees.into_iter().map(|nodes| Tree { nodes }).collect(),
            params: ForestParams::default(),
            n_features,
            importance: vec![0.0; n_features],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 3*x0 + (x1 one-hot group effect) + noise-free interaction.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x0 = rng.gen_range(0.0..1.0f64);
            let cat = rng.gen_range(0..3usize);
            let mut x = vec![x0, 0.0, 0.0, 0.0];
            x[1 + cat] = 1.0;
            let y = 3.0 * x0 + [0.0, 5.0, -2.0][cat] + x0 * [1.0, 0.0, 2.0][cat];
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn fits_and_generalizes_synthetic() {
        let (xs, ys) = synthetic(400, 1);
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let (xt, yt) = synthetic(100, 2);
        let mut sse = 0.0;
        let mut var = 0.0;
        let m: f64 = yt.iter().sum::<f64>() / yt.len() as f64;
        for (x, y) in xt.iter().zip(&yt) {
            sse += (model.predict(x) - y).powi(2);
            var += (y - m).powi(2);
        }
        let r2 = 1.0 - sse / var;
        assert!(r2 > 0.85, "R^2 = {r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = synthetic(100, 3);
        let a = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let b = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let x = &xs[0];
        assert_eq!(a.predict(x), b.predict(x));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 20];
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        assert!((model.predict(&[3.0]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_a_leaf() {
        let model = ExtraTrees::fit(&[vec![0.0, 1.0]], &[2.0], ForestParams::default());
        assert_eq!(model.predict(&[9.0, 9.0]), 2.0);
    }

    #[test]
    fn ranks_categorical_effects() {
        // Categories with clearly different means must be ranked correctly.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for rep in 0..30 {
            for cat in 0..3 {
                let mut x = vec![0.0; 3];
                x[cat] = 1.0;
                xs.push(x);
                ys.push([10.0, 1.0, 5.0][cat] + 0.01 * rep as f64);
            }
        }
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let p0 = model.predict(&[1.0, 0.0, 0.0]);
        let p1 = model.predict(&[0.0, 1.0, 0.0]);
        let p2 = model.predict(&[0.0, 0.0, 1.0]);
        assert!(p1 < p2 && p2 < p0, "{p0} {p1} {p2}");
    }

    #[test]
    fn importance_identifies_the_informative_feature() {
        // y depends only on x0; x1 is noise.
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let x0 = rng.gen_range(0.0..1.0f64);
            let x1 = rng.gen_range(0.0..1.0f64);
            xs.push(vec![x0, x1]);
            ys.push(10.0 * x0);
        }
        let model = ExtraTrees::fit(&xs, &ys, ForestParams::default());
        let imp = model.feature_importance();
        assert!(imp[0] > 0.8, "informative feature dominates: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_fit_panics() {
        let _ = ExtraTrees::fit(&[], &[], ForestParams::default());
    }
}
