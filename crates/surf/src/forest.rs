//! Extremely randomized trees regressor (Geurts, Ernst & Wehenkel 2006),
//! the surrogate model the paper adopts "due to their ability to handle the
//! binarized parameters using recursive partitioning and to model nonlinear
//! interactions among the parameters" (§V).
//!
//! Implemented from scratch: each tree is grown on the full training set;
//! at every node, `k_features` attributes are drawn at random, each gets a
//! uniformly random cut-point between its node-local min and max, and the
//! split with the best variance reduction wins.
//!
//! The training rows are laid out once per fit as a [`SlicedPool`], and a
//! tree grows over bitsets of rows. A candidate's left side is the node's
//! set ANDed with the column's `value < threshold` bitset; a sliced
//! column finds its node-local min and max from the value bitsets too.
//! One pass over the node's rows then sums every candidate's two sides at
//! once. Each side still adds its rows in row order, so every tree is
//! bit-identical to growing over index lists with one partition pass per
//! candidate (the `reference` oracle in the tests).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sliced::{ones, SlicedPool};

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

/// Reusable per-tree buffers for `grow`, so a node allocates nothing once
/// the tree's deepest path has been seen. Row sets are `words` long and
/// feature sets `fwords` long; the three stacks hold one slot per depth.
#[derive(Default)]
struct GrowScratch {
    /// Stack: the rows of the node at each depth.
    rows: Vec<u64>,
    /// Stack: the left rows of that node's chosen split.
    chosen: Vec<u64>,
    /// Stack: the features not found constant on the path to that node.
    live: Vec<u64>,
    /// Feature indices; a partial shuffle puts a node's candidates first.
    cand: Vec<usize>,
    /// The node's candidates that divide its rows, in candidate order:
    /// feature, threshold and left row count.
    splits: Vec<(usize, f64, usize)>,
    /// Their left sets, word by word: word `w` of split `c` is at
    /// `w * k + c` for the node's `k` candidates.
    left: Vec<u64>,
    /// One candidate's two sides, as `SlicedPool::split` writes them.
    side_left: Vec<u64>,
    side_right: Vec<u64>,
    /// Per split: left and right target sums, then means, then SSEs.
    sum_l: Vec<f64>,
    sum_r: Vec<f64>,
    sse_l: Vec<f64>,
    sse_r: Vec<f64>,
}

/// `a` where `mask` is all ones, `b` where it is zero. Unlike adding 0.0
/// to the side a row is not on, this keeps every sum exact (-0.0 + 0.0
/// is 0.0), and it has no branch, so the per-split loops vectorize.
#[inline(always)]
fn select(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits(a.to_bits() & mask | b.to_bits() & !mask)
}

/// Whether a feature whose node-local range is `lo..=hi` is too narrow
/// to cut. A range that is constant at a node is constant at every node
/// below it.
fn constant(lo: f64, hi: f64) -> bool {
    hi - lo < 1e-12
}

/// What every tree of one fit reads: the training rows laid out by
/// column, their targets, and the root's row and live-feature sets.
struct Grower<'a> {
    cols: &'a SlicedPool,
    ys: &'a [f64],
    params: &'a ForestParams,
    words: usize,
    fwords: usize,
    all_rows: Vec<u64>,
    /// The features that are not constant over the whole training set.
    /// The rest are constant at every node and would never draw a
    /// threshold, so no tree examines them.
    live: Vec<u64>,
}

impl<'a> Grower<'a> {
    fn new(cols: &'a SlicedPool, ys: &'a [f64], params: &'a ForestParams) -> Self {
        let (words, d) = (cols.words(), cols.width());
        let fwords = d.div_ceil(64);
        let mut all_rows = vec![0; words];
        for i in 0..ys.len() {
            all_rows[i / 64] |= 1 << (i % 64);
        }
        let mut live = vec![0; fwords];
        for f in 0..d {
            let (lo, hi) = cols.range(f, &all_rows);
            if !constant(lo, hi) {
                live[f / 64] |= 1 << (f % 64);
            }
        }
        Grower {
            cols,
            ys,
            params,
            words,
            fwords,
            all_rows,
            live,
        }
    }

    /// Grows one tree on every training row.
    fn tree(&self, rng: &mut StdRng) -> (Tree, Vec<f64>) {
        let mut s = GrowScratch {
            rows: self.all_rows.clone(),
            live: self.live.clone(),
            ..GrowScratch::default()
        };
        let mut nodes = Vec::new();
        let mut importance = vec![0.0; self.cols.width()];
        let root = self.grow(0, &mut nodes, rng, &mut importance, &mut s);
        debug_assert_eq!(root, 0);
        (Tree { nodes }, importance)
    }

    /// Grows the subtree of the node whose rows are `s.rows` at `depth`
    /// and returns its index. Nodes are numbered in preorder.
    fn grow(
        &self,
        depth: usize,
        nodes: &mut Vec<Node>,
        rng: &mut StdRng,
        importance: &mut [f64],
        s: &mut GrowScratch,
    ) -> usize {
        let (w, fw) = (self.words, self.fwords);
        let set = &s.rows[depth * w..][..w];
        let count = set.iter().map(|x| x.count_ones() as usize).sum::<usize>();
        let ys = self.ys;
        let leaf = |nodes: &mut Vec<Node>, set: &[u64]| {
            let value = ones(set).map(|i| ys[i]).sum::<f64>() / count as f64;
            nodes.push(Node::Leaf { value });
            nodes.len() - 1
        };
        if count < self.params.min_samples_leaf.max(2) {
            return leaf(nodes, set);
        }
        let first_y = ys[ones(set).next().unwrap_or(0)];
        if ones(set).all(|i| (ys[i] - first_y).abs() < 1e-15) {
            return leaf(nodes, set);
        }
        let Some((feature, threshold, gain)) = self.best_split(depth, count, rng, s) else {
            return leaf(nodes, &s.rows[depth * w..][..w]);
        };
        importance[feature] += gain.max(0.0);

        let at = nodes.len();
        nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        if s.rows.len() < (depth + 2) * w {
            s.rows.resize((depth + 2) * w, 0);
            s.live.resize((depth + 2) * fw, 0);
        }
        let mut children = [0; 2];
        for (side, child) in children.iter_mut().enumerate() {
            let (parent, next) = s.rows.split_at_mut((depth + 1) * w);
            let parent = &parent[depth * w..];
            let chosen = &s.chosen[depth * w..][..w];
            let child_rows = &mut next[..w];
            for ((c, &p), &l) in child_rows.iter_mut().zip(parent).zip(chosen) {
                *c = if side == 0 { l } else { p & !l };
            }
            if side == 1 {
                // A NaN row is on neither side of `x < t`: it is scored
                // with the right side but passed on to neither child.
                self.cols.drop_nan(feature, child_rows);
            }
            s.live
                .copy_within(depth * fw..(depth + 1) * fw, (depth + 1) * fw);
            *child = self.grow(depth + 1, nodes, rng, importance, s);
        }
        nodes[at] = Node::Split {
            feature,
            threshold,
            left: children[0],
            right: children[1],
        };
        at
    }

    /// Draws the candidate splits of the node at `depth` (`count` rows)
    /// and returns the best as (feature, threshold, variance reduction),
    /// with its left rows in `s.chosen` at `depth`; `None` when no
    /// candidate divides the rows.
    ///
    /// The rng sees the reference's calls in its order: `k` shuffle draws,
    /// then one threshold per candidate that is not constant at the node,
    /// in candidate order, whether or not it then divides the rows. A
    /// feature found constant is cleared from the node's live set, which
    /// its children inherit; it stays constant on every subset, so it
    /// would never draw there either.
    fn best_split(
        &self,
        depth: usize,
        count: usize,
        rng: &mut StdRng,
        s: &mut GrowScratch,
    ) -> Option<(usize, f64, f64)> {
        let (w, fw, d) = (self.words, self.fwords, self.cols.width());
        let ys = self.ys;
        let k = self.params.k_features.unwrap_or(d).min(d);
        s.cand.clear();
        s.cand.extend(0..d);
        // Partial Fisher–Yates to draw k distinct features.
        for i in 0..k {
            let j = rng.gen_range(i..d);
            s.cand.swap(i, j);
        }

        let set = &s.rows[depth * w..][..w];
        let live = &mut s.live[depth * fw..][..fw];
        s.splits.clear();
        s.left.resize(k * w, 0);
        s.side_left.resize(w, 0);
        for &f in &s.cand[..k] {
            if live[f / 64] & 1 << (f % 64) == 0 {
                continue;
            }
            let (lo, hi) = self.cols.range(f, set);
            if constant(lo, hi) {
                live[f / 64] &= !(1 << (f % 64));
                continue;
            }
            let threshold = rng.gen_range(lo..hi).max(lo + (hi - lo) * 1e-9);
            s.side_right.clear();
            s.side_right.extend_from_slice(set);
            let (any_left, any_right) =
                self.cols
                    .split(f, threshold, 0, &mut s.side_right, &mut s.side_left);
            if !any_left || !any_right {
                continue;
            }
            // A left set equal to an earlier candidate's scores exactly
            // the same, so under strict `>` it can never win: drop it.
            let c = s.splits.len();
            let side_left = &s.side_left;
            if (0..c).any(|e| (0..w).all(|wi| s.left[wi * k + e] == side_left[wi])) {
                continue;
            }
            for (wi, &word) in s.side_left.iter().enumerate() {
                s.left[wi * k + c] = word;
            }
            let n_left = s.side_left.iter().map(|x| x.count_ones() as usize).sum();
            s.splits.push((f, threshold, n_left));
        }
        if s.splits.is_empty() {
            return None;
        }

        let ns = s.splits.len();
        let mean = ones(set).map(|i| ys[i]).sum::<f64>() / count as f64;
        let parent_sse: f64 = ones(set).map(|i| (ys[i] - mean).powi(2)).sum();
        // Every split's two sides in one pass over the node's rows, then
        // their SSEs in a second. Each side adds its rows in row order
        // from the reference's starting value (0.0 for the sums, the empty
        // `Iterator::sum` for the SSEs), so every sum is the same float
        // sequence as a per-candidate partition pass.
        let (sum_l, sum_r) = (&mut s.sum_l, &mut s.sum_r);
        sum_l.clear();
        sum_l.resize(ns, 0.0);
        sum_r.clear();
        sum_r.resize(ns, 0.0);
        for i in ones(set) {
            let (bit, y) = (i % 64, ys[i]);
            let masks = &s.left[i / 64 * k..][..ns];
            for ((&m, l), r) in masks.iter().zip(sum_l.iter_mut()).zip(sum_r.iter_mut()) {
                let on = (m >> bit & 1).wrapping_neg();
                let t = select(on, *l, *r) + y;
                *l = select(on, t, *l);
                *r = select(on, *r, t);
            }
        }
        for ((l, r), &(_, _, n_left)) in sum_l.iter_mut().zip(sum_r.iter_mut()).zip(&s.splits) {
            *l /= n_left as f64;
            *r /= (count - n_left) as f64;
        }
        let (mean_l, mean_r) = (&s.sum_l, &s.sum_r);
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        let (sse_l, sse_r) = (&mut s.sse_l, &mut s.sse_r);
        sse_l.clear();
        sse_l.resize(ns, empty_sum);
        sse_r.clear();
        sse_r.resize(ns, empty_sum);
        for i in ones(set) {
            let (bit, y) = (i % 64, ys[i]);
            let masks = &s.left[i / 64 * k..][..ns];
            let means = mean_l.iter().zip(mean_r);
            for (((&m, (&ml, &mr)), l), r) in masks
                .iter()
                .zip(means)
                .zip(sse_l.iter_mut())
                .zip(sse_r.iter_mut())
            {
                let on = (m >> bit & 1).wrapping_neg();
                let t = select(on, *l, *r) + (y - select(on, ml, mr)).powi(2);
                *l = select(on, t, *l);
                *r = select(on, *r, t);
            }
        }

        // Strict `>` in candidate order: the first of equal scores wins.
        let mut best: Option<(usize, f64)> = None;
        for (c, (l, r)) in sse_l.iter().zip(sse_r.iter()).enumerate() {
            let score = parent_sse - l - r;
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((c, score));
            }
        }
        let (c, gain) = best?;
        if s.chosen.len() < (depth + 1) * w {
            s.chosen.resize((depth + 1) * w, 0);
        }
        for (wi, word) in s.chosen[depth * w..][..w].iter_mut().enumerate() {
            *word = s.left[wi * k + c];
        }
        let (feature, threshold, _) = s.splits[c];
        Some((feature, threshold, gain))
    }
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
        let cols = SlicedPool::from_rows(xs);
        let grower = Grower::new(&cols, ys, &params);
        let tree_ids: Vec<u64> = (0..params.n_trees as u64).collect();
        let grown = rayon::par_map_slice(&tree_ids, |&t| {
            grower.tree(&mut StdRng::seed_from_u64(params.seed.wrapping_add(t)))
        });
        Self::assemble(grown, params, n_features)
    }

    /// The forest of `grown` trees, with each tree's importance summed in
    /// tree order and normalized.
    fn assemble(grown: Vec<(Tree, Vec<f64>)>, params: ForestParams, n_features: usize) -> Self {
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

/// The grow the fit replaced, over index lists with one partition pass
/// per candidate: the oracle the bit-sliced grow must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    fn mean(ys: &[f64], idx: &[usize]) -> f64 {
        idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64
    }

    fn sse(ys: &[f64], idx: &[usize]) -> f64 {
        let m = mean(ys, idx);
        idx.iter().map(|&i| (ys[i] - m).powi(2)).sum()
    }

    fn grow(
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: Vec<usize>,
        nodes: &mut Vec<Node>,
        params: &ForestParams,
        rng: &mut StdRng,
        importance: &mut [f64],
    ) -> usize {
        let n_features = xs[0].len();
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

        let k = params.k_features.unwrap_or(n_features).min(n_features);
        let mut cand: Vec<usize> = (0..n_features).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n_features);
            cand.swap(i, j);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let parent_sse = sse(ys, &idx);
        for &f in &cand[..k] {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in &idx {
                lo = lo.min(xs[i][f]);
                hi = hi.max(xs[i][f]);
            }
            if hi - lo < 1e-12 {
                continue;
            }
            let threshold = rng.gen_range(lo..hi).max(lo + (hi - lo) * 1e-9);
            let (mut left_ys, mut right_ys) = (Vec::new(), Vec::new());
            let (mut sum_l, mut sum_r) = (0.0f64, 0.0f64);
            for &i in &idx {
                let y = ys[i];
                if xs[i][f] < threshold {
                    left_ys.push(y);
                    sum_l += y;
                } else {
                    right_ys.push(y);
                    sum_r += y;
                }
            }
            if left_ys.is_empty() || right_ys.is_empty() {
                continue;
            }
            let m_l = sum_l / left_ys.len() as f64;
            let m_r = sum_r / right_ys.len() as f64;
            let sse_l: f64 = left_ys.iter().map(|&y| (y - m_l).powi(2)).sum();
            let sse_r: f64 = right_ys.iter().map(|&y| (y - m_r).powi(2)).sum();
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
            .filter(|&i| xs[i][feature] < threshold)
            .collect();
        let right_idx: Vec<usize> = idx
            .iter()
            .copied()
            .filter(|&i| xs[i][feature] >= threshold)
            .collect();

        let at = nodes.len();
        nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = grow(xs, ys, left_idx, nodes, params, rng, importance);
        let right = grow(xs, ys, right_idx, nodes, params, rng, importance);
        nodes[at] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    /// [`ExtraTrees::fit`] over index lists, one tree after another.
    pub(super) fn fit(xs: &[Vec<f64>], ys: &[f64], params: ForestParams) -> ExtraTrees {
        let n_features = xs[0].len();
        let grown = (0..params.n_trees as u64)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(t));
                let (mut nodes, mut importance) = (Vec::new(), vec![0.0; n_features]);
                let idx = (0..xs.len()).collect();
                grow(xs, ys, idx, &mut nodes, &params, &mut rng, &mut importance);
                (Tree { nodes }, importance)
            })
            .collect();
        ExtraTrees::assemble(grown, params, n_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// A row with every column shape the layout distinguishes: a 3-way
    /// and a 2-way one-hot group, an 11-value and a 3-value numeric
    /// column, a continuous column (more than 64 distinct values once
    /// there are enough rows), a column that is NaN in one row in 20, a
    /// column of 0.0, -0.0 and 1.0, one of -1.0, -0.0 and 0.0, and a
    /// constant column.
    fn mixed_row(rng: &mut StdRng) -> Vec<f64> {
        let mut x = vec![0.0; 12];
        x[rng.gen_range(0..3usize)] = 1.0;
        x[3 + rng.gen_range(0..2usize)] = 1.0;
        x[5] = rng.gen_range(0..11u32) as f64 / 10.0;
        x[6] = rng.gen_range(0..3u32) as f64 / 2.0;
        x[7] = rng.gen_range(0.0..1.0);
        x[8] = if rng.gen_range(0..20u32) == 0 {
            f64::NAN
        } else {
            rng.gen_range(0..5u32) as f64
        };
        x[9] = [0.0, -0.0, 1.0][rng.gen_range(0..3usize)];
        x[10] = [-1.0, -0.0, 0.0][rng.gen_range(0..3usize)];
        x[11] = 0.25;
        x
    }

    /// Smooth, constant, or tied on four values (two of them zeros of
    /// opposite sign).
    fn mixed_target(kind: usize, x: &[f64], rng: &mut StdRng) -> f64 {
        match kind {
            0 => {
                let nan_free = if x[8].is_nan() { 0.0 } else { x[8] };
                3.0 * x[0] - 2.0 * x[4] + x[5] * x[5] + 0.5 * x[6] + x[7] + 0.1 * nan_free - x[10]
            }
            1 => 2.5,
            _ => [-0.0, 0.0, 1.0, 2.0][rng.gen_range(0..4usize)],
        }
    }

    /// Each node as bits: (0, value, 0, 0) for a leaf and
    /// (1 + feature, threshold, left, right) for a split.
    fn node_bits(tree: &Tree) -> Vec<(usize, u64, usize, usize)> {
        tree.nodes
            .iter()
            .map(|n| match *n {
                Node::Leaf { value } => (0, value.to_bits(), 0, 0),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (1 + feature, threshold.to_bits(), left, right),
            })
            .collect()
    }

    fn assert_bit_identical(fast: &ExtraTrees, slow: &ExtraTrees) {
        assert_eq!(fast.trees.len(), slow.trees.len());
        for (t, (a, b)) in fast.trees.iter().zip(&slow.trees).enumerate() {
            assert_eq!(node_bits(a), node_bits(b), "tree {t}");
        }
        let bits = |m: &ExtraTrees| m.importance.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fast), bits(slow), "importance");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Every node, threshold, leaf value and importance of the
        /// bit-sliced fit equals the index-list reference's, across row
        /// counts around word boundaries, both `k_features` modes, three
        /// leaf sizes and smooth, constant and tied targets.
        #[test]
        fn fit_is_bit_identical_to_the_reference_grow(
            n_ix in 0usize..7,
            k_ix in 0usize..2,
            leaf_ix in 0usize..3,
            kind in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let n = [1usize, 2, 63, 64, 65, 130, 300][n_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<Vec<f64>> = (0..n).map(|_| mixed_row(&mut rng)).collect();
            let ys: Vec<f64> = xs.iter().map(|x| mixed_target(kind, x, &mut rng)).collect();
            let params = ForestParams {
                n_trees: 4,
                min_samples_leaf: [1, 2, 5][leaf_ix],
                k_features: [None, Some(3)][k_ix],
                seed,
            };
            let fast = ExtraTrees::fit(&xs, &ys, params);
            assert_bit_identical(&fast, &reference::fit(&xs, &ys, params));
        }
    }

    /// A row width past one 64-bit feature word, shaped like the tuner's
    /// one-hot groups, with the tuner's forest parameters.
    #[test]
    fn wide_one_hot_rows_match_the_reference_grow() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<Vec<f64>> = (0..160)
            .map(|_| {
                let mut x = vec![0.0; 150];
                for g in 0..30 {
                    x[g * 5 + rng.gen_range(0..5usize)] = 1.0;
                }
                x
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().step_by(7).sum::<f64>() + 0.1 * x[1])
            .collect();
        let params = ForestParams {
            n_trees: 6,
            min_samples_leaf: 2,
            k_features: Some(48),
            seed: 0xF0357,
        };
        let fast = ExtraTrees::fit(&xs, &ys, params);
        assert_bit_identical(&fast, &reference::fit(&xs, &ys, params));
    }

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
