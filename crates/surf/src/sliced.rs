//! Bit-sliced candidate pool and node-major forest scoring.
//!
//! SURF re-scores its whole remaining pool after every refit. Walking each
//! candidate from root to leaf costs one dependent load per level per
//! candidate per tree. Here the pool is stored column by column as bitsets
//! over its rows instead, and each tree is evaluated node by node over
//! *sets* of rows: a split ANDs its row set with the column's
//! `value < threshold` bitset, and a leaf adds its value to every row of
//! its set. QuickScorer (Lucchese et al., SIGIR 2015) scores tree
//! ensembles with the same kind of bitvector operations.
//!
//! Every prediction is bit-identical to [`ExtraTrees::predict`] on the
//! row's features: each row takes the same branch at every node, receives
//! exactly one leaf value per tree, summed in tree order from the same
//! starting value, and is divided once by the tree count.
//!
//! [`ExtraTrees::fit`] lays its training rows out the same way and grows
//! each tree over row sets with `SlicedPool::range` and
//! `SlicedPool::split`.

use crate::forest::{ExtraTrees, Node};

/// Pool words scored together: 2 048 rows, so the per-level row sets of a
/// tree stay in L1 while a block is scored.
const BLOCK_WORDS: usize = 32;
const BLOCK_ROWS: usize = BLOCK_WORDS * 64;

/// A column with more distinct values than this compares the live rows of
/// a node one by one instead of keeping a bitset per value, so memory
/// stays linear in the pool.
const MAX_SLICED_VALUES: usize = 64;

#[derive(Clone, Debug)]
enum Column {
    /// The column's sorted distinct values `v`, and for each `k` in
    /// `1..v.len()` the bitset of rows whose value is `< v[k]`, stored at
    /// `lt[(k - 1) * words..k * words]`. A one-hot column has one bitset.
    Sliced { values: Vec<f64>, lt: Vec<u64> },
    /// Every row's value: too many distinct values, or a NaN.
    Dense(Vec<f64>),
}

/// A candidate pool laid out for node-major forest scoring: one entry per
/// binarized feature column, each a set of bitsets over the pool's rows.
#[derive(Clone, Debug)]
pub struct SlicedPool {
    cols: Vec<Column>,
    n_rows: usize,
    /// `n_rows` rounded up to whole 64-row words.
    words: usize,
}

impl SlicedPool {
    /// Lays out binarized feature rows (all the same width) column by
    /// column. Row `i` of `rows` is pool row `i` for [`SlicedPool::score`].
    pub fn from_rows(rows: &[Vec<f64>]) -> SlicedPool {
        let width = rows.first().map_or(0, Vec::len);
        let n_rows = rows.len();
        let words = n_rows.div_ceil(64);
        assert!(rows.iter().all(|r| r.len() == width), "row width mismatch");
        // Both passes below take 64 rows at a time through every column,
        // while those rows are in cache.
        // Distinct values per column, until a column proves dense (`None`).
        // `==` merges 0.0 and -0.0, which every `x < t` test treats alike.
        let mut distinct: Vec<Option<Vec<f64>>> = vec![Some(Vec::new()); width];
        for chunk in rows.chunks(64) {
            for (f, d) in distinct.iter_mut().enumerate() {
                let Some(values) = d else { continue };
                for row in chunk {
                    let x = row[f];
                    if !values.contains(&x) {
                        if x.is_nan() || values.len() == MAX_SLICED_VALUES {
                            *d = None;
                            break;
                        }
                        values.push(x);
                    }
                }
            }
        }
        let mut cols: Vec<Column> = distinct
            .into_iter()
            .map(|d| match d {
                Some(mut values) => {
                    values.sort_by(f64::total_cmp);
                    let lt = vec![0; values.len().saturating_sub(1) * words];
                    Column::Sliced { values, lt }
                }
                None => Column::Dense(Vec::with_capacity(n_rows)),
            })
            .collect();
        for (w, chunk) in rows.chunks(64).enumerate() {
            for (f, col) in cols.iter_mut().enumerate() {
                match col {
                    Column::Sliced { values, lt } => {
                        for (k, &v) in values.iter().enumerate().skip(1) {
                            let below = chunk
                                .iter()
                                .enumerate()
                                .map(|(i, row)| u64::from(row[f] < v) << i);
                            lt[(k - 1) * words + w] = below.fold(0, |acc, b| acc | b);
                        }
                    }
                    Column::Dense(values) => values.extend(chunk.iter().map(|row| row[f])),
                }
            }
        }
        SlicedPool {
            cols,
            n_rows,
            words,
        }
    }

    /// Predicts `model` for the pool rows `rows` into `out` (cleared first),
    /// in the order given; each prediction is bit-identical to
    /// [`ExtraTrees::predict`] on that row's features. With `parallel`, the
    /// 2 048-row blocks are scored on the rayon pool; blocks are
    /// independent, so the result does not depend on the thread count.
    pub fn score(&self, model: &ExtraTrees, rows: &[u32], parallel: bool, out: &mut Vec<f64>) {
        out.clear();
        if rows.is_empty() {
            return;
        }
        assert_eq!(
            model.n_features(),
            self.cols.len(),
            "feature width mismatch"
        );
        let mut alive = vec![0u64; self.words];
        for &r in rows {
            assert!((r as usize) < self.n_rows, "pool row {r} out of range");
            alive[r as usize / 64] |= 1 << (r % 64);
        }
        let depth = model.trees().iter().map(|t| t.depth()).max().unwrap_or(0);
        let blocks: Vec<usize> = (0..self.words.div_ceil(BLOCK_WORDS)).collect();
        let block = |&b: &usize| self.score_block(model, depth, &alive, b);
        let sums: Vec<Vec<f64>> = if parallel {
            rayon::par_map_slice(&blocks, block)
        } else {
            blocks.iter().map(block).collect()
        };
        let n = model.trees().len() as f64;
        out.extend(rows.iter().map(|&r| {
            let r = r as usize;
            sums[r / BLOCK_ROWS][r % BLOCK_ROWS] / n
        }));
    }

    /// Binarized width of the rows.
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Rows rounded up to whole 64-row words: the length of a row set.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The smallest and largest value of `feature` over the rows of `set`
    /// (whole pool words), as `f64::min` and `f64::max` folded over those
    /// rows find them: NaN rows are passed over, and a set without other
    /// rows gives a range with `hi < lo`. The sign of a zero may differ
    /// from the folds', since a sliced column stores 0.0 and -0.0 as one
    /// value; no `x < t` test can tell them apart.
    pub(crate) fn range(&self, feature: usize, set: &[u64]) -> (f64, f64) {
        match &self.cols[feature] {
            Column::Sliced { values, lt } => {
                // `below(k)`: rows whose value is < values[k]. The lowest
                // value present is the one just under the first `below`
                // that meets the set; the highest is the last value with a
                // row of the set at or above it.
                let below = |k: usize| &lt[(k - 1) * self.words..k * self.words];
                let meets = |k: usize| set.iter().zip(below(k)).any(|(s, m)| s & m != 0);
                let rises = |k: usize| set.iter().zip(below(k)).any(|(s, m)| s & !m != 0);
                let last = values.len() - 1;
                let lo = (1..=last).find(|&k| meets(k)).map_or(last, |k| k - 1);
                let hi = (1..=last).rev().find(|&k| rises(k)).unwrap_or(0);
                (values[lo], values[hi])
            }
            Column::Dense(values) => ones(set)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
                    (lo.min(values[i]), hi.max(values[i]))
                }),
        }
    }

    /// Removes from `set` the rows whose `feature` is NaN.
    pub(crate) fn drop_nan(&self, feature: usize, set: &mut [u64]) {
        if let Column::Dense(values) = &self.cols[feature] {
            for (w, word) in set.iter_mut().enumerate() {
                let mut rest = *word;
                while rest != 0 {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    if values[w * 64 + bit as usize].is_nan() {
                        *word &= !(1 << bit);
                    }
                }
            }
        }
    }

    /// Leaf-value sums over every tree for the alive rows of block `b`
    /// (empty when none is alive), indexed by row within the block.
    fn score_block(&self, model: &ExtraTrees, depth: usize, alive: &[u64], b: usize) -> Vec<f64> {
        let lo = b * BLOCK_WORDS;
        let live = &alive[lo..(lo + BLOCK_WORDS).min(self.words)];
        if live.iter().all(|&w| w == 0) {
            return Vec::new();
        }
        let nw = live.len();
        // -0.0 is where `Iterator::sum` starts, so a row whose leaves are
        // all -0.0 sums to -0.0 here too.
        let mut acc = vec![-0.0; nw * 64];
        // Row sets of pending nodes, one slot each: a split writes its left
        // child's set to the next slot and keeps its right child's in its
        // own, which no other pending node uses. Slots never pass the
        // tree's depth.
        let mut sets = vec![0u64; (depth + 1) * nw];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for tree in model.trees() {
            sets[..nw].copy_from_slice(live);
            stack.push((0, 0));
            while let Some((at, slot)) = stack.pop() {
                let (head, tail) = sets.split_at_mut((slot + 1) * nw);
                let set = &mut head[slot * nw..];
                match tree.nodes[at] {
                    Node::Leaf { value } => {
                        for (i, &w) in set.iter().enumerate() {
                            let mut w = w;
                            while w != 0 {
                                acc[i * 64 + w.trailing_zeros() as usize] += value;
                                w &= w - 1;
                            }
                        }
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        let (any_left, any_right) =
                            self.split(feature, threshold, lo, set, &mut tail[..nw]);
                        if any_right {
                            stack.push((right, slot));
                        }
                        if any_left {
                            stack.push((left, slot + 1));
                        }
                    }
                }
            }
        }
        acc
    }

    /// Splits `set` (pool words from `lo`) on `x[feature] < threshold`:
    /// the rows that pass are written to `left` and removed from `set`.
    /// Returns whether each side is non-empty; `left` is left stale when
    /// no row passes.
    pub(crate) fn split(
        &self,
        feature: usize,
        threshold: f64,
        lo: usize,
        set: &mut [u64],
        left: &mut [u64],
    ) -> (bool, bool) {
        let (mut any_left, mut any_right) = (0u64, 0u64);
        match &self.cols[feature] {
            Column::Sliced { values, lt } => {
                // Rows below `threshold` are exactly the rows below
                // `values[k]`, the first stored value not below it.
                let k = values.partition_point(|&v| v < threshold);
                if k == 0 {
                    return (false, true);
                }
                if k == values.len() {
                    left.copy_from_slice(set);
                    return (true, false);
                }
                let mask = &lt[(k - 1) * self.words + lo..][..set.len()];
                for ((s, l), &m) in set.iter_mut().zip(left.iter_mut()).zip(mask) {
                    *l = *s & m;
                    *s &= !m;
                    any_left |= *l;
                    any_right |= *s;
                }
            }
            Column::Dense(values) => {
                for (i, (s, l)) in set.iter_mut().zip(left.iter_mut()).enumerate() {
                    let (mut m, mut w) = (0u64, *s);
                    while w != 0 {
                        let bit = w.trailing_zeros() as usize;
                        if values[(lo + i) * 64 + bit] < threshold {
                            m |= 1 << bit;
                        }
                        w &= w - 1;
                    }
                    *l = m;
                    *s &= !m;
                    any_left |= m;
                    any_right |= *s;
                }
            }
        }
        (any_left != 0, any_right != 0)
    }
}

/// The set bits of `set`, ascending: the rows of a row set in row order.
pub(crate) fn ones(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestParams;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One row shaped like the tuner's features: a 3-way and a 2-way
    /// one-hot group, an 11-value `unroll` and a 3-value `staged` column
    /// (min-max scaled), a continuous column, and a column that is NaN in
    /// one row in 50.
    fn row(rng: &mut StdRng) -> Vec<f64> {
        let mut x = vec![0.0; 9];
        x[rng.gen_range(0..3usize)] = 1.0;
        x[3 + rng.gen_range(0..2usize)] = 1.0;
        x[5] = rng.gen_range(0..11u32) as f64 / 10.0;
        x[6] = rng.gen_range(0..3u32) as f64 / 2.0;
        x[7] = rng.gen_range(0.0..1.0);
        x[8] = if rng.gen_range(0..50u32) == 0 {
            f64::NAN
        } else {
            rng.gen_range(0..5u32) as f64
        };
        x
    }

    fn target(x: &[f64]) -> f64 {
        let noise = if x[8].is_nan() { 0.0 } else { x[8] };
        3.0 * x[0] - 2.0 * x[4] + x[5] * x[5] + 0.5 * x[6] + x[7] + 0.1 * noise
    }

    fn assert_matches_predict(
        model: &ExtraTrees,
        pool: &SlicedPool,
        xs: &[Vec<f64>],
        rows: &[u32],
    ) {
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        pool.score(model, rows, false, &mut serial);
        pool.score(model, rows, true, &mut parallel);
        assert_eq!(serial.len(), rows.len());
        for ((&r, s), p) in rows.iter().zip(&serial).zip(&parallel) {
            let want = model.predict(&xs[r as usize]).to_bits();
            assert_eq!(s.to_bits(), want, "serial, row {r}");
            assert_eq!(p.to_bits(), want, "parallel, row {r}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

        /// Every pool size around a word boundary and past one block, each
        /// scored whole and then over shrinking strict subsets in shuffled
        /// order, the way the search's `remaining` shrinks.
        #[test]
        fn scores_are_bit_identical_to_per_row_predict(
            size_ix in 0usize..5,
            seed in 0u64..1_000_000,
            drop_pct in 1u64..60,
        ) {
            let n = [1usize, 63, 64, 65, 4097][size_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let train: Vec<Vec<f64>> = (0..80).map(|_| row(&mut rng)).collect();
            let ys: Vec<f64> = train.iter().map(|x| target(x)).collect();
            let params = ForestParams { n_trees: 7, seed, ..ForestParams::default() };
            let model = ExtraTrees::fit(&train, &ys, params);
            let xs: Vec<Vec<f64>> = (0..n).map(|_| row(&mut rng)).collect();
            let pool = SlicedPool::from_rows(&xs);
            let mut remaining: Vec<u32> = (0..n as u32).collect();
            for i in (1..remaining.len()).rev() {
                remaining.swap(i, rng.gen_range(0..=i));
            }
            while !remaining.is_empty() {
                assert_matches_predict(&model, &pool, &xs, &remaining);
                let drop = (remaining.len() as u64 * drop_pct / 100).max(1) as usize;
                for _ in 0..drop {
                    let k = rng.gen_range(0..remaining.len());
                    remaining.swap_remove(k);
                }
            }
        }
    }

    /// `range` over a row subset is the `f64::min`/`f64::max` fold over
    /// those rows (zeros compared by value), for every column layout.
    #[test]
    fn range_matches_the_min_max_fold_on_row_subsets() {
        let mut rng = StdRng::seed_from_u64(8);
        let xs: Vec<Vec<f64>> = (0..130).map(|_| row(&mut rng)).collect();
        let pool = SlicedPool::from_rows(&xs);
        for keep in [1u32, 2, 5, 40, 100] {
            let mut set = vec![0u64; pool.words];
            for i in 0..xs.len() {
                if rng.gen_range(0..100u32) < keep {
                    set[i / 64] |= 1 << (i % 64);
                }
            }
            let columns = (0..pool.width()).map(|f| xs.iter().map(|x| x[f]).collect::<Vec<_>>());
            for (f, column) in columns.enumerate() {
                let want = ones(&set).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
                    (lo.min(column[i]), hi.max(column[i]))
                });
                assert_eq!(pool.range(f, &set), want, "column {f}, {keep} % of rows");
            }
        }
    }

    #[test]
    fn column_layouts_follow_distinct_value_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<Vec<f64>> = (0..300).map(|_| row(&mut rng)).collect();
        let pool = SlicedPool::from_rows(&xs);
        let sliced = |f: usize| match &pool.cols[f] {
            Column::Sliced { values, lt } => Some((values.len(), lt.len() / pool.words)),
            Column::Dense(_) => None,
        };
        assert_eq!(sliced(0), Some((2, 1)), "one-hot: one bitset");
        assert_eq!(sliced(5), Some((11, 10)), "unroll");
        assert_eq!(sliced(6), Some((3, 2)), "staged");
        assert_eq!(sliced(7), None, "continuous");
        assert_eq!(sliced(8), None, "has a NaN");
    }

    /// Thresholds at the edges of the stored values: binary-column cuts
    /// at <= 0, in (0, 1] and > 1; numeric cuts equal to a stored value,
    /// below the smallest and above the largest; leaves that are all -0.0.
    #[test]
    fn hand_built_thresholds_match_predict() {
        let split = |feature, threshold, left, right| Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        let leaf = |value| Node::Leaf { value };
        let trees = vec![
            vec![
                split(0, 0.0, 1, 2),
                leaf(1.0),
                split(0, 1.0, 3, 4),
                leaf(2.0),
                split(1, 3.0 / 10.0, 5, 6),
                leaf(3.0),
                leaf(4.0),
            ],
            vec![
                split(0, -1.0, 1, 2),
                leaf(5.0),
                split(0, 0.5, 3, 4),
                split(1, 0.0, 5, 6),
                split(0, 2.0, 7, 8),
                leaf(6.0),
                leaf(7.0),
                split(1, 10.0 / 10.0, 9, 10),
                leaf(8.0),
                leaf(9.0),
                leaf(10.0),
            ],
            vec![split(1, 2.5, 1, 2), leaf(-0.5), leaf(0.25)],
        ];
        let xs: Vec<Vec<f64>> = (0..2)
            .flat_map(|b| (0..11).map(move |u| vec![b as f64, u as f64 / 10.0]))
            .collect();
        let rows: Vec<u32> = (0..xs.len() as u32).rev().collect();
        let pool = SlicedPool::from_rows(&xs);
        assert_matches_predict(&ExtraTrees::from_nodes(trees, 2), &pool, &xs, &rows);

        let negative_zero = vec![
            vec![split(0, 0.5, 1, 2), leaf(-0.0), leaf(-0.0)],
            vec![leaf(-0.0)],
        ];
        let model = ExtraTrees::from_nodes(negative_zero, 2);
        let mut out = Vec::new();
        pool.score(&model, &rows, false, &mut out);
        assert!(out.iter().all(|p| p.to_bits() == (-0.0f64).to_bits()));
        assert_matches_predict(&model, &pool, &xs, &rows);
    }

    #[test]
    fn empty_selection_scores_nothing() {
        let xs = vec![vec![0.0, 1.0]; 3];
        let model = ExtraTrees::fit(&xs, &[1.0, 2.0, 3.0], ForestParams::default());
        let mut out = vec![9.0];
        SlicedPool::from_rows(&xs).score(&model, &[], true, &mut out);
        assert!(out.is_empty());
    }
}
