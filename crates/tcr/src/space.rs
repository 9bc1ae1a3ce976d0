//! GPU decision algorithm and autotuning search-space generation (§IV).
//!
//! For every statement the algorithm picks candidates for the thread/block
//! decomposition:
//!
//! - **ThreadX**: any parallel loop whose adjacent values touch adjacent
//!   memory in some referenced tensor (global-memory coalescing),
//! - **ThreadY / BlockX / BlockY**: drawn from a pool built per the paper's
//!   two rules — parallel loop indices of *contiguous* tensors from
//!   innermost to outermost, then (if fewer than four were found) parallel
//!   indices of non-contiguous tensors from outermost to innermost.
//!   ThreadY and BlockY may also be `1` (absent ⇒ 1-D thread block/grid).
//!
//! Remaining loops stay inside the kernel; their order is a PERMUTE
//! parameter and the innermost one carries an unroll factor. Scalar
//! replacement of the output is always applied (not searched).
//!
//! One statement's space holds from a few hundred valid configurations to
//! tens of thousands (200 to 36 120 across the builtin workloads, the
//! largest in the TCE example), and a workload's lowering holds one space
//! per statement of every OCTOPI version. [`OpSpace`] therefore keeps the statement's loop variables, its
//! candidate lists, its distinct interior orders and its staging subsets
//! once, and stores each valid configuration as an 8-byte
//! [`PackedConfig`] of ids into those tables, in enumeration order.
//! [`OpSpace::config`] decodes an owned [`OpConfig`] on demand for
//! mapping, codegen and replay. The cross-product across statements and
//! OCTOPI versions is what explodes (512,000 variants for Lg3t in the
//! paper) and is only ever addressed through mixed-radix indexing
//! ([`ProgramSpace::config`]).

use crate::contiguity::{coalescing_vars, contiguous_arrays};
use crate::loopnest::LoopNest;
use crate::program::{TcrOp, TcrProgram};
use std::collections::HashMap;
use std::fmt;
use tensor::IndexVar;

/// Maximum threads per block accepted by every simulated architecture.
pub const MAX_THREADS_PER_BLOCK: usize = 1024;

/// Largest unroll factor considered (the paper uses factors up to 10).
pub const MAX_UNROLL: usize = 10;

/// Largest array (bytes) eligible for whole-array shared-memory staging.
pub const MAX_STAGED_BYTES: usize = 16 << 10;

/// Inputs worth staging under a given thread mapping: small arrays whose
/// elements are shared by at least two threads of a block.
pub fn staging_candidates(
    program: &TcrProgram,
    op: &TcrOp,
    tx: &IndexVar,
    ty: Option<&IndexVar>,
) -> Vec<usize> {
    let ext = |v: &IndexVar| program.dims[v];
    let tpb = ext(tx) * ty.map(ext).unwrap_or(1);
    op.inputs
        .iter()
        .enumerate()
        .filter(|(_, &id)| {
            let decl = &program.arrays[id];
            let bytes = 8 * decl.len(&program.dims);
            if bytes > MAX_STAGED_BYTES {
                return false;
            }
            // Distinct elements touched by the block's threads in one
            // interior iteration: extents of thread-mapped vars the
            // reference actually depends on.
            let mut distinct = 1usize;
            if decl.stride_of(tx, &program.dims).is_some() {
                distinct *= ext(tx);
            }
            if let Some(tyv) = ty {
                if decl.stride_of(tyv, &program.dims).is_some() {
                    distinct *= ext(tyv);
                }
            }
            tpb / distinct.max(1) >= 2
        })
        .map(|(pos, _)| pos)
        .collect()
}

/// A decomposition choice: a loop variable or the literal `1` (dimension
/// absent, matching Orio's `'1'` PERMUTE value).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LoopSel {
    One,
    Var(IndexVar),
}

impl LoopSel {
    pub fn var(&self) -> Option<&IndexVar> {
        match self {
            LoopSel::One => None,
            LoopSel::Var(v) => Some(v),
        }
    }
}

impl fmt::Display for LoopSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopSel::One => write!(f, "1"),
            LoopSel::Var(v) => write!(f, "{v}"),
        }
    }
}

/// One fully-specified configuration for a single statement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OpConfig {
    pub tx: IndexVar,
    pub ty: LoopSel,
    /// `One` only in the degenerate single-parallel-loop fallback (grid 1).
    pub bx: LoopSel,
    pub by: LoopSel,
    /// Kernel-interior loops, outermost first (unmapped parallel loops and
    /// all summation loops, in the chosen permutation).
    pub interior: Vec<IndexVar>,
    /// Unroll factor for the innermost interior loop (1 = none).
    pub unroll: usize,
    /// Input positions (indices into the statement's input list) staged in
    /// shared memory: the whole (small) array is cooperatively loaded per
    /// block. Part of Khan's decision algorithm's "data placement in
    /// different levels of the memory hierarchy".
    pub staged: Vec<usize>,
}

impl OpConfig {
    /// All loop variables consumed by the GPU decomposition.
    pub fn mapped_vars(&self) -> Vec<&IndexVar> {
        self.mapped_vars_iter().collect()
    }

    /// The grid/block-mapped loop variables, without allocating.
    pub fn mapped_vars_iter(&self) -> impl Iterator<Item = &IndexVar> {
        std::iter::once(&self.tx).chain(
            [&self.ty, &self.bx, &self.by]
                .into_iter()
                .filter_map(|s| s.var()),
        )
    }
}

/// Id of one of a statement's loop variables: an index into
/// [`OpSpace::vars`].
pub type VarId = u8;

/// The [`VarId`] digit of the literal `1` ([`LoopSel::One`]).
pub const ONE: VarId = VarId::MAX;

/// One valid configuration of a statement, packed into 8 bytes: the four
/// decomposition choices as [`VarId`]s ([`ONE`] for the literal `1`), the
/// interior order and the staging subset as indices into their
/// [`OpSpace`] tables, and the unroll factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PackedConfig {
    pub tx: VarId,
    pub ty: VarId,
    pub bx: VarId,
    pub by: VarId,
    /// Index of the interior order ([`OpSpace::interior`]).
    pub interior: u16,
    pub unroll: u8,
    /// Index of the staging subset ([`OpSpace::staged`]).
    pub staged: u8,
}

const _: () = assert!(std::mem::size_of::<PackedConfig>() == 8);

/// The candidate lists the decision algorithm produced for one statement,
/// plus its valid configurations, packed.
#[derive(Clone, Debug)]
pub struct OpSpace {
    pub op_index: usize,
    pub tx_candidates: Vec<IndexVar>,
    pub ty_candidates: Vec<LoopSel>,
    pub bx_candidates: Vec<IndexVar>,
    pub by_candidates: Vec<LoopSel>,
    /// The statement's loop variables in nest order; a [`VarId`] indexes it.
    vars: Vec<IndexVar>,
    /// Distinct interior orders, outermost first.
    orders: Vec<Vec<VarId>>,
    /// Distinct staging subsets (input positions).
    stagings: Vec<Vec<usize>>,
    /// Every valid configuration, in enumeration order.
    codes: Vec<PackedConfig>,
}

impl OpSpace {
    /// Number of valid configurations.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The statement's loop variables, indexed by [`VarId`].
    pub fn vars(&self) -> &[IndexVar] {
        &self.vars
    }

    /// Packed form of configuration `i`.
    pub fn code(&self, i: usize) -> PackedConfig {
        self.codes[i]
    }

    /// Interior loops of a packed configuration, outermost first.
    pub fn interior(&self, code: &PackedConfig) -> &[VarId] {
        &self.orders[code.interior as usize]
    }

    /// Staged input positions of a packed configuration.
    pub fn staged(&self, code: &PackedConfig) -> &[usize] {
        &self.stagings[code.staged as usize]
    }

    /// Decodes configuration `i`.
    pub fn config(&self, i: usize) -> OpConfig {
        let c = self.codes[i];
        let var = |v: VarId| self.vars[v as usize].clone();
        let sel = |v: VarId| {
            if v == ONE {
                LoopSel::One
            } else {
                LoopSel::Var(var(v))
            }
        };
        OpConfig {
            tx: var(c.tx),
            ty: sel(c.ty),
            bx: sel(c.bx),
            by: sel(c.by),
            interior: self.interior(&c).iter().map(|&v| var(v)).collect(),
            unroll: c.unroll as usize,
            staged: self.staged(&c).to_vec(),
        }
    }

    /// Every configuration, decoded in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OpConfig> + '_ {
        (0..self.len()).map(|i| self.config(i))
    }

    /// The configurations `keep` accepts, or all of them when it accepts
    /// none (a statement's space is never empty after filtering).
    pub(crate) fn filtered(&self, keep: impl Fn(&PackedConfig) -> bool) -> OpSpace {
        let mut out = self.clone();
        out.codes.retain(|c| keep(c));
        if out.codes.is_empty() {
            out.codes = self.codes.clone();
        }
        out
    }
}

/// Search space of a whole TCR program: one [`OpSpace`] per statement.
#[derive(Clone, Debug)]
pub struct ProgramSpace {
    pub per_op: Vec<OpSpace>,
}

/// A program configuration: for each statement, the index of one of its
/// [`OpSpace`]'s configurations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Configuration {
    pub choice: Vec<usize>,
}

impl ProgramSpace {
    /// Builds the search space for every statement of `program`.
    pub fn build(program: &TcrProgram) -> Self {
        let per_op = program
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| build_op_space(program, op, i))
            .collect();
        ProgramSpace { per_op }
    }

    /// Total number of program configurations (product across statements).
    pub fn len(&self) -> u128 {
        self.per_op.iter().map(|s| s.len() as u128).product()
    }

    pub fn is_empty(&self) -> bool {
        self.per_op.iter().any(|s| s.is_empty())
    }

    /// Mixed-radix decode of a flat configuration id.
    pub fn config(&self, id: u128) -> Configuration {
        let mut choice = Vec::new();
        self.choices_into(id, &mut choice);
        Configuration { choice }
    }

    /// Mixed-radix decode into a caller-provided scratch buffer (resized to
    /// one digit per op), so hot evaluation loops can reuse one allocation
    /// across many ids instead of building a [`Configuration`] each time.
    pub fn choices_into(&self, mut id: u128, out: &mut Vec<usize>) {
        assert!(id < self.len(), "configuration id out of range");
        out.clear();
        out.resize(self.per_op.len(), 0);
        for (k, s) in self.per_op.iter().enumerate().rev() {
            let radix = s.len() as u128;
            out[k] = (id % radix) as usize;
            id /= radix;
        }
    }

    /// Inverse of [`ProgramSpace::config`].
    pub fn config_id(&self, c: &Configuration) -> u128 {
        assert_eq!(c.choice.len(), self.per_op.len());
        let mut id = 0u128;
        for (k, s) in self.per_op.iter().enumerate() {
            debug_assert!(c.choice[k] < s.len());
            id = id * s.len() as u128 + c.choice[k] as u128;
        }
        id
    }

    /// Per-statement view of a configuration, decoded.
    pub fn op_config(&self, c: &Configuration, op: usize) -> OpConfig {
        self.per_op[op].config(c.choice[op])
    }
}

/// The decision algorithm's candidates for one statement (§IV).
struct Candidates {
    /// Every loop variable, in nest order.
    vars: Vec<IndexVar>,
    parallel: Vec<IndexVar>,
    sequential: Vec<IndexVar>,
    /// ThreadX candidates.
    tx: Vec<IndexVar>,
    /// The ThreadY / BlockX / BlockY pool.
    pool: Vec<IndexVar>,
}

impl Candidates {
    fn new(program: &TcrProgram, op: &TcrOp) -> Self {
        let nest = LoopNest::for_op(program, op);
        let vars = nest.vars();
        let parallel = nest.parallel_vars();
        let sequential = nest.sequential_vars();

        // ThreadX: coalescing-friendly parallel loops.
        let mut tx: Vec<IndexVar> = coalescing_vars(program, op)
            .into_iter()
            .filter(|v| parallel.contains(v))
            .collect();
        if tx.is_empty() {
            // Degenerate statement (no unit-stride parallel loop): fall back
            // to the innermost parallel loop so a mapping always exists.
            if let Some(v) = parallel.last() {
                tx.push(v.clone());
            }
        }

        // Pool for ThreadY / BlockX / BlockY.
        let referenced: Vec<usize> = {
            let mut ids = op.inputs.clone();
            ids.push(op.output);
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let contiguous = contiguous_arrays(program, op, &vars);
        let mut pool: Vec<IndexVar> = Vec::new();
        // Rule 1: contiguous tensors, innermost → outermost.
        for &id in &contiguous {
            for ix in program.arrays[id].indices.iter().rev() {
                if parallel.contains(ix) && !pool.contains(ix) {
                    pool.push(ix.clone());
                }
            }
        }
        // Rule 2: if fewer than four, non-contiguous tensors, outermost →
        // innermost.
        if pool.len() < 4 {
            for &id in &referenced {
                if contiguous.contains(&id) {
                    continue;
                }
                for ix in program.arrays[id].indices.iter() {
                    if parallel.contains(ix) && !pool.contains(ix) {
                        pool.push(ix.clone());
                    }
                }
            }
        }
        if pool.is_empty() {
            pool = parallel.clone();
        }
        Candidates {
            vars,
            parallel,
            sequential,
            tx,
            pool,
        }
    }

    /// `1` followed by the pool: the ThreadY and BlockY choices.
    fn pool_or_one(&self) -> Vec<LoopSel> {
        std::iter::once(LoopSel::One)
            .chain(self.pool.iter().cloned().map(LoopSel::Var))
            .collect()
    }
}

/// Decision algorithm: candidate generation + enumeration of valid configs
/// for one statement, packed.
fn build_op_space(program: &TcrProgram, op: &TcrOp, op_index: usize) -> OpSpace {
    let cands = Candidates::new(program, op);
    let sel_candidates = cands.pool_or_one();
    let Candidates {
        vars,
        parallel,
        sequential,
        tx: tx_candidates,
        pool: bx_candidates,
    } = cands;
    assert!(
        vars.len() < ONE as usize,
        "statement {op_index} has more loop variables than a VarId can address"
    );
    let index: HashMap<&IndexVar, VarId> = vars
        .iter()
        .enumerate()
        .map(|(k, v)| (v, k as VarId))
        .collect();
    // Every candidate is one of the statement's loop variables.
    let ids = |vs: &[IndexVar]| -> Vec<VarId> { vs.iter().map(|v| index[v]).collect() };
    let ext: Vec<usize> = vars.iter().map(|v| program.dims[v]).collect();
    let extent = |v: VarId| if v == ONE { 1 } else { ext[v as usize] };
    let (tx_ids, pool, parallel, sequential) = (
        ids(&tx_candidates),
        ids(&bx_candidates),
        ids(&parallel),
        ids(&sequential),
    );
    let pool_or_one: Vec<VarId> = std::iter::once(ONE).chain(pool.iter().copied()).collect();

    let mut packed = Packed::default();
    for &tx in &tx_ids {
        for &ty in &pool_or_one {
            // Distinctness (the Orio PERMUTE constraint) and block size.
            if ty == tx || extent(tx) * extent(ty) > MAX_THREADS_PER_BLOCK {
                continue;
            }
            // Shared-memory staging choices under this thread map (capped
            // at two candidates to bound the blow-up).
            let ty_var = (ty != ONE).then(|| &vars[ty as usize]);
            let mut staging = staging_candidates(program, op, &vars[tx as usize], ty_var);
            staging.truncate(2);
            let stagings: Vec<u8> = staging_subsets(&staging)
                .into_iter()
                .map(|s| packed.staging(s))
                .collect();
            for &bx in &pool {
                if bx == tx || bx == ty {
                    continue;
                }
                for &by in &pool_or_one {
                    if by == tx || by == bx || (by != ONE && by == ty) {
                        continue;
                    }
                    // Interior loops: unmapped parallel (in default order)
                    // then summation loops.
                    let base: Vec<VarId> = parallel
                        .iter()
                        .copied()
                        .filter(|v| ![tx, ty, bx, by].contains(v))
                        .chain(sequential.iter().copied())
                        .collect();
                    let mapping = PackedConfig {
                        tx,
                        ty,
                        bx,
                        by,
                        interior: 0,
                        unroll: 0,
                        staged: 0,
                    };
                    packed.push_all(mapping, &base, &stagings, &ext);
                }
            }
        }
    }

    debug_assert!(!packed.codes.is_empty() || parallel.len() < 2);
    // Statements with a single parallel loop cannot fill tx and bx with
    // distinct loops; map the single parallel loop to tx and blocks over
    // nothing (grid 1).
    if packed.codes.is_empty() {
        if let Some(&tx) = tx_ids.first() {
            let base: Vec<VarId> = parallel
                .iter()
                .copied()
                .filter(|&v| v != tx)
                .chain(sequential.iter().copied())
                .collect();
            let mapping = PackedConfig {
                tx,
                ty: ONE,
                bx: ONE,
                by: ONE,
                interior: 0,
                unroll: 0,
                staged: 0,
            };
            let unstaged = [packed.staging(Vec::new())];
            packed.push_all(mapping, &base, &unstaged, &ext);
        }
    }

    OpSpace {
        op_index,
        tx_candidates,
        ty_candidates: sel_candidates.clone(),
        bx_candidates,
        by_candidates: sel_candidates,
        vars,
        orders: packed.orders,
        stagings: packed.stagings,
        codes: packed.codes,
    }
}

/// An op space's packed configurations and the tables they index.
#[derive(Default)]
struct Packed {
    orders: Vec<Vec<VarId>>,
    order_ids: HashMap<Vec<VarId>, u16>,
    stagings: Vec<Vec<usize>>,
    codes: Vec<PackedConfig>,
}

impl Packed {
    fn staging(&mut self, subset: Vec<usize>) -> u8 {
        let k = match self.stagings.iter().position(|s| *s == subset) {
            Some(k) => k,
            None => {
                self.stagings.push(subset);
                self.stagings.len() - 1
            }
        };
        assert!(k <= u8::MAX as usize, "too many staging subsets");
        k as u8
    }

    fn order(&mut self, order: Vec<VarId>) -> u16 {
        if let Some(&k) = self.order_ids.get(&order) {
            return k;
        }
        assert!(
            self.orders.len() <= u16::MAX as usize,
            "too many interior orders"
        );
        let k = self.orders.len() as u16;
        self.orders.push(order.clone());
        self.order_ids.insert(order, k);
        k
    }

    /// Appends every interior order × unroll factor × staging subset of one
    /// thread/block mapping, in enumeration order.
    fn push_all(&mut self, mapping: PackedConfig, base: &[VarId], stagings: &[u8], ext: &[usize]) {
        for order in interior_orders(base) {
            let max_uf = order.last().map_or(1, |&v| ext[v as usize].min(MAX_UNROLL));
            let interior = self.order(order);
            for unroll in 1..=max_uf as u8 {
                for &staged in stagings {
                    self.codes.push(PackedConfig {
                        interior,
                        unroll,
                        staged,
                        ..mapping
                    });
                }
            }
        }
    }
}

/// All subsets of the staging candidates (empty set first).
fn staging_subsets(cands: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(1 << cands.len());
    for mask in 0..(1u32 << cands.len()) {
        out.push(
            cands
                .iter()
                .enumerate()
                .filter(|(k, _)| mask >> k & 1 == 1)
                .map(|(_, &c)| c)
                .collect(),
        );
    }
    out
}

/// Permutations of the interior loops. All orders for up to three loops;
/// beyond that, the leading loops stay fixed and only the innermost three
/// are permuted (keeps the space near the paper's scale).
fn interior_orders<T: Clone>(base: &[T]) -> Vec<Vec<T>> {
    if base.len() <= 1 {
        return vec![base.to_vec()];
    }
    let (prefix, tail) = if base.len() <= 3 {
        (&base[..0], base)
    } else {
        base.split_at(base.len() - 3)
    };
    permutations(tail)
        .into_iter()
        .map(|perm| {
            let mut v = prefix.to_vec();
            v.extend(perm);
            v
        })
        .collect()
}

fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        let rest: Vec<T> = items
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, v)| v.clone())
            .collect();
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

/// True when a configuration maps the same loop to two dimensions (the
/// Orio PERMUTE constraint forbids this) — exposed for tests.
pub fn violates_permute_constraint(cfg: &OpConfig) -> bool {
    let mut seen: Vec<&IndexVar> = Vec::new();
    for v in cfg.mapped_vars() {
        if seen.contains(&v) {
            return true;
        }
        seen.push(v);
    }
    false
}

/// The eager enumerator the packed builder replaced: every valid
/// configuration as an owned [`OpConfig`], in enumeration order. Tests
/// check that [`OpSpace::config`] decodes to exactly this list.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn op_configs(program: &TcrProgram, op: &TcrOp) -> Vec<OpConfig> {
        let c = Candidates::new(program, op);
        let (parallel, sequential) = (&c.parallel, &c.sequential);
        let ty_candidates = c.pool_or_one();
        let by_candidates = c.pool_or_one();
        let ext = |v: &IndexVar| program.dims[v];
        let mut configs = Vec::new();
        for tx in &c.tx {
            for ty in &ty_candidates {
                if ty.var() == Some(tx) {
                    continue;
                }
                let block_threads = ext(tx) * ty.var().map(ext).unwrap_or(1);
                if block_threads > MAX_THREADS_PER_BLOCK {
                    continue;
                }
                for bx in &c.pool {
                    if bx == tx || Some(bx) == ty.var() {
                        continue;
                    }
                    for by in &by_candidates {
                        if by.var() == Some(tx) || by.var() == Some(bx) {
                            continue;
                        }
                        if by.var().is_some() && by.var() == ty.var() {
                            continue;
                        }
                        let mapped: Vec<&IndexVar> = {
                            let mut m = vec![tx, bx];
                            m.extend(ty.var());
                            m.extend(by.var());
                            m
                        };
                        let base_interior: Vec<IndexVar> = parallel
                            .iter()
                            .filter(|v| !mapped.contains(v))
                            .chain(sequential.iter())
                            .cloned()
                            .collect();
                        let mut cands = staging_candidates(program, op, tx, ty.var());
                        cands.truncate(2);
                        let stagings = staging_subsets(&cands);
                        for interior in interior_orders(&base_interior) {
                            let max_uf =
                                interior.last().map(|v| ext(v).min(MAX_UNROLL)).unwrap_or(1);
                            for unroll in 1..=max_uf {
                                for staged in &stagings {
                                    configs.push(OpConfig {
                                        tx: tx.clone(),
                                        ty: ty.clone(),
                                        bx: LoopSel::Var(bx.clone()),
                                        by: by.clone(),
                                        interior: interior.clone(),
                                        unroll,
                                        staged: staged.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        if configs.is_empty() {
            if let Some(tx) = c.tx.first() {
                let base_interior: Vec<IndexVar> = parallel
                    .iter()
                    .filter(|v| *v != tx)
                    .chain(sequential.iter())
                    .cloned()
                    .collect();
                for interior in interior_orders(&base_interior) {
                    let max_uf = interior.last().map(|v| ext(v).min(MAX_UNROLL)).unwrap_or(1);
                    for unroll in 1..=max_uf {
                        configs.push(OpConfig {
                            tx: tx.clone(),
                            ty: LoopSel::One,
                            bx: LoopSel::One,
                            by: LoopSel::One,
                            interior: interior.clone(),
                            unroll,
                            staged: Vec::new(),
                        });
                    }
                }
            }
        }
        configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::tests_support::{eqn1_program, matmul_program};

    #[test]
    fn matmul_space_candidates() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p);
        let s = &space.per_op[0];
        // ThreadX must be coalescing-friendly parallel loops: k (unit in B
        // and C); j is unit-stride in A but j is a summation loop.
        assert_eq!(s.tx_candidates, vec![IndexVar::new("k")]);
        assert!(s.ty_candidates.contains(&LoopSel::One));
        assert!(!s.is_empty());
    }

    #[test]
    fn all_configs_satisfy_permute_constraint() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        for s in &space.per_op {
            for c in s.iter() {
                assert!(
                    !violates_permute_constraint(&c),
                    "op {} config {:?} duplicates a loop",
                    s.op_index,
                    c
                );
            }
        }
    }

    #[test]
    fn all_mapped_loops_are_parallel() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        for (s, op) in space.per_op.iter().zip(&p.ops) {
            let nest = LoopNest::for_op(&p, op);
            let par = nest.parallel_vars();
            for c in s.iter() {
                for v in c.mapped_vars() {
                    assert!(par.contains(v), "mapped loop {v} is not parallel");
                }
            }
        }
    }

    #[test]
    fn interior_covers_unmapped_loops_exactly() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        for (s, op) in space.per_op.iter().zip(&p.ops) {
            let all = p.loop_vars(op);
            for c in s.iter() {
                let mut covered: Vec<&IndexVar> = c.mapped_vars();
                covered.extend(c.interior.iter());
                let mut covered: Vec<String> =
                    covered.iter().map(|v| v.name().to_string()).collect();
                covered.sort();
                covered.dedup();
                let mut want: Vec<String> = all.iter().map(|v| v.name().to_string()).collect();
                want.sort();
                assert_eq!(covered, want);
            }
        }
    }

    #[test]
    fn unroll_bounded_by_extent_and_max() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        for s in &space.per_op {
            for c in s.iter() {
                assert!(c.unroll >= 1 && c.unroll <= MAX_UNROLL);
                if let Some(inner) = c.interior.last() {
                    assert!(c.unroll <= p.dims[inner]);
                } else {
                    assert_eq!(c.unroll, 1);
                }
            }
        }
    }

    #[test]
    fn mixed_radix_roundtrip() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        let n = space.len();
        assert!(n > 0);
        for id in [0u128, 1, n / 2, n - 1] {
            let c = space.config(id);
            assert_eq!(space.config_id(&c), id);
        }
    }

    #[test]
    fn eqn1_space_is_large() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        // Three statements, each with hundreds+ configs: a search space the
        // paper calls "computationally prohibitive" to enumerate.
        assert!(space.len() > 10_000, "space = {}", space.len());
    }

    #[test]
    fn staging_candidates_detected_for_small_shared_matrix() {
        // lg3-like statement: ur[e i j k] = Sum(l, D[i l] u[e l j k]).
        // D is tiny and shared by every thread of a (tx=k, ty=j) block.
        use octopi::ast::{Contraction, TensorRef};
        use octopi::enumerate_factorizations;
        use tensor::index::uniform_dims;
        let mut dims = uniform_dims(&["i", "j", "k", "l"], 12);
        dims.insert("e".into(), 16);
        let c = Contraction {
            output: TensorRef::new("ur", &["e", "i", "j", "k"]),
            sum_indices: vec!["l".into()],
            terms: vec![
                TensorRef::new("D", &["i", "l"]),
                TensorRef::new("u", &["e", "l", "j", "k"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let fs = enumerate_factorizations(&c, &dims);
        let p = TcrProgram::from_factorization("lg3", &c, &fs[0], &dims);
        let cands = staging_candidates(
            &p,
            &p.ops[0],
            &IndexVar::new("k"),
            Some(&IndexVar::new("j")),
        );
        // D (input position 0) qualifies; u does not (every thread touches
        // distinct elements and it is large).
        assert_eq!(cands, vec![0]);
        // And the enumerated space contains staged configurations.
        let space = ProgramSpace::build(&p);
        assert!(space.per_op[0].iter().any(|c| !c.staged.is_empty()));
        assert!(space.per_op[0].iter().any(|c| c.staged.is_empty()));
    }

    #[test]
    fn no_staging_candidates_when_every_thread_is_distinct() {
        let p = matmul_program(64);
        // tx=k, ty absent: A[i,j] is invariant to k -> shared; but with
        // tx=i (varies A) and array large, no candidate.
        let cands = staging_candidates(&p, &p.ops[0], &IndexVar::new("k"), None);
        // A (64x64 = 32 KB) exceeds MAX_STAGED_BYTES; B varies with tx.
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn config_id_range_checked() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p);
        let _ = space.config(space.len());
    }

    /// Every version of every statement of the 31 builtin workloads,
    /// lowered, with a label naming it.
    fn builtin_programs() -> Vec<(String, TcrProgram)> {
        let mut names: Vec<String> = ["eqn1", "lg3", "lg3t", "tce"].map(String::from).into();
        for family in ["s1", "d1", "d2"] {
            names.extend((1..=9).map(|v| format!("{family}_{v}")));
        }
        let mut out = Vec::new();
        for name in names {
            let w = barracuda::kernels::builtin(&name).expect("a builtin name");
            for (k, c) in w.statements.iter().enumerate() {
                for f in octopi::enumerate_factorizations(c, &w.dims) {
                    if let Ok(p) = TcrProgram::try_from_factorization(&name, c, &f, &w.dims) {
                        out.push((format!("{name} statement {k} version {}", f.key), p));
                    }
                }
            }
        }
        assert_eq!(
            out.iter()
                .map(|(label, _)| label.split(' ').next())
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            31
        );
        out
    }

    #[test]
    fn packed_spaces_decode_to_the_eager_enumeration() {
        use crate::prune::{prune_space, reference_keeps, PruneRules};
        let only = |k: usize| PruneRules {
            coalesced_output: k == 0,
            unroll_sweet_spots: k == 1,
            local_innermost: k == 2,
            single_staging: k == 3,
        };
        let rule_sets = [
            PruneRules::aggressive(),
            PruneRules::conservative(),
            only(0),
            only(2),
        ];
        for (label, p) in builtin_programs() {
            let space = ProgramSpace::build(&p);
            let want: Vec<Vec<OpConfig>> = p
                .ops
                .iter()
                .map(|op| reference::op_configs(&p, op))
                .collect();
            for (s, want) in space.per_op.iter().zip(&want) {
                assert_eq!(s.len(), want.len(), "{label} op {}", s.op_index);
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(&s.config(i), w, "{label} op {} config {i}", s.op_index);
                }
            }
            for rules in &rule_sets {
                let pruned = prune_space(&p, &space, rules);
                for (s, want) in pruned.per_op.iter().zip(&want) {
                    let mut kept: Vec<&OpConfig> = want
                        .iter()
                        .filter(|c| reference_keeps(&p, s.op_index, c, rules))
                        .collect();
                    if kept.is_empty() {
                        kept = want.iter().collect();
                    }
                    assert_eq!(s.len(), kept.len(), "{label} op {} {rules:?}", s.op_index);
                    for (i, w) in kept.into_iter().enumerate() {
                        assert_eq!(&s.config(i), w, "{label} op {} {rules:?}", s.op_index);
                    }
                }
            }
        }
    }

    #[test]
    fn packed_config_is_eight_bytes() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        assert_eq!(std::mem::size_of_val(&space.per_op[0].code(0)), 8);
    }

    #[test]
    fn block_size_within_limits() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p);
        for s in &space.per_op {
            for c in s.iter() {
                let threads = p.dims[&c.tx] * c.ty.var().map(|v| p.dims[v]).unwrap_or(1);
                assert!(threads <= MAX_THREADS_PER_BLOCK);
            }
        }
    }
}
