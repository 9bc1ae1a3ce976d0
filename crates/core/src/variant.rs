//! Per-statement tuning state: OCTOPI versions × TCR configurations.
//!
//! A [`StatementTuner`] owns every factorization (OCTOPI "version") of one
//! summation statement, each lowered to a TCR program with its GPU search
//! space. Configurations of the statement are addressed by a flat `u128`
//! id that selects a version and a configuration within it;
//! [`StatementTuner::features`]
//! binarizes an id for the SURF surrogate (version one-hot, loop-choice
//! one-hots over the statement's index vocabulary, numeric unroll).

use octopi::{enumerate_factorizations, Contraction, Factorization};
use surf::FeatureSpace;
use tcr::space::{Configuration, ProgramSpace, VarId, ONE};
use tcr::TcrProgram;
use tensor::{IndexMap, IndexVar};

/// Feature layout of a statement: version one-hot, then per op-slot six
/// loop-choice one-hots over the index vocabulary plus two integers.
fn build_feature_space(n_variants: usize, vocab_len: usize, max_ops: usize) -> FeatureSpace {
    let card = vocab_len + 1;
    let mut fs = FeatureSpace::default().categorical("version", n_variants);
    for op in 0..max_ops {
        for name in ["tx", "ty", "bx", "by", "inner", "second"] {
            fs = fs.categorical(format!("op{op}_{name}"), card);
        }
        fs = fs.integer(format!("op{op}_unroll"), 0.0, 10.0);
        fs = fs.integer(format!("op{op}_staged"), 0.0, 2.0);
    }
    fs
}

/// One OCTOPI version of a statement, lowered and with its search space.
#[derive(Clone, Debug)]
pub struct Variant {
    pub factorization: Factorization,
    pub program: TcrProgram,
    pub space: ProgramSpace,
}

/// Tuning state for one statement.
#[derive(Clone, Debug)]
pub struct StatementTuner {
    pub contraction: Contraction,
    pub dims: IndexMap,
    pub variants: Vec<Variant>,
    /// Versions whose lowering failed, as `(version index, reason)` —
    /// quarantined at build time and excluded from the id space.
    pub quarantined_versions: Vec<(usize, String)>,
    /// Prefix sums of per-variant space sizes (offsets[v] = first id of v).
    offsets: Vec<u128>,
    /// Sorted index vocabulary of the statement (for feature encoding).
    vocab: Vec<IndexVar>,
    /// Per version and op: the vocabulary slot of each of the op space's
    /// loop variables, indexed by [`VarId`] (see [`vocab_slots`]).
    slots: Vec<Vec<Vec<f64>>>,
    /// Max statement count across variants (feature slots).
    max_ops: usize,
    /// Feature layout, built once — rebuilding it per `features` call
    /// allocates a few hundred `String`s per candidate and used to dominate
    /// featurization time.
    feature_space: FeatureSpace,
}

impl StatementTuner {
    /// Enumerates factorizations of `contraction`, lowers each to TCR and
    /// builds its search space. Versions whose lowering fails are
    /// quarantined (recorded in `quarantined_versions`) rather than
    /// aborting the build; the id space covers survivors only.
    pub fn build(name: &str, contraction: &Contraction, dims: &IndexMap) -> Self {
        let factorizations = enumerate_factorizations(contraction, dims);
        // Lowering + space construction per version is independent work;
        // fan it out over the rayon pool (order-preserving, so version
        // indices and id offsets match the serial construction).
        let lowered: Vec<Result<Variant, String>> = rayon::par_map_slice(&factorizations, |f| {
            let program = TcrProgram::try_from_factorization(name, contraction, f, dims)?;
            let space = ProgramSpace::build(&program);
            Ok(Variant {
                factorization: f.clone(),
                program,
                space,
            })
        });
        let mut variants = Vec::with_capacity(lowered.len());
        let mut quarantined_versions = Vec::new();
        for (v, r) in lowered.into_iter().enumerate() {
            match r {
                Ok(variant) => variants.push(variant),
                Err(reason) => quarantined_versions.push((v, reason)),
            }
        }
        let mut offsets = Vec::with_capacity(variants.len() + 1);
        let mut acc = 0u128;
        for v in &variants {
            offsets.push(acc);
            acc += v.space.len();
        }
        offsets.push(acc);
        let vocab: Vec<IndexVar> = contraction.all_indices().into_iter().collect();
        let slots = variants
            .iter()
            .map(|v| {
                v.space
                    .per_op
                    .iter()
                    .map(|s| vocab_slots(&vocab, s.vars()))
                    .collect()
            })
            .collect();
        let max_ops = variants
            .iter()
            .map(|v| v.program.ops.len())
            .max()
            .unwrap_or(0);
        let feature_space = build_feature_space(variants.len(), vocab.len(), max_ops);
        StatementTuner {
            contraction: contraction.clone(),
            dims: dims.clone(),
            variants,
            quarantined_versions,
            offsets,
            vocab,
            slots,
            max_ops,
            feature_space,
        }
    }

    /// Total configurations across all (surviving) versions.
    pub fn total(&self) -> u128 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// First flat id of a version — its configuration 0. Version-level
    /// searches (e.g. contraction-order annealing, which explores versions
    /// at a canonical configuration) address versions without materializing
    /// a [`Configuration`].
    pub fn version_start(&self, variant: usize) -> u128 {
        self.offsets[variant]
    }

    /// Decodes a flat id into (version index, configuration id local to
    /// that version) without materializing the configuration — the memoized
    /// hot path extracts per-op digits from the local id directly.
    pub fn decode_raw(&self, id: u128) -> (usize, u128) {
        assert!(id < self.total(), "statement config id out of range");
        // offsets is sorted; find the variant whose range contains id.
        let v = match self.offsets.binary_search(&id) {
            Ok(exact) => exact.min(self.variants.len() - 1),
            Err(ins) => ins - 1,
        };
        (v, id - self.offsets[v])
    }

    /// Decodes a flat id into (version index, configuration).
    pub fn decode(&self, id: u128) -> (usize, Configuration) {
        let (v, local) = self.decode_raw(id);
        (v, self.variants[v].space.config(local))
    }

    /// Inverse of [`StatementTuner::decode`].
    pub fn encode(&self, variant: usize, config: &Configuration) -> u128 {
        self.offsets[variant] + self.variants[variant].space.config_id(config)
    }

    /// Feature layout for this statement (shared by every id).
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.feature_space
    }

    /// Prunes every variant's space in place and rebuilds the offsets.
    pub fn prune(&mut self, rules: &tcr::PruneRules) {
        for v in &mut self.variants {
            v.space = tcr::prune_space(&v.program, &v.space, rules);
        }
        let mut offsets = Vec::with_capacity(self.variants.len() + 1);
        let mut acc = 0u128;
        for v in &self.variants {
            offsets.push(acc);
            acc += v.space.len();
        }
        offsets.push(acc);
        self.offsets = offsets;
    }

    /// Human-readable name of every *binarized* feature column, aligned
    /// with [`StatementTuner::features`] (one-hot categories expand to
    /// `name=K` columns).
    pub fn binarized_feature_names(&self) -> Vec<String> {
        let fs = self.feature_space();
        let mut out = Vec::with_capacity(fs.width());
        for f in &fs.features {
            match f {
                surf::Feature::Categorical { name, cardinality } => {
                    for k in 0..*cardinality {
                        // Category slot 0 is "absent"; others map to the
                        // statement's index vocabulary (for loop params) or
                        // the version number.
                        let label = if name == "version" {
                            format!("{name}={k}")
                        } else if k == 0 {
                            format!("{name}=none")
                        } else {
                            format!("{name}={}", self.vocab[k - 1])
                        };
                        out.push(label);
                    }
                }
                surf::Feature::Integer { name, .. } => out.push(name.clone()),
            }
        }
        out
    }

    /// Binarized feature vector of a flat id: the version, then per op
    /// `[tx, ty, bx, by, innermost, second-innermost]` as vocabulary slots
    /// plus the unroll factor and the staged-input count, read straight
    /// from the packed configurations.
    pub fn features(&self, id: u128) -> Vec<f64> {
        let (v, mut local) = self.decode_raw(id);
        let mut raw = vec![0.0; 1 + 8 * self.max_ops];
        raw[0] = v as f64;
        // Mixed-radix digits, last op first (as `ProgramSpace::config`).
        for (op, s) in self.variants[v].space.per_op.iter().enumerate().rev() {
            let radix = s.len() as u128;
            let code = s.code((local % radix) as usize);
            local /= radix;
            let slot = &self.slots[v][op];
            let sel = |var: VarId| if var == ONE { 0.0 } else { slot[var as usize] };
            let interior = s.interior(&code);
            let from_inner = |k: usize| {
                interior
                    .len()
                    .checked_sub(k)
                    .map_or(0.0, |i| slot[interior[i] as usize])
            };
            raw[1 + 8 * op..9 + 8 * op].copy_from_slice(&[
                sel(code.tx),
                sel(code.ty),
                sel(code.bx),
                sel(code.by),
                from_inner(1),
                from_inner(2),
                code.unroll as f64,
                s.staged(&code).len() as f64,
            ]);
        }
        let mut out = Vec::with_capacity(self.feature_space.width());
        self.feature_space.binarize_into(&raw, &mut out);
        out
    }
}

/// Feature value of each of `vars` (an op space's loop variables): one plus
/// its position in the statement's vocabulary. Slot 0 doubles as "absent":
/// a variable outside the vocabulary (impossible for well-formed spaces)
/// encodes as absent rather than aborting feature extraction.
fn vocab_slots(vocab: &[IndexVar], vars: &[IndexVar]) -> Vec<f64> {
    vars.iter()
        .map(|v| {
            vocab
                .iter()
                .position(|x| x == v)
                .map_or(0.0, |p| 1.0 + p as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopi::ast::TensorRef;
    use tensor::index::uniform_dims;

    fn eqn1() -> Contraction {
        Contraction {
            output: TensorRef::new("V", &["i", "j", "k"]),
            sum_indices: vec!["l".into(), "m".into(), "n".into()],
            terms: vec![
                TensorRef::new("A", &["l", "k"]),
                TensorRef::new("B", &["m", "j"]),
                TensorRef::new("C", &["n", "i"]),
                TensorRef::new("U", &["l", "m", "n"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        }
    }

    #[test]
    fn fifteen_variants_with_offsets() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 10);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        assert_eq!(t.variants.len(), 15);
        assert!(t.quarantined_versions.is_empty());
        assert_eq!(
            t.total(),
            t.variants.iter().map(|v| v.space.len()).sum::<u128>()
        );
    }

    #[test]
    fn decode_encode_roundtrip() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let total = t.total();
        for frac in [0u128, 1, 7, 100] {
            let id = total * frac % total;
            let (v, c) = t.decode(id);
            assert_eq!(t.encode(v, &c), id);
        }
        // Boundary ids decode into the right variant.
        let (v0, _) = t.decode(0);
        assert_eq!(v0, 0);
        let (vl, _) = t.decode(total - 1);
        assert_eq!(vl, t.variants.len() - 1);
    }

    #[test]
    fn features_fixed_width_across_ids() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let w = t.feature_space().width();
        let total = t.total();
        for frac in [0u128, 3, 11] {
            let id = total * frac % total;
            assert_eq!(t.features(id).len(), w);
        }
    }

    #[test]
    fn distinct_ids_distinct_features() {
        let dims = uniform_dims(&["i", "j", "k", "l", "m", "n"], 6);
        let t = StatementTuner::build("ex", &eqn1(), &dims);
        let a = t.features(0);
        let b = t.features(1);
        assert_ne!(a, b, "adjacent configs differ at least in unroll");
    }

    /// The decode → `Configuration` → `OpConfig` → vocabulary-position path
    /// that `features` replaced.
    fn reference_features(t: &StatementTuner, id: u128) -> Vec<f64> {
        let slot = |sel: Option<&IndexVar>| match sel {
            None => 0.0,
            Some(v) => t
                .vocab
                .iter()
                .position(|x| x == v)
                .map(|p| 1.0 + p as f64)
                .unwrap_or(0.0),
        };
        let (v, config) = t.decode(id);
        let variant = &t.variants[v];
        let mut raw = vec![v as f64];
        for op in 0..t.max_ops {
            if op < variant.program.ops.len() {
                let cfg = variant.space.op_config(&config, op);
                let second = cfg.interior.len().checked_sub(2).map(|k| &cfg.interior[k]);
                raw.extend([
                    slot(Some(&cfg.tx)),
                    slot(cfg.ty.var()),
                    slot(cfg.bx.var()),
                    slot(cfg.by.var()),
                    slot(cfg.interior.last()),
                    slot(second),
                    cfg.unroll as f64,
                    cfg.staged.len() as f64,
                ]);
            } else {
                raw.extend([0.0; 8]);
            }
        }
        let mut out = Vec::new();
        t.feature_space.binarize_into(&raw, &mut out);
        out
    }

    #[test]
    fn features_match_the_decoded_path_on_every_builtin() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut names: Vec<String> = ["eqn1", "lg3", "lg3t", "tce"].map(String::from).into();
        for family in ["s1", "d1", "d2"] {
            names.extend((1..=9).map(|v| format!("{family}_{v}")));
        }
        let mut rng = StdRng::seed_from_u64(16);
        for name in &names {
            let w = crate::kernels::builtin(name).expect("a builtin name");
            for (k, c) in w.statements.iter().enumerate() {
                let mut t = StatementTuner::build(name, c, &w.dims);
                for pruned in [false, true] {
                    if pruned {
                        t.prune(&tcr::PruneRules::aggressive());
                    }
                    let total = t.total();
                    for id in (0..64)
                        .map(|_| rng.gen_range(0..total))
                        .chain([0, total - 1])
                    {
                        let bits =
                            |f: Vec<f64>| f.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                        assert_eq!(
                            bits(t.features(id)),
                            bits(reference_features(&t, id)),
                            "{name} statement {k} id {id} pruned {pruned}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_variant_statement() {
        let dims = uniform_dims(&["i", "j", "k"], 8);
        let c = Contraction {
            output: TensorRef::new("C", &["i", "k"]),
            sum_indices: vec!["j".into()],
            terms: vec![
                TensorRef::new("A", &["i", "j"]),
                TensorRef::new("B", &["j", "k"]),
            ],
            accumulate: false,
            coefficient: 1.0,
        };
        let t = StatementTuner::build("mm", &c, &dims);
        assert_eq!(t.variants.len(), 1);
        assert!(t.total() > 0);
    }
}
