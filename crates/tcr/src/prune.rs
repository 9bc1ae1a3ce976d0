//! Search-space pruning — the paper's stated future work (§VIII):
//! "we plan to extend this work to further prune the autotuning search
//! space once we develop a better understanding of where pruning does not
//! impact quality of results".
//!
//! Each rule removes configurations a human GPU programmer would reject on
//! sight; `bin/pruning` in the bench crate quantifies the space reduction
//! against the quality loss.

use crate::mapping::map_kernel;
use crate::program::TcrProgram;
use crate::space::{OpSpace, PackedConfig, ProgramSpace, VarId};

/// Which pruning rules to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneRules {
    /// Keep only configurations whose ThreadX loop walks the *output* with
    /// unit stride (coalesced stores). Uncoalesced stores are almost never
    /// optimal for accumulation-heavy kernels.
    pub coalesced_output: bool,
    /// Restrict unroll factors to {1, 2, 4, 8, full extent}: intermediate
    /// factors rarely win and multiply the space by ~2x.
    pub unroll_sweet_spots: bool,
    /// Keep only interior orders whose innermost loop has unit stride in at
    /// least one referenced array (temporal locality), unless no order
    /// qualifies.
    pub local_innermost: bool,
    /// Drop multi-array staging subsets (stage at most one input).
    pub single_staging: bool,
}

impl PruneRules {
    /// Everything on.
    pub fn aggressive() -> Self {
        PruneRules {
            coalesced_output: true,
            unroll_sweet_spots: true,
            local_innermost: true,
            single_staging: true,
        }
    }

    /// A conservative subset that provably cannot exclude the optimum class
    /// for store-bound kernels.
    pub fn conservative() -> Self {
        PruneRules {
            coalesced_output: false,
            unroll_sweet_spots: true,
            local_innermost: false,
            single_staging: true,
        }
    }
}

fn keeps(program: &TcrProgram, space: &OpSpace, code: &PackedConfig, rules: &PruneRules) -> bool {
    let op = &program.ops[space.op_index];
    let var = |v: VarId| &space.vars()[v as usize];
    let innermost = space.interior(code).last().map(|&v| var(v));
    if rules.coalesced_output {
        let out = &program.arrays[op.output];
        if out.stride_of(var(code.tx), &program.dims) != Some(1) {
            return false;
        }
    }
    if rules.unroll_sweet_spots {
        let full = innermost.map(|v| program.dims[v]).unwrap_or(1);
        let full = full.min(crate::space::MAX_UNROLL);
        if ![1usize, 2, 4, 8, full].contains(&(code.unroll as usize)) {
            return false;
        }
    }
    if rules.local_innermost {
        if let Some(inner) = innermost {
            let referenced: Vec<usize> = {
                let mut ids = op.inputs.clone();
                ids.push(op.output);
                ids
            };
            let local = referenced
                .iter()
                .any(|&id| program.arrays[id].stride_of(inner, &program.dims) == Some(1));
            if !local {
                return false;
            }
        }
    }
    if rules.single_staging && space.staged(code).len() > 1 {
        return false;
    }
    true
}

/// Applies the rules, keeping at least one configuration per statement
/// (falls back to the unpruned list when a rule empties it).
pub fn prune_space(program: &TcrProgram, space: &ProgramSpace, rules: &PruneRules) -> ProgramSpace {
    let per_op = space
        .per_op
        .iter()
        .map(|s| s.filtered(|code| keeps(program, s, code, rules)))
        .collect();
    ProgramSpace { per_op }
}

/// Sanity helper: every pruned configuration must still map to a valid
/// kernel. Returns the number of configurations checked.
pub fn validate_pruned(program: &TcrProgram, space: &ProgramSpace) -> usize {
    let mut checked = 0;
    for s in &space.per_op {
        for cfg in s.iter().take(64) {
            let _ = map_kernel(program, s.op_index, cfg, false);
            checked += 1;
        }
    }
    checked
}

/// The rule check over decoded configurations that [`prune_space`] used
/// before spaces were packed; tests check the packed check against it.
#[cfg(test)]
pub(crate) fn reference_keeps(
    program: &TcrProgram,
    op_index: usize,
    cfg: &crate::space::OpConfig,
    rules: &PruneRules,
) -> bool {
    let op = &program.ops[op_index];
    if rules.coalesced_output {
        let out = &program.arrays[op.output];
        if out.stride_of(&cfg.tx, &program.dims) != Some(1) {
            return false;
        }
    }
    if rules.unroll_sweet_spots {
        let full = cfg.interior.last().map(|v| program.dims[v]).unwrap_or(1);
        let full = full.min(crate::space::MAX_UNROLL);
        if ![1usize, 2, 4, 8, full].contains(&cfg.unroll) {
            return false;
        }
    }
    if rules.local_innermost {
        if let Some(inner) = cfg.interior.last() {
            let referenced: Vec<usize> = {
                let mut ids = op.inputs.clone();
                ids.push(op.output);
                ids
            };
            let local = referenced
                .iter()
                .any(|&id| program.arrays[id].stride_of(inner, &program.dims) == Some(1));
            if !local {
                return false;
            }
        }
    }
    if rules.single_staging && cfg.staged.len() > 1 {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::tests_support::{eqn1_program, matmul_program};

    #[test]
    fn pruning_shrinks_the_space() {
        let p = eqn1_program(10);
        let full = ProgramSpace::build(&p);
        let pruned = prune_space(&p, &full, &PruneRules::aggressive());
        assert!(
            pruned.len() < full.len() / 4,
            "{} vs {}",
            pruned.len(),
            full.len()
        );
        assert!(!pruned.is_empty());
        assert!(validate_pruned(&p, &pruned) > 0);
    }

    #[test]
    fn coalesced_output_rule_holds() {
        let p = matmul_program(8);
        let full = ProgramSpace::build(&p);
        let rules = PruneRules {
            coalesced_output: true,
            unroll_sweet_spots: false,
            local_innermost: false,
            single_staging: false,
        };
        let pruned = prune_space(&p, &full, &rules);
        for s in &pruned.per_op {
            for c in s.iter() {
                let out = &p.arrays[p.ops[s.op_index].output];
                assert_eq!(out.stride_of(&c.tx, &p.dims), Some(1));
            }
        }
    }

    #[test]
    fn unroll_rule_keeps_sweet_spots_only() {
        let p = matmul_program(10);
        let full = ProgramSpace::build(&p);
        let rules = PruneRules {
            coalesced_output: false,
            unroll_sweet_spots: true,
            local_innermost: false,
            single_staging: false,
        };
        let pruned = prune_space(&p, &full, &rules);
        for s in &pruned.per_op {
            for c in s.iter() {
                assert!([1, 2, 4, 8, 10].contains(&c.unroll), "unroll {}", c.unroll);
            }
        }
    }

    #[test]
    fn pruning_never_empties_a_statement() {
        // A rule set that matches nothing must fall back to the full list.
        let p = matmul_program(3);
        let full = ProgramSpace::build(&p);
        let rules = PruneRules::aggressive();
        let pruned = prune_space(&p, &full, &rules);
        for s in &pruned.per_op {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn conservative_rules_are_weaker() {
        let p = eqn1_program(10);
        let full = ProgramSpace::build(&p);
        let a = prune_space(&p, &full, &PruneRules::aggressive());
        let c = prune_space(&p, &full, &PruneRules::conservative());
        assert!(a.len() <= c.len());
        assert!(c.len() <= full.len());
    }
}
