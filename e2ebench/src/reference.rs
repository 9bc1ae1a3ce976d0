//! The pick-correctness reference: for every `(workload, backend)` the
//! benchmark tunes, the configuration id the tuner picked and the exact
//! bits of its simulated `gpu_seconds`, recorded once from the tuner at
//! paper-scale search settings (`--record-reference`). Any later pick
//! that differs in either is a failed operation.

use std::collections::BTreeMap;

/// The reference file, compiled in so a run needs no file outside the
/// binary.
pub const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// One recorded pick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    pub id: u128,
    pub gpu_bits: u64,
}

impl Pick {
    pub fn new(id: u128, gpu_seconds: f64) -> Pick {
        Pick {
            id,
            gpu_bits: gpu_seconds.to_bits(),
        }
    }
}

/// `(workload, backend)` → reference pick.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    picks: BTreeMap<(String, String), Pick>,
}

impl Reference {
    /// Parses `workload<TAB>backend<TAB>id<TAB>gpu_bits_hex` lines; `#`
    /// starts a comment line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut picks = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [workload, backend, id, bits] = f[..] else {
                return Err(format!("reference line {}: expected 4 fields", n + 1));
            };
            let id = id
                .parse::<u128>()
                .map_err(|e| format!("reference line {}: id: {e}", n + 1))?;
            let gpu_bits = u64::from_str_radix(bits, 16)
                .map_err(|e| format!("reference line {}: bits: {e}", n + 1))?;
            picks.insert(
                (workload.to_string(), backend.to_string()),
                Pick { id, gpu_bits },
            );
        }
        Ok(Reference { picks })
    }

    /// The compiled-in reference.
    pub fn builtin() -> Reference {
        Reference::parse(REFERENCE_TSV).expect("the compiled-in reference parses")
    }

    pub fn insert(&mut self, workload: &str, backend: &str, pick: Pick) {
        self.picks
            .insert((workload.to_string(), backend.to_string()), pick);
    }

    /// `None` when the pick matches the reference; otherwise why not.
    pub fn check(&self, workload: &str, backend: &str, got: Pick) -> Option<String> {
        match self.picks.get(&(workload.to_string(), backend.to_string())) {
            None => Some(format!("no reference pick for {workload} on {backend}")),
            Some(want) if *want == got => None,
            Some(want) => Some(format!(
                "{workload} on {backend}: picked id {} ({:016x}), reference id {} ({:016x})",
                got.id, got.gpu_bits, want.id, want.gpu_bits
            )),
        }
    }

    pub fn to_tsv(&self) -> String {
        let mut s =
            String::from("# workload\tbackend\tpicked configuration id\tgpu_seconds bits (hex)\n");
        for ((w, b), p) in &self.picks {
            s.push_str(&format!("{w}\t{b}\t{}\t{:016x}\n", p.id, p.gpu_bits));
        }
        s
    }
}

/// Failure bookkeeping shared by every workload: operations attempted,
/// and the first few failure reasons (all of them are counted).
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `failure` is `Some(reason)` when it failed.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.fail(reason);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_reference_covers_every_builtin_on_every_searchable_backend() {
        let r = Reference::builtin();
        for w in crate::gen::builtins() {
            for b in ["gtx980", "k20", "c2050"] {
                assert!(r.picks.contains_key(&(w.clone(), b.to_string())), "{w} {b}");
            }
        }
    }

    #[test]
    fn tsv_round_trips() {
        let mut r = Reference::default();
        r.insert("tce", "k20", Pick::new(12345678901234567890, 1.25e-4));
        r.insert("eqn1", "gtx980", Pick::new(7, 3.0e-5));
        let back = Reference::parse(&r.to_tsv()).unwrap();
        assert_eq!(back.picks, r.picks);
        assert!(Reference::parse("a\tb\tc").is_err());
        assert!(Reference::parse("a\tb\tnot-a-number\t00").is_err());
    }

    #[test]
    fn a_planted_wrong_pick_is_counted_as_failed() {
        let mut r = Reference::default();
        let right = Pick::new(42, 2.5e-5);
        r.insert("lg3", "k20", right);
        let mut ledger = Ledger::default();
        ledger.record(r.check("lg3", "k20", right));
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));

        // Plant a wrong reference: same id, timing off by one ulp.
        r.insert(
            "lg3",
            "k20",
            Pick {
                id: 42,
                gpu_bits: right.gpu_bits + 1,
            },
        );
        ledger.record(r.check("lg3", "k20", right));
        // And a wrong id with the right timing.
        r.insert("lg3", "k20", Pick { id: 43, ..right });
        ledger.record(r.check("lg3", "k20", right));
        // And a pick the reference has never seen.
        ledger.record(r.check("lg3", "c2050", right));
        assert_eq!((ledger.attempted, ledger.failed), (4, 3));
        assert_eq!(ledger.fail_ratio(), 0.75);
        assert!(ledger.reasons[0].contains("reference id 42"));
    }
}
