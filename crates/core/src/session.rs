//! [`TuningSession`]: the cache-first compile service the CLI and bench
//! binaries tune through.
//!
//! A session owns the three pieces every tuning entry point used to wire
//! by hand: the backend registry (implicitly, via keys), one shared
//! [`EvalCache`] **per workload fingerprint** — cache keys are
//! `(salt, configuration id)` and configuration ids are workload-local,
//! so backends tuning the same workload share timings and features while
//! distinct workloads can never alias each other's entries — and an
//! optional content-addressed [`PlanStore`]. With a store attached,
//! `tune` is
//! store-first: a hit replays the persisted plan — zero search
//! evaluations, bit-identical timing, full quarantine report — and a miss
//! runs SURF then persists the result under its content address, so the
//! *next* session hits. This is the paper's compile-once/run-many loop
//! (§5) made a first-class object instead of a pattern each binary
//! reimplements.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::backend::{tune_all_backends_with, BackendSet, BackendTuning};
use crate::cache::EvalCache;
use crate::error::BarracudaError;
use crate::objective::Objective;
use crate::pipeline::{TuneParams, TunedWorkload, WorkloadTuner};
use crate::plan::{TunedPlan, PLAN_SCHEMA_VERSION};
use crate::stages::frontend::workload_fingerprint;
use crate::store::{objective_address, PlanStore, StoreKey};
use crate::workload::Workload;

/// Where a tuning result came from.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanSource {
    /// Replayed from the plan store: zero search evaluations.
    StoreHit { path: PathBuf },
    /// SURF ran; `stored` is the store path the fresh plan was persisted
    /// to (`None` when the session has no store attached).
    Searched { stored: Option<PathBuf> },
}

impl PlanSource {
    /// One status line for CLI/bench output (`plan store: hit … / miss …`).
    pub fn describe(&self) -> String {
        match self {
            PlanSource::StoreHit { path } => format!(
                "plan store: hit (0 search evaluations, replayed {})",
                path.display()
            ),
            PlanSource::Searched { stored: Some(p) } => {
                format!("plan store: miss (searched, stored {})", p.display())
            }
            PlanSource::Searched { stored: None } => "plan store: detached (searched)".to_string(),
        }
    }
}

/// One `tune` through a session: the result, the plan it is persisted as,
/// and where it came from.
#[derive(Debug)]
pub struct SessionOutcome {
    pub tuned: TunedWorkload,
    pub plan: TunedPlan,
    pub source: PlanSource,
}

/// A whole-registry sweep through a session: the rows every caller of
/// `tune_all_backends` already consumes, plus per-searchable-backend plan
/// sources for reporting.
pub struct SweepOutcome {
    pub rows: Vec<BackendTuning>,
    /// `(backend key, source)` for each searchable backend, in registry
    /// order.
    pub notes: Vec<(String, PlanSource)>,
}

/// The cache-first tuning context.
pub struct TuningSession {
    /// One [`EvalCache`] per workload fingerprint. Cache entries are
    /// keyed by `(salt, configuration id)` and ids are workload-local,
    /// so a single cache must never span workloads.
    caches: Mutex<HashMap<u64, Arc<EvalCache>>>,
    store: Option<PlanStore>,
    /// The backends this session resolves keys against: the built-ins by
    /// default, or a set extended with runtime-loaded descriptors.
    backends: Arc<BackendSet>,
}

impl Default for TuningSession {
    fn default() -> Self {
        TuningSession::new()
    }
}

impl TuningSession {
    /// A session with fresh caches and no plan store: every tune
    /// searches, nothing persists. What the bench binaries use.
    pub fn new() -> TuningSession {
        TuningSession {
            caches: Mutex::new(HashMap::new()),
            store: None,
            backends: Arc::new(BackendSet::builtin()),
        }
    }

    /// A session backed by the store at `root` (created if absent).
    pub fn with_store(root: impl Into<PathBuf>) -> Result<TuningSession, BarracudaError> {
        Ok(Self::with_plan_store(PlanStore::open(root)?))
    }

    /// A session over an explicitly configured [`PlanStore`] — how the
    /// daemon opts into durable (fsync'd) inserts, and how the chaos
    /// harness injects store I/O faults.
    pub fn with_plan_store(store: PlanStore) -> TuningSession {
        TuningSession {
            caches: Mutex::new(HashMap::new()),
            store: Some(store),
            backends: Arc::new(BackendSet::builtin()),
        }
    }

    /// Replaces the session's backend set (builder-style). How the CLI and
    /// the daemon make `--arch-file`/`--arch-dir` descriptors resolvable.
    pub fn with_backends(mut self, backends: Arc<BackendSet>) -> TuningSession {
        self.backends = backends;
        self
    }

    /// The backend set every key in this session resolves against.
    pub fn backends(&self) -> &BackendSet {
        &self.backends
    }

    /// The session's shared evaluation cache for `workload`: every tune
    /// and replay of a workload with this fingerprint goes through the
    /// same cache, and no other workload touches it.
    pub fn cache_for(&self, workload: &Workload) -> Arc<EvalCache> {
        let fp = workload_fingerprint(workload);
        let mut caches = match self.caches.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(caches.entry(fp).or_default())
    }

    /// The attached plan store, when one is.
    pub fn store(&self) -> Option<&PlanStore> {
        self.store.as_ref()
    }

    /// The current-schema store key for `(workload, backend)` under the
    /// default objective. Typed [`BarracudaError::Plan`] when the backend
    /// key is not in the session's backend set.
    pub fn key_for(&self, workload: &Workload, backend: &str) -> Result<StoreKey, BarracudaError> {
        self.key_for_objective(workload, backend, &Objective::default())
    }

    /// [`TuningSession::key_for`] for a plan tuned under `objective`:
    /// each objective has its own slot in the store.
    pub fn key_for_objective(
        &self,
        workload: &Workload,
        backend: &str,
        objective: &Objective,
    ) -> Result<StoreKey, BarracudaError> {
        let b = self
            .backends
            .get(backend)
            .ok_or_else(|| BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!("unknown backend `{backend}`"),
            })?;
        Ok(StoreKey {
            fingerprint: workload_fingerprint(workload),
            cache_salt: b.cache_salt(),
            schema: PLAN_SCHEMA_VERSION,
            backend: backend.to_string(),
            objective: objective_address(objective),
        })
    }

    /// Store-first tune of `workload` on a searchable backend: a store
    /// hit replays the persisted plan (zero search evaluations,
    /// bit-identical result); a miss runs SURF and persists the fresh
    /// plan under its content address.
    pub fn tune(
        &self,
        workload: &Workload,
        backend: &str,
        params: TuneParams,
    ) -> Result<SessionOutcome, BarracudaError> {
        let tuner = WorkloadTuner::build(workload);
        self.tune_built(&tuner, backend, params)
    }

    /// [`TuningSession::tune`] over an already-lowered tuner (callers
    /// that reuse the lowering across backends).
    pub fn tune_built(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        params: TuneParams,
    ) -> Result<SessionOutcome, BarracudaError> {
        let workload = &tuner.workload;
        let cache = self.cache_for(workload);
        if let Some(hit) = self.replay_hit(tuner, backend, &params.objective)? {
            return Ok(hit);
        }
        let b = self
            .backends
            .get(backend)
            .ok_or_else(|| BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!("unknown backend `{backend}`"),
            })?;
        let arch = b.arch().ok_or_else(|| BarracudaError::Search {
            workload: workload.name.clone(),
            detail: format!("backend `{backend}` is not searchable — no architecture to tune on"),
        })?;
        let tuned = tuner.autotune_with_cache(arch, params, &cache)?;
        let plan = TunedPlan::from_tuned_for(tuner, b.as_ref(), &tuned);
        let stored = match &self.store {
            Some(store) => Some(store.insert(&plan)?),
            None => None,
        };
        Ok(SessionOutcome {
            tuned,
            plan,
            source: PlanSource::Searched { stored },
        })
    }

    /// Store probe only: replays the persisted plan for
    /// `(workload, backend)` if one exists, without ever searching.
    /// `Ok(None)` on a miss or when no store is attached. The lookup reads
    /// `objective`'s own slot, so plans tuned under other objectives are
    /// neither served nor overwritten; a plan in the slot whose objective
    /// still differs (a digest collision) is a miss too. This is
    /// the daemon's warm fast path — it costs one lookup and one replay,
    /// so it can run *before* admission control and keep warm traffic
    /// flowing while every cold-search permit is taken.
    pub fn replay_hit(
        &self,
        tuner: &WorkloadTuner,
        backend: &str,
        objective: &Objective,
    ) -> Result<Option<SessionOutcome>, BarracudaError> {
        let workload = &tuner.workload;
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let key = self.key_for_objective(workload, backend, objective)?;
        let Some(plan) = store.lookup(&key)? else {
            return Ok(None);
        };
        if !plan.objective.same_as(objective) {
            return Ok(None);
        }
        let tuned =
            plan.replay_built_in(&self.backends, workload, tuner, &self.cache_for(workload))?;
        Ok(Some(SessionOutcome {
            tuned,
            plan,
            source: PlanSource::StoreHit {
                path: store.path_of(&key),
            },
        }))
    }

    /// Store-first tune on an explicit GPU architecture, the calling
    /// convention of the bench experiments. Registry architectures
    /// (`arch.key` names a backend) flow through
    /// [`TuningSession::tune_built`] and so share the session cache and
    /// hit the store; custom architectures fall back to a cached search,
    /// since they have no stable content address to file plans under.
    pub fn tune_on_arch(
        &self,
        tuner: &WorkloadTuner,
        arch: &gpusim::GpuArch,
        params: TuneParams,
    ) -> Result<TunedWorkload, BarracudaError> {
        if self.backends.get(&arch.key).is_some() {
            return Ok(self.tune_built(tuner, &arch.key, params)?.tuned);
        }
        tuner.autotune_with_cache(arch, params, &self.cache_for(&tuner.workload))
    }

    /// Whole-registry sweep, store-first per searchable backend: against
    /// a warm store the entire sweep is search-free. Derived backends
    /// (CPU baselines, OpenACC analogs) ride along as in
    /// [`crate::backend::tune_all_backends`].
    pub fn tune_all(
        &self,
        tuner: &WorkloadTuner,
        params: TuneParams,
    ) -> Result<SweepOutcome, BarracudaError> {
        let mut notes = Vec::new();
        let rows = tune_all_backends_with(&self.backends, tuner, |backend, _| {
            let out = self.tune_built(tuner, backend.key(), params)?;
            notes.push((backend.key().to_string(), out.source));
            Ok(out.tuned)
        })?;
        Ok(SweepOutcome { rows, notes })
    }

    /// Replays the stored plan for `(workload, backend)` from `expected`'s
    /// slot without ever searching: a missing entry is a typed
    /// [`BarracudaError::Plan`] (plans stored under other objectives are
    /// not looked at), and so is an entry whose plan was tuned under a
    /// different objective than `expected` — an explicit replay must
    /// never silently serve a pick optimized for something else.
    /// Returns the result, the plan, and the store path it came from.
    pub fn replay_from_store(
        &self,
        workload: &Workload,
        backend: &str,
        expected: &Objective,
    ) -> Result<(TunedWorkload, TunedPlan, PathBuf), BarracudaError> {
        let store = self.store.as_ref().ok_or_else(|| BarracudaError::Store {
            detail: "no plan store attached (pass --store DIR)".to_string(),
        })?;
        let key = self.key_for_objective(workload, backend, expected)?;
        let plan = store.lookup(&key)?.ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!(
                "no stored plan for {key} in {} — tune with --store first",
                store.root().display()
            ),
        })?;
        plan.validate_objective(expected)?;
        let tuner = WorkloadTuner::build(workload);
        let tuned =
            plan.replay_built_in(&self.backends, workload, &tuner, &self.cache_for(workload))?;
        Ok((tuned, plan, store.path_of(&key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::index::uniform_dims;

    fn matmul(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "barracuda_session_unit_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn second_tune_is_a_store_hit_with_identical_bits() {
        let root = temp_root("hit");
        let w = matmul(16);
        let params = TuneParams::quick();

        let s1 = TuningSession::with_store(&root).unwrap();
        let first = s1.tune(&w, "k20", params).unwrap();
        assert!(matches!(
            first.source,
            PlanSource::Searched { stored: Some(_) }
        ));
        assert!(first.tuned.search.n_evals > 0);

        // A brand-new session (cold cache) must still hit the store and
        // reproduce the result bit-for-bit without searching.
        let s2 = TuningSession::with_store(&root).unwrap();
        let second = s2.tune(&w, "k20", params).unwrap();
        assert!(matches!(second.source, PlanSource::StoreHit { .. }));
        assert_eq!(second.tuned.id, first.tuned.id);
        assert_eq!(
            second.tuned.gpu_seconds.to_bits(),
            first.tuned.gpu_seconds.to_bits()
        );
        // Replay reconstructs the original provenance, so callers render
        // the same "(N evals, space S)" line.
        assert_eq!(second.tuned.search.n_evals, first.tuned.search.n_evals);
        assert_eq!(
            second.tuned.search.space_size,
            first.tuned.search.space_size
        );
        // The cache saw no search-driven misses beyond the replay's own
        // re-timing.
        assert_eq!(second.plan, first.plan);
    }

    #[test]
    fn sweep_against_warm_store_is_fully_search_free() {
        let root = temp_root("sweep");
        let w = matmul(16);
        let tuner = WorkloadTuner::build(&w);
        let params = TuneParams::quick();

        let s1 = TuningSession::with_store(&root).unwrap();
        let cold = s1.tune_all(&tuner, params).unwrap();
        assert!(cold
            .notes
            .iter()
            .all(|(_, src)| matches!(src, PlanSource::Searched { stored: Some(_) })));

        let s2 = TuningSession::with_store(&root).unwrap();
        let warm = s2.tune_all(&tuner, params).unwrap();
        assert_eq!(warm.notes.len(), 3, "three searchable backends");
        assert!(
            warm.notes
                .iter()
                .all(|(_, src)| matches!(src, PlanSource::StoreHit { .. })),
            "warm sweep must be search-free"
        );
        // Row-for-row bit-identical totals.
        for (a, b) in cold.rows.iter().zip(&warm.rows) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        }
    }

    #[test]
    fn sessions_without_a_store_always_search() {
        let w = matmul(16);
        let s = TuningSession::new();
        let out = s.tune(&w, "k20", TuneParams::quick()).unwrap();
        assert_eq!(out.source, PlanSource::Searched { stored: None });
    }

    #[test]
    fn replay_from_store_misses_with_typed_plan_error() {
        let root = temp_root("replay_miss");
        let w = matmul(16);
        let s = TuningSession::with_store(&root).unwrap();
        let time_only = Objective::time_only();
        let err = s.replay_from_store(&w, "k20", &time_only).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert!(err.to_string().contains("no stored plan"));

        s.tune(&w, "k20", TuneParams::quick()).unwrap();
        let (tuned, plan, path) = s.replay_from_store(&w, "k20", &time_only).unwrap();
        assert!(path.exists());
        assert_eq!(tuned.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());

        // Explicitly replaying under a different objective is refused:
        // the stored pick answers a question nobody asked.
        let err = s
            .replay_from_store(&w, "k20", &Objective::balanced())
            .unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("objective"), "{err}");
    }

    #[test]
    fn alternating_objectives_hit_their_own_store_slots() {
        let root = temp_root("alternating_objectives");
        let w = matmul(16);
        let s = TuningSession::with_store(&root).unwrap();
        let time = TuneParams::quick();
        let mut memory = TuneParams::quick();
        memory.objective = Objective::memory();
        let rounds: Vec<SessionOutcome> = [time, memory, time, memory]
            .into_iter()
            .map(|p| s.tune(&w, "k20", p).unwrap())
            .collect();
        // Time then memory: each searches, and neither evicts the other.
        for cold in &rounds[..2] {
            assert!(matches!(
                cold.source,
                PlanSource::Searched { stored: Some(_) }
            ));
        }
        for (warm, cold) in rounds[2..].iter().zip(&rounds[..2]) {
            assert!(
                matches!(warm.source, PlanSource::StoreHit { .. }),
                "each objective must hit its own slot"
            );
            assert_eq!(warm.plan, cold.plan);
            assert_eq!(
                warm.tuned.gpu_seconds.to_bits(),
                cold.tuned.gpu_seconds.to_bits()
            );
        }
        assert!(rounds[3].plan.objective.same_as(&Objective::memory()));
        // The default objective keeps its objective-free file name.
        let entries = s.store().unwrap().entries().unwrap();
        let objectives: Vec<Option<u64>> = entries.iter().map(|e| e.key.objective).collect();
        assert_eq!(objectives.len(), 2, "{objectives:?}");
        assert!(objectives.contains(&None));
        assert!(objectives.contains(&Some(Objective::memory().digest())));
    }

    #[test]
    fn distinct_workloads_never_share_cache_entries() {
        // Configuration ids are workload-local, so two workloads tuned
        // through one session must land in separate caches — a shared
        // cache would alias their ids and serve one workload the other's
        // memoized features/timings. Each result must match a
        // fresh-cache tune bit-for-bit.
        let a = matmul(16);
        let b = crate::kernels::lg3(4, 6);
        let params = TuneParams::quick();
        let arch = gpusim::k20();
        let s = TuningSession::new();
        let sa = s
            .tune_on_arch(&WorkloadTuner::build(&a), &arch, params)
            .unwrap();
        let sb = s
            .tune_on_arch(&WorkloadTuner::build(&b), &arch, params)
            .unwrap();
        let fa = WorkloadTuner::build(&a).autotune(&arch, params).unwrap();
        let fb = WorkloadTuner::build(&b).autotune(&arch, params).unwrap();
        assert_eq!(sa.id, fa.id);
        assert_eq!(sa.gpu_seconds.to_bits(), fa.gpu_seconds.to_bits());
        assert_eq!(sb.id, fb.id);
        assert_eq!(sb.gpu_seconds.to_bits(), fb.gpu_seconds.to_bits());
    }

    #[test]
    fn non_searchable_backend_is_a_typed_search_error() {
        let w = matmul(16);
        let s = TuningSession::new();
        let err = s.tune(&w, "cpu1", TuneParams::quick()).unwrap_err();
        assert_eq!(err.stage(), "search");
        assert!(err.to_string().contains("not searchable"));
    }
}
