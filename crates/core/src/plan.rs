//! Serializable tuning plans: persist a search result, replay it later.
//!
//! Autotuning is the expensive step — the paper models multi-hour searches
//! (Table II) for a configuration that is then reused for every production
//! run. A [`TunedPlan`] captures everything needed to skip the search next
//! time: the workload (canonical DSL source + extents + a fingerprint),
//! the backend it was tuned for (registry key plus its cache salt), the
//! winning joint configuration id with its per-statement `(version, local)`
//! decomposition, the modeled times, the full quarantine report, and
//! provenance describing how the search ran (evaluations, batches, memo
//! counters, hot-path stage times, degradation status).
//!
//! Plans are versioned hand-rolled JSON (see [`crate::json`] — no serde in
//! this repo): `f64` values round-trip bit-exactly via Rust's shortest
//! `Display`, and `u128`/`u64` quantities that exceed double precision
//! travel as strings. There is one format, schema
//! [`PLAN_SCHEMA_VERSION`]; the reader rejects any other version with a
//! typed [`BarracudaError::Plan`] (CLI exit code 10). The plan store
//! addresses entries by schema too, so an older artifact is never looked
//! up: `barracuda plans gc` evicts it by file name.
//! [`TunedPlan::replay_built_in`] rejects a plan whose workload
//! fingerprint or backend cache salt no longer matches, then re-maps and
//! re-times the configuration — bit-identical to the saved numbers, since
//! the simulator is deterministic — without searching anything.
//! Replaying under a different objective than the plan was tuned for is
//! the same class of error: use [`TunedPlan::validate_objective`].

use crate::backend::{Backend, BackendSet};
use crate::cache::{EvalCache, HotPathSnapshot};
use crate::error::BarracudaError;
use crate::json::Json;
use crate::objective::Objective;
use crate::pipeline::{TunedWorkload, WorkloadTuner};
use crate::quarantine::{QuarantineEntry, QuarantineReport, QuarantineStage};
use crate::stages::frontend::{canonical_source, workload_fingerprint};
use crate::stages::SearchStats;
use crate::workload::Workload;
use surf::SearchStatus;

/// Version of the on-disk plan schema: the only one this build writes or
/// reads. Bump on any incompatible change; readers reject every other
/// version rather than misinterpreting fields.
pub const PLAN_SCHEMA_VERSION: u64 = 3;

/// How the saved configuration was found: the search's bookkeeping,
/// flattened for serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanProvenance {
    pub n_evals: usize,
    pub batches: usize,
    pub space_size: u128,
    pub pool_size: usize,
    pub wall_s: f64,
    pub threads: usize,
    pub quarantined_versions: usize,
    pub quarantined_configs: usize,
    pub cache_hit_rate: f64,
    pub per_op_hit_rate: f64,
    pub time_hit_rate: f64,
    /// Feature-memo hits/misses.
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Per-op decomposed-memo hits/misses.
    pub per_op_hits: usize,
    pub per_op_misses: usize,
    /// Whole-config time-memo hits/misses.
    pub time_hits: usize,
    pub time_misses: usize,
    /// Hot-path stage times at the end of the search. Serialized as
    /// decimal strings — nanosecond totals can exceed the 2^53 doubles
    /// carry exactly.
    pub hot_decode_ns: u64,
    pub hot_map_ns: u64,
    pub hot_sim_ns: u64,
    pub hot_predict_ns: u64,
    /// Pool candidates pruned before the search because their modeled peak
    /// exceeded the objective's memory budget (zero without a budget).
    pub pruned_by_memory: usize,
    /// Distinct `(statement, version)` pairs over the memory budget
    /// (zero without a budget).
    pub versions_over_budget: usize,
    /// Modeled peak live temporary bytes of the chosen configuration.
    pub peak_temp_bytes: u64,
    /// Modeled global read+write volume of the chosen configuration.
    pub rw_bytes: u64,
    /// Whether the search stopped early (budget, deadline, survivors).
    pub degraded: bool,
    /// Human-readable status (`complete` or `degraded: <reason>`).
    pub status: String,
}

/// One per-statement choice of the plan's joint configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanChoice {
    /// OCTOPI version index within the statement.
    pub version: usize,
    /// Local configuration id within the statement's own space.
    pub local: u128,
}

/// A persisted tuning result: enough to re-map, validate and emit CUDA for
/// the winning configuration without re-running the search.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedPlan {
    pub workload_name: String,
    /// Canonical DSL source (statement `Display` forms, one per line).
    pub source: String,
    /// Index extents, sorted by index name.
    pub dims: Vec<(String, usize)>,
    /// FNV-1a fingerprint over source + dims (name excluded); replay
    /// refuses a workload whose fingerprint differs.
    pub fingerprint: u64,
    /// Backend registry key the plan was tuned for (`k20`, `gtx980`, …).
    pub backend: String,
    /// The backend's [`Backend::cache_salt`] at save time. Replay refuses
    /// a plan whose salt differs from the live backend's — a changed model
    /// or architecture must re-tune, never serve a stale mapping.
    pub cache_salt: u64,
    /// Human-readable architecture name at save time.
    pub arch_name: String,
    /// Winning joint configuration id.
    pub id: u128,
    /// Per-statement decomposition of `id`.
    pub choices: Vec<PlanChoice>,
    pub gpu_seconds: f64,
    pub transfer_seconds: f64,
    pub flops: u64,
    /// Full quarantine report of the search, so replay reconstructs
    /// exactly what the tuning run showed.
    pub quarantine: Vec<QuarantineEntry>,
    /// The objective the search minimized. Replay under a different
    /// objective is refused — a plan tuned for a memory budget is not the
    /// time-optimal answer and vice versa. See
    /// [`TunedPlan::validate_objective`].
    pub objective: Objective,
    pub provenance: PlanProvenance,
}

impl TunedPlan {
    /// Captures a finished tuning run as a plan. The `tuner` must be the
    /// one the result came from (it decomposes the joint id), and
    /// `backend` the backend searched — the plan records its key and its
    /// cache salt (the descriptor digest, whichever set it was loaded
    /// from).
    pub fn from_tuned_for(
        tuner: &WorkloadTuner,
        backend: &dyn Backend,
        tuned: &TunedWorkload,
    ) -> TunedPlan {
        let locals = tuner.decode(tuned.id);
        let choices = tuner
            .statements
            .iter()
            .zip(&locals)
            .map(|(st, &local)| PlanChoice {
                version: st.decode_raw(local).0,
                local,
            })
            .collect();
        let s = &tuned.search;
        TunedPlan {
            workload_name: tuner.workload.name.clone(),
            source: canonical_source(&tuner.workload),
            dims: tuner
                .workload
                .dims
                .iter()
                .map(|(v, &n)| (v.name().to_string(), n))
                .collect(),
            fingerprint: workload_fingerprint(&tuner.workload),
            backend: backend.key().to_string(),
            cache_salt: backend.cache_salt(),
            arch_name: tuned.arch_name.clone(),
            id: tuned.id,
            choices,
            gpu_seconds: tuned.gpu_seconds,
            transfer_seconds: tuned.transfer_seconds,
            flops: tuned.flops,
            quarantine: tuned.quarantine.entries.clone(),
            objective: tuned.objective,
            provenance: PlanProvenance {
                n_evals: s.n_evals,
                batches: s.batches,
                space_size: s.space_size,
                pool_size: s.pool_size,
                wall_s: s.wall_s,
                threads: s.threads,
                quarantined_versions: s.quarantined_versions,
                quarantined_configs: s.quarantined_configs,
                cache_hit_rate: s.cache_hit_rate(),
                per_op_hit_rate: s.per_op_hit_rate(),
                time_hit_rate: s.time_hit_rate(),
                cache_hits: s.cache_hits,
                cache_misses: s.cache_misses,
                per_op_hits: s.per_op_hits,
                per_op_misses: s.per_op_misses,
                time_hits: s.time_hits,
                time_misses: s.time_misses,
                hot_decode_ns: s.hot.decode_ns,
                hot_map_ns: s.hot.map_ns,
                hot_sim_ns: s.hot.sim_ns,
                hot_predict_ns: s.hot.predict_ns,
                pruned_by_memory: s.pruned_by_memory,
                versions_over_budget: s.versions_over_budget,
                peak_temp_bytes: s.peak_temp_bytes,
                rw_bytes: s.rw_bytes,
                degraded: tuned.is_degraded(),
                status: match &tuned.status {
                    SearchStatus::Complete => "complete".to_string(),
                    SearchStatus::Degraded { reason } => format!("degraded: {reason}"),
                },
            },
        }
    }

    /// The plan as pretty-printed JSON text, schema
    /// [`PLAN_SCHEMA_VERSION`].
    pub fn to_json_text(&self) -> String {
        let p = &self.provenance;
        let quarantine = self
            .quarantine
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("stage".into(), Json::Str(e.stage.as_str().to_string())),
                    (
                        "statement".into(),
                        e.statement.map_or(Json::Null, |s| Json::Num(s as f64)),
                    ),
                    (
                        "version".into(),
                        e.version.map_or(Json::Null, |v| Json::Num(v as f64)),
                    ),
                    (
                        "config".into(),
                        e.config.map_or(Json::Null, |c| Json::Str(c.to_string())),
                    ),
                    ("reason".into(), Json::Str(e.reason.clone())),
                ])
            })
            .collect();
        let choices = self
            .choices
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("version".into(), Json::Num(c.version as f64)),
                    ("local".into(), Json::Str(c.local.to_string())),
                ])
            })
            .collect();
        let prov = vec![
            ("n_evals".into(), Json::Num(p.n_evals as f64)),
            ("batches".into(), Json::Num(p.batches as f64)),
            ("space_size".into(), Json::Str(p.space_size.to_string())),
            ("pool_size".into(), Json::Num(p.pool_size as f64)),
            ("wall_s".into(), Json::Num(p.wall_s)),
            ("threads".into(), Json::Num(p.threads as f64)),
            (
                "quarantined_versions".into(),
                Json::Num(p.quarantined_versions as f64),
            ),
            (
                "quarantined_configs".into(),
                Json::Num(p.quarantined_configs as f64),
            ),
            ("cache_hit_rate".into(), Json::Num(p.cache_hit_rate)),
            ("per_op_hit_rate".into(), Json::Num(p.per_op_hit_rate)),
            ("time_hit_rate".into(), Json::Num(p.time_hit_rate)),
            ("cache_hits".into(), Json::Num(p.cache_hits as f64)),
            ("cache_misses".into(), Json::Num(p.cache_misses as f64)),
            ("per_op_hits".into(), Json::Num(p.per_op_hits as f64)),
            ("per_op_misses".into(), Json::Num(p.per_op_misses as f64)),
            ("time_hits".into(), Json::Num(p.time_hits as f64)),
            ("time_misses".into(), Json::Num(p.time_misses as f64)),
            (
                "hot".into(),
                Json::Obj(vec![
                    ("decode_ns".into(), Json::Str(p.hot_decode_ns.to_string())),
                    ("map_ns".into(), Json::Str(p.hot_map_ns.to_string())),
                    ("sim_ns".into(), Json::Str(p.hot_sim_ns.to_string())),
                    ("predict_ns".into(), Json::Str(p.hot_predict_ns.to_string())),
                ]),
            ),
            (
                "pruned_by_memory".into(),
                Json::Num(p.pruned_by_memory as f64),
            ),
            (
                "versions_over_budget".into(),
                Json::Num(p.versions_over_budget as f64),
            ),
            (
                "peak_temp_bytes".into(),
                Json::Str(p.peak_temp_bytes.to_string()),
            ),
            ("rw_bytes".into(), Json::Str(p.rw_bytes.to_string())),
            ("degraded".into(), Json::Bool(p.degraded)),
            ("status".into(), Json::Str(p.status.clone())),
        ];
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(PLAN_SCHEMA_VERSION as f64),
            ),
            ("workload".into(), Json::Str(self.workload_name.clone())),
            ("source".into(), Json::Str(self.source.clone())),
            (
                "dims".into(),
                Json::Obj(
                    self.dims
                        .iter()
                        .map(|(name, n)| (name.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            (
                "fingerprint".into(),
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("backend".into(), Json::Str(self.backend.clone())),
            (
                "cache_salt".into(),
                Json::Str(format!("{:016x}", self.cache_salt)),
            ),
            ("arch_name".into(), Json::Str(self.arch_name.clone())),
            ("id".into(), Json::Str(self.id.to_string())),
            ("choices".into(), Json::Arr(choices)),
            ("gpu_seconds".into(), Json::Num(self.gpu_seconds)),
            ("transfer_seconds".into(), Json::Num(self.transfer_seconds)),
            ("flops".into(), Json::Str(self.flops.to_string())),
            ("quarantine".into(), Json::Arr(quarantine)),
            ("objective".into(), self.objective.to_json()),
            ("provenance".into(), Json::Obj(prov)),
        ])
        .to_string_pretty()
    }

    /// Parses a plan from JSON text, rejecting every schema version but
    /// [`PLAN_SCHEMA_VERSION`].
    pub fn from_json_text(text: &str) -> Result<TunedPlan, BarracudaError> {
        let err = |detail: String| BarracudaError::Plan {
            workload: "plan".to_string(),
            detail,
        };
        let doc = Json::parse(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| err(format!("missing field `{key}`")))
        };
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| err(format!("field `{key}` must be a string")))
        };
        let schema_version = field("schema_version")?
            .as_u64()
            .ok_or_else(|| err("field `schema_version` must be an integer".to_string()))?;
        if schema_version != PLAN_SCHEMA_VERSION {
            return Err(err(format!(
                "unsupported schema version {schema_version} (this build reads only schema \
                 {PLAN_SCHEMA_VERSION}) — re-tune to write a current plan"
            )));
        }
        let workload_name = str_field("workload")?;
        let perr = |detail: String| BarracudaError::Plan {
            workload: workload_name.clone(),
            detail,
        };
        let u128_field = |parent: &Json, key: &str| -> Result<u128, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| perr(format!("missing string field `{key}`")))?
                .parse::<u128>()
                .map_err(|_| perr(format!("field `{key}` is not a decimal u128")))
        };
        // u64 quantities that may exceed 2^53 travel as decimal strings.
        let u64_field = |parent: &Json, key: &str| -> Result<u64, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| perr(format!("missing string field `{key}`")))?
                .parse::<u64>()
                .map_err(|_| perr(format!("field `{key}` is not a decimal u64")))
        };
        let hex_field = |key: &str| -> Result<u64, BarracudaError> {
            u64::from_str_radix(&str_field(key)?, 16)
                .map_err(|_| perr(format!("field `{key}` is not a hex u64")))
        };
        let f64_field = |parent: &Json, key: &str| -> Result<f64, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| perr(format!("missing numeric field `{key}`")))
        };
        let usize_field = |parent: &Json, key: &str| -> Result<usize, BarracudaError> {
            parent
                .get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| perr(format!("missing integer field `{key}`")))
        };
        let dims = match field("dims")? {
            Json::Obj(members) => members
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|n| (name.clone(), n as usize))
                        .ok_or_else(|| perr(format!("dimension `{name}` must be an integer")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(perr("field `dims` must be an object".to_string())),
        };
        let choices = field("choices")?
            .as_arr()
            .ok_or_else(|| perr("field `choices` must be an array".to_string()))?
            .iter()
            .map(|c| {
                Ok(PlanChoice {
                    version: usize_field(c, "version")?,
                    local: u128_field(c, "local")?,
                })
            })
            .collect::<Result<Vec<_>, BarracudaError>>()?;
        let quarantine = field("quarantine")?
            .as_arr()
            .ok_or_else(|| perr("field `quarantine` must be an array".to_string()))?
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let tag = e
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| perr(format!("quarantine entry {i}: missing `stage`")))?;
                let stage = QuarantineStage::from_tag(tag)
                    .ok_or_else(|| perr(format!("quarantine entry {i}: unknown stage `{tag}`")))?;
                let opt_usize = |key: &str| match e.get(key) {
                    None | Some(Json::Null) => Ok(None),
                    Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
                        perr(format!("quarantine entry {i}: `{key}` must be an integer"))
                    }),
                };
                let config = match e.get("config") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_str().and_then(|s| s.parse::<u128>().ok()).ok_or_else(
                        || {
                            perr(format!(
                                "quarantine entry {i}: `config` must be a decimal u128 string"
                            ))
                        },
                    )?),
                };
                Ok(QuarantineEntry {
                    stage,
                    statement: opt_usize("statement")?,
                    version: opt_usize("version")?,
                    config,
                    reason: e
                        .get("reason")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| perr(format!("quarantine entry {i}: missing `reason`")))?,
                })
            })
            .collect::<Result<Vec<_>, BarracudaError>>()?;
        let objective = Objective::from_json(field("objective")?).map_err(&perr)?;
        let prov = field("provenance")?;
        let hot = prov
            .get("hot")
            .ok_or_else(|| perr("missing object field `hot`".to_string()))?;
        let provenance = PlanProvenance {
            n_evals: usize_field(prov, "n_evals")?,
            batches: usize_field(prov, "batches")?,
            space_size: u128_field(prov, "space_size")?,
            pool_size: usize_field(prov, "pool_size")?,
            wall_s: f64_field(prov, "wall_s")?,
            threads: usize_field(prov, "threads")?,
            quarantined_versions: usize_field(prov, "quarantined_versions")?,
            quarantined_configs: usize_field(prov, "quarantined_configs")?,
            cache_hit_rate: f64_field(prov, "cache_hit_rate")?,
            per_op_hit_rate: f64_field(prov, "per_op_hit_rate")?,
            time_hit_rate: f64_field(prov, "time_hit_rate")?,
            cache_hits: usize_field(prov, "cache_hits")?,
            cache_misses: usize_field(prov, "cache_misses")?,
            per_op_hits: usize_field(prov, "per_op_hits")?,
            per_op_misses: usize_field(prov, "per_op_misses")?,
            time_hits: usize_field(prov, "time_hits")?,
            time_misses: usize_field(prov, "time_misses")?,
            hot_decode_ns: u64_field(hot, "decode_ns")?,
            hot_map_ns: u64_field(hot, "map_ns")?,
            hot_sim_ns: u64_field(hot, "sim_ns")?,
            hot_predict_ns: u64_field(hot, "predict_ns")?,
            pruned_by_memory: usize_field(prov, "pruned_by_memory")?,
            versions_over_budget: usize_field(prov, "versions_over_budget")?,
            peak_temp_bytes: u64_field(prov, "peak_temp_bytes")?,
            rw_bytes: u64_field(prov, "rw_bytes")?,
            degraded: prov
                .get("degraded")
                .and_then(Json::as_bool)
                .ok_or_else(|| perr("missing boolean field `degraded`".to_string()))?,
            status: prov
                .get("status")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| perr("missing string field `status`".to_string()))?,
        };
        Ok(TunedPlan {
            source: str_field("source")?,
            dims,
            fingerprint: hex_field("fingerprint")?,
            backend: str_field("backend")?,
            cache_salt: hex_field("cache_salt")?,
            arch_name: str_field("arch_name")?,
            id: u128_field(&doc, "id")?,
            choices,
            gpu_seconds: f64_field(&doc, "gpu_seconds")?,
            transfer_seconds: f64_field(&doc, "transfer_seconds")?,
            flops: u64_field(&doc, "flops")?,
            quarantine,
            objective,
            provenance,
            workload_name,
        })
    }

    /// Writes the plan to `path` as JSON.
    pub fn save(&self, path: &std::path::Path) -> Result<(), BarracudaError> {
        std::fs::write(path, self.to_json_text()).map_err(|e| BarracudaError::Plan {
            workload: self.workload_name.clone(),
            detail: format!("cannot write {}: {e}", path.display()),
        })
    }

    /// Reads and parses a plan from `path`.
    pub fn load(path: &std::path::Path) -> Result<TunedPlan, BarracudaError> {
        let text = std::fs::read_to_string(path).map_err(|e| BarracudaError::Plan {
            workload: "plan".to_string(),
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::from_json_text(&text)
    }

    /// Reconstructs the plan's workload from its embedded source + dims.
    pub fn workload(&self) -> Result<Workload, BarracudaError> {
        let dims = self
            .dims
            .iter()
            .map(|(name, n)| (tensor::IndexVar::new(name.clone()), *n))
            .collect();
        let w = Workload::parse(&self.workload_name, &self.source, &dims)?;
        self.validate_for(&w)?;
        Ok(w)
    }

    /// Checks that `workload` is the one this plan was tuned for: the
    /// same source/dims fingerprint. A stale plan (the DSL or the extents
    /// changed since tuning) is a typed error, never a silently wrong
    /// kernel.
    pub fn validate_for(&self, workload: &Workload) -> Result<(), BarracudaError> {
        let actual = workload_fingerprint(workload);
        if actual != self.fingerprint {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "workload fingerprint {actual:016x} does not match plan fingerprint \
                     {:016x}: the statements or extents changed since tuning — re-tune \
                     instead of replaying",
                    self.fingerprint
                ),
            });
        }
        Ok(())
    }

    /// Checks that the plan was tuned under `expected`: a plan's winning
    /// configuration is only meaningful for the objective the search
    /// minimized, so replaying a memory-budgeted plan as if it were the
    /// time-optimal pick (or vice versa) is a typed [`BarracudaError::Plan`]
    /// — re-tune under the objective you want instead. Weights compare by
    /// f64 bits.
    pub fn validate_objective(&self, expected: &Objective) -> Result<(), BarracudaError> {
        if self.objective.same_as(expected) {
            return Ok(());
        }
        Err(BarracudaError::Plan {
            workload: self.workload_name.clone(),
            detail: format!(
                "plan was tuned under objective `{}` but replay requested `{}` — a plan \
                 only answers the objective it was searched for; re-tune instead of \
                 replaying",
                self.objective.describe(),
                expected.describe()
            ),
        })
    }

    /// Replays the plan against `workload`: validates the fingerprint and
    /// the backend cache salt (the plan's backend resolved in `set`),
    /// re-maps the saved configuration through `tuner` and re-times it
    /// through `cache` — no search. `tuner` must be built from `workload`;
    /// the serving daemon replays many warm requests against one cached
    /// tuner. The deterministic simulator reproduces the saved
    /// `gpu_seconds` bit-for-bit; a mismatch (an edited plan, a changed
    /// model) is reported as a typed error rather than trusted.
    pub fn replay_built_in(
        &self,
        set: &BackendSet,
        workload: &Workload,
        tuner: &WorkloadTuner,
        cache: &EvalCache,
    ) -> Result<TunedWorkload, BarracudaError> {
        self.validate_for(workload)?;
        let backend = set.get(&self.backend).ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!("unknown backend `{}` in plan", self.backend),
        })?;
        if self.cache_salt != backend.cache_salt() {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "plan cache salt {:016x} does not match backend `{}` salt {:016x}: the \
                     plan was tuned against a different model or architecture revision — \
                     re-tune instead of replaying",
                    self.cache_salt,
                    self.backend,
                    backend.cache_salt()
                ),
            });
        }
        let arch = backend.arch().ok_or_else(|| BarracudaError::Plan {
            workload: workload.name.clone(),
            detail: format!(
                "backend `{}` has no architecture to replay on",
                self.backend
            ),
        })?;
        if self.id >= tuner.total_space() {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "plan id {} exceeds the search space ({} configurations)",
                    self.id,
                    tuner.total_space()
                ),
            });
        }
        let locals = tuner.decode(self.id);
        let mut choices = Vec::new();
        let mut programs = Vec::new();
        for (k, (st, &local)) in tuner.statements.iter().zip(&locals).enumerate() {
            if let Some(saved) = self.choices.get(k) {
                if saved.local != local {
                    return Err(BarracudaError::Plan {
                        workload: workload.name.clone(),
                        detail: format!(
                            "statement {k}: plan id decomposes to local {local} but the plan \
                             recorded {} — the plan was edited inconsistently",
                            saved.local
                        ),
                    });
                }
            }
            let (v, config) = st.decode(local);
            programs.push(st.variants[v].program.clone());
            choices.push((v, config));
        }
        let kernels = tuner.kernels(self.id)?;
        let gpu_seconds = tuner.try_gpu_seconds_memo(self.id, arch, cache)?;
        if gpu_seconds.to_bits() != self.gpu_seconds.to_bits() {
            return Err(BarracudaError::Plan {
                workload: workload.name.clone(),
                detail: format!(
                    "replayed time {gpu_seconds} differs from saved {} — the plan no longer \
                     matches this build's performance model",
                    self.gpu_seconds
                ),
            });
        }
        let transfer_seconds = tuner.transfer_seconds(arch);
        let p = &self.provenance;
        Ok(TunedWorkload {
            name: workload.name.clone(),
            arch_name: arch.name.to_string(),
            id: self.id,
            choices,
            programs,
            kernels,
            gpu_seconds,
            transfer_seconds,
            flops: tuner.flops(self.id),
            search: SearchStats {
                n_evals: p.n_evals,
                batches: p.batches,
                evaluated_times: Vec::new(),
                space_size: p.space_size,
                pool_size: p.pool_size,
                cache_hits: p.cache_hits,
                cache_misses: p.cache_misses,
                wall_s: p.wall_s,
                threads: p.threads,
                quarantined_versions: p.quarantined_versions,
                quarantined_configs: p.quarantined_configs,
                per_op_hits: p.per_op_hits,
                per_op_misses: p.per_op_misses,
                time_hits: p.time_hits,
                time_misses: p.time_misses,
                // The replay never searches, so nothing was pruned here;
                // the original run's pools are unique by construction.
                duplicate_candidates: 0,
                pruned_by_memory: p.pruned_by_memory,
                versions_over_budget: p.versions_over_budget,
                peak_temp_bytes: p.peak_temp_bytes,
                rw_bytes: p.rw_bytes,
                hot: HotPathSnapshot {
                    decode_ns: p.hot_decode_ns,
                    map_ns: p.hot_map_ns,
                    sim_ns: p.hot_sim_ns,
                    predict_ns: p.hot_predict_ns,
                },
            },
            objective: self.objective,
            status: if p.degraded {
                // `status` carries the display form `degraded: <reason>`;
                // feed back the bare reason so replayed output is not
                // double-prefixed.
                SearchStatus::Degraded {
                    reason: p
                        .status
                        .strip_prefix("degraded: ")
                        .unwrap_or(&p.status)
                        .to_string(),
                }
            } else {
                SearchStatus::Complete
            },
            quarantine: QuarantineReport {
                entries: self.quarantine.clone(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_by_key, builtin_backends};
    use crate::pipeline::TuneParams;
    use tensor::index::uniform_dims;

    fn matmul(n: usize) -> Workload {
        Workload::parse(
            "mm",
            "C[i k] = Sum([j], A[i j] * B[j k])",
            &uniform_dims(&["i", "j", "k"], n),
        )
        .unwrap()
    }

    fn tuned_plan(n: usize) -> (WorkloadTuner, TunedPlan) {
        let w = matmul(n);
        let tuner = WorkloadTuner::build(&w);
        let tuned = tuner.autotune(&gpusim::k20(), TuneParams::quick()).unwrap();
        let k20 = backend_by_key("k20").unwrap();
        let plan = TunedPlan::from_tuned_for(&tuner, k20.as_ref(), &tuned);
        (tuner, plan)
    }

    fn replay(plan: &TunedPlan, tuner: &WorkloadTuner) -> Result<TunedWorkload, BarracudaError> {
        plan.replay_built_in(
            builtin_backends(),
            &tuner.workload,
            tuner,
            &EvalCache::new(),
        )
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (_, mut plan) = tuned_plan(16);
        // Exercise every field, including the ones a clean quick tune
        // leaves empty.
        plan.quarantine.push(QuarantineEntry {
            stage: QuarantineStage::Mapping,
            statement: Some(0),
            version: None,
            config: Some(u128::MAX),
            reason: "hostile \"reason\"\nwith newline".into(),
        });
        plan.provenance.hot_decode_ns = u64::MAX;
        let text = plan.to_json_text();
        let back = TunedPlan::from_json_text(&text).unwrap();
        assert_eq!(plan, back);
        assert_eq!(
            plan.gpu_seconds.to_bits(),
            back.gpu_seconds.to_bits(),
            "f64 fields must survive serialization bit-for-bit"
        );
    }

    #[test]
    fn v3_plans_carry_backend_salt_memo_counters_and_objective() {
        let (_, plan) = tuned_plan(16);
        let expected = backend_by_key("k20").unwrap().cache_salt();
        assert_eq!(plan.cache_salt, expected);
        assert_ne!(plan.cache_salt, 0);
        let p = &plan.provenance;
        assert!(
            p.time_hits + p.time_misses > 0,
            "a real search must record time-memo traffic"
        );
        assert!(plan.objective.is_time_only(), "default tune is time-only");
        assert!(
            p.rw_bytes > 0,
            "every real configuration moves some global memory"
        );
    }

    #[test]
    fn objective_round_trips_through_json() {
        let (_, mut plan) = tuned_plan(16);
        plan.objective = Objective {
            mem_budget: Some(123_456_789),
            budget_mode: crate::objective::BudgetMode::Penalize,
            ..Objective::balanced()
        };
        let back = TunedPlan::from_json_text(&plan.to_json_text()).unwrap();
        assert!(back.objective.same_as(&plan.objective));
        assert_eq!(back, plan);
    }

    #[test]
    fn foreign_objective_replay_is_a_typed_plan_error() {
        let (_, plan) = tuned_plan(16);
        plan.validate_objective(&Objective::time_only()).unwrap();
        let err = plan.validate_objective(&Objective::balanced()).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("objective"), "{err}");
    }

    #[test]
    fn replay_reproduces_the_tuned_time_without_searching() {
        let (tuner, plan) = tuned_plan(16);
        let replayed = replay(&plan, &tuner).unwrap();
        assert_eq!(replayed.id, plan.id);
        assert_eq!(replayed.gpu_seconds.to_bits(), plan.gpu_seconds.to_bits());
        assert!(replayed.cuda_source().contains("__global__"));
        // Replay reconstructs the memo counters, not zeros.
        assert_eq!(replayed.search.time_hits, plan.provenance.time_hits);
        assert_eq!(replayed.search.time_misses, plan.provenance.time_misses);
    }

    #[test]
    fn replayed_degraded_status_is_not_double_prefixed() {
        let (tuner, mut plan) = tuned_plan(16);
        plan.provenance.degraded = true;
        plan.provenance.status = "degraded: eval budget exhausted".into();
        match replay(&plan, &tuner).unwrap().status {
            SearchStatus::Degraded { reason } => {
                assert_eq!(reason, "eval budget exhausted");
            }
            SearchStatus::Complete => panic!("expected degraded status"),
        }
    }

    #[test]
    fn stale_fingerprint_is_a_typed_plan_error() {
        let (_, plan) = tuned_plan(16);
        // Same statements, different extents: a stale plan.
        let other = WorkloadTuner::build(&matmul(32));
        let err = replay(&plan, &other).unwrap_err();
        assert_eq!(err.stage(), "plan");
        assert_eq!(err.exit_code(), 10);
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn foreign_cache_salt_is_a_typed_plan_error() {
        let (tuner, plan) = tuned_plan(16);
        // A flipped salt and a zeroed one: no salt value skips the check.
        for salt in [plan.cache_salt ^ 1, 0] {
            let foreign = TunedPlan {
                cache_salt: salt,
                ..plan.clone()
            };
            let err = replay(&foreign, &tuner).unwrap_err();
            assert_eq!(err.stage(), "plan");
            assert_eq!(err.exit_code(), 10);
            assert!(err.to_string().contains("salt"), "{err}");
        }
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let (_, plan) = tuned_plan(16);
        for version in [1, 2, 999] {
            let text = plan.to_json_text().replace(
                "\"schema_version\": 3",
                &format!("\"schema_version\": {version}"),
            );
            let err = TunedPlan::from_json_text(&text).unwrap_err();
            assert_eq!(err.stage(), "plan");
            assert_eq!(err.exit_code(), 10);
            assert!(
                err.to_string()
                    .contains(&format!("schema version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn corrupt_json_is_a_typed_plan_error() {
        let err = TunedPlan::from_json_text("{not json").unwrap_err();
        assert_eq!(err.stage(), "plan");
        let err = TunedPlan::from_json_text("{\"schema_version\": 3}").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
