//! The tune workloads. `tune-cold` tunes every builtin once on `k20`
//! with a fresh session each and no store; `tune-sweep` tunes the
//! Table II workloads plus a seeded NWChem draw on every backend through
//! one store-backed session per pass.
//!
//! The untraced pass calls the session exactly as `TuningSession::tune`
//! and `TuningSession::tune_all` do, timing each call. The traced pass
//! rebuilds the same work from the public stage functions
//! (`autotune_joint` step by step), spanning each stage, and must pick
//! the same configuration with the same timing bits.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use barracuda::backend::{tune_all_backends_with, Backend};
use barracuda::stages::{evaluate, lower, space, LoweredVersions};
use barracuda::{
    kernels, BarracudaError, EvalCache, PlanSource, SearchStats, TuneParams, TunedPlan,
    TunedWorkload, TunerEvaluator, TuningSession, Workload, WorkloadTuner,
};
use surf::surf_search_parallel;

use crate::clock::Stopwatch;
use crate::reference::{Ledger, Pick, Reference};
use crate::trace::{SpanId, TimedEvaluator, Trace};

/// Work counters that repeat exactly for a given seed.
pub type Counters = BTreeMap<&'static str, u64>;

/// Per-layer figures of a traced pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// `(workload, backend)` → pick, in tune order.
pub type Picks = Vec<((String, String), Pick)>;

fn add(m: &mut Layers, k: &'static str, v: f64) {
    *m.entry(k).or_default() += v;
}

fn count(c: &mut Counters, k: &'static str, v: u64) {
    *c.entry(k).or_default() += v;
}

/// Which tune workload a pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Sweep,
}

impl Kind {
    /// The workload names one pass tunes, in order.
    pub fn set(self, seed: u64) -> Vec<String> {
        match self {
            Kind::Cold => crate::gen::cold_order(seed),
            Kind::Sweep => crate::gen::sweep_set(seed),
        }
    }
}

/// What one untraced pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of every tune call.
    pub call_s: Vec<f64>,
    /// Wall time of the whole tune set (calls plus lowering and derived
    /// backends on the sweep; no set-up, no replays).
    pub total_s: f64,
    /// Timed replays of the [`ReplayProbe`]'s plans.
    pub replay_us: Vec<f64>,
    pub picks: Picks,
    pub pick_gpu_s: Vec<f64>,
    pub counters: Counters,
}

/// The inputs of one pass, built during set-up: each workload with the
/// session it is tuned through.
struct Inputs {
    workloads: Vec<Workload>,
    sessions: Vec<TuningSession>,
}

/// Builds a pass's inputs: the workloads from their builtin names, and a
/// fresh session per workload (`tune-cold`) or one session over a fresh
/// empty store at `store` (`tune-sweep`).
fn set_up(kind: Kind, names: &[String], store: &Path) -> Result<Inputs, BarracudaError> {
    let workloads = names
        .iter()
        .map(|n| kernels::builtin(n).expect("generated names are builtins"))
        .collect::<Vec<_>>();
    let sessions = match kind {
        Kind::Cold => workloads.iter().map(|_| TuningSession::new()).collect(),
        Kind::Sweep => {
            let _ = std::fs::remove_dir_all(store);
            vec![TuningSession::with_store(store)?]
        }
    };
    Ok(Inputs {
        workloads,
        sessions,
    })
}

/// Times set-up alone (what a pass pays before its first call).
pub fn setup_only(kind: Kind, seed: u64, store: &Path) -> Result<f64, BarracudaError> {
    let names = kind.set(seed);
    let t = Instant::now();
    let inputs = set_up(kind, &names, store)?;
    let s = t.elapsed().as_secs_f64();
    drop(inputs);
    Ok(s)
}

/// The workload whose plan replays are timed (`replay_us`): in every
/// tune set, and the same from seed to seed. Replay cost differs by
/// workload in steps (one statement or three, one kernel or many), so a
/// percentile over a mix of workloads sits on a step and jumps. eqn1 has
/// one statement, so its replay does not go through the thread pool, and
/// its tuner, which the probe holds for the whole run, takes 27 MB
/// (tce's takes 180 MB, which would count in every pass's `peak_rss_mb`).
const TIMED_REPLAY_WORKLOAD: &str = "eqn1";

/// The timed warm path of a tune workload: the plan of
/// [`TIMED_REPLAY_WORKLOAD`] on `k20`, tuned once before the passes and
/// replayed between the tune calls of every pass through a session of
/// its own, as a fresh `replay` would. On a shared virtual machine the
/// time of one replay switches between levels about 1.6× apart (16 and
/// 26 µs for tce, in one process, on the same objects) for seconds at a
/// time, so replays timed in one burst all land in one level; spread
/// over the whole run they sample every level.
pub struct ReplayProbe {
    session: TuningSession,
    tuner: WorkloadTuner,
    plan: TunedPlan,
    pick: Pick,
    /// Timed replays per gap: 31 gaps a pass on tune-cold and 12 on
    /// tune-sweep make 93 and 96 a pass.
    timed: usize,
}

impl ReplayProbe {
    /// Tunes the probe's plan, checks its pick and drops the tuning
    /// session, whose cache would otherwise count in every pass's
    /// `peak_rss_mb`.
    pub fn prepare(
        kind: Kind,
        params: TuneParams,
        reference: &Reference,
        ledger: &mut Ledger,
    ) -> Result<ReplayProbe, BarracudaError> {
        let w = kernels::builtin(TIMED_REPLAY_WORKLOAD).expect("a builtin");
        let tuner = WorkloadTuner::build(&w);
        let out = TuningSession::new().tune_built(&tuner, "k20", params)?;
        let pick = Pick::new(out.tuned.id, out.tuned.gpu_seconds);
        ledger.record(reference.check(TIMED_REPLAY_WORKLOAD, "k20", pick));
        Ok(ReplayProbe {
            session: TuningSession::new(),
            tuner,
            plan: out.plan,
            pick,
            timed: match kind {
                Kind::Cold => 3,
                Kind::Sweep => 8,
            },
        })
    }

    /// Replays the plan once untimed (the tune call that ran before has
    /// evicted its data from the CPU caches) and then `timed` times,
    /// timed, into `pass.replay_us`; checks that every replay reproduces
    /// the pick.
    pub fn replay(&self, pass: &mut Pass, ledger: &mut Ledger) {
        let w = &self.tuner.workload;
        let cache = self.session.cache_for(w);
        for i in 0..=self.timed {
            let t = Instant::now();
            let r = self
                .plan
                .replay_built_in(self.session.backends(), w, &self.tuner, &cache);
            if i > 0 {
                pass.replay_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            ledger.record(replay_failure(TIMED_REPLAY_WORKLOAD, "k20", r, self.pick));
        }
    }
}

fn replay_failure(
    name: &str,
    backend: &str,
    r: Result<TunedWorkload, BarracudaError>,
    pick: Pick,
) -> Option<String> {
    match r {
        Err(e) => Some(format!("replay of {name} on {backend} failed: {e}")),
        Ok(t) if Pick::new(t.id, t.gpu_seconds) != pick => Some(format!(
            "replay of {name} on {backend} differs from its stored plan"
        )),
        Ok(_) => None,
    }
}

/// Replays a pick's plan once through its session — the warm path a
/// store hit takes — and checks that it reproduces the pick.
fn check_replay(
    session: &TuningSession,
    backend: &str,
    tuner: &WorkloadTuner,
    plan: &TunedPlan,
    pick: Pick,
    ledger: &mut Ledger,
) {
    let w = &tuner.workload;
    let r = plan.replay_built_in(session.backends(), w, tuner, &session.cache_for(w));
    ledger.record(replay_failure(&w.name, backend, r, pick));
}

fn note_pick(
    pass: &mut Pass,
    ledger: &mut Ledger,
    reference: &Reference,
    workload: &str,
    backend: &str,
    tuned: &TunedWorkload,
) -> Pick {
    let pick = Pick::new(tuned.id, tuned.gpu_seconds);
    ledger.record(reference.check(workload, backend, pick));
    pass.picks
        .push(((workload.to_string(), backend.to_string()), pick));
    pass.pick_gpu_s.push(tuned.gpu_seconds);
    let s = &tuned.search;
    let c = &mut pass.counters;
    count(c, "tune.calls", 1);
    count(c, "surf.evals", s.n_evals as u64);
    count(c, "surf.rounds", s.batches as u64);
    count(c, "cache.feature_hits", (s.cache_hits - s.time_hits) as u64);
    count(
        c,
        "cache.feature_misses",
        (s.cache_misses - s.time_misses) as u64,
    );
    count(c, "cache.time_hits", s.time_hits as u64);
    count(c, "cache.time_misses", s.time_misses as u64);
    count(c, "cache.op_hits", s.per_op_hits as u64);
    count(c, "cache.op_misses", s.per_op_misses as u64);
    pick
}

/// One untraced pass. `between` runs after each tune call of tune-cold
/// and after each call on a Table II workload of tune-sweep, outside
/// every timed interval. On the sweep it skips the seeded NWChem draw:
/// after some of those kernels' calls (s1_2's) the probe's replay takes
/// 60–80 µs instead of 10–25 µs, which would tie the probe to the draw.
pub fn run_pass(
    kind: Kind,
    seed: u64,
    params: TuneParams,
    reference: &Reference,
    store: &Path,
    ledger: &mut Ledger,
    between: &mut dyn FnMut(&mut Pass, &mut Ledger),
) -> Result<Pass, BarracudaError> {
    let names = kind.set(seed);
    let mut pass = Pass::default();
    let inputs = set_up(kind, &names, store)?;
    let pass_sw = Stopwatch::start();
    let mut sessions = inputs.sessions.into_iter();
    let sweep_session = match kind {
        Kind::Sweep => sessions.next(),
        Kind::Cold => None,
    };
    let mut entries = 0;
    for (name, w) in names.iter().zip(&inputs.workloads) {
        match kind {
            Kind::Cold => {
                // Each session is dropped after its workload, as when
                // every tune is its own CLI process.
                let session = sessions.next().expect("one session per workload");
                // `TuningSession::tune`, keeping the tuner for the replay.
                let sw = Stopwatch::start();
                let tuner = WorkloadTuner::build(w);
                let out = session.tune_built(&tuner, "k20", params);
                let dt = sw.elapsed().secs;
                pass.call_s.push(dt);
                pass.total_s += dt;
                match out {
                    Err(e) => ledger.record(Some(format!("tune {name}: {e}"))),
                    Ok(out) => {
                        let pick = note_pick(&mut pass, ledger, reference, name, "k20", &out.tuned);
                        check_replay(&session, "k20", &tuner, &out.plan, pick, ledger);
                    }
                }
                entries += session.cache_for(w).len();
                between(&mut pass, ledger);
            }
            Kind::Sweep => {
                let session = sweep_session.as_ref().expect("the sweep has one session");
                // `TuningSession::tune_all`, timing each backend's call.
                let set_sw = Stopwatch::start();
                let tuner = WorkloadTuner::build(w);
                let mut plans = Vec::new();
                // Time spent in `between`, taken out of the set's time.
                let mut paused = 0.0;
                let swept = tune_all_backends_with(session.backends(), &tuner, |b, _| {
                    let sw = Stopwatch::start();
                    let out = session.tune_built(&tuner, b.key(), params);
                    pass.call_s.push(sw.elapsed().secs);
                    if crate::gen::TABLE2.contains(&name.as_str()) {
                        let gap = Stopwatch::start();
                        between(&mut pass, ledger);
                        paused += gap.elapsed().secs;
                    }
                    let out = out?;
                    if !matches!(out.source, PlanSource::Searched { stored: Some(_) }) {
                        ledger.fail(format!(
                            "{name} on {}: not stored: {:?}",
                            b.key(),
                            out.source
                        ));
                    }
                    plans.push((b.key().to_string(), out.plan));
                    Ok(out.tuned)
                });
                pass.total_s += set_sw.elapsed().secs - paused;
                match swept {
                    Err(e) => ledger.record(Some(format!("sweep {name}: {e}"))),
                    Ok(rows) => {
                        for row in rows {
                            let Some(tuned) = &row.tuned else { continue };
                            let pick =
                                note_pick(&mut pass, ledger, reference, name, &row.key, tuned);
                            let plan = plans.iter().find(|(k, _)| *k == row.key);
                            if let Some((key, plan)) = plan {
                                check_replay(session, key, &tuner, plan, pick, ledger);
                            }
                        }
                    }
                }
                entries += session.cache_for(w).len();
            }
        }
    }
    count(&mut pass.counters, "cache.entries", entries as u64);
    if let Some(store) = sweep_session.as_ref().and_then(TuningSession::store) {
        // Read from the store itself, not from the calls made.
        count(
            &mut pass.counters,
            "store.inserts",
            store.entries()?.len() as u64,
        );
    }
    // Replays are too short to read steal for; scale by the pass's share.
    let e = pass_sw.elapsed();
    for us in &mut pass.replay_us {
        *us = e.adjust(*us);
    }
    Ok(pass)
}

/// What one traced pass measured.
#[derive(Debug, Default)]
pub struct TracedPass {
    pub layers: Layers,
    pub picks: Picks,
}

/// A traced tune: the result, its plan, and the ids the search evaluated.
pub struct Traced {
    pub tuned: TunedWorkload,
    pub plan: TunedPlan,
    pub evaluated: Vec<u128>,
}

/// `autotune_joint` for the default objective, rebuilt from public stage
/// calls with a span per stage, followed by the plan capture
/// `TuningSession::tune_built` does. Returns the result and its plan.
#[allow(clippy::too_many_arguments)]
pub fn traced_autotune(
    tr: &Trace,
    parent: SpanId,
    req: u64,
    tuner: &WorkloadTuner,
    backend: &dyn Backend,
    params: &TuneParams,
    cache: &EvalCache,
    layers: &mut Layers,
) -> Result<Traced, BarracudaError> {
    let workload = &tuner.workload;
    let statements = &tuner.statements[..];
    let arch = backend.arch().ok_or_else(|| BarracudaError::Search {
        workload: workload.name.clone(),
        detail: format!("backend `{}` is not searchable", backend.key()),
    })?;
    let (mem_table, pool) = tr.span("space", Some(parent), req, |_| {
        (
            lower::version_memory_table(statements),
            space::joint_pool(statements, params.pool_cap, params.seed),
        )
    });
    add(layers, "space.pool", pool.len() as f64);

    let evaluator = TunerEvaluator::new(tuner, arch, cache, params);
    let timed = TimedEvaluator::new(&evaluator);
    let (h0, m0) = cache.stats();
    let (th0, tm0) = cache.time_stats();
    let (oh0, om0) = cache.op_stats();
    let hot0 = cache.hot().snapshot();
    let (surf_id, result) = tr.span("surf", Some(parent), req, |id| {
        (id, surf_search_parallel(&pool, &timed, params.surf))
    });
    let result = result.map_err(|e| BarracudaError::Search {
        workload: workload.name.clone(),
        detail: e.to_string(),
    })?;
    let (h1, m1) = cache.stats();
    let (th1, tm1) = cache.time_stats();
    let (oh1, om1) = cache.op_stats();
    let mut hot = cache.hot().snapshot().delta(&hot0);
    hot.predict_ns = result.predict_ns;
    add(layers, "surf.self_s", tr.secs(surf_id) - timed.any.secs());
    add(layers, "surf.evals", result.n_evals() as f64);
    add(layers, "surf.rounds", result.batches as f64);
    add(layers, "featurize.s", timed.featurize.secs());
    add(layers, "featurize.rows", timed.featurize.calls() as f64);
    add(layers, "evaluate.s", timed.evaluate.secs());
    add(layers, "evaluate.calls", timed.evaluate.calls() as f64);
    let (fh, fm) = ((h1 - h0) - (th1 - th0), (m1 - m0) - (tm1 - tm0));
    add(layers, "cache.feature_hits", fh as f64);
    add(layers, "cache.feature_lookups", (fh + fm) as f64);
    add(layers, "cache.time_hits", (th1 - th0) as f64);
    add(
        layers,
        "cache.time_lookups",
        ((th1 - th0) + (tm1 - tm0)) as f64,
    );
    add(layers, "cache.op_hits", (oh1 - oh0) as f64);
    add(
        layers,
        "cache.op_lookups",
        ((oh1 - oh0) + (om1 - om0)) as f64,
    );

    tr.span("pick", Some(parent), req, |_| {
        let mut best: Option<(u128, f64)> = None;
        for &(cand, _) in &result.evaluated {
            let s = evaluator.time(cand);
            let better = best.is_none_or(|(_, bs)| s < bs);
            if s.is_finite() && better {
                best = Some((cand, s));
            }
        }
        let id = best.map_or(result.best_id, |(id, _)| id);
        let locals = lower::decode_joint(statements, id);
        let mut choices = Vec::new();
        let mut programs = Vec::new();
        for (s, &local) in statements.iter().zip(&locals) {
            let (v, config) = s.decode(local);
            programs.push(s.variants[v].program.clone());
            choices.push((v, config));
        }
        let kernels = lower::map_joint(workload, statements, id)?;
        let mut quarantine = lower::build_quarantine(statements);
        for (cid, reason) in &result.quarantined {
            quarantine.record_config(None, *cid, reason.clone());
        }
        let gpu_seconds = evaluate::joint_gpu_seconds(workload, statements, id, arch)?;
        let (peak_temp_bytes, rw_bytes) =
            lower::joint_memory_from_table(statements, &mem_table, id);
        let tuned = TunedWorkload {
            name: workload.name.clone(),
            arch_name: arch.name.to_string(),
            id,
            choices,
            programs,
            kernels,
            gpu_seconds,
            transfer_seconds: evaluate::transfer_seconds(workload, arch),
            flops: lower::joint_flops(statements, id),
            search: SearchStats {
                n_evals: result.n_evals(),
                batches: result.batches,
                evaluated_times: result.evaluated.iter().map(|(_, t)| *t).collect(),
                space_size: lower::total_space(statements),
                pool_size: pool.len(),
                cache_hits: h1 - h0,
                cache_misses: m1 - m0,
                wall_s: result.wall_s,
                threads: result.threads,
                quarantined_versions: quarantine.versions(),
                quarantined_configs: quarantine.configs(),
                per_op_hits: oh1 - oh0,
                per_op_misses: om1 - om0,
                time_hits: th1 - th0,
                time_misses: tm1 - tm0,
                duplicate_candidates: result.duplicates_pruned,
                pruned_by_memory: 0,
                versions_over_budget: 0,
                peak_temp_bytes,
                rw_bytes,
                hot,
            },
            objective: params.objective,
            status: result.status.clone(),
            quarantine,
        };
        black_box(tuned.cuda_source());
        let plan = TunedPlan::from_tuned_for(tuner, backend, &tuned);
        let evaluated = result.evaluated.iter().map(|&(id, _)| id).collect();
        Ok(Traced {
            tuned,
            plan,
            evaluated,
        })
    })
}

/// Re-times mapping (`WorkloadTuner::kernels`) and simulation
/// (`gpusim::time_kernel`) of every evaluated id, unmemoized, to split
/// `evaluate.s` into its two layers. Runs outside the tune spans.
fn retime_map_sim(
    tuner: &WorkloadTuner,
    arch: &gpusim::GpuArch,
    ids: &[u128],
    layers: &mut Layers,
) {
    for &id in ids {
        let t = Instant::now();
        let kernels = tuner.kernels(id);
        add(layers, "tcr.map_s", t.elapsed().as_secs_f64());
        if let Ok(kernels) = kernels {
            let t = Instant::now();
            for k in kernels.iter().flatten() {
                black_box(gpusim::time_kernel(k, arch));
            }
            add(layers, "gpusim.sim_s", t.elapsed().as_secs_f64());
        }
    }
}

fn lower_traced(
    tr: &Trace,
    parent: SpanId,
    req: u64,
    w: &Workload,
    layers: &mut Layers,
) -> WorkloadTuner {
    let tuner = tr.span("lower", Some(parent), req, |_| {
        WorkloadTuner::from_lowered(w.clone(), LoweredVersions::build(w))
    });
    let versions: usize = tuner.statements.iter().map(|s| s.variants.len()).sum();
    add(layers, "lower.versions", versions as f64);
    tuner
}

/// Summed intervals: plain wall seconds and seconds with stolen CPU time
/// taken out.
#[derive(Clone, Copy, Debug, Default)]
struct Walls {
    wall: f64,
    secs: f64,
}

impl Walls {
    fn add(&mut self, e: crate::clock::Elapsed) {
        self.wall += e.wall;
        self.secs += e.secs;
    }
}

/// The picks of the program's own, untraced tune of one workload: a
/// `TuningSession::tune` on `k20` (tune-cold) or a
/// `TuningSession::tune_all` (tune-sweep) through `session`. Adds the
/// call's time, lowering included, to `walls`.
fn program_picks(
    kind: Kind,
    session: &TuningSession,
    name: &str,
    w: &Workload,
    params: TuneParams,
    walls: &mut Walls,
) -> Result<Picks, BarracudaError> {
    let sw = Stopwatch::start();
    let tuner = WorkloadTuner::build(w);
    let tuned: Vec<(String, TunedWorkload)> = match kind {
        Kind::Cold => vec![(
            "k20".to_string(),
            session.tune_built(&tuner, "k20", params)?.tuned,
        )],
        Kind::Sweep => session
            .tune_all(&tuner, params)?
            .rows
            .into_iter()
            .filter_map(|r| Some((r.key, r.tuned?)))
            .collect(),
    };
    walls.add(sw.elapsed());
    Ok(tuned
        .into_iter()
        .map(|(key, t)| ((name.to_string(), key), Pick::new(t.id, t.gpu_seconds)))
        .collect())
}

/// One traced pass: the same tune set as [`run_pass`], every stage
/// spanned. The root spans (`tune.call` on tune-cold, `tune.set` on the
/// sweep) sum to the rebuilt tune wall. Next to each rebuilt tune the
/// program's own tune of the same workload runs untraced, with a session
/// (and on the sweep a store) of its own: its wall is the base of
/// `unattributed.share` and `trace.overhead`, and the rebuild must pick
/// exactly what it picked.
pub fn run_traced_pass(
    kind: Kind,
    seed: u64,
    params: TuneParams,
    reference: &Reference,
    store: &Path,
    tr: &Trace,
    ledger: &mut Ledger,
) -> Result<TracedPass, BarracudaError> {
    let names = kind.set(seed);
    let mut out = TracedPass::default();
    let layers = &mut out.layers;
    let mut retime: Vec<(Rc<WorkloadTuner>, String, Vec<u128>)> = Vec::new();
    let program_store = store.with_file_name("program-store");
    let (store_session, program_session) = match kind {
        Kind::Sweep => {
            let _ = std::fs::remove_dir_all(store);
            let _ = std::fs::remove_dir_all(&program_store);
            (
                Some(TuningSession::with_store(store)?),
                Some(TuningSession::with_store(&program_store)?),
            )
        }
        Kind::Cold => (None, None),
    };
    let mut program_s = Walls::default();
    let mut rebuilt_s = Walls::default();
    for (i, name) in names.iter().enumerate() {
        let req = i as u64;
        let w = tr
            .span("frontend", None, req, |_| kernels::builtin(name))
            .expect("generated names are builtins");
        let fresh;
        let program = match &program_session {
            Some(s) => s,
            None => {
                fresh = TuningSession::new();
                &fresh
            }
        };
        // Program first on even workloads, rebuild first on odd ones, so
        // neither gains from running second (warm allocator, caches).
        let mut untraced =
            (i % 2 == 0).then(|| program_picks(kind, program, name, &w, params, &mut program_s));
        let first_pick = out.picks.len();
        match kind {
            Kind::Cold => {
                let session = TuningSession::new();
                let backend = session
                    .backends()
                    .get("k20")
                    .expect("k20 is built in")
                    .clone();
                let root_sw = Stopwatch::start();
                let r = tr.span("tune.call", None, req, |id| {
                    let tuner = lower_traced(tr, id, req, &w, layers);
                    let cache = session.cache_for(&w);
                    let r = traced_autotune(
                        tr,
                        id,
                        req,
                        &tuner,
                        backend.as_ref(),
                        &params,
                        &cache,
                        layers,
                    );
                    add(layers, "cache.entries", cache.len() as f64);
                    (tuner, r)
                });
                rebuilt_s.add(root_sw.elapsed());
                let (tuner, r) = r;
                match r {
                    Err(e) => ledger.record(Some(format!("traced tune {name}: {e}"))),
                    Ok(t) => {
                        let pick = Pick::new(t.tuned.id, t.tuned.gpu_seconds);
                        ledger.record(reference.check(name, "k20", pick));
                        out.picks.push(((name.clone(), "k20".to_string()), pick));
                        retime.push((Rc::new(tuner), "k20".to_string(), t.evaluated));
                    }
                }
            }
            Kind::Sweep => {
                let session = store_session.as_ref().expect("sweep has a store session");
                let plan_store = session.store().expect("sweep session has a store");
                let root_sw = Stopwatch::start();
                let r = tr.span("tune.set", None, req, |set_id| {
                    let tuner = lower_traced(tr, set_id, req, &w, layers);
                    let cache = session.cache_for(&w);
                    let mut last_end = Instant::now();
                    let mut tuned_ids = Vec::new();
                    let swept = tune_all_backends_with(session.backends(), &tuner, |b, _| {
                        let r = tr.span("tune.call", Some(set_id), req, |id| {
                            let key = session.key_for(&w, b.key())?;
                            let t = Instant::now();
                            let hit = plan_store.lookup(&key)?;
                            tr.record("store.lookup", Some(id), req, t.elapsed());
                            if hit.is_some() {
                                return Err(BarracudaError::Store {
                                    detail: format!("fresh store already holds {key}"),
                                });
                            }
                            let t =
                                traced_autotune(tr, id, req, &tuner, b, &params, &cache, layers)?;
                            let start = Instant::now();
                            plan_store.insert(&t.plan)?;
                            tr.record("store.insert", Some(id), req, start.elapsed());
                            tuned_ids.push((b.key().to_string(), t.evaluated));
                            Ok(t.tuned)
                        });
                        last_end = Instant::now();
                        r
                    });
                    tr.record("derived", Some(set_id), req, last_end.elapsed());
                    add(layers, "cache.entries", cache.len() as f64);
                    (tuner, swept, tuned_ids)
                });
                rebuilt_s.add(root_sw.elapsed());
                let (tuner, swept, tuned_ids) = r;
                match swept {
                    Err(e) => ledger.record(Some(format!("traced sweep {name}: {e}"))),
                    Ok(rows) => {
                        for row in rows {
                            if let Some(tuned) = &row.tuned {
                                let pick = Pick::new(tuned.id, tuned.gpu_seconds);
                                ledger.record(reference.check(name, &row.key, pick));
                                out.picks.push(((name.clone(), row.key.clone()), pick));
                            }
                        }
                        let tuner = Rc::new(tuner);
                        for (key, ids) in tuned_ids {
                            retime.push((Rc::clone(&tuner), key, ids));
                        }
                    }
                }
            }
        }
        let untraced = untraced
            .take()
            .unwrap_or_else(|| program_picks(kind, program, name, &w, params, &mut program_s));
        let same = untraced
            .as_ref()
            .is_ok_and(|picks| picks[..] == out.picks[first_pick..]);
        ledger.record((!same).then(|| {
            format!("the traced tune of {name} differs from the program's: {untraced:?}")
        }));
    }
    let _ = std::fs::remove_dir_all(&program_store);
    for (tuner, key, ids) in &retime {
        let arch = gpusim::arch_by_key(key).expect("searchable backends are built-in archs");
        retime_map_sim(tuner, &arch, ids, layers);
    }
    // Span name → (seconds metric, count metric).
    for (span, secs, count) in [
        ("frontend", "frontend.s", None),
        ("lower", "lower.s", None),
        ("space", "space.s", None),
        ("pick", "pick.s", None),
        ("derived", "derived.s", None),
        ("store.lookup", "store.lookup_s", Some("store.lookups")),
        ("store.insert", "store.insert_s", Some("store.inserts")),
    ] {
        let (s, n) = tr.total(span);
        add(layers, secs, s);
        if let Some(count) = count {
            add(layers, count, n as f64);
        }
    }
    // Every layer inside the tune wall: stages, the search with the
    // callbacks it made, store calls, derived backends.
    let covered: f64 = [
        "lower",
        "space",
        "surf",
        "pick",
        "store.lookup",
        "store.insert",
        "derived",
    ]
    .iter()
    .map(|n| tr.total(n).0)
    .sum();
    // The spans are plain wall time; take out the rebuild's stolen share
    // to compare them with the program's time.
    let covered_s = covered * rebuilt_s.secs / rebuilt_s.wall;
    add(layers, "unattributed.s", program_s.secs - covered_s);
    add(layers, "tune_wall.s", program_s.secs);
    add(layers, "rebuilt_wall.s", rebuilt_s.secs);
    Ok(out)
}
