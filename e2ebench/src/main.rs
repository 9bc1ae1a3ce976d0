//! End-to-end and per-layer benchmark for Barracuda.
//!
//! ```text
//! e2ebench --workload <tune-cold|tune-sweep|serve-mixed> --seed N --seconds S --trace <0|1>
//! e2ebench --record-reference
//! e2ebench --setup-only --workload <name> --seed N --seconds S --trace 0
//! ```
//!
//! Drives the library in-process, one workload per process, and prints
//! as its last line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). See `README.md` next to this crate for what each workload
//! and metric is for.

mod clock;
mod gen;
mod reference;
mod serve;
mod stats;
mod trace;
mod tune;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use barracuda::{kernels, TuneParams, TuningSession, WorkloadTuner};

use reference::{Ledger, Pick, Reference};
use trace::Trace;
use tune::{Counters, Kind, Layers, ReplayProbe};

/// Seconds of `--seconds` budget per measured tune pass: a pass takes
/// 10–13 s on a 2-vCPU x86 virtual machine, so a 30 s budget makes two.
/// The count depends on `--seconds` alone, never on speed, so a seed
/// always does the same work.
const SECONDS_PER_PASS: u64 = 15;

/// Seconds of `--seconds` budget per serve round. A round takes 8–13 s,
/// so a 30 s budget makes three: the warm `.tail` (p99.9) stands on the
/// slowest 0.1 % of the warm requests, and a third round gives it half
/// as many again.
const SECONDS_PER_ROUND: u64 = 10;

/// Fresh processes set up per serve-mixed run (the median of their
/// set-up times is reported as `setup_s`), in even batches before,
/// between and after the rounds so the median spans the whole run: four
/// batches of 13 at three rounds.
const SETUP_SAMPLES: usize = 52;

/// Fresh processes set up in each gap between tune calls (124 a run on
/// tune-cold, 48 on tune-sweep), so the median of `setup_s` spans the
/// whole run.
const SETUPS_PER_GAP: usize = 2;

/// Makes the process do the workload's set-up once, print its set-up
/// time and exit: how [`setup_samples`] samples a fresh process.
const SETUP_ONLY: &str = "--setup-only";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record-reference") {
        return Ok(None);
    }
    let setup_only = argv.iter().any(|a| a == SETUP_ONLY);
    argv.retain(|a| a != SETUP_ONLY);
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Some(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
        setup_only,
    }))
}

/// Name → (value, unit), printed in the result line.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Everything a run reports.
struct Outcome {
    metrics: Metrics,
    ledger: Ledger,
    /// Problems that make the run incorrect besides failed operations.
    broken: Vec<String>,
    counters: Counters,
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn med(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Median and `.tail` of `xs` under `name`, with the tail's percentile
/// and sample count on a detail line.
fn p50_tail(
    m: &mut Metrics,
    p50: &'static str,
    tail: &'static str,
    unit: &'static str,
    xs: &[f64],
) {
    m.set(p50, med(xs), unit);
    let t = stats::tail(xs);
    m.set(tail, t.map_or(0.0, |t| t.value), unit);
    if let Some(t) = t {
        println!(
            "# {tail} = p{:.1} of {} samples = {} {unit}",
            t.percentile, t.samples, t.value
        );
    }
}

/// Checks that every pass did the same work and picked the same.
fn same_across<T: PartialEq + std::fmt::Debug>(what: &str, xs: &[T], broken: &mut Vec<String>) {
    if let Some(first) = xs.first() {
        for (i, x) in xs.iter().enumerate().skip(1) {
            if x != first {
                broken.push(format!(
                    "{what} of pass {i} differ from pass 0: {x:?} vs {first:?}"
                ));
            }
        }
    }
}

/// The counters that must repeat exactly. The per-op memo counters are
/// left out: two rayon workers can miss the same per-op key at once, so
/// its hit/miss split varies by a few lookups from run to run.
fn exact(c: &Counters) -> Counters {
    c.iter()
        .filter(|(k, _)| !k.starts_with("cache.op_"))
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Does the workload's set-up once in this process and returns its time.
fn setup_once(args: &Args, work: &Path) -> Result<f64, String> {
    let e = |e: barracuda::BarracudaError| e.to_string();
    match args.workload.as_str() {
        "tune-cold" => tune::setup_only(Kind::Cold, args.seed, &work.join("store")).map_err(e),
        "tune-sweep" => tune::setup_only(Kind::Sweep, args.seed, &work.join("store")).map_err(e),
        "serve-mixed" => {
            serve::setup_only(&work.join("round"), gen::client_count(gen::nproc())).map_err(e)
        }
        w => Err(format!("unknown workload {w}")),
    }
}

/// Set-up times of `n` fresh processes of this benchmark, run one at a
/// time with `--setup-only` (none when traced: `setup_s` is end-to-end).
/// A fresh process pays every one-time initialisation the program does
/// on its first set-up, which repeated set-ups in one process would pay
/// only once and a median would hide.
fn setup_samples(args: &Args, n: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    if args.trace {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    for _ in 0..n {
        let out = std::process::Command::new(&exe)
            .args([SETUP_ONLY, "--workload", &args.workload])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match secs {
            Some(s) if out.status.success() => samples.push(s),
            _ => {
                return Err(format!(
                    "set-up process failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(())
}

fn passes(seconds: u64, per_pass: u64) -> usize {
    (seconds / per_pass).max(1) as usize
}

fn run_tune(kind: Kind, args: &Args, work: &Path) -> Result<Outcome, String> {
    let params = TuneParams::paper();
    let reference = Reference::builtin();
    let mut ledger = Ledger::default();
    let mut broken = Vec::new();
    let store = work.join("store");
    let e = |e: barracuda::BarracudaError| e.to_string();
    let mut metrics = Metrics::default();

    let n = if args.trace {
        1
    } else {
        passes(args.seconds, SECONDS_PER_PASS)
    };
    // The timed replays and the set-up samples run between the tune
    // calls, spread over the whole run; neither is a per-layer metric.
    let probe = if args.trace {
        None
    } else {
        Some(ReplayProbe::prepare(kind, params, &reference, &mut ledger).map_err(e)?)
    };
    let mut setup = Vec::new();
    let mut setup_err = None;
    let mut runs = Vec::new();
    let mut peaks = Vec::new();
    for _ in 0..n {
        reset_peak_rss();
        let mut between = |pass: &mut tune::Pass, ledger: &mut Ledger| {
            if let Err(err) = setup_samples(args, SETUPS_PER_GAP, &mut setup) {
                setup_err.get_or_insert(err);
            }
            if let Some(p) = &probe {
                p.replay(pass, ledger);
            }
        };
        let pass = tune::run_pass(
            kind,
            args.seed,
            params,
            &reference,
            &store,
            &mut ledger,
            &mut between,
        );
        runs.push(pass.map_err(e)?);
        peaks.push(peak_rss_mb());
    }
    if let Some(err) = setup_err {
        return Err(err);
    }
    let _ = std::fs::remove_dir_all(&store);
    let counters: Vec<Counters> = runs.iter().map(|p| exact(&p.counters)).collect();
    same_across("work counters", &counters, &mut broken);
    let picks: Vec<_> = runs.iter().map(|p| &p.picks).collect();
    same_across("picks", &picks, &mut broken);

    let calls: Vec<f64> = runs.iter().flat_map(|p| p.call_s.iter().copied()).collect();
    let totals: Vec<f64> = runs.iter().map(|p| p.total_s).collect();
    let replays: Vec<f64> = runs
        .iter()
        .flat_map(|p| p.replay_us.iter().copied())
        .collect();
    let geo = stats::geomean(&runs[0].pick_gpu_s).unwrap_or(0.0) * 1e6;

    if !args.trace {
        let m = &mut metrics;
        p50_tail(m, "tune_s.p50", "tune_s.tail", "s", &calls);
        m.set("tune_total_s", med(&totals), "s");
        let calls_ms: Vec<f64> = calls.iter().map(|s| s * 1e3).collect();
        p50_tail(
            m,
            "serve_cold_ms.p50",
            "serve_cold_ms.tail",
            "ms",
            &calls_ms,
        );
        p50_tail(m, "serve_warm_us.p50", "serve_warm_us.tail", "us", &replays);
        m.set(
            "serve_rps",
            calls.len() as f64 / calls.iter().sum::<f64>(),
            "1/s",
        );
        m.set("setup_s", med(&setup), "s");
        m.set("peak_rss_mb", med(&peaks), "MiB");
        println!(
            "# pick_gpu_us.geomean = {geo} us over {} picks",
            runs[0].pick_gpu_s.len()
        );
    } else {
        let tr = Trace::default();
        let traced = tune::run_traced_pass(
            kind,
            args.seed,
            params,
            &reference,
            &store,
            &tr,
            &mut ledger,
        )
        .map_err(e)?;
        let _ = std::fs::remove_dir_all(&store);
        if traced.picks != runs[0].picks {
            broken.push("the traced pass picked differently from the untraced pass".to_string());
        }
        let mut layers = traced.layers;
        layers.insert(
            "trace.overhead",
            layers["rebuilt_wall.s"] / layers["tune_wall.s"] - 1.0,
        );
        layers.insert(
            "unattributed.share",
            layers["unattributed.s"] / layers["tune_wall.s"],
        );
        layers.insert("pick_gpu_us.geomean", geo);
        layers.insert("tune_s.samples", calls.len() as f64);
        write_trace(&tr, work, args);
        for k in ["surf.evals", "surf.rounds"] {
            if runs[0].counters.get(k).map(|&n| n as f64) != layers.get(k).copied() {
                broken.push(format!("traced {k} differs from the untraced count"));
            }
        }
        layer_metrics(&mut metrics, &layers, &ledger);
    }
    Ok(Outcome {
        metrics,
        ledger,
        broken,
        counters: runs[0].counters.clone(),
    })
}

fn run_serve(args: &Args, work: &Path) -> Result<Outcome, String> {
    let reference = Reference::builtin();
    let mut ledger = Ledger::default();
    let mut broken = Vec::new();
    let seq = gen::serve_sequence(args.seed, serve::WARM_PER_COLD);
    let clients = gen::client_count(gen::nproc());
    let dir = work.join("round");
    let e = |e: barracuda::BarracudaError| e.to_string();
    let mut metrics = Metrics::default();

    let n = if args.trace {
        1
    } else {
        passes(args.seconds, SECONDS_PER_ROUND)
    };
    let batch = SETUP_SAMPLES.div_ceil(n + 1);
    let mut setup = Vec::new();
    let mut rounds = Vec::new();
    let mut peaks = Vec::new();
    for _ in 0..n {
        setup_samples(args, batch, &mut setup)?;
        reset_peak_rss();
        rounds
            .push(serve::run_round(&seq, &dir, clients, &reference, &mut ledger, None).map_err(e)?);
        peaks.push(peak_rss_mb());
    }
    setup_samples(args, batch, &mut setup)?;
    let counters: Vec<Counters> = rounds.iter().map(|r| exact(&r.counters)).collect();
    same_across("work counters", &counters, &mut broken);
    let picks: Vec<_> = rounds.iter().map(|r| &r.picks).collect();
    same_across("picks", &picks, &mut broken);
    let cold: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cold_ms.iter().copied())
        .collect();
    let warm: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.warm_us.iter().copied())
        .collect();
    let geo = stats::geomean(&rounds[0].pick_gpu_s).unwrap_or(0.0) * 1e6;

    if !args.trace {
        let m = &mut metrics;
        p50_tail(m, "serve_warm_us.p50", "serve_warm_us.tail", "us", &warm);
        p50_tail(m, "serve_cold_ms.p50", "serve_cold_ms.tail", "ms", &cold);
        let cold_s: Vec<f64> = cold.iter().map(|ms| ms / 1e3).collect();
        p50_tail(m, "tune_s.p50", "tune_s.tail", "s", &cold_s);
        let warmed: Vec<f64> = rounds.iter().map(|r| r.warmed_s).collect();
        m.set("tune_total_s", med(&warmed), "s");
        let done: usize = rounds.iter().map(|r| r.completed).sum();
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        m.set("serve_rps", done as f64 / wall, "1/s");
        m.set("setup_s", med(&setup), "s");
        m.set("peak_rss_mb", med(&peaks), "MiB");
        println!(
            "# pick_gpu_us.geomean = {geo} us over {} picks",
            rounds[0].pick_gpu_s.len()
        );
        // Warm latency split by whether a search ran beside the request.
        let (mut beside, mut alone) = (Vec::new(), Vec::new());
        for r in &rounds {
            for (&us, &b) in r.warm_us.iter().zip(&r.warm_beside_cold) {
                if b { &mut beside } else { &mut alone }.push(us);
            }
        }
        for (what, xs) in [("beside a cold one", &beside), ("alone", &alone)] {
            let t = stats::tail(xs);
            println!(
                "# warm requests {what}: {} ({:.1} %), p50 {:.1} us, p{:.1} {:.1} us",
                xs.len(),
                100.0 * xs.len() as f64 / warm.len().max(1) as f64,
                med(xs),
                t.map_or(0.0, |t| t.percentile),
                t.map_or(0.0, |t| t.value)
            );
        }
    } else {
        let tr = Trace::default();
        let traced =
            serve::run_round(&seq, &dir, clients, &reference, &mut ledger, Some(&tr)).map_err(e)?;
        if traced.picks != rounds[0].picks {
            broken.push("the traced round picked differently from the untraced round".to_string());
        }
        // The cold searches the daemon ran, rebuilt and spanned stage by
        // stage in-process (a fresh cache per workload, as the daemon's
        // per-workload caches start empty).
        // Spanned apart from the serve spans: both have `store.lookup`.
        let cold_pass = tune::run_traced_pass(
            Kind::Cold,
            args.seed,
            TuneParams::paper(),
            &reference,
            &work.join("store"),
            &Trace::default(),
            &mut ledger,
        )
        .map_err(e)?;
        let by_name: BTreeMap<_, _> = cold_pass.picks.iter().cloned().collect();
        if rounds[0]
            .picks
            .iter()
            .any(|(k, p)| by_name.get(k) != Some(p))
        {
            broken.push("the traced cold searches picked differently from the daemon".to_string());
        }
        let mut layers = cold_pass.layers;
        layers.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
        layers.insert(
            "unattributed.share",
            layers["unattributed.s"] / layers["tune_wall.s"],
        );
        layers.insert("trace.overhead", traced.wall_s / rounds[0].wall_s - 1.0);
        for (k, v) in &traced.counters {
            if k.starts_with("serve.") {
                layers.insert(k, *v as f64);
            }
        }
        layers.insert("store.inserts", traced.counters["store.inserts"] as f64);
        layers.insert("pick_gpu_us.geomean", geo);
        layers.insert("serve_warm_us.samples", warm.len() as f64);
        layers.insert("serve_cold_ms.samples", cold.len() as f64);
        layers.insert("tune_s.samples", cold.len() as f64);
        if traced.counters != rounds[0].counters {
            broken.push("the traced round did different work from the untraced round".to_string());
        }
        write_trace(&tr, work, args);
        layer_metrics(&mut metrics, &layers, &ledger);
    }
    Ok(Outcome {
        metrics,
        ledger,
        broken,
        counters: rounds[0].counters.clone(),
    })
}

/// Every per-layer metric with its unit; layers a workload does not run
/// report 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("frontend.s", "s"),
    ("lower.s", "s"),
    ("lower.versions", "count"),
    ("space.s", "s"),
    ("space.pool", "count"),
    ("surf.self_s", "s"),
    ("surf.evals", "count"),
    ("surf.rounds", "count"),
    ("featurize.s", "s"),
    ("featurize.rows", "count"),
    ("evaluate.s", "s"),
    ("evaluate.calls", "count"),
    ("tcr.map_s", "s"),
    ("gpusim.sim_s", "s"),
    ("pick.s", "s"),
    ("derived.s", "s"),
    ("cache.feature_hit_ratio", "ratio"),
    ("cache.feature_lookups", "count"),
    ("cache.op_hit_ratio", "ratio"),
    ("cache.op_lookups", "count"),
    ("cache.time_hit_ratio", "ratio"),
    ("cache.time_lookups", "count"),
    ("cache.entries", "count"),
    ("store.insert_s", "s"),
    ("store.inserts", "count"),
    ("store.lookup_s", "s"),
    ("store.lookups", "count"),
    ("plan.replay_s", "s"),
    ("plan.replays", "count"),
    ("serve.parse_s", "s"),
    ("serve.parses", "count"),
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.store_hits", "count"),
    ("serve.store_misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy", "count"),
    ("serve.cold", "count"),
    ("serve.warm", "count"),
    ("unattributed.share", "share"),
    ("trace.overhead", "share"),
    ("fail_ratio", "ratio"),
    ("pick_gpu_us.geomean", "us"),
    ("tune_s.samples", "count"),
    ("serve_warm_us.samples", "count"),
    ("serve_cold_ms.samples", "count"),
];

fn layer_metrics(m: &mut Metrics, layers: &Layers, ledger: &Ledger) {
    let get = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let ratio = |hits: &str, lookups: &str| {
        let n = get(lookups);
        if n > 0.0 {
            get(hits) / n
        } else {
            0.0
        }
    };
    for &(name, unit) in LAYER_METRICS {
        let v = match name {
            "cache.feature_hit_ratio" => ratio("cache.feature_hits", "cache.feature_lookups"),
            "cache.op_hit_ratio" => ratio("cache.op_hits", "cache.op_lookups"),
            "cache.time_hit_ratio" => ratio("cache.time_hits", "cache.time_lookups"),
            "fail_ratio" => ledger.fail_ratio(),
            _ => get(name),
        };
        m.set(name, v, unit);
    }
}

fn write_trace(tr: &Trace, work: &Path, args: &Args) {
    let path = work
        .parent()
        .unwrap_or(work)
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match tr.write_chrome(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(err) => println!("# could not write spans to {}: {err}", path.display()),
    }
}

/// Tunes every builtin on every searchable backend and writes the pick
/// reference. Each pick is made twice — through a fresh session per
/// backend and through one `tune_all` sweep — and the two must agree.
fn record_reference(path: &Path) -> Result<(), String> {
    let params = TuneParams::paper();
    let mut r = Reference::default();
    for name in gen::builtins() {
        let w = kernels::builtin(&name).ok_or("unknown builtin")?;
        let tuner = WorkloadTuner::build(&w);
        let sweep = TuningSession::new()
            .tune_all(&tuner, params)
            .map_err(|e| e.to_string())?;
        for row in sweep.rows {
            let Some(tuned) = row.tuned else { continue };
            let alone = TuningSession::new()
                .tune(&w, &row.key, params)
                .map_err(|e| e.to_string())?;
            let pick = Pick::new(tuned.id, tuned.gpu_seconds);
            if Pick::new(alone.tuned.id, alone.tuned.gpu_seconds) != pick {
                return Err(format!(
                    "{name} on {}: sweep and lone tune disagree",
                    row.key
                ));
            }
            println!("{name}\t{}\t{}\t{:016x}", row.key, pick.id, pick.gpu_bits);
            r.insert(&name, &row.key, pick);
        }
    }
    std::fs::write(path, r.to_tsv()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
        Ok(None) => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.tsv");
            return match record_reference(&path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Some(a)) => a,
    };
    // Scratch space inside the checkout: plan stores and sockets.
    let work = PathBuf::from(".e2ebench_work").join(std::process::id().to_string());
    if args.setup_only {
        let r = setup_once(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        return match r {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run_sw = clock::Stopwatch::start();
    let result = match args.workload.as_str() {
        "tune-cold" => run_tune(Kind::Cold, &args, &work),
        "tune-sweep" => run_tune(Kind::Sweep, &args, &work),
        "serve-mixed" => run_serve(&args, &work),
        w => Err(format!(
            "unknown workload {w} (tune-cold, tune-sweep, serve-mixed)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let run = run_sw.elapsed();
    println!(
        "# wall {:.1} s, {:.1} % of the CPU time stolen by the host",
        run.wall,
        run.stolen_share * 100.0
    );
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# exact-repeat counters per pass: {}", counters.join(" "));
    for r in out.ledger.reasons.iter().chain(&out.broken) {
        println!("# FAILED: {r}");
    }
    let correct = out.ledger.failed == 0 && out.broken.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.ledger.attempted,
        out.ledger.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
