//! The serve-mixed workload: one in-process `Daemon` on `k20` with
//! default search settings and an empty store, reached over its `unix:`
//! listener by closed-loop clients (each waits for its reply before it
//! sends again). Clients take requests in order from one seeded
//! sequence. A cold request waits until the one before it is answered,
//! so one search runs at a time, and a warm request waits for its own
//! workload's cold request; every workload is searched exactly once per
//! round and every other request is a store hit.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use barracuda::json::Json;
use barracuda::serve::transport;
use barracuda::{kernels, BarracudaError, Daemon, Listen, ServeOptions, WorkloadTuner};

use crate::clock::Stopwatch;
use crate::gen::Request;
use crate::reference::{Ledger, Pick, Reference};
use crate::trace::Trace;
use crate::tune::{Counters, Layers, Picks};

/// Warm requests generated after each first touch but the first: the
/// repository's committed `BENCH_serve.json` (the `serve_load`
/// generator) records 3 199 store hits for 11 store misses, 290.8 warm
/// requests per search, rounded here. More warm requests per cold one
/// raise `serve_rps`; a batch that took longer than its search would
/// spill past it and run with no search beside it.
pub const WARM_PER_COLD: usize = 291;

/// A daemon serving on a unix socket from a listener thread.
struct Running {
    daemon: Arc<Daemon>,
    socket: PathBuf,
    listener: std::thread::JoinHandle<Result<(), BarracudaError>>,
}

/// One client connection speaking the line protocol.
pub struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(socket) {
                Ok(s) => {
                    return Ok(Client {
                        reader: BufReader::new(s),
                    })
                }
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// Sends one line and waits for the one-line reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let s = self.reader.get_mut();
        s.write_all(line.as_bytes())?;
        s.write_all(b"\n")?;
        s.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

fn io_err(e: std::io::Error) -> BarracudaError {
    BarracudaError::Serve {
        detail: format!("client i/o: {e}"),
    }
}

/// Starts a daemon over a fresh empty store in `dir` and connects
/// `clients` clients, each checked with a ping. This is set-up.
fn start(dir: &Path, clients: usize) -> Result<(Running, Vec<Client>), BarracudaError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| BarracudaError::Serve {
        detail: format!("cannot create {}: {e}", dir.display()),
    })?;
    let daemon = Arc::new(Daemon::new(ServeOptions {
        store: Some(dir.join("store")),
        backend: "k20".to_string(),
        ..ServeOptions::default()
    })?);
    let socket = dir.join("d.sock");
    let listen = Listen::Unix(socket.clone());
    let d = Arc::clone(&daemon);
    let listener = std::thread::spawn(move || transport::run(d, &listen));
    let running = Running {
        daemon,
        socket,
        listener,
    };
    let mut conns = Vec::new();
    for _ in 0..clients {
        let mut c = Client::connect(&running.socket).map_err(io_err)?;
        let pong = c.call(r#"{"op":"ping"}"#).map_err(io_err)?;
        if !pong.contains(r#""ok":true"#) {
            return Err(BarracudaError::Serve {
                detail: format!("ping failed: {pong}"),
            });
        }
        conns.push(c);
    }
    Ok((running, conns))
}

/// Closes the clients, shuts the daemon down and joins its listener.
fn stop(running: Running, clients: Vec<Client>) -> Result<(), BarracudaError> {
    drop(clients);
    let mut c = Client::connect(&running.socket).map_err(io_err)?;
    c.call(r#"{"op":"shutdown"}"#).map_err(io_err)?;
    drop(c);
    running.listener.join().map_err(|_| BarracudaError::Serve {
        detail: "listener thread panicked".to_string(),
    })?
}

/// Times one start/stop cycle of set-up alone.
pub fn setup_only(dir: &Path, clients: usize) -> Result<f64, BarracudaError> {
    let t = Instant::now();
    let (running, conns) = start(dir, clients)?;
    let s = t.elapsed().as_secs_f64();
    stop(running, conns)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(s)
}

/// One answered request.
struct Answer {
    index: usize,
    /// Wall latency; for cold requests, stolen CPU time taken out.
    latency: Duration,
    /// When the request was sent and when its reply arrived, since the
    /// round's first request.
    sent_at: Duration,
    done_at: Duration,
    reply: Result<String, String>,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// From the first request to the last reply.
    pub wall_s: f64,
    /// From the first request to the last cold reply: the store is warm.
    pub warmed_s: f64,
    pub cold_ms: Vec<f64>,
    pub warm_us: Vec<f64>,
    /// For each of `warm_us`: whether a cold request was in flight too.
    pub warm_beside_cold: Vec<bool>,
    pub completed: usize,
    pub pick_gpu_s: Vec<f64>,
    pub picks: Picks,
    pub counters: Counters,
    pub layers: Layers,
}

/// Fields of a tune reply the checks read.
struct Reply {
    ok: bool,
    source: String,
    evals_performed: u64,
    evals: u64,
    gpu_us: f64,
    timing: String,
}

fn parse_reply(text: &str) -> Option<Reply> {
    let v = Json::parse(text).ok()?;
    let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    Some(Reply {
        ok: v.get("ok").and_then(Json::as_bool)?,
        source: s("source"),
        evals_performed: v.get("evals_performed").and_then(Json::as_u64).unwrap_or(0),
        evals: v.get("evals").and_then(Json::as_u64).unwrap_or(0),
        gpu_us: v.get("gpu_us").and_then(Json::as_f64).unwrap_or(f64::NAN),
        timing: s("timing"),
    })
}

/// Runs the whole sequence once against a fresh daemon and checks every
/// reply. With `tr`, also records a span per request and, before the
/// daemon stops, replays the warm traffic in-process to split it into
/// parse, handle, store lookup and plan replay.
pub fn run_round(
    seq: &[Request],
    dir: &Path,
    clients: usize,
    reference: &Reference,
    ledger: &mut Ledger,
    tr: Option<&Trace>,
) -> Result<Round, BarracudaError> {
    let mut round = Round::default();
    let (running, conns) = start(dir, clients)?;

    let next = AtomicUsize::new(0);
    // For each cold request, the index of the cold request before it.
    let mut prev_cold = vec![None; seq.len()];
    let mut last = None;
    for (i, r) in seq.iter().enumerate() {
        if r.first == i {
            prev_cold[i] = last;
            last = Some(i);
        }
    }
    let prev_cold = &prev_cold;
    // Cold requests answered so far, by sequence index.
    let answered = (Mutex::new(vec![false; seq.len()]), Condvar::new());
    let round_sw = Stopwatch::start();
    let start_at = Instant::now();
    let answers: Vec<Answer> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut c| {
                let (next, answered) = (&next, &answered);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = seq.get(i) else { break };
                        let cold = req.first == i;
                        // A cold request waits for the previous one, so
                        // searches never overlap; a warm one for its own
                        // workload's cold request.
                        let wait_for = if cold { prev_cold[i] } else { Some(req.first) };
                        if let Some(w) = wait_for {
                            let (lock, cv) = answered;
                            let mut done = lock.lock().expect("answer flags lock");
                            while !done[w] {
                                done = cv.wait(done).expect("answer flags lock");
                            }
                        }
                        let line = req.line();
                        // Cold requests last long enough to read steal
                        // for; warm ones are scaled by the round's share.
                        let sw = cold.then(Stopwatch::start);
                        let sent_at = start_at.elapsed();
                        let t = Instant::now();
                        let reply = c.call(&line).map_err(|e| e.to_string());
                        let latency = match sw {
                            Some(sw) => Duration::from_secs_f64(sw.elapsed().secs),
                            None => t.elapsed(),
                        };
                        if let Some(tr) = tr {
                            let name = if cold { "serve.cold" } else { "serve.warm" };
                            tr.record(name, None, i as u64, latency);
                        }
                        if cold {
                            let (lock, cv) = answered;
                            lock.lock().expect("answer flags lock")[i] = true;
                            cv.notify_all();
                        }
                        out.push(Answer {
                            index: i,
                            latency,
                            sent_at,
                            done_at: start_at.elapsed(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().expect("client threads do not panic"));
        }
        all
    });
    let round_e = round_sw.elapsed();
    round.wall_s = round_e.secs;
    let snap = running.daemon.snapshot();

    // Check every reply; the cold one of each workload is what its warm
    // ones must reproduce.
    let mut answers = answers;
    answers.sort_by_key(|a| a.index);
    let mut cold_reply: BTreeMap<&str, Reply> = BTreeMap::new();
    let mut warm_lines: Vec<&Request> = Vec::new();
    let cold_spans: Vec<(Duration, Duration)> = answers
        .iter()
        .filter(|a| seq[a.index].first == a.index)
        .map(|a| (a.sent_at, a.done_at))
        .collect();
    for a in &answers {
        let req = &seq[a.index];
        let cold = req.first == a.index;
        let reply = match &a.reply {
            Err(e) => {
                ledger.record(Some(format!("request {}: {e}", a.index)));
                continue;
            }
            Ok(text) => parse_reply(text),
        };
        let Some(reply) = reply.filter(|r| r.ok) else {
            let text = a.reply.as_deref().unwrap_or("");
            ledger.record(Some(format!("request {} failed: {text}", a.index)));
            continue;
        };
        round.completed += 1;
        if cold {
            round.cold_ms.push(a.latency.as_secs_f64() * 1e3);
            ledger.record(
                (reply.source != "searched")
                    .then(|| format!("cold {} answered from {}", req.workload, reply.source)),
            );
            cold_reply.insert(&req.workload, reply);
        } else {
            round
                .warm_us
                .push(round_e.adjust(a.latency.as_secs_f64() * 1e6));
            round.warm_beside_cold.push(
                cold_spans
                    .iter()
                    .any(|&(sent, done)| sent < a.done_at && a.sent_at < done),
            );
            warm_lines.push(req);
            let same = cold_reply.get(req.workload.as_str()).is_some_and(|c| {
                c.gpu_us.to_bits() == reply.gpu_us.to_bits() && c.timing == reply.timing
            });
            ledger.record(if reply.source != "hit" || reply.evals_performed != 0 {
                Some(format!(
                    "warm {} was not a zero-eval hit ({}, {} evals)",
                    req.workload, reply.source, reply.evals_performed
                ))
            } else if !same {
                Some(format!("warm {} differs from its cold reply", req.workload))
            } else {
                None
            });
        }
    }
    round.warmed_s = round_e.adjust(
        answers
            .iter()
            .filter(|a| seq[a.index].first == a.index)
            .map(|a| a.done_at.as_secs_f64())
            .fold(0.0, f64::max),
    );

    // The stored plan of every cold search against the reference.
    let session = running.daemon.session();
    let store = session.store().expect("the daemon has a store");
    for (name, reply) in &cold_reply {
        let w = kernels::builtin(name).expect("generated names are builtins");
        let plan = store.lookup(&session.key_for(&w, "k20")?)?;
        let failure = match plan {
            None => Some(format!("no stored plan for {name}")),
            Some(p) => {
                let pick = Pick::new(p.id, p.gpu_seconds);
                round
                    .picks
                    .push(((name.to_string(), "k20".to_string()), pick));
                round.pick_gpu_s.push(p.gpu_seconds);
                reference.check(name, "k20", pick).or_else(|| {
                    ((p.gpu_seconds * 1e6).to_bits() != reply.gpu_us.to_bits())
                        .then(|| format!("cold reply for {name} differs from its stored plan"))
                })
            }
        };
        if let Some(f) = failure {
            ledger.fail(f);
        }
    }

    let c = &mut round.counters;
    let cold = cold_reply.len() as u64;
    c.insert("serve.cold", cold);
    c.insert("serve.warm", round.warm_us.len() as u64);
    c.insert("serve.store_hits", snap.store_hits as u64);
    c.insert("serve.store_misses", snap.store_misses as u64);
    c.insert("serve.coalesced", snap.coalesced as u64);
    c.insert("serve.busy", snap.busy as u64);
    c.insert("serve.errors", snap.errors as u64);
    c.insert("surf.evals", cold_reply.values().map(|r| r.evals).sum());
    c.insert("store.inserts", store.entries()?.len() as u64);

    if let Some(tr) = tr {
        replay_in_process(&running, &warm_lines, tr, &mut round.layers)?;
    }
    stop(running, Vec::new())?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(round)
}

/// Replays the warm requests against the still-running daemon, now that
/// no search runs beside them: each line once over the socket and once
/// in-process — `Json::parse` of the line, `Daemon::handle_line`, and
/// the two steps of its warm path, `PlanStore::lookup` and
/// `TunedPlan::replay_built_in`. `serve.transport_us` is the socket p50
/// minus the `handle_line` p50 of these same lines.
fn replay_in_process(
    running: &Running,
    warm: &[&Request],
    tr: &Trace,
    layers: &mut Layers,
) -> Result<(), BarracudaError> {
    let daemon = &running.daemon;
    let session = daemon.session();
    let store = session.store().expect("the daemon has a store");
    let mut client = Client::connect(&running.socket).map_err(io_err)?;
    let mut tuners: BTreeMap<&str, (barracuda::Workload, WorkloadTuner)> = BTreeMap::new();
    let mut socket_us = Vec::with_capacity(warm.len());
    let mut handle_us = Vec::with_capacity(warm.len());
    for (i, req) in warm.iter().enumerate() {
        let i = i as u64;
        let line = req.line();
        let t = Instant::now();
        let reply = client.call(&line).map_err(io_err)?;
        socket_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !reply.contains(r#""source":"hit""#) {
            return Err(BarracudaError::Serve {
                detail: format!("warm replay over the socket missed: {reply}"),
            });
        }
        let t = Instant::now();
        let parsed = Json::parse(&line);
        tr.record("serve.parse", None, i, t.elapsed());
        if parsed.is_err() {
            return Err(BarracudaError::Serve {
                detail: format!("generated line does not parse: {line}"),
            });
        }
        let t = Instant::now();
        let out = daemon.handle_line(&line);
        let d = t.elapsed();
        tr.record("serve.handle", None, i, d);
        handle_us.push(d.as_secs_f64() * 1e6);
        if !out.response.contains(r#""source":"hit""#) {
            return Err(BarracudaError::Serve {
                detail: format!("in-process warm replay missed: {}", out.response),
            });
        }
        let (w, tuner) = tuners.entry(req.workload.as_str()).or_insert_with(|| {
            let w = kernels::builtin(&req.workload).expect("generated names are builtins");
            let tuner = WorkloadTuner::build(&w);
            (w, tuner)
        });
        let key = session.key_for(w, "k20")?;
        let t = Instant::now();
        let plan = store.lookup(&key)?;
        tr.record("store.lookup", None, i, t.elapsed());
        let plan = plan.ok_or_else(|| BarracudaError::Serve {
            detail: format!("warm {} has no stored plan", req.workload),
        })?;
        let t = Instant::now();
        plan.replay_built_in(session.backends(), w, tuner, &session.cache_for(w))?;
        tr.record("plan.replay", None, i, t.elapsed());
    }
    let (parse_s, parses) = tr.total("serve.parse");
    layers.insert("serve.parse_s", parse_s);
    layers.insert("serve.parses", parses as f64);
    let (lookup_s, lookups) = tr.total("store.lookup");
    layers.insert("store.lookup_s", lookup_s);
    layers.insert("store.lookups", lookups as f64);
    let (replay_s, replays) = tr.total("plan.replay");
    layers.insert("plan.replay_s", replay_s);
    layers.insert("plan.replays", replays as f64);
    let handle_p50 = crate::stats::median(&handle_us).unwrap_or(0.0);
    let socket_p50 = crate::stats::median(&socket_us).unwrap_or(0.0);
    layers.insert("serve.handle_us", handle_p50);
    layers.insert("serve.transport_us", socket_p50 - handle_p50);
    Ok(())
}
