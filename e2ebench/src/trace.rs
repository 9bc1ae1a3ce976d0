//! The benchmark's own tracing: spans recorded in memory around calls
//! into each layer's public functions, written out when the run ends,
//! plus a timing wrapper for the evaluator callbacks SURF makes.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use surf::{EvalFault, ParallelEvaluator};

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the trace began.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The tune call or serve request the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store shared by every thread of a traced run.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// the calls it makes can record children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans()[id].end_ns = end_ns;
        out
    }

    /// Records an already-measured interval ending now.
    pub fn record(&self, name: &'static str, parent: Option<SpanId>, request: u64, d: Duration) {
        let end_ns = self.now_ns();
        self.spans().push(Span {
            name,
            start_ns: end_ns.saturating_sub(d.as_nanos() as u64),
            end_ns,
            parent,
            request,
        });
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        self.spans()[id].secs()
    }

    /// Total seconds and count of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    /// Writes every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, the request id as thread.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}{}\n",
                sp.name,
                sp.request,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                if i + 1 < spans.len() { "," } else { "" },
            ));
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}

/// Wall time during which at least one of possibly many concurrent calls
/// was running, plus the call count. Calls on rayon workers overlap, so
/// summing their durations would count the same wall time twice.
#[derive(Default)]
pub struct Coverage {
    state: Mutex<(usize, Option<Instant>, Duration)>,
    calls: AtomicU64,
}

impl Coverage {
    fn enter(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut s = self.state.lock().expect("coverage lock is never poisoned");
        if s.0 == 0 {
            s.1 = Some(Instant::now());
        }
        s.0 += 1;
    }

    fn exit(&self) {
        let mut s = self.state.lock().expect("coverage lock is never poisoned");
        s.0 -= 1;
        if s.0 == 0 {
            if let Some(since) = s.1.take() {
                s.2 += since.elapsed();
            }
        }
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        self.enter();
        let out = f();
        self.exit();
        out
    }

    pub fn secs(&self) -> f64 {
        self.state
            .lock()
            .expect("coverage lock is never poisoned")
            .2
            .as_secs_f64()
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`ParallelEvaluator`] that times the callbacks SURF makes into the
/// wrapped evaluator: feature rows, evaluations, and the union of both.
pub struct TimedEvaluator<'a, E> {
    pub inner: &'a E,
    pub featurize: Coverage,
    pub evaluate: Coverage,
    pub any: Coverage,
}

impl<'a, E: ParallelEvaluator> TimedEvaluator<'a, E> {
    pub fn new(inner: &'a E) -> Self {
        TimedEvaluator {
            inner,
            featurize: Coverage::default(),
            evaluate: Coverage::default(),
            any: Coverage::default(),
        }
    }
}

impl<E: ParallelEvaluator> ParallelEvaluator for TimedEvaluator<'_, E> {
    fn features(&self, id: u128) -> Vec<f64> {
        self.any
            .time(|| self.featurize.time(|| self.inner.features(id)))
    }

    fn evaluate(&self, id: u128) -> f64 {
        self.any
            .time(|| self.evaluate.time(|| self.inner.evaluate(id)))
    }

    fn try_evaluate(&self, id: u128) -> Result<f64, EvalFault> {
        self.any
            .time(|| self.evaluate.time(|| self.inner.try_evaluate(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let t = Trace::default();
        let outer = t.span("tune.call", None, 7, |id| {
            t.span("lower", Some(id), 7, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.span("space", Some(id), 7, |_| ());
            id
        });
        assert_eq!(t.total("lower").1, 1);
        assert!(t.total("lower").0 >= 0.002);
        assert!(t.secs(outer) >= t.total("lower").0 + t.total("space").0);
        let spans = t.spans();
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].parent, Some(outer));
    }

    #[test]
    fn coverage_counts_overlapping_calls_once() {
        let c = Coverage::default();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| c.time(|| std::thread::sleep(Duration::from_millis(30))));
            }
        });
        assert_eq!(c.calls(), 2);
        // Two overlapping 30 ms calls cover well under their 60 ms sum.
        assert!(c.secs() >= 0.03 && c.secs() < 0.055, "{}", c.secs());
    }
}
