//! Wall-clock timing with the hypervisor's CPU steal taken out.
//!
//! On a virtual machine the host can run other guests on this machine's
//! CPUs (`steal` in `/proc/stat`). On a shared 2-vCPU box that took 5–25 %
//! of the CPU time from run to run and moved every timing with it, by more
//! than any bound a benchmark can usefully set. Times here are wall time
//! minus the stolen CPU time spread over the CPUs: `wall − steal / cpus`,
//! what the interval would have taken had the host stolen nothing. With
//! no steal (bare metal) they are plain wall time.

use std::time::Instant;

/// Stolen CPU seconds summed over all CPUs, and the CPU count, from the
/// `cpu` lines of `/proc/stat` (`USER_HZ` ticks of 1/100 s). `(0, 1)`
/// where the file does not exist.
fn steal_and_cpus() -> (f64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut lines = stat.lines();
    let steal = lines
        .next()
        .and_then(|total| total.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0);
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count();
    (steal, cpus.max(1))
}

/// A started interval.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
    steal: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let steal = steal_and_cpus().0;
        Stopwatch {
            start: Instant::now(),
            steal,
        }
    }

    /// Elapsed seconds, stolen CPU time taken out, and the share of this
    /// machine's CPU time the host stole meanwhile.
    pub fn elapsed(&self) -> Elapsed {
        let wall = self.start.elapsed().as_secs_f64();
        let (steal, cpus) = steal_and_cpus();
        let stolen = ((steal - self.steal) / cpus as f64).clamp(0.0, wall);
        Elapsed {
            wall,
            secs: wall - stolen,
            stolen_share: if wall > 0.0 { stolen / wall } else { 0.0 },
        }
    }
}

/// One measured interval.
#[derive(Clone, Copy, Debug)]
pub struct Elapsed {
    /// Plain wall-clock seconds.
    pub wall: f64,
    /// Wall seconds minus the stolen CPU time per CPU.
    pub secs: f64,
    /// Stolen share of the interval, in `[0, 1]`.
    pub stolen_share: f64,
}

impl Elapsed {
    /// Scales a shorter interval measured inside this one, too short to
    /// read steal for, by this interval's stolen share.
    pub fn adjust(&self, inner_secs: f64) -> f64 {
        inner_secs * (1.0 - self.stolen_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_never_exceeds_wall_and_adjusts_by_the_stolen_share() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let e = sw.elapsed();
        assert!(e.wall >= 0.02 && e.secs <= e.wall && e.secs >= 0.0);
        assert!((0.0..=1.0).contains(&e.stolen_share));
        let half = Elapsed {
            wall: 2.0,
            secs: 1.5,
            stolen_share: 0.25,
        };
        assert_eq!(half.adjust(4.0), 3.0);
        let (_, cpus) = steal_and_cpus();
        assert!(cpus >= 1);
    }
}
