//! Small measurement helpers: order statistics over raw samples, the
//! report digest, repeated set-up, the pace clock, and the `/proc`
//! readers for memory and CPU time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `q`-quantile of `samples` by the nearest-rank rule (sorts in
/// place). Zero for no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Set-up runs at least this many times per run, and at least for
/// [`SETUP_MIN_TIME`]; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(3);

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), dropping each result
/// before building the next, and returns the last result, the median
/// duration in pace seconds (see [`PaceClock`]) and the median in seconds.
pub fn repeated_setup<T>(
    pace: &PaceClock,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, f64), String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut paced = Vec::new();
    let mut last = None;
    while walls.len() < SETUP_MIN_REPS || started.elapsed() < SETUP_MIN_TIME {
        drop(last.take());
        let (rep, mark) = (Instant::now(), pace.now());
        last = Some(setup()?);
        walls.push(rep.elapsed().as_secs_f64());
        paced.push(pace.since(mark));
    }
    let (paced, wall) = (median(&paced), median(&walls));
    eprintln!(
        "perfbench: {} set-ups, median {paced:.4} pace-s, {wall:.4} s",
        walls.len()
    );
    Ok((last.expect("at least one set-up"), paced, wall))
}

/// Pointer-chase steps in one pace round.
const PACE_ROUND: usize = 512;
/// Entries in the pace loop's chase table: 16 MiB of `u32`, more than a
/// core's private caches hold.
const PACE_TABLE: usize = 1 << 22;
/// Pace rounds per pace second: about the pace loop's rate, with the
/// other core replaying, on the 2-vCPU Xeon VM the bounds were set on.
const PACE_ROUNDS_PER_S: f64 = 12_000.0;

/// A clock that runs at the speed the machine currently gives memory-bound
/// work, so timings taken with it stay comparable while a shared host
/// speeds up and slows down.
///
/// A thread on the core the measured work leaves idle chases pointers
/// through a fixed random cycle and counts rounds of [`PACE_ROUND`] steps.
/// The rounds that ran alongside a piece of work, divided by
/// [`PACE_ROUNDS_PER_S`], are its duration in pace seconds. On a host
/// running at the calibrated speed, pace seconds equal seconds. Only
/// single-threaded work is timed with it: the pace thread needs a core
/// of its own.
pub struct PaceClock {
    rounds: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl PaceClock {
    /// Starts the pace thread and returns once it is counting.
    pub fn start() -> PaceClock {
        let rounds = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (rounds, stop) = (rounds.clone(), stop.clone());
            std::thread::spawn(move || {
                let next = random_cycle(PACE_TABLE);
                let mut at = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..PACE_ROUND {
                        at = next[at as usize];
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
                std::hint::black_box(at);
            })
        };
        while rounds.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        PaceClock {
            rounds,
            stop,
            thread: Some(thread),
        }
    }

    /// Rounds counted so far: a mark for [`PaceClock::since`].
    pub fn now(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Pace seconds elapsed since `mark`.
    pub fn since(&self, mark: u64) -> f64 {
        (self.now() - mark) as f64 / PACE_ROUNDS_PER_S
    }
}

impl Drop for PaceClock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("the pace thread panicked");
        }
    }
}

/// A single cycle through `0..n` in a random order drawn from a fixed
/// splitmix64 stream, so a chase along it visits every entry.
fn random_cycle(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix::new(0x9ACE);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

/// 64-bit FNV-1a: the digest recorded per workload and seed for a run's
/// canonical report bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    cablevod_sim::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets this process's peak resident set to its current one (Linux
/// `clear_refs` mode 5), so the next [`peak_rss_mb`] reading is the peak
/// of what runs in between. Where the kernel refuses, the reading stays
/// the whole process's peak so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time (user + system) of this whole process so far, in seconds,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks of 1/100 s
    // (USER_HZ, fixed at 100 on Linux).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')', field 3 (state) is index 0, so utime (14) is index 11.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU time of the calling thread so far, in seconds (nanosecond
/// resolution, from the scheduler's own accounting).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// A deterministic splitmix64 stream for the benchmark's own choices
/// (serve request mixes): the same seed gives the same requests.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn the_pace_chase_is_one_cycle_through_every_entry() {
        let next = random_cycle(1_000);
        let mut seen = vec![false; next.len()];
        let mut at = 0u32;
        for _ in 0..next.len() {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = next[at as usize];
        }
        assert_eq!(at, 0);
    }
}
