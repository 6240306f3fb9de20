//! What the host was doing during a run: CPU and run-queue time from
//! `/proc`, peak memory, bytes written, and a fixed reference loop read
//! between and inside the timed passes, against which every host-time
//! metric is reported.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Scheduler counters: on-CPU time and run-queue wait, in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub runq_wait_ns: u64,
}

impl SchedStat {
    /// Adds `o`'s counters to these.
    pub fn add(&mut self, o: SchedStat) {
        self.on_cpu_ns += o.on_cpu_ns;
        self.runq_wait_ns += o.runq_wait_ns;
    }
}

/// `/proc/<pid>/task/<tid>/schedstat` of every live thread of `pid`.
fn task_schedstats(pid: &str) -> HashMap<String, SchedStat> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut f = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        if let (Some(Some(on_cpu_ns)), Some(Some(runq_wait_ns))) = (f.next(), f.next()) {
            let tid = task.file_name().to_string_lossy().into_owned();
            out.insert(
                tid,
                SchedStat {
                    on_cpu_ns,
                    runq_wait_ns,
                },
            );
        }
    }
    out
}

/// Scheduler counters of process `pid`, summed over its live threads.
pub fn schedstat(pid: &str) -> SchedStat {
    let mut total = SchedStat::default();
    for s in task_schedstats(pid).into_values() {
        total.add(s);
    }
    total
}

/// Sums this process's scheduler counters over every thread, including
/// the short-lived workers the fleet executor spawns and joins, by
/// sampling `/proc/self/task` every [`SAMPLE_EVERY`]. A thread's last
/// interval before it exits is lost, at most that long.
struct SchedSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<HashMap<String, SchedStat>>,
    baseline: HashMap<String, SchedStat>,
}

const SAMPLE_EVERY: Duration = Duration::from_millis(50);

impl SchedSampler {
    fn start() -> Self {
        let baseline = task_schedstats("self");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut last = HashMap::new();
            loop {
                last.extend(task_schedstats("self"));
                if flag.load(Ordering::Relaxed) {
                    return last;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Self {
            stop,
            thread,
            baseline,
        }
    }

    fn finish(self) -> SchedStat {
        self.stop.store(true, Ordering::Relaxed);
        let last = self
            .thread
            .join()
            .expect("the sampler thread does not panic");
        let mut total = SchedStat::default();
        for (tid, s) in last {
            let base = self.baseline.get(&tid).copied().unwrap_or_default();
            total.add(SchedStat {
                on_cpu_ns: s.on_cpu_ns.saturating_sub(base.on_cpu_ns),
                runq_wait_ns: s.runq_wait_ns.saturating_sub(base.runq_wait_ns),
            });
        }
        total
    }
}

/// A numeric field of `/proc/<pid>/status` or `/proc/<pid>/io`
/// (`key: value [kB]`).
fn proc_field(pid: &str, file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    proc_field(pid, "status", "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Bytes process `pid` has passed to `write(2)` and friends (`wchar`).
pub fn written_bytes(pid: &str) -> Option<u64> {
    proc_field(pid, "io", "wchar")
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Iterations of one reference reading (about 2 ms on a 2-vCPU Xeon VM).
const REF_ITERS: u64 = 400_000;

/// The reference reading of the host every host-time metric is reported
/// at, in ms: a time of `t` s measured while readings took `r` ms counts
/// as `t * REF_NOMINAL_MS / r` s.
pub const REF_NOMINAL_MS: f64 = 2.0;

/// Times one run of a fixed loop: eight independent multiply-rotate
/// chains. Like the simulator's stepping loop, it is bound by how many
/// instructions the core issues per cycle, so whatever slows the
/// simulator on a shared host — a busy neighbour on the same core, a
/// lower clock — slows it too. (A single dependent chain barely notices
/// a neighbour.) The loop is the same in every build of the program, so
/// a slower reading means a slower host, not a slower program.
pub fn reference_loop_ms() -> f64 {
    let t = Instant::now();
    let mut lanes = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..std::hint::black_box(REF_ITERS) {
        for v in lanes.iter_mut() {
            *v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ (*v >> 3);
        }
    }
    std::hint::black_box(lanes);
    t.elapsed().as_secs_f64() * 1e3
}

/// One reference reading and when it ran.
#[derive(Clone, Copy, Debug)]
struct Reading {
    start: Instant,
    end: Instant,
    ms: f64,
}

/// The run's reference readings, shared with the threads that take them
/// (the fleet's worker takes one as each job completes).
#[derive(Clone, Default)]
pub struct RefClock(Arc<Mutex<Vec<Reading>>>);

impl RefClock {
    /// Takes one reading now.
    pub fn read(&self) {
        let start = Instant::now();
        let ms = reference_loop_ms();
        let reading = Reading {
            start,
            end: Instant::now(),
            ms,
        };
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(reading);
    }

    /// The readings so far, in time order.
    pub fn timeline(&self) -> Timeline {
        let mut r = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        r.sort_by_key(|r| r.start);
        Timeline(r)
    }
}

/// Takes a reference reading every [`REF_SAMPLE_EVERY`] on a thread of
/// its own, for work that runs in another process (the server).
pub struct RefSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// How often a [`RefSampler`] reads.
pub const REF_SAMPLE_EVERY: Duration = Duration::from_millis(100);

impl RefSampler {
    /// Starts reading into `clock`.
    pub fn start(clock: &RefClock) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, clock) = (Arc::clone(&stop), clock.clone());
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                clock.read();
                std::thread::sleep(REF_SAMPLE_EVERY);
            }
        });
        Self { stop, thread }
    }

    /// Stops the sampler and waits for its thread.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .expect("the reference sampler does not panic");
    }
}

/// Reference readings in time order, and the host's speed between them.
pub struct Timeline(Vec<Reading>);

impl Timeline {
    /// The wall time from `a` to `b`, less the readings taken in it, at
    /// the nominal host speed: each stretch between two readings counts
    /// its length × [`REF_NOMINAL_MS`] ÷ the mean of the two readings;
    /// before the first reading and after the last, the nearest reading
    /// stands. `NaN` when there are no readings.
    pub fn nominal_s(&self, a: Instant, b: Instant) -> f64 {
        let r = &self.0;
        if r.is_empty() {
            return f64::NAN;
        }
        let overlap = |from: Instant, to: Instant| {
            let (lo, hi) = (from.max(a), to.min(b));
            if hi > lo {
                (hi - lo).as_secs_f64()
            } else {
                0.0
            }
        };
        let at_nominal = |secs: f64, ms: f64| secs * REF_NOMINAL_MS / ms;
        let first = r.partition_point(|x| x.end <= a);
        let mut total = 0.0;
        if first == 0 {
            total += at_nominal(overlap(a, r[0].start), r[0].ms);
        }
        for k in first.saturating_sub(1)..r.len() {
            if r[k].end >= b {
                break;
            }
            match r.get(k + 1) {
                Some(next) => {
                    let gap = overlap(r[k].end, next.start);
                    total += at_nominal(gap, (r[k].ms + next.ms) / 2.0);
                }
                None => total += at_nominal(overlap(r[k].end, b), r[k].ms),
            }
        }
        total
    }

    /// Readings taken.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The first, median and last reading, in ms.
    pub fn summary(&self) -> Option<(f64, f64, f64)> {
        let ms: Vec<f64> = self.0.iter().map(|r| r.ms).collect();
        Some((*ms.first()?, crate::stats::median(&ms)?, *ms.last()?))
    }
}

/// The noise record printed beside every run's metrics.
#[derive(Clone, Debug)]
pub struct NoiseRecord {
    /// Run seed.
    pub seed: u64,
    /// Host CPUs available.
    pub nproc: usize,
    /// Wall time of the run, in seconds.
    pub wall_s: f64,
    /// The benchmark process, all threads.
    pub bench: SchedStat,
    /// Server processes, summed over sessions (service workload only).
    pub server: Option<SchedStat>,
    /// Reference readings taken.
    pub ref_readings: usize,
    /// The first, median and last reference reading, in milliseconds.
    pub ref_ms: (f64, f64, f64),
}

/// Brackets a run: reads the counters at the start and end, and holds
/// the run's reference clock, read first thing and last thing.
pub struct NoiseProbe {
    seed: u64,
    start: Instant,
    sampler: SchedSampler,
    /// The run's reference readings.
    pub clock: RefClock,
}

impl NoiseProbe {
    /// Takes the first reference reading, then starts the clocks.
    pub fn start(seed: u64) -> Self {
        let clock = RefClock::default();
        clock.read();
        Self {
            seed,
            start: Instant::now(),
            sampler: SchedSampler::start(),
            clock,
        }
    }

    /// Stops the clocks and takes the last reference reading. `server`
    /// is what the service workload read from its server processes.
    pub fn finish(self, server: Option<SchedStat>) -> NoiseRecord {
        let wall_s = self.start.elapsed().as_secs_f64();
        let bench = self.sampler.finish();
        self.clock.read();
        let timeline = self.clock.timeline();
        NoiseRecord {
            seed: self.seed,
            nproc: nproc(),
            wall_s,
            bench,
            server,
            ref_readings: timeline.len(),
            ref_ms: timeline.summary().unwrap_or((f64::NAN, f64::NAN, f64::NAN)),
        }
    }
}

impl NoiseRecord {
    /// One JSON object, printed on its own line before the result line.
    pub fn to_json(&self) -> String {
        let sched = |s: &SchedStat| {
            format!(
                "{{\"cpu_s\": {}, \"runq_wait_ms\": {}}}",
                s.on_cpu_ns as f64 / 1e9,
                s.runq_wait_ns as f64 / 1e6
            )
        };
        let server = self
            .server
            .as_ref()
            .map_or_else(|| "null".to_string(), sched);
        let (first, median, last) = self.ref_ms;
        format!(
            "{{\"noise\": {{\"seed\": {}, \"nproc\": {}, \"wall_s\": {}, \"bench\": {}, \
             \"server\": {server}, \"ref_loop_start_ms\": {first}, \"ref_loop_median_ms\": {median}, \
             \"ref_loop_end_ms\": {last}, \"ref_readings\": {}, \"ref_nominal_ms\": {REF_NOMINAL_MS}}}}}",
            self.seed,
            self.nproc,
            self.wall_s,
            sched(&self.bench),
            self.ref_readings,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(written_bytes("self").is_some());
        assert!(schedstat("self").on_cpu_ns > 0);
        let sampler = SchedSampler::start();
        std::thread::spawn(|| std::hint::black_box(reference_loop_ms()))
            .join()
            .unwrap();
        assert!(
            sampler.finish().on_cpu_ns > 0,
            "a joined thread's CPU time counts"
        );
        assert!(reference_loop_ms() > 0.0);
    }

    fn timeline(readings: &[(u64, u64, f64)]) -> (Instant, Timeline) {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let r = readings
            .iter()
            .map(|&(start, end, ms)| Reading {
                start: at(start),
                end: at(end),
                ms,
            })
            .collect();
        (t0, Timeline(r))
    }

    #[test]
    fn nominal_time_divides_each_stretch_by_the_adjacent_readings() {
        let nominal = REF_NOMINAL_MS;
        // Readings at 0-10 ms (nominal) and 110-120 ms (twice as slow).
        let (t0, tl) = timeline(&[(0, 10, nominal), (110, 120, 2.0 * nominal)]);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        // Between them the host ran at 1.5x: 100 ms count as 66.7 ms.
        close(tl.nominal_s(at(10), at(110)), 0.1 / 1.5);
        // The readings themselves are not counted.
        close(tl.nominal_s(at(0), at(120)), 0.1 / 1.5);
        // Part of a stretch counts pro rata.
        close(tl.nominal_s(at(60), at(110)), 0.05 / 1.5);
        // After the last reading it stands alone: 2x.
        close(tl.nominal_s(at(120), at(220)), 0.05);
        // Before the first, likewise.
        let (t1, tl) = timeline(&[(100, 110, 2.0 * nominal)]);
        close(tl.nominal_s(t1, t1 + Duration::from_millis(100)), 0.05);
        assert!(Timeline(Vec::new()).nominal_s(t1, t1).is_nan());
    }

    #[test]
    fn readings_from_other_threads_join_the_timeline() {
        let clock = RefClock::default();
        let c = clock.clone();
        std::thread::spawn(move || c.read()).join().unwrap();
        clock.read();
        let tl = clock.timeline();
        assert_eq!(tl.len(), 2);
        let (first, median, last) = tl.summary().unwrap();
        assert!(first > 0.0 && median > 0.0 && last > 0.0);
    }
}
