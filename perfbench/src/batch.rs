//! The batch workloads, `figure-suite` and `contention`: one job set
//! through the library path (`glsc_kernels::run_workload`, one job at a
//! time) and the sweep executor (`glsc_bench::run_jobs_fleet`, one
//! worker).
//!
//! A run cycles through four passes until its time is up — set-up, solo,
//! fleet, cached — so every host-time metric aggregates samples spread
//! over the whole run rather than one window: per-job times are each
//! job's median sample, pass times the median pass. Every sample is
//! timed against the run's reference readings (see [`crate::host`]):
//! one before each solo job, one as each fleet job completes, one
//! between passes.

use crate::check::Checker;
use crate::host::{RefClock, Timeline};
use crate::jobs::{session_order, Job};
use crate::layers::{durations_s, median_pass_ms, pass_sums, sim_counts};
use crate::metrics::Metrics;
use crate::stats::{glsc_speedup, median, percentile, PairSample};
use crate::trace::Tracer;
use glsc_bench::codec::encode_report;
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::{run_jobs_fleet, FleetJobSpec, JobStore};
use glsc_kernels::{run_workload, Workload};
use glsc_sim::{Machine, MachineConfig, RunReport};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up and cached passes per round.
const SHORT_PASSES: usize = 8;

/// Decides whether another pass of a kind fits before the deadline,
/// judged by the median of that kind's earlier passes.
pub struct Pacer {
    deadline: Instant,
}

impl Pacer {
    /// A pacer for a run of `seconds`.
    pub fn new(seconds: f64) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    /// Whether a pass expected to take as long as the median of `past`
    /// (seconds) ends before the deadline. The first pass always runs.
    pub fn fits(&self, past: &[f64]) -> bool {
        match median(past) {
            None => true,
            Some(expected) => Instant::now() + Duration::from_secs_f64(expected) <= self.deadline,
        }
    }

    /// [`Pacer::fits`] for passes recorded as intervals.
    pub fn fits_spans(&self, past: &[Interval]) -> bool {
        let walls: Vec<f64> = past.iter().map(|(a, b)| (*b - *a).as_secs_f64()).collect();
        self.fits(&walls)
    }
}

/// A timed stretch of a run: start and end.
pub type Interval = (Instant, Instant);

/// Times `f` as an interval.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let out = f();
    (out, (start, Instant::now()))
}

/// The nominal seconds of every interval (see [`Timeline::nominal_s`]).
pub fn nominal(timeline: &Timeline, spans: &[Interval]) -> Vec<f64> {
    spans
        .iter()
        .map(|&(a, b)| timeline.nominal_s(a, b))
        .collect()
}

/// The set-up a run pays before simulating: build every workload,
/// publish each distinct image, construct one machine per distinct
/// configuration. Returns the workloads.
fn setup(jobs: &[Job]) -> Vec<Workload> {
    let workloads: Vec<Workload> = jobs.iter().map(Job::build).collect();
    let mut published = HashMap::new();
    for w in &workloads {
        published
            .entry(w.image.fingerprint())
            .or_insert_with(|| w.image.publish());
    }
    let mut configs: Vec<&MachineConfig> = Vec::new();
    for job in jobs {
        if !configs.contains(&&job.cfg) {
            configs.push(&job.cfg);
        }
    }
    let machines: Vec<Machine> = configs.into_iter().cloned().map(Machine::new).collect();
    std::hint::black_box((published, machines));
    workloads
}

/// The fleet specs of `jobs`. With a `clock`, each job's validator first
/// takes a reference reading, so the fleet's worker reads the host as
/// each job completes.
fn fleet_specs(jobs: &[&Job], clock: Option<&RefClock>) -> Vec<FleetJobSpec> {
    jobs.iter()
        .map(|j| {
            let mut workload = j.build();
            if let Some(clock) = clock {
                let (clock, validate) = (clock.clone(), workload.validate);
                workload.validate = Box::new(move |mem| {
                    clock.read();
                    validate(mem)
                });
            }
            FleetJobSpec {
                key_parts: vec![j.id.clone()],
                workload,
                cfg: j.cfg.clone(),
            }
        })
        .collect()
}

/// The key `run_jobs_fleet` stores job `job` under.
fn store_key(job: &Job, w: &Workload) -> String {
    job_key(&[&job.id], w.fingerprint(), cfg_fingerprint(&job.cfg))
}

fn check_results(
    checker: &mut Checker,
    path: &str,
    jobs: &[&Job],
    results: &[Result<glsc_kernels::KernelOutcome, glsc_bench::JobError>],
) {
    for (job, r) in jobs.iter().zip(results) {
        checker.job(
            path,
            &job.id,
            r.as_ref().map(|o| &o.report).map_err(|e| e.message()),
        );
    }
}

/// Every job's report, in job order (the first one the checker saw).
pub fn reports<'c>(checker: &'c Checker, jobs: &[Job]) -> Vec<&'c RunReport> {
    jobs.iter().filter_map(|j| checker.report(&j.id)).collect()
}

/// Simulated cycles summed over the job set.
pub fn total_cycles(checker: &Checker, jobs: &[Job]) -> u64 {
    reports(checker, jobs).iter().map(|r| r.cycles).sum()
}

/// The (Base, GLSC) speed-up geomean of the job set.
pub fn speedup(checker: &mut Checker, jobs: &[Job]) -> f64 {
    let samples: Vec<PairSample> = jobs
        .iter()
        .filter_map(|j| {
            Some(PairSample {
                pair: j.pair.clone(),
                glsc: j.variant == glsc_kernels::Variant::Glsc,
                cycles: checker.report(&j.id)?.cycles,
            })
        })
        .collect();
    glsc_speedup(&samples).unwrap_or_else(|e| {
        checker.fail(format!("glsc_speedup: {e}"));
        0.0
    })
}

/// The untraced run: every end-to-end metric.
pub fn untraced(
    jobs: &[Job],
    seconds: f64,
    scratch: &Path,
    seed: u64,
    checker: &mut Checker,
    clock: &RefClock,
) -> Metrics {
    let n = jobs.len();
    let pacer = Pacer::new(seconds);
    let store = JobStore::at(scratch.join("store"), true);
    let mut store_filled = false;
    let (mut setups, mut solos, mut fleets, mut cacheds) = (vec![], vec![], vec![], vec![]);
    let mut per_job: Vec<Vec<Interval>> = vec![Vec::new(); n];
    loop {
        // Set-up and cached passes are short, so each round takes
        // several of each to keep their medians as steady as the rest.
        let mut workloads = Vec::new();
        for _ in 0..SHORT_PASSES {
            if !pacer.fits_spans(&setups) {
                break;
            }
            drop(std::mem::take(&mut workloads));
            clock.read();
            let (built, span) = timed(|| setup(jobs));
            workloads = built;
            setups.push(span);
        }
        if workloads.is_empty() || !pacer.fits_spans(&solos) {
            break;
        }
        // Every round runs the set in its own seed-derived order, so
        // order effects (which configurations share the fleet's window)
        // average out over the run instead of following the seed.
        let order = session_order(&(0..n).collect::<Vec<_>>(), seed, solos.len() as u64);
        let pass_jobs: Vec<&Job> = order.iter().map(|&i| &jobs[i]).collect();
        let pass = Instant::now();
        for &i in &order {
            let (job, w) = (&jobs[i], &workloads[i]);
            clock.read();
            let (out, span) = timed(|| run_workload(w, &job.cfg));
            per_job[i].push(span);
            let report = out.as_ref().map(|o| &o.report).map_err(Clone::clone);
            let passed = checker.job("solo", &job.id, report);
            if let (Ok(out), true, false) = (&out, passed, store_filled) {
                store.save(&store_key(job, w), &out.report);
            }
        }
        clock.read();
        store_filled = true;
        solos.push((pass, Instant::now()));
        drop(workloads);

        if !pacer.fits_spans(&fleets) {
            break;
        }
        let (results, span) = timed(|| {
            run_jobs_fleet(
                &JobStore::disabled(),
                fleet_specs(&pass_jobs, Some(clock)),
                1,
            )
        });
        fleets.push(span);
        clock.read();
        check_results(checker, "fleet", &pass_jobs, &results);

        for _ in 0..SHORT_PASSES {
            if !pacer.fits_spans(&cacheds) {
                break;
            }
            let (results, span) =
                timed(|| run_jobs_fleet(&store, fleet_specs(&pass_jobs, None), 1));
            cacheds.push(span);
            clock.read();
            check_results(checker, "cached", &pass_jobs, &results);
        }
        let wall = |s: &[Interval]| s.last().map_or(0.0, |(a, b)| (*b - *a).as_secs_f64());
        eprintln!(
            "round {}: solo {:.3}s fleet {:.3}s",
            solos.len(),
            wall(&solos),
            wall(&fleets)
        );
    }

    let timeline = clock.timeline();
    let mut m = Metrics::default();
    let cycles = total_cycles(checker, jobs) as f64;
    // Each job's time is the median of its samples in the run.
    let job_s: Vec<f64> = per_job
        .iter()
        .filter_map(|spans| median(&nominal(&timeline, spans)))
        .collect();
    let solo_s: f64 = job_s.iter().sum();
    m.set("solo_mcyc_per_s", cycles / solo_s / 1e6, per_job[0].len());
    let fleet_s = median(&nominal(&timeline, &fleets)).unwrap_or(f64::NAN);
    m.set("fleet_mcyc_per_s", cycles / fleet_s / 1e6, fleets.len());
    m.set("jobs_per_s", n as f64 / fleet_s, fleets.len());
    // Percentiles over every solo sample of every job: with several
    // samples a job, the tail does not rest on one job's few samples.
    let ms: Vec<f64> = per_job
        .iter()
        .flat_map(|spans| nominal(&timeline, spans))
        .map(|s| s * 1e3)
        .collect();
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p80_ms", 80.0)] {
        match percentile(&ms, p) {
            Some(p) => m.set(name, p.value, p.samples),
            None => {
                checker.fail(format!("{name}: fewer than 10 jobs beyond it"));
            }
        }
    }
    let cached_s = median(&nominal(&timeline, &cacheds)).unwrap_or(f64::NAN);
    m.set("cached_jobs_per_s", n as f64 / cached_s, cacheds.len());
    m.set(
        "setup_s",
        median(&nominal(&timeline, &setups)).unwrap_or(f64::NAN),
        setups.len(),
    );
    m.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(f64::NAN),
        1,
    );
    m.set("glsc_speedup", speedup(checker, jobs), n / 2);
    m
}

/// The traced run: spans around every call into the kernels, machine,
/// fleet and store layers; every per-layer metric.
pub fn traced(
    jobs: &[Job],
    seconds: f64,
    scratch: &Path,
    checker: &mut Checker,
    tracer: &mut Tracer,
    clock: &RefClock,
) -> Metrics {
    let pacer = Pacer::new(seconds);
    let (mut rounds, mut fleets) = (vec![], vec![]);
    let all: Vec<&Job> = jobs.iter().collect();
    loop {
        if !pacer.fits(&rounds) {
            break;
        }
        let t = Instant::now();
        solo_round(jobs, checker, tracer, clock);
        rounds.push(t.elapsed().as_secs_f64());

        if !pacer.fits(&fleets) {
            break;
        }
        let t = Instant::now();
        let pass = tracer.enter("fleet.pass", None);
        let specs = tracer.span("kernels.build", None, || fleet_specs(&all, None));
        let results = tracer.span("sim.fleet.run_jobs_fleet", None, || {
            run_jobs_fleet(&JobStore::disabled(), specs, 1)
        });
        tracer.exit(pass);
        fleets.push(t.elapsed().as_secs_f64());
        check_results(checker, "fleet", &all, &results);
    }
    let sizes = traced_store(jobs, scratch, checker, tracer);

    let mut m = Metrics::default();
    let spans = tracer.spans();
    let run_per_pass = solo_metrics(tracer, &clock.timeline(), jobs, checker, None, &mut m);
    let fleet_runs = durations_s(spans, "sim.fleet.run_jobs_fleet");
    m.set(
        "sim.fleet.overhead_frac",
        median(&fleet_runs).unwrap_or(f64::NAN) / run_per_pass - 1.0,
        fleet_runs.len(),
    );
    store_metrics(spans, &sizes, &mut m);
    sim_counts(&reports(checker, jobs), &mut m);
    m
}

/// One traced set-up, one traced solo pass, and one untraced solo pass
/// (plain `run_workload`) to measure what the spans cost. Both solo
/// passes take a reference reading before every job.
pub fn solo_round(jobs: &[Job], checker: &mut Checker, tracer: &mut Tracer, clock: &RefClock) {
    let workloads = traced_setup(jobs, tracer);
    traced_solo(jobs, &workloads, checker, tracer, clock);
    let pass = tracer.enter("solo.untraced", None);
    for (job, w) in jobs.iter().zip(&workloads) {
        clock.read();
        let out = run_workload(w, &job.cfg);
        let report = out.as_ref().map(|o| &o.report).map_err(Clone::clone);
        checker.job("solo", &job.id, report);
    }
    clock.read();
    tracer.exit(pass);
}

/// The machine, kernels and tracing metrics of the solo rounds. The
/// `Machine::run` share is of the solo job spans, or of `window` seconds
/// when given. Returns the median `Machine::run` time per solo pass, in
/// seconds.
pub fn solo_metrics(
    tracer: &Tracer,
    timeline: &Timeline,
    jobs: &[Job],
    checker: &Checker,
    window: Option<f64>,
    m: &mut Metrics,
) -> f64 {
    let spans = tracer.spans();
    let solo = pass_sums(spans, "solo.pass");
    let setup = pass_sums(spans, "setup");
    let run_ns = |p: &std::collections::BTreeMap<&str, crate::trace::LayerTotal>| {
        p.get("sim.machine.run").map_or(0, |t| t.self_ns) as f64
    };
    let run_total: f64 = solo.iter().map(run_ns).sum();
    let job_total: f64 = solo
        .iter()
        .map(|p| p.get("job").map_or(0, |t| t.total_ns) as f64)
        .sum();
    let passes = solo.len() as f64;
    let done = reports(checker, jobs);
    let cycles = done.iter().map(|r| r.cycles).sum::<u64>() as f64 * passes;
    let instrs = done.iter().map(|r| r.total_instructions()).sum::<u64>() as f64 * passes;
    let runs = jobs.len() * solo.len();
    m.set("sim.machine.run_ns_per_cycle", run_total / cycles, runs);
    m.set("sim.machine.run_ns_per_instr", run_total / instrs, runs);
    let run_per_pass =
        median(&solo.iter().map(|p| run_ns(p) / 1e9).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let share = match window {
        Some(w) => run_per_pass / w,
        None => run_total / job_total,
    };
    m.set("sim.machine.run_share", share, runs);
    for (metric, span, passes) in [
        ("kernels.build_ms", "kernels.build", &setup),
        ("kernels.image_publish_ms", "kernels.image_publish", &setup),
        ("kernels.validate_ms", "kernels.validate", &solo),
        ("kernels.image_apply_ms", "kernels.image_apply", &solo),
        ("sim.machine.new_ms", "sim.machine.new", &solo),
    ] {
        let (v, n) = median_pass_ms(passes, span);
        m.set(metric, v, n);
    }
    // Both passes at the nominal host speed, readings left out, so the
    // host's drift between them does not pass for tracing cost.
    let pass_s = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let (a, b) = tracer.interval(s);
                timeline.nominal_s(a, b)
            })
            .collect()
    };
    let (traced, plain) = (pass_s("solo.pass"), pass_s("solo.untraced"));
    m.set(
        "trace.overhead_frac",
        median(&traced).unwrap_or(f64::NAN) / median(&plain).unwrap_or(f64::NAN) - 1.0,
        traced.len().min(plain.len()),
    );
    run_per_pass
}

/// Set-up with a span around every build, publish and machine build.
fn traced_setup(jobs: &[Job], tracer: &mut Tracer) -> Vec<Workload> {
    let pass = tracer.enter("setup", None);
    let workloads: Vec<Workload> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| tracer.span("kernels.build", Some(i as u32), || j.build()))
        .collect();
    let mut published = HashMap::new();
    for w in &workloads {
        if let Entry::Vacant(slot) = published.entry(w.image.fingerprint()) {
            slot.insert(tracer.span("kernels.image_publish", None, || w.image.publish()));
        }
    }
    let mut configs: Vec<&MachineConfig> = Vec::new();
    for job in jobs {
        if !configs.contains(&&job.cfg) {
            configs.push(&job.cfg);
        }
    }
    let machines: Vec<Machine> = configs
        .into_iter()
        .map(|cfg| tracer.span("setup.machine.new", None, || Machine::new(cfg.clone())))
        .collect();
    std::hint::black_box((published, machines));
    tracer.exit(pass);
    workloads
}

/// One solo pass with `run_workload` unrolled into its public calls,
/// each in its own span.
fn traced_solo(
    jobs: &[Job],
    workloads: &[Workload],
    checker: &mut Checker,
    tracer: &mut Tracer,
    clock: &RefClock,
) {
    let pass = tracer.enter("solo.pass", None);
    for (i, (job, w)) in jobs.iter().zip(workloads).enumerate() {
        clock.read();
        let id = Some(i as u32);
        let span = tracer.enter("job", id);
        let mut machine = tracer.span("sim.machine.new", id, || Machine::new(job.cfg.clone()));
        tracer.span("kernels.image_apply", id, || {
            w.image.apply(machine.mem_mut().backing_mut())
        });
        tracer.span("sim.machine.load_program", id, || {
            machine.load_program(w.program.clone())
        });
        let run = tracer.span("sim.machine.run", id, || machine.run());
        let outcome = match run {
            Ok(report) => tracer
                .span("kernels.validate", id, || {
                    (w.validate)(machine.mem().backing())
                })
                .map(|()| report)
                .map_err(|e| format!("validation failed: {e}")),
            Err(e) => Err(format!("simulation failed: {e}")),
        };
        tracer.span("sim.machine.drop", id, || drop(machine));
        tracer.exit(span);
        checker.job(
            "solo-traced",
            &job.id,
            outcome.as_ref().map_err(Clone::clone),
        );
    }
    clock.read();
    tracer.exit(pass);
}

/// Saves and loads every job's report through a scratch `JobStore`,
/// with spans around the codec and each store call.
/// Returns the encoded size of every report, in bytes.
pub fn traced_store(
    jobs: &[Job],
    scratch: &Path,
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let store = JobStore::at(scratch.join("traced-store"), true);
    let pass = tracer.enter("store.pass", None);
    let mut loaded = Vec::new();
    let mut sizes = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let Some(report) = checker.report(&job.id).cloned() else {
            continue;
        };
        let id = Some(i as u32);
        let key = format!("perfbench-{i}");
        let text = tracer.span("bench.codec.encode", id, || encode_report(&report));
        sizes.push(text.len() as f64);
        tracer.span("bench.store.save", id, || store.save(&key, &report));
        let back = tracer.span("bench.store.load", id, || store.load(&key));
        loaded.push((i, back));
    }
    tracer.exit(pass);
    for (i, back) in loaded {
        let job = &jobs[i];
        checker.job(
            "store",
            &job.id,
            back.as_ref()
                .ok_or_else(|| "store lost the report".to_string()),
        );
    }
    sizes
}

/// `bench.store.*` from the store pass and `bench.codec.report_bytes`
/// from the encoded `sizes`.
pub fn store_metrics(spans: &[crate::trace::Span], sizes: &[f64], m: &mut Metrics) {
    if !sizes.is_empty() {
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        m.set("bench.codec.report_bytes", mean, sizes.len());
    }
    let passes = pass_sums(spans, "store.pass");
    for (metric, span) in [
        ("bench.store.save_ms", "bench.store.save"),
        ("bench.store.load_ms", "bench.store.load"),
    ] {
        let (total, count) = passes
            .iter()
            .filter_map(|p| p.get(span))
            .fold((0, 0), |(t, c), s| (t + s.total_ns, c + s.count));
        if count > 0 {
            m.set(metric, total as f64 / count as f64 / 1e6, count as usize);
        }
    }
}
