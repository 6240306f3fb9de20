//! `perfbench` — the end-to-end and per-layer benchmark of the GLSC
//! simulator, its sweep executor and `glsc-serve`.
//!
//! ```text
//! perfbench --workload figure-suite|contention|service --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--tiny] [--write-goldens]
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) every per-layer metric. The last line of stdout is
//! the result: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is the run's noise record. `run.sh` builds this binary and
//! `glsc-serve` and passes `--serve-bin`; see `NOTES.md`.

mod batch;
mod check;
mod host;
mod jobs;
mod layers;
mod metrics;
mod service;
mod stats;
mod trace;

use check::{Checker, Goldens};
use glsc_kernels::Dataset;
use metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::exit;

/// Ambient knobs that change what the library or the server does. They
/// are cleared before anything runs, so the server inherits none.
const AMBIENT_KNOBS: [&str; 12] = [
    "GLSC_DATASETS",
    "GLSC_BENCH_THREADS",
    "GLSC_BENCH_FLEET",
    "GLSC_BENCH_RESUME",
    "GLSC_BENCH_CACHE",
    "GLSC_BENCH_CACHE_DIR",
    "GLSC_BENCH_RETRIES",
    "GLSC_BENCH_INJECT_PANIC",
    "GLSC_BENCH_SEED",
    "GLSC_SERVE_KILL",
    "GLSC_SERVE_DIR",
    "GLSC_RESULTS_DIR",
];

const FIGURE_SUITE_GOLDENS: &str = include_str!("../goldens/figure-suite.tsv");
const CONTENTION_GOLDENS: &str = include_str!("../goldens/contention.tsv");

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    FigureSuite,
    Contention,
    Service,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    tiny: bool,
    write_goldens: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perfbench --workload figure-suite|contention|service --seed N --seconds S \
         --trace 0|1 [--serve-bin PATH] [--tiny] [--write-goldens]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::FigureSuite,
        seed: jobs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        tiny: false,
        write_goldens: false,
    };
    let mut saw_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                saw_workload = true;
                args.workload = match value().as_str() {
                    "figure-suite" => Workload::FigureSuite,
                    "contention" => Workload::Contention,
                    "service" => Workload::Service,
                    w => usage(&format!("unknown workload {w:?}")),
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value())),
            "--tiny" => args.tiny = true,
            "--write-goldens" => args.write_goldens = true,
            f => usage(&format!("unknown flag {f:?}")),
        }
    }
    if !saw_workload {
        usage("--workload is required");
    }
    args
}

fn main() {
    for knob in AMBIENT_KNOBS {
        std::env::remove_var(knob);
    }
    let args = parse_args();
    let out = PathBuf::from(".perfbench");
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        exit(1);
    }
    let code = if args.write_goldens {
        write_goldens(&args)
    } else {
        run(&args, &out, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    exit(code);
}

fn dataset(args: &Args) -> Dataset {
    if args.tiny {
        Dataset::Tiny
    } else {
        Dataset::A
    }
}

fn job_set(args: &Args, seed: u64) -> Vec<jobs::Job> {
    match args.workload {
        Workload::FigureSuite | Workload::Service => jobs::figure_suite(dataset(args), seed),
        Workload::Contention => jobs::contention(dataset(args), seed),
    }
}

fn goldens(args: &Args) -> Result<Goldens, String> {
    if args.tiny {
        return Ok(Goldens::default());
    }
    Goldens::parse(match args.workload {
        Workload::FigureSuite | Workload::Service => FIGURE_SUITE_GOLDENS,
        Workload::Contention => CONTENTION_GOLDENS,
    })
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::FigureSuite => "figure-suite",
        Workload::Contention => "contention",
        Workload::Service => "service",
    }
}

fn run(args: &Args, out: &Path, scratch: &Path) -> i32 {
    let goldens = match goldens(args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: committed goldens: {e}");
            return 1;
        }
    };
    let serve_bin = match (args.workload, &args.serve_bin) {
        (Workload::Service, None) => usage("the service workload needs --serve-bin"),
        (_, bin) => bin.clone().unwrap_or_default(),
    };
    let jobs = job_set(args, args.seed);
    let extra = golden_extra(args);
    let probe = host::NoiseProbe::start(args.seed);
    let mut checker = Checker::new(&goldens);
    if !args.tiny {
        for job in jobs.iter().chain(&extra).filter(|j| j.golden) {
            checker.require_golden(&job.id);
        }
    }
    let mut tracer = trace::Tracer::new();
    let (mut metrics, server) = match (args.workload, args.trace) {
        (Workload::Service, false) => {
            let (m, server) = service::untraced(
                &jobs,
                args.seconds,
                scratch,
                &serve_bin,
                args.seed,
                &mut checker,
                &probe.clock,
            );
            (m, Some(server))
        }
        (Workload::Service, true) => {
            let (m, server) = service::traced(
                &jobs,
                scratch,
                &serve_bin,
                args.seed,
                &mut checker,
                &mut tracer,
                &probe.clock,
            );
            (m, Some(server))
        }
        (_, false) => (
            batch::untraced(
                &jobs,
                args.seconds,
                scratch,
                args.seed,
                &mut checker,
                &probe.clock,
            ),
            None,
        ),
        (_, true) => (
            batch::traced(
                &jobs,
                args.seconds,
                scratch,
                &mut checker,
                &mut tracer,
                &probe.clock,
            ),
            None,
        ),
    };
    let noise = probe.finish(server);
    // Untimed, after the measurements: the jobs this seed replaced,
    // against their goldens.
    for job in &extra {
        let out = glsc_kernels::run_workload(&job.build(), &job.cfg);
        let report = out.as_ref().map(|o| &o.report).map_err(Clone::clone);
        checker.job("golden-extra", &job.id, report);
    }
    if args.trace {
        let wait = noise.bench.runq_wait_ns + server.map_or(0, |s| s.runq_wait_ns);
        metrics.set("host.runq_wait_ms", wait as f64 / 1e6, 1);
    }
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = metrics.complete(set, args.trace) {
        for f in &checker.failures {
            eprintln!("failed: {f}");
        }
        eprintln!("error: {e}");
        return 1;
    }
    if args.trace {
        match write_trace(out, args, &tracer) {
            Ok(path) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write the trace file: {e}"),
        }
    }
    for f in checker.failures.iter().take(20) {
        eprintln!("failed: {f}");
    }
    print!("{}", metrics.table(set));
    println!("{}", noise.to_json());
    println!(
        "{}",
        metrics.result_line(
            set,
            checker.failed() == 0,
            checker.attempted,
            checker.failed()
        )
    );
    0
}

/// The default-seed jobs a run at another seed checks against the
/// goldens without timing them (contention's `@9` pattern jobs).
fn golden_extra(args: &Args) -> Vec<jobs::Job> {
    match args.workload {
        Workload::Contention if !args.tiny => {
            jobs::contention_golden_extra(dataset(args), args.seed)
        }
        _ => Vec::new(),
    }
}

/// Writes the run's spans to `<out>/trace-<workload>-seed<seed>.tsv`.
fn write_trace(out: &Path, args: &Args, tracer: &trace::Tracer) -> std::io::Result<PathBuf> {
    let path = out.join(format!(
        "trace-{}-seed{}.tsv",
        workload_name(args.workload),
        args.seed
    ));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_tsv(&mut f)?;
    f.into_inner().map_err(|e| e.into_error())?;
    Ok(path)
}

/// Regenerates the committed goldens from solo runs at the default seed
/// on dataset A, after checking that the fleet agrees with them.
fn write_goldens(args: &Args) -> i32 {
    if args.tiny || args.workload == Workload::Service {
        usage("--write-goldens takes --workload figure-suite or contention, without --tiny");
    }
    let jobs = job_set(args, jobs::DEFAULT_SEED);
    let empty = Goldens::default();
    let mut checker = Checker::new(&empty);
    for job in &jobs {
        let out = glsc_kernels::run_workload(&job.build(), &job.cfg);
        checker.job(
            "solo",
            &job.id,
            out.as_ref().map(|o| &o.report).map_err(Clone::clone),
        );
    }
    let specs = jobs
        .iter()
        .map(|j| glsc_bench::FleetJobSpec {
            key_parts: vec![j.id.clone()],
            workload: j.build(),
            cfg: j.cfg.clone(),
        })
        .collect();
    let results = glsc_bench::run_jobs_fleet(&glsc_bench::JobStore::disabled(), specs, 1);
    for (job, r) in jobs.iter().zip(&results) {
        checker.job(
            "fleet",
            &job.id,
            r.as_ref().map(|o| &o.report).map_err(|e| e.message()),
        );
    }
    if checker.failed() > 0 {
        for f in &checker.failures {
            eprintln!("failed: {f}");
        }
        return 1;
    }
    let mut g = Goldens::default();
    for job in &jobs {
        let report = checker.report(&job.id).expect("every job passed");
        g.0.insert(job.id.clone(), check::Summary::of(report));
    }
    let name = workload_name(args.workload);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("goldens/{name}.tsv"));
    let text = g.render(&format!(
        "written by: perfbench --workload {name} --write-goldens (dataset A, seed {})",
        jobs::DEFAULT_SEED
    ));
    match std::fs::write(&path, text) {
        Ok(()) => {
            eprintln!("wrote {} rows to {}", g.0.len(), path.display());
            0
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_totals(text: &str, jobs: &[jobs::Job]) -> (u64, f64) {
        let g = Goldens::parse(text).unwrap();
        assert_eq!(g.0.len(), jobs.len(), "one golden row per job");
        let samples: Vec<stats::PairSample> = jobs
            .iter()
            .map(|j| stats::PairSample {
                pair: j.pair.clone(),
                glsc: j.variant == glsc_kernels::Variant::Glsc,
                cycles: g.0[&j.id].cycles,
            })
            .collect();
        let cycles = samples.iter().map(|s| s.cycles).sum();
        (cycles, stats::glsc_speedup(&samples).unwrap())
    }

    #[test]
    fn committed_goldens_reproduce_the_paper_speedup() {
        let fs = jobs::figure_suite(Dataset::A, jobs::DEFAULT_SEED);
        let (cycles, speedup) = golden_totals(FIGURE_SUITE_GOLDENS, &fs);
        assert_eq!(cycles, 20_813_011);
        assert!((speedup - 1.207_099_222_936_24).abs() < 1e-12, "{speedup}");
        let ct = jobs::contention(Dataset::A, jobs::DEFAULT_SEED);
        let (cycles, speedup) = golden_totals(CONTENTION_GOLDENS, &ct);
        assert_eq!(cycles, 6_654_613);
        assert!((speedup - 1.16166).abs() < 5e-5, "{speedup}");
    }
}
