//! The `service` workload: one client process driving a `glsc-serve
//! serve --stdio` child over its framed protocol. A closed loop whose
//! window is the whole sweep: the client writes every `Submit` and a
//! `Run`, then reads up to `SweepDone`.
//!
//! Each cycle of the run is one cold session in a fresh state dir (the
//! 56 figure-suite jobs simulated, checkpointed and journaled by the
//! server's defaults) followed by cached sessions that restart the
//! server on the same dir and resubmit the same 56, which it answers
//! from its result store.

use crate::batch::{
    nominal, reports, solo_metrics, solo_round, store_metrics, total_cycles, traced_store,
    Interval, Pacer,
};
use crate::check::Checker;
use crate::host::{self, RefClock, RefSampler};
use crate::jobs::{session_order, Job};
use crate::layers::{durations_s, pass_sums, sim_counts};
use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use crate::trace::{self_times, Tracer};
use glsc_bench::codec::decode_report;
use glsc_bench::jobspec::WireJobSpec;
use glsc_serve::journal::{Journal, JournalRecord};
use glsc_serve::proto::{read_frame, write_message, Reply, Request};
use glsc_serve::session::run_session;
use glsc_serve::ServiceConfig;
use glsc_sim::{Fleet, FleetJob, MachineSnapshot, PauseCtl};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Cached sessions after each cold one.
const CACHED_PER_COLD: usize = 4;

/// Longest a session may take before the client kills the server.
const SESSION_TIMEOUT: Duration = Duration::from_secs(120);

/// Checkpoint cadence and fleet width of the checkpoint-cost replay:
/// `glsc-serve`'s defaults when this benchmark was written.
const CHECKPOINT_EVERY: u64 = 20_000;
const FLEET_WIDTH: usize = 4;

/// One reply frame and when it was read.
struct Frame {
    at: Instant,
    decode: Duration,
    bytes: usize,
    reply: Reply,
}

/// One request frame and when it was encoded and written.
struct Sent {
    id: Option<String>,
    encode_start: Instant,
    encoded: Instant,
    written: Instant,
}

/// Everything one session recorded.
struct Session {
    spawned: Instant,
    sent: Vec<Sent>,
    frames: Vec<Frame>,
    exited: Instant,
    server_peak_rss_mb: Option<f64>,
    server_written: Option<u64>,
    server_sched: host::SchedStat,
}

impl Session {
    fn first_reply(&self) -> Instant {
        self.frames.first().map_or(self.exited, |f| f.at)
    }

    /// Spawn to first reply frame.
    fn setup(&self) -> Interval {
        (self.spawned, self.first_reply())
    }

    /// Spawn to first reply frame, in seconds.
    fn setup_s(&self) -> f64 {
        (self.first_reply() - self.spawned).as_secs_f64()
    }

    /// The server's run phase: the last `Accepted` frame read (every
    /// submission admitted and journaled) to `SweepDone` read.
    fn run(&self) -> Option<Interval> {
        let admitted = self
            .frames
            .iter()
            .filter(|f| matches!(f.reply, Reply::Accepted { .. }))
            .map(|f| f.at)
            .next_back()?;
        Some((admitted, self.sweep_done()?))
    }

    fn first_submit(&self) -> Instant {
        self.sent.first().map_or(self.spawned, |s| s.written)
    }

    fn sweep_done(&self) -> Option<Instant> {
        self.frames
            .iter()
            .find(|f| matches!(f.reply, Reply::SweepDone { .. }))
            .map(|f| f.at)
    }

    /// First `Submit` written to `SweepDone` read.
    fn window(&self) -> Option<Interval> {
        Some((self.first_submit(), self.sweep_done()?))
    }

    /// First `Submit` written to `SweepDone` read, in seconds.
    fn window_s(&self) -> Option<f64> {
        self.window().map(|(a, b)| (b - a).as_secs_f64())
    }

    /// Per job: `Submit` written to `JobDone` read.
    fn latencies(&self) -> Vec<Interval> {
        let written: HashMap<&str, Instant> = self
            .sent
            .iter()
            .filter_map(|s| Some((s.id.as_deref()?, s.written)))
            .collect();
        self.frames
            .iter()
            .filter_map(|f| match &f.reply {
                Reply::JobDone { id, .. } => Some((*written.get(id.as_str())?, f.at)),
                _ => None,
            })
            .collect()
    }
}

/// The request bytes of one sweep: every `Submit`, then `Run`, one
/// frame per entry.
fn request_frames(specs: &[WireJobSpec]) -> Vec<(Option<String>, Request)> {
    let mut out: Vec<(Option<String>, Request)> = specs
        .iter()
        .map(|spec| {
            (
                Some(spec.id()),
                Request::Submit {
                    priority: 0,
                    spec: spec.clone(),
                },
            )
        })
        .collect();
    out.push((None, Request::Run));
    out
}

fn wait_bounded(child: &mut Child, limit: Duration) -> Result<std::process::ExitStatus, String> {
    let until = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not exit after its stdin closed".into());
            }
            Err(e) => return Err(format!("waiting for the server: {e}")),
        }
    }
}

/// Spawns the server on `state_dir`, sends one sweep, reads up to
/// `SweepDone`, reads the server's `/proc` counters, closes its stdin
/// and waits for it to exit.
fn session(serve_bin: &Path, state_dir: &Path, specs: &[WireJobSpec]) -> Result<Session, String> {
    let log = std::fs::File::create(state_dir.with_extension("log"))
        .map_err(|e| format!("server log: {e}"))?;
    let spawned = Instant::now();
    let mut child = Command::new(serve_bin)
        .args(["serve", "--stdio", "--state-dir"])
        .arg(state_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log))
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", serve_bin.display()))?;
    let pid = child.id().to_string();
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");

    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut input = BufReader::new(stdout);
        let mut frames = Vec::new();
        let end = loop {
            match read_frame(&mut input) {
                Ok(Some(payload)) => {
                    let at = Instant::now();
                    let reply = glsc_wire::from_bytes::<Reply>(&payload);
                    let decode = at.elapsed();
                    match reply {
                        Ok(reply) => {
                            let done = matches!(reply, Reply::SweepDone { .. });
                            frames.push(Frame {
                                at,
                                decode,
                                bytes: payload.len(),
                                reply,
                            });
                            if done {
                                break Ok(());
                            }
                        }
                        Err(e) => break Err(format!("undecodable reply frame: {e}")),
                    }
                }
                Ok(None) => break Err("server closed its stdout before SweepDone".to_string()),
                Err(e) => break Err(format!("bad reply frame: {e}")),
            }
        };
        let _ = tx.send(end.map(|()| frames));
    });

    let mut sent = Vec::new();
    let mut write_err = None;
    for (id, request) in request_frames(specs) {
        let encode_start = Instant::now();
        let mut frame = Vec::new();
        write_message(&mut frame, &request).expect("writing to a Vec cannot fail");
        let encoded = Instant::now();
        if let Err(e) = stdin.write_all(&frame) {
            write_err = Some(format!("writing a request: {e}"));
            break;
        }
        sent.push(Sent {
            id,
            encode_start,
            encoded,
            written: Instant::now(),
        });
    }
    let frames = match write_err {
        Some(e) => Err(e),
        None => match rx.recv_timeout(SESSION_TIMEOUT) {
            Ok(result) => result,
            Err(_) => Err(format!(
                "no SweepDone within {}s",
                SESSION_TIMEOUT.as_secs()
            )),
        },
    };
    let server_peak_rss_mb = host::peak_rss_mb(&pid);
    let server_written = host::written_bytes(&pid);
    let server_sched = host::schedstat(&pid);
    if frames.is_err() {
        let _ = child.kill();
    }
    drop(stdin);
    let status = wait_bounded(&mut child, Duration::from_secs(30));
    let exited = Instant::now();
    let _ = reader.join();
    let frames = frames?;
    match status? {
        s if s.success() => Ok(Session {
            spawned,
            sent,
            frames,
            exited,
            server_peak_rss_mb,
            server_written,
            server_sched,
        }),
        s => Err(format!("server exited with {s}")),
    }
}

/// Checks every frame of a session: each job's `JobDone` against the
/// goldens, and the `SweepDone` tally. Refused or failed frames and
/// missing results are failed operations.
fn check_frames(frames: &[Frame], specs: &[WireJobSpec], path: &str, checker: &mut Checker) {
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for f in frames {
        match &f.reply {
            Reply::Accepted { .. } => {}
            Reply::JobDone {
                id, cycles, report, ..
            } => {
                let decoded = decode_report(report)
                    .map_err(|e| format!("undecodable report: {e}"))
                    .and_then(|r| {
                        if r.cycles == *cycles {
                            Ok(r)
                        } else {
                            Err(format!("frame says {cycles} cycles, report {}", r.cycles))
                        }
                    });
                checker.job(path, id, decoded.as_ref().map_err(Clone::clone));
                done.insert(id);
            }
            Reply::SweepDone { ok, failed, shed } => {
                if (*ok as usize, *failed, *shed) == (specs.len(), 0, 0) {
                    checker.attempted += 1;
                } else {
                    checker.fail_op(format!(
                        "{path}: SweepDone {{ ok: {ok}, failed: {failed}, shed: {shed} }}, want ok: {}",
                        specs.len()
                    ));
                }
            }
            other => checker.fail_op(format!("{path}: {other:?}")),
        }
    }
    for spec in specs {
        let id = spec.id();
        if !done.contains(id.as_str()) {
            checker.fail_op(format!("{path} {id}: no JobDone"));
        }
    }
}

fn wire_specs(jobs: &[Job]) -> Vec<WireJobSpec> {
    jobs.iter()
        .map(|j| j.wire.clone().expect("service jobs are figure-suite jobs"))
        .collect()
}

fn run_checked(
    serve_bin: &Path,
    dir: &Path,
    specs: &[WireJobSpec],
    path: &str,
    checker: &mut Checker,
) -> Option<Session> {
    match session(serve_bin, dir, specs) {
        Ok(s) => {
            check_frames(&s.frames, specs, path, checker);
            Some(s)
        }
        Err(e) => {
            let log = std::fs::read_to_string(dir.with_extension("log")).unwrap_or_default();
            let tail: Vec<&str> = log.lines().rev().take(5).collect();
            checker.fail_op(format!("{path} session: {e}; server log tail: {tail:?}"));
            None
        }
    }
}

/// The untraced run: every end-to-end metric. A sampler thread reads the
/// reference clock while the server works, and every session time is
/// taken against those readings.
pub fn untraced(
    jobs: &[Job],
    seconds: f64,
    scratch: &Path,
    serve_bin: &Path,
    seed: u64,
    checker: &mut Checker,
    clock: &RefClock,
) -> (Metrics, host::SchedStat) {
    let specs = wire_specs(jobs);
    let pacer = Pacer::new(seconds);
    let (mut colds, mut cacheds) = (Vec::new(), Vec::new());
    let mut cycle_wall = Vec::new();
    let sampler = RefSampler::start(clock);
    // Whole cycles only: a cached session replays the journal of every
    // session before it on its state dir, so its window and spawn time
    // grow through a cycle, and a cycle cut short would shift the medians.
    'run: for k in 0.. {
        if !pacer.fits(&cycle_wall) {
            break;
        }
        let dir = scratch.join(format!("state-{k}"));
        let order = session_order(&specs, seed, k);
        let t = Instant::now();
        let Some(cold) = run_checked(serve_bin, &dir, &order, "service-cold", checker) else {
            break 'run;
        };
        colds.push(cold);
        for _ in 0..CACHED_PER_COLD {
            match run_checked(serve_bin, &dir, &order, "service-cached", checker) {
                Some(s) => cacheds.push(s),
                None => break 'run,
            }
        }
        cycle_wall.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }
    sampler.finish();

    let timeline = clock.timeline();
    let n = specs.len() as f64;
    let cycles = total_cycles(checker, jobs) as f64;
    let windows = nominal(
        &timeline,
        &colds.iter().filter_map(Session::window).collect::<Vec<_>>(),
    );
    let runs = nominal(
        &timeline,
        &colds.iter().filter_map(Session::run).collect::<Vec<_>>(),
    );
    let window = median(&windows).unwrap_or(f64::NAN);
    let mut m = Metrics::default();
    m.set("jobs_per_s", n / window, windows.len());
    m.set("solo_mcyc_per_s", cycles / window / 1e6, windows.len());
    m.set(
        "fleet_mcyc_per_s",
        cycles / median(&runs).unwrap_or(f64::NAN) / 1e6,
        runs.len(),
    );
    let latencies: Vec<f64> = colds
        .iter()
        .flat_map(|s| nominal(&timeline, &s.latencies()))
        .map(|s| s * 1e3)
        .collect();
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p80_ms", 80.0)] {
        match percentile(&latencies, p) {
            Some(p) => m.set(name, p.value, p.samples),
            None => {
                checker.fail(format!("{name}: fewer than 10 samples beyond it"));
            }
        }
    }
    let cached = nominal(
        &timeline,
        &cacheds
            .iter()
            .filter_map(Session::window)
            .collect::<Vec<_>>(),
    );
    m.set(
        "cached_jobs_per_s",
        n / median(&cached).unwrap_or(f64::NAN),
        cached.len(),
    );
    let setups = nominal(
        &timeline,
        &colds
            .iter()
            .chain(&cacheds)
            .map(Session::setup)
            .collect::<Vec<_>>(),
    );
    m.set("setup_s", median(&setups).unwrap_or(f64::NAN), setups.len());
    let rss: Vec<f64> = colds.iter().filter_map(|s| s.server_peak_rss_mb).collect();
    m.set("peak_rss_mb", median(&rss).unwrap_or(f64::NAN), rss.len());
    m.set(
        "glsc_speedup",
        crate::batch::speedup(checker, jobs),
        jobs.len() / 2,
    );
    (m, server_sched(colds.iter().chain(&cacheds)))
}

/// Scheduler counters of the server processes, summed over sessions.
fn server_sched<'a>(sessions: impl Iterator<Item = &'a Session>) -> host::SchedStat {
    let mut total = host::SchedStat::default();
    for s in sessions {
        total.add(s.server_sched);
    }
    total
}

/// Journal records by job id.
fn records_by_job(records: &[JournalRecord]) -> BTreeMap<&str, Vec<&JournalRecord>> {
    let mut out: BTreeMap<&str, Vec<&JournalRecord>> = BTreeMap::new();
    for r in records {
        out.entry(r.job()).or_default().push(r);
    }
    out
}

/// The traced run: spans around the client's frame codec and IO, the
/// journal, the store, the snapshot codec, an in-process session and a
/// traced solo pass; every per-layer metric the service exercises.
pub fn traced(
    jobs: &[Job],
    scratch: &Path,
    serve_bin: &Path,
    seed: u64,
    checker: &mut Checker,
    tracer: &mut Tracer,
    clock: &RefClock,
) -> (Metrics, host::SchedStat) {
    let specs = session_order(&wire_specs(jobs), seed, 0);
    let n = specs.len() as f64;
    let mut m = Metrics::default();
    let dir = scratch.join("state-traced");

    // Cold and cached sessions, spans rebuilt from the client's clocks.
    let journal_path = dir.join("journal.log");
    let cold = run_checked(serve_bin, &dir, &specs, "service-cold", checker);
    let cold_records = Journal::open(&journal_path)
        .map(|(_, r)| r)
        .unwrap_or_default();
    let cached = run_checked(serve_bin, &dir, &specs, "service-cached", checker);
    let all_records = Journal::open(&journal_path)
        .map(|(_, r)| r)
        .unwrap_or_default();
    for s in cold.iter().chain(&cached) {
        record_session(s, tracer);
    }
    let spawns: Vec<f64> = cold
        .iter()
        .chain(&cached)
        .map(|s| s.setup_s() * 1e3)
        .collect();
    if let Some(v) = median(&spawns) {
        m.set("serve.spawn_ms", v, spawns.len());
    }
    if let Some(cold) = &cold {
        let accepted: Vec<Instant> = cold
            .frames
            .iter()
            .filter(|f| matches!(f.reply, Reply::Accepted { .. }))
            .map(|f| f.at)
            .collect();
        let gaps: Vec<f64> = accepted
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        if let Some(v) = median(&gaps) {
            m.set("serve.session.admit_ms", v, gaps.len());
        }
        if let Some(bytes) = cold.server_written {
            m.set(
                "serve.service.io_write_mb",
                bytes as f64 / (1u64 << 20) as f64,
                1,
            );
        }
        let encode: Vec<f64> = cold
            .sent
            .iter()
            .map(|s| (s.encoded - s.encode_start).as_secs_f64() * 1e6)
            .collect();
        m.set(
            "serve.proto.encode_us",
            encode.iter().sum::<f64>() / encode.len() as f64,
            encode.len(),
        );
        let done: Vec<&Frame> = cold
            .frames
            .iter()
            .filter(|f| matches!(f.reply, Reply::JobDone { .. }))
            .collect();
        if !done.is_empty() {
            let k = done.len() as f64;
            let decode = done
                .iter()
                .map(|f| f.decode.as_secs_f64() * 1e6)
                .sum::<f64>();
            let bytes = done.iter().map(|f| f.bytes as f64).sum::<f64>();
            m.set("serve.proto.decode_us", decode / k, done.len());
            m.set("serve.proto.frame_bytes", bytes / k, done.len());
        }
    }

    // The durable journal: what the cold session wrote, what a resubmit
    // costs, and what one append costs.
    let cold_by_job = records_by_job(&cold_records);
    let running = |recs: &[&JournalRecord]| {
        recs.iter()
            .filter(|r| matches!(r, JournalRecord::Running { .. }))
            .count()
    };
    let checkpoints: usize = cold_by_job.values().map(|r| running(r)).sum();
    m.set(
        "serve.service.checkpoints_per_job",
        checkpoints as f64 / n,
        cold_by_job.len(),
    );
    m.set(
        "serve.journal.records_per_job",
        cold_records.len() as f64 / n,
        cold_records.len(),
    );
    if cached.is_some() {
        let resubmit = records_by_job(&all_records[cold_records.len().min(all_records.len())..]);
        let hits = specs
            .iter()
            .filter(|s| {
                resubmit.get(s.id().as_str()).is_some_and(|recs| {
                    running(recs) == 0
                        && !recs
                            .iter()
                            .any(|r| matches!(r, JournalRecord::Failed { .. }))
                })
            })
            .count();
        m.set("serve.service.cache_hit_frac", hits as f64 / n, specs.len());
    }
    let appends = replay_appends(&cold_records, &scratch.join("journal-replay"), tracer);
    if appends > 0 {
        let spans = durations_s(tracer.spans(), "serve.journal.append");
        let mean = spans.iter().sum::<f64>() / spans.len() as f64;
        m.set("serve.journal.append_ms", mean * 1e3, spans.len());
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The same request bytes through `run_session` in this process.
    let inproc_dir = scratch.join("state-inproc");
    let mut request = Vec::new();
    for (_, r) in request_frames(&specs) {
        write_message(&mut request, &r).expect("writing to a Vec cannot fail");
    }
    let mut replies = Vec::new();
    let t = Instant::now();
    let outcome = tracer.span("serve.session.inproc", None, || {
        run_session(
            &ServiceConfig::new(inproc_dir.clone()),
            &mut &request[..],
            &mut replies,
        )
    });
    let inproc_s = t.elapsed().as_secs_f64();
    match outcome {
        Ok(_) => {
            let mut frames = Vec::new();
            let mut rest = &replies[..];
            while let Ok(Some(payload)) = read_frame(&mut rest) {
                match glsc_wire::from_bytes::<Reply>(&payload) {
                    Ok(reply) => frames.push(Frame {
                        at: t,
                        decode: Duration::ZERO,
                        bytes: payload.len(),
                        reply,
                    }),
                    Err(e) => checker.fail_op(format!("service-inproc: bad reply: {e}")),
                }
            }
            check_frames(&frames, &specs, "service-inproc", checker);
            m.set("serve.session.inproc_s", inproc_s, 1);
        }
        Err(e) => checker.fail_op(format!("service-inproc: {e}")),
    }
    let _ = std::fs::remove_dir_all(&inproc_dir);

    // The checkpoint path, timed through public functions on the same
    // jobs at the service's cadence.
    let snapshots = checkpoint_replay(jobs, &scratch.join("checkpoints"), checker, tracer);
    if !snapshots.is_empty() {
        let mean = snapshots.iter().sum::<f64>() / snapshots.len() as f64;
        m.set("sim.codec.snapshot_bytes", mean, snapshots.len());
    }

    // A traced and an untraced solo pass, and the store.
    solo_round(jobs, checker, tracer, clock);
    let sizes = traced_store(jobs, scratch, checker, tracer);

    let spans = tracer.spans();
    store_metrics(spans, &sizes, &mut m);
    let window = cold.as_ref().and_then(Session::window_s);
    let run_per_pass = solo_metrics(tracer, &clock.timeline(), jobs, checker, window, &mut m);
    let ckpt = pass_sums(spans, "ckpt.pass");
    if let Some(p) = ckpt.first() {
        for (metric, span) in [
            ("sim.codec.snapshot_encode_ms", "sim.codec.snapshot_encode"),
            ("sim.codec.snapshot_decode_ms", "sim.codec.snapshot_decode"),
        ] {
            if let Some(t) = p.get(span) {
                let mean_ms = t.total_ns as f64 / t.count as f64 / 1e6;
                m.set(metric, mean_ms, t.count as usize);
            }
        }
    }
    // The replay's own stepping: its span minus the checkpoint and
    // validation spans inside it.
    let stepping = spans
        .iter()
        .zip(self_times(spans))
        .find(|(s, _)| s.name == "ckpt.pass")
        .map(|(_, ns)| ns as f64 / 1e9);
    if let Some(stepping) = stepping {
        m.set(
            "sim.fleet.overhead_frac",
            stepping / run_per_pass - 1.0,
            jobs.len(),
        );
    }
    let reports = reports(checker, jobs);
    sim_counts(&reports, &mut m);
    (m, server_sched(cold.iter().chain(&cached)))
}

/// Rebuilds a session's spans from the client's clocks.
fn record_session(s: &Session, tracer: &mut Tracer) {
    let span = tracer.enter("serve.session", None);
    tracer.record("serve.spawn", None, s.spawned, s.first_reply());
    for (i, sent) in s.sent.iter().enumerate() {
        let job = Some(i as u32);
        tracer.record("serve.proto.encode", job, sent.encode_start, sent.encoded);
        tracer.record("serve.request.write", job, sent.encoded, sent.written);
    }
    let index: HashMap<&str, usize> = s
        .sent
        .iter()
        .enumerate()
        .filter_map(|(i, sent)| Some((sent.id.as_deref()?, i)))
        .collect();
    for f in &s.frames {
        tracer.record("serve.proto.decode", None, f.at, f.at + f.decode);
        if let Reply::JobDone { id, .. } = &f.reply {
            if let Some(&i) = index.get(id.as_str()) {
                tracer.record("serve.job", Some(i as u32), s.sent[i].written, f.at);
            }
        }
    }
    tracer.exit(span);
}

/// Most journal appends the traced run replays: enough for a mean, few
/// enough that a slow disk cannot stretch the run.
const MAX_REPLAYED_APPENDS: usize = 256;

/// Appends the first of the cold session's records to a fresh journal,
/// one span per `Journal::append` (each one an fsync). Returns the
/// appends made.
fn replay_appends(records: &[JournalRecord], dir: &Path, tracer: &mut Tracer) -> usize {
    let _ = std::fs::create_dir_all(dir);
    let Ok((mut journal, _)) = Journal::open(&dir.join("journal.log")) else {
        return 0;
    };
    let mut made = 0;
    for r in records.iter().take(MAX_REPLAYED_APPENDS) {
        if tracer
            .span("serve.journal.append", None, || journal.append(r))
            .is_ok()
        {
            made += 1;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    made
}

/// Runs the jobs through the supervised fleet at the service's cadence
/// and width; at every pause, snapshots the machine, encodes it, writes
/// it tmp+rename like a checkpoint, and decodes it back. Returns the
/// size of every snapshot, in bytes.
fn checkpoint_replay(
    jobs: &[Job],
    dir: &Path,
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let _ = std::fs::create_dir_all(dir);
    let workloads: Vec<_> = jobs.iter().map(Job::build).collect();
    let mut published = HashMap::new();
    let fleet_jobs: Vec<FleetJob> = jobs
        .iter()
        .zip(&workloads)
        .map(|(j, w)| {
            let base = published
                .entry(w.image.fingerprint())
                .or_insert_with(|| w.image.publish());
            FleetJob::new(j.cfg.clone(), w.program.clone()).with_base(base.clone())
        })
        .collect();
    let tracer = RefCell::new(tracer);
    let results = RefCell::new(Vec::new());
    let sizes = RefCell::new(Vec::new());
    let broken = RefCell::new(Vec::new());
    let pass = tracer.borrow_mut().enter("ckpt.pass", None);
    Fleet::new()
        .with_quantum(CHECKPOINT_EVERY)
        .with_width(FLEET_WIDTH)
        .run_each_supervised(
            fleet_jobs,
            |i, machine| {
                let mut t = tracer.borrow_mut();
                let job = Some(i as u32);
                let bytes = t.span("sim.codec.snapshot_encode", job, || {
                    machine.snapshot().to_bytes()
                });
                let path = dir.join(format!("{i}.ckpt"));
                let tmp = path.with_extension("tmp");
                let written = t.span("serve.checkpoint.write", job, || {
                    std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path))
                });
                let decoded = t.span("sim.codec.snapshot_decode", job, || {
                    MachineSnapshot::from_bytes(&bytes)
                });
                sizes.borrow_mut().push(bytes.len() as f64);
                if let Err(e) = written {
                    broken.borrow_mut().push(format!("checkpoint write: {e}"));
                }
                if let Err(e) = decoded {
                    broken.borrow_mut().push(format!("snapshot decode: {e}"));
                }
                PauseCtl::Continue
            },
            |i, machine, result| {
                let w = &workloads[i];
                let outcome = match result {
                    Ok(report) => tracer
                        .borrow_mut()
                        .span("kernels.validate", Some(i as u32), || {
                            (w.validate)(machine.mem().backing())
                        })
                        .map(|()| report)
                        .map_err(|e| format!("validation failed: {e}")),
                    Err(e) => Err(e.to_string()),
                };
                results.borrow_mut().push((i, outcome));
            },
        );
    let tracer = tracer.into_inner();
    tracer.exit(pass);
    for (i, outcome) in results.into_inner() {
        checker.job(
            "checkpointed",
            &jobs[i].id,
            outcome.as_ref().map_err(Clone::clone),
        );
    }
    for e in broken.into_inner() {
        checker.fail_op(format!("checkpointed: {e}"));
    }
    let _ = std::fs::remove_dir_all(dir);
    sizes.into_inner()
}
