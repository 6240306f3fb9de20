//! `glsc-serve` — run a supervised, crash-durable simulation sweep, or
//! serve it as a protocol-facing job service.
//!
//! ```text
//! glsc-serve sweep --state-dir DIR [options]    one-shot CLI sweep
//! glsc-serve serve --state-dir DIR (--stdio | --socket PATH) [options]
//! glsc-serve client --socket PATH [options]     submit + stream results
//!
//!   --state-dir DIR        durable state root
//!   --kernels A,B,..       kernels to run (default: all seven)
//!   --pattern SPEC         add a pattern job (glsc-patterns grammar,
//!                          e.g. conflict:p=0.25x256); repeatable, and
//!                          --kernels none drops the kernel cross product
//!   --shapes MxN,..        machine shapes (default: 1x1,1x4,4x1,4x4)
//!   --variant glsc|base    kernel variant (default: glsc)
//!   --width N              SIMD width (default: 4)
//!   --dataset tiny|a|b     dataset (default: tiny)
//!   --memory-order M       consistency model: sc|tso|relaxed
//!                          (default: sc; non-SC ids get a -tso/-relaxed
//!                          suffix so they never alias SC results)
//!   --deadline-wall-ms N   per-attempt wall-clock budget
//!   --deadline-cycles N    per-attempt simulated-cycle budget
//!   --max-failures K       failures before quarantine (default: 3)
//!   --chaos-seed S         run every job under a seeded fault plan
//!   --seed S               retry-backoff jitter seed (default: 0)
//!   --queue-cap N          admission queue capacity (serve, default: 64)
//!   --priority P           submission priority 0-255 (client, default: 0)
//!   --shutdown             ask the service to exit after the sweep (client)
//! ```
//!
//! `serve` speaks the framed protocol (`glsc_serve::proto`) over stdin
//! or a Unix socket: length-prefixed, FNV-64-checksummed frames carrying
//! job submissions, with typed shed/reject replies and streamed results.
//! `sweep` is the same session run in-process: it writes one `Submit`
//! frame per job and a `Run` into a buffer, hands that to the session,
//! and prints the replies with the table `client` prints. Its queue
//! never sheds (its input is bounded by its own arguments), and jobs a
//! crashed or drained run left pending in the journal run too, though
//! the table shows only the sweep's own jobs.
//! Exit code 0 on a clean sweep, SIGTERM drain, or client-requested
//! shutdown; 1 when any sweep job failed or was quarantined; 2 on a
//! usage error; 3 on a state-dir IO error. Killing the process at any
//! moment is safe: rerunning replays the journal, serves finished jobs
//! from the result store, reruns every unfinished job from its spec
//! (queued-but-unstarted submissions included), and prints output
//! byte-identical to what an uninterrupted run would have printed.
//!
//! `GLSC_SERVE_KILL=journal:<n>|cycles:<c>` injects a crash for the kill
//! drills (see `glsc_serve::kill`); any other value is a usage error.

use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{Dataset, Variant, KERNEL_NAMES};
use glsc_serve::proto::{print_table, read_message, write_message, Reply, Request};
use glsc_serve::session::{run_session, SessionEnd};
use glsc_serve::{kill, signal, ServiceConfig};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::exit;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: glsc-serve sweep|serve|client --state-dir DIR [options] (see --help)");
    exit(2);
}

enum Cmd {
    Sweep,
    Serve,
    Client,
}

struct Args {
    cmd: Cmd,
    state_dir: Option<PathBuf>,
    kernels: Vec<String>,
    patterns: Vec<String>,
    shapes: Vec<(usize, usize)>,
    variant: Variant,
    width: usize,
    dataset: Dataset,
    memory_order: glsc_sim::MemoryOrder,
    deadline_wall_ms: Option<u64>,
    deadline_cycles: Option<u64>,
    max_failures: u32,
    chaos_seed: Option<u64>,
    seed: u64,
    stdio: bool,
    socket: Option<PathBuf>,
    queue_cap: usize,
    priority: u8,
    shutdown: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: Cmd::Sweep,
        state_dir: None,
        kernels: KERNEL_NAMES.iter().map(|k| k.to_string()).collect(),
        patterns: Vec::new(),
        shapes: vec![(1, 1), (1, 4), (4, 1), (4, 4)],
        variant: Variant::Glsc,
        width: 4,
        dataset: Dataset::Tiny,
        memory_order: glsc_sim::MemoryOrder::Sc,
        deadline_wall_ms: None,
        deadline_cycles: None,
        max_failures: 3,
        chaos_seed: None,
        seed: 0,
        stdio: false,
        socket: None,
        queue_cap: 64,
        priority: 0,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("sweep") => args.cmd = Cmd::Sweep,
        Some("serve") => args.cmd = Cmd::Serve,
        Some("client") => args.cmd = Cmd::Client,
        Some("--help") | Some("-h") => {
            eprintln!("see the crate docs (src/main.rs header) for usage");
            exit(0);
        }
        other => usage(&format!(
            "expected the `sweep`, `serve`, or `client` subcommand, got {other:?}"
        )),
    }
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--state-dir" => args.state_dir = Some(PathBuf::from(value("--state-dir"))),
            "--kernels" => {
                let v = value("--kernels");
                args.kernels = if v == "none" {
                    Vec::new()
                } else {
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect()
                };
            }
            // Pattern specs contain commas (trace lists), so they get
            // their own repeatable flag instead of riding --kernels.
            "--pattern" => args.patterns.push(value("--pattern")),
            "--shapes" => {
                args.shapes = value("--shapes")
                    .split(',')
                    .map(|s| {
                        let (m, n) = s
                            .trim()
                            .split_once('x')
                            .unwrap_or_else(|| usage(&format!("bad shape {s:?} (want MxN)")));
                        (
                            m.parse().unwrap_or_else(|_| usage("bad shape cores")),
                            n.parse().unwrap_or_else(|_| usage("bad shape threads")),
                        )
                    })
                    .collect();
            }
            "--variant" => {
                args.variant = match value("--variant").as_str() {
                    "glsc" => Variant::Glsc,
                    "base" => Variant::Base,
                    v => usage(&format!("unknown variant {v:?}")),
                }
            }
            "--width" => {
                args.width = value("--width")
                    .parse()
                    .unwrap_or_else(|_| usage("bad width"))
            }
            "--dataset" => {
                args.dataset = match value("--dataset").to_ascii_lowercase().as_str() {
                    "tiny" | "t" => Dataset::Tiny,
                    "a" => Dataset::A,
                    "b" => Dataset::B,
                    v => usage(&format!("unknown dataset {v:?}")),
                }
            }
            "--memory-order" => {
                args.memory_order = value("--memory-order")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("{e}")))
            }
            "--deadline-wall-ms" => {
                args.deadline_wall_ms = Some(
                    value("--deadline-wall-ms")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --deadline-wall-ms")),
                )
            }
            "--deadline-cycles" => {
                args.deadline_cycles = Some(
                    value("--deadline-cycles")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --deadline-cycles")),
                )
            }
            "--max-failures" => {
                args.max_failures = value("--max-failures")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("bad --max-failures"))
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    value("--chaos-seed")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --chaos-seed")),
                )
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--stdio" => args.stdio = true,
            "--socket" => args.socket = Some(PathBuf::from(value("--socket"))),
            "--queue-cap" => {
                args.queue_cap = value("--queue-cap")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("bad --queue-cap"))
            }
            "--priority" => {
                args.priority = value("--priority")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --priority (0-255)"))
            }
            "--shutdown" => args.shutdown = true,
            f => usage(&format!("unknown flag {f:?}")),
        }
    }
    args
}

fn service_config(args: &Args) -> ServiceConfig {
    let Some(state_dir) = args.state_dir.clone() else {
        usage("--state-dir is required");
    };
    let mut cfg = ServiceConfig::new(state_dir);
    cfg.deadline_wall_ms = args.deadline_wall_ms;
    cfg.deadline_cycles = args.deadline_cycles;
    cfg.max_failures = args.max_failures;
    cfg.seed = args.seed;
    cfg.queue_capacity = args.queue_cap;
    cfg
}

fn main() {
    signal::install_term_handler();
    if let Err(e) = kill::arm_from_env() {
        usage(&e);
    }
    let args = parse_args();
    match args.cmd {
        Cmd::Sweep => cmd_sweep(&args),
        Cmd::Serve => cmd_serve(&args),
        Cmd::Client => cmd_client(&args),
    }
}

/// The submission cross product both the sweep CLI and the client
/// build: kernels × shapes, then `--pattern` specs × shapes, all with
/// the shared chaos/deadline knobs applied.
fn sweep_specs(args: &Args) -> Vec<WireJobSpec> {
    let mut specs = Vec::new();
    for kernel in &args.kernels {
        for &shape in &args.shapes {
            specs.push(WireJobSpec::kernel(
                kernel,
                args.dataset,
                args.variant,
                shape,
                args.width,
            ));
        }
    }
    for pattern in &args.patterns {
        for &shape in &args.shapes {
            specs.push(WireJobSpec::pattern(
                pattern,
                args.dataset,
                args.variant,
                shape,
                args.width,
            ));
        }
    }
    for spec in &mut specs {
        spec.memory_order = args.memory_order;
        spec.chaos = args.chaos_seed;
        spec.deadline_cycles = args.deadline_cycles;
        spec.deadline_wall_ms = args.deadline_wall_ms;
    }
    specs
}

fn cmd_sweep(args: &Args) -> ! {
    let mut cfg = service_config(args);
    // The sweep's input is bounded by its own arguments, so its queue
    // never sheds its own submissions; `--queue-cap` is a `serve` knob.
    cfg.queue_capacity = usize::MAX;
    let mut ids = Vec::new();
    let mut input = Vec::new();
    for spec in sweep_specs(args) {
        if let Err(e) = spec.validate() {
            usage(&format!("{}: {e}", spec.kernel_name()));
        }
        ids.push(spec.id());
        let submit = Request::Submit { priority: 0, spec };
        write_message(&mut input, &submit).expect("writing to a Vec cannot fail");
    }
    write_message(&mut input, &Request::Run).expect("writing to a Vec cannot fail");

    let mut output = Vec::new();
    match run_session(&cfg, &mut &input[..], &mut output) {
        // Nothing goes to the table on a drain; the next invocation
        // finishes the sweep and prints the whole thing.
        Ok(SessionEnd::Drained) => {
            eprintln!("[serve] drained cleanly; rerun to finish the sweep");
            exit(0);
        }
        Ok(_) => {
            let mut replies = Vec::new();
            let mut frames = &output[..];
            while let Ok(Some(reply)) = read_message::<Reply>(&mut frames) {
                replies.push(reply);
            }
            let failed = print_table(&ids, &replies, &mut std::io::stdout().lock());
            exit(i32::from(failed > 0));
        }
        Err(e) => {
            eprintln!("[serve] state-dir IO error: {e}");
            exit(3);
        }
    }
}

fn cmd_serve(args: &Args) -> ! {
    let cfg = service_config(args);
    match (&args.socket, args.stdio) {
        (Some(_), true) => usage("--stdio and --socket are mutually exclusive"),
        (None, false) => usage("serve needs --stdio or --socket PATH"),
        (None, true) => {
            let mut stdin = std::io::stdin().lock();
            let mut stdout = std::io::stdout().lock();
            match run_session(&cfg, &mut stdin, &mut stdout) {
                Ok(end) => {
                    if end == SessionEnd::Drained {
                        eprintln!("[serve] drained cleanly; restart to finish pending jobs");
                    }
                    exit(0);
                }
                Err(e) => {
                    eprintln!("[serve] state-dir IO error: {e}");
                    exit(3);
                }
            }
        }
        (Some(path), false) => serve_socket(&cfg, path),
    }
}

/// Accept loop: one client session at a time (jobs are globally
/// journaled, so sessions serialize naturally). Nonblocking accept so a
/// SIGTERM between sessions drains promptly.
fn serve_socket(cfg: &ServiceConfig, path: &PathBuf) -> ! {
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[serve] cannot bind {}: {e}", path.display());
            exit(3);
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("[serve] cannot poll the listener: {e}");
        exit(3);
    }
    eprintln!("[serve] listening on {}", path.display());
    loop {
        if signal::term_requested() {
            eprintln!("[serve] drained cleanly; restart to finish pending jobs");
            let _ = std::fs::remove_file(path);
            exit(0);
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let mut input = match stream.try_clone() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("[serve] cannot clone the client stream: {e}");
                        continue;
                    }
                };
                let mut output = stream;
                match run_session(cfg, &mut input, &mut output) {
                    Ok(SessionEnd::Closed) => continue,
                    Ok(SessionEnd::Shutdown) => {
                        eprintln!("[serve] shutdown requested by client");
                        let _ = std::fs::remove_file(path);
                        exit(0);
                    }
                    Ok(SessionEnd::Drained) => {
                        eprintln!("[serve] drained cleanly; restart to finish pending jobs");
                        let _ = std::fs::remove_file(path);
                        exit(0);
                    }
                    Err(e) => {
                        eprintln!("[serve] state-dir IO error: {e}");
                        exit(3);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("[serve] accept failed: {e}");
                exit(3);
            }
        }
    }
}

fn cmd_client(args: &Args) -> ! {
    let Some(path) = &args.socket else {
        usage("client needs --socket PATH");
    };
    let stream = match UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[client] cannot connect to {}: {e}", path.display());
            exit(3);
        }
    };
    let mut input = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[client] cannot clone the stream: {e}");
            exit(3);
        }
    };
    let mut output = stream;

    // Submit the cross product, then the run barrier. Specs are sent
    // before replies are drained; at CLI scale the socket buffers absorb
    // this comfortably.
    let mut ids: Vec<String> = Vec::new();
    for spec in sweep_specs(args) {
        ids.push(spec.id());
        send_or_die(
            &mut output,
            &Request::Submit {
                priority: args.priority,
                spec,
            },
        );
    }
    send_or_die(&mut output, &Request::Run);

    // Read everything up to the sweep barrier.
    let mut replies = Vec::new();
    loop {
        let reply = match read_message::<Reply>(&mut input) {
            Ok(Some(reply)) => reply,
            Ok(None) => {
                eprintln!("[client] server closed the stream before the sweep finished");
                break;
            }
            Err(e) => {
                eprintln!("[client] bad frame from server: {e}");
                exit(3);
            }
        };
        if let Reply::FrameError { detail } = &reply {
            eprintln!("[client] server reported a frame error: {detail}");
        }
        let done = matches!(reply, Reply::SweepDone { .. });
        replies.push(reply);
        if done {
            break;
        }
    }

    if args.shutdown {
        send_or_die(&mut output, &Request::Shutdown);
    }

    // Deterministic table in submission order — diffable across
    // crash/recovery histories exactly like the sweep's.
    let failed = print_table(&ids, &replies, &mut std::io::stdout().lock());
    exit(i32::from(failed > 0));
}

fn send_or_die(output: &mut UnixStream, req: &Request) {
    if let Err(e) = write_message(output, req) {
        eprintln!("[client] cannot send to server: {e}");
        exit(3);
    }
}
