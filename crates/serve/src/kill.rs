//! Deterministic crash injection for the kill-drill oracle.
//!
//! `GLSC_SERVE_KILL=<point>:<n>` makes the service die — via
//! `std::process::abort`, which like `kill -9` runs no destructors and
//! flushes nothing — at a precisely chosen durability boundary:
//!
//! * `journal:<n>` — the `n`-th journal append is cut mid-frame: half
//!   the frame is written and fsync'd, then the process aborts. Recovery
//!   must treat the torn record as if the append never happened.
//! * `cycles:<c>` — the process aborts at the first supervision pause at
//!   which a live machine has simulated `c` cycles or more — a plain
//!   mid-run kill that loses the whole attempt, which reruns from its
//!   spec on the next start.
//!
//! The variable is parsed once, by [`arm_from_env`] at startup; any
//! other value is an error the binary reports as a usage error, so a
//! stale or misspelt drill fails loudly instead of silently not killing.
//! Without that call (library use) no kill ever fires.
//!
//! All counters are process-global; each service invocation is one
//! worker process, so `<n>` counts events within a single life.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KillSpec {
    Journal(u64),
    Cycles(u64),
}

static SPEC: OnceLock<Option<KillSpec>> = OnceLock::new();

fn parse(raw: &str) -> Result<KillSpec, String> {
    let bad =
        |why: &str| format!("bad GLSC_SERVE_KILL={raw:?}: {why} (want journal:<n> or cycles:<c>)");
    let (point, n) = raw.split_once(':').ok_or_else(|| bad("no ':'"))?;
    let n: u64 = n.parse().map_err(|_| bad("not a number"))?;
    match point {
        "journal" => Ok(KillSpec::Journal(n)),
        "cycles" => Ok(KillSpec::Cycles(n)),
        _ => Err(bad("unknown point")),
    }
}

/// Reads and validates `GLSC_SERVE_KILL` once. Unset (or empty) arms
/// nothing; a malformed value or an unknown point is an error.
pub fn arm_from_env() -> Result<(), String> {
    let spec = match std::env::var("GLSC_SERVE_KILL") {
        Ok(raw) if !raw.is_empty() => Some(parse(&raw)?),
        _ => None,
    };
    let _ = SPEC.set(spec);
    Ok(())
}

fn spec() -> Option<KillSpec> {
    SPEC.get().copied().flatten()
}

static JOURNAL_APPENDS: AtomicU64 = AtomicU64::new(0);
static ABORT_AFTER_APPEND: AtomicU64 = AtomicU64::new(0);

fn die(what: &str) -> ! {
    eprintln!("[kill] injected crash: {what}");
    std::process::abort();
}

/// Journal-append hook: passes the frame through untouched normally; on
/// the targeted append, truncates it to half so the fsync'd file ends in
/// a torn record, and arms [`after_journal_append`].
pub(crate) fn mangle_journal_frame(frame: Vec<u8>) -> Vec<u8> {
    let n = JOURNAL_APPENDS.fetch_add(1, Ordering::SeqCst) + 1;
    if matches!(spec(), Some(KillSpec::Journal(target)) if n == target) {
        ABORT_AFTER_APPEND.store(1, Ordering::SeqCst);
        let half = frame.len() / 2;
        return frame[..half].to_vec();
    }
    frame
}

/// Fires the abort armed by [`mangle_journal_frame`] once the torn frame
/// is durable on disk.
pub(crate) fn after_journal_append() {
    if ABORT_AFTER_APPEND.load(Ordering::SeqCst) == 1 {
        die("mid-journal-append");
    }
}

/// Supervision-pause hook: aborts once the machine's simulated cycle
/// count reaches the `cycles:<c>` target.
pub(crate) fn check_cycles(cycle: u64) {
    if matches!(spec(), Some(KillSpec::Cycles(target)) if cycle >= target) {
        die("mid-run");
    }
}
