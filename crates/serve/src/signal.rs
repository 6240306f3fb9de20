//! SIGTERM handling for clean shutdown.
//!
//! The handler only sets an atomic flag; every worker of the run loop
//! polls it at every pause between slices and drains: it drops its run
//! in flight, and the run loop streams nothing more (the journal still
//! holds every unstreamed job as not done, so the next start reruns
//! them) and exits 0. No allocation, locking, or IO happens in signal context.
//!
//! Raw `signal(2)` FFI keeps the crate dependency-free: the function is
//! in the C library every Rust binary on this platform already links.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

const SIGTERM: i32 = 15;

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Installs the SIGTERM handler. Call once, early in `main`.
pub fn install_term_handler() {
    #[cfg(unix)]
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGTERM, on_term);
    }
}

/// Whether a SIGTERM has arrived (drain requested).
pub fn term_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// Requests a drain from inside the process — used by tests to exercise
/// the drain path without delivering a real signal.
pub fn request_term() {
    TERM.store(true, Ordering::SeqCst);
}

/// Clears the drain flag (test-only: the flag is process-global and
/// tests run many sweeps in one process).
pub fn clear_term_for_tests() {
    TERM.store(false, Ordering::SeqCst);
}

/// Test-only guard around the process-global flag: tests that run the
/// supervisor or a session hold it shared, a test that raises the flag
/// holds it exclusively, so a drain drill never drains a neighbour.
#[cfg(test)]
static TERM_FLAG_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Shared hold on the flag (see [`TERM_FLAG_LOCK`]). The guarded value
/// is `()`, so a lock poisoned by a failed test is safe to reuse.
#[cfg(test)]
pub(crate) fn term_flag_shared() -> std::sync::RwLockReadGuard<'static, ()> {
    TERM_FLAG_LOCK.read().unwrap_or_else(|e| e.into_inner())
}

/// Exclusive hold on the flag, for a test that raises it.
#[cfg(test)]
pub(crate) fn term_flag_exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    TERM_FLAG_LOCK.write().unwrap_or_else(|e| e.into_inner())
}
