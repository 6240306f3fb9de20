//! Durable job store: completed simulation results persisted to disk so
//! an interrupted figure run resumes instead of restarting.
//!
//! Every figure/table job and every `glsc-serve` job has a stable key,
//! [`job_key`], built from its parameters (for a kernel job its wire id:
//! kernel, dataset, variant, machine shape, SIMD width) plus two content
//! fingerprints: the workload's (initial memory image and the program's
//! structure) and the machine configuration's. Editing a kernel, dataset
//! generator, or config changes the key, so the old cache entry is
//! simply never matched; a change to the simulator itself does not
//! (DESIGN.md §10). The codec's format version rides in the filename
//! (`{key}.v5.bin`) for the same reason.
//!
//! An entry is one `glsc-wire` frame around the report's wire payload:
//! `len (u32 LE) | payload | fnv64(payload) (u64 LE)`. Writes are
//! crash-safe: the frame is written to a `.tmp.<pid>` sibling and
//! `rename`d into place, so a reader never observes a half-written file
//! under the final name, and the length prefix and checksum turn every
//! remaining torn write or flipped byte into a logged miss. A bench
//! target's store always writes; it reads only when `GLSC_BENCH_RESUME=1`.

use crate::codec::{decode_report, encode_report, FORMAT_VERSION};
use glsc_sim::RunReport;
use glsc_wire::WireError;
use std::path::{Path, PathBuf};

/// Builds a filesystem-safe job key from its human-readable parts plus
/// the workload and config fingerprints. Parts are joined with `-`; any
/// character outside `[A-Za-z0-9._-]` is mapped to `_`.
pub fn job_key(parts: &[&str], workload_fp: u64, cfg_fp: u64) -> String {
    let mut key = String::new();
    for p in parts {
        if !key.is_empty() {
            key.push('-');
        }
        key.extend(p.chars().map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        }));
    }
    key.push_str(&format!("-p{workload_fp:016x}-c{cfg_fp:016x}"));
    key
}

/// FNV-1a fingerprint of a machine configuration's debug rendering; folded
/// into job keys so two jobs differing only in config knobs (e.g. the
/// ablation sweep's buffer mode or prefetcher setting) never collide.
pub fn cfg_fingerprint(cfg: &glsc_sim::MachineConfig) -> u64 {
    glsc_wire::fnv64(format!("{cfg:?}").as_bytes())
}

/// The per-bench result cache. See the module docs for the on-disk
/// layout and the environment variables that control it.
#[derive(Debug)]
pub struct JobStore {
    /// Cache directory for this bench target, or `None` for a
    /// [`disabled`](JobStore::disabled) store.
    dir: Option<PathBuf>,
    /// Whether cached results may satisfy jobs (`GLSC_BENCH_RESUME=1`).
    resume: bool,
}

impl JobStore {
    /// Opens the store for one bench target, honoring the environment:
    /// `GLSC_BENCH_CACHE_DIR` overrides the cache root (default
    /// `target/bench-cache` under the workspace), `GLSC_BENCH_RESUME=1`
    /// enables cache reads.
    pub fn for_bench(bench: &str) -> Self {
        let root = std::env::var("GLSC_BENCH_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| {
                Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../../target")
                    .join("bench-cache")
            });
        Self {
            dir: Some(root.join(bench)),
            resume: resume_requested(),
        }
    }

    /// A store that neither reads nor writes (used by tests and by
    /// benches whose outputs are host-timing measurements, which are not
    /// meaningfully cacheable).
    pub fn disabled() -> Self {
        Self {
            dir: None,
            resume: false,
        }
    }

    /// Opens a store rooted at an explicit directory (for tests).
    pub fn at(dir: PathBuf, resume: bool) -> Self {
        Self {
            dir: Some(dir),
            resume,
        }
    }

    /// The cache directory, or `None` when the store is disabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The cache file path for `key`, or `None` when disabled.
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key}.v{FORMAT_VERSION}.bin")))
    }

    /// Attempts to satisfy a job from the cache. Returns `None` when
    /// resume is off, the entry is absent, or the entry is not one intact
    /// frame around a decodable report (a warning goes to stderr and the
    /// job re-runs — a corrupt cache entry must never kill or corrupt a
    /// figure).
    pub fn load(&self, key: &str) -> Option<RunReport> {
        if !self.resume {
            return None;
        }
        let path = self.path_for(key)?;
        let bytes = std::fs::read(&path).ok()?;
        match unframe(&bytes).and_then(decode_report) {
            Ok(report) => {
                eprintln!("[resume] cached: {key}");
                Some(report)
            }
            Err(e) => {
                eprintln!(
                    "[resume] ignoring unreadable cache entry {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    /// Persists a completed job's report with an atomic tmp+rename write.
    /// Failures are reported to stderr and otherwise ignored: the cache
    /// is an accelerator, not a correctness dependency, and a read-only
    /// or full disk must not fail the figure run.
    pub fn save(&self, key: &str, report: &RunReport) {
        let Some(path) = self.path_for(key) else {
            return;
        };
        if let Err(e) = self.try_save(&path, report) {
            eprintln!("[cache] failed to write {}: {e}", path.display());
        }
    }

    fn try_save(&self, path: &Path, report: &RunReport) -> std::io::Result<()> {
        let dir = path.parent().expect("cache paths always have a parent");
        std::fs::create_dir_all(dir)?;
        // Pid-suffixed temp name: concurrent bench processes sharing a
        // cache dir race only on the atomic rename, never on contents.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, glsc_wire::frame(&encode_report(report)))?;
        std::fs::rename(&tmp, path)
    }
}

/// The payload of an entry that must be exactly one intact frame.
fn unframe(bytes: &[u8]) -> Result<&[u8], WireError> {
    match glsc_wire::split_frame(bytes)? {
        (payload, []) => Ok(payload),
        (_, rest) => Err(WireError::TrailingBytes { extra: rest.len() }),
    }
}

/// Whether `GLSC_BENCH_RESUME=1` is set.
fn resume_requested() -> bool {
    std::env::var("GLSC_BENCH_RESUME").is_ok_and(|v| v == "1")
}
