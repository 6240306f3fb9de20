//! Figure output capture: every bench target prints its table through a
//! [`FigureOutput`], which tees each line to stdout (so the console
//! behavior — and byte-exact output — is unchanged) and, at the end of
//! the run, writes the whole figure to `results/<bench>.txt` with an
//! atomic tmp+rename. The bench owns its results file; shell redirection
//! is no longer needed, and an interrupted run can never leave a
//! half-written file under the final name.
//!
//! Tiny smoke runs (`GLSC_DATASETS=tiny`) write to
//! `results/<bench>-tiny.txt` so they never clobber the committed
//! full-dataset tables.

use std::path::{Path, PathBuf};

/// Buffered, teed figure output for one bench target.
pub struct FigureOutput {
    bench: String,
    buf: String,
}

impl FigureOutput {
    /// Starts capturing output for bench target `bench` (e.g. `"fig6"`).
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            buf: String::new(),
        }
    }

    /// Prints one line to stdout and appends it to the captured figure.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        println!("{s}");
        self.buf.push_str(s);
        self.buf.push('\n');
    }

    /// Prints an empty line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Prints the boxed section header every figure opens with.
    pub fn header(&mut self, title: &str, detail: &str) {
        self.blank();
        self.line(format!("=== {title} ==="));
        if !detail.is_empty() {
            self.line(detail);
        }
        self.blank();
    }

    /// The captured text so far (for tests).
    pub fn captured(&self) -> &str {
        &self.buf
    }

    /// Where this figure will be written.
    pub fn path(&self) -> PathBuf {
        let suffix = if crate::tiny_datasets() { "-tiny" } else { "" };
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(format!("{}{suffix}.txt", self.bench))
    }

    /// Atomically writes the captured figure to its results file,
    /// returning the path. IO problems go to stderr and are non-fatal
    /// (the figure was already printed to stdout).
    pub fn finish(self) -> PathBuf {
        let path = self.path();
        let atomic_write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, &self.buf)?;
            std::fs::rename(&tmp, &path)
        };
        match atomic_write() {
            Ok(()) => eprintln!("[results] wrote {}", path.display()),
            Err(e) => eprintln!("[results] failed to write {}: {e}", path.display()),
        }
        path
    }
}
