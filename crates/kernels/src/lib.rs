//! # glsc-kernels — the RMS benchmark suite of the paper
//!
//! Implements the seven Recognition/Mining/Synthesis kernels of §4.2
//! (Tables 2–3) plus the §5.2 microbenchmark, each in two variants:
//!
//! * **Base** — atomic work done with scalar `ll`/`sc` sequences (or scalar
//!   test-and-set locks), everything else SIMD where profitable, exactly as
//!   the paper's baseline with gather/scatter but no atomic vector support;
//! * **GLSC** — atomic work done with `vgatherlink`/`vscattercond`
//!   reductions or the `VLOCK`/`VUNLOCK` idiom of Fig. 3.
//!
//! | Kernel | Atomic pattern | Module |
//! |--------|----------------|--------|
//! | GBC — grid collision broad phase | single-lock critical sections | [`gbc`] |
//! | FS — forward triangular solve | fp-subtract reductions | [`fs`] |
//! | GPS — game physics solver | two-lock critical sections | [`gps`] |
//! | HIP — image histogram | privatized increments (alias detection) | [`hip`] |
//! | SMC — marching-cubes splat | fp-add reductions | [`smc`] |
//! | MFP — max-flow push | two-lock critical sections | [`mfp`] |
//! | TMS — transpose sparse mat-vec | fp-add reductions | [`tms`] |
//! | micro — counter increments | §5.2 scenarios A–D | [`micro`] |
//!
//! Every kernel provides seeded dataset generators (scaled-down synthetic
//! stand-ins for the paper's inputs — see `DESIGN.md` §3.5), a golden Rust
//! reference, and a validation function run after simulation.
//!
//! ```
//! use glsc_kernels::{hip::Hip, Dataset, Variant, run_workload};
//! use glsc_sim::MachineConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MachineConfig::paper(1, 2, 4);
//! let workload = Hip::new(Dataset::Tiny).build(Variant::Glsc, &cfg);
//! let outcome = run_workload(&workload, &cfg)?;
//! assert!(outcome.report.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod fs;
pub mod gbc;
pub mod gps;
pub mod hip;
pub mod mfp;
pub mod micro;
pub mod pattern;
pub mod smc;
pub mod tms;

pub use common::{
    run_workload, run_workload_chaos, Dataset, KernelOutcome, MemImage, Variant, Workload,
    KERNEL_NAMES,
};

/// Why [`build_named`] could not build a workload. Kernel names cross
/// the serve-protocol trust boundary, so an unknown name must be a
/// typed error the admission path can turn into a `Rejected` reply —
/// never a server-side panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// Not one of [`KERNEL_NAMES`] and not a `pattern:` spec.
    Unknown(String),
    /// A `pattern:` spec that failed to parse or bounds-check.
    Pattern(glsc_patterns::ParseError),
    /// The kernel does not build at this SIMD width
    /// ([`supports_width`]).
    UnsupportedWidth {
        /// The kernel name.
        kernel: String,
        /// The refused width.
        width: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Unknown(name) => write!(f, "unknown kernel {name:?}"),
            KernelError::Pattern(e) => write!(f, "bad pattern spec: {e}"),
            KernelError::UnsupportedWidth { kernel, width } => {
                write!(f, "{kernel} does not build at SIMD width {width}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<glsc_patterns::ParseError> for KernelError {
    fn from(e: glsc_patterns::ParseError) -> Self {
        KernelError::Pattern(e)
    }
}

/// Whether kernel `name` builds at SIMD `width`: the one width rule of
/// [`build_named`] and of the service's admission check. Only FS
/// restricts it: its block rows split into equal vector chunks, so the
/// width must divide the 8-element block side ([`fs::BLOCK`]) or exceed
/// it (one masked vector then covers a row).
pub fn supports_width(name: &str, width: usize) -> bool {
    name != "FS" || fs::BLOCK.is_multiple_of(width) || width > fs::BLOCK
}

/// Builds a named kernel's workload: convenience dispatcher for the
/// benchmark harness and the serve protocol. `name` is one of
/// [`KERNEL_NAMES`], or `pattern:<spec>` where `<spec>` uses the
/// `glsc-patterns` grammar (e.g. `pattern:stride:4x1024` or
/// `pattern:conflict:p=0.25x256*100`). For pattern workloads the
/// dataset selects the iteration tier (`Tiny` scales the spec's
/// iterations down for smoke runs); the spec itself carries its sizes.
pub fn build_named(
    name: &str,
    dataset: Dataset,
    variant: Variant,
    cfg: &glsc_sim::MachineConfig,
) -> Result<Workload, KernelError> {
    if let Some(spec) = name.strip_prefix("pattern:") {
        let p = pattern::Pattern::parse(spec)?.for_dataset(dataset);
        return Ok(p.build(variant, cfg));
    }
    if !supports_width(name, cfg.simd_width) {
        return Err(KernelError::UnsupportedWidth {
            kernel: name.to_string(),
            width: cfg.simd_width,
        });
    }
    Ok(match name {
        "GBC" => gbc::Gbc::new(dataset).build(variant, cfg),
        "FS" => fs::Fs::new(dataset).build(variant, cfg),
        "GPS" => gps::Gps::new(dataset).build(variant, cfg),
        "HIP" => hip::Hip::new(dataset).build(variant, cfg),
        "SMC" => smc::Smc::new(dataset).build(variant, cfg),
        "MFP" => mfp::Mfp::new(dataset).build(variant, cfg),
        "TMS" => tms::Tms::new(dataset).build(variant, cfg),
        other => return Err(KernelError::Unknown(other.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_sim::MachineConfig;

    #[test]
    fn fs_widths_that_split_no_block_row_are_typed_errors() {
        let build = |width| {
            let cfg = MachineConfig::paper(1, 1, width);
            build_named("FS", Dataset::Tiny, Variant::Glsc, &cfg)
        };
        for width in [3, 5, 6, 7] {
            assert!(!supports_width("FS", width));
            assert_eq!(
                build(width).err(),
                Some(KernelError::UnsupportedWidth {
                    kernel: "FS".into(),
                    width
                })
            );
        }
        for width in [1, 2, 4, 8, 9, 16, 32] {
            assert!(supports_width("FS", width));
            assert!(build(width).is_ok(), "FS at width {width}");
        }
        // No other kernel restricts the width.
        assert!(KERNEL_NAMES
            .iter()
            .filter(|k| **k != "FS")
            .all(|k| (1..=32).all(|w| supports_width(k, w))));
    }
}
