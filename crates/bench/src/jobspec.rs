//! The wire job-spec codec shared by the `glsc-serve` protocol front-end
//! and its clients.
//!
//! A [`WireJobSpec`] is the *untrusted* form of a job: exactly what a
//! client frames onto the socket. [`WireJobSpec::validate`] is the
//! admission boundary — every field is bounds-checked against the same
//! limits [`glsc_sim::ConfigError`] enforces, and a pattern job's index
//! array against [`MAX_PATTERN_INDEX_WORDS`], before any machine, dataset
//! image, or queue slot is allocated for it, so a hostile spec costs a
//! typed rejection, never memory or a panic deeper in the stack.
//!
//! A job is either a named RMS kernel (`kernel` set, `pattern` empty) or
//! a pattern workload (`pattern` carrying a `glsc-patterns` spec string,
//! `kernel` empty) — the `pattern:<spec>` namespace of
//! [`glsc_kernels::build_named`] carried over the wire.
//!
//! The codec is versioned like the report codec: [`SPEC_FORMAT_VERSION`]
//! leads every encoding, and a stale journal entry decodes to a typed
//! [`SpecCodecError::VersionMismatch`] instead of shifted-field garbage.
//! (Version 1 was the unversioned pre-pattern layout, which led with the
//! kernel string; its length prefix lands in the version slot, so v1
//! bytes also fail loudly as a mismatch.)
//!
//! The id scheme ([`WireJobSpec::id`]) matches the supervisor's
//! (`HIP-T-GLSC-4x4-w4`, `-chaos<seed>` when a fault plan is requested,
//! `-p<priority>` never — priority is routing metadata, not identity),
//! so a resubmitted job keys into the same journal ledger and result
//! cache and is served without re-running. Pattern jobs get a
//! filesystem-safe hashed id (`pat-stride-<fnv16>-T-GLSC-4x4-w4`) since
//! spec strings contain `:*@` and can be arbitrarily long.
//!
//! [`WireJobSpec::lower`] is the one lowering of a spec into a machine
//! and a workload: `glsc-serve` lowers every admitted job through it, and
//! the figure harness lowers every kernel job through it
//! ([`crate::fleet_kernel_job`]), so a kernel job has one name and one
//! machine configuration wherever it runs.

use crate::ds_label;
use glsc_kernels::pattern::Pattern;
use glsc_kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc_mem::MemoryOrder;
use glsc_sim::MachineConfig;
use glsc_wire::{Reader, Wire, WireError, Writer};

/// Dataset tag values on the wire (`Dataset` itself lives in
/// `glsc-kernels` and stays wire-agnostic).
pub const DATASET_TAGS: [(u8, Dataset); 3] = [(0, Dataset::Tiny), (1, Dataset::A), (2, Dataset::B)];

/// Current job-spec wire format. v2 added the `pattern` field and the
/// version prefix itself; v3 added the `memory_order` consistency-model
/// field (DESIGN.md §17).
pub const SPEC_FORMAT_VERSION: u32 = 3;

/// Most index words a pattern job may generate: threads × iterations
/// (after dataset scaling) × SIMD width. The build holds several copies
/// of that array (per-thread sequences, the flat array, the image chunk),
/// so this bounds a job's dataset at 16 MiB per copy. The pattern
/// grammar's own limits allow 819,200,000 words (3,125 MiB) at 32x8 w32;
/// every spec the figures, the benchmark and the service drills submit
/// stays under 1,000,000.
pub const MAX_PATTERN_INDEX_WORDS: u64 = 1 << 22;

/// One job as submitted over the protocol. All fields are untrusted
/// until [`validate`](WireJobSpec::validate) passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireJobSpec {
    /// Kernel name (one of [`glsc_kernels::KERNEL_NAMES`]); empty for
    /// pattern jobs.
    pub kernel: String,
    /// Pattern spec string (`glsc-patterns` grammar, e.g.
    /// `stride:4x1024`); `None` for kernel jobs.
    pub pattern: Option<String>,
    /// Dataset tag: 0 = Tiny, 1 = A, 2 = B. For pattern jobs this
    /// selects the iteration tier (Tiny scales the spec down).
    pub dataset: u8,
    /// Variant tag: 0 = Base, 1 = Glsc.
    pub variant: u8,
    /// Core count (1..=32).
    pub cores: u32,
    /// SMT threads per core (1..=8).
    pub tpc: u32,
    /// SIMD width (1..=[`glsc_isa::MAX_SIMD_WIDTH`]).
    pub width: u32,
    /// Memory consistency model the job's machine runs under
    /// ([`MemoryOrder::Sc`] is the paper's baseline and the default).
    pub memory_order: MemoryOrder,
    /// Fault-plan seed: `Some` runs the job under seeded chaos.
    pub chaos: Option<u64>,
    /// Per-job simulated-cycle deadline.
    pub deadline_cycles: Option<u64>,
    /// Per-job wall-clock deadline in milliseconds.
    pub deadline_wall_ms: Option<u64>,
}

impl Wire for WireJobSpec {
    fn encode(&self, w: &mut Writer) {
        SPEC_FORMAT_VERSION.encode(w);
        self.kernel.encode(w);
        self.pattern.encode(w);
        self.dataset.encode(w);
        self.variant.encode(w);
        self.cores.encode(w);
        self.tpc.encode(w);
        self.width.encode(w);
        self.memory_order.encode(w);
        self.chaos.encode(w);
        self.deadline_cycles.encode(w);
        self.deadline_wall_ms.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if u32::decode(r)? != SPEC_FORMAT_VERSION {
            return Err(r.invalid("jobspec format version"));
        }
        Ok(Self {
            kernel: String::decode(r)?,
            pattern: Option::<String>::decode(r)?,
            dataset: u8::decode(r)?,
            variant: u8::decode(r)?,
            cores: u32::decode(r)?,
            tpc: u32::decode(r)?,
            width: u32::decode(r)?,
            memory_order: MemoryOrder::decode(r)?,
            chaos: Option::<u64>::decode(r)?,
            deadline_cycles: Option::<u64>::decode(r)?,
            deadline_wall_ms: Option::<u64>::decode(r)?,
        })
    }
}

/// Why a [`WireJobSpec`] was rejected at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// Kernel name is not one of the seven RMS kernels.
    UnknownKernel(String),
    /// Pattern spec string failed the `glsc-patterns` parser or its
    /// bounds checks (the rendered parse error).
    BadPattern(String),
    /// Both `kernel` and `pattern` set — a job is one or the other.
    KernelAndPattern,
    /// Dataset tag outside the defined range.
    BadDataset(u8),
    /// Variant tag outside the defined range.
    BadVariant(u8),
    /// A machine-shape field outside the simulator's configured bounds.
    ShapeOutOfRange {
        /// Which field tripped (`"cores"`, `"threads/core"`, `"SIMD width"`).
        field: &'static str,
        /// The rejected value.
        value: u32,
        /// Inclusive upper bound (lower bound is always 1).
        max: u32,
    },
    /// A deadline of zero can never be met; reject it at the boundary.
    ZeroDeadline,
    /// The pattern job would generate more than
    /// [`MAX_PATTERN_INDEX_WORDS`] index words.
    PatternTooLarge {
        /// Threads × iterations (after dataset scaling) × SIMD width.
        words: u64,
        /// The bound, [`MAX_PATTERN_INDEX_WORDS`].
        max: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            SpecError::BadPattern(e) => write!(f, "bad pattern spec: {e}"),
            SpecError::KernelAndPattern => {
                write!(f, "spec sets both kernel and pattern; pick one")
            }
            SpecError::BadDataset(t) => write!(f, "dataset tag {t} outside 0..=2"),
            SpecError::BadVariant(t) => write!(f, "variant tag {t} outside 0..=1"),
            SpecError::ShapeOutOfRange { field, value, max } => {
                write!(f, "{field} must be 1..={max} (got {value})")
            }
            SpecError::ZeroDeadline => write!(f, "deadline must be non-zero"),
            SpecError::PatternTooLarge { words, max } => write!(
                f,
                "pattern generates {words} index words \
                 (threads x iterations x SIMD width; at most {max})"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Why raw spec bytes failed to decode: version skew (e.g. a journal
/// written by an older build) or malformed bytes. Mirrors the report
/// codec's error split so callers can log skew distinctly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecCodecError {
    /// Leading version word is not [`SPEC_FORMAT_VERSION`].
    VersionMismatch {
        /// The version word found.
        found: u32,
    },
    /// Structurally bad bytes under the current version.
    Wire(WireError),
}

impl std::fmt::Display for SpecCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecCodecError::VersionMismatch { found } => write!(
                f,
                "jobspec format version {found} (this build reads {SPEC_FORMAT_VERSION})"
            ),
            SpecCodecError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecCodecError {}

impl From<WireError> for SpecCodecError {
    fn from(e: WireError) -> Self {
        SpecCodecError::Wire(e)
    }
}

impl WireJobSpec {
    /// A plain kernel job on a Fig. 6 shape with no chaos or deadlines.
    pub fn kernel(
        kernel: &str,
        ds: Dataset,
        variant: Variant,
        (cores, tpc): (usize, usize),
        width: usize,
    ) -> Self {
        Self {
            kernel: kernel.to_string(),
            pattern: None,
            dataset: DATASET_TAGS
                .iter()
                .find(|(_, d)| *d == ds)
                .map(|(t, _)| *t)
                .unwrap_or(0),
            variant: match variant {
                Variant::Base => 0,
                Variant::Glsc => 1,
            },
            cores: cores as u32,
            tpc: tpc as u32,
            width: width as u32,
            memory_order: MemoryOrder::Sc,
            chaos: None,
            deadline_cycles: None,
            deadline_wall_ms: None,
        }
    }

    /// A pattern job: `spec` is a `glsc-patterns` spec string (e.g.
    /// `conflict:p=0.25x256*100`), untrusted until
    /// [`validate`](Self::validate) parses it.
    pub fn pattern(
        spec: &str,
        ds: Dataset,
        variant: Variant,
        shape: (usize, usize),
        width: usize,
    ) -> Self {
        let mut s = Self::kernel("", ds, variant, shape, width);
        s.pattern = Some(spec.to_string());
        s
    }

    /// Bounds-checks every field. Passing means the spec can be resolved
    /// into a dataset image and a valid [`glsc_sim::MachineConfig`]
    /// without panicking or allocating absurd amounts of memory — for
    /// pattern jobs that includes a full parse and bounds check of the
    /// spec string and the [`MAX_PATTERN_INDEX_WORDS`] bound on the index
    /// array it would generate at this shape.
    pub fn validate(&self) -> Result<(), SpecError> {
        let pattern = match &self.pattern {
            Some(p) => {
                if !self.kernel.is_empty() {
                    return Err(SpecError::KernelAndPattern);
                }
                let spec = glsc_patterns::PatternSpec::parse(p)
                    .map_err(|e| SpecError::BadPattern(e.to_string()))?;
                Some(spec)
            }
            None => {
                if !KERNEL_NAMES.contains(&self.kernel.as_str()) {
                    return Err(SpecError::UnknownKernel(self.kernel.clone()));
                }
                None
            }
        };
        if self.dataset > 2 {
            return Err(SpecError::BadDataset(self.dataset));
        }
        if self.variant > 1 {
            return Err(SpecError::BadVariant(self.variant));
        }
        for (field, value, max) in [
            ("cores", self.cores, glsc_mem::MAX_CORES),
            ("threads/core", self.tpc, glsc_mem::MAX_THREADS_PER_CORE),
            ("SIMD width", self.width, glsc_isa::MAX_SIMD_WIDTH),
        ] {
            let max = max as u32;
            if value == 0 || value > max {
                return Err(SpecError::ShapeOutOfRange { field, value, max });
            }
        }
        if self.deadline_cycles == Some(0) || self.deadline_wall_ms == Some(0) {
            return Err(SpecError::ZeroDeadline);
        }
        if let Some(spec) = pattern {
            let iters = Pattern::new(spec)
                .for_dataset(self.resolve_dataset())
                .spec()
                .iters;
            let words = [self.cores, self.tpc, iters, self.width]
                .into_iter()
                .map(u64::from)
                .product::<u64>();
            if words > MAX_PATTERN_INDEX_WORDS {
                return Err(SpecError::PatternTooLarge {
                    words,
                    max: MAX_PATTERN_INDEX_WORDS,
                });
            }
        }
        Ok(())
    }

    /// The name [`glsc_kernels::build_named`] dispatches on: the kernel
    /// name, or `pattern:<spec>` for pattern jobs.
    pub fn kernel_name(&self) -> String {
        match &self.pattern {
            Some(p) => format!("pattern:{p}"),
            None => self.kernel.clone(),
        }
    }

    /// The validated spec's dataset.
    ///
    /// # Panics
    ///
    /// Panics on an unvalidated tag; call [`validate`](Self::validate)
    /// first.
    pub fn resolve_dataset(&self) -> Dataset {
        DATASET_TAGS
            .iter()
            .find(|(t, _)| *t == self.dataset)
            .map(|(_, d)| *d)
            .expect("validated dataset tag")
    }

    /// The validated spec's variant.
    ///
    /// # Panics
    ///
    /// Panics on an unvalidated tag; call [`validate`](Self::validate)
    /// first.
    pub fn resolve_variant(&self) -> Variant {
        match self.variant {
            0 => Variant::Base,
            1 => Variant::Glsc,
            t => panic!("unvalidated variant tag {t}"),
        }
    }

    /// Stable job id, matching the supervisor's naming for the same
    /// workload (`HIP-T-GLSC-4x4-w4`, plus `-tso`/`-relaxed` when the
    /// job runs under a non-default memory model, plus `-chaos<seed>`).
    /// Pattern jobs
    /// hash the spec string into a short filesystem-safe stem
    /// (`pat-stride-<fnv16>`); the id keys the journal, the result
    /// cache, and reply frames, so it must never contain `:*@,`.
    pub fn id(&self) -> String {
        let ds = DATASET_TAGS
            .iter()
            .find(|(t, _)| *t == self.dataset)
            .map(|(_, d)| ds_label(*d))
            .unwrap_or("?");
        let variant = match self.variant {
            0 => Variant::Base.label(),
            1 => Variant::Glsc.label(),
            _ => "?",
        };
        let stem = match &self.pattern {
            Some(p) => {
                // Kind prefix for human scanning; full-spec hash for
                // identity (specs can be long and contain separators).
                let kind = p.split(':').next().unwrap_or("spec");
                format!("pat-{kind}-{:016x}", glsc_wire::fnv64(p.as_bytes()))
            }
            None => self.kernel.clone(),
        };
        let mut id = format!(
            "{stem}-{ds}-{variant}-{}x{}-w{}",
            self.cores, self.tpc, self.width
        );
        // SC is the baseline and stays unsuffixed so every pre-existing
        // journal ledger and result-cache key keeps resolving; relaxed
        // models are a different workload and must not alias it.
        if self.memory_order != MemoryOrder::Sc {
            id.push_str(&format!("-{}", self.memory_order.name()));
        }
        if let Some(seed) = self.chaos {
            id.push_str(&format!("-chaos{seed}"));
        }
        id
    }

    /// Lowers the spec into the machine it runs on and the workload it
    /// runs: validates it, takes the paper machine at its shape, arms
    /// the chaos watchdog when a fault plan is requested, builds the
    /// workload on that (SC) configuration, and only then applies the
    /// memory order, so a relaxed job's program and image are the SC
    /// job's, bit for bit.
    ///
    /// Total, not panicking: a spec that fails validation or no longer
    /// builds is an `Err` carrying the rendered reason.
    pub fn lower(&self) -> Result<(MachineConfig, Workload), String> {
        self.validate().map_err(|e| e.to_string())?;
        let mut cfg =
            MachineConfig::paper(self.cores as usize, self.tpc as usize, self.width as usize);
        if self.chaos.is_some() {
            // A fault plan slows runs down; keep the watchdog armed with
            // headroom so a forward-progress bug is a typed error.
            cfg = cfg.with_watchdog_window(Some(5_000_000));
        }
        let workload = build_named(
            &self.kernel_name(),
            self.resolve_dataset(),
            self.resolve_variant(),
            &cfg,
        )
        .map_err(|e| e.to_string())?;
        Ok((cfg.with_memory_order(self.memory_order), workload))
    }

    /// Encodes the spec as a standalone byte string (for journaling and
    /// framing), led by [`SPEC_FORMAT_VERSION`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = glsc_wire::Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a spec produced by [`to_bytes`](Self::to_bytes). The
    /// result is still *unvalidated*. Stale-version bytes (including the
    /// unversioned v1 layout) report [`SpecCodecError::VersionMismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SpecCodecError> {
        let mut peek = glsc_wire::Reader::new(bytes);
        let found = u32::decode(&mut peek)?;
        if found != SPEC_FORMAT_VERSION {
            return Err(SpecCodecError::VersionMismatch { found });
        }
        let mut r = glsc_wire::Reader::new(bytes);
        let spec = Self::decode(&mut r)?;
        r.finish()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> WireJobSpec {
        WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (4, 4), 4)
    }

    fn good_pattern() -> WireJobSpec {
        WireJobSpec::pattern(
            "conflict:p=0.25x256*10",
            Dataset::Tiny,
            Variant::Glsc,
            (4, 4),
            4,
        )
    }

    #[test]
    fn roundtrips_and_ids_match_supervisor_naming() {
        let mut spec = good();
        spec.chaos = Some(0x5EED);
        spec.deadline_cycles = Some(1_000_000);
        let back = WireJobSpec::from_bytes(&spec.to_bytes()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.id(), "HIP-T-GLSC-4x4-w4-chaos24301");
        assert!(back.validate().is_ok());
    }

    #[test]
    fn pattern_specs_roundtrip_validate_and_dispatch() {
        let spec = good_pattern();
        let back = WireJobSpec::from_bytes(&spec.to_bytes()).unwrap();
        assert_eq!(back, spec);
        assert!(back.validate().is_ok());
        assert_eq!(back.kernel_name(), "pattern:conflict:p=0.25x256*10");
        // Hashed id: stable, filesystem-safe, distinct per spec.
        let id = back.id();
        assert!(id.starts_with("pat-conflict-"), "{id}");
        assert!(id.ends_with("-T-GLSC-4x4-w4"), "{id}");
        assert!(!id.contains([':', '*', '@', ',']), "{id}");
        let other = WireJobSpec::pattern("stride:4x1024", Dataset::Tiny, Variant::Glsc, (4, 4), 4);
        assert_ne!(other.id(), id);
        assert_eq!(back.id(), good_pattern().id(), "id is deterministic");
    }

    #[test]
    fn memory_order_roundtrips_and_suffixes_the_id() {
        // SC is the default and stays unsuffixed, so pre-existing journal
        // ledgers and result caches keep resolving.
        let sc = good();
        assert_eq!(sc.memory_order, MemoryOrder::Sc);
        assert_eq!(sc.id(), "HIP-T-GLSC-4x4-w4");

        for (order, suffix) in [
            (MemoryOrder::Tso, "-tso"),
            (MemoryOrder::RelaxedFence, "-relaxed"),
        ] {
            let mut spec = good();
            spec.memory_order = order;
            let back = WireJobSpec::from_bytes(&spec.to_bytes()).unwrap();
            assert_eq!(back, spec);
            assert!(back.validate().is_ok());
            assert_eq!(back.id(), format!("HIP-T-GLSC-4x4-w4{suffix}"));
            assert_ne!(back.id(), sc.id(), "relaxed jobs must not alias SC");
        }

        // Suffix order: model before chaos, matching the supervisor.
        let mut spec = good();
        spec.memory_order = MemoryOrder::Tso;
        spec.chaos = Some(7);
        assert_eq!(spec.id(), "HIP-T-GLSC-4x4-w4-tso-chaos7");
    }

    #[test]
    fn hostile_specs_are_typed_rejections() {
        let mut s = good();
        s.kernel = "EVIL".into();
        assert!(matches!(s.validate(), Err(SpecError::UnknownKernel(_))));

        let mut s = good();
        s.dataset = 9;
        assert_eq!(s.validate(), Err(SpecError::BadDataset(9)));

        let mut s = good();
        s.variant = 2;
        assert_eq!(s.validate(), Err(SpecError::BadVariant(2)));

        // A multi-billion-core "machine" must bounce at the boundary —
        // this is the allocation guard, not a style check.
        let mut s = good();
        s.cores = u32::MAX;
        assert!(matches!(
            s.validate(),
            Err(SpecError::ShapeOutOfRange { field: "cores", .. })
        ));
        let mut s = good();
        s.tpc = 9;
        assert!(matches!(
            s.validate(),
            Err(SpecError::ShapeOutOfRange {
                field: "threads/core",
                ..
            })
        ));
        let mut s = good();
        s.width = 0;
        assert!(matches!(
            s.validate(),
            Err(SpecError::ShapeOutOfRange {
                field: "SIMD width",
                ..
            })
        ));

        let mut s = good();
        s.deadline_wall_ms = Some(0);
        assert_eq!(s.validate(), Err(SpecError::ZeroDeadline));

        // Hostile pattern strings: typed rejection carrying the parse
        // error, never a panic or a giant allocation.
        for bad in [
            "",
            "evil:1",
            "stride:0x4",
            "stride:4x99999999",
            "stride:4x1024*1*1",
        ] {
            let s = WireJobSpec::pattern(bad, Dataset::Tiny, Variant::Glsc, (1, 1), 4);
            assert!(
                matches!(s.validate(), Err(SpecError::BadPattern(_))),
                "{bad:?}"
            );
        }
        let mut s = good_pattern();
        s.kernel = "HIP".into();
        assert_eq!(s.validate(), Err(SpecError::KernelAndPattern));
    }

    #[test]
    fn pattern_index_words_are_bounded() {
        // 32 x 8 threads x 32 lanes x 512 iterations is exactly the bound.
        let at = |spec: &str, ds| WireJobSpec::pattern(spec, ds, Variant::Glsc, (32, 8), 32);
        assert_eq!(at("stride:1x1024*512", Dataset::A).validate(), Ok(()));
        let over = SpecError::PatternTooLarge {
            words: MAX_PATTERN_INDEX_WORDS + 8 * 32 * 32,
            max: MAX_PATTERN_INDEX_WORDS,
        };
        assert_eq!(
            at("stride:1x1024*513", Dataset::A).validate(),
            Err(over.clone())
        );
        // Tiny runs an eighth of the iterations, and the bound counts
        // what the build generates.
        assert_eq!(at("stride:1x1024*4096", Dataset::Tiny).validate(), Ok(()));
        assert_eq!(
            at("stride:1x1024*4104", Dataset::Tiny).validate(),
            Err(over)
        );
        // The grammar's largest job: 819,200,000 words, 3,125 MiB a copy.
        let err = at("stride:1x1024*100000", Dataset::A)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::PatternTooLarge {
                words: 819_200_000,
                max: MAX_PATTERN_INDEX_WORDS,
            }
        );
        assert!(err.to_string().contains("819200000 index words"), "{err}");
        // Kernel jobs carry no index array to bound.
        let kernel = WireJobSpec::kernel("HIP", Dataset::B, Variant::Glsc, (32, 8), 32);
        assert_eq!(kernel.validate(), Ok(()));
    }

    #[test]
    fn truncated_bytes_decode_to_typed_error() {
        let bytes = good().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(WireJobSpec::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is an error too, not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0xFF);
        assert!(WireJobSpec::from_bytes(&padded).is_err());
    }

    #[test]
    fn stale_version_bytes_are_version_mismatch() {
        // A stale v2 journal entry (no memory_order field) must decode
        // to typed skew, not shifted-field garbage.
        let mut w = glsc_wire::Writer::new();
        2u32.encode(&mut w); // SPEC_FORMAT_VERSION at the time
        "HIP".to_string().encode(&mut w);
        None::<String>.encode(&mut w); // pattern
        0u8.encode(&mut w); // dataset
        1u8.encode(&mut w); // variant
        4u32.encode(&mut w); // cores
        4u32.encode(&mut w); // tpc
        4u32.encode(&mut w); // width
        None::<u64>.encode(&mut w); // chaos
        None::<u64>.encode(&mut w); // deadline_cycles
        None::<u64>.encode(&mut w); // deadline_wall_ms
        let v2 = w.into_bytes();
        assert_eq!(
            WireJobSpec::from_bytes(&v2),
            Err(SpecCodecError::VersionMismatch { found: 2 }),
            "v2 bytes must fail loudly as skew, not decode as garbage"
        );

        // The v1 (unversioned) layout led with the kernel string; its
        // u64 length prefix puts the name length in the version slot, so
        // a 3-char kernel name collides with today's version word — the
        // payload after it is still structurally garbage and must error.
        let mut w = glsc_wire::Writer::new();
        "HIP".to_string().encode(&mut w);
        0u8.encode(&mut w); // dataset
        1u8.encode(&mut w); // variant
        4u32.encode(&mut w); // cores
        4u32.encode(&mut w); // tpc
        4u32.encode(&mut w); // width
        None::<u64>.encode(&mut w); // chaos
        None::<u64>.encode(&mut w); // deadline_cycles
        None::<u64>.encode(&mut w); // deadline_wall_ms
        let v1 = w.into_bytes();
        assert!(
            WireJobSpec::from_bytes(&v1).is_err(),
            "v1 bytes must fail loudly, not decode as garbage"
        );

        // A future version is skew too.
        let mut w = glsc_wire::Writer::new();
        (SPEC_FORMAT_VERSION + 1).encode(&mut w);
        let future = w.into_bytes();
        assert_eq!(
            WireJobSpec::from_bytes(&future),
            Err(SpecCodecError::VersionMismatch {
                found: SPEC_FORMAT_VERSION + 1
            })
        );

        // Current-version round-trip still works after the bump.
        let spec = good_pattern();
        assert_eq!(WireJobSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);
    }
}
