//! The job sets the workloads run.
//!
//! * `figure-suite` — the Fig. 6 set: 7 kernels × {Base, GLSC} × the
//!   four Fig. 6 shapes at width 4, paper defaults (Ideal NoC, Free
//!   arbitration, SC). The `service` workload submits the same 56 jobs.
//! * `contention` — on the 4x4 w4 machine, each job under {Base, GLSC}:
//!   the `pattern_sweep` taxonomy under SC on every corner of
//!   {Ideal, Ring} × {Free, AgedPriority} (56 jobs), and the Fig. 6
//!   kernels that issue plain stores under TSO on {Ideal, Ring} with Free
//!   arbitration, so the write buffers hold stores (16 jobs). 72 jobs.
//!
//! The seed permutes job order in every set and, when it is not
//! [`DEFAULT_SEED`], replaces the `@seed` of the contention specs.

use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::pattern::Pattern;
use glsc_kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc_patterns::PatternSpec;
use glsc_rng::rngs::StdRng;
use glsc_rng::seq::SliceRandom;
use glsc_rng::SeedableRng;
use glsc_sim::{ArbitrationPolicy, MachineConfig, MemoryOrder, NocConfig};

/// The seed whose inputs the committed goldens record: job order is
/// permuted as for any seed, and the contention specs keep their own
/// `@9`.
pub const DEFAULT_SEED: u64 = 0;

/// SIMD width of every job.
pub const WIDTH: usize = 4;

/// The `pattern_sweep` taxonomy, GLSC's best case to its worst.
pub const CONTENTION_SPECS: [&str; 7] = [
    "stride:1x1024",
    "stride:16x1024",
    "mostly:1x1024/p=0.05",
    "block:16/64",
    "conflict:p=0.1x256",
    "conflict:p=0.5x256",
    "conflict:p=0.9x256",
];

/// The Fig. 6 kernels that issue plain `st` instructions. The pattern
/// kernels store only through `sc` and scatter-conditional, which never
/// enter a TSO write buffer, so the contention set runs these under TSO.
/// They run with Free arbitration only: MFP's Base variant on the Ring
/// with AgedPriority does not finish (under SC as well).
pub const STORE_KERNELS: [&str; 4] = ["HIP", "GBC", "MFP", "GPS"];

enum Source {
    Kernel(&'static str),
    Pattern(Pattern),
}

/// One simulation: what to build and the machine to run it on.
pub struct Job {
    /// Stable id; keys the goldens. Figure-suite ids are the service's
    /// wire ids (`GBC-A-Base-1x1-w4`).
    pub id: String,
    /// The id without the variant: Base and GLSC jobs of one pair share it.
    pub pair: String,
    /// Base or GLSC.
    pub variant: Variant,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Whether the committed goldens must hold a row for this job: every
    /// job whose inputs do not depend on the seed, and every job at the
    /// default seed.
    pub golden: bool,
    /// The protocol spec a service client submits for this job; `None`
    /// for jobs the protocol cannot express (non-default NoC or
    /// arbitration).
    pub wire: Option<WireJobSpec>,
    dataset: Dataset,
    source: Source,
}

impl Job {
    /// Builds the job's workload (program, image, validator).
    pub fn build(&self) -> Workload {
        match &self.source {
            Source::Kernel(k) => build_named(k, self.dataset, self.variant, &self.cfg)
                .unwrap_or_else(|e| panic!("figure-suite kernel {k}: {e}")),
            Source::Pattern(p) => p.build(self.variant, &self.cfg),
        }
    }
}

fn permute(mut jobs: Vec<Job>, seed: u64) -> Vec<Job> {
    jobs.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C908));
    jobs
}

/// The order of pass or session `session` of a run. Sessions come in
/// pairs: an even one runs the set in its own seed-derived permutation,
/// the odd one after it runs that permutation reversed. The jobs that
/// finish first in one finish last in the other, so order effects
/// (service latencies, which configurations share the fleet's window)
/// cancel within a pair instead of resting on which jobs a draw put
/// first.
pub fn session_order<T: Clone>(items: &[T], seed: u64, session: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let salt = (session / 2)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    out.shuffle(&mut StdRng::seed_from_u64(seed ^ salt));
    if session % 2 == 1 {
        out.reverse();
    }
    out
}

/// The Fig. 6 job set, in seed-permuted order.
pub fn figure_suite(dataset: Dataset, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in glsc_bench::CONFIGS {
            for variant in [Variant::Base, Variant::Glsc] {
                let cfg = MachineConfig::paper(cores, tpc, WIDTH);
                let spec = WireJobSpec::kernel(kernel, dataset, variant, (cores, tpc), WIDTH);
                jobs.push(Job {
                    id: spec.id(),
                    pair: format!("{kernel}-{cores}x{tpc}"),
                    variant,
                    cfg,
                    golden: true,
                    wire: Some(spec),
                    dataset,
                    source: Source::Kernel(kernel),
                });
            }
        }
    }
    permute(jobs, seed)
}

/// The contention set, in seed-permuted order.
pub fn contention(dataset: Dataset, seed: u64) -> Vec<Job> {
    let corners = [
        ("ideal", NocConfig::ideal(), "free", ArbitrationPolicy::Free),
        (
            "ideal",
            NocConfig::ideal(),
            "aged",
            ArbitrationPolicy::AgedPriority,
        ),
        ("ring", NocConfig::ring(), "free", ArbitrationPolicy::Free),
        (
            "ring",
            NocConfig::ring(),
            "aged",
            ArbitrationPolicy::AgedPriority,
        ),
    ];
    let cfg = |noc: &NocConfig, arb: ArbitrationPolicy, order: MemoryOrder| {
        MachineConfig::paper(4, 4, WIDTH)
            .with_noc(noc.clone())
            .with_arbitration(arb)
            .with_memory_order(order)
    };
    let mut jobs = Vec::new();
    for text in CONTENTION_SPECS {
        let mut spec =
            PatternSpec::parse(text).unwrap_or_else(|e| panic!("contention spec {text:?}: {e}"));
        if seed != DEFAULT_SEED {
            spec.seed = seed;
        }
        let pattern = Pattern::new(spec).for_dataset(dataset);
        let canonical = pattern.spec().to_string();
        for (noc_name, noc, arb_name, arb) in &corners {
            for variant in [Variant::Base, Variant::Glsc] {
                let pair = format!("{canonical}|{noc_name}|{arb_name}|sc");
                jobs.push(Job {
                    id: format!("{pair}|{}", variant.label()),
                    pair,
                    variant,
                    cfg: cfg(noc, *arb, MemoryOrder::Sc),
                    golden: seed == DEFAULT_SEED,
                    wire: None,
                    dataset,
                    source: Source::Pattern(pattern.clone()),
                });
            }
        }
    }
    for kernel in STORE_KERNELS {
        for (noc_name, noc, arb_name, arb) in
            corners.iter().filter(|c| c.3 == ArbitrationPolicy::Free)
        {
            for variant in [Variant::Base, Variant::Glsc] {
                let mut spec = WireJobSpec::kernel(kernel, dataset, variant, (4, 4), WIDTH);
                spec.memory_order = MemoryOrder::Tso;
                let corner = format!("{noc_name}|{arb_name}");
                jobs.push(Job {
                    id: format!("{}|{corner}", spec.id()),
                    pair: format!("{kernel}-4x4|{corner}|tso"),
                    variant,
                    cfg: cfg(noc, *arb, MemoryOrder::Tso),
                    golden: true,
                    wire: None,
                    dataset,
                    source: Source::Kernel(kernel),
                });
            }
        }
    }
    permute(jobs, seed)
}

/// The jobs of the default-seed contention set that a run at `seed` does
/// not run itself: the pattern jobs with the specs' own `@9`. A run at
/// another seed simulates them once, untimed, against the goldens, so
/// the Ring, aged-arbitration and conflict timing is gated at every seed.
pub fn contention_golden_extra(dataset: Dataset, seed: u64) -> Vec<Job> {
    if seed == DEFAULT_SEED {
        return Vec::new();
    }
    let run: std::collections::BTreeSet<String> = contention(dataset, seed)
        .into_iter()
        .map(|j| j.id)
        .collect();
    contention(dataset, DEFAULT_SEED)
        .into_iter()
        .filter(|j| !run.contains(&j.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn job_sets_have_their_sizes_and_unique_ids() {
        for (jobs, n) in [
            (figure_suite(Dataset::Tiny, DEFAULT_SEED), 56),
            (contention(Dataset::Tiny, DEFAULT_SEED), 72),
        ] {
            assert_eq!(jobs.len(), n);
            let ids: BTreeSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
            assert_eq!(ids.len(), n);
            let pairs: BTreeSet<&str> = jobs.iter().map(|j| j.pair.as_str()).collect();
            assert_eq!(pairs.len(), n / 2);
        }
    }

    #[test]
    fn seed_permutes_order_but_not_the_figure_suite_set() {
        let ids = |seed| -> Vec<String> {
            figure_suite(Dataset::Tiny, seed)
                .into_iter()
                .map(|j| j.id)
                .collect()
        };
        let (a, b) = (ids(DEFAULT_SEED), ids(7));
        assert_ne!(a, b);
        assert_eq!(a, ids(DEFAULT_SEED));
        let (mut a, mut b) = (a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_come_in_reversed_pairs_of_the_same_set() {
        let items: Vec<u32> = (0..56).collect();
        let (a, b) = (session_order(&items, 3, 0), session_order(&items, 3, 1));
        assert_eq!(a, session_order(&items, 3, 0));
        assert_eq!(b, a.iter().rev().copied().collect::<Vec<_>>());
        let c = session_order(&items, 3, 2);
        assert_ne!(c, a);
        assert_ne!(c, b);
        assert_ne!(a, session_order(&items, 4, 0));
        let mut sorted = c.clone();
        sorted.sort();
        assert_eq!(sorted, items);
    }

    #[test]
    fn default_seed_keeps_the_specs_own_seed() {
        let patterns = |seed| -> Vec<Job> {
            contention(Dataset::A, seed)
                .into_iter()
                .filter(|j| matches!(j.source, Source::Pattern(_)))
                .collect()
        };
        let at_default = patterns(DEFAULT_SEED);
        assert_eq!(at_default.len(), 56);
        assert!(at_default.iter().all(|j| j.id.contains("@9|") && j.golden));
        let reseeded = patterns(5);
        assert!(reseeded.iter().all(|j| j.id.contains("@5|") && !j.golden));
    }

    #[test]
    fn tso_jobs_are_store_kernels_and_always_golden() {
        let tso: Vec<Job> = contention(Dataset::A, 5)
            .into_iter()
            .filter(|j| j.cfg.mem.memory_order == MemoryOrder::Tso)
            .collect();
        assert_eq!(tso.len(), STORE_KERNELS.len() * 4);
        for j in &tso {
            assert!(
                matches!(j.source, Source::Kernel(_)) && j.golden,
                "{}",
                j.id
            );
            assert!(j.id.contains("-4x4-w4-tso|"), "{}", j.id);
        }
    }

    #[test]
    fn other_seeds_check_the_default_pattern_jobs_as_extras() {
        assert!(contention_golden_extra(Dataset::Tiny, DEFAULT_SEED).is_empty());
        let extra = contention_golden_extra(Dataset::Tiny, 5);
        assert_eq!(extra.len(), 56);
        assert!(extra.iter().all(|j| j.id.contains("@9|") && j.golden));
    }

    #[test]
    fn figure_suite_ids_are_the_service_wire_ids() {
        for job in figure_suite(Dataset::A, DEFAULT_SEED) {
            assert_eq!(job.wire.as_ref().unwrap().id(), job.id);
            assert!(job.golden);
        }
        assert!(contention(Dataset::A, DEFAULT_SEED)
            .iter()
            .all(|j| j.wire.is_none()));
    }
}
