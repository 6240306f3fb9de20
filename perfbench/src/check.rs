//! The golden gate: every simulated result is checked, and a wrong one
//! is a failed operation with its job id — the run goes on.
//!
//! A report is checked against the committed golden row for its job id
//! (cycles, instructions, L1 accesses, SC failures: the columns
//! `noc_ideal_differential` pins), and always against the first report
//! of the same job in this run, in full. A job that must have a golden
//! row and has none fails too, so a change to job ids cannot switch the
//! gate off. At other seeds than the default the contention specs
//! change; those jobs have no rows, and the check is that every path
//! agrees.

use glsc_sim::RunReport;
use std::collections::{BTreeMap, BTreeSet};

/// The four golden columns of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions over all threads.
    pub instructions: u64,
    /// Demand L1 accesses.
    pub l1_accesses: u64,
    /// Failed store-conditionals.
    pub sc_failures: u64,
}

impl Summary {
    /// The golden columns of `report`.
    pub fn of(report: &RunReport) -> Self {
        Self {
            cycles: report.cycles,
            instructions: report.total_instructions(),
            l1_accesses: report.l1_accesses(),
            sc_failures: report.mem.sc_failures,
        }
    }
}

const HEADER: &str = "id\tcycles\tinstructions\tl1_accesses\tsc_failures";

/// Golden rows by job id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Goldens(pub BTreeMap<String, Summary>);

impl Goldens {
    /// Parses the TSV form written by [`Goldens::render`]; `#` lines are
    /// comments.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rows = BTreeMap::new();
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        match lines.next() {
            None => return Ok(Self::default()),
            Some(HEADER) => {}
            Some(other) => return Err(format!("golden header {other:?}, want {HEADER:?}")),
        }
        for line in lines {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad golden row {line:?}"))
            };
            if f.len() != 5 {
                return Err(format!("bad golden row {line:?}"));
            }
            let row = Summary {
                cycles: num(1)?,
                instructions: num(2)?,
                l1_accesses: num(3)?,
                sc_failures: num(4)?,
            };
            if rows.insert(f[0].to_string(), row).is_some() {
                return Err(format!("golden id {} appears twice", f[0]));
            }
        }
        Ok(Self(rows))
    }

    /// The TSV form, rows sorted by id.
    pub fn render(&self, comment: &str) -> String {
        let mut out = format!("# {comment}\n{HEADER}\n");
        for (id, s) in &self.0 {
            out.push_str(&format!(
                "{id}\t{}\t{}\t{}\t{}\n",
                s.cycles, s.instructions, s.l1_accesses, s.sc_failures
            ));
        }
        out
    }
}

/// Counts operations and collects every failure of one run.
pub struct Checker<'g> {
    goldens: &'g Goldens,
    required: BTreeSet<String>,
    first: BTreeMap<String, (String, RunReport)>,
    /// Operations attempted (jobs run through any path, frames expected).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl<'g> Checker<'g> {
    /// A checker against `goldens` (empty when the inputs have none).
    pub fn new(goldens: &'g Goldens) -> Self {
        Self {
            goldens,
            required: BTreeSet::new(),
            first: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Marks job `id` as one the goldens must hold a row for.
    pub fn require_golden(&mut self, id: &str) {
        self.required.insert(id.to_string());
    }

    /// Checks one job's outcome from `path` (`solo`, `fleet`, ...).
    /// Returns whether it passed.
    pub fn job(&mut self, path: &str, id: &str, outcome: Result<&RunReport, String>) -> bool {
        self.attempted += 1;
        let report = match outcome {
            Ok(r) => r,
            Err(e) => return self.fail(format!("{path} {id}: {e}")),
        };
        match self.goldens.0.get(id) {
            Some(golden) => {
                let got = Summary::of(report);
                if got != *golden {
                    return self.fail(format!(
                        "{path} {id}: golden mismatch: got {got:?}, golden {golden:?}"
                    ));
                }
            }
            None if self.required.contains(id) => {
                return self.fail(format!("{path} {id}: no golden row for this job"));
            }
            None => {}
        }
        match self.first.get(id) {
            Some((first_path, first)) if first != report => {
                let msg = format!("{path} {id}: report differs from the {first_path} report");
                self.fail(msg)
            }
            Some(_) => true,
            None => {
                self.first
                    .insert(id.to_string(), (path.to_string(), report.clone()));
                true
            }
        }
    }

    /// Counts one operation that did not produce a checkable report
    /// (a refused frame, a short sweep) as failed.
    pub fn fail_op(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    /// Records a failed check on an operation already counted.
    pub fn fail(&mut self, what: String) -> bool {
        self.failures.push(what);
        false
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The first report seen for job `id`.
    pub fn report(&self, id: &str) -> Option<&RunReport> {
        self.first.get(id).map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> RunReport {
        RunReport {
            cycles,
            ..RunReport::default()
        }
    }

    fn goldens(cycles: u64) -> Goldens {
        let mut g = Goldens::default();
        g.0.insert("HIP-A-GLSC-1x1-w4".into(), Summary::of(&report(cycles)));
        g
    }

    #[test]
    fn golden_mismatch_is_a_failed_operation_and_the_run_goes_on() {
        let g = goldens(100);
        let mut c = Checker::new(&g);
        assert!(c.job("solo", "HIP-A-GLSC-1x1-w4", Ok(&report(100))));
        assert!(!c.job("fleet", "HIP-A-GLSC-1x1-w4", Ok(&report(101))));
        assert!(c.job("solo", "GBC-A-Base-1x1-w4", Ok(&report(7))));
        assert_eq!((c.attempted, c.failed()), (3, 1));
        assert!(
            c.failures[0].starts_with("fleet HIP-A-GLSC-1x1-w4: golden mismatch"),
            "{:?}",
            c.failures
        );
    }

    #[test]
    fn a_required_job_without_a_golden_row_is_a_failed_operation() {
        let g = goldens(100);
        let mut c = Checker::new(&g);
        c.require_golden("HIP-A-GLSC-1x1-w4");
        c.require_golden("HIP-A-GLSC-1x1-w4-renamed");
        assert!(c.job("solo", "HIP-A-GLSC-1x1-w4", Ok(&report(100))));
        assert!(!c.job("solo", "HIP-A-GLSC-1x1-w4-renamed", Ok(&report(100))));
        assert!(!c.job("fleet", "HIP-A-GLSC-1x1-w4-renamed", Ok(&report(100))));
        // A job that need not have a row (a reseeded spec) only has to
        // agree across paths.
        assert!(c.job("solo", "stride:1x1024@5", Ok(&report(9))));
        assert_eq!((c.attempted, c.failed()), (4, 2));
        assert!(c.failures[0].contains("no golden row"), "{:?}", c.failures);
    }

    #[test]
    fn without_a_golden_every_path_must_agree() {
        let g = Goldens::default();
        let mut c = Checker::new(&g);
        assert!(c.job("solo", "x", Ok(&report(5))));
        assert!(c.job("fleet", "x", Ok(&report(5))));
        assert!(!c.job("service", "x", Ok(&report(6))));
        assert!(!c.job("solo", "y", Err("validation failed".into())));
        c.fail_op("SweepDone short".into());
        assert_eq!((c.attempted, c.failed()), (5, 3));
        assert!(c.failures[0].contains("differs from the solo report"));
    }

    #[test]
    fn goldens_round_trip_through_tsv() {
        let g = goldens(123);
        let text = g.render("generated by a test");
        assert_eq!(Goldens::parse(&text).unwrap(), g);
        assert_eq!(Goldens::parse("").unwrap(), Goldens::default());
        assert!(Goldens::parse("bogus header\n").is_err());
        let dup = format!("{HEADER}\na\t1\t2\t3\t4\na\t1\t2\t3\t4\n");
        assert!(Goldens::parse(&dup).unwrap_err().contains("twice"));
        assert!(Goldens::parse(&format!("{HEADER}\na\t1\t2\n")).is_err());
    }
}
