//! Tiny-size smoke runs of every workload, untraced and traced: each run
//! must end in a correct result line that carries every metric
//! BENCHMARK.json declares, with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// (name, unit) pairs of one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .expect("entry has a unit");
            (name, unit[..unit.find('"').unwrap()].to_string())
        })
        .collect()
}

fn scratch() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `glsc-serve`, built from this repository's workspace once per test
/// process.
fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-target");
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let status = Command::new(option_env!("CARGO").unwrap_or("cargo"))
            .args(["build", "--release", "--offline", "-q", "-p", "glsc-serve"])
            .args(["--bin", "glsc-serve", "--manifest-path"])
            .arg(&manifest)
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building glsc-serve failed");
        target.join("release/glsc-serve")
    })
}

fn run(workload: &str, trace: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(scratch())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if workload == "service" {
        cmd.arg("--serve-bin").arg(serve_bin());
    }
    let out = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_result(workload: &str, trace: bool) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.contains("\"failed\": 0,"),
        "{workload}: {line}"
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}: {line}"));
        let rest = &line[at..];
        let entry = &rest[..rest.find('}').unwrap()];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {entry}"
        );
    }
    assert_eq!(line.matches("\"unit\"").count(), metrics.len(), "{line}");
}

#[test]
fn figure_suite_reports_every_metric() {
    assert_result("figure-suite", false);
    assert_result("figure-suite", true);
}

#[test]
fn contention_reports_every_metric() {
    assert_result("contention", false);
    assert_result("contention", true);
}

#[test]
fn service_reports_every_metric() {
    assert_result("service", false);
    assert_result("service", true);
}

#[test]
fn a_bad_flag_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(scratch())
        .args(["--workload", "nonesuch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
