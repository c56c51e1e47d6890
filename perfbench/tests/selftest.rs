//! Self-test of the benchmark: a tiny smoke run of every workload must
//! print every metric `BENCHMARK.json` names, with its unit, and the
//! oracle must count a deliberately wrong expected finding as a failure.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

fn manifest() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = manifest();
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry
                    .find(&format!("\"{key}\": \""))
                    .expect("field present")
                    + key.len()
                    + 5;
                entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The workloads `BENCHMARK.json` lists.
fn workloads() -> Vec<String> {
    let text = manifest();
    let start = text.find("\"workloads\"").expect("workloads present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("workloads close")];
    body.match_indices("\"name\": \"")
        .map(|(at, pat)| {
            let rest = &body[at + pat.len()..];
            rest[..rest.find('"').expect("name closes")].to_owned()
        })
        .collect()
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    // Tests run in parallel: one working directory per distinct run.
    let tag = format!("{workload}-{trace}-{}", extra.join(""));
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in workloads() {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let out = run(&workload, trace, &[]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed: {stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = last_line(&out);
            assert!(
                result.starts_with(r#"{"correct": true, "attempted": "#),
                "{result}"
            );
            assert!(result.contains(r#""failed": 0,"#), "{result}");
            for (name, unit) in declared(section) {
                let entry = format!(r#""{name}": {{"value": "#);
                let at = result
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let unit_field = format!(r#""unit": "{unit}"}}"#);
                assert!(
                    result[at..]
                        .split_once('}')
                        .is_some_and(|(e, _)| format!("{e}}}").ends_with(&unit_field)),
                    "{workload}: {name} not in {unit}: {result}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.contains(&format!(" {name} = "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{workload}: {name} not printed with {unit}"
                );
            }
        }
    }
}

#[test]
fn the_oracle_counts_an_injected_wrong_verdict() {
    for workload in ["hot_repeat", "cold_mixed"] {
        let out = run(workload, 0, &["--inject-wrong-verdict"]);
        assert!(
            !out.status.success(),
            "{workload}: a wrong verdict must fail the run"
        );
        let result = last_line(&out);
        assert!(
            result.starts_with(r#"{"correct": false,"#),
            "{workload}: {result}"
        );
        let failed: u64 = result
            .split(r#""failed": "#)
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("failed count");
        assert_eq!(
            failed, 1,
            "{workload}: exactly the injected verdict fails: {result}"
        );
    }
}
