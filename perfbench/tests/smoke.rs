//! Self-test of the benchmark at tiny size: every workload, untraced and
//! traced, prints exactly the metrics `BENCHMARK.json` declares, with
//! their units, and passes its output check; a corrupted trace fails it.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use netsim::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn array<'a, 'b>(v: &'a Value<'b>, key: &str) -> &'a [Value<'b>] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        other => panic!("BENCHMARK.json `{key}` is not an array: {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value<'_>, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {v:?}"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = manifest();
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    array(&root, section)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .output()
        .expect("spawn perfbench")
}

fn result_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

fn case_dir(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{workload}-tiny-{seed}"))
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_check() {
    let text = manifest();
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = array(&root, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, ["rbn2_stream", "rbn1_stateful", "easylist_40k"]);
    for w in workloads {
        // The traced run second: it also checks its render digest against
        // the one the untraced run stored.
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let out = run(w, 7, trace);
            let line = result_line(&out);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed: {line}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{w}: bad result {line}: {e}"));
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{w}: {line}");
            assert!(v.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
            let Some(Value::Object(metrics)) = v.get("metrics") else {
                panic!("{w}: no metrics object in {line}");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    (name.to_string(), str_of(m, "unit").to_string())
                })
                .collect();
            assert_eq!(printed, declared(section), "{w} --trace {trace}");
        }
    }
}

#[test]
fn a_corrupted_trace_fails_the_check() {
    let (w, seed) = ("rbn2_stream", 8);
    let first = run(w, seed, 0);
    assert!(first.status.success(), "{}", result_line(&first));
    let trace = case_dir(w, seed).join("trace.ndjson");
    let mut bytes = std::fs::read(&trace).expect("read trace");
    // Flip one digit of the last record's timestamp: the line still
    // decodes, so only the digest check can catch it.
    let at = bytes
        .iter()
        .rposition(u8::is_ascii_digit)
        .expect("trace has digits");
    bytes[at] = if bytes[at] == b'9' {
        b'8'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&trace, bytes).expect("write trace");
    let second = run(w, seed, 0);
    let _ = std::fs::remove_dir_all(case_dir(w, seed));
    assert_eq!(second.status.code(), Some(1), "{}", result_line(&second));
    assert!(result_line(&second).starts_with("{\"correct\": false"));
}
