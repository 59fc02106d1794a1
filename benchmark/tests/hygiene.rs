//! The benchmark's own checks: it refuses to run under a `NOC_*`
//! environment, prints exactly the metrics `BENCHMARK.json` declares,
//! takes every simulated output from its seed alone, and a traced run
//! writes nothing outside its output directory.

use noc_telemetry::JsonValue;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_noc-perf");

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

/// Run the benchmark in `dir` with every `NOC_*` variable removed and
/// `extra_env` added.
fn run(dir: &Path, args: &[&str], extra_env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir).args(args);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("NOC_") {
            cmd.env_remove(k);
        }
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    cmd.output().expect("run the benchmark binary")
}

/// Metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let JsonValue::Arr(items) = doc.get(section).expect("section present") else {
        panic!("{section} is not a list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// The metric names of the result line (the last line of stdout).
fn result_metrics(out: &Output) -> Vec<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let doc = JsonValue::parse(last).expect("result line parses");
    assert!(
        matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
        "{last}"
    );
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {last}");
    };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

/// The value of metric `name` in the result line.
fn metric_value(out: &Output, name: &str) -> f64 {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let doc = JsonValue::parse(last).expect("result line parses");
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no {name} in {last}"))
}

#[test]
fn the_seed_alone_determines_simulated_outputs() {
    let dir = workdir("seeds");
    let run_seed = |seed: &str| {
        let out = run(
            &dir,
            &[
                "--workload",
                "mesh16_sharded",
                "--seed",
                seed,
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        metric_value(&out, "latency_mean_cycles")
    };
    let (a, again, b) = (run_seed("4"), run_seed("4"), run_seed("5"));
    assert_eq!(a.to_bits(), again.to_bits(), "one seed twice must repeat");
    assert_ne!(a.to_bits(), b.to_bits(), "two seeds must differ");
}

#[test]
fn refuses_to_start_under_a_noc_environment() {
    let dir = workdir("refuse");
    let args = [
        "--workload",
        "mesh16_sharded",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let out = run(&dir, &args, &[("NOC_ROUTING", "adaptive")]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line may be printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NOC_ROUTING"), "{stderr}");
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let dir = workdir("untraced");
    let out = run(
        &dir,
        &[
            "--workload",
            "mesh16_sharded",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(result_metrics(&out), declared("end_to_end"));
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_only_its_output_dir() {
    let dir = workdir("traced");
    let out = run(
        &dir,
        &[
            "--workload",
            "daemon_jobs",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(result_metrics(&out), declared("per_layer"));
    let names = |d: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .expect("list directory")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    assert_eq!(names(&dir), vec![".bench_out".to_string()]);
    assert_eq!(
        names(&dir.join(".bench_out")),
        vec!["spans-daemon_jobs.jsonl".to_string()],
        "the daemon's spool must be removed"
    );
}
