//! The CI performance gate: within-run ratios only.
//!
//! Runs the four benches that [`aipow_bench::RATIO_GATES`] reads
//! (`eviction_flood`, `admission_batch`, `verify_kernel`,
//! `connection_scaling`) with `AIPOW_BENCH_JSON` pointed at a scratch
//! file, then checks each row's `numerator / denominator` against its
//! constant bound. Both sides of every ratio are measured in this run on
//! this host, so no reading depends on the machine; absolute numbers are
//! the wire-to-wire benchmark's (`benchmark/`). Exits 1 naming every
//! failing row, a row whose bench did not run included.
//!
//! The benches are compiled with `-C target-cpu=native` appended to
//! `RUSTFLAGS`: the wide-kernel rows measure what the verifier does with
//! the host's vector ISA (baseline x86-64 SSE2 caps it near 1.5x). This
//! recompiles the workspace under its own codegen fingerprint.
//!
//! Usage: `cargo run --release -p aipow-bench --bin bench_gate`.

use aipow_bench::{evaluate, parse_bench_json};
use aipow_crypto::hardware_sha_active;
use std::process::{exit, Command};

/// The bench targets whose groups the gate rows read.
const BENCHES: [&str; 4] = [
    "eviction_flood",
    "admission_batch",
    "verify_kernel",
    "connection_scaling",
];

fn main() {
    let out = std::env::temp_dir().join("aipow_bench_gate.json");
    let _ = std::fs::remove_file(&out);
    let rustflags = std::env::var("RUSTFLAGS").unwrap_or_default() + " -C target-cpu=native";
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.args(["bench", "-p", "aipow-bench"]);
    for bench in BENCHES {
        cmd.args(["--bench", bench]);
    }
    let status = cmd
        .env("AIPOW_BENCH_JSON", &out)
        .env("RUSTFLAGS", rustflags.trim_start())
        .status();
    if !status.as_ref().is_ok_and(|s| s.success()) {
        eprintln!("perf gate: cargo bench failed: {status:?}");
        exit(1);
    }

    let measured = parse_bench_json(&std::fs::read_to_string(&out).unwrap_or_default());
    let readings = evaluate(&measured, hardware_sha_active());
    let value = |v: Option<f64>, digits: usize| v.map_or("-".into(), |v| format!("{v:.digits$}"));
    println!(
        "{:<44} {:>14} {:>14} {:>8} {:>8}  verdict",
        "ratio gate", "numerator/s", "denominator/s", "ratio", "bound"
    );
    for r in &readings {
        println!(
            "{:<44} {:>14} {:>14} {:>8} {:>8}  {}",
            r.gate.label,
            value(measured.get(r.gate.numerator).copied(), 1),
            value(measured.get(r.gate.denominator).copied(), 1),
            value(r.ratio, 3),
            r.gate.bound.to_string(),
            r.verdict
        );
    }
    let failures: Vec<_> = readings.iter().filter_map(|r| r.failure.as_ref()).collect();
    if failures.is_empty() {
        println!("perf gate: all {} within-run ratios hold", readings.len());
    } else {
        eprintln!("perf gate FAILED:");
        for failure in failures {
            eprintln!("  {failure}");
        }
        exit(1);
    }
}
