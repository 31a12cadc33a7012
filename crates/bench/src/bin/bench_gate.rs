//! The CI performance-regression gate.
//!
//! Runs the hot-path throughput benches (`contended_admission`,
//! `eviction_flood`, `admission_batch`, `verify_kernel`, and
//! `connection_scaling`) with
//! `AIPOW_BENCH_JSON` pointed at a scratch file, then compares every
//! measured median throughput against the committed baselines
//! (`BENCH_contended.json`, `BENCH_flood.json`, `BENCH_batch.json`,
//! `BENCH_verify.json`, `BENCH_net.json` at the repo
//! root). A benchmark whose `per_sec` falls more than the tolerance
//! below its baseline fails the gate (exit code 1), so a throughput
//! regression on the admission or eviction hot path cannot merge
//! silently. Groups whose name ends in `_global` measure the retired
//! global-scan protocol: they ride in the baselines as the recorded
//! contrast but are reported only, never gated.
//!
//! Knobs (environment):
//!
//! - `AIPOW_BENCH_TOLERANCE` — allowed fractional regression, default
//!   `0.25` (fail under 75 % of baseline). CI sets this looser than the
//!   default because its runners differ from the machine that recorded
//!   the baselines.
//! - `AIPOW_GATE_MIN_RATIO` — floor on the within-run bounded/global
//!   eviction throughput ratio, default `10`. Unlike the absolute
//!   comparison this is machine-independent: the recorded gap is
//!   200-340x and a reintroduced global scan collapses it to ~1 on any
//!   host, so this check stays meaningful however the runner hardware
//!   drifts.
//! - `AIPOW_GATE_MIN_BATCH_SPEEDUP` — floor on the within-run
//!   batch=32-over-sequential admission throughput ratio at 4 threads,
//!   default `1.5`. Machine-independent like the eviction ratio: the
//!   recorded amortization gap is ~3x, and losing it (a per-request
//!   fixed cost reintroduced inside the batch loop) collapses the ratio
//!   toward 1 on any host.
//! - `AIPOW_GATE_MAX_TRACE_OVERHEAD` — ceiling on the within-run
//!   fractional throughput cost of running `admission_batch` at
//!   batch=32 / 4 threads with a tracer attached at default sampling,
//!   default `0.05` (traced must stay within 5 % of untraced).
//!   Machine-independent like the other ratios: the steady-state cost
//!   of 1-in-64 sampling is one predictable branch per context, and a
//!   blocking lock or allocation smuggled onto the emission path shows
//!   up as a collapse of this ratio on any host.
//! - `AIPOW_GATE_MIN_WIDE_SPEEDUP` — floor on the within-run
//!   wide-over-scalar `verify_batch` throughput ratio at batch=32,
//!   default `2`. Machine-independent: the multi-buffer kernel's
//!   recorded gap is 3-5x with vector units engaged, and a kernel that
//!   stops vectorizing (or a verifier that stops batching MAC/work
//!   digests through it) collapses the ratio toward 1 on any host.
//! - `AIPOW_GATE_MAX_MEMHARD_VERIFY_RATIO` — ceiling on the within-run
//!   SHA-256-over-memory-hard scalar `verify_batch` throughput ratio at
//!   batch=32, default `2`. The memory-hard puzzle only works as a
//!   routing target if *verification* stays cheap: the router sends
//!   suspected flooders there precisely because the server pays nearly
//!   nothing extra to check their stamps. A memory-hard verify that
//!   drifts past 2x the SHA-256 cost would let a flood tax the verifier
//!   through the very backend meant to tax the flooder.
//! - `AIPOW_GATE_MIN_MEMHARD_SOLVE_RATIO` — floor on the within-run
//!   memory-hard-over-SHA-256 per-attempt *solve* cost ratio, default
//!   `10`. This is the other half of the asymmetry: one memory-hard
//!   attempt (arena fill + mix walk) must cost at least 10x a SHA-256
//!   attempt, or routing a flooder to the memory-hard backend stops
//!   being punitive. The recorded gap is orders of magnitude; a
//!   shortcut that skips the arena work collapses it on any host.
//! - `AIPOW_GATE_MAX_CONN_SLOWDOWN` — ceiling on the within-run ratio
//!   of request throughput at 1k resident connections over 50k resident
//!   connections, default `2`. Machine-independent like the other
//!   ratios: the reactor keys per-connection state through a slab and
//!   never scans the connection table on the exchange path, so the
//!   honest ratio is ~1; an O(connections) walk reintroduced on the hot
//!   path (table scan, eager wheel sweep, per-event iteration over all
//!   peers) collapses 50k-resident throughput on any host.
//! - `AIPOW_BENCH_TARGET_CPU` — the `-C target-cpu` value appended to
//!   `RUSTFLAGS` for the bench run, default `native`. The portable wide
//!   kernel only reaches full width when the compiler may use the host's
//!   vector ISA (baseline x86-64 SSE2 caps it around 1.5x). Set to the
//!   empty string to benchmark at the default target.
//! - `AIPOW_BENCH_BASELINE_DIR` — where the `BENCH_*.json` baselines
//!   live; defaults to the workspace root.
//!
//! Usage:
//!
//! - `cargo run --release -p aipow-bench --bin bench_gate` — run + gate;
//! - `... --bin bench_gate -- --update` — run and rewrite the committed
//!   baselines from this machine's measurements (do this when a change
//!   *intentionally* shifts throughput, and commit the result);
//! - `... --bin bench_gate -- --check-only <json>` — skip running the
//!   benches and gate an existing JSON-lines file.

use aipow_bench::wide_vs_scalar_verdict;
use aipow_crypto::hardware_sha_active;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One benchmark's identity → median throughput (elements/sec).
type Results = BTreeMap<String, f64>;

/// Which baseline file each bench group belongs to.
fn baseline_file_for(group: &str) -> &'static str {
    if group.starts_with("eviction_flood") {
        "BENCH_flood.json"
    } else if group.starts_with("admission_batch") {
        "BENCH_batch.json"
    } else if group.starts_with("verify_kernel") {
        "BENCH_verify.json"
    } else if group.starts_with("connection_scaling") {
        "BENCH_net.json"
    } else {
        "BENCH_contended.json"
    }
}

/// Whether a benchmark guards a production hot path. The
/// `*_global` groups measure the *retired* global-scan protocol — kept
/// in the baselines as the contrast the migration is judged against,
/// but not gated: they are pathological lock contention by design and
/// their medians flap far beyond any useful tolerance.
fn is_gated(key: &str) -> bool {
    !key.split('/')
        .next()
        .unwrap_or_default()
        .ends_with("_global")
}

/// Extracts `"field":"value"` (string) from one JSON-lines record. The
/// records are written by the vendored criterion's single-line writer,
/// so field-scanning is exact for the values it can produce.
fn json_str_field(line: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"field":number` from one JSON-lines record.
fn json_num_field(line: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a JSON-lines bench file into `group/id → per_sec`. Later
/// lines win (the writer appends, so reruns supersede).
fn parse_bench_json(content: &str) -> Results {
    let mut out = Results::new();
    for line in content.lines() {
        let (Some(group), Some(id)) = (json_str_field(line, "group"), json_str_field(line, "id"))
        else {
            continue;
        };
        let Some(per_sec) = json_num_field(line, "per_sec") else {
            continue;
        };
        out.insert(format!("{group}/{id}"), per_sec);
    }
    out
}

fn read_results(path: &Path) -> Results {
    match std::fs::read_to_string(path) {
        Ok(content) => parse_bench_json(&content),
        Err(_) => Results::new(),
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("AIPOW_BENCH_BASELINE_DIR") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Runs the gated benches with `AIPOW_BENCH_JSON` pointed at `out`.
///
/// The bench subprocess gets `-C target-cpu=<AIPOW_BENCH_TARGET_CPU>`
/// (default `native`) appended to `RUSTFLAGS`: the wide-kernel gate
/// measures what the verifier can do with the host's vector ISA, not
/// the portable baseline. Note this recompiles the workspace under a
/// distinct codegen fingerprint from a plain `cargo bench`.
fn run_benches(out: &Path) {
    let _ = std::fs::remove_file(out);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.args([
        "bench",
        "-p",
        "aipow-bench",
        "--bench",
        "contended_admission",
        "--bench",
        "eviction_flood",
        "--bench",
        "admission_batch",
        "--bench",
        "verify_kernel",
        "--bench",
        "connection_scaling",
    ])
    .env("AIPOW_BENCH_JSON", out);
    let cpu = std::env::var("AIPOW_BENCH_TARGET_CPU").unwrap_or_else(|_| "native".to_string());
    if !cpu.is_empty() {
        let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str(&format!("-C target-cpu={cpu}"));
        cmd.env("RUSTFLAGS", rustflags);
    }
    let status = cmd.status().expect("failed to spawn cargo bench");
    assert!(status.success(), "cargo bench failed");
}

fn tolerance() -> f64 {
    std::env::var("AIPOW_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|t: &f64| t.is_finite() && (0.0..1.0).contains(t))
        .unwrap_or(0.25)
}

fn min_ratio() -> f64 {
    std::env::var("AIPOW_GATE_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0)
        .unwrap_or(10.0)
}

fn min_batch_speedup() -> f64 {
    std::env::var("AIPOW_GATE_MIN_BATCH_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0)
        .unwrap_or(1.5)
}

fn max_trace_overhead() -> f64 {
    std::env::var("AIPOW_GATE_MAX_TRACE_OVERHEAD")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && (0.0..1.0).contains(r))
        .unwrap_or(0.05)
}

fn min_wide_speedup() -> f64 {
    std::env::var("AIPOW_GATE_MIN_WIDE_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0)
        .unwrap_or(2.0)
}

fn max_memhard_verify_ratio() -> f64 {
    std::env::var("AIPOW_GATE_MAX_MEMHARD_VERIFY_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0)
        .unwrap_or(2.0)
}

fn min_memhard_solve_ratio() -> f64 {
    std::env::var("AIPOW_GATE_MIN_MEMHARD_SOLVE_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0)
        .unwrap_or(10.0)
}

fn max_conn_slowdown() -> f64 {
    std::env::var("AIPOW_GATE_MAX_CONN_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0)
        .unwrap_or(2.0)
}

/// The connection-scaling acceptance bar, checked within this run like
/// the batch gate: request throughput with 50k connections resident
/// must hold at least `1 / max_slowdown` of the 1k-resident
/// throughput. Per-connection reactor state is slab-keyed and the
/// exchange path never walks the connection table, so the honest ratio
/// is ~1; an O(connections) scan reintroduced on the hot path
/// collapses it on any host.
fn gate_conn_slowdown(measured: &Results, max_slowdown: f64) -> Vec<String> {
    let small_key = "connection_scaling_request/conns/1000";
    let large_key = "connection_scaling_request/conns/50000";
    match (measured.get(small_key), measured.get(large_key)) {
        (Some(&small), Some(&large)) => {
            let slowdown = if large > 0.0 {
                small / large
            } else {
                f64::INFINITY
            };
            let ok = slowdown <= max_slowdown;
            println!(
                "{:<48} {:>14.1} {:>14.1} {:>8.2}  {}",
                "request slowdown, 1k -> 50k resident conns",
                small,
                large,
                slowdown,
                if ok { "ok" } else { "REGRESSION" }
            );
            if ok {
                Vec::new()
            } else {
                vec![format!(
                    "{large_key}: request throughput {slowdown:.2}x slower with 50k resident \
                     connections than with 1k (ceiling {max_slowdown:.2}x) — something on \
                     the exchange path scales with the connection population"
                )]
            }
        }
        (None, None) => Vec::new(), // pre-reactor JSON via --check-only
        _ => vec![format!(
            "connection-scaling gate needs both {small_key} and {large_key}; \
             only one was measured"
        )],
    }
}

/// The batching acceptance bar, checked within this run (so it is
/// machine-independent like the eviction ratio): `handle_request_batch`
/// at batch=32 must beat the sequential path by at least
/// `min_speedup` at 4 threads. The recorded gap is ~3x; losing the
/// amortization (a reintroduced per-request clock read, policy lock, or
/// audit lock inside the batch loop) collapses it toward 1 on any host.
fn gate_batch_speedup(measured: &Results, min_speedup: f64) -> Vec<String> {
    let seq_key = "admission_batch_seq/threads/4";
    let batch_key = "admission_batch/batch32/threads/4";
    match (measured.get(seq_key), measured.get(batch_key)) {
        (Some(&seq), Some(&batch)) => {
            let speedup = if seq > 0.0 {
                batch / seq
            } else {
                f64::INFINITY
            };
            let ok = speedup >= min_speedup;
            println!(
                "{:<48} {:>14.1} {:>14.1} {:>8.2}  {}",
                "batch32/sequential speedup (4 threads)",
                seq,
                batch,
                speedup,
                if ok { "ok" } else { "REGRESSION" }
            );
            if ok {
                Vec::new()
            } else {
                vec![format!(
                    "{batch_key}: only {speedup:.2}x the sequential path within this run \
                     (floor {min_speedup:.2}x) — the batch amortization has regressed"
                )]
            }
        }
        (None, None) => Vec::new(), // pre-batching JSON via --check-only
        _ => vec![format!(
            "batch speedup gate needs both {seq_key} and {batch_key}; only one was measured"
        )],
    }
}

/// The tracing acceptance bar, checked within this run like the batch
/// gate: `admission_batch_traced` (tracer attached, default 1-in-64
/// sampling) at batch=32 / 4 threads must hold at least
/// `1 - max_overhead` of the untraced throughput. The untraced side is
/// the `batch32_untraced` twin measured immediately before the traced
/// cell in the same group — ratioing adjacent cells keeps clock and
/// thermal drift across the long four-binary bench run out of a 5 %
/// bar. Observability that taxes the admission path more than a few
/// percent is not "always-on" — it gets turned off, and then nobody
/// has data when the flood arrives.
fn gate_trace_overhead(measured: &Results, max_overhead: f64) -> Vec<String> {
    let untraced_key = "admission_batch_traced/batch32_untraced/threads/4";
    let traced_key = "admission_batch_traced/batch32/threads/4";
    match (measured.get(untraced_key), measured.get(traced_key)) {
        (Some(&untraced), Some(&traced)) => {
            let retained = if untraced > 0.0 {
                traced / untraced
            } else {
                f64::INFINITY
            };
            let ok = retained >= 1.0 - max_overhead;
            println!(
                "{:<48} {:>14.1} {:>14.1} {:>8.3}  {}",
                "traced/untraced admission (batch 32, 4T)",
                untraced,
                traced,
                retained,
                if ok { "ok" } else { "REGRESSION" }
            );
            if ok {
                Vec::new()
            } else {
                vec![format!(
                    "{traced_key}: tracing retains only {:.1}% of untraced throughput within \
                     this run (floor {:.1}%) — the sampled-off emission path has grown a cost",
                    retained * 100.0,
                    (1.0 - max_overhead) * 100.0
                )]
            }
        }
        (None, None) => Vec::new(), // pre-tracing JSON via --check-only
        _ => vec![format!(
            "trace overhead gate needs both {untraced_key} and {traced_key}; \
             only one was measured"
        )],
    }
}

/// The wide-kernel acceptance bar, checked within this run like the
/// batch gate: `verify_batch` at batch=32 with `verify_lanes=8` must
/// beat the scalar (`verify_lanes=1`) path by at least `min_speedup`.
/// With the vector ISA engaged (see `AIPOW_BENCH_TARGET_CPU`) the
/// recorded gap is ~3x end-to-end; a kernel that silently stops
/// vectorizing, or a verifier that stops routing MAC/work digests
/// through the multi-buffer path, collapses it toward 1 on any host.
fn gate_wide_speedup(measured: &Results, min_speedup: f64) -> Vec<String> {
    let scalar_key = "verify_kernel_batch/scalar/32";
    let wide_key = "verify_kernel_batch/wide/32";
    match (measured.get(scalar_key), measured.get(wide_key)) {
        (Some(&scalar), Some(&wide)) => {
            let speedup = if scalar > 0.0 {
                wide / scalar
            } else {
                f64::INFINITY
            };
            let (verdict, fails) =
                wide_vs_scalar_verdict(speedup >= min_speedup, hardware_sha_active());
            println!(
                "{:<48} {:>14.1} {:>14.1} {:>8.2}  {verdict}",
                "wide/scalar verify speedup (batch 32)", scalar, wide, speedup,
            );
            if !fails {
                Vec::new()
            } else {
                vec![format!(
                    "{wide_key}: only {speedup:.2}x the scalar verify path within this run \
                     (floor {min_speedup:.2}x) — the multi-lane kernel has regressed"
                )]
            }
        }
        (None, None) => Vec::new(), // pre-wide-kernel JSON via --check-only
        _ => vec![format!(
            "wide speedup gate needs both {scalar_key} and {wide_key}; only one was measured"
        )],
    }
}

/// The backend-asymmetry acceptance bar, checked within this run like
/// the wide-kernel gate (`verify_kernel_backend` group):
///
/// - verify side: SHA-256 *scalar* batch-32 verify throughput may
///   exceed the memory-hard backend's (measured on its production
///   wide-lane path, where independent walks interleave through the
///   multi-buffer kernel) by at most `max_verify_ratio` — verification
///   must stay cheap on the very backend the router sends floods to;
/// - solve side: SHA-256 per-attempt solve throughput (cursor hoisted,
///   marginal cost per nonce probe) must exceed the memory-hard
///   backend's by at least `min_solve_ratio` — the serialized
///   data-dependent walk is the cost the router imposes on suspicious
///   clients, and a shortcut that skips it collapses this ratio on any
///   host.
fn gate_backend_asymmetry(
    measured: &Results,
    max_verify_ratio: f64,
    min_solve_ratio: f64,
) -> Vec<String> {
    let sha_verify_key = "verify_kernel_backend/verify/sha256/32";
    let mh_verify_key = "verify_kernel_backend/verify/memhard/32";
    let sha_solve_key = "verify_kernel_backend/solve/sha256/64";
    let mh_solve_key = "verify_kernel_backend/solve/memhard/64";
    let mut failures = Vec::new();

    match (measured.get(sha_verify_key), measured.get(mh_verify_key)) {
        (Some(&sha), Some(&mh)) => {
            // Cost ratio: how many times more expensive one memory-hard
            // verification is than one SHA-256 verification.
            let ratio = if mh > 0.0 { sha / mh } else { f64::INFINITY };
            // SHA-256 *scalar* against memory-hard *wide*: the same
            // cross-kernel comparison as the wide-speedup gate.
            let (verdict, fails) =
                wide_vs_scalar_verdict(ratio <= max_verify_ratio, hardware_sha_active());
            println!(
                "{:<48} {:>14.1} {:>14.1} {:>8.2}  {verdict}",
                "memhard/sha256 verify cost (batch 32)", sha, mh, ratio,
            );
            if fails {
                failures.push(format!(
                    "{mh_verify_key}: memory-hard verify costs {ratio:.2}x the SHA-256 \
                     scalar verify within this run (ceiling {max_verify_ratio:.2}x) — \
                     the cheap-verify half of the backend asymmetry has regressed"
                ));
            }
        }
        (None, None) => {} // pre-backend-seam JSON via --check-only
        _ => failures.push(format!(
            "backend verify gate needs both {sha_verify_key} and {mh_verify_key}; \
             only one was measured"
        )),
    }

    match (measured.get(sha_solve_key), measured.get(mh_solve_key)) {
        (Some(&sha), Some(&mh)) => {
            let ratio = if mh > 0.0 { sha / mh } else { f64::INFINITY };
            let ok = ratio >= min_solve_ratio;
            println!(
                "{:<48} {:>14.1} {:>14.1} {:>8.1}  {}",
                "memhard/sha256 solve cost (per attempt)",
                sha,
                mh,
                ratio,
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                failures.push(format!(
                    "{mh_solve_key}: a memory-hard attempt costs only {ratio:.1}x a \
                     SHA-256 attempt within this run (floor {min_solve_ratio:.0}x) — \
                     the expensive-solve half of the backend asymmetry has regressed"
                ));
            }
        }
        (None, None) => {} // pre-backend-seam JSON via --check-only
        _ => failures.push(format!(
            "backend solve gate needs both {sha_solve_key} and {mh_solve_key}; \
             only one was measured"
        )),
    }

    failures
}

/// The machine-independent guard: within *this* run, the bounded
/// eviction path must beat the retired global-scan baseline by at least
/// `min_ratio` on every thread count measured for both. Absolute
/// throughput varies with runner hardware, but this ratio does not — a
/// reintroduced global scan collapses it to ~1 regardless of the host
/// (the recorded gap is 200-340x; the default floor of 10x leaves room
/// for any amount of scheduler noise).
fn gate_migration_ratio(measured: &Results, min_ratio: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, &global) in measured {
        let Some(rest) = key.strip_prefix("eviction_flood_global/") else {
            continue;
        };
        let Some(&bounded) = measured.get(&format!("eviction_flood/{rest}")) else {
            continue;
        };
        let ratio = if global > 0.0 {
            bounded / global
        } else {
            f64::INFINITY
        };
        let ok = ratio >= min_ratio;
        println!(
            "{:<48} {:>14.1} {:>14.1} {:>8.1}  {}",
            format!("bounded/global ratio ({rest})"),
            global,
            bounded,
            ratio,
            if ok { "ok" } else { "REGRESSION" }
        );
        if !ok {
            failures.push(format!(
                "eviction_flood/{rest}: bounded path only {ratio:.1}x the global-scan \
                 baseline within this run (floor {min_ratio:.0}x) — the bounded \
                 eviction migration has regressed"
            ));
        }
    }
    failures
}

/// Gates `measured` against `baseline`. Returns the failure messages.
fn gate(baseline: &Results, measured: &Results, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    println!(
        "{:<48} {:>14} {:>14} {:>8}  verdict",
        "benchmark", "baseline/s", "measured/s", "ratio"
    );
    for (key, &base) in baseline {
        match measured.get(key) {
            Some(&now) => {
                let ratio = if base > 0.0 { now / base } else { 1.0 };
                let gated = is_gated(key);
                let ok = !gated || ratio >= 1.0 - tolerance;
                println!(
                    "{key:<48} {base:>14.1} {now:>14.1} {ratio:>8.3}  {}",
                    if !gated {
                        "info (not gated)"
                    } else if ok {
                        "ok"
                    } else {
                        "REGRESSION"
                    }
                );
                if !ok {
                    failures.push(format!(
                        "{key}: {now:.1}/s is {:.1}% of baseline {base:.1}/s \
                         (tolerance {:.0}%, pass floor {:.0}%)",
                        ratio * 100.0,
                        tolerance * 100.0,
                        (1.0 - tolerance) * 100.0
                    ));
                }
            }
            None if is_gated(key) => {
                failures.push(format!("{key}: present in baseline but not measured"))
            }
            None => {}
        }
    }
    for key in measured.keys() {
        if !baseline.contains_key(key) {
            println!("{key:<48} {:>14} (new, no baseline — run --update)", "-");
        }
    }
    failures
}

/// Rewrites the committed baselines from `measured`, splitting groups
/// across the `BENCH_*.json` files they belong to.
fn update_baselines(root: &Path, raw_json: &str) {
    let mut per_file: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for line in raw_json.lines() {
        if let Some(group) = json_str_field(line, "group") {
            let id = json_str_field(line, "id").unwrap_or_default();
            // Last write wins per benchmark, preserving one line each.
            seen.insert(format!("{group}/{id}"), format!("{line}\n"));
        }
    }
    for (key, line) in &seen {
        let group = key.split('/').next().unwrap_or_default();
        per_file
            .entry(baseline_file_for(group))
            .or_default()
            .push_str(line);
    }
    for (file, content) in per_file {
        let path = root.join(file);
        std::fs::write(&path, content).expect("write baseline");
        println!("updated {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    let scratch: PathBuf;
    let raw: String;

    if let Some(pos) = args.iter().position(|a| a == "--check-only") {
        scratch = PathBuf::from(
            args.get(pos + 1)
                .expect("--check-only needs a JSON-lines path"),
        );
        raw = std::fs::read_to_string(&scratch).expect("read --check-only file");
    } else {
        scratch = std::env::temp_dir().join("aipow_bench_gate.json");
        run_benches(&scratch);
        raw = std::fs::read_to_string(&scratch).unwrap_or_default();
    }

    let measured = parse_bench_json(&raw);
    assert!(
        !measured.is_empty(),
        "no benchmark results parsed from {}",
        scratch.display()
    );

    if args.iter().any(|a| a == "--update") {
        update_baselines(&root, &raw);
        return;
    }

    let mut baseline = Results::new();
    for file in [
        "BENCH_contended.json",
        "BENCH_flood.json",
        "BENCH_batch.json",
        "BENCH_verify.json",
        "BENCH_net.json",
    ] {
        baseline.extend(read_results(&root.join(file)));
    }
    assert!(
        !baseline.is_empty(),
        "no committed baselines found under {} — run with --update first",
        root.display()
    );

    let tol = tolerance();
    let mut failures = gate(&baseline, &measured, tol);
    failures.extend(gate_migration_ratio(&measured, min_ratio()));
    failures.extend(gate_batch_speedup(&measured, min_batch_speedup()));
    failures.extend(gate_trace_overhead(&measured, max_trace_overhead()));
    failures.extend(gate_wide_speedup(&measured, min_wide_speedup()));
    failures.extend(gate_conn_slowdown(&measured, max_conn_slowdown()));
    failures.extend(gate_backend_asymmetry(
        &measured,
        max_memhard_verify_ratio(),
        min_memhard_solve_ratio(),
    ));
    if failures.is_empty() {
        println!(
            "perf gate: {} benchmarks within {:.0}% of baseline",
            baseline.keys().filter(|k| is_gated(k)).count(),
            tol * 100.0
        );
    } else {
        eprintln!("perf gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
