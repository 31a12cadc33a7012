//! The netsim scenario suite, runnable as one CI step.
//!
//! Each scenario family in `aipow-netsim` carries assertions about the
//! system's behavior — Policy 2's escalation shape (`fig2`), sharded
//! admission scaling (`contended`), the online reputation loop
//! (`behavior`), and flat admission cost under an address-cycling flood
//! (`flood`). `cargo test` exercises them at unit scale; this binary
//! runs each suite at scenario scale and asserts its documented
//! invariants, so the claims cannot rot outside the test harness. Any
//! violated invariant panics, failing the CI step.
//!
//! Run with `cargo run --release -p aipow-bench --bin netsim_scenarios`.
//! Pass `--only <scenario>` (repeatable; one of `fig2`, `contended`,
//! `behavior`, `flood`, `burst`, `lanes`, `backends`, `connflood`, `tracefire`) to run a single
//! suite — CI shards and local reproductions can target the suite under
//! investigation without paying for the rest. `--list` prints the suite
//! names and exits; an unknown `--only` name is echoed on stderr with a
//! non-zero exit instead of a panic.

use aipow_bench::wide_vs_scalar_verdict;
use aipow_crypto::hardware_sha_active;
use aipow_netsim::backends::{backends_to_markdown, run_backends, BackendsConfig};
use aipow_netsim::behavior::{run_behavior_shift, run_redemption, BehaviorConfig};
use aipow_netsim::burst::{burst_to_markdown, run_burst, BurstConfig};
use aipow_netsim::connflood::{connflood_to_markdown, run_connflood, ConnfloodConfig};
use aipow_netsim::contended::{run_contended, ContendedConfig};
use aipow_netsim::fig2::{run_paper_policies, Fig2Config};
use aipow_netsim::flood::{flood_to_markdown, run_flood_pair};
use aipow_netsim::lanes::{lanes_to_markdown, run_lanes, LanesConfig};
use aipow_netsim::tracefire::{run_tracefire, tracefire_to_markdown, TracefireConfig};

fn fig2_suite() {
    println!("== fig2: latency vs reputation, Policies 1-3 ==");
    let table = run_paper_policies(&Fig2Config::default());
    for policy in ["policy1", "policy2", "policy3"] {
        assert!(
            table.median_ms(policy, 0).is_some(),
            "{policy}: no row at reputation 0"
        );
    }
    // Policy 2 escalates sharply; Policy 1 stays linear and mild.
    let p2_growth = table.growth_factor("policy2").expect("policy2 rows");
    let p1_growth = table.growth_factor("policy1").expect("policy1 rows");
    assert!(p2_growth > 5.0, "policy2 growth {p2_growth:.1} too flat");
    assert!(
        p2_growth > p1_growth,
        "policy2 ({p2_growth:.1}) must escalate faster than policy1 ({p1_growth:.1})"
    );
    println!("   policy1 growth {p1_growth:.1}x, policy2 growth {p2_growth:.1}x -- ok");
}

fn contended_suite() {
    println!("== contended: sharded admission throughput ==");
    let report = run_contended(&ContendedConfig {
        threads: vec![1, 4],
        ops_per_thread: 20_000,
        ..Default::default()
    });
    assert_eq!(report.rows.len(), 2);
    for row in &report.rows {
        assert!(
            row.ops_per_sec > 0.0,
            "{} threads: no throughput measured",
            row.threads
        );
        println!(
            "   {} threads: {:.0} admissions/s",
            row.threads, row.ops_per_sec
        );
    }
    // No lock convoy: added threads must never *lose* aggregate
    // throughput outright (they scale on multicore hosts and hold flat
    // on single-core builders; a global lock loses ~2x to convoying).
    let t1 = report.rows[0].ops_per_sec;
    let t4 = report.rows[1].ops_per_sec;
    assert!(
        t4 > t1 * 0.5,
        "4-thread throughput {t4:.0} collapsed vs 1-thread {t1:.0}: lock convoy"
    );
    println!("   no convoy (4T/1T = {:.2}) -- ok", t4 / t1);
}

fn behavior_suite() {
    println!("== behavior: online reputation loop ==");
    let config = BehaviorConfig::default();
    let shift = run_behavior_shift(&config);
    assert!(
        shift.peak_bits >= shift.baseline_bits.saturating_add(4),
        "flooder only climbed {} -> {} bits",
        shift.baseline_bits,
        shift.peak_bits
    );
    assert!(
        shift.requests_to_climb_4.is_some(),
        "flooder never climbed 4 bits"
    );
    assert!(
        shift.benign_max_bits <= shift.benign_min_bits.saturating_add(2),
        "benign client's difficulty wandered {} -> {}",
        shift.benign_min_bits,
        shift.benign_max_bits
    );
    println!(
        "   flooder {} -> {} bits in {:?} requests; benign stayed {}-{} -- ok",
        shift.baseline_bits,
        shift.peak_bits,
        shift.requests_to_climb_4,
        shift.benign_min_bits,
        shift.benign_max_bits
    );

    // A long quiet phase (30 half-lives) so the run covers the whole
    // redemption arc: recovery below the bypass threshold, genuine
    // re-bypass, and finally the sketch being pruned (fully forgotten).
    let redemption = run_redemption(&BehaviorConfig {
        phase_s: 10.0,
        second_phase_s: 300.0,
        ..config
    });
    assert!(
        redemption.recovered_after_ms.is_some(),
        "flooder never redeemed below the bypass threshold"
    );
    assert!(
        redemption.bypassed_after_recovery,
        "recovered client was not bypassed again"
    );
    assert!(redemption.pruned, "idle sketch was never pruned");
    println!(
        "   redemption in {:.1} half-lives, re-bypassed, pruned -- ok",
        redemption.recovered_after_half_lives.unwrap_or(f64::NAN)
    );
}

fn flood_suite() {
    println!("== flood: bounded eviction under address cycling ==");
    let pair = run_flood_pair(4_096, 65_536, 20_000);
    for outcome in [&pair.small, &pair.large] {
        assert!(
            outcome.population <= outcome.max_clients,
            "population {} exceeded max_clients {}",
            outcome.population,
            outcome.max_clients
        );
        assert_eq!(
            outcome.global_eviction_folds, 0,
            "max_clients {}: the admission path folded over the whole table",
            outcome.max_clients
        );
        assert!(
            outcome.evictions as usize >= outcome.churn.requests,
            "max_clients {}: the churn phase did not churn",
            outcome.max_clients
        );
    }
    // The flatness claim: growing the table 16x must not grow the
    // per-request cost at capacity. Medians are compared tightly; p99
    // gets headroom for scheduler noise on shared runners.
    let p50_ratio = pair.churn_p50_ratio();
    let p99_ratio = pair.churn_p99_ratio();
    assert!(
        p50_ratio < 3.0,
        "churn p50 grew {p50_ratio:.2}x when capacity grew 16x: eviction cost not flat"
    );
    assert!(
        p99_ratio < 6.0,
        "churn p99 grew {p99_ratio:.2}x when capacity grew 16x: eviction cost not flat"
    );
    println!("{}", flood_to_markdown(&pair));
    println!("   churn p50 ratio {p50_ratio:.2}, p99 ratio {p99_ratio:.2} -- ok");
}

fn burst_suite() {
    println!("== burst: pipelined batch admission vs sequential ==");
    let report = run_burst(&BurstConfig::default());
    assert_eq!(
        report.mismatches, 0,
        "batch decisions diverged from the sequential path"
    );
    assert!(
        report.bypassed > 0,
        "schedule must exercise both decision shapes"
    );
    // The amortization claim, stated conservatively for noisy runners:
    // batching must never make the per-request median *worse* (the
    // measured effect is a speedup; 1.25x headroom absorbs scheduler
    // noise), and the tail must stay within the same regime.
    let p50_ratio = report.batch_p50_ns / report.seq_p50_ns.max(1.0);
    assert!(
        p50_ratio < 1.25,
        "batch p50 {:.0} ns is {p50_ratio:.2}x the sequential p50 {:.0} ns",
        report.batch_p50_ns,
        report.seq_p50_ns
    );
    let p99_ratio = report.batch_p99_ns / report.seq_p99_ns.max(1.0);
    assert!(
        p99_ratio < 2.0,
        "batch p99 {:.0} ns is {p99_ratio:.2}x the sequential p99 {:.0} ns",
        report.batch_p99_ns,
        report.seq_p99_ns
    );
    println!("{}", burst_to_markdown(&report));
    println!(
        "   {} decisions identical, p50 speedup {:.2}x -- ok",
        report.requests,
        report.p50_speedup()
    );
}

fn lanes_suite() {
    println!("== lanes: multi-buffer verify vs scalar ==");
    let report = run_lanes(&LanesConfig::default());
    assert_eq!(
        report.mismatches, 0,
        "wide-lane verdicts diverged from the scalar path"
    );
    assert!(report.accepted > 0, "schedule must exercise accepts");
    assert!(report.rejected > 0, "schedule must exercise rejections");
    assert!(report.wide_lanes > 1, "wide framework must be wide");
    // The throughput claim, stated for the build actually running: the
    // wide path must never make the verify stage *slower* (1.15x
    // headroom absorbs scheduler noise), and when the compiler was
    // allowed a 256-bit vector ISA the kernel must win decisively (the
    // measured end-to-end gap under AVX2 is ~2.5-3x; 1.5x leaves room
    // for noisy runners). Baseline x86-64 (SSE2) caps the kernel near
    // 1.5x, so the strict bound only applies with AVX2 compiled in.
    // Both bounds set the wide kernel against the scalar hasher, so on a
    // SHA-NI host (scalar in hardware, wide not) they are printed only.
    let speedup = report.verify_speedup();
    let floor = if cfg!(target_feature = "avx2") {
        1.5
    } else {
        1.0 / 1.15
    };
    let (verdict, fails) = wide_vs_scalar_verdict(speedup > floor, hardware_sha_active());
    assert!(
        !fails,
        "wide verify stage is {:.2}x the scalar cost ({:.0} vs {:.0} ns/item), floor {floor:.2}x",
        1.0 / speedup,
        report.wide_ns_per_item,
        report.scalar_ns_per_item
    );
    println!("{}", lanes_to_markdown(&report));
    println!(
        "   {} verdicts identical, verify speedup {:.2}x -- {verdict}",
        report.submissions, speedup
    );
}

fn backends_suite() {
    println!("== backends: policy-routed memory-hard puzzles ==");
    let report = run_backends(&BackendsConfig::default());
    // The router's contract is exact: every benign challenge on SHA-256,
    // every flooder challenge on memory-hard, nothing misrouted.
    assert_eq!(
        report.routing_violations, 0,
        "the router issued challenges on the wrong backend"
    );
    assert!(
        report.benign_sha_challenges > 0 && report.flooder_memhard_challenges > 0,
        "schedule must exercise both routes: {report:?}"
    );
    // The asymmetry the router exists for: routing the flood to
    // memory-hard must multiply its aggregate solve cost (the memmix
    // arena walk dominates the SHA-256 preimage search)...
    let flood_ratio = report.flood_cost_ratio();
    assert!(
        flood_ratio >= 5.0,
        "flood solve cost only rose {flood_ratio:.1}x under memory-hard routing (need ≥ 5x)"
    );
    // ...while benign clients, still on SHA-256, must not feel it. Exact
    // form: every benign request got the baseline's puzzle.
    assert_eq!(
        report.benign_divergences, 0,
        "routing changed a benign client's backend or difficulty"
    );
    // Wall-clock form, on the median: over 200 samples the p99 is the
    // second-largest, so one preemption would decide it; it is printed.
    let benign_ratio = report.benign_p50_ratio();
    assert!(
        benign_ratio < 2.0,
        "benign median grew {benign_ratio:.2}x under backend routing (must stay flat)"
    );
    // The seam claim: scalar-lane and wide-lane verdicts identical over
    // a mixed SHA/memory-hard schedule with staged corruptions.
    assert_eq!(
        report.verdict_mismatches, 0,
        "scalar and wide lanes diverged through the backend seam"
    );
    assert!(report.accepted > 0, "schedule must exercise accepts");
    assert!(report.rejected > 0, "schedule must exercise rejections");
    println!("{}", backends_to_markdown(&report));
    println!(
        "   routing exact, flood cost {flood_ratio:.1}x, benign p50 {benign_ratio:.2}x \
         (p99 {:.2}x, not gated), {} verdicts identical -- ok",
        report.benign_p99_ratio(),
        report.verify_submissions
    );
}

fn connflood_suite() {
    println!("== connflood: 50k+ concurrent connections on the reactor core ==");
    let config = ConnfloodConfig {
        idle_connections: 50_000,
        active_connections: 256,
        exchanges_per_phase: 2_000,
        per_ip_cap: 64,
        flood_attempts: 50_000,
        max_connections: 120_000,
        idle_memory_budget_bytes: 64,
    };
    let outcome = run_connflood(&config);
    // The concurrency claim: the whole population held open at once.
    assert!(
        outcome.peak_open_connections >= 50_000,
        "only {} connections concurrently open",
        outcome.peak_open_connections
    );
    // The per-IP cap is exact and charged nothing beyond it.
    assert_eq!(
        outcome.flood_admitted, 64,
        "flooder holds {} connections, cap is 64",
        outcome.flood_admitted
    );
    assert_eq!(
        outcome.flood_rejected,
        (50_000 - 64) as u64,
        "every over-cap attempt must be refused at accept"
    );
    // The flatness claim: a 50k-connection flood hammering the accept
    // gate must not move benign p99 (3x headroom for scheduler noise on
    // shared runners; the measured effect is ~1x).
    let p99_ratio = outcome.benign_p99_ratio();
    assert!(
        p99_ratio < 3.0,
        "benign p99 grew {p99_ratio:.2}x under the connection flood"
    );
    // The memory claim: an idle connection's steady-state heap cost is
    // bounded (shrunk buffers), so 100k idle connections stay a
    // bounded-memory proposition.
    assert!(
        outcome.idle_heap_bytes_per_conn <= config.idle_memory_budget_bytes as f64,
        "idle heap {:.1} B/conn over the {} B budget",
        outcome.idle_heap_bytes_per_conn,
        config.idle_memory_budget_bytes
    );
    println!("{}", connflood_to_markdown(&outcome));
    println!(
        "   {} conns held, flood capped at {}, benign p99 ratio {:.2}, idle {:.1} B/conn -- ok",
        outcome.peak_open_connections,
        outcome.flood_admitted,
        p99_ratio,
        outcome.idle_heap_bytes_per_conn
    );
}

fn tracefire_suite() {
    println!("== tracefire: flight recorder under a rejection flood ==");
    let report = run_tracefire(&TracefireConfig::default());
    assert!(
        report.tripped,
        "the flood never tripped the flight recorder"
    );
    assert_eq!(
        report.reason, "rejection_rate",
        "wrong trigger fired: {report:?}"
    );
    assert!(
        report.complete_flooder_chains >= 1,
        "no complete flooder span chain in the frozen dump: {report:?}"
    );
    assert_eq!(
        report.broken_orderings, 0,
        "a trace's spans left the rings out of stage order: {report:?}"
    );
    println!("{}", tracefire_to_markdown(&report));
    println!(
        "   tripped on `{}`; {} spans frozen, {} complete flooder chains, 0 broken -- ok",
        report.reason, report.dump_spans, report.complete_flooder_chains
    );
}

/// The suite registry: names accepted by `--only`, in run order.
const SUITES: [(&str, fn()); 9] = [
    ("fig2", fig2_suite),
    ("contended", contended_suite),
    ("behavior", behavior_suite),
    ("flood", flood_suite),
    ("burst", burst_suite),
    ("lanes", lanes_suite),
    ("backends", backends_suite),
    ("connflood", connflood_suite),
    ("tracefire", tracefire_suite),
];

fn suite_names() -> String {
    SUITES
        .iter()
        .map(|(known, _)| *known)
        .collect::<Vec<_>>()
        .join(", ")
}

/// A bad invocation: echo the problem on stderr and exit non-zero, so a
/// CI shard that names a suite wrong fails loudly instead of silently
/// running nothing (or panicking with a backtrace).
fn usage_error(message: &str) -> ! {
    eprintln!("netsim_scenarios: {message}");
    eprintln!("usage: netsim_scenarios [--list] [--only <scenario>]...");
    eprintln!("scenarios: {}", suite_names());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--list" {
            for (name, _) in SUITES {
                println!("{name}");
            }
            return;
        }
        match arg.strip_prefix("--only") {
            Some("") => match iter.next() {
                Some(name) => only.push(name.clone()),
                None => usage_error("--only requires a scenario name"),
            },
            Some(rest) => match rest.strip_prefix('=') {
                Some(name) => only.push(name.to_string()),
                None => usage_error(&format!("unknown argument `{arg}`")),
            },
            None => usage_error(&format!(
                "unknown argument `{arg}` (expected --list or --only <scenario>)"
            )),
        }
    }
    for name in &only {
        if !SUITES.iter().any(|(known, _)| known == name) {
            usage_error(&format!("unknown scenario `{name}`"));
        }
    }

    let mut ran = 0;
    for (name, suite) in SUITES {
        if only.is_empty() || only.iter().any(|o| o == name) {
            suite();
            ran += 1;
        }
    }
    println!("netsim scenario suite: all invariants hold ({ran} suites)");
}
