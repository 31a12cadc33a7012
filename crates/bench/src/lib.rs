//! Shared fixtures for the benchmark harness, and the perf gate's table.
//!
//! Every bench target and the `reproduce` binary build their workloads
//! through these helpers so that benchmark inputs stay consistent across
//! experiments (same keys, same client IP, same dataset spec).
//! [`RATIO_GATES`] is every within-run ratio the `bench_gate` binary
//! enforces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aipow_pow::{Challenge, Difficulty, Issuer, Verifier};
use aipow_reputation::synth::DatasetSpec;
use aipow_reputation::{dabr::DabrModel, Dataset};
use std::collections::BTreeMap;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};
use Bound::{Ceiling, Floor};

/// The master key every benchmark issuer/verifier derives from.
pub const BENCH_MASTER_KEY: [u8; 32] = [0xB7; 32];

/// The client IP used in solver benchmarks.
pub fn bench_client_ip() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, 77))
}

/// An issuer over [`BENCH_MASTER_KEY`].
pub fn bench_issuer() -> Issuer {
    Issuer::new(&BENCH_MASTER_KEY)
}

/// A verifier over [`BENCH_MASTER_KEY`].
pub fn bench_verifier() -> Verifier {
    Verifier::new(&BENCH_MASTER_KEY)
}

/// Issues a challenge at the given difficulty for the bench client.
///
/// # Panics
///
/// Panics if `bits > 64`.
pub fn issued_challenge(bits: u8) -> Challenge {
    bench_issuer().issue(
        bench_client_ip(),
        Difficulty::new(bits).expect("difficulty within range"),
    )
}

/// The dataset + fitted DAbR model used by reputation benchmarks:
/// `(train, test, model)`.
pub fn fitted_dabr(seed: u64) -> (Dataset, Dataset, DabrModel) {
    let dataset = DatasetSpec::default().with_seed(seed).generate();
    let (train, test) = dataset.split(0.8, seed);
    let model = DabrModel::fit(&train, &Default::default());
    (train, test, model)
}

/// Verdict of a within-run gate whose ratio sets the wide kernel against
/// the scalar `Sha256`: `(text for the table, whether the run fails)`.
///
/// Where `hardware_sha` (the `aipow_crypto::hardware_sha_active` probe) is
/// true the scalar side runs on SHA-NI and the wide side does not, so the
/// ratio says which CPU this is, not whether the wide kernel regressed: it
/// is printed and not enforced. Everywhere else the gate holds as it
/// always did.
pub fn wide_vs_scalar_verdict(holds: bool, hardware_sha: bool) -> (&'static str, bool) {
    match (hardware_sha, holds) {
        (true, _) => ("not enforced: hardware SHA active", false),
        (false, true) => ("ok", false),
        (false, false) => ("REGRESSION", true),
    }
}

/// The limit a [`RatioGate`]'s ratio must respect.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// The ratio must be at least this.
    Floor(f64),
    /// The ratio must be at most this.
    Ceiling(f64),
}

impl Bound {
    fn holds(self, ratio: f64) -> bool {
        match self {
            Floor(floor) => ratio >= floor,
            Ceiling(ceiling) => ratio <= ceiling,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Floor(floor) => write!(f, ">= {floor}"),
            Ceiling(ceiling) => write!(f, "<= {ceiling}"),
        }
    }
}

/// One within-run gate: `numerator / denominator` of two bench medians
/// (`per_sec`, keyed `group/id`) from the same run. Both sides share the
/// host, the build and the minute, so the ratio does not depend on which
/// machine measures it.
#[derive(Debug)]
pub struct RatioGate {
    /// Row label, as printed.
    pub label: &'static str,
    /// `group/id` of the numerator bench.
    pub numerator: &'static str,
    /// `group/id` of the denominator bench.
    pub denominator: &'static str,
    /// What the ratio must respect.
    pub bound: Bound,
    /// Whether the ratio sets the wide kernel against the scalar `Sha256`
    /// (judged through [`wide_vs_scalar_verdict`]).
    pub wide_vs_scalar: bool,
    /// What a failure means.
    pub hint: &'static str,
}

/// Every gate `bench_gate` enforces, in print order. The recorded
/// readings behind each bound are in EXPERIMENTS.md §C9–§C15.
#[rustfmt::skip]
pub const RATIO_GATES: [RatioGate; 9] = [
    RatioGate { label: "bounded/global ratio (threads/1)", bound: Floor(10.0),
        numerator: "eviction_flood/threads/1",
        denominator: "eviction_flood_global/threads/1",
        wide_vs_scalar: false, hint: "the bounded eviction migration has regressed" },
    RatioGate { label: "bounded/global ratio (threads/4)", bound: Floor(10.0),
        numerator: "eviction_flood/threads/4",
        denominator: "eviction_flood_global/threads/4",
        wide_vs_scalar: false, hint: "the bounded eviction migration has regressed" },
    RatioGate { label: "bounded/global ratio (threads/8)", bound: Floor(10.0),
        numerator: "eviction_flood/threads/8",
        denominator: "eviction_flood_global/threads/8",
        wide_vs_scalar: false, hint: "the bounded eviction migration has regressed" },
    RatioGate { label: "batch32/sequential speedup (4 threads)", bound: Floor(1.5),
        numerator: "admission_batch/batch32/threads/4",
        denominator: "admission_batch_seq/threads/4",
        wide_vs_scalar: false, hint: "the batch amortization has regressed" },
    RatioGate { label: "traced/untraced admission (batch 32, 4T)", bound: Floor(0.95),
        numerator: "admission_batch_traced/batch32/threads/4",
        denominator: "admission_batch_traced/batch32_untraced/threads/4",
        wide_vs_scalar: false, hint: "the sampled-off emission path has grown a cost" },
    RatioGate { label: "wide/scalar verify speedup (batch 32)", bound: Floor(2.0),
        numerator: "verify_kernel_batch/wide/32",
        denominator: "verify_kernel_batch/scalar/32",
        wide_vs_scalar: true, hint: "the multi-lane kernel has regressed" },
    RatioGate { label: "request slowdown, 1k -> 50k resident conns", bound: Ceiling(2.0),
        numerator: "connection_scaling_request/conns/1000",
        denominator: "connection_scaling_request/conns/50000",
        wide_vs_scalar: false, hint: "the exchange path scales with the connection count" },
    RatioGate { label: "memhard/sha256 verify cost (batch 32)", bound: Ceiling(2.0),
        numerator: "verify_kernel_backend/verify/sha256/32",
        denominator: "verify_kernel_backend/verify/memhard/32",
        wide_vs_scalar: true, hint: "the cheap-verify half of the asymmetry has regressed" },
    RatioGate { label: "memhard/sha256 solve cost (per attempt)", bound: Floor(10.0),
        numerator: "verify_kernel_backend/solve/sha256/64",
        denominator: "verify_kernel_backend/solve/memhard/64",
        wide_vs_scalar: false, hint: "the expensive-solve half of the asymmetry has regressed" },
];

/// One [`RatioGate`] evaluated against a run.
#[derive(Debug)]
pub struct GateReading {
    /// The row.
    pub gate: &'static RatioGate,
    /// `numerator / denominator` (infinite over a zero denominator), or
    /// `None` when either side was not measured.
    pub ratio: Option<f64>,
    /// Text for the verdict column.
    pub verdict: &'static str,
    /// Why the run fails on this row; `None` when it does not.
    pub failure: Option<String>,
}

/// Evaluates every row of [`RATIO_GATES`] against `measured`
/// (`group/id → per_sec`). A row whose numerator or denominator was not
/// measured fails and names the missing key, so a renamed group or a
/// bench that stopped running cannot pass. `hardware_sha` is the
/// `aipow_crypto::hardware_sha_active` probe.
pub fn evaluate(measured: &BTreeMap<String, f64>, hardware_sha: bool) -> Vec<GateReading> {
    let reading = |gate: &'static RatioGate| {
        let side = |key: &'static str| measured.get(key).copied().ok_or(key);
        let (ratio, verdict, failure) = match (side(gate.numerator), side(gate.denominator)) {
            (Ok(num), Ok(den)) => {
                let ratio = if den > 0.0 { num / den } else { f64::INFINITY };
                let (verdict, fails) = wide_vs_scalar_verdict(
                    gate.bound.holds(ratio),
                    hardware_sha && gate.wide_vs_scalar,
                );
                let (label, bound, hint) = (gate.label, gate.bound, gate.hint);
                let failure = fails.then(|| {
                    format!("{label}: {ratio:.3} within this run, bound {bound} — {hint}")
                });
                (Some(ratio), verdict, failure)
            }
            (num, den) => {
                let missing = Vec::from_iter([num.err(), den.err()].into_iter().flatten());
                let failure = format!("{}: not measured: {}", gate.label, missing.join(", "));
                (None, "MISSING", Some(failure))
            }
        };
        GateReading {
            gate,
            ratio,
            verdict,
            failure,
        }
    };
    RATIO_GATES.iter().map(reading).collect()
}

/// Parses the JSON lines the vendored criterion appends to
/// `AIPOW_BENCH_JSON` into `group/id → per_sec`. The writer appends, so
/// the last line per `group/id` wins; a line without a `group`, an `id`
/// and a `per_sec` is skipped.
pub fn parse_bench_json(content: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in content.lines() {
        // The value after `"field":` — exact for the single-line records
        // that writer produces.
        let after = |field: &str| {
            let needle = format!("\"{field}\":");
            Some(&line[line.find(&needle)? + needle.len()..])
        };
        let string = |field| after(field)?.strip_prefix('"')?.split('"').next();
        let per_sec = after("per_sec").and_then(|rest| {
            let end = rest.find(|c: char| !(c.is_ascii_digit() || ".-+e".contains(c)));
            rest[..end.unwrap_or(rest.len())].parse().ok()
        });
        if let (Some(group), Some(id), Some(per_sec)) = (string("group"), string("id"), per_sec) {
            out.insert(format!("{group}/{id}"), per_sec);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_pow::solver;

    #[test]
    fn wide_vs_scalar_gates_are_enforced_exactly_where_the_probe_is_false() {
        assert_eq!(wide_vs_scalar_verdict(true, false), ("ok", false));
        assert_eq!(wide_vs_scalar_verdict(false, false), ("REGRESSION", true));
        for holds in [true, false] {
            let (text, fails) = wide_vs_scalar_verdict(holds, true);
            assert_eq!(text, "not enforced: hardware SHA active");
            assert!(!fails);
        }
    }

    /// Readings EXPERIMENTS.md §C15 recorded, in [`RATIO_GATES`] order:
    /// a `sha_ni` host's gate run, except the two wide-vs-scalar rows,
    /// which take §C15's run on the portable scalar kernel (on the SHA
    /// host they read 1.03 and 2.94, printed as not enforced).
    const RECORDED: [f64; 9] = [522.9, 887.1, 932.4, 4.13, 0.980, 3.49, 0.91, 0.91, 14.8];

    /// A run in which row `i` reads `ratios[i]`.
    fn run_at(ratios: [f64; 9]) -> BTreeMap<String, f64> {
        let mut measured = BTreeMap::new();
        for (gate, ratio) in RATIO_GATES.iter().zip(ratios) {
            measured.insert(gate.numerator.to_string(), ratio);
            measured.insert(gate.denominator.to_string(), 1.0);
        }
        measured
    }

    fn failing_rows(readings: &[GateReading]) -> Vec<&'static str> {
        readings
            .iter()
            .filter(|r| r.failure.is_some())
            .map(|r| r.gate.label)
            .collect()
    }

    #[test]
    fn every_row_passes_at_the_recorded_ratios_and_at_its_bound() {
        for hardware_sha in [false, true] {
            let readings = evaluate(&run_at(RECORDED), hardware_sha);
            assert_eq!(readings.len(), 9);
            assert!(failing_rows(&readings).is_empty());
        }
        let at_bound = RATIO_GATES.map(|gate| match gate.bound {
            Bound::Floor(b) | Bound::Ceiling(b) => b,
        });
        let readings = evaluate(&run_at(at_bound), false);
        assert!(readings.iter().all(|r| r.verdict == "ok"), "{readings:?}");
    }

    #[test]
    fn each_row_fails_just_past_its_bound_and_names_itself() {
        for (i, gate) in RATIO_GATES.iter().enumerate() {
            let mut ratios = RECORDED;
            ratios[i] = match gate.bound {
                Bound::Floor(floor) => floor * 0.999,
                Bound::Ceiling(ceiling) => ceiling * 1.001,
            };
            let readings = evaluate(&run_at(ratios), false);
            assert_eq!(failing_rows(&readings), [gate.label]);
            assert_eq!(readings[i].verdict, "REGRESSION");
            let failure = readings[i].failure.as_deref().unwrap_or_default();
            assert!(failure.starts_with(gate.label) && failure.contains(gate.hint));
        }
    }

    #[test]
    fn a_row_missing_either_side_fails_and_names_the_key() {
        for (i, gate) in RATIO_GATES.iter().enumerate() {
            for key in [gate.numerator, gate.denominator] {
                let mut measured = run_at(RECORDED);
                measured.remove(key);
                for hardware_sha in [false, true] {
                    let readings = evaluate(&measured, hardware_sha);
                    assert_eq!(failing_rows(&readings), [gate.label]);
                    assert_eq!((readings[i].ratio, readings[i].verdict), (None, "MISSING"));
                    let failure = readings[i].failure.as_deref().unwrap_or_default();
                    assert!(
                        failure.ends_with(&format!("not measured: {key}")),
                        "{failure}"
                    );
                }
            }
        }
        let nothing = evaluate(&BTreeMap::new(), false);
        assert_eq!(failing_rows(&nothing).len(), 9);
        let both = nothing[0].failure.as_deref().unwrap_or_default();
        assert!(
            both.contains(RATIO_GATES[0].numerator) && both.contains(RATIO_GATES[0].denominator)
        );
    }

    #[test]
    fn a_zero_denominator_reads_infinite() {
        let mut measured = run_at(RECORDED);
        for gate in &RATIO_GATES {
            measured.insert(gate.denominator.to_string(), 0.0);
        }
        let readings = evaluate(&measured, false);
        assert!(readings.iter().all(|r| r.ratio == Some(f64::INFINITY)));
        // Infinity clears every floor and breaks every ceiling.
        let ceilings: Vec<_> = RATIO_GATES
            .iter()
            .filter(|g| matches!(g.bound, Bound::Ceiling(_)))
            .map(|g| g.label)
            .collect();
        assert_eq!(failing_rows(&readings), ceilings);
    }

    #[test]
    fn wide_vs_scalar_rows_are_printed_not_enforced_where_the_probe_is_true() {
        let wide: Vec<usize> = (0..9).filter(|&i| RATIO_GATES[i].wide_vs_scalar).collect();
        assert_eq!(wide, [5, 7]);
        for i in wide {
            let mut ratios = RECORDED;
            ratios[i] = match RATIO_GATES[i].bound {
                Bound::Floor(floor) => floor / 3.0,
                Bound::Ceiling(ceiling) => ceiling * 3.0,
            };
            let enforced = evaluate(&run_at(ratios), false);
            assert_eq!(failing_rows(&enforced), [RATIO_GATES[i].label]);
            let on_sha = evaluate(&run_at(ratios), true);
            assert!(failing_rows(&on_sha).is_empty());
            assert_eq!(on_sha[i].verdict, "not enforced: hardware SHA active");
        }
    }

    #[test]
    fn the_parser_keeps_the_last_line_per_bench_and_skips_the_rest() {
        let lines = "\
            bench eviction_flood/threads/1                 median 8.035 ms  0.5 Melem/s\n\
            {\"group\":\"g\",\"id\":\"threads/4\",\"median_ns\":1.0,\"throughput\":{\"unit\":\"elements\",\"per_iter\":8,\"per_sec\":2.5e5}}\n\
            \n\
            {\"group\":\"g\",\"id\":\"no/throughput\",\"median_ns\":1.0}\n\
            not json at all\n\
            {\"group\":\"g\",\"id\":\"threads/4\",\"median_ns\":1.0,\"throughput\":{\"unit\":\"elements\",\"per_iter\":8,\"per_sec\":1234.5}}\n\
            {\"group\":\"h\",\"id\":\"batch32/threads/1\",\"throughput\":{\"per_sec\":7}}\n";
        let parsed = parse_bench_json(lines);
        let expected = [
            ("g/threads/4".to_string(), 1234.5),
            ("h/batch32/threads/1".into(), 7.0),
        ];
        assert_eq!(parsed, BTreeMap::from(expected));
    }

    #[test]
    fn fixtures_compose() {
        let c = issued_challenge(4);
        let report = solver::solve(&c, bench_client_ip(), &Default::default()).unwrap();
        assert!(bench_verifier()
            .verify(&report.solution, bench_client_ip())
            .is_ok());
    }

    #[test]
    fn dabr_fixture_is_fitted() {
        let (train, test, model) = fitted_dabr(1);
        assert!(!train.is_empty());
        assert!(!test.is_empty());
        assert_eq!(model.centroids().len(), 3);
    }
}
