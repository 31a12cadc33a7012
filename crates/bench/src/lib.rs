//! Shared fixtures for the benchmark harness.
//!
//! Every bench target and the `reproduce` binary build their workloads
//! through these helpers so that benchmark inputs stay consistent across
//! experiments (same keys, same client IP, same dataset spec).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aipow_pow::{Challenge, Difficulty, Issuer, Verifier};
use aipow_reputation::synth::DatasetSpec;
use aipow_reputation::{dabr::DabrModel, Dataset};
use std::net::{IpAddr, Ipv4Addr};

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
