//! The puzzle generation module (paper §II.3).
//!
//! “A puzzle is generated by collecting request related data, i.e.,
//! timestamp and unique seed (for mitigating pre-computation attacks), and a
//! difficulty value as defined by the policy module, all of which is relayed
//! back to the client.”

use crate::backend::{BackendId, BackendRegistry};
use crate::challenge::{Challenge, CHALLENGE_VERSION};
use crate::difficulty::Difficulty;
use crate::time::{SystemClock, TimeSource};
use aipow_crypto::drbg::HmacDrbg;
use aipow_crypto::hkdf;
use aipow_crypto::hmac::HmacKey;
use std::net::IpAddr;
use std::sync::Arc;

/// Default challenge validity window: 30 seconds, comfortably above the
/// paper's highest observed solve latency (~900 ms) with two orders of
/// magnitude of headroom for slow clients.
pub const DEFAULT_TTL_MS: u64 = 30_000;

/// The puzzle issuer.
///
/// Each challenge carries a 128-bit seed from a keyed counter
/// ([`HmacDrbg`]): draw `n` is `HMAC(seed_key, n as big-endian u64)[..16]`,
/// where `n` comes from one atomic increment, so seeds never repeat within
/// an issuer and are unpredictable without `seed_key`. Challenges are authenticated with a
/// MAC key derived from the issuer's master key, so a
/// [`Verifier`](crate::Verifier) constructed from the same key can check
/// solutions statelessly.
///
/// The counter starts at 0: two issuers built from one master key (or
/// one issuer restarted under a stable key) draw the same seed stream.
///
/// The issuer is `Send + Sync` and takes no lock; one instance serves
/// all connections.
///
/// ```
/// use aipow_pow::{Difficulty, Issuer};
/// # use std::net::{IpAddr, Ipv4Addr};
/// let issuer = Issuer::new(&[42u8; 32]);
/// let ip = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
/// let a = issuer.issue(ip, Difficulty::new(6).unwrap());
/// let b = issuer.issue(ip, Difficulty::new(6).unwrap());
/// assert_ne!(a.seed(), b.seed(), "seeds are unique per challenge");
/// ```
pub struct Issuer {
    mac_key: [u8; 32],
    /// The MAC key with its HMAC schedule precomputed: every challenge
    /// is tagged under the same key, so the schedule runs once here
    /// instead of once per issue.
    prepared_mac: HmacKey,
    /// The seed stream; a seed costs the two compressions of one short
    /// HMAC.
    seeds: HmacDrbg,
    ttl_ms: u64,
    clock: Arc<dyn TimeSource>,
    /// Configured per-backend challenge parameters (the memory-hard arena
    /// MiB); backends not listed use their registry default.
    backend_params: Vec<(BackendId, u8)>,
}

impl Issuer {
    /// Creates an issuer from a 32-byte master key with the default TTL and
    /// system clock.
    ///
    /// The MAC key and the seed key are derived from the master key with
    /// domain-separated HKDF labels, so the master key itself is never
    /// used directly.
    pub fn new(master_key: &[u8; 32]) -> Self {
        Self::with_clock(master_key, Arc::new(SystemClock))
    }

    /// Creates an issuer with an explicit time source (tests, simulation).
    pub fn with_clock(master_key: &[u8; 32], clock: Arc<dyn TimeSource>) -> Self {
        let mac_key = hkdf::derive_key32(master_key, "aipow/challenge-mac");
        Issuer {
            prepared_mac: HmacKey::new(&mac_key),
            mac_key,
            // The label predates counter-mode seeds; it keeps its name so
            // the seed key is the one the same master key always derived.
            seeds: HmacDrbg::new(master_key, "aipow/seed-drbg"),
            ttl_ms: DEFAULT_TTL_MS,
            clock,
            backend_params: Vec::new(),
        }
    }

    /// Sets the challenge TTL (milliseconds), returning the issuer for
    /// chaining.
    pub fn with_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.ttl_ms = ttl_ms;
        self
    }

    /// Configures the challenge parameter minted for `backend` — the
    /// memory-hard backend's arena size in MiB. Unconfigured backends mint
    /// their [`default_param`](crate::PuzzleBackend::default_param).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not registered or rejects `param`; issuance
    /// parameters are server configuration, validated up front
    /// (`FrameworkConfig::validate` in `aipow-core` does so with a typed
    /// error before the framework builder reaches this).
    pub fn with_backend_param(mut self, backend: BackendId, param: u8) -> Self {
        let registered = BackendRegistry::global()
            .get(backend)
            // lint:allow(no-unwrap) configuration invariant: builder-time
            // misuse, panics before any request is served
            .unwrap_or_else(|| panic!("issuer configuration: unknown backend {backend}"));
        assert!(
            registered.validate_param(param),
            "issuer configuration: backend {backend} rejects parameter {param}"
        );
        self.backend_params.retain(|(id, _)| *id != backend);
        self.backend_params.push((backend, param));
        self
    }

    /// The configured TTL in milliseconds.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// The derived MAC key; shared with the verifier. Exposed for
    /// constructing a [`Verifier`](crate::Verifier) colocated with the
    /// issuer from pre-derived material.
    pub fn mac_key(&self) -> &[u8; 32] {
        &self.mac_key
    }

    /// Issues a `difficulty`-difficult SHA-256-backend challenge bound to
    /// `client_ip`, timestamped now.
    pub fn issue(&self, client_ip: IpAddr, difficulty: Difficulty) -> Challenge {
        self.issue_at(client_ip, difficulty, self.clock.now_ms())
    }

    /// Issues a SHA-256-backend challenge with an explicit timestamp.
    pub fn issue_at(&self, client_ip: IpAddr, difficulty: Difficulty, now_ms: u64) -> Challenge {
        self.issue_backend_at(client_ip, difficulty, BackendId::SHA256, now_ms)
    }

    /// Issues a challenge for an explicit puzzle backend, timestamped now.
    pub fn issue_backend(
        &self,
        client_ip: IpAddr,
        difficulty: Difficulty,
        backend: BackendId,
    ) -> Challenge {
        self.issue_backend_at(client_ip, difficulty, backend, self.clock.now_ms())
    }

    /// Issues a challenge for an explicit puzzle backend with an explicit
    /// timestamp: draws one seed, then builds and MACs the challenge.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not registered — routing to an unknown
    /// backend is a server misconfiguration, not client input.
    pub fn issue_backend_at(
        &self,
        client_ip: IpAddr,
        difficulty: Difficulty,
        backend: BackendId,
        now_ms: u64,
    ) -> Challenge {
        let registered = BackendRegistry::global()
            .get(backend)
            // lint:allow(no-unwrap) routing invariant: only registered ids
            // (the default route or a router vetted by config validation)
            // reach the mint path
            .unwrap_or_else(|| panic!("issuer routing: unknown backend {backend}"));
        let unsigned = Challenge::from_parts_backend(
            CHALLENGE_VERSION,
            backend,
            self.param_for(registered),
            self.seeds.generate_seed16(),
            now_ms,
            self.ttl_ms,
            difficulty,
            client_ip,
            [0u8; 32],
        );
        let tag = self.prepared_mac.mac(&unsigned.authenticated_bytes());
        unsigned.with_tag(tag.into_bytes())
    }

    /// Issues one SHA-256-backend challenge per `(client_ip, difficulty)`
    /// request, all timestamped `now_ms`: exactly
    /// [`issue_at`](Self::issue_at) for each request in order.
    pub fn issue_batch_at(&self, requests: &[(IpAddr, Difficulty)], now_ms: u64) -> Vec<Challenge> {
        requests
            .iter()
            .map(|&(client_ip, difficulty)| self.issue_at(client_ip, difficulty, now_ms))
            .collect()
    }

    /// The challenge parameter this issuer mints for `backend`: the
    /// configured override, else the backend's default.
    fn param_for(&self, backend: &dyn crate::backend::PuzzleBackend) -> u8 {
        self.backend_params
            .iter()
            .find(|(id, _)| *id == backend.id())
            .map(|&(_, param)| param)
            .unwrap_or_else(|| backend.default_param())
    }
}

impl core::fmt::Debug for Issuer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Issuer")
            .field("ttl_ms", &self.ttl_ms)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::SEED_LEN;
    use crate::time::ManualClock;
    use aipow_crypto::hmac::HmacSha256;
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    fn ip() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 55))
    }

    #[test]
    fn issues_with_requested_difficulty_and_ttl() {
        let clock = ManualClock::at(5_000);
        let issuer = Issuer::with_clock(&[1u8; 32], Arc::new(clock)).with_ttl_ms(10_000);
        let c = issuer.issue(ip(), Difficulty::new(9).unwrap());
        assert_eq!(c.difficulty().bits(), 9);
        assert_eq!(c.issued_at_ms(), 5_000);
        assert_eq!(c.ttl_ms(), 10_000);
        assert_eq!(c.client_ip(), ip());
        assert_eq!(c.version(), CHALLENGE_VERSION);
    }

    #[test]
    fn seeds_never_repeat() {
        let issuer = Issuer::new(&[2u8; 32]);
        let mut seen = HashSet::new();
        for _ in 0..2_000 {
            let c = issuer.issue(ip(), Difficulty::ZERO);
            assert!(seen.insert(*c.seed()), "duplicate seed");
        }
    }

    #[test]
    fn tag_is_valid_hmac_over_authenticated_bytes() {
        let issuer = Issuer::new(&[3u8; 32]);
        let c = issuer.issue(ip(), Difficulty::new(1).unwrap());
        assert!(HmacSha256::verify(
            issuer.mac_key(),
            &c.authenticated_bytes(),
            c.tag()
        ));
    }

    #[test]
    fn different_master_keys_produce_unverifiable_tags() {
        let a = Issuer::new(&[4u8; 32]);
        let b = Issuer::new(&[5u8; 32]);
        let c = a.issue(ip(), Difficulty::ZERO);
        assert!(!HmacSha256::verify(
            b.mac_key(),
            &c.authenticated_bytes(),
            c.tag()
        ));
    }

    #[test]
    fn deterministic_issuers_with_same_key_share_mac_but_not_seeds() {
        // Two issuers from the same master key can cross-verify tags...
        let a = Issuer::new(&[6u8; 32]);
        let b = Issuer::new(&[6u8; 32]);
        let ca = a.issue(ip(), Difficulty::ZERO);
        assert!(HmacSha256::verify(
            b.mac_key(),
            &ca.authenticated_bytes(),
            ca.tag()
        ));
        // ...and their seed counters start identically (same key, counter
        // 0), which is fine: seeds only need uniqueness per issuer
        // instance. Deployments wanting cross-instance uniqueness feed
        // distinct master keys.
        let cb = b.issue(ip(), Difficulty::ZERO);
        assert_eq!(ca.seed(), cb.seed());
    }

    #[test]
    fn issue_at_controls_timestamp() {
        let issuer = Issuer::new(&[7u8; 32]);
        let c = issuer.issue_at(ip(), Difficulty::ZERO, 123_456);
        assert_eq!(c.issued_at_ms(), 123_456);
    }

    #[test]
    fn batch_issue_matches_single_issue_semantics() {
        let issuer = Issuer::new(&[9u8; 32]).with_ttl_ms(5_000);
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
        let requests = vec![
            (ip(), Difficulty::new(3).unwrap()),
            (other, Difficulty::new(7).unwrap()),
            (ip(), Difficulty::ZERO),
        ];
        let batch = issuer.issue_batch_at(&requests, 9_000);
        assert_eq!(batch.len(), 3);
        let mut seeds = HashSet::new();
        for (c, &(want_ip, want_d)) in batch.iter().zip(&requests) {
            assert_eq!(c.client_ip(), want_ip);
            assert_eq!(c.difficulty(), want_d);
            assert_eq!(c.issued_at_ms(), 9_000);
            assert_eq!(c.ttl_ms(), 5_000);
            assert_eq!(c.version(), CHALLENGE_VERSION);
            assert!(seeds.insert(*c.seed()), "duplicate seed in batch");
            // Every batch-minted tag authenticates under the plain HMAC.
            assert!(HmacSha256::verify(
                issuer.mac_key(),
                &c.authenticated_bytes(),
                c.tag()
            ));
        }
        // Empty batches are a no-op, not a panic.
        assert!(issuer.issue_batch_at(&[], 9_000).is_empty());
        // Seeds stay unique across batch and single draws.
        let single = issuer.issue(ip(), Difficulty::ZERO);
        assert!(seeds.insert(*single.seed()));
    }

    #[test]
    fn backend_issuance_stamps_id_param_and_macs_them() {
        let issuer = Issuer::new(&[10u8; 32]).with_backend_param(BackendId::MEMORY_HARD, 2);
        let c = issuer.issue_backend_at(
            ip(),
            Difficulty::new(4).unwrap(),
            BackendId::MEMORY_HARD,
            7_000,
        );
        assert_eq!(c.backend(), BackendId::MEMORY_HARD);
        assert_eq!(c.backend_param(), 2);
        assert!(HmacSha256::verify(
            issuer.mac_key(),
            &c.authenticated_bytes(),
            c.tag()
        ));
        // Default (unconfigured) issuance keeps the SHA-256 backend.
        let plain = issuer.issue_at(ip(), Difficulty::ZERO, 7_000);
        assert_eq!(plain.backend(), BackendId::SHA256);
        assert_eq!(plain.backend_param(), 0);
    }

    /// A batch is minted the way `IssueStage` mints it: one
    /// `issue_backend_at` per request, each routed on its own.
    #[test]
    fn batch_backend_issuance_routes_per_request() {
        let issuer = Issuer::new(&[13u8; 32]);
        let requests = [
            (ip(), Difficulty::ZERO, BackendId::SHA256),
            (ip(), Difficulty::new(2).unwrap(), BackendId::MEMORY_HARD),
        ];
        let batch: Vec<Challenge> = requests
            .iter()
            .map(|&(ip, d, backend)| issuer.issue_backend_at(ip, d, backend, 5_000))
            .collect();
        assert_eq!(batch[0].backend(), BackendId::SHA256);
        assert_eq!(batch[1].backend(), BackendId::MEMORY_HARD);
        assert_eq!(batch[1].difficulty(), Difficulty::new(2).unwrap());
        assert_eq!(
            batch[1].backend_param(),
            aipow_crypto::memmix::DEFAULT_ARENA_MIB,
            "unconfigured memory-hard issuance uses the backend default"
        );
    }

    /// Draw `n` is `HMAC(HKDF(master, "aipow/seed-drbg"), n_be8)[..16]`,
    /// spelled out with the unprepared HMAC.
    #[test]
    fn seed_draw_n_is_the_counter_mode_known_answer() {
        let master = [16u8; 32];
        let issuer = Issuer::new(&master);
        let seed_key = hkdf::derive_key32(&master, "aipow/seed-drbg");
        for n in 0u64..5 {
            let c = issuer.issue_at(ip(), Difficulty::ZERO, 1_000);
            let want = HmacSha256::mac(&seed_key, &n.to_be_bytes());
            assert_eq!(c.seed()[..], want.as_bytes()[..SEED_LEN], "draw {n}");
        }
    }

    /// A batch of N is N single draws, in order: a fresh issuer from the
    /// same key mints the same challenges one call at a time.
    #[test]
    fn batch_of_n_equals_n_single_draws_from_a_fresh_issuer() {
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
        let requests: Vec<(IpAddr, Difficulty)> = (0..33u8)
            .map(|i| {
                (
                    if i.is_multiple_of(3) { other } else { ip() },
                    Difficulty::new(i % 9).unwrap(),
                )
            })
            .collect();
        let batched = Issuer::new(&[17u8; 32]).issue_batch_at(&requests, 4_000);
        let single = Issuer::new(&[17u8; 32]);
        let singles: Vec<Challenge> = requests
            .iter()
            .map(|&(ip, d)| single.issue_at(ip, d, 4_000))
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn routing_to_an_unregistered_backend_panics() {
        let issuer = Issuer::new(&[14u8; 32]);
        let _ = issuer.issue_backend_at(ip(), Difficulty::ZERO, crate::BackendId(99), 1_000);
    }

    #[test]
    #[should_panic(expected = "rejects parameter")]
    fn out_of_bounds_arena_param_panics_at_configuration() {
        let _ = Issuer::new(&[15u8; 32]).with_backend_param(
            BackendId::MEMORY_HARD,
            aipow_crypto::memmix::MAX_ARENA_MIB + 1,
        );
    }

    #[test]
    fn debug_redacts_keys() {
        let issuer = Issuer::new(&[8u8; 32]);
        let text = format!("{issuer:?}");
        assert!(!text.contains("mac_key"));
    }

    #[test]
    fn issuer_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Issuer>();
    }
}
