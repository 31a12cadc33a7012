//! The `serve`, `fetch`, `solve`, and `train` commands.

use crate::args::Args;
use crate::CliError;
use aipow_core::config::ConfigError;
use aipow_core::framework::{random_master_key, BuildError};
use aipow_core::{Framework, FrameworkBuilder, FrameworkConfig, StaticFeatureSource};
use aipow_net::{PowClient, PowServer, ServerConfig};
use aipow_pow::solver::{self, SolverOptions};
use aipow_pow::{Difficulty, Issuer};
use aipow_reputation::dabr::DabrModel;
use aipow_reputation::eval::evaluate;
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::synth::DatasetSpec;
use aipow_reputation::{FeatureVector, ReputationScore};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

/// Every flag `aipow serve` accepts — the list [`Args::parse`] is given,
/// and the list README and [`crate::USAGE`] are checked against.
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "policy",
    "resource",
    "key",
    "bypass",
    "reactor-shards",
    "max-connections",
    "per-ip-cap",
    "idle-timeout",
    "score",
    "max-batch",
    "lanes",
    "memory-hard-above",
    "arena-mib",
    "trace-sample",
    "flight-capacity",
];

/// What `aipow serve` decided from its flags, before any socket exists:
/// the framework (built from a [`FrameworkConfig`], whose
/// [`validate`](FrameworkConfig::validate) is the one validator of every
/// framework knob) and the connection-layer config.
struct ServePlan {
    addr: String,
    framework: Arc<Framework>,
    resources: HashMap<String, Vec<u8>>,
    server: ServerConfig,
    score: ReputationScore,
}

/// Parses `aipow serve`'s flags into a [`ServePlan`]. Pure: binds
/// nothing, so every usage error is reachable from a unit test.
fn serve_plan(raw: &[String]) -> Result<ServePlan, CliError> {
    let args = Args::parse(raw.iter().cloned(), SERVE_FLAGS, &[])?;
    let key = match args.get("key") {
        Some(hex) => parse_key(hex)?,
        None => random_master_key(),
    };
    // Until a flow monitor is wired in, the demo server scores every
    // client with a fixed value (configurable for experimentation).
    let score = args.get_parsed::<f64>("score", 5.0, "a score in [0,10]")?;
    let score =
        ReputationScore::new(score).map_err(|e| CliError::usage(format!("--score: {e}")))?;

    let defaults = FrameworkConfig::default();
    let config = FrameworkConfig {
        policy_spec: args.get("policy").unwrap_or(&defaults.policy_spec).into(),
        bypass_threshold: args.get_opt("bypass", "a score in [0,10]")?,
        max_batch: args.get_parsed("max-batch", defaults.max_batch, "a positive integer")?,
        lanes: args.get_opt("lanes", "an integer in [1,8]")?,
        // Backend routing: clients scoring past the threshold are issued
        // memory-hard puzzles instead of SHA-256 preimages.
        memory_hard_above: args.get_opt("memory-hard-above", "a score in [0,10]")?,
        memory_hard_arena_mib: args.get_opt("arena-mib", "an integer MiB count")?,
        // Tracing defaults ON for the server: 1-in-64 sampling keeps the
        // telemetry endpoint's stage histograms and the flight recorder
        // live with negligible overhead. `--trace-sample 0` disables it.
        trace_sample_rate: args.get_parsed("trace-sample", 64, "an integer (0 disables)")?,
        flight_recorder_capacity: args.get_parsed(
            "flight-capacity",
            defaults.flight_recorder_capacity,
            "a positive integer",
        )?,
        ..defaults
    };
    let framework = FrameworkBuilder::new()
        .config(config)
        .master_key(key)
        .model(FixedScoreModel::new(score))
        .build()
        .map_err(|e| match e {
            BuildError::Config(e) => config_usage(e),
            e => CliError::runtime(e.to_string()),
        })?;

    let mut resources = HashMap::new();
    for spec in args.get_all("resource") {
        let (path, body) = spec.split_once('=').ok_or_else(|| {
            CliError::usage(format!("--resource expects path=body, got `{spec}`"))
        })?;
        resources.insert(path.to_string(), body.as_bytes().to_vec());
    }
    if resources.is_empty() {
        resources.insert("/".to_string(), b"it works".to_vec());
    }

    let defaults = ServerConfig::default();
    let positive = "a positive integer";
    let server = ServerConfig {
        max_connections: args
            .get_opt::<NonZeroUsize>("max-connections", positive)?
            .map_or(defaults.max_connections, NonZeroUsize::get),
        per_ip_connection_cap: args.get_parsed(
            "per-ip-cap",
            defaults.per_ip_connection_cap,
            "an integer (0 disables the per-IP cap)",
        )?,
        idle_timeout: Duration::from_secs(args.get_parsed(
            "idle-timeout",
            defaults.idle_timeout.as_secs(),
            "a whole number of seconds (0 disables idle reaping)",
        )?),
        reactor_shards: args
            .get_opt::<NonZeroUsize>("reactor-shards", positive)?
            .map(NonZeroUsize::get),
        ..defaults
    };
    Ok(ServePlan {
        addr: args.get("addr").unwrap_or("127.0.0.1:8471").to_string(),
        framework: Arc::new(framework),
        resources,
        server,
        score,
    })
}

/// A [`ConfigError`] as a usage error naming the flag that set the
/// rejected field.
fn config_usage(e: ConfigError) -> CliError {
    let flag = match &e {
        ConfigError::Policy(_) => "--policy",
        ConfigError::BadBypassThreshold { .. } => "--bypass",
        ConfigError::BadMaxBatch { .. } => "--max-batch",
        ConfigError::BadVerifyLanes { .. } => "--lanes",
        ConfigError::BadRoutingThreshold { .. } => "--memory-hard-above",
        ConfigError::BadArenaMib { .. } => "--arena-mib",
        ConfigError::ZeroCapacity {
            field: "flight recorder",
        } => "--flight-capacity",
        // No `serve` flag sets the remaining fields; their defaults are
        // valid, so this arm is unreachable from the command line.
        _ => "config",
    };
    CliError::usage(format!("{flag}: {e}"))
}

impl ServePlan {
    /// Binds the listener and starts the reactor.
    fn start(self) -> Result<PowServer, CliError> {
        PowServer::start(
            &self.addr,
            self.framework,
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            self.resources,
            self.server,
        )
        .map_err(|e| CliError::runtime(format!("bind {}: {e}", self.addr)))
    }
}

/// Which SHA-256 kernel this process hashes with: the CPU decides
/// ([`aipow_crypto::hardware_sha_active`]), no flag does, so `serve` and
/// `solve` print it for the operator to see.
fn sha256_kernel_line() -> &'static str {
    if aipow_crypto::hardware_sha_active() {
        "sha256 kernel: hardware (sha-ni)"
    } else {
        "sha256 kernel: portable"
    }
}

/// What `aipow serve` prints once it is listening.
fn serve_banner(addr: SocketAddr, framework: &Framework, score: ReputationScore) -> String {
    format!(
        "serving on {addr} with policy `{}` (fixed client score {score}, {} verify lanes, {}); Ctrl-C to stop\n{}",
        framework.policy_name(),
        framework.verifier().verify_lanes(),
        match framework.tracer() {
            Some(tracer) => format!("tracing 1-in-{}", tracer.sample_every()),
            None => "tracing off".to_string(),
        },
        sha256_kernel_line(),
    )
}

/// The kernel note under `aipow solve`'s header: the issuer and verifier
/// side hash on the probed kernel, the client's own hashing never does.
fn solve_kernel_note() -> String {
    format!(
        "{}; the scalar solver (--lanes 1) and the memory-hard walk stay on the portable reference",
        sha256_kernel_line()
    )
}

/// `aipow serve` — run the PoW-fronted resource server until interrupted.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags, an unresolvable policy spec, or bind
/// failure.
pub fn serve(raw: &[String]) -> Result<(), CliError> {
    let plan = serve_plan(raw)?;
    let (framework, score) = (Arc::clone(&plan.framework), plan.score);
    let server = plan.start()?;
    println!("{}", serve_banner(server.local_addr(), &framework, score));
    // Serve until the process is killed; print a metrics line every 10 s.
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let snap = framework.metrics().snapshot();
        println!(
            "issued {} accepted {} rejected {} bypassed {}",
            snap.challenges_issued, snap.solutions_accepted, snap.solutions_rejected, snap.bypassed
        );
    }
}

/// `aipow fetch` — request a resource, solving the returned puzzle.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags, connection failure, or rejection.
pub fn fetch(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        raw.iter().cloned(),
        &["addr", "path", "threads", "count"],
        &["strict"],
    )?;
    let addr = args.require("addr")?.to_string();
    let path = args.get("path").unwrap_or("/").to_string();
    let threads = args.get_parsed::<usize>("threads", 1, "an integer")?;
    let count = args.get_parsed::<u32>("count", 1, "an integer")?;

    let mut client =
        PowClient::connect(&addr).map_err(|e| CliError::runtime(format!("connect {addr}: {e}")))?;
    if args.has("strict") {
        client = client.with_solver_options(SolverOptions::strict());
    }
    if threads > 1 {
        client = client.with_solver_threads(threads);
    }

    for i in 0..count {
        let report = client
            .fetch(&path)
            .map_err(|e| CliError::runtime(e.to_string()))?;
        println!(
            "[{}] {} bytes  difficulty {}  {} hashes  solve {:.3} ms  total {:.3} ms",
            i + 1,
            report.body.len(),
            report
                .difficulty
                .map(|d| d.bits().to_string())
                .unwrap_or_else(|| "bypass".into()),
            report.attempts,
            report.solve_time.as_secs_f64() * 1e3,
            report.total_time.as_secs_f64() * 1e3,
        );
    }
    Ok(())
}

/// `aipow solve` — local puzzle microbenchmark.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags or an unsolvable configuration.
pub fn solve(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        raw.iter().cloned(),
        &[
            "difficulty",
            "threads",
            "trials",
            "lanes",
            "backend",
            "arena-mib",
        ],
        &[],
    )?;
    let bits = args.get_parsed::<u8>("difficulty", 16, "bits in [0,64]")?;
    let difficulty =
        Difficulty::new(bits).map_err(|e| CliError::usage(format!("--difficulty: {e}")))?;
    let threads = args.get_parsed::<usize>("threads", 1, "an integer")?;
    let trials = args.get_parsed::<u32>("trials", 5, "an integer")?;
    // Default to the hardware-detected kernel width; --lanes 1 forces the
    // scalar search for comparison.
    let lanes =
        args.get_parsed::<usize>("lanes", aipow_crypto::auto_lanes(), "an integer in [1,8]")?;
    if lanes == 0 || lanes > aipow_crypto::MAX_LANES {
        return Err(CliError::usage(format!(
            "--lanes must be within [1,{}]",
            aipow_crypto::MAX_LANES
        )));
    }
    let options = SolverOptions {
        lanes,
        ..Default::default()
    };
    // --backend picks the puzzle family; memory-hard puzzles take an
    // optional arena size so the microbenchmark can sweep the cost knob.
    let backend = match args.get("backend").unwrap_or("sha256") {
        "sha256" | "sha-256" => aipow_pow::BackendId::SHA256,
        "memory-hard" | "memhard" => aipow_pow::BackendId::MEMORY_HARD,
        other => {
            return Err(CliError::usage(format!(
                "--backend must be `sha256` or `memory-hard`, got `{other}`"
            )))
        }
    };
    let arena_mib = args.get_parsed::<u8>(
        "arena-mib",
        aipow_crypto::memmix::DEFAULT_ARENA_MIB,
        "an integer MiB count",
    )?;
    if !aipow_crypto::memmix::validate_arena_mib(arena_mib) {
        return Err(CliError::usage(format!(
            "--arena-mib must be within [{},{}]",
            aipow_crypto::memmix::MIN_ARENA_MIB,
            aipow_crypto::memmix::MAX_ARENA_MIB
        )));
    }

    let issuer =
        Issuer::new(&[0xC1u8; 32]).with_backend_param(aipow_pow::BackendId::MEMORY_HARD, arena_mib);
    let ip = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
    println!(
        "solving {trials} × {difficulty} {} puzzles with {threads} thread(s), {lanes} lane(s)",
        if backend == aipow_pow::BackendId::MEMORY_HARD {
            format!("memory-hard ({arena_mib} MiB arena)")
        } else {
            "sha256".to_string()
        },
    );
    println!("{}", solve_kernel_note());
    let mut total_attempts = 0u64;
    let mut total_secs = 0f64;
    for i in 0..trials {
        let challenge = issuer.issue_backend(ip, difficulty, backend);
        let report = if threads > 1 {
            solver::solve_parallel(&challenge, ip, threads, &options)
        } else {
            solver::solve(&challenge, ip, &options)
        }
        .map_err(|e| CliError::runtime(e.to_string()))?;
        println!(
            "  [{}] nonce {:>12}  {:>9} hashes  {:>9.3} ms  {:>8.0} kH/s",
            i + 1,
            report.solution.nonce,
            report.attempts,
            report.elapsed.as_secs_f64() * 1e3,
            report.hash_rate() / 1e3,
        );
        total_attempts += report.attempts;
        total_secs += report.elapsed.as_secs_f64();
    }
    println!(
        "mean: {:.0} hashes/puzzle (theory {:.0}), aggregate {:.0} kH/s",
        total_attempts as f64 / trials as f64,
        difficulty.expected_attempts(),
        if total_secs > 0.0 {
            total_attempts as f64 / total_secs / 1e3
        } else {
            0.0
        },
    );
    Ok(())
}

/// `aipow train` — train DAbR on the synthetic dataset and report quality.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags.
pub fn train(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw.iter().cloned(), &["seed", "overlap"], &[])?;
    let seed = args.get_parsed::<u64>("seed", 1, "an integer")?;
    let overlap = args.get_parsed::<f64>("overlap", 0.38, "a number in [0,1]")?;
    if !(0.0..=1.0).contains(&overlap) {
        return Err(CliError::usage("--overlap must be within [0,1]"));
    }

    let dataset = DatasetSpec::default()
        .with_seed(seed)
        .with_overlap(overlap)
        .generate();
    let (train_set, test_set) = dataset.split(0.8, seed);
    let model = DabrModel::fit(&train_set, &Default::default());
    let report = evaluate(&model, &test_set);

    println!(
        "dataset: {} train / {} test (overlap {overlap}, seed {seed})",
        train_set.len(),
        test_set.len()
    );
    println!(
        "dabr: accuracy {:.1}%  precision {:.3}  recall {:.3}  f1 {:.3}  ϵ {:.2}",
        report.accuracy * 100.0,
        report.precision,
        report.recall,
        report.f1,
        report.score_mae
    );
    println!("paper reference: accuracy ≈ 80%");
    Ok(())
}

/// `aipow observe` — run a synthetic behavior-shift + redemption load
/// through a `Framework` with the online recorder attached and print the
/// per-client score/difficulty trajectory.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags.
pub fn observe(raw: &[String]) -> Result<(), CliError> {
    use aipow_netsim::behavior::{
        run_behavior_shift, run_redemption, BehaviorConfig, TrajectoryPoint,
    };

    let args = Args::parse(
        raw.iter().cloned(),
        &[
            "benign-rps",
            "flood-rps",
            "phase-s",
            "second-phase-s",
            "half-life-ms",
            "prior-strength",
            "rows",
            "remote",
            "poll",
            "poll-interval-s",
        ],
        &[],
    )?;
    if let Some(addr) = args.get("remote") {
        let polls = args.get_parsed::<u32>("poll", 1, "an integer")?.max(1);
        let interval = args.get_parsed::<f64>("poll-interval-s", 2.0, "seconds")?;
        if !interval.is_finite() || interval < 0.0 {
            return Err(CliError::usage(
                "--poll-interval-s must be a non-negative finite number",
            ));
        }
        return observe_remote(addr, polls, interval);
    }
    let defaults = BehaviorConfig::default();
    let config = BehaviorConfig {
        benign_rps: args.get_parsed("benign-rps", defaults.benign_rps, "a rate in req/s")?,
        flood_rps: args.get_parsed("flood-rps", defaults.flood_rps, "a rate in req/s")?,
        phase_s: args.get_parsed("phase-s", defaults.phase_s, "seconds")?,
        second_phase_s: args.get_parsed("second-phase-s", defaults.second_phase_s, "seconds")?,
        half_life_ms: args.get_parsed("half-life-ms", defaults.half_life_ms, "milliseconds")?,
        prior_strength: args.get_parsed(
            "prior-strength",
            defaults.prior_strength,
            "an event count",
        )?,
        ..defaults
    };
    let rows = args.get_parsed::<usize>("rows", 16, "an integer")?.max(2);
    // The scenario asserts internally; reject bad knob values here as a
    // usage error instead of a mid-run panic or a degenerate zero-event
    // run that exits 0.
    for (flag, value) in [
        ("benign-rps", config.benign_rps),
        ("flood-rps", config.flood_rps),
        ("phase-s", config.phase_s),
        ("second-phase-s", config.second_phase_s),
    ] {
        if !value.is_finite() || value <= 0.0 {
            return Err(CliError::usage(format!(
                "--{flag} must be a positive finite number, got {value}"
            )));
        }
    }
    aipow_core::OnlineSettings {
        half_life_ms: config.half_life_ms,
        prior_strength: config.prior_strength,
        ..Default::default()
    }
    .validate()
    .map_err(|e| CliError::usage(e.to_string()))?;

    fn print_sampled(label: &str, trajectory: &[TrajectoryPoint], rows: usize) {
        let stride = (trajectory.len() / rows).max(1);
        for point in trajectory.iter().step_by(stride) {
            println!(
                "  {:>8.1} s  {label:<8}  score {:>5.2}  {}",
                point.t_ms as f64 / 1_000.0,
                point.score,
                point
                    .bits
                    .map(|b| format!("difficulty {b:>2}"))
                    .unwrap_or_else(|| "bypass/quiet".into()),
            );
        }
    }

    println!(
        "behavior-shift: benign {} rps throughout; shifty client turns {} rps flooder at {} s",
        config.benign_rps, config.flood_rps, config.phase_s
    );
    let shift = run_behavior_shift(&config);
    println!("\n       t  client    score      difficulty");
    print_sampled("benign", &shift.benign, rows / 2);
    print_sampled("shifty", &shift.shifty, rows);
    println!(
        "\nshifty: {} → {} bits (+{} within {} flood requests); benign stayed {}–{} bits; \
         peak tracked {}",
        shift.baseline_bits,
        shift.peak_bits,
        shift.peak_bits.saturating_sub(shift.baseline_bits),
        shift
            .requests_to_climb_4
            .map(|n| n.to_string())
            .unwrap_or_else(|| "∞".into()),
        shift.benign_min_bits,
        shift.benign_max_bits,
        shift.peak_tracked,
    );

    println!(
        "\nredemption: flooder quiet after {} s (half-life {} ms, bypass threshold {})",
        config.phase_s, config.half_life_ms, config.bypass_threshold
    );
    let redemption = run_redemption(&config);
    print_sampled("flooder", &redemption.trajectory, rows);
    println!(
        "\npeak score {:.2}; recovered below threshold after {}; bypassed again: {}; \
         sketch pruned: {}",
        redemption.peak_score,
        redemption
            .recovered_after_half_lives
            .map(|h| format!("{h:.1} half-lives"))
            .unwrap_or_else(|| "never".into()),
        redemption.bypassed_after_recovery,
        redemption.pruned,
    );
    Ok(())
}

/// `aipow observe --remote` — poll a live server's telemetry endpoint and
/// print headline counters plus a per-stage p50/p99 latency table.
fn observe_remote(addr: &str, polls: u32, interval_s: f64) -> Result<(), CliError> {
    let mut client =
        PowClient::connect(addr).map_err(|e| CliError::runtime(format!("connect {addr}: {e}")))?;
    for poll in 0..polls {
        if poll > 0 && interval_s > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(interval_s));
        }
        let snap = client
            .telemetry()
            .map_err(|e| CliError::runtime(format!("telemetry: {e}")))?;
        print_remote_snapshot(addr, poll, &snap.prometheus);
    }
    Ok(())
}

fn print_remote_snapshot(addr: &str, poll: u32, prometheus: &str) {
    let scalar = |name: &str| {
        prom_samples(prometheus, name)
            .first()
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    println!(
        "[{poll}] {addr}: issued {} accepted {} rejected {} bypassed {} ({:.1} rej/s)",
        scalar("aipow_challenges_issued") as u64,
        scalar("aipow_solutions_accepted") as u64,
        scalar("aipow_solutions_rejected") as u64,
        scalar("aipow_bypassed") as u64,
        scalar("aipow_rejections_per_s"),
    );
    let p50 = prom_samples(prometheus, "aipow_stage_p50_ns");
    let p99 = prom_samples(prometheus, "aipow_stage_p99_ns");
    let items = prom_samples(prometheus, "aipow_stage_items");
    if p50.is_empty() {
        println!("  (no stage timings yet — has the server admitted a request?)");
        return;
    }
    println!(
        "  {:<18} {:>8} {:>12} {:>12}",
        "stage", "items", "p50", "p99"
    );
    for (stage, p50_ns) in &p50 {
        let find = |samples: &[(String, f64)]| {
            samples
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        println!(
            "  {:<18} {:>8} {:>12} {:>12}",
            stage,
            find(&items) as u64,
            format_ns(*p50_ns),
            format_ns(find(&p99)),
        );
    }
}

/// Extracts `(label-or-empty, value)` pairs for one metric family from
/// Prometheus text exposition. Matches `name value` and
/// `name{key="label"} value` lines; comments and other families are
/// skipped.
fn prom_samples(text: &str, name: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let (label, value) = match rest.strip_prefix('{') {
            Some(labeled) => {
                let Some((labels, value)) = labeled.split_once("} ") else {
                    continue;
                };
                // One label per family in our exposition: key="value".
                let label = labels
                    .split_once('"')
                    .and_then(|(_, v)| v.split('"').next())
                    .unwrap_or(labels);
                (label.to_string(), value)
            }
            None => match rest.strip_prefix(' ') {
                Some(value) => (String::new(), value),
                // A longer family name sharing this prefix.
                None => continue,
            },
        };
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((label, v));
        }
    }
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn parse_key(hex: &str) -> Result<[u8; 32], CliError> {
    let bytes =
        aipow_crypto::hex::decode(hex).map_err(|e| CliError::usage(format!("--key: {e}")))?;
    bytes
        .try_into()
        .map_err(|_| CliError::usage("--key must be exactly 64 hex characters"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn solve_command_runs() {
        solve(&strings(&["--difficulty", "8", "--trials", "2"])).unwrap();
    }

    #[test]
    fn solve_command_runs_at_explicit_lane_widths() {
        for lanes in ["1", "4", "8"] {
            solve(&strings(&[
                "--difficulty",
                "8",
                "--trials",
                "1",
                "--lanes",
                lanes,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn solve_command_runs_memory_hard_backend() {
        solve(&strings(&[
            "--difficulty",
            "4",
            "--trials",
            "1",
            "--backend",
            "memory-hard",
            "--arena-mib",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn solve_rejects_bad_backend_flags() {
        for flags in [
            ["--backend", "scrypt"],
            ["--arena-mib", "0"],
            ["--arena-mib", "200"],
        ] {
            let err = solve(&strings(&flags)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flags:?}: {err}");
        }
    }

    #[test]
    fn lanes_flag_parses_under_both_names() {
        // The name predates the removal of the deprecated alias: `--lanes`
        // is the one spelling, and it reaches the verifier.
        let plan = serve_plan(&strings(&["--lanes", "4"])).unwrap();
        assert_eq!(plan.framework.verifier().verify_lanes(), 4);
        let auto = serve_plan(&[]).unwrap().framework;
        assert_eq!(auto.verifier().verify_lanes(), aipow_crypto::auto_lanes());
    }

    #[test]
    fn serve_rejects_bad_lane_flags_under_both_names() {
        for bad in ["0", "9", "wide"] {
            let err = serve(&strings(&["--lanes", bad])).unwrap_err();
            assert_eq!(err.exit_code, 2, "--lanes {bad}: {err}");
            assert!(err.message.contains("--lanes"), "{}", err.message);
        }
    }

    /// `--max-batch` reaches the framework, which is its one owner: the
    /// reactor drains `framework.max_batch()` frames per dispatch
    /// (`server::tests::reactor_drains_the_frameworks_max_batch`), and
    /// `ServerConfig` has no field to disagree with it. Before, the flag
    /// reached only the reactor and the framework re-chunked at 32.
    #[test]
    fn serve_max_batch_reaches_the_framework() {
        let flags = ["--addr", "127.0.0.1:0", "--max-batch", "128"];
        let plan = serve_plan(&strings(&flags)).unwrap();
        assert_eq!(plan.framework.max_batch(), 128);
        // The plan is what `serve` binds: it must come up and serve.
        let server = plan.start().unwrap();
        let addr = server.local_addr().to_string();
        fetch(&strings(&["--addr", &addr])).unwrap();
        server.shutdown();
    }

    /// The kernel is the CPU's choice, so the only operator surface is a
    /// line of output: `serve`'s banner and `solve`'s header both carry
    /// it, and it says what the probe says.
    #[test]
    fn serve_and_solve_name_the_sha256_kernel_the_probe_reports() {
        let expected = if aipow_crypto::hardware_sha_active() {
            "sha256 kernel: hardware (sha-ni)"
        } else {
            "sha256 kernel: portable"
        };
        let plan = serve_plan(&strings(&["--addr", "127.0.0.1:0"])).unwrap();
        let (framework, score) = (Arc::clone(&plan.framework), plan.score);
        let server = plan.start().unwrap();
        let banner = serve_banner(server.local_addr(), &framework, score);
        server.shutdown();
        assert!(banner.starts_with("serving on 127.0.0.1:"), "{banner}");
        assert_eq!(banner.lines().nth(1), Some(expected), "{banner}");

        let note = solve_kernel_note();
        assert!(note.starts_with(expected), "{note}");
        assert!(note.contains("portable reference"), "{note}");
    }

    #[test]
    fn serve_rejects_out_of_range_knobs_naming_the_flag() {
        for (flag, bad) in [
            ("--max-batch", "0"),
            ("--bypass", "42"),
            ("--bypass", "NaN"),
            ("--max-connections", "0"),
            ("--reactor-shards", "0"),
            ("--policy", "not-a-policy"),
        ] {
            let err = serve(&strings(&[flag, bad])).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flag} {bad}: {err}");
            assert!(err.message.contains(flag), "{flag} {bad}: {err}");
        }
    }

    /// README's flag table and `USAGE`'s `serve` block each list exactly
    /// the flags `serve` parses — no stale alias, no undocumented flag.
    #[test]
    fn serve_flags_match_usage_and_readme() {
        fn flags_between<'a>(text: &'a str, from: &str, to: &str) -> Vec<&'a str> {
            let start = text.find(from).expect("section start");
            let body = &text[start + from.len()..];
            let body = &body[..body.find(to).expect("section end")];
            let mut flags: Vec<&str> = body
                .split("--")
                .skip(1)
                .map(|rest| {
                    let end = rest
                        .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                        .unwrap_or(rest.len());
                    &rest[..end]
                })
                // A table rule (`|---|`) is not a flag.
                .filter(|flag| flag.starts_with(|c: char| c.is_ascii_lowercase()))
                .collect();
            flags.sort_unstable();
            flags.dedup();
            flags
        }
        let mut expected = SERVE_FLAGS.to_vec();
        expected.sort_unstable();
        assert_eq!(
            flags_between(crate::USAGE, "\n    serve ", "\n    fetch "),
            expected
        );
        let readme = include_str!("../../../README.md");
        assert_eq!(
            flags_between(readme, "### `aipow serve` flags", "\n## "),
            expected
        );
    }

    #[test]
    fn serve_rejects_bad_backend_routing_flags() {
        for flags in [
            ["--memory-hard-above", "11"],
            ["--memory-hard-above", "NaN"],
            ["--memory-hard-above", "-1"],
            ["--arena-mib", "0"],
            ["--arena-mib", "65"],
            ["--arena-mib", "big"],
        ] {
            let err = serve(&strings(&flags)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flags:?}: {err}");
        }
    }

    #[test]
    fn solve_rejects_bad_difficulty() {
        let err = solve(&strings(&["--difficulty", "90"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn solve_rejects_bad_lane_widths() {
        for lanes in ["0", "9", "wide"] {
            let err = solve(&strings(&["--lanes", lanes])).unwrap_err();
            assert_eq!(err.exit_code, 2, "--lanes {lanes}");
        }
    }

    #[test]
    fn train_command_runs() {
        train(&strings(&["--seed", "3"])).unwrap();
    }

    #[test]
    fn observe_command_runs() {
        observe(&strings(&[
            "--phase-s",
            "10",
            "--second-phase-s",
            "40",
            "--rows",
            "6",
        ]))
        .unwrap();
    }

    #[test]
    fn observe_rejects_bad_rate() {
        let err = observe(&strings(&["--flood-rps", "fast"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn observe_rejects_invalid_settings_as_usage_errors() {
        for flags in [
            ["--half-life-ms", "0"],
            ["--prior-strength", "-1"],
            ["--flood-rps", "0"],
            ["--flood-rps", "NaN"],
            ["--benign-rps", "-3"],
            ["--phase-s", "0"],
        ] {
            let err = observe(&strings(&flags)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flags:?}: {err}");
        }
    }

    #[test]
    fn train_rejects_bad_overlap() {
        assert!(train(&strings(&["--overlap", "1.5"])).is_err());
    }

    #[test]
    fn fetch_requires_addr() {
        let err = fetch(&strings(&["--path", "/x"])).unwrap_err();
        assert!(err.message.contains("--addr"));
    }

    #[test]
    fn key_parsing() {
        assert!(parse_key(&"ab".repeat(32)).is_ok());
        assert!(parse_key("abcd").is_err());
        assert!(parse_key(&"zz".repeat(32)).is_err());
    }

    #[test]
    fn serve_rejects_bad_trace_flags() {
        // serve() loops forever on success, so only the error paths are
        // reachable from a unit test.
        for flags in [["--trace-sample", "lots"], ["--flight-capacity", "0"]] {
            let err = serve(&strings(&flags)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flags:?}: {err}");
        }
        let err = serve(&strings(&["--trace-sample", "8", "--flight-capacity", "0"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("--flight-capacity"));
    }

    #[test]
    fn observe_rejects_bad_remote_flags() {
        for flags in [
            ["--remote", "127.0.0.1:1", "--poll", "two"],
            ["--remote", "127.0.0.1:1", "--poll-interval-s", "-1"],
        ] {
            let err = observe(&strings(&flags)).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flags:?}: {err}");
        }
    }

    #[test]
    fn prom_samples_parses_plain_and_labeled_lines() {
        let text = "# TYPE aipow_x counter\n\
                    aipow_x 3\n\
                    aipow_x_per_s 0.5\n\
                    aipow_stage_p50_ns{stage=\"score\"} 1200\n\
                    aipow_stage_p50_ns{stage=\"verify\"} 3400\n";
        assert_eq!(prom_samples(text, "aipow_x"), vec![(String::new(), 3.0)]);
        assert_eq!(
            prom_samples(text, "aipow_x_per_s"),
            vec![(String::new(), 0.5)]
        );
        assert_eq!(
            prom_samples(text, "aipow_stage_p50_ns"),
            vec![
                ("score".to_string(), 1200.0),
                ("verify".to_string(), 3400.0)
            ]
        );
        assert!(prom_samples(text, "aipow_missing").is_empty());
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(750.0), "750 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
    }

    /// observe --remote against a live traced server: the table must carry
    /// per-stage p50/p99 rows once a request has flowed through.
    #[test]
    fn observe_remote_prints_stage_quantiles() {
        let tracer = Arc::new(aipow_trace::Tracer::new(aipow_trace::TraceConfig {
            sample_every: 1,
            ..aipow_trace::TraceConfig::default()
        }));
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([2u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(2.0).unwrap()))
                .policy(aipow_policy::LinearPolicy::policy1())
                .tracer(tracer)
                .build()
                .unwrap(),
        );
        let mut resources = HashMap::new();
        resources.insert("/t".to_string(), b"traced".to_vec());
        let server = PowServer::start(
            "127.0.0.1:0",
            Arc::clone(&framework),
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            resources,
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        fetch(&strings(&["--addr", &addr, "--path", "/t"])).unwrap();
        observe(&strings(&[
            "--remote",
            &addr,
            "--poll",
            "2",
            "--poll-interval-s",
            "0",
        ]))
        .unwrap();

        // The same snapshot the command printed must carry stage quantiles.
        let mut client = PowClient::connect(&addr).unwrap();
        let snap = client.telemetry().unwrap();
        let p50 = prom_samples(&snap.prometheus, "aipow_stage_p50_ns");
        let p99 = prom_samples(&snap.prometheus, "aipow_stage_p99_ns");
        assert!(!p50.is_empty(), "no p50 stage rows:\n{}", snap.prometheus);
        assert_eq!(p50.len(), p99.len());
        server.shutdown();
    }

    /// serve+fetch end-to-end through the command layer, using a thread
    /// for the serving loop (it never returns).
    #[test]
    fn serve_and_fetch_roundtrip() {
        // Bind the server components directly (serve() loops forever), but
        // exercise fetch() against it.
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([1u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(2.0).unwrap()))
                .policy(aipow_policy::LinearPolicy::policy1())
                .build()
                .unwrap(),
        );
        let mut resources = HashMap::new();
        resources.insert("/cli".to_string(), b"hello".to_vec());
        let server = PowServer::start(
            "127.0.0.1:0",
            framework,
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            resources,
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        fetch(&strings(&[
            "--addr", &addr, "--path", "/cli", "--count", "2",
        ]))
        .unwrap();
        fetch(&strings(&["--addr", &addr, "--path", "/cli", "--strict"])).unwrap();
        server.shutdown();
    }
}
