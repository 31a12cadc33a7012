//! Command implementations for the `aipow` binary.
//!
//! The CLI wires the workspace into a deployable tool:
//!
//! ```text
//! aipow serve --addr 127.0.0.1:8471 --policy policy2 --resource /hello=world
//! aipow fetch --addr 127.0.0.1:8471 --path /hello
//! aipow solve --difficulty 16 --threads 4
//! aipow train --seed 7
//! ```
//!
//! Every command is a function from parsed [`Args`](args::Args) to a
//! `Result`, so the full surface is unit-testable without spawning the
//! binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use core::fmt;

/// Top-level CLI failure: a message for stderr plus a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code.
    pub exit_code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            exit_code: 2,
        }
    }

    /// A runtime failure (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            exit_code: 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<args::ArgsError> for CliError {
    fn from(e: args::ArgsError) -> Self {
        CliError::usage(e.to_string())
    }
}

/// Usage text printed by `aipow help` and on usage errors.
pub const USAGE: &str = "\
aipow — policy-driven AI-assisted proof-of-work admission (DSN 2022 reproduction)

USAGE:
    aipow <COMMAND> [FLAGS]

COMMANDS:
    serve    serve resources behind PoW admission
             --addr <ip:port>          (default 127.0.0.1:8471)
             --policy <spec>           policy1|policy2|policy3[:eps=X]|DSL (default policy2)
             --resource <path=body>    repeatable; the resources to serve
             --key <hex32>             master key, 64 hex chars (default: random)
             --bypass <score>          admit scores below this without work
             --reactor-shards <n>      reactor threads (default: auto)
             --max-connections <n>     concurrent connection ceiling (default 65536)
             --per-ip-cap <n>          per-IP connection cap, 0 = off (default 4096)
             --idle-timeout <secs>     reap idle connections, 0 = off (default 30)
             --score <f>               fixed client reputation score (default 5.0)
             --max-batch <n>           frames admitted per pipeline pass (default 32)
             --lanes <n>               verify lanes in 1..=8 (default: auto)
             --memory-hard-above <f>   route scores above this to the memory-hard puzzle
             --arena-mib <n>           memory-hard arena MiB, 1..=64 (default 8)
             --trace-sample <n>        trace 1-in-n requests, 0 disables (default 64)
             --flight-capacity <n>     flight-recorder ring capacity (default 4096)
    fetch    request a resource, solving the puzzle
             --addr <ip:port>          server address (required)
             --path <path>             resource path (default /)
             --threads <n>             solver threads (default 1)
             --strict                  use the paper's 32-bit nonce
             --count <n>               repeat the fetch n times (default 1)
    solve    generate and solve a local puzzle (microbenchmark)
             --difficulty <bits>       leading zero bits (default 16)
             --threads <n>             solver threads (default 1)
             --trials <n>              number of puzzles (default 5)
             --lanes <n>               digest lanes: 1, 4, or 8 (default 8)
             --backend <name>          sha256 | memory-hard (default sha256)
             --arena-mib <n>           memory-hard arena MiB, 1..=64 (default 8)
    train    train the DAbR model on the synthetic dataset and report quality
             --seed <n>                dataset seed (default 1)
             --overlap <f>             class overlap in [0,1] (default 0.38)
    observe  run a synthetic behavior-shift + redemption load through the
             online reputation loop and print score/difficulty trajectories
             --benign-rps <f>          benign request rate (default 1)
             --flood-rps <f>           flood request rate (default 100)
             --phase-s <f>             seconds before the behavior shift (default 30)
             --second-phase-s <f>      seconds of flood / silence (default 60)
             --half-life-ms <n>        behavioral decay half-life (default 10000)
             --prior-strength <f>      events to outweigh the prior (default 16)
             --rows <n>                trajectory rows to print (default 16)
             --remote <ip:port>        poll a live server's telemetry endpoint
                                       instead of simulating; prints headline
                                       counters and per-stage p50/p99 latency
             --poll <n>                telemetry polls before exiting (default 1)
             --poll-interval-s <f>     seconds between polls (default 2)
    help     print this message
";

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a message and exit code on any failure.
pub fn dispatch(raw: &[String]) -> Result<(), CliError> {
    let command = raw.first().map(String::as_str).unwrap_or("help");
    let rest = raw.get(1..).unwrap_or(&[]);
    match command {
        "serve" => commands::serve(rest),
        "fetch" => commands::fetch(rest),
        "solve" => commands::solve(rest),
        "train" => commands::train(rest),
        "observe" => commands::observe(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_succeeds() {
        dispatch(&strings(&["help"])).unwrap();
        dispatch(&strings(&["--help"])).unwrap();
        dispatch(&[]).unwrap(); // no command defaults to help
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = dispatch(&strings(&["frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn subcommand_flag_errors_propagate() {
        let err = dispatch(&strings(&["fetch", "--bogus", "1"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn error_conversions() {
        let e: CliError = crate::args::ArgsError::Required { flag: "x".into() }.into();
        assert_eq!(e.exit_code, 2);
        assert!(!CliError::runtime("boom").to_string().is_empty());
    }
}
