#!/usr/bin/env bash
# Gate for the standalone benchmark package: format, lints, unit tests and
# a smoke run of all five workloads with the output oracle on. Everything
# builds offline from path dependencies. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --smoke --seed 1
