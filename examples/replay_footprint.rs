//! Replay-guard footprint: what each remembered seed costs in memory and
//! time as a default guard fills and saturates.
//!
//! ```text
//! cargo run --release --example replay_footprint
//! ```
//!
//! Redeems distinct seeds into `ReplayGuard::default()` at 180 accepts
//! per simulated millisecond with a 30 s TTL — fast enough that nothing
//! expires before the guard is full — up to three times its capacity, and
//! prints, at 10 k, 100 k, 400 k, 530 k, 800 k, 1 Mi and 3 Mi redemptions:
//! the guard's own `heap_bytes()` per remembered seed, the growth of the
//! process's peak resident set (`VmHWM`, Linux only) per remembered seed,
//! and the mean cost of the inserts since the previous row. The index
//! doubles once its shards pass ¾ full, at ~393 k and ~786 k seeds, so
//! 400 k and 800 k land just past a step and 530 k between them. Exits 1
//! if the saturated guard holds more than 32.5 bytes per slot of capacity.

use aipow::pow::replay::{ReplayGuard, DEFAULT_CAPACITY};
use std::process::ExitCode;
use std::time::Instant;

const INSERTS_PER_MS: u64 = 180;
const TTL_MS: u64 = 30_000;
const MAX_BYTES_PER_SLOT: f64 = 32.5;

/// Peak resident set size in bytes, where `/proc` reports it.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

/// A distinct, well-mixed 16-byte seed per index (splitmix64 twice).
fn seed(i: u64) -> [u8; 16] {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut s = [0u8; 16];
    s[..8].copy_from_slice(&mix(2 * i).to_le_bytes());
    s[8..].copy_from_slice(&mix(2 * i + 1).to_le_bytes());
    s
}

fn main() -> ExitCode {
    let guard = ReplayGuard::default();
    let capacity = DEFAULT_CAPACITY as u64;
    println!(
        "replay guard: capacity {capacity}, {} shards, {INSERTS_PER_MS} inserts/ms, {TTL_MS} ms TTL\n",
        guard.shard_count()
    );
    println!("| redeemed | remembered | heap B/seed | VmHWM Δ B/seed | ns/insert |");
    println!("|---:|---:|---:|---:|---:|");

    let hwm_start = vm_hwm_bytes();
    let mut done = 0u64;
    for checkpoint in [
        10_000,
        100_000,
        400_000,
        530_000,
        800_000,
        capacity,
        3 * capacity,
    ] {
        let start = Instant::now();
        for i in done..checkpoint {
            let now = i / INSERTS_PER_MS;
            assert!(guard.check_and_insert(&seed(i), now + TTL_MS, now));
        }
        let ns = start.elapsed().as_nanos() as f64 / (checkpoint - done) as f64;
        done = checkpoint;
        let len = guard.len() as f64;
        let hwm = match (hwm_start, vm_hwm_bytes()) {
            (Some(a), Some(b)) => format!("{:.1}", (b - a) as f64 / len),
            _ => "n/a".into(),
        };
        let heap = guard.heap_bytes() as f64 / len;
        println!("| {checkpoint} | {len} | {heap:.1} | {hwm} | {ns:.0} |");
    }

    let per_slot = guard.heap_bytes() as f64 / capacity as f64;
    println!(
        "\nsaturated: {per_slot:.2} heap bytes per slot of capacity (limit {MAX_BYTES_PER_SLOT}), {} live evictions",
        guard.live_evictions()
    );
    if per_slot > MAX_BYTES_PER_SLOT {
        eprintln!("replay guard footprint above {MAX_BYTES_PER_SLOT} B per slot");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
