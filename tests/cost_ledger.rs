//! Heap allocations per admission call, pinned exactly.
//!
//! Every row drives one framework entry point on fixed inputs (manual
//! clock, fixed key, fixed score, policy 1, one client address) after one
//! warm-up call of the same shape, and counts the heap allocations the
//! calling thread makes inside the call. The count is thread-local, so
//! tests running in parallel cannot disturb it, and it is the same in
//! debug and release builds. A row that rises is a new heap allocation
//! on the admission path; a row that falls should be lowered here in the
//! same change.
//!
#![allow(unsafe_code)]

use aipow::framework::{AdmissionDecision, Framework, FrameworkBuilder, FrameworkConfig};
use aipow::policy::LinearPolicy;
use aipow::pow::solver;
use aipow::pow::Solution;
use aipow::reputation::model::FixedScoreModel;
use aipow::reputation::{FeatureVector, ReputationScore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

struct Counting;

thread_local! {
    // `Some(n)` while the thread counts. Const-initialised and without a
    // destructor, so reading it from inside the allocator never
    // allocates or registers a dtor.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // A thread being torn down may have lost its TLS; it is not counting.
    let _ = ALLOCS.try_with(|allocs| {
        if let Some(n) = allocs.get() {
            allocs.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it touches
// only a const-initialised thread-local, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is the allocator doing new work; count it as one.
        count();
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations the calling thread makes inside `call`. What `call`
/// returns is dropped after counting stops.
fn allocs<T>(call: impl FnOnce() -> T) -> u64 {
    ALLOCS.with(|allocs| allocs.set(Some(0)));
    let out = call();
    let n = ALLOCS.with(|allocs| allocs.replace(None));
    drop(out);
    n.expect("counting was on for the call")
}

const BATCH: usize = 32;

fn client() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7))
}

/// Score 0 under policy 1: one-bit puzzles, so solving is free. A replay
/// guard this small has one shard, so when its ring and index grow
/// depends only on how many seeds it holds; with many shards it would
/// depend on which shard the keyed selector picks for each seed.
fn framework() -> Framework {
    let (builder, _clock) = FrameworkBuilder::new()
        .master_key([0x11u8; 32])
        .model(FixedScoreModel::new(ReputationScore::new(0.0).unwrap()))
        .policy(LinearPolicy::policy1())
        .config(FrameworkConfig {
            replay_capacity: 1_024,
            ..Default::default()
        })
        .manual_clock(1_000_000);
    builder.build().unwrap()
}

/// A fresh challenge for `client()`, solved.
fn solved(fw: &Framework) -> Solution {
    let AdmissionDecision::Challenge(issued) = fw.handle_request(client(), &FeatureVector::zeros())
    else {
        panic!("no bypass is configured");
    };
    solver::solve(&issued.challenge, client(), &Default::default())
        .unwrap()
        .solution
}

/// `n` solutions `fw` has already accepted once.
fn accepted(fw: &Framework, n: usize) -> Vec<Solution> {
    let solutions: Vec<Solution> = (0..n).map(|_| solved(fw)).collect();
    for solution in &solutions {
        fw.handle_solution(solution, client()).unwrap();
    }
    solutions
}

// Rows through the single entry points: the chain itself, with no
// batch buffers around it.

#[test]
fn request_single() {
    // Admission allocates nothing: the context is an array and the
    // telemetry pass builds no buffer while no sink is attached.
    let fw = framework();
    let features = FeatureVector::zeros();
    let _ = fw.handle_request(client(), &features);
    assert_eq!(allocs(|| fw.handle_request(client(), &features)), 0);
}

#[test]
fn accept_single() {
    // The verify stage's submission list and the outcome list
    // `verify_many` returns; the replay guard has room for the seed.
    let fw = framework();
    accepted(&fw, 1);
    let fresh = solved(&fw);
    assert_eq!(allocs(|| fw.handle_solution(&fresh, client())), 2);
}

#[test]
fn replay_single() {
    // The verify stage's submission list, the outcome list
    // `verify_many` returns, and the audit record's reason text.
    let fw = framework();
    let replayed = accepted(&fw, 1);
    let _ = fw.handle_solution(&replayed[0], client());
    assert_eq!(allocs(|| fw.handle_solution(&replayed[0], client())), 3);
}

// Rows through the batch entry points, which add the result `Vec` and
// the context `Vec` of each chunk.

#[test]
fn request_batch_1() {
    // The two batch `Vec`s, nothing more.
    let fw = framework();
    let features = FeatureVector::zeros();
    let requests = [(client(), &features)];
    let _ = fw.handle_request_batch(&requests);
    assert_eq!(allocs(|| fw.handle_request_batch(&requests)), 2);
}

#[test]
fn accept_batch_1() {
    // `accept_single` plus the two batch `Vec`s.
    let fw = framework();
    accepted(&fw, 1);
    let fresh = solved(&fw);
    let submissions = [(&fresh, client())];
    assert_eq!(allocs(|| fw.handle_solution_batch(&submissions)), 4);
}

#[test]
fn replay_batch_1() {
    // `replay_single` plus the two batch `Vec`s.
    let fw = framework();
    let replayed = accepted(&fw, 1);
    let submissions = [(&replayed[0], client())];
    let _ = fw.handle_solution_batch(&submissions);
    assert_eq!(allocs(|| fw.handle_solution_batch(&submissions)), 5);
}

#[test]
fn request_batch_32() {
    // Still the two batch `Vec`s: the telemetry pass records metrics and
    // audit events without a buffer, at any batch size.
    let fw = framework();
    let features = FeatureVector::zeros();
    let requests = vec![(client(), &features); BATCH];
    let _ = fw.handle_request_batch(&requests);
    assert_eq!(allocs(|| fw.handle_request_batch(&requests)), 2);
}

#[test]
fn replay_batch_32() {
    // The two batch `Vec`s, the verify stage's submission list, what
    // `verify_many` allocates to verify 32 submissions at once, and one
    // reason text per audit record. The telemetry pass adds nothing.
    let fw = framework();
    let replayed = accepted(&fw, BATCH);
    let submissions: Vec<(&Solution, IpAddr)> = replayed.iter().map(|s| (s, client())).collect();
    let _ = fw.handle_solution_batch(&submissions);
    assert_eq!(allocs(|| fw.handle_solution_batch(&submissions)), 63);
}

#[test]
fn accept_batch_32() {
    // The two batch `Vec`s, the verify stage's submission list, what
    // `verify_many` allocates to verify 32 submissions at once, the
    // grouped ledger charge, and the replay guard's ring and index
    // growing to hold 64 seeds. The telemetry pass adds nothing.
    let fw = framework();
    accepted(&fw, BATCH);
    let fresh: Vec<Solution> = (0..BATCH).map(|_| solved(&fw)).collect();
    let submissions: Vec<(&Solution, IpAddr)> = fresh.iter().map(|s| (s, client())).collect();
    assert_eq!(allocs(|| fw.handle_solution_batch(&submissions)), 35);
}
