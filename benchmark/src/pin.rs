//! CPU pinning: the reactor on one core, the loadgen on another. Left to
//! itself the scheduler sometimes stacks the two threads on one core
//! (a ping-pong pair looks wake-affine), where a round trip is a context
//! switch instead of a cross-core wake-up: a 5x swing in latency that
//! lasts for minutes and has nothing to do with the code under test.
#![allow(unsafe_code)]

use std::io;

/// Words in the affinity mask: room for 1 024 CPUs, the kernel's default
/// `CONFIG_NR_CPUS` ceiling on x86-64.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpus`.
pub fn pin_current_thread(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
