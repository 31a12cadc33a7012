//! What the kernel says about this process: on-CPU time per thread (from
//! `schedstat`, steadier than wall-clock on a shared box) and peak RSS.

use std::fs;
use std::io;

/// Name prefix of the server's reactor threads (`aipow-net` names them
/// `aipow-reactor-<shard>`; `comm` keeps the first 15 bytes).
const REACTOR_COMM: &str = "aipow-reactor";

fn schedstat_cpu_ns(tid: &str) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))?;
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "schedstat has no cpu field"))
}

/// Reads the on-CPU time of the reactor threads that were alive when it
/// was made: one small file per thread, cheap enough to read at every
/// slice boundary of a window.
pub struct ReactorCpu {
    tids: Vec<String>,
}

impl ReactorCpu {
    /// Finds the live reactor threads by `comm`. Threads of earlier,
    /// already joined servers are gone from `/proc` and not found.
    pub fn find() -> io::Result<ReactorCpu> {
        let mut tids = Vec::new();
        for entry in fs::read_dir("/proc/self/task")? {
            let Ok(tid) = entry?.file_name().into_string() else {
                continue;
            };
            // A thread can exit between the listing and the read.
            let Ok(comm) = fs::read_to_string(format!("/proc/self/task/{tid}/comm")) else {
                continue;
            };
            if comm.starts_with(REACTOR_COMM) {
                tids.push(tid);
            }
        }
        if tids.is_empty() {
            return Err(io::Error::other("no aipow-reactor thread is running"));
        }
        Ok(ReactorCpu { tids })
    }

    /// Nanoseconds the reactor threads have spent on a CPU so far.
    pub fn ns(&self) -> io::Result<u64> {
        self.tids.iter().map(|tid| schedstat_cpu_ns(tid)).sum()
    }
}

/// Nanoseconds the main thread (the loadgen) has spent on a CPU.
pub fn loadgen_cpu_ns() -> io::Result<u64> {
    schedstat_cpu_ns(&std::process::id().to_string())
}

/// Peak resident set size of the process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}
