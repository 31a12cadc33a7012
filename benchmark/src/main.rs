//! Wire-to-wire benchmark: one loadgen thread drives a real `PowServer`
//! over loopback TCP, checks every reply, and prints every metric by
//! name with its unit. See `README.md` beside this package.
//!
//! ```text
//! aipow-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON result on the last line
//! aipow-benchmark run    --seed <n> [--workload <name>] [--seconds <s>] [--smoke]
//! aipow-benchmark trace  --seed <n> [--workload <name>] [--seconds <s>]
//! aipow-benchmark repeat --sets <k> --runs <r> [--seed <n>] [--seconds <s>]
//! aipow-benchmark manifest                                                    prints BENCHMARK.json
//! ```
#![deny(unsafe_code)]

mod alloc;
mod bind;
mod closed;
mod deploy;
mod loadgen;
mod pin;
mod probe;
mod proc;
mod runner;
mod schedule;
mod spec;
mod stats;
mod trust_mix;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::Report;
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Window of the traced run, per workload (half untraced reference, half
/// traced).
const TRACE_SECONDS: u64 = 8;
/// Window of `run --smoke`.
const SMOKE_SECONDS: u64 = 2;

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 3,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = Workload::ALL.map(Workload::name).join(", ");
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or(format!("unknown workload {name}; one of {known}"))?,
                );
            }
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = Some(number(value("a number")?)?.max(1)),
            "--trace" => args.trace = number(value("0 or 1")?)? != 0,
            "--sets" => args.sets = number(value("a number")?)? as usize,
            "--runs" => args.runs = number(value("a number")?)? as usize,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", workload.name()))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

fn print_report(report: &Report) {
    println!(
        "## {} (seed {}, loopback, 1 loadgen thread, 1 reactor shard, {} cpus)",
        report.workload.name(),
        report.seed,
        deploy::cores().len()
    );
    for (name, value) in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{name:<46} {value:>16.4} {}", unit_of(name));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
}

/// The driver's result line: exactly the end-to-end metrics (untraced) or
/// exactly the per-layer metrics (traced), each with its unit.
fn result_json(report: &Report, traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    if traced {
        for m in &PER_LAYER {
            // A metric that does not apply to the workload reads 0.
            let value = report.value(m.name).unwrap_or(0.0);
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
    } else {
        for m in &END_TO_END {
            let value = report
                .value(m.name)
                .ok_or(format!("{} was not measured", m.name))?;
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn run_one(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let out = traced.then(|| trace_path(workload));
    let report = runner::run(workload, seed, seconds, traced, out.as_deref())
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    print_report(&report);
    Ok(report)
}

/// One driver-style run in a child process of this binary, so that each
/// run has its own `VmHWM`, allocator state and thread pinning, exactly as
/// when the driver makes it. The child's human output passes through;
/// its result line comes back parsed.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    parse_result(result).ok_or(format!(
        "{}: child run exited with {} and no result line",
        workload.name(),
        output.status
    ))
}

struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Reads back a line written by [`result_json`].
fn parse_result(line: &str) -> Option<ChildResult> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let mut metrics = Vec::new();
    for part in line
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = part[0].rsplit('"').next()?;
        let value = part[1].split(',').next()?.parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(ChildResult { correct, metrics })
}

/// `repeat`: `sets` sets of `runs` runs of every workload; per
/// end-to-end metric the set medians, their worst gap relative to the
/// first set, and the bound. Fails on any gap over its bound. The sets are
/// interleaved in time (run 1 of every set, then run 2, ...), so the
/// host's drift over the minutes a report takes falls on all sets alike
/// and the report reads the benchmark's repeatability, not the host's.
fn repeat(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut within = true;
    // values[set][workload][metric] = that set's runs
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; args.sets];
    for run in 0..args.runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (&workload, of_workload) in workloads.iter().zip(of_set) {
                let seed = args.seed + (set * args.runs + run) as u64;
                let result = run_child(workload, seed, seconds, false)?;
                within &= result.correct;
                for (m, runs) in END_TO_END.iter().zip(of_workload) {
                    let value = result.metrics.iter().find(|(name, _)| name == m.name);
                    runs.push(value.ok_or(format!("{} was not measured", m.name))?.1);
                }
            }
        }
    }
    println!(
        "## repeatability: {} sets x {} runs, {seconds} s windows",
        args.sets, args.runs
    );
    println!(
        "{:<20} {:<22} {:>10} {:>8}  set medians",
        "workload", "metric", "worst gap", "bound"
    );
    for (wi, workload) in workloads.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let sets: Vec<f64> = values.iter().map(|s| stats::median(&s[wi][mi])).collect();
            let first = sets[0];
            // A gap counts only in the direction that is worse.
            let gap = sets
                .iter()
                .map(|&later| {
                    if m.higher_is_better {
                        (first - later) / first
                    } else {
                        (later - first) / first
                    }
                })
                .fold(0.0, f64::max);
            let ok = gap <= m.bound;
            within &= ok;
            let shown: Vec<String> = sets.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<20} {:<22} {:>9.2}% {:>7.0}%  {}{}",
                workload.name(),
                m.name,
                gap * 100.0,
                m.bound * 100.0,
                shown.join("  "),
                if ok { "" } else { "  OVER BOUND" }
            );
        }
    }
    Ok(within)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    alloc::tag_current_thread_as_loadgen();
    match args.command.as_deref() {
        None => {
            let workload = args.workload.ok_or("--workload is required")?;
            let seconds = args.seconds.unwrap_or(RUN_SECONDS);
            let report = run_one(workload, args.seed, seconds, args.trace)?;
            println!("{}", result_json(&report, args.trace)?);
            Ok(report.correct)
        }
        Some("run") | Some("trace") => {
            let traced = args.command.as_deref() == Some("trace");
            let seconds = args.seconds.unwrap_or(match (traced, args.smoke) {
                (true, _) => TRACE_SECONDS,
                (false, true) => SMOKE_SECONDS,
                (false, false) => RUN_SECONDS,
            });
            println!(
                "# machine reference: crypto.sha256_ns_per_hash = {:.1} ns",
                probe::sha256_ns_per_hash()
            );
            let mut correct = true;
            for workload in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
                correct &= run_child(workload, args.seed, seconds, traced)?.correct;
            }
            Ok(correct)
        }
        Some("repeat") => repeat(&args),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some(other) => Err(format!(
            "unknown command {other}; one of run, trace, repeat, manifest"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("aipow-benchmark: the output oracle or a repeatability bound failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("aipow-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let report = Report {
            workload: Workload::PingFloor,
            seed: 1,
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, i as f64 + 0.5))
                .collect(),
            per_layer: vec![("net.reactor.busy_share", 0.25)],
            notes: Vec::new(),
        };
        let parsed = parse_result(&result_json(&report, false).unwrap()).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics[1], ("ops_per_s".to_string(), 1.5));

        let traced = parse_result(&result_json(&report, true).unwrap()).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_eq!(
            traced.metrics[0],
            ("net.reactor.busy_share".to_string(), 0.25)
        );
        assert_eq!(traced.metrics[1].1, 0.0);
        assert!(parse_result("error: no such thing").is_none());
    }
}
