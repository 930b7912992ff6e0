//! The repository benchmark: one command runs one named workload,
//! checks its outputs and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A failed correctness check still prints the result (with
//! `"correct": false`) and exits with code 1. Times in the end-to-end
//! metrics are scaled to a nominal host speed (see [`host`]).

mod charac_daily;
mod check;
mod compile_mix;
mod host;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Extra set-ups, each in a fresh process, whose times join the run's
/// own set-up time in the reported median (a process-wide lazy
/// initialization is only paid once per process). One set-up alone
/// spread by 0.38 over five seeds of serve_mixed on a loaded host.
const SETUP_PROCESSES: usize = 4;

const WORKLOADS: [&str; 3] = ["compile_mix", "charac_daily", "serve_mixed"];

const USAGE: &str = "usage: perfbench --workload <compile_mix|charac_daily|serve_mixed> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: set up once, print the set-up time, exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// A set-up workload, ready to run.
enum Workload {
    CompileMix(compile_mix::CompileMix),
    CharacDaily(charac_daily::CharacDaily),
    ServeMixed(serve_mixed::ServeMixed),
}

fn setup(name: &str, seed: u64, seconds: f64) -> Workload {
    match name {
        "compile_mix" => Workload::CompileMix(compile_mix::CompileMix::setup(seed)),
        "charac_daily" => Workload::CharacDaily(charac_daily::CharacDaily::setup(seed)),
        "serve_mixed" => Workload::ServeMixed(serve_mixed::ServeMixed::setup(seed, seconds)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Sets the workload up and returns it with its set-up time, scaled to
/// the nominal host by reference readings taken just after.
fn timed_setup(args: &Args) -> (Workload, f64) {
    let t = Instant::now();
    let workload = setup(&args.workload, args.seed, args.seconds);
    let seconds = t.elapsed().as_secs_f64();
    let mut readings = Vec::new();
    host::sample(&mut readings);
    (workload, seconds * host::scale(&readings))
}

/// Times `SETUP_PROCESSES` set-ups, each in a child process of this
/// binary, waiting for every child to end.
fn child_setup_times(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..SETUP_PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--setup-only"])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let t = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (out.status.success(), t) {
            (true, Some(t)) => times.push(t),
            _ => return Err(format!("set-up process failed: {}", out.status)),
        }
    }
    Ok(times)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let (workload, seconds) = timed_setup(&args);
        println!("setup_s {seconds:?}");
        drop(workload);
        return ExitCode::SUCCESS;
    }

    let mut setup_times = match child_setup_times(&args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (workload, seconds) = timed_setup(&args);
    setup_times.push(seconds);

    let mut report = Report::default();
    match &workload {
        Workload::CompileMix(w) => w.run(args.seconds, args.trace, &mut report),
        Workload::CharacDaily(w) => w.run(args.seconds, args.trace, &mut report),
        Workload::ServeMixed(w) => w.run(args.trace, &mut report),
    }
    drop(workload);

    let setup_s = stats::median(&setup_times);
    report.set("setup_s", setup_s);
    report.set(
        "ok_ratio",
        1.0 - stats::ratio(report.failed as f64, report.attempted as f64),
    );
    report.set("peak_rss_mb", stats::peak_rss_mb());

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "setup_s = {setup_s:.4} s (median of {} scaled set-ups: {:?} s)",
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "error_ratio = {:.6} ({} failed of {} attempted)",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    let exact: Vec<String> = report
        .exact
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("exact {}", exact.join(" "));
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        println!(
            "  {name} = {} {unit}",
            report.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", report.result_json(table));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
