//! `xtalk` — command-line front end to the crosstalk-mitigation toolchain.
//!
//! ```text
//! xtalk devices
//! xtalk characterize --device poughkeepsie [--policy all|onehop|binpacked] [--seqs N] [--shots N]
//! xtalk schedule <input.qasm> --device poughkeepsie [--scheduler xtalk|par|serial] [--omega W] [-o out.qasm]
//! xtalk run <input.qasm> --device poughkeepsie [--scheduler ...] [--shots N]
//! xtalk compare <input.qasm> --device poughkeepsie [--shots N]
//! xtalk swap-demo --device poughkeepsie --from 0 --to 13
//! ```
//!
//! Circuits are read and written as OpenQASM 2.0. Every verb drives the
//! typed pass pipeline ([`Compiler`]): non-hardware-compliant inputs are
//! lowered, placed and routed (greedy layout + shortest path SWAP
//! insertion) before scheduling, and intermediate artifacts are
//! content-addressed so `compare` shares the lower/place/route prefix
//! across its three schedulers.

use crosstalk_mitigation::charac::policy::TimeModel;
use crosstalk_mitigation::charac::{characterize, CharacterizationPolicy, PolicyName, RbConfig};
use crosstalk_mitigation::budget::Budget;
use crosstalk_mitigation::core::{
    scheduler_by_name, Compiler, ParSched, Scheduler, SchedulerContext, SerialSched, XtalkSched,
};
use crosstalk_mitigation::device::Device;
use crosstalk_mitigation::ir::{qasm, Circuit};
use crosstalk_mitigation::obs;
use crosstalk_mitigation::fault;
use crosstalk_mitigation::serve::{Client, Json, RetryPolicy, ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "devices" => cmd_devices(),
        "characterize" => cmd_characterize(rest),
        "schedule" => cmd_schedule(rest),
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "swap-demo" => cmd_swap_demo(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "cancel" => cmd_cancel(rest),
        "profile" => cmd_profile(rest),
        "profile-check" => cmd_profile_check(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
xtalk — crosstalk characterization and adaptive scheduling (ASPLOS'20 reproduction)

USAGE:
    xtalk devices
    xtalk characterize --device <name> [--policy all|onehop|binpacked] [--seqs N] [--shots N] [--seed N]
    xtalk schedule <input.qasm> --device <name> [--scheduler xtalk|par|serial] [--omega W] [-o <out.qasm>]
    xtalk run <input.qasm> --device <name> [--scheduler xtalk|par|serial] [--omega W] [--shots N] [--seed N] [--threads N] [--budget-ms N] [--profile]
    xtalk compare <input.qasm> --device <name> [--omega W] [--shots N] [--seed N] [--profile]
    xtalk swap-demo --device <name> --from A --to B [--shots N]
    xtalk serve [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N] [--device-seed N] [--profile]
                [--stale-ttl N] [--faults SPEC] [--fault-seed N]
    xtalk profile <fig5|charac> [--shots N] [--seed N] [--threads N] [--text]
    xtalk profile-check <snapshot.json>
    xtalk submit <type> [input.qasm] [--addr HOST:PORT] [--device <name>] [--scheduler S] [--policy P]
                 [--shots N] [--seed N] [--threads N] [--omega W] [--from A --to B] [--ms N]
                 [--budget-ms N] [--job LABEL] [--deadline-ms N] [--retries N] [--retry-seed N]
    xtalk cancel <job-label> [--addr HOST:PORT] [--deadline-ms N]

SUBMIT TYPES: ping, stats, shutdown, advance_day, sleep, characterize, schedule, run, swap_demo
BUDGETS: --budget-ms is the server-side end-to-end deadline (queue wait included), capped at
    the server's --timeout-ms, which is also the deadline of a job submitted without one; an
    expired job returns `ok` with `budget_exhausted: true` plus exact progress (shots_completed, ...).
    --job labels the submission so `xtalk cancel <label>` can stop it mid-flight.
    --deadline-ms bounds this CLI's own connect/read/write I/O, independent of the budget.
DEVICES: poughkeepsie, johannesburg, boeblingen (20-qubit IBMQ models)
FAULT SPECS: comma-separated `point:action:prob[:ms]` with action panic|err|delay, e.g.
    --faults \"pool.job:panic:0.01,codec.read:err:0.05\" (or env XTALK_FAULTS / XTALK_FAULT_SEED);
    points: codec.read codec.write pool.spawn pool.job cache.lookup charac.run sim.batch";

/// Minimal flag parser: `--key value` pairs plus positional arguments.
/// Flags listed in [`BOOL_FLAGS`] take no value.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
}

/// Flags that are switches rather than `--key value` pairs.
const BOOL_FLAGS: &[&str] = &["profile", "text"];

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    pairs.push((key.to_string(), "true".to_string()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                pairs.push((key.to_string(), value.clone()));
            } else if a == "-o" {
                let value = it.next().ok_or("-o needs a path")?;
                pairs.push(("out".to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { positional, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }
}

fn device_from(flags: &Flags) -> Result<Device, String> {
    let seed = flags.get_parse("seed", 7u64)?;
    match flags.get("device").unwrap_or("poughkeepsie") {
        "poughkeepsie" => Ok(Device::poughkeepsie(seed)),
        "johannesburg" => Ok(Device::johannesburg(seed)),
        "boeblingen" => Ok(Device::boeblingen(seed)),
        other => Err(format!("unknown device `{other}` (try `xtalk devices`)")),
    }
}

fn scheduler_from(flags: &Flags) -> Result<Box<dyn Scheduler>, String> {
    scheduler_by_name(flags.get("scheduler").unwrap_or("xtalk"), flags.get_parse("omega", 0.5f64)?)
}

fn cmd_devices() -> Result<(), String> {
    for device in Device::all_ibmq(7) {
        println!("{device}");
        let high = device.crosstalk().high_unordered_pairs(3.0);
        println!("  high-crosstalk pairs (ground truth):");
        for (a, b) in high {
            println!(
                "    {a} | {b}  ({:.1}x / {:.1}x)",
                device.crosstalk().factor(a, b),
                device.crosstalk().factor(b, a)
            );
        }
    }
    Ok(())
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let device = device_from(&flags)?;
    let config = RbConfig {
        seqs_per_length: flags.get_parse("seqs", 5usize)?,
        shots: flags.get_parse("shots", 192u64)?,
        seed: flags.get_parse("seed", 7u64)?,
        ..Default::default()
    };
    // `truth` names the device model's own tables: nothing to measure.
    let policy = flags
        .get("policy")
        .map_or(Ok(PolicyName::BinPacked), PolicyName::parse)?
        .measured()
        .ok_or("unknown policy `truth` (characterize runs all|onehop|binpacked)")?;
    println!("characterizing {} with policy `{}`…", device.name(), policy.name());
    let (charac, report) = characterize(&device, &policy, &config, &TimeModel::default());
    println!(
        "{} experiments over {} pairs ({} executions; {:.2} h at this scale)",
        report.num_experiments, report.num_pairs, report.executions, report.machine_time_hours
    );
    println!("detected high-crosstalk pairs (>3x):");
    for (a, b) in charac.high_pairs(3.0) {
        let ia = charac.independent(a);
        let cab = charac.conditional(a, b).unwrap_or(ia);
        println!("  {a} | {b}: E({a})={ia:.4}, E({a}|{b})={cab:.4}");
    }
    Ok(())
}

/// Reads a QASM file and runs the scheduler-independent pass prefix
/// (lower → place → route) through `compiler`, reporting any routing
/// that was needed.
fn load_and_prepare(path: &str, compiler: &Compiler<'_>) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let circuit = qasm::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let routed = compiler.prepare(&circuit).map_err(|e| e.to_string())?;
    if routed.swaps_inserted > 0 {
        println!(
            "(routed: {} SWAPs inserted, layout {:?})",
            routed.swaps_inserted,
            routed.initial_layout.mapping()
        );
    }
    Ok(routed.circuit.clone())
}

fn cmd_schedule(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags.positional.first().ok_or("schedule needs an input .qasm file")?;
    let device = device_from(&flags)?;
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx);
    let circuit = load_and_prepare(path, &compiler)?;
    let scheduler = scheduler_from(&flags)?;

    let artifact = compiler.schedule(&circuit, scheduler.as_ref()).map_err(|e| e.to_string())?;
    println!("{}", artifact.sched);
    if let Some(report) = &artifact.report {
        println!(
            "candidates: {}, serializations: {:?}, objective {:.4}",
            report.candidate_pairs, report.serializations, report.cost
        );
    }
    if let Some(out) = flags.get("out") {
        let realized = compiler.realize_export(&artifact).map_err(|e| e.to_string())?;
        std::fs::write(out, qasm::dump(&realized.circuit)).map_err(|e| e.to_string())?;
        println!("wrote barriered executable to {out}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if flags.has("profile") {
        obs::set_enabled(true);
    }
    let path = flags.positional.first().ok_or("run needs an input .qasm file")?;
    let device = device_from(&flags)?;
    let ctx = SchedulerContext::from_ground_truth(&device);
    let scheduler = scheduler_from(&flags)?;
    let shots = flags.get_parse("shots", 2048u64)?;
    let seed = flags.get_parse("seed", 7u64)?;
    let threads = flags.get_parse("threads", 0usize)?;
    let budget = match flags.get("budget-ms") {
        Some(_) => {
            let ms: u64 = flags.get_parse("budget-ms", 0u64)?;
            Budget::with_deadline(Duration::from_millis(ms))
        }
        None => Budget::unlimited(),
    };
    // One compiler under the budget. Preparation ignores it, so a dead
    // deadline still yields a valid circuit; the budget spans scheduling
    // *and* simulation: an exhausted search falls back to a
    // ParSched-equivalent schedule, an exhausted executor stops at a
    // claim boundary with exact shots_completed provenance.
    let compiler = Compiler::new(&device, ctx).with_budget(budget.clone());
    let circuit = load_and_prepare(path, &compiler)?;
    let artifact = compiler.schedule(&circuit, scheduler.as_ref()).map_err(|e| e.to_string())?;
    let search_truncated = artifact.report.as_ref().is_some_and(|r| !r.complete);
    if let Some(report) = artifact.report.as_ref().filter(|r| !r.complete) {
        println!(
            "(search truncated by budget after {} leaves{})",
            report.leaves,
            if report.fallback { "; using crosstalk-unaware fallback" } else { "" }
        );
    }
    let sched = &artifact.sched;
    let outcome = compiler.run(sched, shots, seed, threads).map_err(|e| e.to_string())?;
    let counts = &outcome.counts;
    println!(
        "{} | scheduler {} | makespan {} ns | {}/{} shots",
        device.name(),
        scheduler.name(),
        sched.makespan(),
        outcome.shots_completed,
        outcome.shots_requested
    );
    if !outcome.complete || search_truncated {
        let reason = budget
            .exhausted()
            .map(|r| r.as_str())
            .unwrap_or("deadline");
        println!("(budget exhausted: {reason}; counts cover the completed prefix of shots)");
    }
    let completed = outcome.shots_completed.max(1);
    let mut entries: Vec<(u64, u64)> = counts.iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (outcome, count) in entries.into_iter().take(16) {
        println!(
            "  {outcome:0width$b}: {count} ({:.3})",
            count as f64 / completed as f64,
            width = counts.num_bits()
        );
    }
    if flags.has("profile") {
        print!("{}", obs::snapshot().to_text());
    }
    Ok(())
}

fn cmd_swap_demo(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let device = device_from(&flags)?;
    let ctx = SchedulerContext::from_ground_truth(&device);
    let from = flags.get_parse("from", 0u32)?;
    let to = flags.get_parse("to", 13u32)?;
    let shots = flags.get_parse("shots", 512u64)?;
    println!("SWAP benchmark {from} <-> {to} on {}", device.name());
    println!("{:<14} {:>12} {:>14}", "scheduler", "error rate", "duration (ns)");
    let compiler = Compiler::new(&device, ctx);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(SerialSched::new()),
        Box::new(ParSched::new()),
        Box::new(XtalkSched::new(0.5)),
    ];
    for s in &schedulers {
        let out = compiler
            .swap_bell_error(s.as_ref(), from, to, shots, 42, 1)
            .map_err(|e| e.to_string())?;
        println!("{:<14} {:>12.4} {:>14}", s.name(), out.error_rate, out.duration_ns);
    }
    Ok(())
}

/// Compiles one circuit with all three scheduling policies through a
/// *single* compiler, so the lower/place/route prefix is computed once
/// and served from the artifact cache for the second and third policies.
/// Reports per-policy makespan, search cost and a mitigated
/// cross-entropy error against the noise-free ideal, then the cache's
/// hit/miss counters proving the prefix was shared.
fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if flags.has("profile") {
        obs::set_enabled(true);
    }
    let path = flags.positional.first().ok_or("compare needs an input .qasm file")?;
    let device = device_from(&flags)?;
    let ctx = SchedulerContext::from_ground_truth(&device);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(SerialSched::new()),
        Box::new(ParSched::new()),
        scheduler_by_name("xtalk", flags.get_parse("omega", 0.5f64)?)?,
    ];
    let shots = flags.get_parse("shots", 1024u64)?;
    let seed = flags.get_parse("seed", 7u64)?;

    let compiler = Compiler::new(&device, ctx);
    let circuit = load_and_prepare(path, &compiler)?;
    println!("comparing schedulers on {} ({shots} shots, seed {seed})", device.name());
    println!(
        "{:<14} {:>13} {:>12} {:>12}",
        "scheduler", "makespan (ns)", "search cost", "xent error"
    );
    for s in &schedulers {
        let artifact = compiler.schedule(&circuit, s.as_ref()).map_err(|e| e.to_string())?;
        let xent = compiler
            .qaoa_cross_entropy(s.as_ref(), &circuit, shots, seed)
            .map_err(|e| e.to_string())?;
        let cost = artifact
            .report
            .as_ref()
            .map_or_else(|| "-".to_string(), |r| format!("{:.4}", r.cost));
        println!(
            "{:<14} {:>13} {:>12} {:>12.4}",
            s.name(),
            artifact.sched.makespan(),
            cost,
            xent
        );
    }
    let cache = compiler.cache();
    println!(
        "artifact cache: {} hits, {} misses, {} artifacts (lower/place/route shared across schedulers)",
        cache.hits(),
        cache.misses(),
        cache.len()
    );
    if flags.has("profile") {
        print!("{}", obs::snapshot().to_text());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let mut config = ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.to_string();
    }
    config.workers = flags.get_parse("workers", config.workers)?;
    config.queue_cap = flags.get_parse("queue", config.queue_cap)?;
    let timeout_ms: u64 = flags.get_parse("timeout-ms", config.job_timeout.as_millis() as u64)?;
    config.job_timeout = Duration::from_millis(timeout_ms.max(1));
    config.device_seed = flags.get_parse("device-seed", config.device_seed)?;
    config.profile = flags.has("profile");
    config.stale_ttl_epochs = flags.get_parse("stale-ttl", config.stale_ttl_epochs)?;

    // Fault injection: an explicit --faults wins over the environment.
    if let Some(spec) = flags.get("faults") {
        let seed = flags.get_parse("fault-seed", 0u64)?;
        fault::install_spec(spec, seed).map_err(|e| format!("--faults: {e}"))?;
    } else {
        fault::install_from_env().map_err(|e| format!("XTALK_FAULTS: {e}"))?;
    }
    if let Some(plan) = fault::active() {
        println!("fault injection active: {plan}");
    }

    let workers = config.effective_workers();
    let server = Server::start(config).map_err(|e| format!("cannot bind: {e}"))?;
    println!(
        "xtalk serve listening on {} ({} workers); stop with `xtalk submit shutdown --addr {}`",
        server.local_addr(),
        workers,
        server.local_addr()
    );
    // Runs until a client sends `{"type":"shutdown"}`.
    let summary = server.join();
    println!("{summary}");
    Ok(())
}

/// Runs a fixed profiling workload with the obs layer enabled and emits
/// the snapshot as JSON (or a text table with `--text`). The `fig5`
/// bench exercises every pipeline stage: characterization (per-bin SRB
/// cost), layout + routing, crosstalk-adaptive scheduling, and the
/// parallel simulator — so the export carries per-stage spans suitable
/// for `BENCH_*.json` trajectories.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let bench = flags.positional.first().map(String::as_str).unwrap_or("fig5");
    let seed = flags.get_parse("seed", 7u64)?;
    let shots = flags.get_parse("shots", 256u64)?;
    let threads = flags.get_parse("threads", 2usize)?;

    obs::set_enabled(true);
    obs::reset();
    match bench {
        "fig5" => {
            let device = Device::poughkeepsie(seed);
            let ctx = SchedulerContext::from_ground_truth(&device);

            // Characterization cost on a small planted-crosstalk line,
            // keeping the bench fast while exercising every bin kind.
            let charac_device = Device::line(6, seed.wrapping_add(2));
            let rb = RbConfig {
                lengths: vec![2, 8, 16],
                seqs_per_length: 2,
                shots: 64,
                seed,
            };
            let _ = characterize(
                &charac_device,
                &CharacterizationPolicy::OneHopBinPacked { k_hops: 2 },
                &rb,
                &TimeModel::default(),
            );

            // Compile a hot-region GHZ through the pass pipeline (lower →
            // place → route → schedule), then simulate in parallel. Every
            // stage shows up both as its own span (layout, routing,
            // sched.*) and as a managed `pass.<id>` span with
            // `pass.cache.hit`/`miss` counters.
            let compiler = Compiler::new(&device, ctx);
            let circuit = crosstalk_mitigation::core::bench_circuits::ghz(
                20,
                &[5, 10, 11, 12, 15],
            );
            let routed = compiler.prepare(&circuit).map_err(|e| e.to_string())?;
            let artifact = compiler
                .schedule(&routed.circuit, &XtalkSched::new(0.5))
                .map_err(|e| e.to_string())?;
            let _ = compiler
                .run(&artifact.sched, shots, seed, threads)
                .map_err(|e| e.to_string())?;

            // The full Figure-5 style metric across the 11x hot spot.
            let _ = compiler
                .swap_bell_error(&XtalkSched::new(0.5), 0, 13, shots.min(128), seed, threads)
                .map_err(|e| e.to_string())?;
        }
        "charac" => {
            let device = Device::poughkeepsie(seed);
            let rb = RbConfig {
                seqs_per_length: 2,
                shots: shots.clamp(16, 128),
                seed,
                ..Default::default()
            };
            let _ = characterize(
                &device,
                &CharacterizationPolicy::OneHopBinPacked { k_hops: 2 },
                &rb,
                &TimeModel::default(),
            );
        }
        other => return Err(format!("unknown profile bench `{other}` (try fig5, charac)")),
    }
    let snap = obs::snapshot();
    if flags.has("text") {
        print!("{}", snap.to_text());
    } else {
        println!("{}", snap.to_json());
    }
    Ok(())
}

/// Validates a `xtalk profile` JSON export: it must parse with the
/// server's own JSON codec and carry spans for every pipeline stage.
/// Used by CI as a smoke check.
fn cmd_profile_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("profile-check needs a JSON file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(text.trim()).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    if json.get("enabled").and_then(Json::as_bool) != Some(true) {
        return Err("profile snapshot was taken with profiling disabled".to_string());
    }
    let spans = json
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing `spans` array")?;
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    // `sim.run` matches both `sim.run_parallel` and `sim.run_budgeted`,
    // so budget-aware profiles validate with the same check. `pass.`
    // asserts the workload went through the managed pass pipeline.
    for required in ["layout", "routing", "sched.", "realize", "sim.run", "charac.", "pass."] {
        if !names.iter().any(|n| n.contains(required)) {
            return Err(format!("no span matching `{required}` in {names:?}"));
        }
    }
    let counters = json
        .get("counters")
        .and_then(Json::as_arr)
        .ok_or("missing `counters` array")?;
    if counters.is_empty() {
        return Err("no counters recorded".to_string());
    }
    // The shared-trajectory executor's sharing counters: it can never
    // make more state updates than a per-shot interpreter would have.
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|c| c.get("value").and_then(Json::as_u64))
            .ok_or_else(|| format!("no `{name}` counter"))
    };
    let (lane_steps, group_steps) = (counter("sim.lane_steps")?, counter("sim.group_steps")?);
    if group_steps > lane_steps {
        return Err(format!(
            "sim.group_steps = {group_steps} exceeds sim.lane_steps = {lane_steps}"
        ));
    }
    // XtalkSched's nodes open no span of their own: a search must report
    // its size, and every leaf is a node.
    if names.iter().any(|n| n.split('/').any(|part| part == "sched.xtalk")) {
        let (nodes, leaves) = (counter("sched.xtalk.nodes")?, counter("sched.xtalk.leaves")?);
        if nodes < leaves {
            return Err(format!(
                "sched.xtalk.nodes = {nodes} is below sched.xtalk.leaves = {leaves}"
            ));
        }
    }
    println!("profile ok: {} spans, {} counters", names.len(), counters.len());
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let kind = flags
        .positional
        .first()
        .map(String::as_str)
        .ok_or("submit needs a request type (e.g. `xtalk submit run circuit.qasm`)")?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");

    let mut fields: Vec<(&str, Json)> = vec![("type", kind.into())];
    if let Some(path) = flags.positional.get(1) {
        let qasm = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        fields.push(("qasm", qasm.into()));
    }
    // Forward every recognised option verbatim; the server applies its
    // own defaults for anything omitted.
    for key in ["device", "scheduler", "policy"] {
        if let Some(v) = flags.get(key) {
            fields.push((key, v.into()));
        }
    }
    for key in ["shots", "seed", "threads", "seqs", "from", "to", "ms"] {
        if let Some(v) = flags.get(key) {
            let n: u64 = v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`"))?;
            fields.push((key, n.into()));
        }
    }
    if let Some(v) = flags.get("omega") {
        let w: f64 = v.parse().map_err(|_| format!("--omega: cannot parse `{v}`"))?;
        fields.push(("omega", w.into()));
    }
    // Server-side budget: the wire field is `deadline_ms` (pinned at
    // arrival, so queue wait counts against it); `job` labels the
    // submission for `xtalk cancel`.
    if let Some(v) = flags.get("budget-ms") {
        let n: u64 = v.parse().map_err(|_| format!("--budget-ms: cannot parse `{v}`"))?;
        fields.push(("deadline_ms", n.into()));
    }
    if let Some(v) = flags.get("job") {
        fields.push(("job", v.into()));
    }
    let request = Json::Obj(
        fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    );

    // The deadline bounds the connect and both socket directions, so a
    // stalled server can never hang the CLI; retries ride the client's
    // seeded decorrelated-jitter backoff.
    let deadline = Duration::from_millis(flags.get_parse("deadline-ms", 120_000u64)?.max(1));
    let policy = RetryPolicy {
        max_attempts: flags.get_parse("retries", 5u32)?.max(1),
        seed: flags.get_parse("retry-seed", 0u64)?,
        ..RetryPolicy::default()
    };
    let mut client =
        Client::connect_with_deadline(addr, deadline).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client
        .request_with_retry(&request, &policy)
        .map_err(|e| format!("request failed: {e}"))?;
    println!("{}", response.dump());
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed")
            .to_string())
    }
}

/// Cancels an in-flight (or still-queued) job by its `--job` label. The
/// job's worker observes the tripped token at its next checkpoint and
/// answers the original submitter with a flagged partial result.
fn cmd_cancel(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let label = flags
        .positional
        .first()
        .ok_or("cancel needs a job label (the submit's --job value)")?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let deadline = Duration::from_millis(flags.get_parse("deadline-ms", 10_000u64)?.max(1));
    let mut client =
        Client::connect_with_deadline(addr, deadline).map_err(|e| format!("connect {addr}: {e}"))?;
    let cancelled = client.cancel(label).map_err(|e| format!("cancel failed: {e}"))?;
    if cancelled {
        println!("cancelled job `{label}`");
        Ok(())
    } else {
        Err(format!("no in-flight job labelled `{label}`"))
    }
}
