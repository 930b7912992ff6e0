//! `serve_mixed`: an in-process `Server` on `127.0.0.1:0` with the
//! default worker count, driven by an open-loop load generator over two
//! connections. Arrivals are seeded Poisson; each request is timed from
//! when it was due, so a stall also charges the requests queued behind
//! it.
//!
//! Traffic: `run` (1 thread, 1024–4096 shots, XtalkSched or ParSched) and
//! `schedule` requests with policy `truth`, QASM from a seeded corpus
//! (Bernstein–Vazirani, hidden shift, GHZ, QAOA regions, SWAP paths)
//! across the three devices, with Zipf-repeated sources; a few `stats`
//! and `ping` requests; one `advance_day` every fixed number of
//! requests. Every request carries its own `seed`, which is also the
//! server's characterization-cache key, so that cache misses on nearly
//! every request; the benchmark reports this rather than working round it.
//!
//! Phases: the nominal rate (latency) in six segments of distinct
//! requests, each followed by two bursts in which both connections send
//! back to back (throughput), then a fixed ladder of higher rates (the
//! highest that meets the p99 limit without a growing backlog). Each
//! phase's times are scaled to the nominal host by reference readings
//! taken on every CPU just before and just after it (see [`host`]). The p50 is over
//! every nominal request, the p99 the median of the six segments' p99s,
//! and the capacity the median rate of twelve bursts that replay one
//! request mix.

use crate::host;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xtalk_core::bench_circuits::{bernstein_vazirani, ghz, hidden_shift, qaoa_ansatz};
use xtalk_core::routing::swap_benchmark;
use xtalk_device::Topology;
use xtalk_ir::{qasm, Circuit};
use xtalk_serve::json::obj;
use xtalk_serve::{Client, Json, ServeConfig, Server};

// The traffic mix is an assumption: the shares, the Zipf exponent, the
// sources per combination and the day length below are not measured from
// real traffic. They make `run` the bulk of the load, keep `stats` and
// `ping` a small share, repeat popular sources so the artifact cache has
// hits, and invalidate it several times per run.

/// Distinct QASM sources per (family, device) combination; requests
/// take the combinations in turn and a source within each by Zipf rank.
const SOURCES_PER_COMBO: usize = 4;
/// Zipf exponent of source popularity within a combination.
const ZIPF_S: f64 = 1.1;
/// Shares of the request types (the rest are `run`).
const STATS_SHARE: f64 = 0.02;
const PING_SHARE: f64 = 0.03;
const SCHEDULE_SHARE: f64 = 0.20;
/// Connections the generator sends on.
const CONNECTIONS: usize = 2;
/// Nominal arrival rate, requests per second: about a fifth of the two
/// connections' capacity, which measured about 240 req/s (scaled burst
/// rate, median over five seeds on a 2-vCPU host). Requests still wait
/// for a free connection at times, so latency rises with the server's
/// per-request cost before throughput does. At 80 req/s the connections
/// were busy half the nominal time, and that queueing amplified every
/// change in the host's speed: over five seeds the p50 spread 0.13 and
/// the p99 0.15, against 0.07 and 0.10 at 50 req/s.
const NOMINAL_RPS: f64 = 50.0;
/// Share of the run spent at the nominal rate, in segments that are each
/// followed by bursts.
const NOMINAL_SHARE: f64 = 0.7;
const SEGMENTS: usize = 6;
/// The rate ladder, as multiples of the nominal rate, and the share of
/// the run each rung lasts.
const LADDER: [f64; 4] = [1.5, 2.0, 2.5, 3.0];
const RUNG_SHARE: f64 = 0.025;
/// Requests in each burst, sent back to back over both connections, and
/// bursts after each nominal segment.
const BURST_REQUESTS: usize = 135;
const BURSTS_PER_SEGMENT: usize = 2;
/// The p99 latency a rung must meet.
const P99_LIMIT_MS: f64 = 250.0;
/// One `advance_day` after this many requests.
const DAY_EVERY: usize = 250;
/// Largest total-variation distance from the ideal distribution a
/// served `run` may show. Noise alone reaches about 0.37 on GHZ.
const MAX_TVD: f64 = 0.5;
/// Every outcome the ideal distribution gives at least this probability
/// must hold at least [`MIN_SHARE_OF_IDEAL`] of it. A two-outcome circuit
/// (GHZ, SWAP path) that collapses onto one outcome lies at distance 0.5
/// exactly, within [`MAX_TVD`]; this catches it.
const MAJOR_OUTCOME: f64 = 0.25;
const MIN_SHARE_OF_IDEAL: f64 = 0.25;

const DEVICES: [&str; 3] = ["poughkeepsie", "johannesburg", "boeblingen"];

const FAMILIES: [&str; 5] = ["bv", "hidden_shift", "ghz", "qaoa", "swap_path"];

/// The known answer of a source.
enum Expect {
    /// The noiseless output is one bitstring.
    Modal(u64),
    /// The noiseless output distribution over the classical register.
    Distribution(Vec<f64>),
}

struct Source {
    family: &'static str,
    device: &'static str,
    qasm: String,
    expect: Expect,
}

/// What a reply must satisfy.
#[derive(Clone, Copy)]
enum Check {
    Run { source: usize, shots: u64 },
    Schedule,
    Ping,
    Stats,
    AdvanceDay,
}

struct Planned {
    /// When the request is due, from the start of its phase.
    due: Duration,
    request: Json,
    check: Check,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Poisson arrivals at the nominal rate: the latency metrics.
    Nominal,
    /// Every request due at once: the throughput metric.
    Burst,
    /// Poisson arrivals at a ladder rate: `serve_max_rps`.
    Rung(f64),
}

struct Phase {
    name: String,
    kind: Kind,
    plan: Vec<Planned>,
}

/// One request's fate.
#[derive(Clone, Copy)]
struct Sample {
    latency_ms: f64,
    late_ms: f64,
    service_ms: f64,
    heavy: bool,
    outcome: Fate,
    /// Answer quality of a checked `run` reply, with its source.
    quality: Option<(usize, f64)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Ok,
    Failed,
    Refused,
}

/// The running server, its connections and the generated traffic.
pub struct ServeMixed {
    server: Option<Server>,
    clients: Vec<Mutex<Client>>,
    sources: Vec<Source>,
    phases: Vec<Phase>,
    seconds: f64,
}

impl ServeMixed {
    /// Generates the corpus and the arrival schedule for `seed` and
    /// `seconds`, starts the server, connects and warms it up.
    pub fn setup(seed: u64, seconds: f64) -> ServeMixed {
        let mut rng = Rng::new(seed, 4);
        let combos = FAMILIES.len() * DEVICES.len();
        let sources: Vec<Source> = (0..combos * SOURCES_PER_COMBO)
            .map(|i| source(i / SOURCES_PER_COMBO, &mut rng))
            .collect();
        let phases = plan(&sources, seconds, &mut rng);

        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::start(config).expect("server starts on an ephemeral port");
        let clients: Vec<Mutex<Client>> = (0..CONNECTIONS)
            .map(|_| Mutex::new(Client::connect(server.local_addr()).expect("connects")))
            .collect();
        // Warm-up outside the corpus, so the artifact cache starts cold
        // for every corpus source.
        let mut bell = Circuit::new(2, 2);
        bell.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let bell = qasm::dump(&bell);
        for (i, c) in clients.iter().enumerate() {
            let mut c = c.lock().expect("connection not yet shared");
            for scheduler in ["xtalk", "par"] {
                let warm = run_request(&bell, DEVICES[i % DEVICES.len()], scheduler, 256, i as u64);
                let resp = c.request(&warm).expect("warm-up reply");
                assert_eq!(
                    resp.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "warm-up failed"
                );
            }
        }
        ServeMixed {
            server: Some(server),
            clients,
            sources,
            phases,
            seconds,
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }

    /// Sends every phase's requests and reports latency, throughput and
    /// the per-layer view.
    pub fn run(&self, traced: bool, report: &mut Report) {
        let state = self.server().state().clone();
        let metrics = &state.metrics;
        let jobs_done = || {
            metrics.jobs_ok.load(Ordering::Relaxed) + metrics.jobs_failed.load(Ordering::Relaxed)
        };
        let (jobs_before, job_us_before) =
            (jobs_done(), metrics.job_micros.load(Ordering::Relaxed));
        let (requests_before, jobs_ok_before) = (
            metrics.requests.load(Ordering::Relaxed),
            metrics.jobs_ok.load(Ordering::Relaxed),
        );
        let (wait_n_before, wait_us_before) = (
            metrics.queue_wait_micros.count(),
            metrics.queue_wait_micros.sum(),
        );

        let mut rows: Vec<(&Phase, Vec<Sample>)> = Vec::new();
        let mut scales: Vec<f64> = Vec::new();
        let mut nominal: Vec<Sample> = Vec::new();
        // Scaled latencies of each nominal segment.
        let mut segments: Vec<Vec<f64>> = Vec::new();
        let mut untraced_p50 = 0.0;
        // Each burst's rate, unscaled and scaled.
        let mut burst_rps: Vec<f64> = Vec::new();
        let mut scaled_burst_rps: Vec<f64> = Vec::new();
        let mut max_rps = 0.0;
        let mut nominal_wall = 0.0;
        let mut before = Vec::new();
        host::sample_all_cpus(&mut before);
        for phase in &self.phases {
            // A traced run sends the first nominal segment and its bursts
            // untraced and traces the rest; the nominal p50s before and
            // after give the tracing overhead.
            if traced && !trace::enabled() && !nominal.is_empty() && phase.kind == Kind::Nominal {
                untraced_p50 =
                    stats::median(&nominal.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
                trace::set_enabled(true);
            }
            let t = Instant::now();
            let samples = self.send(&phase.plan, report);
            let wall = t.elapsed().as_secs_f64();
            let mut after = Vec::new();
            host::sample_all_cpus(&mut after);
            let scale = host::scale(&[before.as_slice(), after.as_slice()].concat());
            before = after;
            scales.push(scale);
            match phase.kind {
                Kind::Nominal => {
                    segments.push(samples.iter().map(|s| s.latency_ms * scale).collect());
                    nominal.extend(samples.iter().copied());
                    nominal_wall += wall;
                }
                Kind::Burst => {
                    burst_rps.push(samples.len() as f64 / wall);
                    scaled_burst_rps.push(samples.len() as f64 / (wall * scale));
                }
                Kind::Rung(rps) if meets_limit(&samples) => max_rps = f64::max(max_rps, rps),
                Kind::Rung(_) => {}
            }
            rows.push((phase, samples));
        }
        trace::set_enabled(false);
        let jobs = jobs_done() - jobs_before;
        let job_ms = stats::ratio(
            (metrics.job_micros.load(Ordering::Relaxed) - job_us_before) as f64,
            jobs as f64,
        ) / 1e3;
        let wait_ms = stats::ratio(
            (metrics.queue_wait_micros.sum() - wait_us_before) as f64,
            (metrics.queue_wait_micros.count() - wait_n_before) as f64,
        ) / 1e3;

        let latencies: Vec<f64> = nominal.iter().map(|s| s.latency_ms).collect();
        let late: Vec<f64> = nominal.iter().map(|s| s.late_ms).collect();
        let graded: Vec<(usize, f64)> = rows
            .iter()
            .flat_map(|(_, s)| s.iter().filter_map(|x| x.quality))
            .collect();
        let qualities: Vec<f64> = graded.iter().map(|&(_, q)| q).collect();
        let heavy_service: Vec<f64> = rows
            .iter()
            .flat_map(|(_, s)| s.iter())
            .filter(|s| s.heavy && s.outcome == Fate::Ok)
            .map(|s| s.service_ms)
            .collect();
        // The median over the segments' p99s, so one segment that other
        // tenants' load disturbed does not decide the run's tail; every
        // burst replays one mix, so the capacity is the median burst rate.
        let pooled: Vec<f64> = segments.concat();
        let p50 = stats::median(&pooled);
        let segment_p99: Vec<f64> = segments.iter().map(|s| stats::quantile(s, 0.99)).collect();
        let p99 = stats::median(&segment_p99);
        let capacity_rps = stats::median(&scaled_burst_rps);

        report.set("latency_p50_ms", p50);
        report.set("latency_p99_ms", p99);
        report.set("throughput_per_s", capacity_rps);
        report.set("quality", stats::mean(&qualities));

        report.line(format!(
            "serve_mixed: {} sources, {} connections, {} server workers, nominal {NOMINAL_RPS} req/s for {:.1} s",
            self.sources.len(),
            CONNECTIONS,
            state.config.effective_workers(),
            self.seconds * NOMINAL_SHARE
        ));
        let mix: Vec<String> = FAMILIES
            .iter()
            .map(|f| {
                format!(
                    "{f}={}",
                    self.sources.iter().filter(|s| s.family == *f).count()
                )
            })
            .collect();
        report.line(format!("  corpus: {}", mix.join(" ")));
        report.line(format!(
            "  {:<12} {:>8} {:>6} {:>6} {:>7} {:>8} {:>9} {:>9} {:>11} {:>6}",
            "phase",
            "rate",
            "sent",
            "ok",
            "failed",
            "refused",
            "p50_ms",
            "p99_ms",
            "late_p99_ms",
            "scale"
        ));
        let mut shots_sent = 0u64;
        for ((phase, samples), scale) in rows.iter().zip(&scales) {
            let count = |f: Fate| samples.iter().filter(|s| s.outcome == f).count();
            let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
            let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
            // Every burst request is due at once: only a burst's counts
            // and its throughput mean anything.
            let timing = match phase.kind {
                Kind::Nominal | Kind::Rung(_) => format!(
                    "{:>9.3} {:>9.3} {:>11.3}",
                    stats::median(&lat),
                    stats::quantile(&lat, 0.99),
                    stats::quantile(&late, 0.99)
                ),
                Kind::Burst => format!("{:>9} {:>9} {:>11}", "-", "-", "-"),
            };
            report.line(format!(
                "  {:<12} {:>8} {:>6} {:>6} {:>7} {:>8} {timing} {scale:>6.3}",
                phase.name,
                match phase.kind {
                    Kind::Nominal => format!("{NOMINAL_RPS:.0}"),
                    Kind::Burst => "max".to_string(),
                    Kind::Rung(rps) => format!("{rps:.0}"),
                },
                samples.len(),
                count(Fate::Ok),
                count(Fate::Failed),
                count(Fate::Refused),
            ));
            report.attempted += samples.len() as u64;
            report.failed += (count(Fate::Failed) + count(Fate::Refused)) as u64;
            shots_sent += phase
                .plan
                .iter()
                .map(|p| match p.check {
                    Check::Run { shots, .. } => shots,
                    _ => 0,
                })
                .sum::<u64>();
        }
        report.line(format!(
            "  serve_p50_ms = {p50:.4} ms over {} scaled latencies, serve_p99_ms = {p99:.4} ms = median of {} segments' p99 (pooled p99 {:.4} ms; all {} unscaled: p50 {:.4} ms, p99 {:.4} ms), serve_max_rps = {max_rps:.0} req/s (p99 <= {P99_LIMIT_MS} ms, no growing backlog)",
            pooled.len(),
            segments.len(),
            stats::quantile(&pooled, 0.99),
            latencies.len(),
            stats::median(&latencies),
            stats::quantile(&latencies, 0.99),
        ));
        let burst_list: Vec<String> = burst_rps.iter().map(|r| format!("{r:.1}")).collect();
        report.line(format!(
            "  capacity = {capacity_rps:.1} req/s (median scaled rate of {} bursts over {CONNECTIONS} connections; unscaled rates: {})",
            burst_rps.len(),
            burst_list.join(", ")
        ));
        let connection_busy_ms: f64 = nominal.iter().map(|s| s.service_ms).sum();
        report.line(format!(
            "  utilisation at nominal: {NOMINAL_RPS} req/s = {:.2} of the capacity; connections busy {:.2} of the nominal time",
            stats::ratio(NOMINAL_RPS, capacity_rps),
            stats::ratio(connection_busy_ms / 1e3, nominal_wall * CONNECTIONS as f64)
        ));
        let by_family: Vec<String> = FAMILIES
            .iter()
            .map(|f| {
                let q: Vec<f64> = graded
                    .iter()
                    .filter(|(k, _)| self.sources[*k].family == *f)
                    .map(|&(_, q)| q)
                    .collect();
                format!(
                    "{f} {:.3} (min {:.3})",
                    stats::mean(&q),
                    q.iter().copied().fold(1.0, f64::min)
                )
            })
            .collect();
        report.line(format!(
            "  answer quality = {:.4} over {} run replies: {}",
            stats::mean(&qualities),
            qualities.len(),
            by_family.join(", ")
        ));
        let planned: Vec<String> = self
            .phases
            .iter()
            .map(|p| p.plan.len().to_string())
            .collect();
        report.exact("requests_per_phase", planned.join(","));
        report.exact("sim.shots", shots_sent);
        // Counted by the server, independent of how the two connections
        // interleave (every request carries its own seed, so no reply
        // comes from the job cache).
        report.exact(
            "server.requests",
            metrics.requests.load(Ordering::Relaxed) - requests_before,
        );
        report.exact(
            "server.jobs_ok",
            metrics.jobs_ok.load(Ordering::Relaxed) - jobs_ok_before,
        );

        let artifacts = state.cache.artifacts();
        let (hits, misses) = (artifacts.hits(), artifacts.misses());
        let ch = metrics.cache_hits.load(Ordering::Relaxed);
        let cm = metrics.cache_misses.load(Ordering::Relaxed);
        report.set("pass.cache_hits", hits as f64);
        report.set("pass.cache_misses", misses as f64);
        report.set(
            "pass.cache_hit_ratio",
            stats::ratio(hits as f64, (hits + misses) as f64),
        );
        report.set("pass.cache_entries", artifacts.len() as f64);
        report.set(
            "serve.charac_cache_hit_ratio",
            stats::ratio(ch as f64, (ch + cm) as f64),
        );
        report.set("serve.charac_cache_entries", state.cache.len() as f64);
        report.set(
            "serve.busy_rejections",
            metrics.busy_rejections.load(Ordering::Relaxed) as f64,
        );
        report.set(
            "serve.rejected_admission",
            metrics.rejected_admission.load(Ordering::Relaxed) as f64,
        );
        report.set(
            "serve.queue_wait_ms_p90",
            metrics.queue_wait_micros.quantile(0.90) as f64 / 1e3,
        );
        report.set("serve.job_ms_mean", job_ms);
        report.set(
            "serve.wire_ms",
            stats::mean(&heavy_service) - job_ms - wait_ms,
        );
        report.set("loadgen.late_ms_p99", stats::quantile(&late, 0.99));
        report.set(
            "loadgen.sent",
            rows.iter().map(|(_, s)| s.len()).sum::<usize>() as f64,
        );
        report.set("sim.shots", shots_sent as f64);
        report.line(format!(
            "  charac cache: {ch} hits, {cm} misses, {} entries (each request's seed is its cache key)",
            state.cache.len()
        ));
        if traced {
            let spans = trace::take();
            let snap = xtalk_obs::snapshot();
            let prepare: Vec<_> = ["pass.lower", "pass.place", "pass.route"]
                .iter()
                .map(|p| trace::obs_totals(&snap, p, ""))
                .collect();
            let prepare_ns: u64 = prepare.iter().map(|t| t.total_ns).sum();
            let schedule = trace::obs_totals(&snap, "pass.schedule", "");
            let realize = trace::obs_totals(&snap, "realize", "");
            let sim = trace::obs_totals(&snap, "sim.run_budgeted", "");
            let sim_par = trace::obs_totals(&snap, "sim.run_parallel", "");
            let sim_ns = sim.total_ns + sim_par.total_ns;
            let sim_calls = sim.count + sim_par.count;
            report.set(
                "core.prepare_ms",
                stats::ratio(prepare_ns as f64, prepare[0].count as f64) / 1e6,
            );
            report.set("core.schedule_ms", schedule.mean_ms());
            report.set("sched.realize_calls", realize.count as f64);
            report.set("sched.realize_ms", realize.mean_ms());
            report.set(
                "sched.xtalk.leaves",
                snap.counter("sched.xtalk.leaves").unwrap_or(0) as f64,
            );
            report.set(
                "sched.xtalk.candidate_pairs",
                snap.counter("sched.xtalk.candidate_pairs").unwrap_or(0) as f64,
            );
            let searches = trace::obs_totals(&snap, "sched.xtalk", "").count as f64;
            let truncated = snap.counter("sched.xtalk.truncated").unwrap_or(0) as f64;
            report.set(
                "sched.xtalk.complete_ratio",
                stats::ratio(searches - truncated, searches),
            );
            report.set(
                "sim.run_ms",
                stats::ratio(sim_ns as f64, sim_calls as f64) / 1e6,
            );
            report.set(
                "sim.shots_per_s",
                stats::ratio(
                    snap.counter("sim.shots").unwrap_or(0) as f64,
                    sim_ns as f64 / 1e9,
                ),
            );
            let traced_p50 = stats::median(
                &rows
                    .iter()
                    .filter(|(p, _)| p.kind == Kind::Nominal)
                    .skip(1)
                    .flat_map(|(_, s)| s.iter().map(|x| x.latency_ms))
                    .collect::<Vec<_>>(),
            );
            report.set(
                "trace.overhead_pct",
                (traced_p50 / untraced_p50 - 1.0) * 100.0,
            );
            trace::finish("serve_mixed", &spans, &snap, report);
        }
    }

    /// Sends `plan` over the connections, each request no earlier than
    /// its due time; returns one sample per request, in plan order.
    fn send(&self, plan: &[Planned], report: &mut Report) -> Vec<Sample> {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Sample>>> =
            Mutex::new((0..plan.len()).map(|_| None).collect());
        let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let start = Instant::now() + Duration::from_millis(5);
        std::thread::scope(|scope| {
            for client in &self.clients {
                scope.spawn(|| {
                    let mut client = client
                        .lock()
                        .expect("no sender panicked holding its connection");
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = start + p.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let reply = {
                            let _s = trace::span("serve.request", i as u64);
                            client.request(&p.request)
                        };
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        let (outcome, quality) = match reply {
                            Ok(resp) => self.check(&resp, p.check, &failures),
                            Err(e) => {
                                failures
                                    .lock()
                                    .expect("failure list intact")
                                    .push(format!("transport: {e}"));
                                (Fate::Failed, None)
                            }
                        };
                        let sample = Sample {
                            latency_ms: ms(done - due.min(sent)),
                            late_ms: ms(sent.saturating_duration_since(due)),
                            service_ms: ms(done - sent),
                            heavy: matches!(p.check, Check::Run { .. } | Check::Schedule),
                            outcome,
                            quality,
                        };
                        results.lock().expect("result slots intact")[i] = Some(sample);
                    }
                });
            }
        });
        for f in failures.into_inner().expect("failure list intact") {
            report.fail(f);
        }
        results
            .into_inner()
            .expect("result slots intact")
            .into_iter()
            .map(|s| s.expect("every request sent"))
            .collect()
    }

    /// Classifies a reply and checks it against the known answer.
    /// Wrong output is a correctness failure; an error reply is a failed
    /// operation; `busy` and `rejected_admission` replies are refusals.
    fn check(
        &self,
        resp: &Json,
        check: Check,
        failures: &Mutex<Vec<String>>,
    ) -> (Fate, Option<(usize, f64)>) {
        let flag = |k: &str| resp.get(k).and_then(Json::as_bool).unwrap_or(false);
        if flag("busy") || flag("rejected_admission") {
            return (Fate::Refused, None);
        }
        if !flag("ok") {
            return (Fate::Failed, None);
        }
        let wrong = |msg: String| {
            failures.lock().expect("failure list intact").push(msg);
            (Fate::Ok, None)
        };
        match check {
            Check::Ping if !flag("pong") => wrong("ping without pong".to_string()),
            Check::Stats if resp.get("requests").and_then(Json::as_u64).is_none() => {
                wrong("stats without request count".to_string())
            }
            Check::AdvanceDay if resp.get("epoch").and_then(Json::as_u64).unwrap_or(0) == 0 => {
                wrong("advance_day did not advance the epoch".to_string())
            }
            Check::Schedule => match resp.get("makespan_ns").and_then(Json::as_u64) {
                Some(m) if m > 0 => (Fate::Ok, None),
                _ => wrong(format!(
                    "schedule reply without a makespan: {}",
                    resp.dump()
                )),
            },
            Check::Run { source, shots } => {
                let src = &self.sources[source];
                match run_quality(resp, shots, &src.expect) {
                    Ok(q) => (Fate::Ok, Some((source, q))),
                    Err(e) => wrong(format!("{} on {}: {e}", src.family, src.device)),
                }
            }
            _ => (Fate::Ok, None),
        }
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// A rung passes when its p99 meets the limit and the generator kept up
/// to the end (the last requests were sent on time).
fn meets_limit(samples: &[Sample]) -> bool {
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let tail = &samples[samples.len() - samples.len() / 10..];
    let late: Vec<f64> = tail.iter().map(|s| s.late_ms).collect();
    samples.iter().all(|s| s.outcome == Fate::Ok)
        && stats::quantile(&lat, 0.99) <= P99_LIMIT_MS
        && stats::median(&late) <= P99_LIMIT_MS
}

/// Checks a `run` reply against its source's known answer and returns
/// its quality: the share of shots on the answer (one-answer sources) or
/// one minus the total-variation distance from the ideal distribution.
fn run_quality(resp: &Json, shots: u64, expect: &Expect) -> Result<f64, String> {
    let got = resp.get("shots").and_then(Json::as_u64).unwrap_or(0);
    if got != shots {
        return Err(format!("{got} shots for {shots} requested"));
    }
    let Some(Json::Obj(counts)) = resp.get("counts") else {
        return Err("reply without counts".to_string());
    };
    let mut hist: Vec<(u64, u64)> = Vec::with_capacity(counts.len());
    for (bits, n) in counts {
        let outcome = u64::from_str_radix(bits, 2).map_err(|_| format!("bad outcome `{bits}`"))?;
        hist.push((outcome, n.as_u64().ok_or("bad count")?));
    }
    if hist.iter().map(|(_, n)| n).sum::<u64>() != shots {
        return Err("counts do not add up to the shots".to_string());
    }
    match expect {
        Expect::Modal(answer) => {
            let (modal, n) = hist
                .iter()
                .copied()
                .max_by_key(|&(o, n)| (n, std::cmp::Reverse(o)))
                .unwrap();
            if modal != *answer {
                return Err(format!("modal outcome {modal:b}, expected {answer:b}"));
            }
            Ok(n as f64 / shots as f64)
        }
        Expect::Distribution(ideal) => {
            let mut measured = vec![0.0; ideal.len()];
            for (o, n) in hist {
                let slot = measured
                    .get_mut(o as usize)
                    .ok_or(format!("outcome {o} out of range"))?;
                *slot = n as f64 / shots as f64;
            }
            let tvd = 0.5
                * ideal
                    .iter()
                    .zip(&measured)
                    .map(|(p, q)| (p - q).abs())
                    .sum::<f64>();
            if tvd > MAX_TVD {
                return Err(format!(
                    "total-variation distance {tvd:.3} from the ideal output"
                ));
            }
            for (o, (p, q)) in ideal.iter().zip(&measured).enumerate() {
                if *p >= MAJOR_OUTCOME && *q < MIN_SHARE_OF_IDEAL * p {
                    return Err(format!(
                        "outcome {o:b} holds {q:.3} of the shots, ideally {p:.3}"
                    ));
                }
            }
            Ok(1.0 - tvd)
        }
    }
}

/// One seeded corpus source of the `combo`-th (family, device)
/// combination, with its known answer.
fn source(combo: usize, rng: &mut Rng) -> Source {
    let region = |n: usize| (0..n as u32).collect::<Vec<u32>>();
    // Sizes are fixed per family; the seed draws the secrets, shifts,
    // angles and devices.
    let (family, circuit, modal) = match combo % FAMILIES.len() {
        0 => {
            let secret = rng.range(1, 7);
            (
                "bv",
                bernstein_vazirani(4, &region(4), secret),
                Some(secret),
            )
        }
        1 => {
            let shift = rng.range(0, 15);
            let redundant = rng.below(2) == 1;
            (
                "hidden_shift",
                hidden_shift(4, &region(4), shift as u8, redundant),
                Some(shift),
            )
        }
        2 => ("ghz", ghz(4, &region(4)), None),
        3 => ("qaoa", qaoa_ansatz(4, &region(4), rng.next_u64()), None),
        _ => {
            let bench = swap_benchmark(&Topology::line(5), 0, 4).expect("line is connected");
            let mut c = bench.circuit;
            c.measure(bench.bell_pair.0, 0u32)
                .measure(bench.bell_pair.1, 1u32);
            ("swap_path", c, None)
        }
    };
    let text = qasm::dump(&circuit);
    let parsed = qasm::parse(&text).expect("dumped QASM parses");
    let expect = match modal {
        Some(answer) => Expect::Modal(answer),
        None => Expect::Distribution(xtalk_sim::ideal::distribution(&parsed)),
    };
    Source {
        family,
        device: DEVICES[combo / FAMILIES.len()],
        qasm: text,
        expect,
    }
}

fn run_request(qasm: &str, device: &str, scheduler: &str, shots: u64, seed: u64) -> Json {
    obj([
        ("type", "run".into()),
        ("qasm", qasm.into()),
        ("device", device.into()),
        ("scheduler", scheduler.into()),
        ("omega", 0.5.into()),
        ("policy", "truth".into()),
        ("shots", shots.into()),
        ("seed", seed.into()),
        ("threads", 1u64.into()),
    ])
}

/// The arrival schedule of every phase, generated before timing.
fn plan(sources: &[Source], seconds: f64, rng: &mut Rng) -> Vec<Phase> {
    // Zipf popularity over the sources of one combination.
    let weights: Vec<f64> = (0..SOURCES_PER_COMBO)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    // Every burst draws the same sources, schedulers and shots (with fresh
    // seeds), so the bursts time equal work.
    let burst_draws = Rng::new(rng.next_u64(), 5);
    // The `step`-th request's type and shot count come from a
    // two-dimensional low-discrepancy (Kronecker) sequence with a seeded
    // offset, and its family/device combination cycles from a seeded
    // start, rather than from independent draws: any run of consecutive
    // requests (a burst, a segment) then holds the type shares, the shot
    // range and the combinations evenly, and the work per request differs
    // little between seeds. With independent draws, two seeds in each
    // batch of five to seven ran their bursts 10–25% faster than the rest,
    // and the same seeds again in the next batch.
    let combos = sources.len() / SOURCES_PER_COMBO;
    let offset = (rng.f64(), rng.f64(), rng.below(combos));
    let spread = |step: u64| {
        let u = (offset.0 + step as f64 * 0.618_033_988_749_895).fract();
        let v = (offset.1 + step as f64 * 0.414_213_562_373_095).fract();
        (u, 1024 + (v * 3073.0) as u64)
    };
    let mut counter = 0usize;
    let mut request = |rng: &mut Rng, step: u64| -> (Json, Check) {
        counter += 1;
        let seed = 1_000 + counter as u64;
        // Every request takes the same draws, whatever its type, so a
        // replayed burst stays aligned across `advance_day` requests.
        let (u, shots) = spread(step);
        let combo = (offset.2 + step as usize) % combos;
        let (x, pick) = (rng.f64(), rng.below(6));
        if counter.is_multiple_of(DAY_EVERY) {
            return (obj([("type", "advance_day".into())]), Check::AdvanceDay);
        }
        if u < STATS_SHARE {
            return (obj([("type", "stats".into())]), Check::Stats);
        }
        if u < STATS_SHARE + PING_SHARE {
            return (obj([("type", "ping".into())]), Check::Ping);
        }
        let rank = cdf
            .iter()
            .position(|&c| x < c)
            .unwrap_or(SOURCES_PER_COMBO - 1);
        let k = combo * SOURCES_PER_COMBO + rank;
        let src = &sources[k];
        if u < STATS_SHARE + PING_SHARE + SCHEDULE_SHARE {
            let scheduler = ["xtalk", "par", "serial"][pick % 3];
            let req = obj([
                ("type", "schedule".into()),
                ("qasm", src.qasm.as_str().into()),
                ("device", src.device.into()),
                ("scheduler", scheduler.into()),
                ("omega", 0.5.into()),
                ("policy", "truth".into()),
                ("seed", seed.into()),
            ]);
            return (req, Check::Schedule);
        }
        let scheduler = ["xtalk", "par"][pick % 2];
        (
            run_request(&src.qasm, src.device, scheduler, shots, seed),
            Check::Run { source: k, shots },
        )
    };

    // Bursts take steps 0.., the open-loop phases continue after them.
    let mut step = BURST_REQUESTS as u64;
    let mut make = |name: String, kind: Kind, rng: &mut Rng| {
        let mut plan = Vec::new();
        let (rps, duration) = match kind {
            Kind::Nominal => (NOMINAL_RPS, seconds * NOMINAL_SHARE / SEGMENTS as f64),
            Kind::Rung(rps) => (rps, seconds * RUNG_SHARE),
            Kind::Burst => {
                let mut same = burst_draws.clone();
                for j in 0..BURST_REQUESTS {
                    let (request, check) = request(&mut same, j as u64);
                    plan.push(Planned {
                        due: Duration::ZERO,
                        request,
                        check,
                    });
                }
                return Phase { name, kind, plan };
            }
        };
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.f64()).ln() / rps;
            if t >= duration {
                break;
            }
            let (request, check) = request(rng, step);
            step += 1;
            plan.push(Planned {
                due: Duration::from_secs_f64(t),
                request,
                check,
            });
        }
        Phase { name, kind, plan }
    };
    let mut phases = Vec::new();
    for segment in 1..=SEGMENTS {
        phases.push(make(format!("nominal-{segment}"), Kind::Nominal, rng));
        for b in 1..=BURSTS_PER_SEGMENT {
            phases.push(make(format!("burst-{segment}.{b}"), Kind::Burst, rng));
        }
    }
    for m in LADDER {
        let rps = NOMINAL_RPS * m;
        phases.push(make(format!("ladder-{rps:.0}"), Kind::Rung(rps), rng));
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(counts: &[(&str, u64)]) -> Json {
        let shots: u64 = counts.iter().map(|(_, n)| n).sum();
        let counts = counts
            .iter()
            .map(|&(bits, n)| (bits.to_string(), n.into()))
            .collect();
        obj([("shots", shots.into()), ("counts", Json::Obj(counts))])
    }

    fn ghz4() -> Expect {
        let text = qasm::dump(&ghz(4, &[0, 1, 2, 3]));
        Expect::Distribution(xtalk_sim::ideal::distribution(
            &qasm::parse(&text).expect("dumped QASM parses"),
        ))
    }

    #[test]
    fn noisy_ghz_passes_with_its_quality() {
        let resp = reply(&[("0000", 380), ("1111", 340), ("0001", 150), ("1110", 154)]);
        let q = run_quality(&resp, 1024, &ghz4()).expect("noisy but entangled");
        assert!((q - 720.0 / 1024.0).abs() < 1e-12, "{q}");
    }

    #[test]
    fn collapsed_ghz_fails_though_within_the_distance() {
        // All shots on one of the two ideal outcomes: distance 0.5 exactly.
        let resp = reply(&[("0000", 1024)]);
        let err = run_quality(&resp, 1024, &ghz4()).expect_err("collapsed");
        assert!(err.contains("outcome 1111"), "{err}");
        let resp = reply(&[("0000", 1000), ("1111", 24)]);
        assert!(run_quality(&resp, 1024, &ghz4()).is_err());
    }

    #[test]
    fn wrong_secret_or_shot_count_fails() {
        let resp = reply(&[("0101", 600), ("0011", 424)]);
        assert!(run_quality(&resp, 1024, &Expect::Modal(0b0101)).is_ok());
        assert!(run_quality(&resp, 1024, &Expect::Modal(0b0011)).is_err());
        assert!(run_quality(&resp, 2048, &Expect::Modal(0b0101)).is_err());
    }
}
