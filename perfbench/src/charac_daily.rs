//! `charac_daily`: closed loop, one thread. Characterizes each IBMQ
//! device on consecutive drifted days with the bin-packed one-hop policy
//! and the RB configuration the serve path builds for itself, then
//! compares the detected high-crosstalk pairs with the planted ones.
//! No compile runs here: the time is RB sequence generation, simulation
//! and fitting.

use crate::host;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace;
use std::time::Instant;
use xtalk_charac::policy::TimeModel;
use xtalk_charac::{characterize, Characterization, CharacterizationPolicy, RbConfig};
use xtalk_device::Device;
use xtalk_pass::{ContentHash, Fnv1a};

/// Calibration seed of the device models (the serve fleet's default).
const DEVICE_SEED: u64 = 7;
/// Crosstalk factor above which a pair counts as high (paper Figure 3).
const HIGH: f64 = 3.0;
/// Random sequences per RB length and shots per sequence: the serve
/// path's characterization settings.
const SEQS: usize = 3;
const SHOTS: u64 = 96;
/// Least share of the planted pairs a run's characterizations must
/// detect (one device-day at 3 × 96 shots may miss 2 of 5), and most pairs
/// one characterization may report that were not planted.
const MIN_RECALL: f64 = 0.5;
const MAX_FALSE_PAIRS: usize = 3;
/// Seconds per round of one characterization per device, the unit in
/// which a run's `--seconds` buys rounds (a round took about 14 s on a
/// 2-vCPU host).
const ROUND_SECONDS: f64 = 15.0;

/// The devices and the day the run starts on.
pub struct CharacDaily {
    devices: Vec<Device>,
    first_day: u32,
    seed: u64,
}

/// One device-day: a drifted device and the RB settings for it.
struct DeviceDay {
    device: usize,
    day: u32,
    config: RbConfig,
}

/// What one characterization produced.
struct Outcome {
    /// Host seconds, scaled to the nominal host.
    seconds: f64,
    planted: usize,
    found: usize,
    false_pairs: usize,
    experiments: usize,
    bins: usize,
    shots: u64,
    digest: u64,
}

impl CharacDaily {
    /// Builds the devices, picks the first day from `seed`, and warms the
    /// Clifford groups and the characterization path on a small device.
    pub fn setup(seed: u64) -> CharacDaily {
        let devices = Device::all_ibmq(DEVICE_SEED);
        let first_day = 1 + Rng::new(seed, 2).range(0, 364) as u32;
        xtalk_clifford::group::single_qubit_cliffords();
        xtalk_clifford::group::two_qubit_cliffords();
        let warm = RbConfig {
            seqs_per_length: 1,
            shots: 16,
            seed,
            ..Default::default()
        };
        characterize(
            &Device::line(4, seed),
            &policy(),
            &warm,
            &TimeModel::default(),
        );
        CharacDaily {
            devices,
            first_day,
            seed,
        }
    }

    /// The `i`-th device-day: devices in turn, one day per round.
    fn device_day(&self, i: usize) -> DeviceDay {
        let n = self.devices.len();
        let config = RbConfig {
            seqs_per_length: SEQS,
            shots: SHOTS,
            seed: Rng::new(self.seed, 3 + i as u64).next_u64(),
            ..Default::default()
        };
        DeviceDay {
            device: i % n,
            day: self.first_day + (i / n) as u32,
            config,
        }
    }

    /// Characterizes one device-day; its time is scaled to the nominal
    /// host by reference readings taken just before and just after.
    fn characterize_day(&self, dd: &DeviceDay, req: u64) -> Outcome {
        let mut readings = Vec::new();
        host::sample(&mut readings);
        let t = Instant::now();
        let device = {
            let _s = trace::span("device.on_day", req);
            self.devices[dd.device].on_day(dd.day)
        };
        let (charac, report) = {
            let _s = trace::span("charac.characterize", req);
            characterize(&device, &policy(), &dd.config, &TimeModel::default())
        };
        let elapsed = t.elapsed().as_secs_f64();
        host::sample(&mut readings);
        let seconds = elapsed * host::scale(&readings);

        let planted = device.crosstalk().high_unordered_pairs(HIGH);
        let detected = charac.high_pairs(HIGH);
        let found = detected.iter().filter(|p| planted.contains(p)).count();
        let circuits_per_bin = (dd.config.lengths.len() * dd.config.seqs_per_length) as u64;
        Outcome {
            seconds,
            planted: planted.len(),
            found,
            false_pairs: detected.len() - found,
            experiments: report.num_experiments,
            bins: report.bins_total,
            shots: report.bins_total as u64 * circuits_per_bin * dd.config.shots,
            digest: digest(&charac),
        }
    }

    /// Characterizes a fixed number of rounds of one day per device for
    /// `seconds` (at least one round, whose counts are exact). A traced
    /// run characterizes every device-day twice, untraced and traced, in
    /// half as many rounds: the pairs must agree bit for bit and give the
    /// tracing overhead; it reports the traced characterizations' layer
    /// times.
    pub fn run(&self, seconds: f64, traced: bool, report: &mut Report) {
        let n = self.devices.len();
        // A fixed count, not "until the time is used", so that the slowest
        // device-day is the slowest of as many on a fast host as on a slow
        // one.
        let mut rounds = ((seconds / ROUND_SECONDS) as usize).max(1);
        if traced {
            rounds = (rounds / 2).max(1);
        }
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut overheads: Vec<f64> = Vec::new();
        for i in 0..rounds * n {
            let dd = self.device_day(i);
            let out = if traced {
                let first = self.characterize_day(&dd, i as u64);
                trace::set_enabled(true);
                let out = self.characterize_day(&dd, i as u64);
                trace::set_enabled(false);
                if out.digest != first.digest {
                    report.fail(format!(
                        "device-day {i}: a repeated characterization differs"
                    ));
                }
                overheads.push((out.seconds / first.seconds - 1.0) * 100.0);
                out
            } else {
                self.characterize_day(&dd, i as u64)
            };
            let dev = self.devices[dd.device].name();
            if out.false_pairs > MAX_FALSE_PAIRS {
                report.fail(format!(
                    "{dev} day {}: {} detected pairs were not planted",
                    dd.day, out.false_pairs
                ));
            }
            outcomes.push(out);
        }
        let times_ms: Vec<f64> = outcomes.iter().map(|o| o.seconds * 1e3).collect();
        let total_s: f64 = outcomes.iter().map(|o| o.seconds).sum();
        let planted: usize = outcomes.iter().map(|o| o.planted).sum();
        let found: usize = outcomes.iter().map(|o| o.found).sum();
        let recall = stats::ratio(found as f64, planted as f64);
        if recall < MIN_RECALL {
            report.fail(format!("detected {found} of {planted} planted pairs"));
        }
        report.attempted += outcomes.len() as u64;
        report.set("latency_p50_ms", stats::median(&times_ms));
        report.set(
            "latency_p99_ms",
            times_ms.iter().copied().fold(0.0, f64::max),
        );
        report.set("throughput_per_s", outcomes.len() as f64 / total_s);
        report.set("quality", recall);

        let round = &outcomes[..n];
        let sum = |f: fn(&Outcome) -> u64| round.iter().map(f).sum::<u64>();
        let digest = round.iter().fold(0u64, |h, o| h.rotate_left(17) ^ o.digest);
        report.exact("charac.experiments", sum(|o| o.experiments as u64));
        report.exact("charac.bins", sum(|o| o.bins as u64));
        report.exact("sim.shots", sum(|o| o.shots));
        report.exact(
            "charac_recall",
            format!("{}/{}", sum(|o| o.found as u64), sum(|o| o.planted as u64)),
        );
        report.exact("charac_false_pairs", sum(|o| o.false_pairs as u64));
        report.exact("charac_digest", format!("{digest:016x}"));

        report.line(format!(
            "charac_daily: {} device-days from day {} (policy one-hop bin-packed k=2, {SEQS} seqs x {SHOTS} shots)",
            outcomes.len(),
            self.first_day
        ));
        for (i, o) in outcomes.iter().enumerate() {
            let dd = self.device_day(i);
            report.line(format!(
                "  {} day {}: {:.3} s, {} experiments, detected {}/{} planted, {} not planted",
                self.devices[dd.device].name(),
                dd.day,
                o.seconds,
                o.experiments,
                o.found,
                o.planted,
                o.false_pairs
            ));
        }
        report.line(format!(
            "  charac_s = {:.4} s per device-day (median), charac_recall = {recall:.4}, charac_false_pairs = {}",
            stats::median(&times_ms) / 1e3,
            outcomes.iter().map(|o| o.false_pairs).sum::<usize>()
        ));

        report.set("charac.experiments", sum(|o| o.experiments as u64) as f64);
        report.set("charac.false_pairs", sum(|o| o.false_pairs as u64) as f64);
        report.set("sim.shots", sum(|o| o.shots) as f64);
        if traced {
            let spans = trace::take();
            let totals = trace::totals(&spans);
            let snap = xtalk_obs::snapshot();
            let rb = trace::obs_totals(&snap, "charac.rb_bin", "sim.");
            let srb = trace::obs_totals(&snap, "charac.srb_bin", "sim.");
            let sim = trace::obs_totals(&snap, "sim.run_parallel", "");
            let traced_shots = snap.counter("sim.shots").unwrap_or(0);
            let bins = (rb.count + srb.count) as f64;
            let gen_fit_ns = (rb.total_ns - rb.child_ns) + (srb.total_ns - srb.child_ns);
            report.set("charac.rb_bin_ms", rb.mean_ms());
            report.set("charac.srb_bin_ms", srb.mean_ms());
            report.set(
                "charac.gen_fit_ms",
                stats::ratio(gen_fit_ns as f64, bins) / 1e6,
            );
            report.set(
                "device.on_day_ms",
                totals.get("device.on_day").map_or(0.0, |t| t.mean_ms()),
            );
            report.set("sim.run_ms", sim.mean_ms());
            report.set(
                "sim.shots_per_s",
                stats::ratio(traced_shots as f64, sim.total_ns as f64 / 1e9),
            );
            report.set("trace.overhead_pct", stats::median(&overheads));
            trace::finish("charac_daily", &spans, &snap, report);
        }
    }
}

fn policy() -> CharacterizationPolicy {
    CharacterizationPolicy::OneHopBinPacked { k_hops: 2 }
}

/// Content hash of every measured rate: equal digests mean bit-identical
/// characterizations.
fn digest(charac: &Characterization) -> u64 {
    let mut h = Fnv1a::new();
    charac.content_hash(&mut h);
    h.finish()
}
