//! Shared server state: configuration, device fleet, cache, metrics —
//! and the characterization **degradation ladder**.
//!
//! # Degradation ladder
//!
//! [`ServeState::characterization`] tries three rungs, in order:
//!
//! 1. **Fresh** — the characterization for the current calibration epoch,
//!    from cache or built on demand.
//! 2. **Stale last-known-good** — if the build fails (panics, errors, or
//!    an injected `cache.lookup`/`charac.run` fault), fall back to the
//!    most recent successful characterization of the same
//!    `(device, policy, RB seed)` from an earlier epoch, provided it is no
//!    older than [`ServeConfig::stale_ttl_epochs`]. The response is
//!    flagged so the caller knows the error tables predate current
//!    calibration.
//! 3. **Independent-error model** — if there is no last-known-good within
//!    the TTL, the caller ([`crate::jobs`]) degrades to a
//!    characterization holding only per-gate independent error rates from
//!    the live calibration (no conditional/crosstalk terms) and forces
//!    the crosstalk-oblivious `par` scheduler, which never consults the
//!    missing terms.

use crate::cache::{CacheEntry, CacheKey, CharacCache, RbSettings};
use crate::metrics::Metrics;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xtalk_budget::{Budget, CancelToken};
use xtalk_charac::policy::TimeModel;
use xtalk_charac::{characterize_budgeted, Characterization, CharacterizationPolicy, RbConfig};
use xtalk_device::Device;

/// Where a characterization came from, for response flagging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CharacSource {
    /// Built (or cached) for the current calibration epoch.
    Fresh {
        /// `true` if served from cache without rebuilding.
        cached: bool,
    },
    /// The current-epoch build failed; this is the last-known-good entry
    /// from an earlier epoch, within the staleness TTL.
    StaleLkg {
        /// Epoch the entry was built for.
        epoch: u64,
        /// How many epochs old it is (`current - epoch`, ≥ 1).
        age: u64,
    },
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs (0 = available parallelism).
    pub workers: usize,
    /// Jobs that may wait in the queue beyond the ones being executed;
    /// submissions past this bound get the busy response.
    pub queue_cap: usize,
    /// How long a connection waits for its job before reporting a
    /// timeout (the job itself is not cancelled).
    pub job_timeout: Duration,
    /// Seed for the device fleet's day-0 calibration.
    pub device_seed: u64,
    /// Enable the `xtalk-obs` profiling layer for the server process;
    /// span/counter data is merged into the `stats` response.
    pub profile: bool,
    /// How many epochs a last-known-good characterization may lag the
    /// current calibration before it is refused as a fallback (rung 2 of
    /// the degradation ladder). `0` disables stale fallback entirely.
    pub stale_ttl_epochs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            queue_cap: 32,
            job_timeout: Duration::from_secs(120),
            device_seed: 7,
            profile: false,
            stale_ttl_epochs: 3,
        }
    }
}

impl ServeConfig {
    /// The worker count with `0` resolved to available parallelism.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(2, |n| n.get()),
            n => n,
        }
    }
}

/// A device model and the calibration epoch it belongs to, read together
/// under the fleet lock: everything a job derives from the device (its
/// characterization key, scheduler context and compile-artifact epoch)
/// comes from one snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The device model at `epoch`, shared with the fleet.
    pub device: Arc<Device>,
    /// The calibration epoch.
    pub epoch: u64,
}

/// Everything shared between the acceptor, connection threads and the
/// worker pool.
pub struct ServeState {
    /// The configuration the server started with.
    pub config: ServeConfig,
    /// The simulated device fleet, keyed by name. Mutated only by
    /// `advance_day`, which bumps `epoch` under the same lock.
    devices: Mutex<BTreeMap<String, Arc<Device>>>,
    /// The characterization cache — a typed layer over the shared
    /// content-addressed artifact store ([`CharacCache::artifacts`]) that
    /// also backs every job's compile pipeline, so `compare`-style jobs
    /// reuse the lower/place/route prefix across schedulers and one
    /// `advance_day` sweep invalidates characterizations and compile
    /// artifacts alike.
    pub cache: CharacCache,
    /// Service counters.
    pub metrics: Metrics,
    /// Calibration epoch: starts at 0, bumped by each `advance_day`.
    epoch: AtomicU64,
    /// Set to stop the accept loop.
    pub shutdown: AtomicBool,
    /// Last-known-good characterizations by `(device, policy, RB seed)`,
    /// with the epoch each was built for. Unlike [`CharacCache`] this
    /// map survives `advance_day`: it exists precisely so a *failed*
    /// rebuild can fall back to the previous epoch's result.
    lkg: Mutex<LkgMap>,
    /// In-flight cancellable jobs: client-chosen label → the cancel token
    /// the job's [`Budget`] polls. Registered at admission (so a queued
    /// job can be cancelled before it runs), unregistered by the
    /// connection thread once the reply lands.
    cancels: Mutex<HashMap<String, CancelToken>>,
}

/// Last-known-good side table: `(device, policy, RB seed)` (no seed for
/// `truth`) → the latest successful characterization's full key (its
/// epoch and RB settings) and the entry itself.
type LkgMap = HashMap<(String, String, Option<u64>), (CacheKey, Arc<CacheEntry>)>;

impl ServeState {
    /// Builds the state with the three IBMQ device models at day 0.
    pub fn new(config: ServeConfig) -> Arc<ServeState> {
        let devices = Device::all_ibmq(config.device_seed)
            .into_iter()
            .map(|d| (d.name().to_string(), Arc::new(d)))
            .collect();
        Arc::new(ServeState {
            config,
            devices: Mutex::new(devices),
            cache: CharacCache::new(),
            metrics: Metrics::default(),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            lkg: Mutex::new(HashMap::new()),
            cancels: Mutex::new(HashMap::new()),
        })
    }

    /// Registers a fresh cancel token under `label`, returning the token
    /// the job's budget should poll. A duplicate label simply replaces
    /// the previous registration (newest in-flight job wins).
    pub fn register_cancel(&self, label: &str) -> CancelToken {
        let token = CancelToken::new();
        self.cancels.lock().unwrap().insert(label.to_string(), token.clone());
        token
    }

    /// Drops the registration for `label` (the job replied or was
    /// rejected). Idempotent.
    pub fn unregister_cancel(&self, label: &str) {
        self.cancels.lock().unwrap().remove(label);
    }

    /// Trips the cancel token registered under `label`, if any. Returns
    /// `true` when a registered job was found — `false` means the label
    /// is unknown or the job already finished (not an error: cancels
    /// race completions by nature).
    pub fn cancel_job(&self, label: &str) -> bool {
        let found = self.cancels.lock().unwrap().get(label).cloned();
        match found {
            Some(token) => {
                token.cancel();
                Metrics::inc(&self.metrics.jobs_cancelled);
                xtalk_obs::counter!("serve.job.cancelled");
                true
            }
            None => false,
        }
    }

    /// The current calibration epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The named device's current (possibly drifted) model with its
    /// epoch, read in one critical section. Accepts both preset names
    /// (`ibmq_poughkeepsie`) and the short form the CLI uses
    /// (`poughkeepsie`).
    pub fn snapshot(&self, name: &str) -> Result<Snapshot, String> {
        let devices = self.devices.lock().unwrap();
        let device = devices
            .get(name)
            .or_else(|| devices.get(&format!("ibmq_{name}")))
            .cloned()
            .ok_or_else(|| format!("unknown device `{name}` (try poughkeepsie, johannesburg, boeblingen)"))?;
        Ok(Snapshot { device, epoch: self.epoch() })
    }

    /// Advances the simulated calibration day: every device drifts via
    /// [`Device::on_day`] and the characterization cache is invalidated.
    /// Returns the new epoch.
    pub fn advance_day(&self) -> u64 {
        let mut devices = self.devices.lock().unwrap();
        // Holding the device lock while bumping keeps epoch and fleet in
        // step for concurrent observers.
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        for device in devices.values_mut() {
            *device = Arc::new(device.on_day(epoch as u32));
        }
        drop(devices);
        self.cache.invalidate_before(epoch);
        epoch
    }

    /// The characterization for `(device, policy)` — with `(seed, seqs,
    /// shots)` for a measured policy — at the current epoch, unbudgeted
    /// (see [`ServeState::characterization_budgeted`]).
    pub fn characterization(
        &self,
        device_name: &str,
        policy: &str,
        seed: u64,
        seqs: usize,
        shots: u64,
    ) -> Result<(Arc<CacheEntry>, CharacSource), String> {
        let snapshot = self.snapshot(device_name)?;
        let rb = RbSettings { seed, seqs, shots };
        self.characterization_budgeted(device_name, &snapshot, policy, rb, &Budget::unlimited())
    }

    /// The characterization for `(device, policy)` — with the RB settings
    /// `rb` for a measured policy — of the device `snapshot`, from cache
    /// when possible, degrading to a stale last-known-good entry when the
    /// build fails (see the module docs). `Err` means both rungs 1 and 2
    /// are exhausted — the *request parameters* are bad, or the build
    /// failed with no usable fallback — and the caller decides whether
    /// rung 3 applies.
    ///
    /// A budget-truncated build is treated exactly like a failed one: the
    /// partial tables are *not* cached (they would poison every later
    /// request sharing the key) and the request rides the degradation
    /// ladder — stale last-known-good, then the independent model.
    pub fn characterization_budgeted(
        &self,
        device_name: &str,
        snapshot: &Snapshot,
        policy: &str,
        rb: RbSettings,
        budget: &Budget,
    ) -> Result<(Arc<CacheEntry>, CharacSource), String> {
        let (device, epoch) = (&*snapshot.device, snapshot.epoch);
        let policy_obj = match policy {
            "truth" => None,
            "all" => Some(CharacterizationPolicy::AllPairs),
            "onehop" => Some(CharacterizationPolicy::OneHop),
            "binpacked" => Some(CharacterizationPolicy::OneHopBinPacked { k_hops: 2 }),
            other => return Err(format!("unknown policy `{other}`")),
        };
        // Key on what the tables depend on: a measured policy's effective
        // RB settings, nothing for `truth` (the ground truth ignores them).
        let rb = policy_obj.is_some().then(|| RbSettings {
            seed: rb.seed,
            seqs: rb.seqs.max(1),
            shots: rb.shots.max(16),
        });
        // The stale fallback is already flagged approximate: it takes the
        // latest tables of the same measured seed whatever their RB
        // sample sizes.
        let lkg_key = (device_name.to_string(), policy.to_string(), rb.map(|rb| rb.seed));
        let key = CacheKey {
            device: device_name.to_string(),
            policy: policy.to_string(),
            rb,
            epoch,
        };
        // Rung 1: fresh, from cache or a guarded build. Injected
        // `cache.lookup`/`charac.run` faults and build panics all land in
        // `failure` below instead of taking down the worker.
        let failure: String = 'fresh: {
            if let Some(msg) = xtalk_fault::fire("cache.lookup") {
                break 'fresh format!("characterization store unavailable: {msg}");
            }
            if let Some(entry) = self.cache.get(&key) {
                Metrics::inc(&self.metrics.cache_hits);
                return Ok((entry, CharacSource::Fresh { cached: true }));
            }
            let built = catch_unwind(AssertUnwindSafe(|| -> Result<CacheEntry, String> {
                if let Some(msg) = xtalk_fault::fire("charac.run") {
                    return Err(format!("characterization failed: {msg}"));
                }
                match policy_obj {
                    None => {
                        Ok(CacheEntry::new(device, Characterization::from_ground_truth(device), None))
                    }
                    Some(p) => {
                        let rb = rb.expect("measured policies carry RB settings");
                        let config = RbConfig {
                            seqs_per_length: rb.seqs,
                            shots: rb.shots,
                            seed: rb.seed,
                            ..Default::default()
                        };
                        let (charac, report) =
                            characterize_budgeted(device, &p, &config, &TimeModel::default(), budget);
                        if !report.complete {
                            // A truncated sweep is a failed build: partial
                            // tables must not enter the cache or the LKG
                            // side-table.
                            return Err(format!(
                                "characterization budget exhausted after {}/{} bins",
                                report.bins_completed, report.bins_total
                            ));
                        }
                        Ok(CacheEntry::new(device, charac, Some(report)))
                    }
                }
            }));
            match built {
                Ok(Ok(entry)) => {
                    let entry = Arc::new(entry);
                    self.cache.insert(key.clone(), entry.clone());
                    self.lkg
                        .lock()
                        .unwrap()
                        .insert(lkg_key, (key, entry.clone()));
                    Metrics::inc(&self.metrics.cache_misses);
                    return Ok((entry, CharacSource::Fresh { cached: false }));
                }
                Ok(Err(msg)) => msg,
                Err(_) => "characterization panicked".to_string(),
            }
        };
        // Rung 2: stale last-known-good within the TTL.
        Metrics::inc(&self.metrics.charac_failures);
        xtalk_obs::counter!("serve.charac.failure");
        if let Some((lkg, entry)) = self.lkg.lock().unwrap().get(&lkg_key).cloned() {
            let (lkg_epoch, age) = (lkg.epoch, epoch.saturating_sub(lkg.epoch));
            if lkg == key {
                // The primary lookup failed but the side-table holds this
                // very entry — not actually stale.
                return Ok((entry, CharacSource::Fresh { cached: true }));
            }
            if (1..=self.config.stale_ttl_epochs).contains(&age) {
                Metrics::inc(&self.metrics.degraded_stale);
                xtalk_obs::counter!("serve.charac.stale_fallback");
                return Ok((entry, CharacSource::StaleLkg { epoch: lkg_epoch, age }));
            }
        }
        Err(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_drift_on_advance_day() {
        let state = ServeState::new(ServeConfig::default());
        let before = state.snapshot("poughkeepsie").unwrap();
        assert_eq!(before.epoch, 0);
        assert_eq!(state.advance_day(), 1);
        let after = state.snapshot("poughkeepsie").unwrap();
        assert_eq!(after.epoch, 1);
        assert_ne!(before.device.calibration(), after.device.calibration());
        assert!(state.snapshot("nonesuch").is_err());
        // Snapshots share the fleet's model instead of copying it.
        let again = state.snapshot("ibmq_poughkeepsie").unwrap();
        assert!(Arc::ptr_eq(&after.device, &again.device));
    }

    /// Characterizations requested while another thread advances the
    /// day: whenever the epoch did not move during a request, the entry
    /// (tables and context) is the ground truth of that epoch's device.
    /// A device and an epoch read apart can pair day-k tables with epoch
    /// k + 1; the window is short, so a run only catches that sometimes.
    #[test]
    fn truth_entries_match_their_epoch_under_concurrent_drift() {
        const DAYS: u32 = 500;
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let mut devices = vec![Device::poughkeepsie(state.config.device_seed)];
        for day in 1..=DAYS {
            let next = devices[day as usize - 1].on_day(day);
            devices.push(next);
        }
        let expected: Vec<Characterization> =
            devices.iter().map(Characterization::from_ground_truth).collect();
        let done = AtomicBool::new(false);
        let checked = std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..DAYS {
                    state.advance_day();
                    std::thread::yield_now();
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut checked = 0;
            loop {
                // One last request after the final day, which no advance
                // can race.
                let finished = done.load(Ordering::SeqCst);
                let before = state.epoch();
                let (entry, _) = state.characterization("poughkeepsie", "truth", 7, 3, 96).unwrap();
                if state.epoch() == before {
                    let e = before as usize;
                    assert_eq!(entry.charac, expected[e], "epoch {e}: tables of another day");
                    let ctx = xtalk_core::SchedulerContext::new(&devices[e], &expected[e]);
                    assert_eq!(entry.ctx, ctx, "epoch {e}: context of another day");
                    checked += 1;
                }
                if finished {
                    break checked;
                }
            }
        });
        assert!(checked > 0, "no request completed within an epoch");
    }

    #[test]
    fn characterization_caches_until_day_advances() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let (_, src) = state.characterization("boeblingen", "truth", 7, 3, 96).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        let (_, src) = state.characterization("boeblingen", "truth", 7, 3, 96).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: true });
        state.advance_day();
        let (_, src) = state.characterization("boeblingen", "truth", 7, 3, 96).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false }, "drift must invalidate the cache");
        assert_eq!(state.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn measured_policies_key_on_their_rb_settings() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let (a, src) = state.characterization("boeblingen", "onehop", 7, 1, 32).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        // Same seed, different shots: different RB data, so a fresh build.
        let (b, src) = state.characterization("boeblingen", "onehop", 7, 1, 48).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        assert_ne!(a.report, b.report);
        // Settings below the floors clamp to the same effective run.
        let (_, src) = state.characterization("boeblingen", "onehop", 7, 0, 8).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        let (_, src) = state.characterization("boeblingen", "onehop", 7, 1, 16).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: true });
        assert_eq!(state.cache.len(), 3);
    }

    #[test]
    fn store_fault_does_not_pass_other_rb_settings_off_as_fresh() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        state.characterization("boeblingen", "onehop", 7, 1, 32).unwrap();
        xtalk_fault::install_spec("cache.lookup:err:1.0", 1).unwrap();
        // The side table holds this epoch's tables for seed 7, but at
        // other shots: neither fresh nor stale, so the ladder is exhausted.
        let err = state.characterization("boeblingen", "onehop", 7, 1, 48).unwrap_err();
        let same = state.characterization("boeblingen", "onehop", 7, 1, 32);
        xtalk_fault::clear();
        assert!(err.contains("store unavailable"), "unexpected error: {err}");
        assert_eq!(same.unwrap().1, CharacSource::Fresh { cached: true });
    }

    #[test]
    fn truth_ignores_the_seed() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let (first, src) = state.characterization("poughkeepsie", "truth", 1, 3, 96).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        for seed in 2..6 {
            let (entry, src) = state.characterization("poughkeepsie", "truth", seed, 1, 32).unwrap();
            assert_eq!(src, CharacSource::Fresh { cached: true }, "seed {seed}");
            assert_eq!(entry.charac, first.charac);
        }
        assert_eq!(state.cache.len(), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_policy_is_rejected() {
        let state = ServeState::new(ServeConfig::default());
        assert!(state.characterization("poughkeepsie", "psychic", 7, 3, 96).is_err());
    }

    use crate::testutil::fault_gate;

    #[test]
    fn failed_rebuild_falls_back_to_stale_lkg_within_ttl() {
        let _gate = fault_gate();
        let config = ServeConfig {
            stale_ttl_epochs: 2,
            ..ServeConfig::default()
        };
        let state = ServeState::new(config);
        let (fresh, src) = state.characterization("boeblingen", "truth", 7, 1, 32).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        state.advance_day();
        // Every build from now on fails.
        xtalk_fault::install_spec("charac.run:err:1.0", 1).unwrap();
        let (stale, src) = state.characterization("boeblingen", "truth", 7, 1, 32).unwrap();
        assert_eq!(src, CharacSource::StaleLkg { epoch: 0, age: 1 });
        assert_eq!(stale.charac, fresh.charac, "stale entry must be the day-0 tables");
        // Past the TTL the ladder is exhausted at this level.
        state.advance_day();
        state.advance_day();
        let err = state.characterization("boeblingen", "truth", 7, 1, 32).unwrap_err();
        assert!(err.contains("characterization failed"), "unexpected error: {err}");
        xtalk_fault::clear();
        assert!(state.metrics.degraded_stale.load(Ordering::Relaxed) >= 1);
        assert!(state.metrics.charac_failures.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn cancel_registry_trips_tokens_by_label() {
        let state = ServeState::new(ServeConfig::default());
        let token = state.register_cancel("bell-1");
        assert!(!token.is_cancelled());
        assert!(!state.cancel_job("nonesuch"), "unknown label is a miss");
        assert!(state.cancel_job("bell-1"));
        assert!(token.is_cancelled());
        assert_eq!(state.metrics.jobs_cancelled.load(Ordering::Relaxed), 1);
        // After unregistration the label no longer resolves.
        state.unregister_cancel("bell-1");
        assert!(!state.cancel_job("bell-1"));
        // A duplicate label retargets at the newest token.
        let first = state.register_cancel("dup");
        let second = state.register_cancel("dup");
        assert!(state.cancel_job("dup"));
        assert!(!first.is_cancelled());
        assert!(second.is_cancelled());
    }

    #[test]
    fn budget_truncated_build_rides_the_ladder_without_caching() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        // An exhausted budget truncates the RB sweep immediately: with no
        // LKG the ladder is exhausted and the partial must not be cached.
        let dead = Budget::unlimited();
        dead.cancel_token().cancel();
        let rb = RbSettings { seed: 7, seqs: 1, shots: 32 };
        let snapshot = state.snapshot("boeblingen").unwrap();
        let err = state
            .characterization_budgeted("boeblingen", &snapshot, "onehop", rb, &dead)
            .unwrap_err();
        assert!(err.contains("budget exhausted"), "unexpected error: {err}");
        assert_eq!(state.cache.len(), 0, "partial tables must not be cached");
        // A later unbudgeted request rebuilds from scratch and succeeds.
        let (_, src) = state.characterization("boeblingen", "onehop", 7, 1, 32).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        // Once an LKG exists, a truncated rebuild after drift degrades to
        // the stale entry instead of failing.
        state.advance_day();
        let snapshot = state.snapshot("boeblingen").unwrap();
        let (_, src) = state
            .characterization_budgeted("boeblingen", &snapshot, "onehop", rb, &dead)
            .unwrap();
        assert_eq!(src, CharacSource::StaleLkg { epoch: 0, age: 1 });
    }

    #[test]
    fn store_fault_with_current_lkg_is_not_stale() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let (_, src) = state.characterization("poughkeepsie", "truth", 9, 1, 32).unwrap();
        assert_eq!(src, CharacSource::Fresh { cached: false });
        // The store lookup fails, but the LKG side-table has a
        // current-epoch entry: served fresh, not flagged stale.
        xtalk_fault::install_spec("cache.lookup:err:1.0", 1).unwrap();
        let (_, src) = state.characterization("poughkeepsie", "truth", 9, 1, 32).unwrap();
        xtalk_fault::clear();
        assert_eq!(src, CharacSource::Fresh { cached: true });
    }
}
