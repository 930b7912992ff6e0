//! Shared server state: configuration, the device fleet, the
//! characterization store (with its degradation ladder, see
//! [`crate::cache`]), metrics and the cancel registry.

use crate::cache::CharacCache;
use crate::metrics::Metrics;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xtalk_budget::CancelToken;
use xtalk_device::Device;

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
    /// the degradation ladder in [`crate::cache`]). `0` disables stale
    /// fallback entirely.
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
    /// The characterization store and its last-known-good table — a
    /// typed layer over the shared content-addressed artifact store
    /// ([`CharacCache::artifacts`]) that also backs every job's compile
    /// pipeline, so `compare`-style jobs reuse the lower/place/route
    /// prefix across schedulers and one `advance_day` sweep invalidates
    /// characterizations and compile artifacts alike. Every job's error
    /// tables come from its degradation ladder ([`CharacCache::resolve`]).
    pub cache: CharacCache,
    /// Service counters.
    pub metrics: Metrics,
    /// Calibration epoch: starts at 0, bumped by each `advance_day`.
    epoch: AtomicU64,
    /// Set to stop the accept loop.
    pub shutdown: AtomicBool,
    /// In-flight cancellable jobs: client-chosen label → the cancel token
    /// the job's [`Budget`] polls. Registered at admission (so a queued
    /// job can be cancelled before it runs), unregistered by the
    /// connection thread once the reply lands.
    cancels: Mutex<HashMap<String, CancelToken>>,
}

impl ServeState {
    /// Builds the state with the three IBMQ device models at day 0.
    pub fn new(config: ServeConfig) -> Arc<ServeState> {
        let devices = Device::all_ibmq(config.device_seed)
            .into_iter()
            .map(|d| (d.name().to_string(), Arc::new(d)))
            .collect();
        Arc::new(ServeState {
            cache: CharacCache::new(config.stale_ttl_epochs),
            config,
            devices: Mutex::new(devices),
            metrics: Metrics::default(),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
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
    /// [`Device::on_day`], the characterization cache is invalidated and
    /// last-known-good entries past the staleness TTL are dropped.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RbSettings;
    use crate::testutil::fault_gate;
    use xtalk_budget::Budget;
    use xtalk_charac::{Characterization, PolicyName};

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
                let snapshot = state.snapshot("poughkeepsie").unwrap();
                let rb = RbSettings { seed: 7, seqs: 3, shots: 96 };
                let budget = Budget::unlimited();
                let resolved = state
                    .cache
                    .resolve(&snapshot, PolicyName::Truth, rb, &budget, &state.metrics)
                    .unwrap();
                let entry = resolved.entry;
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
}
