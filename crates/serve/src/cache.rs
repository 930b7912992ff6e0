//! The characterization store, its last-known-good table and the
//! **degradation ladder** that every job's error tables come from.
//!
//! Characterization is the expensive step of the paper's toolflow (hours
//! of machine time at paper scale), and its product stays valid until the
//! next calibration day. [`CharacCache`] is a typed layer over the
//! content-addressed [`ArtifactCache`] from `xtalk-pass`: entries live
//! under pass id `"charac"`, addressed by the FNV-1a hash of everything
//! the tables depend on (the policy, plus a measured policy's RB
//! settings) and the [`EpochToken`] of `(device, epoch)` — the same store
//! that holds compile artifacts, so one `advance_day` invalidation sweep
//! covers characterizations and compilation results alike, and charac
//! lookups show up in the `pass.cache.hit`/`miss` profiling counters.
//!
//! # Degradation ladder
//!
//! Each answer is tagged with the [`Provenance`] of the rung it came from:
//!
//! 1. **Fresh** — the tables for the current calibration epoch, from the
//!    store or built on demand ([`CharacCache::resolve`]).
//! 2. **Stale last-known-good** — if the build fails (panics, errors, is
//!    truncated by its budget, or an injected `cache.lookup`/`charac.run`
//!    fault fires), `resolve` falls back to the newest successful build
//!    of the same `(device, policy, RB seed)` from an earlier epoch,
//!    provided it is no more than the staleness TTL old. Its tables are
//!    scheduled under the current calibration.
//! 3. **Independent-error model** — with no last-known-good within the
//!    TTL, `resolve` fails. Scheduling jobs then take
//!    [`Resolved::independent`]: the live calibration's per-gate
//!    independent error rates only (no conditional/crosstalk terms), with
//!    the crosstalk-oblivious `par` scheduler forced, since it never
//!    consults the missing terms. A `characterize` job stops at the
//!    failure instead.

use crate::json::Json;
use crate::metrics::Metrics;
use crate::state::Snapshot;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use xtalk_budget::Budget;
use xtalk_charac::policy::TimeModel;
use xtalk_charac::{
    characterize_budgeted, Characterization, CharacterizationReport, PolicyName, RbConfig,
};
use xtalk_core::SchedulerContext;
use xtalk_device::Device;
use xtalk_pass::{ArtifactCache, EpochToken, Fnv1a};

/// The RB settings a measured characterization policy runs with.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RbSettings {
    /// RB seed.
    pub seed: u64,
    /// Random sequences per length.
    pub seqs: usize,
    /// Shots per sequence.
    pub shots: u64,
}

/// Identity of one characterization run: everything its tables depend on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Device name, as the device model reports it.
    pub device: String,
    /// The characterization policy.
    pub policy: PolicyName,
    /// The RB settings of a measured policy; `None` for `truth`, whose
    /// tables are read off the device model whatever the seed.
    pub rb: Option<RbSettings>,
    /// Calibration epoch the run is valid for.
    pub epoch: u64,
}

/// A last-known-good slot: `(device, policy, RB seed)`, no seed for
/// `truth`. The stale fallback is already flagged approximate, so it
/// takes the newest tables of a measured seed whatever their RB sample
/// sizes.
type LkgKey = (String, PolicyName, Option<u64>);

impl CacheKey {
    /// The artifact-cache coordinates: content hash of the request
    /// parameters plus the device-epoch token.
    fn coords(&self) -> (u64, EpochToken) {
        let mut h = Fnv1a::new();
        h.write_str(self.policy.as_str());
        if let Some(rb) = self.rb {
            h.write_u64(rb.seed);
            h.write_usize(rb.seqs);
            h.write_u64(rb.shots);
        }
        (h.finish(), EpochToken::new(self.device.clone(), self.epoch))
    }

    fn lkg_key(&self) -> LkgKey {
        (self.device.clone(), self.policy, self.rb.map(|rb| rb.seed))
    }
}

/// A cached characterization, the scheduler context built from it and
/// (for measured policies) its cost report.
#[derive(Clone, PartialEq, Debug)]
pub struct CacheEntry {
    /// The error tables, as measured.
    pub charac: Characterization,
    /// The scheduler context over `charac` and the calibration of the
    /// device it was characterized on: every job served from this entry
    /// shares it.
    pub ctx: SchedulerContext,
    /// Cost accounting; `None` for the free `truth` policy.
    pub report: Option<CharacterizationReport>,
}

impl CacheEntry {
    /// An entry for tables characterized on `device`.
    pub fn new(
        device: &Device,
        charac: Characterization,
        report: Option<CharacterizationReport>,
    ) -> Self {
        CacheEntry { ctx: SchedulerContext::new(device, &charac), charac, report }
    }
}

/// Which rung of the degradation ladder answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Rung 1: tables for the current calibration epoch.
    Fresh {
        /// `true` if served from the store without rebuilding.
        cached: bool,
    },
    /// Rung 2: the current-epoch build failed; these are the
    /// last-known-good tables from an earlier epoch, within the TTL.
    Stale {
        /// Epoch the tables were built for.
        epoch: u64,
        /// How many epochs old they are (`current - epoch`, ≥ 1).
        age: u64,
    },
    /// Rung 3: independent error rates only; `par` scheduling forced.
    Independent,
}

impl Provenance {
    /// Appends the reply fields every job with error tables carries:
    /// `cached`, and on a degraded rung `degraded` with its label, plus
    /// `charac_epoch` and `stale_epochs` for stale tables.
    pub fn annotate(self, fields: &mut Vec<(String, Json)>) {
        let cached = self == Provenance::Fresh { cached: true };
        fields.push(("cached".to_string(), cached.into()));
        match self {
            Provenance::Fresh { .. } => {}
            Provenance::Stale { epoch, age } => {
                fields.push(("degraded".to_string(), "stale_characterization".into()));
                fields.push(("charac_epoch".to_string(), epoch.into()));
                fields.push(("stale_epochs".to_string(), age.into()));
            }
            Provenance::Independent => {
                fields.push(("degraded".to_string(), "independent_fallback".into()));
            }
        }
    }
}

/// A job's error tables, as the ladder resolved them.
#[derive(Clone, Debug)]
pub struct Resolved {
    /// The entry as built. On rung 2 its tables and context belong to an
    /// earlier epoch's device.
    pub entry: Arc<CacheEntry>,
    /// The context to schedule with: the entry's own on rungs 1 and 3,
    /// the stale tables under the current calibration on rung 2.
    pub ctx: SchedulerContext,
    /// The rung that answered.
    pub provenance: Provenance,
}

impl Resolved {
    fn fresh(entry: Arc<CacheEntry>, cached: bool) -> Resolved {
        Resolved { ctx: entry.ctx.clone(), entry, provenance: Provenance::Fresh { cached } }
    }

    /// Rung 3: the independent error rates the daily calibration of the
    /// `snapshot` device always provides, with no conditional terms.
    pub fn independent(snapshot: &Snapshot, metrics: &Metrics) -> Resolved {
        Metrics::inc(&metrics.degraded_independent);
        xtalk_obs::counter!("serve.charac.independent_fallback");
        let device = &*snapshot.device;
        let mut charac = Characterization::new();
        for &e in device.topology().edges() {
            charac.set_independent(e, device.calibration().cx_error(e));
        }
        let entry = Arc::new(CacheEntry::new(device, charac, None));
        Resolved { ctx: entry.ctx.clone(), entry, provenance: Provenance::Independent }
    }
}

/// The pass id characterization entries are stored under.
const PASS_ID: &str = "charac";

/// Thread-safe characterization store over a shared [`ArtifactCache`],
/// with the last-known-good table the ladder's rung 2 reads.
pub struct CharacCache {
    artifacts: Arc<ArtifactCache>,
    /// The newest successful build per slot, with its full key. Unlike
    /// the store it survives `advance_day` for as long as rung 2 may
    /// serve it.
    lkg: Mutex<HashMap<LkgKey, (CacheKey, Arc<CacheEntry>)>>,
    /// How many epochs a last-known-good entry may lag the current
    /// calibration; `0` disables rung 2.
    stale_ttl_epochs: u64,
}

impl CharacCache {
    /// An empty cache over a private artifact store, serving stale
    /// tables up to `stale_ttl_epochs` old.
    pub fn new(stale_ttl_epochs: u64) -> Self {
        CharacCache {
            artifacts: Arc::new(ArtifactCache::new()),
            lkg: Mutex::new(HashMap::new()),
            stale_ttl_epochs,
        }
    }

    /// The underlying artifact store, shared with every job's compile
    /// pipeline.
    pub fn artifacts(&self) -> &Arc<ArtifactCache> {
        &self.artifacts
    }

    /// Looks up `key`.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let (hash, epoch) = key.coords();
        self.artifacts.get::<CacheEntry>(PASS_ID, hash, &epoch)
    }

    /// Stores a successful build and records it as last-known-good. A
    /// build that started before an `advance_day` can finish after it:
    /// the store drops it if its epoch was invalidated already, and the
    /// table keeps a newer epoch's build, and never takes one that rung 2
    /// could not serve any more.
    pub fn insert(&self, key: CacheKey, entry: Arc<CacheEntry>) {
        let (hash, epoch) = key.coords();
        self.artifacts.put(PASS_ID, hash, &epoch, Arc::clone(&entry));
        if self.artifacts.floor().saturating_sub(key.epoch) > self.stale_ttl_epochs {
            return;
        }
        let slot = key.lkg_key();
        let mut lkg = self.lkg.lock().expect("last-known-good table poisoned");
        if lkg.get(&slot).is_none_or(|(newest, _)| newest.epoch <= key.epoch) {
            lkg.insert(slot, (key, entry));
        }
    }

    /// Drops every entry from an epoch before `epoch` — called when the
    /// calibration day advances. Sweeps the whole shared artifact store,
    /// compile artifacts included: drifted calibration invalidates both.
    /// Last-known-good entries more than the TTL behind `epoch` go too,
    /// since rung 2 can never serve them again.
    pub fn invalidate_before(&self, epoch: u64) {
        self.artifacts.invalidate_before(epoch);
        let ttl = self.stale_ttl_epochs;
        let mut lkg = self.lkg.lock().expect("last-known-good table poisoned");
        lkg.retain(|_, (key, _)| epoch.saturating_sub(key.epoch) <= ttl);
    }

    /// Number of live characterization entries (compile artifacts in the
    /// shared store are not counted).
    pub fn len(&self) -> usize {
        self.artifacts.len_of(PASS_ID)
    }

    /// `true` if no characterizations are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rungs 1 and 2 of the ladder: the `policy` tables of the device
    /// `snapshot` — with the RB settings `rb` for a measured policy — from
    /// the store, a guarded build, or the last-known-good table. `Err`
    /// means the build failed with no usable last-known-good; the caller
    /// decides whether rung 3 applies.
    ///
    /// A budget-truncated build counts as a failed one: its partial
    /// tables would poison every later request sharing the key, so they
    /// are neither stored nor remembered.
    pub fn resolve(
        &self,
        snapshot: &Snapshot,
        policy: PolicyName,
        rb: RbSettings,
        budget: &Budget,
        metrics: &Metrics,
    ) -> Result<Resolved, String> {
        let device = &*snapshot.device;
        let plan = policy.measured();
        let key = CacheKey {
            device: device.name().to_string(),
            policy,
            // Key on what the tables depend on: a measured policy's
            // effective RB settings, nothing for `truth`.
            rb: plan.is_some().then(|| RbSettings {
                seed: rb.seed,
                seqs: rb.seqs.max(1),
                shots: rb.shots.max(16),
            }),
            epoch: snapshot.epoch,
        };
        // Rung 1. Injected faults and build panics land in `failure`
        // instead of taking down the worker.
        let failure = 'fresh: {
            if let Some(msg) = xtalk_fault::fire("cache.lookup") {
                break 'fresh format!("characterization store unavailable: {msg}");
            }
            if let Some(entry) = self.get(&key) {
                Metrics::inc(&metrics.cache_hits);
                return Ok(Resolved::fresh(entry, true));
            }
            let built = catch_unwind(AssertUnwindSafe(|| -> Result<CacheEntry, String> {
                if let Some(msg) = xtalk_fault::fire("charac.run") {
                    return Err(format!("characterization failed: {msg}"));
                }
                let (Some(plan), Some(rb)) = (&plan, key.rb) else {
                    let truth = Characterization::from_ground_truth(device);
                    return Ok(CacheEntry::new(device, truth, None));
                };
                let config = RbConfig {
                    seqs_per_length: rb.seqs,
                    shots: rb.shots,
                    seed: rb.seed,
                    ..Default::default()
                };
                let (charac, report) =
                    characterize_budgeted(device, plan, &config, &TimeModel::default(), budget);
                if !report.complete {
                    return Err(format!(
                        "characterization budget exhausted after {}/{} bins",
                        report.bins_completed, report.bins_total
                    ));
                }
                Ok(CacheEntry::new(device, charac, Some(report)))
            }));
            match built {
                Ok(Ok(entry)) => {
                    let entry = Arc::new(entry);
                    self.insert(key, Arc::clone(&entry));
                    Metrics::inc(&metrics.cache_misses);
                    return Ok(Resolved::fresh(entry, false));
                }
                Ok(Err(msg)) => msg,
                Err(_) => "characterization panicked".to_string(),
            }
        };
        // Rung 2.
        Metrics::inc(&metrics.charac_failures);
        xtalk_obs::counter!("serve.charac.failure");
        let newest = self
            .lkg
            .lock()
            .expect("last-known-good table poisoned")
            .get(&key.lkg_key())
            .cloned();
        let Some((built, entry)) = newest else { return Err(failure) };
        if built == key {
            // The store lookup failed but the table holds this very
            // entry: not actually stale.
            return Ok(Resolved::fresh(entry, true));
        }
        let age = key.epoch.saturating_sub(built.epoch);
        if !(1..=self.stale_ttl_epochs).contains(&age) {
            return Err(failure);
        }
        Metrics::inc(&metrics.degraded_stale);
        xtalk_obs::counter!("serve.charac.stale_fallback");
        Ok(Resolved {
            ctx: SchedulerContext::new(device, &entry.charac),
            entry,
            provenance: Provenance::Stale { epoch: built.epoch, age },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ServeConfig, ServeState};
    use crate::testutil::fault_gate;
    use std::sync::atomic::Ordering;

    fn key(epoch: u64) -> CacheKey {
        CacheKey { device: "d".into(), policy: PolicyName::Truth, rb: None, epoch }
    }

    fn measured(seed: u64, seqs: usize, shots: u64) -> CacheKey {
        CacheKey {
            device: "d".into(),
            policy: PolicyName::OneHop,
            rb: Some(RbSettings { seed, seqs, shots }),
            epoch: 0,
        }
    }

    fn entry() -> Arc<CacheEntry> {
        let device = Device::line(3, 1);
        Arc::new(CacheEntry::new(&device, Characterization::from_ground_truth(&device), None))
    }

    /// The ladder for `(device, policy)` at the current epoch, unbudgeted.
    fn resolve(
        state: &ServeState,
        device: &str,
        policy: &str,
        seed: u64,
        seqs: usize,
        shots: u64,
    ) -> Result<Resolved, String> {
        let snapshot = state.snapshot(device)?;
        resolve_at(state, &snapshot, policy, RbSettings { seed, seqs, shots }, &Budget::unlimited())
    }

    fn resolve_at(
        state: &ServeState,
        snapshot: &Snapshot,
        policy: &str,
        rb: RbSettings,
        budget: &Budget,
    ) -> Result<Resolved, String> {
        let policy = PolicyName::parse(policy)?;
        state.cache.resolve(snapshot, policy, rb, budget, &state.metrics)
    }

    fn lkg_len(state: &ServeState) -> usize {
        state.cache.lkg.lock().unwrap().len()
    }

    #[test]
    fn hit_after_miss() {
        let cache = CharacCache::new(3);
        assert!(cache.get(&key(0)).is_none());
        let stored = entry();
        cache.insert(key(0), Arc::clone(&stored));
        let hit = cache.get(&key(0)).expect("stored entry must hit");
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = CharacCache::new(3);
        let keys = [
            key(0),
            measured(7, 3, 96),
            measured(8, 3, 96),
            measured(7, 4, 96),
            measured(7, 3, 128),
        ];
        for k in &keys {
            assert!(cache.get(k).is_none(), "{k:?} must not hit another key's entry");
            cache.insert(k.clone(), entry());
        }
        assert_eq!(cache.len(), keys.len());
    }

    #[test]
    fn epoch_invalidation() {
        let cache = CharacCache::new(3);
        cache.insert(key(0), entry());
        cache.insert(key(1), entry());
        cache.invalidate_before(1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0)).is_none(), "epoch-0 entry must be gone");
        assert!(cache.get(&key(1)).is_some(), "epoch-1 entry must survive");
    }

    #[test]
    fn charac_and_compile_artifacts_share_the_store() {
        let cache = CharacCache::new(3);
        cache.insert(key(0), entry());
        // A compile artifact under another pass id coexists but is not
        // counted as a characterization.
        let artifacts = cache.artifacts();
        artifacts.put("lower", 1, &EpochToken::new("d", 0), Arc::new(1u64));
        assert_eq!(cache.len(), 1);
        assert_eq!(artifacts.len(), 2);
        // One sweep invalidates both kinds.
        cache.invalidate_before(1);
        assert_eq!(artifacts.len(), 0);
    }

    #[test]
    fn characterization_caches_until_day_advances() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let src = |state: &ServeState| {
            resolve(state, "boeblingen", "truth", 7, 3, 96).unwrap().provenance
        };
        assert_eq!(src(&state), Provenance::Fresh { cached: false });
        assert_eq!(src(&state), Provenance::Fresh { cached: true });
        state.advance_day();
        let rebuilt = src(&state);
        assert_eq!(rebuilt, Provenance::Fresh { cached: false }, "drift must invalidate");
        assert_eq!(state.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn measured_policies_key_on_their_rb_settings() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let a = resolve(&state, "boeblingen", "onehop", 7, 1, 32).unwrap();
        assert_eq!(a.provenance, Provenance::Fresh { cached: false });
        // Same seed, different shots: different RB data, so a fresh build.
        let b = resolve(&state, "boeblingen", "onehop", 7, 1, 48).unwrap();
        assert_eq!(b.provenance, Provenance::Fresh { cached: false });
        assert_ne!(a.entry.report, b.entry.report);
        // Settings below the floors clamp to the same effective run.
        let c = resolve(&state, "boeblingen", "onehop", 7, 0, 8).unwrap();
        assert_eq!(c.provenance, Provenance::Fresh { cached: false });
        let d = resolve(&state, "boeblingen", "onehop", 7, 1, 16).unwrap();
        assert_eq!(d.provenance, Provenance::Fresh { cached: true });
        assert_eq!(state.cache.len(), 3);
    }

    #[test]
    fn store_fault_does_not_pass_other_rb_settings_off_as_fresh() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        resolve(&state, "boeblingen", "onehop", 7, 1, 32).unwrap();
        xtalk_fault::install_spec("cache.lookup:err:1.0", 1).unwrap();
        // The side table holds this epoch's tables for seed 7, but at
        // other shots: neither fresh nor stale, so the ladder is exhausted.
        let err = resolve(&state, "boeblingen", "onehop", 7, 1, 48).unwrap_err();
        let same = resolve(&state, "boeblingen", "onehop", 7, 1, 32);
        xtalk_fault::clear();
        assert!(err.contains("store unavailable"), "unexpected error: {err}");
        assert_eq!(same.unwrap().provenance, Provenance::Fresh { cached: true });
    }

    #[test]
    fn truth_ignores_the_seed() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let first = resolve(&state, "poughkeepsie", "truth", 1, 3, 96).unwrap();
        assert_eq!(first.provenance, Provenance::Fresh { cached: false });
        for seed in 2..6 {
            let again = resolve(&state, "poughkeepsie", "truth", seed, 1, 32).unwrap();
            assert_eq!(again.provenance, Provenance::Fresh { cached: true }, "seed {seed}");
            assert_eq!(again.entry.charac, first.entry.charac);
        }
        assert_eq!(state.cache.len(), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn preset_and_short_device_names_share_an_entry() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let short = resolve(&state, "poughkeepsie", "truth", 7, 3, 96).unwrap();
        let preset = resolve(&state, "ibmq_poughkeepsie", "truth", 7, 3, 96).unwrap();
        assert_eq!(preset.provenance, Provenance::Fresh { cached: true });
        assert!(Arc::ptr_eq(&short.entry, &preset.entry));
    }

    #[test]
    fn failed_rebuild_falls_back_to_stale_lkg_within_ttl() {
        let _gate = fault_gate();
        let config = ServeConfig {
            stale_ttl_epochs: 2,
            ..ServeConfig::default()
        };
        let state = ServeState::new(config);
        let fresh = resolve(&state, "boeblingen", "truth", 7, 1, 32).unwrap();
        assert_eq!(fresh.provenance, Provenance::Fresh { cached: false });
        state.advance_day();
        // Every build from now on fails.
        xtalk_fault::install_spec("charac.run:err:1.0", 1).unwrap();
        let stale = resolve(&state, "boeblingen", "truth", 7, 1, 32).unwrap();
        assert_eq!(stale.provenance, Provenance::Stale { epoch: 0, age: 1 });
        assert_eq!(stale.entry.charac, fresh.entry.charac, "stale entry must be the day-0 tables");
        // The stale tables are scheduled under the current calibration.
        let now = state.snapshot("boeblingen").unwrap();
        assert_eq!(stale.ctx, SchedulerContext::new(&now.device, &fresh.entry.charac));
        // Past the TTL the ladder is exhausted at this level.
        state.advance_day();
        state.advance_day();
        let err = resolve(&state, "boeblingen", "truth", 7, 1, 32).unwrap_err();
        assert!(err.contains("characterization failed"), "unexpected error: {err}");
        xtalk_fault::clear();
        assert!(state.metrics.degraded_stale.load(Ordering::Relaxed) >= 1);
        assert!(state.metrics.charac_failures.load(Ordering::Relaxed) >= 2);
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
        let err = resolve_at(&state, &snapshot, "onehop", rb, &dead).unwrap_err();
        assert!(err.contains("budget exhausted"), "unexpected error: {err}");
        assert_eq!(state.cache.len(), 0, "partial tables must not be cached");
        assert_eq!(lkg_len(&state), 0, "partial tables must not be remembered");
        // A later unbudgeted request rebuilds from scratch and succeeds.
        let built = resolve(&state, "boeblingen", "onehop", 7, 1, 32).unwrap();
        assert_eq!(built.provenance, Provenance::Fresh { cached: false });
        // Once an LKG exists, a truncated rebuild after drift degrades to
        // the stale entry instead of failing.
        state.advance_day();
        let snapshot = state.snapshot("boeblingen").unwrap();
        let stale = resolve_at(&state, &snapshot, "onehop", rb, &dead).unwrap();
        assert_eq!(stale.provenance, Provenance::Stale { epoch: 0, age: 1 });
    }

    #[test]
    fn store_fault_with_current_lkg_is_not_stale() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let built = resolve(&state, "poughkeepsie", "truth", 9, 1, 32).unwrap();
        assert_eq!(built.provenance, Provenance::Fresh { cached: false });
        // The store lookup fails, but the LKG side-table has a
        // current-epoch entry: served fresh, not flagged stale.
        xtalk_fault::install_spec("cache.lookup:err:1.0", 1).unwrap();
        let again = resolve(&state, "poughkeepsie", "truth", 9, 1, 32);
        xtalk_fault::clear();
        assert_eq!(again.unwrap().provenance, Provenance::Fresh { cached: true });
    }

    /// A build that started before an `advance_day` and finishes after
    /// the next epoch's build must not replace the newer last-known-good.
    #[test]
    fn late_build_of_an_older_epoch_keeps_the_newer_lkg() {
        let _gate = fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let day0 = state.snapshot("boeblingen").unwrap();
        state.advance_day();
        let day1 = state.snapshot("boeblingen").unwrap();
        let rb = RbSettings { seed: 7, seqs: 1, shots: 32 };
        let unlimited = Budget::unlimited();
        resolve_at(&state, &day1, "truth", rb, &unlimited).unwrap();
        // The day-0 build lands last.
        resolve_at(&state, &day0, "truth", rb, &unlimited).unwrap();
        state.advance_day();
        xtalk_fault::install_spec("charac.run:err:1.0", 1).unwrap();
        let stale = resolve(&state, "boeblingen", "truth", 7, 1, 32);
        xtalk_fault::clear();
        assert_eq!(stale.unwrap().provenance, Provenance::Stale { epoch: 1, age: 1 });
    }

    /// A build of an epoch `advance_day` has already swept is served but
    /// not stored: no lookup could reach it.
    #[test]
    fn late_build_of_a_swept_epoch_is_not_stored() {
        let _gate = fault_gate();
        let config = ServeConfig {
            stale_ttl_epochs: 1,
            ..ServeConfig::default()
        };
        let state = ServeState::new(config);
        let day0 = state.snapshot("boeblingen").unwrap();
        state.advance_day();
        let rb = RbSettings { seed: 7, seqs: 1, shots: 32 };
        let unlimited = Budget::unlimited();
        let late = resolve_at(&state, &day0, "truth", rb, &unlimited).unwrap();
        assert_eq!(late.provenance, Provenance::Fresh { cached: false });
        assert_eq!(state.cache.len(), 0, "a swept epoch's build must not be stored");
        assert_eq!(state.cache.artifacts().len(), 0);
        // Within the TTL it still backs rung 2 …
        assert_eq!(lkg_len(&state), 1);
        // … past it, it is not remembered either.
        state.advance_day();
        resolve_at(&state, &day0, "truth", rb, &unlimited).unwrap();
        assert_eq!(lkg_len(&state), 0);
    }

    /// Per-request seeds give a measured policy one last-known-good slot
    /// each; `advance_day` drops those rung 2 can no longer serve.
    #[test]
    fn advance_day_prunes_lkg_entries_past_the_ttl() {
        let _gate = fault_gate();
        let config = ServeConfig {
            stale_ttl_epochs: 1,
            ..ServeConfig::default()
        };
        let state = ServeState::new(config);
        for seed in 1..=3 {
            resolve(&state, "boeblingen", "onehop", seed, 1, 16).unwrap();
        }
        resolve(&state, "poughkeepsie", "truth", 7, 1, 16).unwrap();
        assert_eq!(lkg_len(&state), 4);
        // One epoch old: still within the TTL.
        state.advance_day();
        assert_eq!(lkg_len(&state), 4);
        resolve(&state, "poughkeepsie", "truth", 7, 1, 16).unwrap();
        // Two epochs old: past it. Only the epoch-1 truth build is left.
        state.advance_day();
        assert_eq!(lkg_len(&state), 1);
        state.advance_day();
        assert_eq!(lkg_len(&state), 0);
    }
}
