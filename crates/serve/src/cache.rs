//! Characterization cache with drift-aware invalidation.
//!
//! Characterization is the expensive step of the paper's toolflow (hours
//! of machine time at paper scale), and its product stays valid until the
//! next calibration day. Since PR 5 this is a *typed layer over the
//! content-addressed [`ArtifactCache`]* from `xtalk-pass`: entries live
//! under pass id `"charac"`, addressed by the FNV-1a hash of everything
//! the tables depend on (the policy, plus a measured policy's RB
//! settings) and the [`EpochToken`] of `(device, epoch)` — the same store
//! that holds compile artifacts, so one `advance_day` invalidation sweep
//! covers characterizations and compilation results alike, and charac
//! lookups show up in the `pass.cache.hit`/`miss` profiling counters.

use std::sync::Arc;
use xtalk_charac::{Characterization, CharacterizationReport};
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
    /// Device name.
    pub device: String,
    /// Policy name (`truth`, `all`, `onehop`, `binpacked`).
    pub policy: String,
    /// The RB settings of a measured policy; `None` for `truth`, whose
    /// tables are read off the device model whatever the seed.
    pub rb: Option<RbSettings>,
    /// Calibration epoch the run is valid for.
    pub epoch: u64,
}

impl CacheKey {
    /// The artifact-cache coordinates: content hash of the request
    /// parameters plus the device-epoch token.
    fn coords(&self) -> (u64, EpochToken) {
        let mut h = Fnv1a::new();
        h.write_str(&self.policy);
        if let Some(rb) = self.rb {
            h.write_u64(rb.seed);
            h.write_usize(rb.seqs);
            h.write_u64(rb.shots);
        }
        (h.finish(), EpochToken::new(self.device.clone(), self.epoch))
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

/// The pass id characterization entries are stored under.
const PASS_ID: &str = "charac";

/// Thread-safe characterization store over a shared [`ArtifactCache`].
pub struct CharacCache {
    artifacts: Arc<ArtifactCache>,
}

impl Default for CharacCache {
    fn default() -> Self {
        CharacCache::new()
    }
}

impl CharacCache {
    /// An empty cache over a private artifact store.
    pub fn new() -> Self {
        CharacCache::over(Arc::new(ArtifactCache::new()))
    }

    /// A characterization layer over an existing artifact store — the
    /// serving configuration, where compile artifacts share the store.
    pub fn over(artifacts: Arc<ArtifactCache>) -> Self {
        CharacCache { artifacts }
    }

    /// The underlying artifact store.
    pub fn artifacts(&self) -> &Arc<ArtifactCache> {
        &self.artifacts
    }

    /// Looks up `key`.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let (hash, epoch) = key.coords();
        self.artifacts.get::<CacheEntry>(PASS_ID, hash, &epoch)
    }

    /// Stores an entry.
    pub fn insert(&self, key: CacheKey, entry: Arc<CacheEntry>) {
        let (hash, epoch) = key.coords();
        self.artifacts.put(PASS_ID, hash, &epoch, entry);
    }

    /// Drops every entry from an epoch before `epoch` — called when the
    /// calibration day advances. Sweeps the whole shared artifact store,
    /// compile artifacts included: drifted calibration invalidates both.
    pub fn invalidate_before(&self, epoch: u64) {
        self.artifacts.invalidate_before(epoch);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64) -> CacheKey {
        CacheKey { device: "d".into(), policy: "truth".into(), rb: None, epoch }
    }

    fn measured(seed: u64, seqs: usize, shots: u64) -> CacheKey {
        CacheKey {
            device: "d".into(),
            policy: "onehop".into(),
            rb: Some(RbSettings { seed, seqs, shots }),
            epoch: 0,
        }
    }

    fn entry() -> Arc<CacheEntry> {
        let device = Device::line(3, 1);
        Arc::new(CacheEntry::new(&device, Characterization::from_ground_truth(&device), None))
    }

    #[test]
    fn hit_after_miss() {
        let cache = CharacCache::new();
        assert!(cache.get(&key(0)).is_none());
        let stored = entry();
        cache.insert(key(0), Arc::clone(&stored));
        let hit = cache.get(&key(0)).expect("stored entry must hit");
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = CharacCache::new();
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
        let cache = CharacCache::new();
        cache.insert(key(0), entry());
        cache.insert(key(1), entry());
        cache.invalidate_before(1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0)).is_none(), "epoch-0 entry must be gone");
        assert!(cache.get(&key(1)).is_some(), "epoch-1 entry must survive");
    }

    #[test]
    fn charac_and_compile_artifacts_share_the_store() {
        let artifacts = Arc::new(ArtifactCache::new());
        let cache = CharacCache::over(Arc::clone(&artifacts));
        cache.insert(key(0), entry());
        // A compile artifact under another pass id coexists but is not
        // counted as a characterization.
        artifacts.put("lower", 1, &EpochToken::new("d", 0), Arc::new(1u64));
        assert_eq!(cache.len(), 1);
        assert_eq!(artifacts.len(), 2);
        // One sweep invalidates both kinds.
        cache.invalidate_before(1);
        assert_eq!(artifacts.len(), 0);
    }
}
