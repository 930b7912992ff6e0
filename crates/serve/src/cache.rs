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

/// A cached characterization plus (for measured policies) its cost report.
#[derive(Clone, PartialEq, Debug)]
pub struct CacheEntry {
    /// The compiler-facing error tables.
    pub charac: Characterization,
    /// Cost accounting; `None` for the free `truth` policy.
    pub report: Option<CharacterizationReport>,
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

    /// Looks up `key`; on a miss, runs `build` (outside the lock — two
    /// racing misses may both build, last write wins, both results are
    /// identical because characterization is deterministic in the key)
    /// and stores the result. Returns the entry and whether it was a hit.
    pub fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> CacheEntry,
    ) -> (Arc<CacheEntry>, bool) {
        if let Some(hit) = self.get(&key) {
            return (hit, true);
        }
        let entry = Arc::new(build());
        self.insert(key, entry.clone());
        (entry, false)
    }

    /// Direct lookup without building.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let (hash, epoch) = key.coords();
        self.artifacts.get::<CacheEntry>(PASS_ID, hash, &epoch)
    }

    /// Stores an entry (used by the fallible-build path in
    /// [`crate::state::ServeState::characterization`], which cannot use
    /// [`CharacCache::get_or_build`]'s infallible closure).
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
    use xtalk_device::Device;

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

    fn entry() -> CacheEntry {
        let device = Device::line(3, 1);
        CacheEntry { charac: Characterization::from_ground_truth(&device), report: None }
    }

    #[test]
    fn hit_after_miss() {
        let cache = CharacCache::new();
        let (_, hit) = cache.get_or_build(key(0), entry);
        assert!(!hit);
        let (_, hit) = cache.get_or_build(key(0), || panic!("must not rebuild"));
        assert!(hit);
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
            let (_, hit) = cache.get_or_build(k.clone(), entry);
            assert!(!hit, "{k:?} must not hit another key's entry");
        }
        assert_eq!(cache.len(), keys.len());
    }

    #[test]
    fn epoch_invalidation() {
        let cache = CharacCache::new();
        cache.get_or_build(key(0), entry);
        cache.get_or_build(key(1), entry);
        cache.invalidate_before(1);
        assert_eq!(cache.len(), 1);
        let (_, hit) = cache.get_or_build(key(0), entry);
        assert!(!hit, "epoch-0 entry must be gone");
        let (_, hit) = cache.get_or_build(key(1), || panic!("epoch-1 entry must survive"));
        assert!(hit);
    }

    #[test]
    fn charac_and_compile_artifacts_share_the_store() {
        let artifacts = Arc::new(ArtifactCache::new());
        let cache = CharacCache::over(Arc::clone(&artifacts));
        cache.insert(key(0), Arc::new(entry()));
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
