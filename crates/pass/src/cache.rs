//! Content-addressed artifact cache.
//!
//! Keys are `(pass id, input-content hash, device epoch)`: the hash covers
//! the input artifact *and* the pass configuration (folded in by
//! [`crate::Pass::config_hash`]), and the epoch pins the device state the
//! artifact was derived from, so calibration drift can never serve stale
//! compilation results.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of a device state: device name plus drift epoch.
///
/// Epoch counters are per-fleet (the serve layer bumps one counter on
/// `advance_day`), so the device name must be part of cache identity —
/// epoch 3 of `ibmq_poughkeepsie` shares nothing with epoch 3 of
/// `ibmq_johannesburg`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EpochToken {
    device: String,
    epoch: u64,
}

impl EpochToken {
    /// Token for `device` at drift `epoch`.
    pub fn new(device: impl Into<String>, epoch: u64) -> EpochToken {
        EpochToken { device: device.into(), epoch }
    }

    /// Device name.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Drift epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Full cache key for one artifact.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ArtifactKey {
    pass: &'static str,
    input_hash: u64,
    epoch: EpochToken,
}

/// Thread-safe content-addressed store of pass outputs.
///
/// Values are type-erased (`Arc<dyn Any>`); [`ArtifactCache::get`]
/// downcasts back to the pass's concrete output type. A key collision
/// across *types* would require two passes sharing an id with different
/// output types — get returns `None` (a miss) in that case rather than
/// panicking.
#[derive(Default)]
pub struct ArtifactCache {
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The artifacts, and the oldest epoch they may come from: the floor the
/// last [`ArtifactCache::invalidate_before`] set. Both live under one
/// lock, so a `put` racing an invalidation either lands before the sweep
/// (and is swept) or sees the new floor (and is dropped).
#[derive(Default)]
struct Store {
    map: HashMap<ArtifactKey, Arc<dyn Any + Send + Sync>>,
    floor: u64,
}

impl ArtifactCache {
    /// Empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Looks up the artifact `pass` produced for `input_hash` at `epoch`.
    ///
    /// Counts a hit or miss (also mirrored to the obs counters
    /// `pass.cache.hit` / `pass.cache.miss`).
    pub fn get<T: Send + Sync + 'static>(
        &self,
        pass: &'static str,
        input_hash: u64,
        epoch: &EpochToken,
    ) -> Option<Arc<T>> {
        let key = ArtifactKey { pass, input_hash, epoch: epoch.clone() };
        let found = self
            .store
            .lock()
            .expect("artifact cache poisoned")
            .map
            .get(&key)
            .cloned()
            .and_then(|a| a.downcast::<T>().ok());
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                xtalk_obs::counter!("pass.cache.hit", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                xtalk_obs::counter!("pass.cache.miss", 1);
            }
        }
        found
    }

    /// Stores `value` as the artifact of `pass` for `input_hash` at
    /// `epoch`, replacing any previous entry. An artifact of an epoch
    /// already invalidated — one whose build started before the drift
    /// clock advanced and finished after — is dropped: no lookup could
    /// reach it.
    pub fn put<T: Send + Sync + 'static>(
        &self,
        pass: &'static str,
        input_hash: u64,
        epoch: &EpochToken,
        value: Arc<T>,
    ) {
        let mut store = self.store.lock().expect("artifact cache poisoned");
        if epoch.epoch < store.floor {
            return;
        }
        let key = ArtifactKey { pass, input_hash, epoch: epoch.clone() };
        store.map.insert(key, value);
    }

    /// Total lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.store.lock().expect("artifact cache poisoned").map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored artifacts produced by `pass`.
    pub fn len_of(&self, pass: &str) -> usize {
        self.store
            .lock()
            .expect("artifact cache poisoned")
            .map
            .keys()
            .filter(|k| k.pass == pass)
            .count()
    }

    /// Drops every artifact derived from an epoch older than `epoch`
    /// (any device), and every later `put` of one. Called when the drift
    /// clock advances; the floor never moves back.
    pub fn invalidate_before(&self, epoch: u64) {
        let mut store = self.store.lock().expect("artifact cache poisoned");
        store.floor = store.floor.max(epoch);
        let floor = store.floor;
        store.map.retain(|k, _| k.epoch.epoch >= floor);
    }

    /// The oldest epoch an artifact may be stored for: the largest epoch
    /// [`ArtifactCache::invalidate_before`] was called with (0 before).
    pub fn floor(&self) -> u64 {
        self.store.lock().expect("artifact cache poisoned").floor
    }

    /// Drops everything (counters and the floor are kept).
    pub fn clear(&self) {
        self.store.lock().expect("artifact cache poisoned").map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put() {
        let cache = ArtifactCache::new();
        let epoch = EpochToken::new("dev", 0);
        assert!(cache.get::<String>("p", 1, &epoch).is_none());
        cache.put("p", 1, &epoch, Arc::new("art".to_string()));
        let got = cache.get::<String>("p", 1, &epoch).unwrap();
        assert_eq!(*got, "art");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn epoch_isolates() {
        let cache = ArtifactCache::new();
        cache.put("p", 1, &EpochToken::new("dev", 0), Arc::new(7u64));
        assert!(cache.get::<u64>("p", 1, &EpochToken::new("dev", 1)).is_none());
        assert!(cache.get::<u64>("p", 1, &EpochToken::new("other", 0)).is_none());
        assert!(cache.get::<u64>("p", 1, &EpochToken::new("dev", 0)).is_some());
    }

    #[test]
    fn invalidation_drops_old_epochs() {
        let cache = ArtifactCache::new();
        cache.put("p", 1, &EpochToken::new("dev", 0), Arc::new(1u64));
        cache.put("p", 2, &EpochToken::new("dev", 5), Arc::new(2u64));
        cache.invalidate_before(5);
        assert_eq!(cache.len(), 1);
        assert!(cache.get::<u64>("p", 2, &EpochToken::new("dev", 5)).is_some());
    }

    #[test]
    fn puts_below_the_invalidation_floor_are_dropped() {
        let cache = ArtifactCache::new();
        cache.invalidate_before(2);
        // A build of epoch 1 that finishes after the sweep.
        cache.put("p", 1, &EpochToken::new("dev", 1), Arc::new(1u64));
        assert_eq!(cache.len(), 0);
        cache.put("p", 1, &EpochToken::new("dev", 2), Arc::new(2u64));
        assert_eq!(cache.len(), 1);
        // The floor never moves back.
        cache.invalidate_before(1);
        assert_eq!(cache.floor(), 2);
        cache.put("p", 2, &EpochToken::new("dev", 1), Arc::new(3u64));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn wrong_type_is_a_miss() {
        let cache = ArtifactCache::new();
        let epoch = EpochToken::new("dev", 0);
        cache.put("p", 1, &epoch, Arc::new(3u64));
        assert!(cache.get::<String>("p", 1, &epoch).is_none());
    }

    #[test]
    fn len_of_counts_per_pass() {
        let cache = ArtifactCache::new();
        let epoch = EpochToken::new("dev", 0);
        cache.put("a", 1, &epoch, Arc::new(1u64));
        cache.put("a", 2, &epoch, Arc::new(2u64));
        cache.put("b", 1, &epoch, Arc::new(3u64));
        assert_eq!(cache.len_of("a"), 2);
        assert_eq!(cache.len_of("b"), 1);
        assert_eq!(cache.len(), 3);
    }
}
