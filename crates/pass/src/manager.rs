//! The pass abstraction and the manager that runs pipelines of passes.
//!
//! A [`Pass`] is one stage of the compile flow with a typed, hashable
//! input and a typed output. The [`PassManager`] is the single place the
//! cross-cutting machinery lives: every pass run gets an obs span
//! (`pass.<id>`), a fault point (`pass.<id>`), the manager's budget, and
//! a content-addressed cache lookup keyed by
//! `(pass id, FNV-1a(input + config), device epoch)`.
//!
//! Budgets follow one rule: every pass runs, and only the passes that
//! read their budget act on it. The manager never refuses to start a
//! pass; an anytime pass (a search, a shot loop) threads the budget into
//! its own loop and returns an honest partial when it runs out.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use xtalk_budget::Budget;

use crate::cache::{ArtifactCache, EpochToken};
use crate::hash::{ContentHash, Fnv1a};

/// One stage of the compile/execute flow.
pub trait Pass {
    /// Input artifact; its content hash (plus [`Pass::config_hash`])
    /// addresses the cache.
    type Input: ContentHash + ?Sized;
    /// Output artifact, shared via `Arc` between cache and callers.
    type Output: Send + Sync + 'static;
    /// Stage-specific failure.
    type Err;

    /// Stable identifier; names the span, fault point and cache rows.
    fn id(&self) -> &'static str;

    /// Folds the pass configuration (and any context it closes over,
    /// e.g. a characterization) into the cache key. Default: none.
    fn config_hash(&self, _h: &mut Fnv1a) {}

    /// `false` opts the pass out of caching entirely (e.g. execution,
    /// whose output depends on the shot budget rather than the input
    /// artifact alone). Default: cacheable.
    fn cacheable(&self) -> bool {
        true
    }

    /// Per-output veto: return `false` to keep a produced artifact out
    /// of the cache (e.g. a budget-truncated schedule that a later,
    /// better-funded run should redo). Default: cache it.
    fn cache_output(&self, _out: &Self::Output) -> bool {
        true
    }

    /// Does the work. An anytime pass polls `budget` in its own loop and
    /// returns an honest partial (truncated schedule, 0-shot outcome)
    /// once it is exhausted; other passes ignore it.
    fn run(&self, input: &Self::Input, budget: &Budget) -> Result<Self::Output, Self::Err>;
}

/// Failure of a managed pass run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PassError<E> {
    /// An injected fault fired at `pass.<id>`.
    Fault(String),
    /// The pass itself failed.
    Pass(E),
}

impl<E: fmt::Display> fmt::Display for PassError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Fault(msg) => write!(f, "injected fault: {msg}"),
            PassError::Pass(e) => e.fmt(f),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> Error for PassError<E> {}

/// Runs passes, applying spans, fault points and the artifact cache
/// uniformly, and handing each pass the manager's budget.
///
/// Cheap to construct; clones share the underlying cache (it is held by
/// `Arc`), so one long-lived cache can back many managers with different
/// budgets or epochs.
#[derive(Clone)]
pub struct PassManager {
    cache: Arc<ArtifactCache>,
    epoch: EpochToken,
    budget: Budget,
}

impl PassManager {
    /// Manager with a private empty cache at `epoch`.
    pub fn new(epoch: EpochToken) -> PassManager {
        PassManager::with_cache(Arc::new(ArtifactCache::new()), epoch)
    }

    /// Manager over a shared `cache` at `epoch`.
    pub fn with_cache(cache: Arc<ArtifactCache>, epoch: EpochToken) -> PassManager {
        PassManager { cache, epoch, budget: Budget::unlimited() }
    }

    /// Attaches the execution budget every pass receives. The manager
    /// never polls it: each pass decides whether to act on it.
    pub fn with_budget(mut self, budget: Budget) -> PassManager {
        self.budget = budget;
        self
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The budget every pass receives.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The device epoch artifacts are keyed to.
    pub fn epoch(&self) -> &EpochToken {
        &self.epoch
    }

    /// Runs `pass` on `input` with the cross-cutting machinery applied:
    /// span → fault point → cache lookup → run → cache store (unless
    /// vetoed by [`Pass::cache_output`]). A pass that is not
    /// [`Pass::cacheable`] skips the lookup and the store, and its input is
    /// never hashed.
    pub fn run<P: Pass>(
        &self,
        pass: &P,
        input: &P::Input,
    ) -> Result<Arc<P::Output>, PassError<P::Err>> {
        let _span = if xtalk_obs::enabled() {
            Some(xtalk_obs::span(&format!("pass.{}", pass.id())))
        } else {
            None
        };
        if xtalk_fault::enabled() {
            if let Some(msg) = xtalk_fault::fire(&format!("pass.{}", pass.id())) {
                return Err(PassError::Fault(msg));
            }
        }
        if !pass.cacheable() {
            return Ok(Arc::new(pass.run(input, &self.budget).map_err(PassError::Pass)?));
        }
        let input_hash = {
            let mut h = Fnv1a::new();
            input.content_hash(&mut h);
            pass.config_hash(&mut h);
            h.finish()
        };
        if let Some(hit) = self.cache.get::<P::Output>(pass.id(), input_hash, &self.epoch) {
            return Ok(hit);
        }
        let out = Arc::new(pass.run(input, &self.budget).map_err(PassError::Pass)?);
        if pass.cache_output(&out) {
            self.cache.put(pass.id(), input_hash, &self.epoch, Arc::clone(&out));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Double {
        runs: AtomicU64,
    }

    impl Pass for Double {
        type Input = u64;
        type Output = u64;
        type Err = String;

        fn id(&self) -> &'static str {
            "double"
        }

        fn run(&self, input: &u64, _budget: &Budget) -> Result<u64, String> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            Ok(input * 2)
        }
    }

    #[test]
    fn second_run_is_a_cache_hit() {
        let pm = PassManager::new(EpochToken::new("dev", 0));
        let pass = Double { runs: AtomicU64::new(0) };
        assert_eq!(*pm.run(&pass, &21).unwrap(), 42);
        assert_eq!(*pm.run(&pass, &21).unwrap(), 42);
        assert_eq!(pass.runs.load(Ordering::Relaxed), 1);
        assert_eq!(pm.cache().hits(), 1);
        assert_eq!(*pm.run(&pass, &3).unwrap(), 6);
        assert_eq!(pass.runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn epochs_do_not_share_artifacts() {
        let cache = Arc::new(ArtifactCache::new());
        let pm0 = PassManager::with_cache(Arc::clone(&cache), EpochToken::new("dev", 0));
        let pm1 = PassManager::with_cache(cache, EpochToken::new("dev", 1));
        let pass = Double { runs: AtomicU64::new(0) };
        pm0.run(&pass, &1).unwrap();
        pm1.run(&pass, &1).unwrap();
        assert_eq!(pass.runs.load(Ordering::Relaxed), 2);
    }

    struct Flaky;

    impl Pass for Flaky {
        type Input = u64;
        type Output = u64;
        type Err = String;

        fn id(&self) -> &'static str {
            "flaky"
        }

        fn cache_output(&self, out: &u64) -> bool {
            out.is_multiple_of(2)
        }

        fn run(&self, input: &u64, _budget: &Budget) -> Result<u64, String> {
            Ok(*input)
        }
    }

    #[test]
    fn passes_run_and_see_a_dead_budget() {
        // The manager starts every pass under a dead budget; only a pass
        // that reads the budget acts on it.
        struct Anytime;
        impl Pass for Anytime {
            type Input = u64;
            type Output = u64;
            type Err = String;
            fn id(&self) -> &'static str {
                "anytime"
            }
            fn run(&self, input: &u64, budget: &Budget) -> Result<u64, String> {
                // Honest partial: a dead budget halves the work.
                Ok(if budget.exhausted().is_some() { input / 2 } else { *input })
            }
        }
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let pm = PassManager::new(EpochToken::new("dev", 0)).with_budget(budget);
        assert_eq!(*pm.run(&Anytime, &10).unwrap(), 5);
        let pass = Double { runs: AtomicU64::new(0) };
        assert_eq!(*pm.run(&pass, &21).unwrap(), 42);
        assert_eq!(pass.runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn uncacheable_passes_never_hash_their_input() {
        struct Unhashable(u64);
        impl ContentHash for Unhashable {
            fn content_hash(&self, _h: &mut Fnv1a) {
                panic!("an uncacheable pass's input was hashed");
            }
        }
        struct Execute;
        impl Pass for Execute {
            type Input = Unhashable;
            type Output = u64;
            type Err = String;
            fn id(&self) -> &'static str {
                "execute"
            }
            fn cacheable(&self) -> bool {
                false
            }
            fn run(&self, input: &Unhashable, _budget: &Budget) -> Result<u64, String> {
                Ok(input.0 + 1)
            }
        }
        let pm = PassManager::new(EpochToken::new("dev", 0));
        assert_eq!(*pm.run(&Execute, &Unhashable(1)).unwrap(), 2);
        assert_eq!(*pm.run(&Execute, &Unhashable(1)).unwrap(), 2);
        assert_eq!((pm.cache().len(), pm.cache().hits()), (0, 0));
    }

    #[test]
    fn vetoed_outputs_stay_uncached() {
        let pm = PassManager::new(EpochToken::new("dev", 0));
        pm.run(&Flaky, &3).unwrap();
        assert_eq!(pm.cache().len(), 0);
        pm.run(&Flaky, &4).unwrap();
        assert_eq!(pm.cache().len(), 1);
    }

    #[test]
    fn config_hash_separates_cache_rows() {
        struct AddK(u64);
        impl Pass for AddK {
            type Input = u64;
            type Output = u64;
            type Err = String;
            fn id(&self) -> &'static str {
                "addk"
            }
            fn config_hash(&self, h: &mut Fnv1a) {
                h.write_u64(self.0);
            }
            fn run(&self, input: &u64, _b: &Budget) -> Result<u64, String> {
                Ok(input + self.0)
            }
        }
        let pm = PassManager::new(EpochToken::new("dev", 0));
        assert_eq!(*pm.run(&AddK(1), &10).unwrap(), 11);
        assert_eq!(*pm.run(&AddK(2), &10).unwrap(), 12);
        assert_eq!(pm.cache().len(), 2);
    }
}
