//! A per-run memo for values that several sweep points share.
//!
//! Experiments often need the same expensive, deterministic input in many
//! points: every Table 2, Figure 5 and validation point of one benchmark
//! configuration starts from the same trace characterisation. The memo
//! computes each such value once per run and hands clones to every later
//! caller, from any worker thread.
//!
//! Scope is one [`SweepConfig`](crate::SweepConfig) and its clones, never
//! the process, and nothing is written to disk: a memoized value must be a
//! function of its key alone — never of [`PointCtx::seed`](crate::PointCtx),
//! the schedule or the point cache — so whether a caller computed it or
//! reused it cannot change a byte of any artifact.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// One key's value, computed by the first caller; later callers wait on it.
type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// Values keyed by `(type, key)`, each computed at most once (see the
/// module docs for the scope and the purity rule).
#[derive(Default)]
pub struct Memo {
    slots: Mutex<HashMap<(TypeId, String), Slot>>,
}

impl Memo {
    /// Returns the value stored under `key` for type `T`, running `f` to
    /// compute it if no caller has yet. Concurrent callers of one key wait
    /// for a single computation. If `f` panics, the panic propagates and
    /// the key stays uncomputed, so a later caller computes it afresh.
    pub fn get_or_compute<T, F>(&self, key: &str, f: F) -> T
    where
        T: Any + Send + Sync + Clone,
        F: FnOnce() -> T,
    {
        // Release the map before computing: other keys must not wait on
        // this one.
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("memo lock")
                .entry((TypeId::of::<T>(), key.to_owned()))
                .or_default(),
        );
        let value = slot.get_or_init(|| Arc::new(f()));
        value.downcast_ref::<T>().expect("memo slots are keyed by their type").clone()
    }

    /// Number of values computed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().expect("memo lock").values().filter(|s| s.get().is_some()).count()
    }

    /// Whether no value has been computed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn concurrent_callers_of_one_key_compute_once() {
        let memo = Memo::default();
        let calls = AtomicUsize::new(0);
        let arrived = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let values: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        arrived.fetch_add(1, Ordering::SeqCst);
                        memo.get_or_compute("k", || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Finish only once every caller is on its way in.
                            while arrived.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            42u64
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(values, vec![42; 8]);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn one_key_under_two_types_is_two_entries() {
        let memo = Memo::default();
        assert_eq!(memo.get_or_compute("k", || 7u32), 7);
        assert_eq!(memo.get_or_compute("k", || "seven".to_owned()), "seven");
        // Both stay put: neither computation runs again.
        assert_eq!(memo.get_or_compute("k", || 8u32), 7);
        assert_eq!(memo.get_or_compute("k", || "eight".to_owned()), "seven");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn clones_of_a_config_share_the_memo_and_new_configs_start_empty() {
        let cfg = SweepConfig::new(0);
        let clone = cfg.clone().jobs(3);
        assert_eq!(cfg.memo().get_or_compute("k", || 1u8), 1);
        assert_eq!(clone.memo().get_or_compute("k", || 2u8), 1);
        assert_eq!(clone.memo().len(), 1);
        let fresh = SweepConfig::new(0);
        assert!(fresh.memo().is_empty());
        assert_eq!(fresh.memo().get_or_compute("k", || 2u8), 2);
    }

    #[test]
    fn a_panicking_computation_leaves_the_key_computable() {
        let memo = Memo::default();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_compute::<u32, _>("k", || panic!("computation failed"))
        }));
        assert!(failed.is_err());
        assert!(memo.is_empty());
        assert_eq!(memo.get_or_compute("k", || 5u32), 5);
        assert_eq!(memo.len(), 1);
    }
}
