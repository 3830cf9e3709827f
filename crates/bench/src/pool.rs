//! A bounded worker pool for the experiment harness.
//!
//! All parallelism in the harness funnels through one [`Gate`]: a counting
//! semaphore whose permit count is the `--jobs` bound. Experiments submit
//! *leaf* jobs (one simulated run, one topology's plans, …) via
//! [`Gate::map`]; at most `permits` leaves execute at any instant no matter
//! how many experiments fan out concurrently.
//!
//! Two invariants keep this simple scheme correct:
//!
//! * **Leaves never nest.** Only leaf closures hold a permit; orchestration
//!   code (experiment bodies, aggregation) runs permit-free, so waiting for
//!   `map` to finish can never deadlock on the gate.
//! * **Results keep input order.** `map` returns outputs indexed by input
//!   position, and every leaf derives its randomness from its own seed, so
//!   results are byte-identical for any permit count — FoundationDB-style
//!   determinism: the schedule may vary, the outcome may not.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// RAII permit: released on drop, so panicking leaf jobs cannot leak
/// permits and starve the pool.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Counting semaphore bounding concurrently running leaf jobs.
pub(crate) struct Gate {
    capacity: usize,
    available: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    /// A gate admitting `permits` concurrent leaves (minimum 1).
    pub(crate) fn new(permits: usize) -> Self {
        let capacity = permits.max(1);
        Gate {
            capacity,
            available: Mutex::new(capacity),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut available = self.available.lock().expect("gate poisoned");
        while *available == 0 {
            available = self.cv.wait(available).expect("gate poisoned");
        }
        *available -= 1;
    }

    fn release(&self) {
        let mut available = self.available.lock().expect("gate poisoned");
        *available += 1;
        self.cv.notify_one();
    }

    /// Acquires a permit held for the guard's lifetime (released on drop,
    /// including unwinds).
    fn permit(&self) -> Permit<'_> {
        self.acquire();
        Permit(self)
    }

    /// Applies `f` to every item on worker threads, with at most the
    /// gate's permit count of leaves running at once globally, and returns
    /// the results in input order.
    ///
    /// `f` must not call `map` again (leaves never nest — see module docs).
    pub(crate) fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // Workers pull indices from a shared cursor; the permit gate (shared
        // across every concurrent `map` call in the process) bounds how many
        // are actually running.
        let workers = self.capacity.min(n);
        let slots: Vec<Mutex<Option<T>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced: Vec<(usize, U)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let item = slots[i]
                                .lock()
                                .expect("slot poisoned")
                                .take()
                                .expect("each slot is taken once");
                            // The guard releases the permit even if `f`
                            // panics — a leaked permit would deadlock every
                            // other worker instead of surfacing the panic.
                            let permit = self.permit();
                            let result = f(item);
                            drop(permit);
                            produced.push((i, result));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("pool worker panicked") {
                    out[i] = Some(result);
                }
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every index produced"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        let gate = Gate::new(4);
        let out = gate.map((0..100).collect(), |i: usize| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_on_empty_input() {
        let gate = Gate::new(4);
        let out: Vec<usize> = gate.map(Vec::<usize>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn serial_gate_runs_one_at_a_time() {
        let gate = Gate::new(1);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        gate.map((0..16).collect(), |_: usize| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn permit_bound_holds_across_concurrent_maps() {
        let gate = Gate::new(3);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    gate.map((0..8).collect(), |_: usize| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn panicking_leaf_does_not_leak_permits() {
        let gate = Gate::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gate.map(vec![0usize], |_| -> usize { panic!("boom") });
        }));
        assert!(result.is_err(), "the leaf panic propagates");
        // The sole permit was released on unwind; the gate still works.
        assert_eq!(gate.map(vec![1, 2, 3], |i: usize| i), vec![1, 2, 3]);
    }

    #[test]
    fn results_identical_for_any_permit_count() {
        let work = |i: u64| {
            // Pure function of the item — the determinism contract.
            let mut acc = i;
            for _ in 0..50 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let serial = Gate::new(1).map((0..64).collect(), work);
        let parallel = Gate::new(8).map((0..64).collect(), work);
        assert_eq!(serial, parallel);
    }
}
