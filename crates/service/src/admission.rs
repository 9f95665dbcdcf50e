//! Per-tenant admission control: a counting gate over buffer frames.
//!
//! Each tenant gets a frame quota. A query reserves its working-set
//! frames before it runs and releases them when its guard drops; a
//! request that would push the tenant over quota waits in a bounded
//! queue, and when the queue is full it is rejected outright. The gate
//! is what keeps one hot tenant from pinning the whole shared pool —
//! the pool itself is tenant-blind, so fairness has to be decided here,
//! before a frame is ever touched.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Lock, recovering from poisoning: the guarded state is two counters
/// whose updates are single assignments, so it is always well-formed
/// even if a holder panicked.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct GateState {
    /// Frames currently reserved by running queries.
    in_use: usize,
    /// Requests parked in the wait queue.
    waiting: usize,
}

/// A tenant's admission gate.
///
/// `admit(cost)` reserves `cost` frames and returns a guard that
/// releases them on drop. A request that does not fit waits (up to
/// `queue_depth` concurrent waiters) for capacity, and is rejected with
/// `None` when the queue is already full. A `cost` larger than the
/// whole quota is still admitted — alone — once the tenant is idle, so
/// an undersized quota degrades to serial execution instead of
/// deadlocking.
pub struct Admission {
    quota: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

/// Outcome of an admission attempt that succeeded.
pub struct AdmitGuard<'a> {
    gate: &'a Admission,
    cost: usize,
    waited: bool,
}

impl AdmitGuard<'_> {
    /// Whether this request was parked in the queue before being
    /// admitted (stamped into the query's `admission_waits` counter).
    pub fn waited(&self) -> bool {
        self.waited
    }
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.gate.state);
        st.in_use = st.in_use.saturating_sub(self.cost);
        drop(st);
        self.gate.freed.notify_all();
    }
}

impl Admission {
    /// A gate admitting up to `quota` reserved frames, with up to
    /// `queue_depth` requests parked beyond that.
    pub fn new(quota: usize, queue_depth: usize) -> Admission {
        Admission {
            quota,
            queue_depth,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    /// True when `cost` more frames fit under the quota (or the tenant
    /// is idle, the oversize escape hatch). Saturating: a huge `cost`
    /// never fits beside another reservation, it never wraps into one.
    fn fits(&self, st: &GateState, cost: usize) -> bool {
        st.in_use == 0 || st.in_use.saturating_add(cost) <= self.quota
    }

    /// Reserve `cost` frames, waiting in the queue if necessary.
    /// `None` means rejected: at quota with a full queue.
    pub fn admit(&self, cost: usize) -> Option<AdmitGuard<'_>> {
        let mut st = lock_recover(&self.state);
        if self.fits(&st, cost) {
            st.in_use = st.in_use.saturating_add(cost);
            return Some(AdmitGuard {
                gate: self,
                cost,
                waited: false,
            });
        }
        if st.waiting >= self.queue_depth {
            return None;
        }
        st.waiting += 1;
        while !self.fits(&st, cost) {
            st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.waiting -= 1;
        st.in_use = st.in_use.saturating_add(cost);
        Some(AdmitGuard {
            gate: self,
            cost,
            waited: true,
        })
    }

    /// Frames currently reserved.
    pub fn in_use(&self) -> usize {
        lock_recover(&self.state).in_use
    }

    /// Requests currently parked in the queue.
    pub fn waiting(&self) -> usize {
        lock_recover(&self.state).waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn admits_within_quota_without_waiting() {
        let gate = Admission::new(200, 2);
        let a = gate.admit(100).expect("fits");
        let b = gate.admit(100).expect("fits exactly");
        assert!(!a.waited() && !b.waited());
        assert_eq!(gate.in_use(), 200);
        drop(a);
        assert_eq!(gate.in_use(), 100);
    }

    #[test]
    fn rejects_when_queue_is_full() {
        let gate = Admission::new(100, 0);
        let _held = gate.admit(100).expect("fits");
        assert!(gate.admit(1).is_none(), "no queue, at quota: reject");
    }

    #[test]
    fn a_cost_past_usize_beside_a_reservation_is_rejected_not_wrapped() {
        let gate = Admission::new(100, 0);
        let _held = gate.admit(1).expect("fits");
        assert!(gate.admit(usize::MAX).is_none());
        assert_eq!(gate.in_use(), 1);
    }

    #[test]
    fn oversize_request_runs_alone() {
        let gate = Admission::new(50, 1);
        let big = gate.admit(400).expect("idle tenant admits oversize");
        assert_eq!(gate.in_use(), 400);
        drop(big);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn queued_request_admits_after_release_and_reports_wait() {
        let gate = Admission::new(100, 1);
        let held = gate.admit(100).expect("fits");
        let released = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let g = gate.admit(100).expect("queued, then admitted");
                // The release must have happened before we got in.
                assert_eq!(released.load(Ordering::SeqCst), 1);
                assert!(g.waited());
            });
            // Give the waiter time to park, then free capacity.
            while gate.waiting() == 0 {
                std::thread::yield_now();
            }
            released.store(1, Ordering::SeqCst);
            drop(held);
            waiter.join().expect("waiter must not panic");
        });
    }
}
