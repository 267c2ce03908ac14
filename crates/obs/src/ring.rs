//! The bounded per-thread rings behind the span tracer ([`crate::trace`]) and
//! the flight recorder ([`crate::event`]).
//!
//! Each recording thread pushes into its own ring, registered on its first
//! push, so a recording thread never blocks another and a concurrent drain
//! holds one ring's lock at a time. A full ring drops its oldest item and
//! counts the drop; the count survives drains and only moves forward.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::LocalKey;

/// A thread's handle on its ring. Each [`Rings`] owner declares one
/// `thread_local!` of this type and passes its key to [`Rings::new`].
pub(crate) type Slot<T> = OnceCell<Arc<Ring<T>>>;

/// One thread's ring, with the id [`Rings::push`] hands to its items.
pub(crate) struct Ring<T> {
    tid: u64,
    state: Mutex<RingState<T>>,
}

struct RingState<T> {
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    fn lock(&self) -> MutexGuard<'_, RingState<T>> {
        self.state.lock().expect("ring poisoned")
    }
}

/// Every thread's ring of one kind, sharing one per-thread capacity.
pub(crate) struct Rings<T: 'static> {
    slot: &'static LocalKey<Slot<T>>,
    capacity: AtomicUsize,
    next_tid: AtomicU64,
    threads: Mutex<Vec<Arc<Ring<T>>>>,
}

impl<T> Rings<T> {
    /// Rings that keep `capacity` items per thread; thread ids start at 1.
    pub(crate) const fn new(slot: &'static LocalKey<Slot<T>>, capacity: usize) -> Self {
        Rings {
            slot,
            capacity: AtomicUsize::new(capacity),
            next_tid: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Set the per-thread capacity (at least 1). Applies to future pushes on
    /// every thread.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// Push the item `make` builds from this thread's ring id, dropping the
    /// oldest items the capacity has no room for.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) {
        self.slot.with(|slot| {
            let ring = slot.get_or_init(|| {
                let ring = Arc::new(Ring {
                    tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                    state: Mutex::new(RingState {
                        items: VecDeque::new(),
                        dropped: 0,
                    }),
                });
                self.threads().push(Arc::clone(&ring));
                ring
            });
            let capacity = self.capacity.load(Ordering::Relaxed);
            let mut state = ring.lock();
            while state.items.len() >= capacity {
                state.items.pop_front();
                state.dropped += 1;
            }
            state.items.push_back(make(ring.tid));
        });
    }

    fn threads(&self) -> MutexGuard<'_, Vec<Arc<Ring<T>>>> {
        self.threads.lock().expect("ring registry poisoned")
    }

    /// Every buffered item, ring by ring; `take` empties the rings.
    pub(crate) fn collect(&self, take: bool) -> Vec<T>
    where
        T: Clone,
    {
        let rings = self.threads().clone();
        let mut out = Vec::new();
        for ring in rings {
            let mut state = ring.lock();
            if take {
                out.extend(state.items.drain(..));
            } else {
                out.extend(state.items.iter().cloned());
            }
        }
        out
    }

    /// Items dropped to overflow so far, across all rings.
    pub(crate) fn dropped(&self) -> u64 {
        let rings = self.threads().clone();
        rings.iter().map(|ring| ring.lock().dropped).sum()
    }
}
