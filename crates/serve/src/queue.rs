//! A bounded MPMC queue with admission control.
//!
//! The serving front door: producers [`try_push`](BoundedQueue::try_push)
//! requests (queue-full → typed rejection, the *admission control* of
//! the serving layer) or [`push_blocking`](BoundedQueue::push_blocking)
//! them (drivers that want back-pressure instead of rejections);
//! workers [`pop`](BoundedQueue::pop) one request at a time until the
//! queue is closed *and* drained. Built on
//! `std::sync::{Mutex, Condvar}` only — no external dependencies, no
//! spinning.
//!
//! FIFO order is total: items pop in exactly the order pushes acquired
//! the lock. With one worker this makes the whole serving pipeline a
//! deterministic replay of the submission order, which the retry-budget
//! regression test relies on.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Threads blocked in [`BoundedQueue::pop`] on `not_empty`.
    pop_waiters: usize,
    /// Threads blocked in [`BoundedQueue::push_blocking`] on `not_full`.
    push_waiters: usize,
}

/// A bounded multi-producer multi-consumer FIFO queue.
///
/// ## Condvar discipline (lost-wakeup audit)
///
/// Each condvar has a *homogeneous* waiter class — only poppers wait on
/// `not_empty`, only blocking pushers on `not_full` — and every waiter
/// re-checks its predicate under the mutex before each wait, so a
/// wakeup whose predicate was stolen (a `try_push` grabbing the slot a
/// popper just freed, or a fresh `pop` taking the item a push just
/// added) sends the woken thread back to wait without ever blocking a
/// thread whose predicate holds. Progress is preserved because the
/// thief's own state transition re-notifies: a stolen slot holds an
/// item whose eventual `pop` issues the next `not_full` notification,
/// and a stolen item freed a slot whose eventual refill issues the next
/// `not_empty` one. `close` uses `notify_all` on both condvars, so no
/// waiter can sleep through shutdown.
///
/// Notifications are gated on the waiter counts (maintained under the
/// mutex, read under the mutex before notifying): a state transition
/// with no registered waiter skips the condvar syscall entirely, which
/// keeps the uncontended serving path at one mutex round-trip. A waiter
/// that registers *after* the gate check cannot be missed — it first
/// re-checks the predicate under the same mutex, and the transition it
/// would have been notified about is already visible to it.
pub struct BoundedQueue<T> {
    // mp-lint: allow(L9): the one sanctioned handoff lock — O(1) critical sections
    state: Mutex<State<T>>,
    // mp-lint: allow(L9): waiter-count-gated; skipped entirely when nobody sleeps
    not_empty: Condvar,
    // mp-lint: allow(L9): waiter-count-gated; skipped entirely when nobody sleeps
    not_full: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items.
    ///
    /// # Panics
    /// Panics when `cap` is zero — a rendezvous queue cannot provide
    /// admission control semantics.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        Self {
            // mp-lint: allow(L9): constructing the handoff state, not acquiring
            state: Mutex::new(State {
                items: VecDeque::with_capacity(cap),
                closed: false,
                pop_waiters: 0,
                push_waiters: 0,
            }),
            // mp-lint: allow(L9): constructing the handoff state, not acquiring
            not_empty: Condvar::new(),
            // mp-lint: allow(L9): constructing the handoff state, not acquiring
            not_full: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().expect("mp-serve queue mutex poisoned")
    }

    /// Enqueues without blocking; `Full` is the overload rejection.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(TryPushError::Closed(item));
        }
        if st.items.len() >= self.cap {
            return Err(TryPushError::Full(item));
        }
        st.items.push_back(item);
        let wake = st.pop_waiters > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Enqueues, waiting for space when the queue is full. Returns the
    /// item back when the queue is (or becomes) closed.
    pub fn push_blocking(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.cap {
                st.items.push_back(item);
                let wake = st.pop_waiters > 0;
                drop(st);
                if wake {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            st.push_waiters += 1;
            st = self
                .not_full
                .wait(st)
                .expect("mp-serve queue mutex poisoned");
            st.push_waiters -= 1;
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` only when the queue is closed *and* drained, so
    /// closing never drops accepted work.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                let wake = st.push_waiters > 0;
                drop(st);
                if wake {
                    self.not_full.notify_one();
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st.pop_waiters += 1;
            st = self
                .not_empty
                .wait(st)
                .expect("mp-serve queue mutex poisoned");
            st.pop_waiters -= 1;
        }
    }

    /// Closes the queue: further pushes fail, poppers drain what was
    /// accepted and then see `None`. Idempotent.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission-control capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(TryPushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        match q.try_push("b") {
            Err(TryPushError::Closed("b")) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "close is sticky");
    }

    #[test]
    fn push_blocking_fails_after_close() {
        let q = BoundedQueue::new(1);
        q.close();
        assert_eq!(q.push_blocking(7), Err(7));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
