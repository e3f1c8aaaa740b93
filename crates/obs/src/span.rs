//! RAII timing spans over a per-thread span stack.
//!
//! A [`SpanGuard`] pushes a frame onto its thread's stack on entry and,
//! on drop, folds the elapsed wall time into the global per-name
//! aggregate ([`crate::registry`]): hit count, total time, *self* time
//! (total minus time attributed to child spans opened inside it), and
//! the worst single occurrence. Parent→child name pairs are recorded so
//! the exporters can rebuild the call tree.
//!
//! Frames are strictly per-thread; spans never cross a thread boundary
//! (a worker thread starts with an empty stack, so its spans become
//! roots of their own subtree).

#[cfg(feature = "obs")]
use std::cell::RefCell;
#[cfg(feature = "obs")]
use std::time::Instant;

use std::marker::PhantomData;

#[cfg(feature = "obs")]
struct Frame {
    name: &'static str,
    stat: &'static crate::registry::SpanStat,
    start: Instant,
    /// Nanoseconds already attributed to completed child spans.
    child_ns: u64,
}

#[cfg(feature = "obs")]
thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An open timing span; closes (and records) when dropped.
///
/// Created by [`crate::span!`]. Deliberately `!Send`: a guard must drop
/// on the thread that opened it, because the frame lives on that
/// thread's stack.
pub struct SpanGuard {
    /// A guard only pops what it pushed, so toggling [`crate::set_enabled`]
    /// while spans are open cannot unbalance the stack.
    #[cfg(feature = "obs")]
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens the span `name` on the current thread.
    ///
    /// When recording is off (feature or runtime switch) this returns an
    /// inert guard without touching the clock or the registry.
    #[cfg(feature = "obs")]
    pub fn enter(name: &'static str) -> Self {
        if !crate::is_enabled() {
            return Self {
                active: false,
                _not_send: PhantomData,
            };
        }
        let stat = crate::registry::span_stat(name);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(parent) = stack.last() {
                crate::registry::record_edge(parent.name, name);
            }
            stack.push(Frame {
                name,
                stat,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        Self {
            active: true,
            _not_send: PhantomData,
        }
    }

    /// Opens the span `name` — a no-op in this build.
    #[cfg(not(feature = "obs"))]
    #[inline]
    pub fn enter(_name: &'static str) -> Self {
        Self {
            _not_send: PhantomData,
        }
    }
}

#[cfg(feature = "obs")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let closed = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are scope-ordered on one thread, so the top of the
            // stack is necessarily this guard's frame.
            let frame = stack.pop()?;
            let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            frame
                .stat
                .record(elapsed, elapsed.saturating_sub(frame.child_ns));
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed);
            }
            Some((frame.name, frame.start, elapsed, stack.len()))
        });
        // Feed the active per-request trace (if any) outside the stack
        // borrow — the trace hook takes its own thread-local borrow.
        if let Some((name, start, elapsed, depth)) = closed {
            crate::trace::on_span_close(name, start, elapsed, depth);
        }
    }
}
