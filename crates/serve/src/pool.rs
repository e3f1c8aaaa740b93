//! The fixed-size worker pool — the serving layer's only thread source.
//!
//! This file is the *sole* place in `mp-serve` that creates threads
//! (clippy's `disallowed_methods`, configured in `crates/clippy.toml`,
//! is `#[expect]`ed only here and in mp-eval's fork-join,
//! `crates/eval/src/par.rs`), and it uses
//! `std::thread::scope` so workers borrow the server and queue
//! directly — no `'static` bounds, no leaked threads, and the pool
//! cannot outlive the state it serves.
//!
//! Lifecycle: `run_scoped` spawns `workers` threads that loop on
//! [`BoundedQueue::pop`] and hand each job to [`Server::handle`], runs
//! the caller's driver on the *calling* thread with a [`Client`]
//! handle, then closes the queue. Closing lets workers drain every
//! accepted request before exiting, so a submit-all driver never loses
//! submitted work. A drop guard closes the queue even when the driver
//! panics — otherwise `thread::scope` would block forever joining
//! workers parked in `pop`. A panicking request does not end its
//! worker: `Server::handle` contains it.

use crate::queue::BoundedQueue;
use crate::server::{Client, Job, Server};

/// Closes the queue on scope exit, panicking or not.
struct CloseOnDrop<'q>(&'q BoundedQueue<Job>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs one serving session (see module docs).
pub(crate) fn run_scoped<R>(server: &Server, driver: impl FnOnce(&Client<'_>) -> R) -> R {
    let queue: BoundedQueue<Job> = BoundedQueue::new(server.config().queue_cap.max(1));
    let workers = server.config().workers.max(1);
    // Pre-size each worker's thread-local retrieval scratch for the
    // largest mediated collection, so no serve-path query ever grows
    // (= reallocates) the dense accumulator mid-request: any worker may
    // serve any database's probes. Databases hiding their size fall
    // back to lazy growth on first contact.
    let warm_docs = server.metasearcher().mediator().max_size_hint();
    #[expect(
        clippy::disallowed_methods,
        reason = "this worker pool is one of the two thread owners (LINT.md)"
    )]
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                mp_index::scratch::warm(warm_docs);
                while let Some(mut job) = queue.pop() {
                    // Queue context at dequeue time: sampled into the
                    // gauges every pop, and onto the job so a traced
                    // flight records the depth it waited behind.
                    let depth = u32::try_from(queue.len()).unwrap_or(u32::MAX);
                    job.depth_at_dequeue = depth;
                    mp_obs::gauge!("serve.queue_depth").set(i64::from(depth));
                    let inflight = mp_obs::gauge!("serve.inflight");
                    inflight.adjust(1);
                    server.handle(job);
                    inflight.adjust(-1);
                }
            });
        }
        let _closer = CloseOnDrop(&queue);
        let client = Client::new(server, &queue);
        driver(&client)
        // `_closer` drops here: the queue closes, workers drain what
        // was accepted and exit, then `scope` joins them.
    })
}
