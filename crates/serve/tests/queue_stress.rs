//! Multi-producer/multi-consumer stress tests pinning the
//! `BoundedQueue` condvar discipline: no lost wakeup may strand a
//! waiter while work (or capacity) exists, no accepted item may be
//! dropped or duplicated, and `close` must wake every sleeper.
//!
//! The scenarios deliberately mix *blocking* pushers with *non-blocking*
//! `try_push` thieves and over-subscribe both sides of the queue, which
//! is exactly the satisfied-then-stolen interleaving a broken
//! notification scheme would deadlock or lose items under. A wall-clock
//! bound turns a stranded waiter into a test failure instead of a hang.

#![expect(
    clippy::disallowed_methods,
    reason = "the stress tests run producers and consumers on their own threads and time them"
)]

use mp_serve::{BoundedQueue, TryPushError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fails the test (rather than hanging CI) if the workers don't finish.
fn join_all_within(handles: Vec<std::thread::JoinHandle<()>>, limit: Duration, what: &str) {
    let deadline = Instant::now() + limit;
    for h in handles {
        while !h.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{what}: worker still blocked after {limit:?} — lost wakeup?"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        h.join().expect("queue stress worker panicked");
    }
}

/// Blocking producers vs blocking consumers, tiny capacity: every item
/// must arrive exactly once even though both sides sleep constantly.
#[test]
fn mpmc_blocking_push_pop_delivers_every_item_exactly_once() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 500;

    let q = Arc::new(BoundedQueue::<u64>::new(2));
    let sum = Arc::new(AtomicU64::new(0));
    let count = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let q = Arc::clone(&q);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                q.push_blocking(p * PER_PRODUCER + i)
                    .expect("queue not closed during production");
            }
        }));
    }
    for _ in 0..CONSUMERS {
        let q = Arc::clone(&q);
        let sum = Arc::clone(&sum);
        let count = Arc::clone(&count);
        handles.push(std::thread::spawn(move || {
            while let Some(v) = q.pop() {
                sum.fetch_add(v, Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Producers drain first; closing then releases the consumers.
    let (producers, consumers) = handles.split_at(usize::try_from(PRODUCERS).unwrap());
    let deadline = Instant::now() + Duration::from_secs(30);
    for h in producers {
        while !h.is_finished() {
            assert!(Instant::now() < deadline, "producer stuck — lost wakeup?");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    q.close();
    let _ = consumers; // joined below with the producers
    join_all_within(handles, Duration::from_secs(30), "mpmc blocking");

    let total = PRODUCERS * PER_PRODUCER;
    assert_eq!(
        count.load(Ordering::Relaxed),
        total,
        "item lost or duplicated"
    );
    assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
}

/// Blocking pushers racing non-blocking `try_push` thieves: a popped
/// slot can be satisfied-then-stolen before the woken pusher reacquires
/// the lock. The woken pusher must re-wait (not fail, not deadlock) and
/// every *accepted* item must still be delivered exactly once.
#[test]
fn stolen_slots_do_not_strand_blocking_pushers() {
    const BLOCKING: u64 = 3;
    const PER_BLOCKING: u64 = 400;
    const THIEVES: u64 = 3;
    const THIEF_ATTEMPTS: u64 = 2_000;

    let q = Arc::new(BoundedQueue::<u64>::new(1));
    let stolen_in = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicU64::new(0));
    let blocking_sum = Arc::new(AtomicU64::new(0));
    let popped_blocking_sum = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    // Blocking pushers send odd numbers, thieves even ones, so the
    // consumer can attribute every delivery.
    for p in 0..BLOCKING {
        let q = Arc::clone(&q);
        let blocking_sum = Arc::clone(&blocking_sum);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_BLOCKING {
                let v = 2 * (p * PER_BLOCKING + i) + 1;
                q.push_blocking(v).expect("queue open");
                blocking_sum.fetch_add(v, Ordering::Relaxed);
            }
        }));
    }
    for _ in 0..THIEVES {
        let q = Arc::clone(&q);
        let stolen_in = Arc::clone(&stolen_in);
        handles.push(std::thread::spawn(move || {
            for i in 0..THIEF_ATTEMPTS {
                match q.try_push(2 * i) {
                    Ok(()) => {
                        stolen_in.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TryPushError::Full(_)) => std::thread::yield_now(),
                    Err(TryPushError::Closed(_)) => unreachable!("closed mid-production"),
                }
            }
        }));
    }
    for _ in 0..2 {
        let q = Arc::clone(&q);
        let received = Arc::clone(&received);
        let popped_blocking_sum = Arc::clone(&popped_blocking_sum);
        handles.push(std::thread::spawn(move || {
            while let Some(v) = q.pop() {
                received.fetch_add(1, Ordering::Relaxed);
                if v % 2 == 1 {
                    popped_blocking_sum.fetch_add(v, Ordering::Relaxed);
                }
            }
        }));
    }

    let producer_count = usize::try_from(BLOCKING + THIEVES).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    for h in &handles[..producer_count] {
        while !h.is_finished() {
            assert!(
                Instant::now() < deadline,
                "pusher stranded after a stolen slot — lost wakeup?"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    q.close();
    join_all_within(handles, Duration::from_secs(30), "stolen slots");

    let expected = BLOCKING * PER_BLOCKING + stolen_in.load(Ordering::Relaxed);
    assert_eq!(received.load(Ordering::Relaxed), expected);
    assert_eq!(
        popped_blocking_sum.load(Ordering::Relaxed),
        blocking_sum.load(Ordering::Relaxed),
        "a blocking pusher's item vanished"
    );
}

/// Close with sleepers on both condvars: every blocked pusher must get
/// its item back and every blocked popper must see `None`. Two queues
/// keep the two sleeper populations independent (a popper draining the
/// full queue would free a slot and let a pusher through pre-close).
#[test]
fn close_wakes_every_sleeper_on_both_sides() {
    let full = Arc::new(BoundedQueue::<u32>::new(1));
    full.try_push(0).expect("seed item fits");
    let empty = Arc::new(BoundedQueue::<u32>::new(1));

    let mut handles = Vec::new();
    for _ in 0..3 {
        let full = Arc::clone(&full);
        handles.push(std::thread::spawn(move || {
            assert_eq!(
                full.push_blocking(9),
                Err(9),
                "closed queue returns the item"
            );
        }));
    }
    for _ in 0..3 {
        let empty = Arc::clone(&empty);
        handles.push(std::thread::spawn(move || {
            assert_eq!(empty.pop(), None, "closed empty queue ends the popper");
        }));
    }

    // Give the sleepers time to actually park on the condvars, so close
    // exercises waking them rather than pre-empting the wait.
    std::thread::sleep(Duration::from_millis(50));
    full.close();
    empty.close();
    join_all_within(handles, Duration::from_secs(30), "close wakeup");

    // The seed item survived the close (close never drops accepted work).
    assert_eq!(full.pop(), Some(0));
    assert_eq!(full.pop(), None);
}
