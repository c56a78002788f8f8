//! Loom models for the server's worker-pool queue.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; the queue then runs on the
//! vendored loom shim's mutex/condvar wrappers, which inject preemption
//! points around every acquisition so each `loom::model` iteration explores
//! a different interleaving. The two properties modeled are exactly the
//! server's accept/shutdown contract:
//!
//! 1. **Busy rejection** — with the queue at capacity, concurrent pushes
//!    never block, never lose an item, and surface `PushError::Full` for
//!    exactly the overflow (the accept loop turns that into an
//!    `Error{Busy}` PDU).
//! 2. **Graceful shutdown** — `close()` racing with consumers never loses
//!    an accepted item and never strands a worker: every queued item is
//!    delivered exactly once, then every worker observes `None` (closed).
#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use pcp_wire::pool::{BoundedQueue, PushError};

#[test]
fn capacity_overflow_is_rejected_not_blocked() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(1));
        let producers: Vec<_> = (0..3u64)
            .map(|v| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.try_push(v).is_ok())
            })
            .collect();
        let accepted = producers
            .into_iter()
            .map(|h| h.join().expect("join producer"))
            .filter(|&accepted| accepted)
            .count();
        // No consumer runs, so exactly one push fits and the other two
        // must have been shed with `Full` — under every schedule.
        assert_eq!(accepted, 1);
        assert_eq!(q.len(), 1);
    });
}

#[test]
fn push_racing_close_is_accepted_or_cleanly_refused() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        let pusher = {
            let q = Arc::clone(&q);
            thread::spawn(move || match q.try_push(1u64) {
                Ok(()) => true,
                Err(PushError::Closed(v)) => {
                    // The item comes back intact; the caller can reject
                    // the connection instead of dropping it silently.
                    assert_eq!(v, 1);
                    false
                }
                Err(PushError::Full(_)) => unreachable!("queue never fills"),
            })
        };
        q.close();
        let accepted = pusher.join().expect("join pusher");
        // An accepted item survives the close (backlog drains first); a
        // refused one leaves the queue empty. Nothing in between.
        if accepted {
            assert_eq!(q.pop(), Some(1));
        }
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn shutdown_delivers_backlog_exactly_once_then_releases_workers() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1u64).expect("push 1");
        q.try_push(2u64).expect("push 2");
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        q.close();
        let mut delivered: Vec<u64> = workers
            .into_iter()
            .flat_map(|h| h.join().expect("join worker"))
            .collect();
        delivered.sort_unstable();
        // Exactly-once delivery across both workers, and both workers
        // reached `None` (the joins above would hang otherwise).
        assert_eq!(delivered, vec![1, 2]);
        assert!(q.is_empty());
    });
}
