//! Concurrency stress tests for `Topic`/`Consumer`: concurrent publishing,
//! capacity truncation and polling must never deadlock, lose accounting,
//! or let a lagging consumer observe silently wrong data.

use datacron_stream::bus::{OverflowPolicy, Topic, TopicConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Unbounded topic, many producers, many consumers: every consumer sees
/// every message, in per-producer order, with no lag signals.
#[test]
fn unbounded_topic_is_lossless_under_concurrency() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 2_000;
    let topic: Arc<Topic<u64>> = Topic::new("stress");
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let mut c = topic.consumer();
            thread::spawn(move || {
                let mut seen = Vec::new();
                while seen.len() < (PRODUCERS * PER_PRODUCER) as usize {
                    match c.poll(64) {
                        Ok(batch) if batch.is_empty() => thread::yield_now(),
                        Ok(batch) => seen.extend(batch),
                        Err(lagged) => panic!("unbounded topic lagged: {lagged:?}"),
                    }
                }
                seen
            })
        })
        .collect();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let t = Arc::clone(&topic);
            thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    t.publish(p * PER_PRODUCER + i);
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }
    for c in consumers {
        let seen = c.join().expect("consumer");
        assert_eq!(seen.len() as u64, PRODUCERS * PER_PRODUCER);
        for p in 0..PRODUCERS {
            let per: Vec<u64> = seen
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == p)
                .collect();
            assert_eq!(per.len() as u64, PER_PRODUCER);
            assert!(per.windows(2).all(|w| w[0] < w[1]), "per-producer order");
        }
    }
}

/// Bounded `DropOldest` topic under concurrent publish + poll: the consumer
/// either reads valid data or gets an explicit `Lagged` count — and
/// (messages read) + (messages skipped) accounts for exactly the published
/// stream, with values arriving in strictly increasing order.
#[test]
fn drop_oldest_truncation_is_observable_not_silent() {
    const TOTAL: u64 = 50_000;
    const CAPACITY: usize = 64;
    let topic: Arc<Topic<u64>> = Topic::bounded("ring", CAPACITY, OverflowPolicy::DropOldest);
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let mut c = topic.consumer();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut read: u64 = 0;
            let mut skipped: u64 = 0;
            let mut last: Option<u64> = None;
            loop {
                match c.poll(16) {
                    Ok(batch) => {
                        if batch.is_empty() && done.load(Ordering::Acquire) {
                            break;
                        }
                        for v in batch {
                            // Monotonicity: truncation may skip values but
                            // can never rewind or repeat them.
                            if let Some(prev) = last {
                                assert!(v > prev, "went backwards: {prev} then {v}");
                            }
                            last = Some(v);
                            read += 1;
                        }
                    }
                    Err(lagged) => skipped += lagged.skipped,
                }
            }
            // Drain whatever is still retained after the producer stopped.
            loop {
                match c.poll(usize::MAX) {
                    Ok(batch) if batch.is_empty() => break,
                    Ok(batch) => read += batch.len() as u64,
                    Err(lagged) => skipped += lagged.skipped,
                }
            }
            (read, skipped)
        })
    };

    for i in 0..TOTAL {
        topic.publish(i);
    }
    done.store(true, Ordering::Release);
    let (read, skipped) = reader.join().expect("reader");
    assert_eq!(
        read + skipped,
        TOTAL,
        "every published message is either read or explicitly skipped"
    );
    assert!(topic.retained() <= CAPACITY);
    let stats = topic.stats();
    assert_eq!(stats.published, TOTAL);
    assert!(stats.dropped > 0, "the reader cannot keep up with a tight loop");
}

/// Block policy with a slow consumer: publishers stall rather than drop, so
/// delivery is lossless and memory stays bounded, even with several
/// producers contending.
#[test]
fn block_policy_is_lossless_under_contention() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 500;
    let topic: Arc<Topic<u64>> = Topic::with_config(
        "backpressure",
        TopicConfig {
            capacity: Some(16),
            policy: OverflowPolicy::Block,
            block_timeout: Duration::from_secs(30),
        },
    );
    let mut consumer = topic.consumer();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let t = Arc::clone(&topic);
            thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    t.try_publish(p * PER_PRODUCER + i)
                        .expect("blocked publish succeeds once the consumer drains");
                }
            })
        })
        .collect();
    let mut seen = Vec::new();
    while seen.len() < (PRODUCERS * PER_PRODUCER) as usize {
        match consumer.poll(8) {
            Ok(batch) if batch.is_empty() => thread::yield_now(),
            Ok(batch) => seen.extend(batch),
            Err(lagged) => panic!("Block never truncates unread data: {lagged:?}"),
        }
        assert!(topic.retained() <= 16);
    }
    for p in producers {
        p.join().expect("producer");
    }
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    assert_eq!(topic.stats().dropped, 0);
}

/// `poll_wait` parks instead of spinning, and a publish wakes it promptly:
/// the waiter must return the data far sooner than its generous timeout.
#[test]
fn poll_wait_wakes_promptly_on_publish() {
    let topic: Arc<Topic<u64>> = Topic::new("wakeup");
    let waiter = {
        let mut c = topic.consumer();
        thread::spawn(move || {
            let start = std::time::Instant::now();
            let batch = c.poll_wait(8, Duration::from_secs(30)).expect("no lag");
            (batch, start.elapsed())
        })
    };
    // Give the waiter time to park before publishing.
    thread::sleep(Duration::from_millis(50));
    topic.publish(7);
    let (batch, elapsed) = waiter.join().expect("waiter");
    assert_eq!(batch, vec![7]);
    assert!(
        elapsed < Duration::from_secs(5),
        "woken by the publish, not the 30s timeout (took {elapsed:?})"
    );
}

/// A batched publish wakes a parked `poll_wait` just like a single publish,
/// and delivers the whole batch in one poll.
#[test]
fn poll_wait_wakes_promptly_on_publish_batch() {
    let topic: Arc<Topic<u64>> = Topic::new("wakeup-batch");
    let waiter = {
        let mut c = topic.consumer();
        thread::spawn(move || {
            let start = std::time::Instant::now();
            let batch = c.poll_wait(8, Duration::from_secs(30)).expect("no lag");
            (batch, start.elapsed())
        })
    };
    thread::sleep(Duration::from_millis(50));
    topic.publish_batch([1, 2, 3]);
    let (batch, elapsed) = waiter.join().expect("waiter");
    assert_eq!(batch, vec![1, 2, 3]);
    assert!(
        elapsed < Duration::from_secs(5),
        "woken by the batch publish, not the 30s timeout (took {elapsed:?})"
    );
}

/// On a drained topic `poll_wait` honours its timeout: it returns an empty
/// batch (not an error, not a hang) once the deadline passes.
#[test]
fn poll_wait_times_out_with_an_empty_batch() {
    let topic: Arc<Topic<u64>> = Topic::new("timeout");
    let mut c = topic.consumer();
    let start = std::time::Instant::now();
    let batch = c.poll_wait(8, Duration::from_millis(50)).expect("no lag");
    assert!(batch.is_empty());
    assert!(start.elapsed() >= Duration::from_millis(50), "waited out the deadline");
}

/// Shutdown safety: a consumer parked in `poll_wait` while the producer
/// side drops its last handle to the topic must still return (empty, on
/// timeout) instead of deadlocking — the consumer's own handle keeps the
/// topic alive and the wait simply expires.
#[test]
fn poll_wait_returns_when_producer_drops_topic_at_shutdown() {
    let topic: Arc<Topic<u64>> = Topic::new("shutdown");
    let waiter = {
        let mut c = topic.consumer();
        thread::spawn(move || c.poll_wait(8, Duration::from_millis(200)).expect("no lag"))
    };
    thread::sleep(Duration::from_millis(20));
    // Producer-side shutdown: the last external handle goes away while the
    // consumer is parked.
    drop(topic);
    let batch = waiter.join().expect("waiter returned instead of deadlocking");
    assert!(batch.is_empty());
}

/// Regression: a `Block`-policy batch publish larger than the topic
/// capacity, with the only consumer already parked in `poll_wait`. The
/// batch appends its prefix without signalling until the whole batch is
/// done, so the blocked publisher must wake the parked consumer itself —
/// previously both slept on the same condvar until the block timeout
/// expired and the suffix came back refused. The consumer waking
/// mid-retry must observe the batch exactly once, in order: no duplicated
/// and no skipped prefix.
#[test]
fn blocked_batch_publish_wakes_parked_consumer_without_dup_or_skip() {
    const BATCH: u64 = 24;
    const CAPACITY: usize = 4;
    let topic: Arc<Topic<u64>> = Topic::with_config(
        "block-batch",
        TopicConfig {
            capacity: Some(CAPACITY),
            policy: OverflowPolicy::Block,
            block_timeout: Duration::from_secs(30),
        },
    );
    let waiter = {
        let mut c = topic.consumer();
        thread::spawn(move || {
            let mut seen = Vec::new();
            while seen.len() < BATCH as usize {
                let batch = c
                    .poll_wait(3, Duration::from_secs(30))
                    .expect("Block never truncates unread data");
                seen.extend(batch);
            }
            seen
        })
    };
    // Let the consumer park in `poll_wait` before the batch starts.
    thread::sleep(Duration::from_millis(50));
    let start = std::time::Instant::now();
    let (first, refused) = topic.publish_batch_all(0..BATCH);
    let elapsed = start.elapsed();
    assert_eq!(first, Some(0));
    assert!(
        refused.is_empty(),
        "woken consumer drains the topic, nothing is refused: {refused:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "publisher woke the consumer instead of waiting out the 30s block timeout (took {elapsed:?})"
    );
    let seen = waiter.join().expect("waiter");
    assert_eq!(
        seen,
        (0..BATCH).collect::<Vec<_>>(),
        "batch observed exactly once, in order, with no duplicated or skipped prefix"
    );
    let stats = topic.stats();
    assert_eq!(stats.published, BATCH);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.consumed, BATCH);
    assert!(stats.blocked > 0, "the publisher did hit the Block path");
}

/// A lossless producer retries what `publish_batch_all` refused. That is
/// in order only if the refused messages are a suffix: a consumer that
/// advances mid-batch must not let a later message in after an earlier
/// one was refused. Tiny capacity, zero block timeout and a one-at-a-time
/// consumer make refusals and mid-batch advances constant.
#[test]
fn refused_batch_suffix_retried_in_order_under_a_racing_consumer() {
    const TOTAL: u64 = 1_000_000;
    let topic: Arc<Topic<u64>> = Topic::with_config(
        "retry-order",
        TopicConfig { capacity: Some(4), policy: OverflowPolicy::Block, block_timeout: Duration::ZERO },
    );
    let reader = {
        let mut c = topic.consumer();
        thread::spawn(move || {
            let mut seen = Vec::with_capacity(TOTAL as usize);
            while seen.len() < TOTAL as usize {
                seen.extend(c.poll_wait(1, Duration::from_secs(5)).expect("Block never truncates unread data"));
            }
            seen
        })
    };
    let mut next = 0u64;
    while next < TOTAL {
        let end = (next + 32).min(TOTAL);
        let (_, mut refused) = topic.publish_batch_all(next..end);
        while !refused.is_empty() {
            topic.wait_for_space(Duration::from_millis(1)).ok();
            refused = topic.publish_batch_all(refused).1;
        }
        next = end;
    }
    let seen = reader.join().expect("reader");
    let first_out_of_order = seen.iter().enumerate().find(|&(i, &v)| v != i as u64);
    assert_eq!(first_out_of_order, None, "every message once, in publish order");
}

/// Mixed chaos: concurrent publishers on a bounded topic, one fast and one
/// deliberately slow consumer, with consumers joining mid-stream. Nothing
/// deadlocks, all counters reconcile.
#[test]
fn mixed_publish_truncate_poll_stress() {
    const TOTAL: u64 = 20_000;
    let topic: Arc<Topic<u64>> = Topic::bounded("mixed", 128, OverflowPolicy::DropOldest);
    let done = Arc::new(AtomicBool::new(false));

    let spawn_reader = |slow: bool| {
        let mut c = topic.consumer();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut read = 0u64;
            let mut skipped = 0u64;
            loop {
                match c.poll(32) {
                    Ok(batch) => {
                        if batch.is_empty() && done.load(Ordering::Acquire) {
                            break;
                        }
                        read += batch.len() as u64;
                    }
                    Err(lagged) => skipped += lagged.skipped,
                }
                if slow {
                    thread::sleep(Duration::from_micros(50));
                }
            }
            loop {
                match c.poll(usize::MAX) {
                    Ok(batch) if batch.is_empty() => break,
                    Ok(batch) => read += batch.len() as u64,
                    Err(lagged) => skipped += lagged.skipped,
                }
            }
            (read, skipped)
        })
    };

    let fast = spawn_reader(false);
    let slow = spawn_reader(true);
    let producers: Vec<_> = (0..2)
        .map(|p| {
            let t = Arc::clone(&topic);
            thread::spawn(move || {
                for i in 0..TOTAL / 2 {
                    t.publish(p * (TOTAL / 2) + i);
                }
            })
        })
        .collect();
    // A consumer that joins (and leaves) mid-stream must not disturb the
    // others' accounting.
    thread::sleep(Duration::from_millis(1));
    let mut late = topic.consumer();
    let _ = late.poll(8);
    drop(late);

    for p in producers {
        p.join().expect("producer");
    }
    done.store(true, Ordering::Release);
    for (name, reader) in [("fast", fast), ("slow", slow)] {
        let (read, skipped) = reader.join().expect("reader");
        assert_eq!(read + skipped, TOTAL, "{name} reader accounting");
    }
}
