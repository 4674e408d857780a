//! Property test for unbounded-topic retention: under any interleaving of
//! publishes, registrations, polls and consumer drops, a topic keeps
//! exactly the messages some live consumer has not read, and every
//! consumer receives exactly what was published from its registration on.

use datacron_stream::bus::{Consumer, Topic};
use proptest::prelude::*;

const SLOTS: usize = 3;

/// A live consumer and what it has received so far.
struct Reader {
    consumer: Consumer<u64>,
    /// Offset of the first message published after registration.
    from: u64,
    received: Vec<u64>,
}

impl Reader {
    fn offset(&self) -> u64 {
        self.from + self.received.len() as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ops are `(kind, slot, n)`: 0 publish, 1 publish a batch of `n`,
    /// 2 register, 3 poll up to `n`, 4 drain, 5 drop.
    #[test]
    fn retention_tracks_the_slowest_live_consumer(
        ops in proptest::collection::vec((0u8..6, 0usize..SLOTS, 0usize..5), 0..80),
    ) {
        let topic: std::sync::Arc<Topic<u64>> = Topic::new("retention");
        let mut readers: Vec<Option<Reader>> = (0..SLOTS).map(|_| None).collect();
        // Message values equal their offsets.
        let mut next = 0u64;
        for (step, &(kind, slot, n)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    prop_assert_eq!(topic.publish(next), Some(next));
                    next += 1;
                }
                1 => {
                    let first = topic.publish_batch(next..next + n as u64);
                    prop_assert_eq!(first, (n > 0).then_some(next));
                    next += n as u64;
                }
                2 => {
                    if readers[slot].is_none() {
                        readers[slot] = Some(Reader { consumer: topic.consumer(), from: next, received: Vec::new() });
                    }
                }
                3 | 4 => {
                    if let Some(r) = readers[slot].as_mut() {
                        let batch = if kind == 3 { r.consumer.poll(n) } else { r.consumer.drain() };
                        r.received.extend(batch.expect("an unbounded topic never lags"));
                    }
                }
                _ => readers[slot] = None,
            }

            for r in readers.iter().flatten() {
                let expect: Vec<u64> = (r.from..r.offset()).collect();
                prop_assert_eq!(&r.received, &expect, "step {}: exactly the post-registration stream, in order", step);
                prop_assert_eq!(r.consumer.offset(), r.offset());
            }
            let end = topic.len();
            prop_assert_eq!(end, next);
            let min_live = readers.iter().flatten().map(Reader::offset).min();
            let retained = topic.retained() as u64;
            prop_assert_eq!(retained, min_live.map_or(0, |m| end - m), "step {}", step);
            let stats = topic.stats();
            prop_assert_eq!(stats.published, end);
            prop_assert_eq!(stats.published, retained + stats.reclaimed + stats.dropped, "step {}", step);
        }

        // Whatever is still live reads the rest of its stream, and then the
        // topic holds nothing.
        for r in readers.iter_mut().flatten() {
            r.received.extend(r.consumer.drain().expect("an unbounded topic never lags"));
            prop_assert_eq!(&r.received, &(r.from..next).collect::<Vec<u64>>());
        }
        prop_assert_eq!(topic.retained(), 0);
    }
}
