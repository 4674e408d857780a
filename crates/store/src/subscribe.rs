//! Continuous star-join subscriptions over the live store.
//!
//! A subscription pairs a [`StarQuery`] with a bounded output
//! [`Topic`]: the store publishes a [`StarMatch`] the first time a subject
//! satisfies every arm (and the exact spatio-temporal refinement), and
//! never again for that subject. Star-joins over an append-only store are
//! monotone — a subject that matches keeps matching — so emit-once is
//! well-defined and the emission union is independent of batching.
//!
//! The output topic is bounded with drop-oldest overflow: a subscriber
//! that stalls loses the *oldest* matches and observes a `Lagged` signal
//! on its next poll (the truncation is counted, never silent), at which
//! point it can re-sync with one snapshot query. This keeps a slow
//! subscriber from exerting backpressure on the ingestion hot path while
//! staying within the bus's loss-accounting contract.

use crate::dictionary::TermId;
use crate::store::StarQuery;
use datacron_rdf::term::Term;
use datacron_stream::bus::{Consumer, OverflowPolicy, Topic};
use std::collections::HashSet;
use std::sync::Arc;

/// One continuous-query match: `subject` satisfied every arm of the
/// subscription's star query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarMatch {
    /// The subscription that matched.
    pub subscription: u64,
    /// The matching subject.
    pub subject: Term,
    /// Ingest-to-match latency in nanoseconds (from the start of the
    /// batch that completed the match); `None` for backfilled matches
    /// that were already present when the subscription was registered.
    pub latency_ns: Option<u64>,
}

/// The subscriber's end of a continuous query.
pub struct SubscriptionHandle {
    /// Subscription id (echoed in every [`StarMatch`]).
    pub id: u64,
    /// Consumer over the match topic. `Err(Lagged)` means the subscriber
    /// fell more than the topic capacity behind and old matches were
    /// truncated — re-sync with a snapshot query.
    pub matches: Consumer<StarMatch>,
    /// The match topic itself (for health/stats or extra consumers).
    pub topic: Arc<Topic<StarMatch>>,
    /// Matches `subscribe` itself emitted (`latency_ns: None`) for state
    /// already committed, counted under the store's writer lock.
    pub backfilled: u64,
}

/// Point-in-time statistics of one subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Subscription id.
    pub id: u64,
    /// Matches emitted so far (monotone).
    pub emitted: u64,
    /// Matches truncated from the output topic by drop-oldest overflow.
    pub dropped: u64,
    /// Output topic capacity.
    pub capacity: usize,
}

/// Store-side state of one continuous query.
pub(crate) struct Subscription {
    id: u64,
    query: StarQuery,
    /// Pre-computed sorted pushdown ranges (`None` when the query has no
    /// spatio-temporal constraint).
    ranges: Option<Vec<(TermId, TermId)>>,
    topic: Arc<Topic<StarMatch>>,
    capacity: usize,
    /// Subjects already emitted (emit-once contract).
    emitted: HashSet<TermId>,
}

impl Subscription {
    pub(crate) fn new(
        id: u64,
        query: StarQuery,
        ranges: Option<Vec<(TermId, TermId)>>,
        capacity: usize,
    ) -> Self {
        Self {
            id,
            query,
            ranges,
            topic: Topic::bounded(format!("kg.sub.{id}"), capacity.max(1), OverflowPolicy::DropOldest),
            capacity: capacity.max(1),
            emitted: HashSet::new(),
        }
    }

    pub(crate) fn handle(&self) -> SubscriptionHandle {
        SubscriptionHandle {
            id: self.id,
            matches: self.topic.consumer(),
            topic: self.topic.clone(),
            backfilled: 0,
        }
    }

    pub(crate) fn query(&self) -> &StarQuery {
        &self.query
    }

    pub(crate) fn ranges(&self) -> Option<&[(TermId, TermId)]> {
        self.ranges.as_deref()
    }

    pub(crate) fn already_emitted(&self, s: TermId) -> bool {
        self.emitted.contains(&s)
    }

    pub(crate) fn emit(&mut self, s: TermId, subject: Term, latency_ns: Option<u64>) {
        if !self.emitted.insert(s) {
            return;
        }
        // DropOldest never refuses; overflow truncates the oldest match
        // and is visible in `dropped()` and the subscriber's Lagged error.
        self.topic.publish(StarMatch {
            subscription: self.id,
            subject,
            latency_ns,
        });
    }

    pub(crate) fn emitted_count(&self) -> u64 {
        self.emitted.len() as u64
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.topic.stats().dropped
    }

    pub(crate) fn stats(&self) -> SubscriptionStats {
        SubscriptionStats {
            id: self.id,
            emitted: self.emitted_count(),
            dropped: self.dropped(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_query() -> StarQuery {
        StarQuery {
            arms: vec![(Term::iri("p:a"), None)],
            st: None,
        }
    }

    #[test]
    fn emit_once_per_subject() {
        let mut sub = Subscription::new(7, any_query(), None, 16);
        let mut handle = sub.handle();
        sub.emit(1, Term::iri("s:1"), Some(10));
        sub.emit(1, Term::iri("s:1"), Some(20));
        sub.emit(2, Term::iri("s:2"), None);
        let got = handle.matches.drain().expect("no overflow");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].subject, Term::iri("s:1"));
        assert_eq!(got[0].latency_ns, Some(10));
        assert_eq!(got[1].latency_ns, None);
        assert_eq!(sub.emitted_count(), 2);
    }

    #[test]
    fn slow_subscriber_sees_lagged_not_silence() {
        let mut sub = Subscription::new(0, any_query(), None, 4);
        let mut handle = sub.handle();
        for i in 0..10u64 {
            sub.emit(i, Term::iri(format!("s:{i}")), Some(i));
        }
        let err = handle.matches.drain().expect_err("must signal truncation");
        assert_eq!(err.skipped, 6);
        assert_eq!(sub.dropped(), 6);
        let got = handle.matches.drain().expect("caught up");
        assert_eq!(got.len(), 4, "newest matches survive");
        assert_eq!(got.last().unwrap().subject, Term::iri("s:9"));
    }

    #[test]
    fn stats_reflect_capacity_and_counts() {
        let mut sub = Subscription::new(3, any_query(), Some(vec![(1, 2)]), 8);
        sub.emit(1, Term::iri("s:1"), None);
        let stats = sub.stats();
        assert_eq!(
            stats,
            SubscriptionStats {
                id: 3,
                emitted: 1,
                dropped: 0,
                capacity: 8
            }
        );
        assert_eq!(sub.ranges(), Some(&[(1u64, 2u64)][..]));
    }
}
