//! The batch layer: persistent storage of enriched trajectories and
//! offline query answering.
//!
//! "In the batch layer, the enriched trajectories as well as data from
//! other sources that have been transformed in RDF are collected for
//! persistent storage, in order to support offline data analytics."
//! The layer drains the real-time topics (critical points with their RDF
//! and links) into the spatio-temporal knowledge store. The topics keep a
//! message only until every subscriber has read it, so the layer keeps
//! the input it synced ([`BatchState`]): a checkpoint carries it, and
//! recovery rebuilds the store from it.

use crate::config::DatacronConfig;
use crate::realtime::RealTimeLayer;
use datacron_geo::{EquiGrid, StCellEncoder};
use datacron_linkdisc::Link;
use datacron_rdf::vocab;
use datacron_store::{KnowledgeStore, StExecution, StarQuery, StoreConfig};
use datacron_stream::bus::{Consumer, Topic};
use datacron_synopses::CriticalPoint;
use std::sync::Arc;

/// The durable state of a [`BatchLayer`]: the input it synced into its
/// store, in sync order, and where its subscriptions stood.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchState {
    /// Critical points synced.
    pub critical: Vec<CriticalPoint>,
    /// Links synced.
    pub links: Vec<Link>,
    /// Next offset of the `critical-points` subscription.
    pub critical_offset: u64,
    /// Next offset of the `links` subscription.
    pub links_offset: u64,
    /// See [`BatchLayer::lagged_lost`].
    pub lagged_lost: u64,
}

/// The batch layer around a knowledge store.
pub struct BatchLayer {
    store: KnowledgeStore,
    critical_consumer: Option<Consumer<CriticalPoint>>,
    link_consumer: Option<Consumer<Link>>,
    /// The synced input. Its offsets are those of the last
    /// [`restore`](Self::restore); [`state`](Self::state) reads the live
    /// ones from the consumers.
    synced: BatchState,
}

impl BatchLayer {
    /// Creates a batch layer for the given system configuration.
    pub fn new(config: &DatacronConfig, store_config: StoreConfig) -> Self {
        let grid = EquiGrid::new(config.extent, config.st_grid_cells, config.st_grid_cells);
        let encoder = StCellEncoder::new(grid, config.epoch, config.st_bucket_millis);
        Self {
            store: KnowledgeStore::new(encoder, store_config),
            critical_consumer: None,
            link_consumer: None,
            synced: BatchState::default(),
        }
    }

    /// Subscribes to a real-time layer's output topics. After a
    /// [`restore`](Self::restore), subscribe once the layer's topics are
    /// restored: the consumers then pick up the suffix the checkpointed
    /// layer had not synced yet.
    pub fn subscribe(&mut self, realtime: &RealTimeLayer) {
        self.critical_consumer = Some(subscribe_at(&realtime.critical, self.synced.critical_offset));
        self.link_consumer = Some(subscribe_at(&realtime.links, self.synced.links_offset));
    }

    /// The layer's durable state: everything synced so far.
    pub fn state(&self) -> BatchState {
        BatchState {
            critical_offset: self.critical_consumer.as_ref().map_or(0, Consumer::offset),
            links_offset: self.link_consumer.as_ref().map_or(0, Consumer::offset),
            ..self.synced.clone()
        }
    }

    /// Rebuilds a freshly built layer from a [`state`](Self::state)
    /// snapshot by re-ingesting the synced input, and drops the
    /// subscriptions — [`subscribe`](Self::subscribe) again once the
    /// real-time layer is restored.
    pub fn restore(&mut self, state: BatchState) {
        self.critical_consumer = None;
        self.link_consumer = None;
        for cp in &state.critical {
            ingest_critical(&mut self.store, cp);
        }
        for link in &state.links {
            self.store.ingest(&link.to_triple());
        }
        self.synced = state;
    }

    /// Drains everything currently available from the subscribed topics
    /// into the store. Returns the number of semantic nodes ingested.
    ///
    /// A `Lagged` signal (an input topic was re-bounded and truncated
    /// under the consumer — e.g. by a subsystem that replaces a default
    /// unbounded topic with a bounded one) is absorbed: the skipped count
    /// is added to [`lagged_lost`](Self::lagged_lost) and the drain
    /// resumes from the surviving suffix. The hot batch path never
    /// panics on topic reconfiguration.
    pub fn sync(&mut self) -> u64 {
        let mut nodes = 0u64;
        let mut lost = 0u64;
        if let Some(consumer) = &mut self.critical_consumer {
            loop {
                match consumer.drain() {
                    Ok(batch) => {
                        if batch.is_empty() {
                            break;
                        }
                        for cp in &batch {
                            ingest_critical(&mut self.store, cp);
                        }
                        nodes += batch.len() as u64;
                        self.synced.critical.extend(batch);
                    }
                    Err(lagged) => lost += lagged.skipped,
                }
            }
        }
        if let Some(consumer) = &mut self.link_consumer {
            loop {
                match consumer.drain() {
                    Ok(batch) => {
                        if batch.is_empty() {
                            break;
                        }
                        for link in &batch {
                            self.store.ingest(&link.to_triple());
                        }
                        self.synced.links.extend(batch);
                    }
                    Err(lagged) => lost += lagged.skipped,
                }
            }
        }
        self.synced.lagged_lost += lost;
        nodes
    }

    /// Semantic nodes ingested so far.
    pub fn node_count(&self) -> u64 {
        self.synced.critical.len() as u64
    }

    /// Messages truncated from the input topics before the batch layer
    /// could sync them (observed as `Lagged`). The real-time output topics
    /// are unbounded and never truncate unread messages, but a subsystem
    /// may re-bound one (the live KG re-bounds `triples`); non-zero means
    /// such a topic's capacity was smaller than the sync cadence — loud,
    /// accounted data loss, never a panic.
    pub fn lagged_lost(&self) -> u64 {
        self.synced.lagged_lost
    }

    /// Total stored triples.
    pub fn triple_count(&self) -> usize {
        self.store.triple_count()
    }

    /// Read access to the store.
    pub fn store(&self) -> &KnowledgeStore {
        &self.store
    }

    /// Executes a star query with the given execution strategy.
    pub fn query(&self, q: &StarQuery, exec: StExecution) -> (Vec<datacron_rdf::term::Term>, datacron_store::store::QueryStats) {
        self.store.execute_star(q, exec)
    }
}

/// Stores one critical point as a spatio-temporal semantic node.
fn ingest_critical(store: &mut KnowledgeStore, cp: &CriticalPoint) {
    let node = vocab::node_iri(cp.report.entity, cp.report.ts.millis());
    let triples = datacron_rdf::connectors::lift_critical_points(std::slice::from_ref(cp));
    store.ingest_node(&node, &cp.report.point, cp.report.ts, &triples);
}

/// Subscribes to `topic` and moves past anything before `offset`: a
/// restored topic may still retain messages the layer synced before the
/// checkpoint, held there by a slower reader that did not survive it.
fn subscribe_at<T: Clone>(topic: &Arc<Topic<T>>, offset: u64) -> Consumer<T> {
    let mut consumer = topic.consumer();
    let behind = offset.saturating_sub(consumer.offset());
    if behind > 0 {
        let _ = consumer.poll(behind as usize);
    }
    consumer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatacronConfig;
    use datacron_geo::{BoundingBox, EntityId, GeoPoint, PositionReport, TimeInterval, Timestamp};
    use datacron_rdf::query::PatternTerm;
    use datacron_rdf::term::Term;

    fn driven_system() -> (RealTimeLayer, BatchLayer) {
        let extent = BoundingBox::new(0.0, 38.0, 3.0, 42.0);
        let config = DatacronConfig::maritime(extent);
        let mut rt = RealTimeLayer::new(config.clone(), Vec::new(), Vec::new());
        let mut batch = BatchLayer::new(&config, StoreConfig::default());
        batch.subscribe(&rt);
        // Drive a simple track with one turn.
        let mut p = GeoPoint::new(0.5, 40.0);
        for i in 0..120i64 {
            let heading = if i < 60 { 90.0 } else { 0.0 };
            let r = PositionReport {
                speed_mps: 8.0,
                heading_deg: heading,
                ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(i * 10), p)
            };
            rt.ingest(r);
            p = p.destination(heading, 80.0);
        }
        rt.flush();
        (rt, batch)
    }

    #[test]
    fn sync_ingests_critical_points_as_st_nodes() {
        let (_rt, mut batch) = driven_system();
        let nodes = batch.sync();
        assert!(nodes >= 2, "start + turn + end, got {nodes}");
        assert_eq!(batch.node_count(), nodes);
        assert!(batch.triple_count() >= nodes as usize * 10);
        // Second sync with nothing new is a no-op.
        assert_eq!(batch.sync(), 0);
    }

    #[test]
    fn star_query_finds_turn_events_with_st_constraint() {
        let (_rt, mut batch) = driven_system();
        batch.sync();
        let q = StarQuery {
            arms: vec![
                (vocab::rdf_type(), Some(vocab::semantic_node_class())),
                (vocab::event_type(), Some(Term::str("change_in_heading"))),
            ],
            st: Some((
                BoundingBox::new(0.0, 38.0, 3.0, 42.0),
                TimeInterval::new(Timestamp(0), Timestamp(10_000_000)),
            )),
        };
        let (push, push_stats) = batch.query(&q, StExecution::Pushdown);
        let (post, post_stats) = batch.query(&q, StExecution::PostFilter);
        assert_eq!(push, post, "strategies agree");
        assert!(!push.is_empty(), "the turn was stored");
        assert_eq!(push_stats.results, post_stats.results);
    }

    #[test]
    fn sync_survives_a_rebounded_lagging_topic() {
        // Regression: internal topics are not always unbounded (the live
        // KG re-bounds `triples`; anything may re-bound `critical-points`).
        // A bounded drop-oldest topic that truncates under the batch
        // consumer must surface as counted lag, never a panic.
        use datacron_stream::bus::{OverflowPolicy, Topic};
        let extent = BoundingBox::new(0.0, 38.0, 3.0, 42.0);
        let config = DatacronConfig::maritime(extent);
        let mut rt = RealTimeLayer::new(config.clone(), Vec::new(), Vec::new());
        // Re-bound the critical-points topic to a tiny drop-oldest ring
        // before anything subscribes or publishes.
        rt.critical = Topic::bounded("critical-points", 2, OverflowPolicy::DropOldest);
        let mut batch = BatchLayer::new(&config, StoreConfig::default());
        batch.subscribe(&rt);
        // Drive a zig-zag track through the batched hot path so well over
        // two critical points are published and the oldest are truncated
        // under the batch consumer.
        let mut p = GeoPoint::new(0.5, 40.0);
        let mut reports = Vec::new();
        for i in 0..300i64 {
            let heading = if (i / 20) % 2 == 0 { 90.0 } else { 0.0 };
            reports.push(PositionReport {
                speed_mps: 8.0,
                heading_deg: heading,
                ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(i * 10), p)
            });
            p = p.destination(heading, 80.0);
        }
        rt.ingest_batch(reports);
        rt.flush();
        assert!(
            rt.critical.stats().published > 2,
            "the track must publish more critical points than the ring holds"
        );
        let nodes = batch.sync(); // must not panic
        assert!(nodes > 0, "the surviving suffix still syncs");
        assert!(batch.lagged_lost() > 0, "the truncation is accounted, not silent");
        // A follow-up sync from a quiescent topic is a clean no-op.
        assert_eq!(batch.sync(), 0);
    }

    #[test]
    fn unrelated_patterns_do_not_match() {
        let (_rt, mut batch) = driven_system();
        batch.sync();
        let q = StarQuery {
            arms: vec![(vocab::event_type(), Some(Term::str("landing")))],
            st: None,
        };
        let (results, _) = batch.query(&q, StExecution::PostFilter);
        assert!(results.is_empty(), "no landings at sea");
        let _ = PatternTerm::var("unused"); // keep the import honest
    }
}
