//! The live (streaming) knowledge store: incremental triple ingestion with
//! snapshot isolation and continuous star-join subscriptions.
//!
//! [`KnowledgeStore`](crate::KnowledgeStore) is a batch-load-then-query
//! structure: ingestion takes `&mut self` and readers wait. The paper's
//! architecture, though, feeds RDF generation into the store *while* the
//! real-time layer keeps producing — the serving-layer bridge from stream
//! processing to low-latency queries. [`LiveStore`] closes that gap:
//!
//! * **Incremental ingestion** — [`ingest_batch`](LiveStore::ingest_batch)
//!   dictionary-encodes a batch on the hot path and appends one immutable
//!   run sorted by `(s, p, o)` per touched partition, merging that
//!   partition's newest runs while the older is no more than
//!   [`MERGE_RATIO`]× the newer: O(log batches) runs however long the stream.
//! * **Snapshot isolation** — committed state is an immutable
//!   [`Generation`]: an `Arc` holding per-partition run lists and a
//!   triple-count watermark. Publishing a batch swaps one `Arc` pointer;
//!   readers pin a generation ([`snapshot`](LiveStore::snapshot)) and query
//!   it lock-free, so a concurrent reader sees either all of a batch or
//!   none of it, and the runs a merge supersedes live on while a pinned
//!   generation points at them. The dictionary is append-only
//!   and every id referenced by a committed generation is inserted before
//!   the generation is published, so pinned reads stay consistent while
//!   the dictionary grows.
//! * **Continuous queries** — register a [`StarQuery`] with
//!   [`subscribe`](LiveStore::subscribe) and receive [`StarMatch`]es on a
//!   bounded output [`Topic`](datacron_stream::bus::Topic) as triples
//!   arrive. Star-join matches are *monotone* (triples are only added and
//!   anchors are fixed at encode time), so each subject is emitted exactly
//!   once and the union of emissions equals the result of one
//!   [`execute_star`](LiveSnapshot::execute_star) over the final state —
//!   independent of how the stream was batched — and a batch need only be
//!   asked about the subjects to which it adds a row satisfying an arm.
//!
//! # Anchors on the live path
//!
//! The batch path learns each semantic node's exact anchor out-of-band
//! (`ingest_node(node, point, ts, …)`). The live path sees only triples, so
//! it recovers anchors *from the data*: a subject carrying both a
//! `geo:asWKT` `POINT` literal and a datAcron `hasTemporalFeature`
//! dateTime literal in the batch of its first appearance is
//! spatio-temporally encoded with that anchor. The pipeline publishes each
//! semantic node's graph atomically (one `publish_batch` per critical
//! point), so a drain never splits a node's triples across batches and the
//! derived anchors equal the batch path's exactly — `kg_live` pins this
//! equivalence under chaos. (A caller that does split a node gets a plain
//! subject no st window matches; every other guarantee holds.)

use crate::dictionary::{Dictionary, EncodedTriple, TermId};
use crate::run::{arm_in, for_each_subject, Arm, SortedRun};
use crate::store::{partition_index, QueryStats, StExecution, StarQuery, StoreConfig};
use crate::subscribe::{Subscription, SubscriptionHandle, SubscriptionStats};
use datacron_geo::hash::FxHashMap;
use datacron_geo::{GeoPoint, StCellEncoder, Timestamp};
use datacron_rdf::term::{Literal, Term, Triple};
use datacron_rdf::vocab;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// Size-tiered merge rule: a partition's two newest runs merge while the
/// older holds no more than this many times the newer's triples. Every run
/// then outweighs its newer neighbour twice over — at most log₂(triples) + 1
/// runs — and a triple is copied O(log) times over its life.
const MERGE_RATIO: usize = 2;

/// An immutable committed state of the live store: per-partition lists of
/// sorted runs plus the triple-count watermark. Readers pin a generation
/// and query it without locks; writers never mutate a published
/// generation, they publish a successor.
#[derive(Clone)]
pub struct Generation {
    /// Monotone generation number (0 = empty store).
    number: u64,
    /// Total triples committed up to and including this generation.
    watermark: u64,
    /// Sorted runs, one list per partition, oldest (largest) first.
    segments: Vec<Vec<Arc<SortedRun>>>,
}

impl Generation {
    fn empty(partitions: usize) -> Self {
        Self {
            number: 0,
            watermark: 0,
            segments: vec![Vec::new(); partitions],
        }
    }

    /// The generation number (how many non-empty batches were committed).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// Total triples committed (the consistency watermark: always a batch
    /// boundary, never mid-batch).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Stored triples, summed over every segment — equals
    /// [`watermark`](Self::watermark) by construction; the snapshot-
    /// isolation tests assert this invariant concurrently with ingestion.
    pub fn triple_count(&self) -> u64 {
        self.segments.iter().flatten().map(|run| run.len() as u64).sum()
    }

    /// Segments summed over all partitions (diagnostics).
    pub fn segment_count(&self) -> usize {
        self.segments.iter().map(|p| p.len()).sum()
    }

    /// The runs of the partition that owns subject `s`.
    fn partition_of(&self, s: TermId) -> &[Arc<SortedRun>] {
        &self.segments[partition_index(s, self.segments.len())]
    }
}

/// What one [`LiveStore::ingest_batch`] call committed and matched.
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Triples appended by this batch.
    pub triples: u64,
    /// Subjects newly registered in the spatio-temporal id class (anchor
    /// derived from their `asWKT`/`hasTemporalFeature` literals).
    pub new_st_subjects: u64,
    /// Matches newly emitted across all subscriptions.
    pub new_matches: u64,
    /// Ingest-to-match latency of each emitted match, nanoseconds from
    /// batch start (one entry per match, emission order).
    pub match_ns: Vec<u64>,
    /// Generation number after the commit.
    pub generation: u64,
    /// Triple watermark after the commit.
    pub watermark: u64,
}

/// The live, concurrently-readable knowledge store.
///
/// All methods take `&self`: share it via `Arc` (or borrow it into scoped
/// threads) and ingest from one thread while others read pinned snapshots.
/// Concurrent `ingest_batch` calls are serialized by an internal writer
/// lock.
pub struct LiveStore {
    /// Only `partitions` is read; `layout` is the batch store's variable.
    config: StoreConfig,
    /// Term dictionary. Append-only: ids are never re-assigned, so readers
    /// holding an older generation can always decode their ids.
    dict: RwLock<Dictionary>,
    /// The committed generation. Swapped atomically (under a short write
    /// lock) after a batch is fully built; readers clone the `Arc`.
    committed: RwLock<Arc<Generation>>,
    /// Serializes writers (ingestion and subscription registration).
    writer: Mutex<()>,
    /// Continuous star-join subscriptions.
    subs: Mutex<Vec<Subscription>>,
    next_sub_id: AtomicU64,
    /// Total spatio-temporally encoded subjects (monotone, set-based).
    st_subjects: AtomicU64,
}

/// Takes a store lock's guard whether or not the lock is poisoned: a writer
/// that panicked mid-batch (the dictionary's id-space asserts are reachable
/// from input) must not turn every later `snapshot`, `stats`, `health` and
/// barrier into a panic too. Sound because nothing behind these locks is
/// left half-updated — a generation is published only once its batch is
/// fully built, the dictionary is append-only and asserts before it
/// registers — so the interrupted batch is simply not committed.
fn relock<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Parses a `POINT (lon lat)` WKT literal. Rust's `f64` display is the
/// shortest round-trip form, so `parse` recovers the generating point
/// exactly and live anchors equal batch anchors bit-for-bit.
fn parse_point_wkt(s: &str) -> Option<GeoPoint> {
    let inner = s.trim().strip_prefix("POINT")?.trim().strip_prefix('(')?.strip_suffix(')')?;
    let mut it = inner.split_whitespace();
    let lon: f64 = it.next()?.parse().ok()?;
    let lat: f64 = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(GeoPoint::new(lon, lat))
}

/// Encodes a star query's arms; `None` when any arm term is still unknown
/// to the dictionary — no stored triple can then satisfy every arm, so the
/// query has no matches yet.
fn encode_arms(dict: &Dictionary, q: &StarQuery) -> Option<Vec<Arm>> {
    let mut arms = Vec::with_capacity(q.arms.len());
    for (p, o) in &q.arms {
        let p_id = dict.id_of(p)?;
        let o_id = match o {
            None => None,
            Some(term) => Some(dict.id_of(term)?),
        };
        arms.push((p_id, o_id));
    }
    Some(arms)
}

/// Exact spatio-temporal refinement of one candidate (both execution
/// modes; identical to the batch executor's final step).
fn anchor_passes(dict: &Dictionary, q: &StarQuery, s: TermId) -> bool {
    match &q.st {
        None => true,
        Some((bbox, interval)) => dict
            .anchor(s)
            .is_some_and(|(p, t)| bbox.contains(&p) && interval.contains(t)),
    }
}

/// The sorted, coalesced id ranges a query's st window pushes down into
/// the scans (they depend only on the encoder, fixed at construction).
fn pushdown_ranges(dict: &Dictionary, q: &StarQuery) -> Option<Vec<(TermId, TermId)>> {
    let (bbox, interval) = q.st.as_ref()?;
    Some(Dictionary::id_ranges(&dict.encoder().query_ranges(bbox, interval)))
}

impl LiveStore {
    /// Creates an empty live store over the given spatio-temporal encoder.
    pub fn new(encoder: StCellEncoder, config: StoreConfig) -> Self {
        assert!(config.partitions > 0, "need at least one partition");
        let partitions = config.partitions;
        Self {
            config,
            dict: RwLock::new(Dictionary::new(encoder)),
            committed: RwLock::new(Arc::new(Generation::empty(partitions))),
            writer: Mutex::new(()),
            subs: Mutex::new(Vec::new()),
            next_sub_id: AtomicU64::new(0),
            st_subjects: AtomicU64::new(0),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    fn committed(&self) -> Arc<Generation> {
        relock(self.committed.read()).clone()
    }

    /// Pins the committed generation for isolated reads. The snapshot
    /// keeps answering from its pinned state however many batches commit
    /// after it.
    pub fn snapshot(&self) -> LiveSnapshot<'_> {
        LiveSnapshot {
            store: self,
            generation: self.committed(),
        }
    }

    /// Total committed triples (the current watermark).
    pub fn triple_count(&self) -> u64 {
        self.committed().watermark
    }

    /// The exact anchor of a spatio-temporally encoded subject, when the
    /// live path derived one from its `asWKT`/`hasTemporalFeature`
    /// literals.
    pub fn anchor_of(&self, term: &Term) -> Option<(GeoPoint, Timestamp)> {
        let dict = relock(self.dict.read());
        dict.id_of(term).and_then(|id| dict.anchor(id))
    }

    /// Point-in-time statistics (for health reporting).
    pub fn stats(&self) -> LiveStoreStats {
        let generation = self.committed();
        let subs = relock(self.subs.lock());
        LiveStoreStats {
            generation: generation.number,
            watermark: generation.watermark,
            segments: generation.segment_count() as u64,
            st_subjects: self.st_subjects.load(Ordering::Relaxed),
            subscriptions: subs.len() as u64,
            matches_emitted: subs.iter().map(|s| s.emitted_count()).sum(),
            match_drops: subs.iter().map(|s| s.dropped()).sum(),
        }
    }

    /// Per-subscription statistics, in registration order.
    pub fn subscription_stats(&self) -> Vec<SubscriptionStats> {
        relock(self.subs.lock()).iter().map(Subscription::stats).collect()
    }

    /// Registers a continuous star-join subscription. Matches already
    /// present in the committed state are emitted immediately (backfill,
    /// counted in the handle's `backfilled`), then every batch that
    /// completes a new match emits it exactly once —
    /// the union of emissions always equals a fresh
    /// [`execute_star`](LiveSnapshot::execute_star) over the current state.
    /// Matches land on a bounded topic of the given capacity with
    /// drop-oldest overflow: a subscriber that falls behind observes a
    /// `Lagged` signal and can re-sync from a snapshot query.
    pub fn subscribe(&self, query: StarQuery, capacity: usize) -> SubscriptionHandle {
        let _w = relock(self.writer.lock());
        let id = self.next_sub_id.fetch_add(1, Ordering::Relaxed);
        let generation = self.committed();
        let dict = relock(self.dict.read());
        let ranges = pushdown_ranges(&dict, &query);
        let mut sub = Subscription::new(id, query, ranges, capacity);
        let mut handle = sub.handle();
        // Backfill: emit everything the committed state already matches.
        let (ids, _) = eval_star(&dict, &generation, sub.query(), StExecution::Pushdown);
        handle.backfilled = ids.len() as u64;
        for s in ids {
            sub.emit(s, dict.term_of(s).expect("ids come from the store").clone(), None);
        }
        relock(self.subs.lock()).push(sub);
        handle
    }

    /// Ingests a batch of triples: dictionary-encodes them (deriving
    /// spatio-temporal anchors from `asWKT`/`hasTemporalFeature` literals),
    /// appends one sorted run per touched partition and merges behind it,
    /// publishes the successor generation, and evaluates every
    /// subscription on the batch's delta. Concurrent readers observe
    /// either the previous or the new generation, never a partial batch.
    pub fn ingest_batch(&self, triples: &[Triple]) -> BatchSummary {
        let t0 = Instant::now();
        let _w = relock(self.writer.lock());
        let prev = self.committed();
        if triples.is_empty() {
            return BatchSummary {
                generation: prev.number,
                watermark: prev.watermark,
                ..BatchSummary::default()
            };
        }

        // Pass 1: collect anchors — subjects carrying both a WKT point and
        // a temporal literal in this batch. A look-ahead, because a subject
        // is st-encoded at its first triple and the literals come later.
        let wkt_p = vocab::as_wkt();
        let time_p = vocab::has_time();
        let mut anchors: FxHashMap<&Term, (Option<GeoPoint>, Option<Timestamp>)> = FxHashMap::default();
        for t in triples {
            if t.p == wkt_p {
                if let Term::Literal(Literal::Wkt(s)) = &t.o {
                    if let Some(point) = parse_point_wkt(s) {
                        anchors.entry(&t.s).or_default().0 = Some(point);
                    }
                }
            } else if t.p == time_p {
                if let Term::Literal(Literal::DateTime(ms)) = &t.o {
                    anchors.entry(&t.s).or_default().1 = Some(Timestamp(*ms));
                }
            }
        }

        // Pass 2: encode. Anchored subjects are st-encoded at their first
        // appearance (in triple order, so id assignment is deterministic);
        // everything else gets plain ids in encounter order — exactly the
        // order `KnowledgeStore::ingest_node` produces for the same data.
        // A node's triples arrive contiguously, so a repeated subject
        // reuses the previous triple's id without touching the dictionary.
        // `fresh`: subjects the dictionary first heard of in this batch —
        // no older run can hold a row of theirs.
        let mut new_st = 0u64;
        let mut batch: Vec<EncodedTriple> = Vec::with_capacity(triples.len());
        let mut fresh: Vec<TermId> = Vec::new();
        {
            let mut dict = relock(self.dict.write());
            let mut last: Option<(&Term, TermId)> = None;
            for t in triples {
                let s = match last {
                    Some((term, id)) if *term == t.s => id,
                    _ => {
                        let (id, new) = dict.intern(&t.s, || match anchors.get(&t.s) {
                            Some(&(Some(point), Some(ts))) => Some((point, ts)),
                            _ => None,
                        });
                        if new {
                            fresh.push(id);
                            new_st += u64::from(Dictionary::is_st(id));
                        }
                        last = Some((&t.s, id));
                        id
                    }
                };
                let p = dict.encode(&t.p);
                let o = dict.encode(&t.o);
                batch.push(EncodedTriple { s, p, o });
            }
        }
        self.st_subjects.fetch_add(new_st, Ordering::Relaxed);
        batch.sort_unstable();
        fresh.sort_unstable();

        // One run per touched partition (rows dealt out in order stay
        // sorted), merged behind by the size-tiered rule; then readers switch
        // to the successor generation at a single pointer swap.
        let partitions = self.config.partitions;
        let mut per_part: Vec<Vec<EncodedTriple>> = vec![Vec::new(); partitions];
        for rows in batch.chunk_by(|a, b| a.s == b.s) {
            per_part[partition_index(rows[0].s, partitions)].extend_from_slice(rows);
        }
        let mut segments = prev.segments.clone();
        for (runs, rows) in segments.iter_mut().zip(per_part) {
            if rows.is_empty() {
                continue;
            }
            let mut newest = SortedRun::from_sorted(rows);
            while runs.last().is_some_and(|older| older.len() <= MERGE_RATIO * newest.len()) {
                newest = runs.pop().expect("checked non-empty").merge(&newest);
            }
            runs.push(Arc::new(newest));
        }
        let mut summary = BatchSummary {
            triples: triples.len() as u64,
            new_st_subjects: new_st,
            generation: prev.number + 1,
            watermark: prev.watermark + triples.len() as u64,
            ..BatchSummary::default()
        };
        *relock(self.committed.write()) = Arc::new(Generation {
            number: summary.generation,
            watermark: summary.watermark,
            segments,
        });

        // Continuous queries, semi-naive: star joins over an append-only
        // store are monotone, so a subject can *become* a match only in a
        // batch that adds a row satisfying one of the subscription's arms.
        // Those subjects alone are candidates (ascending id: deterministic
        // emission); the batch's own rows answer first, the previous
        // generation's runs only for subjects the dictionary already knew.
        let batch = SortedRun::from_sorted(batch);
        let dict = relock(self.dict.read());
        let mut subs = relock(self.subs.lock());
        for sub in subs.iter_mut() {
            let Some(arms) = encode_arms(&dict, sub.query()) else {
                continue;
            };
            let mut matched: Vec<TermId> = Vec::new();
            for_each_subject(&[&batch], sub.ranges(), |rows| {
                let s = rows[0][0].s;
                if !arms.iter().any(|arm| arm_in(rows, arm)) || sub.already_emitted(s) {
                    return;
                }
                // Older runs newest first, each pruned by its zone map.
                let older = if fresh.binary_search(&s).is_ok() { &[][..] } else { prev.partition_of(s) };
                let holds = |arm: &Arm| arm_in(rows, arm) || older.iter().rev().any(|run| run.subject_has(s, arm.0, arm.1));
                if arms.iter().all(holds) && anchor_passes(&dict, sub.query(), s) {
                    matched.push(s);
                }
            });
            let latency = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            for s in matched {
                sub.emit(s, dict.term_of(s).expect("ids come from the store").clone(), Some(latency));
                summary.new_matches += 1;
                summary.match_ns.push(latency);
            }
        }
        summary
    }
}

/// The star executor over a pinned generation: each partition's runs are
/// read in step (cut down to the st id ranges under pushdown), so every
/// subject is met once with all its rows. Returns sorted matching ids — the
/// same answer and [`QueryStats`] semantics as
/// [`KnowledgeStore::execute_star`](crate::KnowledgeStore::execute_star).
fn eval_star(dict: &Dictionary, generation: &Generation, q: &StarQuery, exec: StExecution) -> (Vec<TermId>, QueryStats) {
    let mut stats = QueryStats::default();
    let Some(arms) = encode_arms(dict, q).filter(|arms| !arms.is_empty()) else {
        return (Vec::new(), stats);
    };
    let ranges = match exec {
        StExecution::Pushdown => pushdown_ranges(dict, q),
        StExecution::PostFilter => None,
    };
    // Seed on an arm with a constant object (most selective) when there is one.
    let seed = arms[arms.iter().position(|(_, o)| o.is_some()).unwrap_or(0)];
    let mut matched = Vec::new();
    for runs in &generation.segments {
        for_each_subject(runs, ranges.as_deref(), |rows| {
            if arm_in(rows, &seed) {
                stats.seed_candidates += 1;
                if arms.iter().all(|arm| arm_in(rows, arm)) {
                    matched.push(rows[0][0].s);
                }
            }
        });
    }
    stats.pattern_matches = matched.len() as u64;
    matched.retain(|&s| anchor_passes(dict, q, s));
    matched.sort_unstable();
    stats.results = matched.len() as u64;
    (matched, stats)
}

/// Point-in-time statistics of a [`LiveStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStoreStats {
    /// Committed generation number.
    pub generation: u64,
    /// Committed triples.
    pub watermark: u64,
    /// Sorted runs across all partitions.
    pub segments: u64,
    /// Subjects in the spatio-temporal id class.
    pub st_subjects: u64,
    /// Registered subscriptions.
    pub subscriptions: u64,
    /// Matches emitted across all subscriptions.
    pub matches_emitted: u64,
    /// Matches truncated from subscription topics by slow subscribers
    /// (drop-oldest overflow; the subscriber observes `Lagged`).
    pub match_drops: u64,
}

/// A pinned, isolated read view of a [`LiveStore`]: queries answer from
/// the generation committed when the snapshot was taken, unaffected by
/// concurrent ingestion.
pub struct LiveSnapshot<'a> {
    store: &'a LiveStore,
    generation: Arc<Generation>,
}

impl LiveSnapshot<'_> {
    /// The pinned generation.
    pub fn generation(&self) -> &Generation {
        &self.generation
    }

    /// Committed triples at pin time — always a batch boundary.
    pub fn triple_count(&self) -> u64 {
        self.generation.watermark
    }

    /// Executes a star query against the pinned state, with the same
    /// semantics and [`QueryStats`] as
    /// [`KnowledgeStore::execute_star`](crate::KnowledgeStore::execute_star).
    pub fn execute_star(&self, q: &StarQuery, exec: StExecution) -> (Vec<Term>, QueryStats) {
        let dict = relock(self.store.dict.read());
        let (ids, stats) = eval_star(&dict, &self.generation, q, exec);
        let terms = ids
            .into_iter()
            .map(|id| dict.term_of(id).expect("result ids come from the store").clone())
            .collect();
        (terms, stats)
    }

    /// Objects of `(subject, predicate)` in the pinned state.
    pub fn objects_of(&self, subject: &Term, predicate: &Term) -> Vec<Term> {
        let dict = relock(self.store.dict.read());
        let (Some(s), Some(p)) = (dict.id_of(subject), dict.id_of(predicate)) else {
            return Vec::new();
        };
        self.generation
            .partition_of(s)
            .iter()
            .flat_map(|run| run.objects_of(s, p))
            .filter_map(|o| dict.term_of(o).cloned())
            .collect()
    }
}

/// Emits the triples [`KnowledgeStore::ingest_node`](crate::KnowledgeStore::ingest_node)
/// callers would pass, in live form: the anchor triples (`asWKT` +
/// `hasTemporalFeature`) that let the live path re-derive the node's
/// spatio-temporal anchor. Test/fixture helper.
pub fn anchored_node_triples(node: &Term, point: &GeoPoint, ts: Timestamp, extra: &[Triple]) -> Vec<Triple> {
    let mut out = vec![
        Triple::new(node.clone(), vocab::as_wkt(), Term::wkt(point.to_wkt())),
        Triple::new(node.clone(), vocab::has_time(), Term::datetime(ts.millis())),
    ];
    out.extend(extra.iter().cloned());
    out
}

// StarMatch is re-exported here for discoverability next to the store.
pub use crate::subscribe::StarMatch as LiveStarMatch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutKind;
    use crate::store::KnowledgeStore;
    use datacron_geo::{BoundingBox, EquiGrid, TimeInterval};
    use std::collections::HashSet;

    fn encoder() -> StCellEncoder {
        let grid = EquiGrid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 16, 16);
        StCellEncoder::new(grid, Timestamp(0), 60_000)
    }

    fn node_graph(i: usize) -> (Term, GeoPoint, Timestamp, Vec<Triple>) {
        let node = Term::iri(format!("n:{i}"));
        let point = GeoPoint::new((i % 100) as f64 * 0.1, ((i / 100) % 100) as f64 * 0.1);
        let ts = Timestamp((i as i64 % 50) * 30_000);
        let event = if i.is_multiple_of(4) { "turn" } else { "cruise" };
        let extra = vec![
            Triple::new(node.clone(), Term::iri("p:type"), Term::iri("c:Node")),
            Triple::new(node.clone(), Term::iri("p:event"), Term::str(event)),
            Triple::new(node.clone(), Term::iri("p:speed"), Term::double(i as f64)),
        ];
        (node.clone(), point, ts, anchored_node_triples(&node, &point, ts, &extra))
    }

    fn turn_query(st: Option<(BoundingBox, TimeInterval)>) -> StarQuery {
        StarQuery {
            arms: vec![
                (Term::iri("p:type"), Some(Term::iri("c:Node"))),
                (Term::iri("p:event"), Some(Term::str("turn"))),
                (Term::iri("p:speed"), None),
            ],
            st,
        }
    }

    fn st_window() -> Option<(BoundingBox, TimeInterval)> {
        Some((
            BoundingBox::new(1.0, 0.0, 4.0, 0.4),
            TimeInterval::new(Timestamp(0), Timestamp(600_000)),
        ))
    }

    #[test]
    fn wkt_round_trips_exactly() {
        for p in [
            GeoPoint::new(3.1, 7.4),
            GeoPoint::new(-0.000001, 89.999999),
            GeoPoint::new(0.1 + 0.2, 1.0 / 3.0),
        ] {
            let parsed = parse_point_wkt(&p.to_wkt()).unwrap();
            assert_eq!(parsed.lon.to_bits(), p.lon.to_bits());
            assert_eq!(parsed.lat.to_bits(), p.lat.to_bits());
        }
        assert!(parse_point_wkt("LINESTRING (0 0, 1 1)").is_none());
        assert!(parse_point_wkt("POINT (1 2 3)").is_none());
        assert!(parse_point_wkt("POINT (x y)").is_none());
    }

    #[test]
    fn live_batches_equal_batch_store() {
        // Stream the fixture through the live store in many small batches;
        // the final snapshot must answer exactly like a KnowledgeStore
        // batch-loaded with ingest_node from the same data.
        for layout in [
            LayoutKind::TriplesTable,
            LayoutKind::VerticalPartitioning,
            LayoutKind::PropertyTable,
        ] {
            let config = StoreConfig { layout, partitions: 3 };
            let live = LiveStore::new(encoder(), config.clone());
            let mut batch = KnowledgeStore::new(encoder(), config);
            for i in 0..400 {
                let (node, point, ts, triples) = node_graph(i);
                live.ingest_batch(&triples);
                batch.ingest_node(&node, &point, ts, &triples);
            }
            assert_eq!(live.triple_count() as usize, batch.triple_count());
            for st in [None, st_window()] {
                for exec in [StExecution::Pushdown, StExecution::PostFilter] {
                    let (a, sa) = live.snapshot().execute_star(&turn_query(st), exec);
                    let (b, sb) = batch.execute_star(&turn_query(st), exec);
                    // Ids are assigned in the same order on both paths, so
                    // even the sorted term sequences agree.
                    assert_eq!(a, b, "layout {layout:?} exec {exec:?} st {:?}", st.is_some());
                    assert_eq!(sa, sb, "stats disagree: layout {layout:?} exec {exec:?}");
                }
            }
            // Anchors derived from WKT equal the out-of-band ones.
            for i in [0usize, 7, 123, 399] {
                let (node, ..) = node_graph(i);
                assert_eq!(live.anchor_of(&node), batch.anchor_of(&node), "node {i}");
            }
        }
    }

    #[test]
    fn subscription_emits_exactly_the_final_match_set() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        let handle = live.subscribe(turn_query(st_window()), 1024);
        let mut emitted = Vec::new();
        for i in 0..300 {
            let (_, _, _, triples) = node_graph(i);
            live.ingest_batch(&triples);
        }
        let mut consumer = handle.matches;
        emitted.extend(consumer.drain().expect("bounded topic not overflowed"));
        let subjects: HashSet<Term> = emitted.iter().map(|m| m.subject.clone()).collect();
        assert_eq!(emitted.len(), subjects.len(), "each subject emitted once");
        let (final_set, _) = live.snapshot().execute_star(&turn_query(st_window()), StExecution::Pushdown);
        assert_eq!(subjects, final_set.into_iter().collect::<HashSet<_>>());
        assert!(!subjects.is_empty(), "fixture must produce matches");
        assert!(emitted.iter().all(|m| m.subscription == handle.id));
    }

    #[test]
    fn late_subscription_backfills_committed_matches() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        for i in 0..120 {
            let (_, _, _, triples) = node_graph(i);
            live.ingest_batch(&triples);
        }
        let mut handle = live.subscribe(turn_query(None), 1024);
        let backfilled = handle.matches.drain().expect("no overflow");
        let (final_set, _) = live.snapshot().execute_star(&turn_query(None), StExecution::Pushdown);
        assert_eq!(backfilled.len(), final_set.len());
        // New batches keep appending only new matches.
        for i in 120..160 {
            let (_, _, _, triples) = node_graph(i);
            live.ingest_batch(&triples);
        }
        let incremental = handle.matches.drain().expect("no overflow");
        assert_eq!(backfilled.len() + incremental.len(), final_set.len() + 10,
            "i in 120..160 adds 10 turn nodes");
    }

    #[test]
    fn snapshots_pin_their_generation() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        let (_, _, _, t0) = node_graph(0);
        live.ingest_batch(&t0);
        let pinned = live.snapshot();
        let w0 = pinned.triple_count();
        let (_, _, _, t1) = node_graph(1);
        live.ingest_batch(&t1);
        assert_eq!(pinned.triple_count(), w0, "pinned snapshot is immutable");
        assert_eq!(live.snapshot().triple_count(), w0 + t1.len() as u64);
        assert_eq!(pinned.generation().triple_count(), w0, "watermark equals stored triples");
    }

    #[test]
    fn concurrent_readers_never_observe_partial_batches() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        let batch_len = node_graph(0).3.len() as u64;
        std::thread::scope(|scope| {
            let store = &live;
            let reader = scope.spawn(move || {
                let mut observed = Vec::new();
                for _ in 0..2000 {
                    let snap = store.snapshot();
                    let w = snap.triple_count();
                    assert_eq!(snap.generation().triple_count(), w, "segments sum to watermark");
                    assert_eq!(w % batch_len, 0, "watermark is a batch boundary");
                    observed.push(w);
                }
                observed
            });
            for i in 0..300 {
                let (_, _, _, triples) = node_graph(i);
                assert_eq!(triples.len() as u64, batch_len);
                store.ingest_batch(&triples);
            }
            let observed = reader.join().expect("reader panicked");
            assert!(observed.windows(2).all(|w| w[0] <= w[1]), "watermarks are monotone");
        });
    }

    #[test]
    fn pushdown_prunes_the_seed_scan_on_the_merged_layout() {
        // The paper's mechanism, on runs that have been through merges: an
        // st id range must still be a slice of a run, so the seed scan under
        // pushdown meets strictly fewer candidates than the post-filter
        // plan, for the same answer.
        let live = LiveStore::new(encoder(), StoreConfig::default());
        for i in 0..1000 {
            live.ingest_batch(&node_graph(i).3);
        }
        let snap = live.snapshot();
        assert!(
            snap.generation().segment_count() < 40,
            "1000 batches merged down to {} runs",
            snap.generation().segment_count()
        );
        let (push, push_stats) = snap.execute_star(&turn_query(st_window()), StExecution::Pushdown);
        let (post, post_stats) = snap.execute_star(&turn_query(st_window()), StExecution::PostFilter);
        assert_eq!(push, post);
        assert!(!push.is_empty(), "the window keeps some turn nodes");
        assert!(
            push_stats.seed_candidates * 4 < post_stats.seed_candidates,
            "pushdown {} vs post-filter {} seed candidates",
            push_stats.seed_candidates,
            post_stats.seed_candidates
        );
        assert_eq!(push_stats.results, post_stats.results);
    }

    #[test]
    fn a_writer_panic_mid_batch_leaves_the_store_serving() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        let handle = live.subscribe(turn_query(None), 1024);
        for i in 0..40 {
            live.ingest_batch(&node_graph(i).3);
        }
        let before = live.snapshot().execute_star(&turn_query(None), StExecution::Pushdown);
        // A writer dies where `ingest_batch` can (one of the dictionary's
        // id-space asserts): holding the writer lock, the dictionary write
        // lock and the subscription list, with the batch not yet published.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _writer = live.writer.lock().unwrap();
            let _dict = live.dict.write().unwrap();
            let _subs = live.subs.lock().unwrap();
            panic!("simulated: st-cell sequence space exhausted");
        }));
        assert!(died.is_err());
        assert!(live.writer.is_poisoned() && live.dict.is_poisoned() && live.subs.is_poisoned());
        // Readers answer from the last committed generation …
        assert_eq!(live.snapshot().execute_star(&turn_query(None), StExecution::Pushdown), before);
        assert_eq!(live.stats().generation, 40);
        assert_eq!(live.triple_count(), live.snapshot().generation().triple_count());
        assert!(live.anchor_of(&node_graph(3).0).is_some());
        // … and the next writer carries on from it.
        for i in 40..80 {
            live.ingest_batch(&node_graph(i).3);
        }
        assert_eq!(live.stats().generation, 80);
        let mut consumer = handle.matches;
        assert_eq!(consumer.drain().expect("no overflow").len(), 20, "i % 4 == 0 in 0..80");
        assert_eq!(live.subscribe(turn_query(None), 64).backfilled, 20);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        let summary = live.ingest_batch(&[]);
        assert_eq!(summary.generation, 0);
        assert_eq!(summary.triples, 0);
        assert_eq!(live.snapshot().generation().number(), 0);
    }

    #[test]
    fn stats_track_ingest_and_matches() {
        let live = LiveStore::new(encoder(), StoreConfig::default());
        let _handle = live.subscribe(turn_query(None), 64);
        for i in 0..40 {
            let (_, _, _, triples) = node_graph(i);
            live.ingest_batch(&triples);
        }
        let stats = live.stats();
        assert_eq!(stats.generation, 40);
        assert_eq!(stats.watermark, live.triple_count());
        assert_eq!(stats.st_subjects, 40, "every node carries an anchor");
        assert_eq!(stats.subscriptions, 1);
        assert_eq!(stats.matches_emitted, 10, "i % 4 == 0 in 0..40");
        assert_eq!(stats.match_drops, 0);
    }
}
