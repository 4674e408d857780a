//! Dictionary encoding with spatio-temporal identifiers.
//!
//! Terms are mapped to dense `u64` ids. Ordinary terms get sequential ids
//! with the high bit clear. **Spatio-temporal entities** (semantic nodes
//! carrying a position and a timestamp) get ids with the high bit set whose
//! upper bits are the [`StCellId`] of their spatio-temporal cell:
//!
//! ```text
//!   [1][ st-cell id : 39 bits ][ sequence within cell : 24 bits ]
//! ```
//!
//! A query's spatio-temporal constraint maps to st-cell ranges
//! (`StCellEncoder::query_ranges`); because the cell id occupies the most
//! significant payload bits, each cell range is one *contiguous id range*,
//! so scans discard non-matching triples with two integer comparisons and
//! no dictionary lookup. Exact positions are also retained for final
//! refinement.

use datacron_geo::hash::FxHashMap;
use datacron_geo::stcell::IdRange;
use datacron_geo::{GeoPoint, StCellEncoder, StCellId, Timestamp};
use datacron_rdf::term::Term;
use std::collections::HashMap;

/// A dictionary-encoded term identifier.
pub type TermId = u64;

/// An encoded triple. Ordered by `(s, p, o)` — the sort key of the live
/// store's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EncodedTriple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

const ST_FLAG: u64 = 1 << 63;
const SEQ_BITS: u32 = 24;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// Maximum st-cell id representable (39 bits).
const CELL_LIMIT: u64 = 1 << (63 - SEQ_BITS);

/// Term ↔ id dictionary with the spatio-temporal id class.
#[derive(Debug)]
pub struct Dictionary {
    encoder: StCellEncoder,
    /// Keyed with the in-tree Fx hasher: one multiply per eight bytes of
    /// IRI, against SipHash's keyed rounds, on the live store's hot path.
    term_to_id: FxHashMap<Term, TermId>,
    /// Plain ids are dense and sequential: id `i` decodes through slot `i`.
    plain_terms: Vec<Term>,
    /// Each st id's term and exact anchor (for refinement). Not an Fx map:
    /// st ids differ in their high (cell) bits, which Fx's multiply keeps
    /// out of the bucket-picking low bits — a handful of long probe chains.
    st_terms: HashMap<TermId, (Term, GeoPoint, Timestamp)>,
    /// Next sequence number per st-cell.
    next_in_cell: FxHashMap<StCellId, u64>,
}

impl Dictionary {
    /// Creates a dictionary over the given spatio-temporal encoder.
    pub fn new(encoder: StCellEncoder) -> Self {
        Self {
            encoder,
            term_to_id: FxHashMap::default(),
            plain_terms: Vec::new(),
            st_terms: HashMap::new(),
            next_in_cell: FxHashMap::default(),
        }
    }

    /// The spatio-temporal encoder.
    pub fn encoder(&self) -> &StCellEncoder {
        &self.encoder
    }

    /// Encodes a term, returning its id and whether this call registered
    /// it. A known term costs one hash and no clone (`HashMap::entry` would
    /// clone the key's `Arc` on every hit to save one hash on a miss).
    /// `anchor` is asked only on first sight: an anchor inside the encoder's
    /// grid and epoch yields an st id embedding its cell, anything else a
    /// fresh plain id (outside the grid no st constraint can hold anyway).
    pub fn intern(&mut self, term: &Term, anchor: impl FnOnce() -> Option<(GeoPoint, Timestamp)>) -> (TermId, bool) {
        if let Some(&id) = self.term_to_id.get(term) {
            return (id, false);
        }
        let st = anchor().and_then(|(point, ts)| Some((self.encoder.encode(&point, ts)?, point, ts)));
        // Both asserts fire before the term is registered anywhere.
        let id = match st {
            Some((cell, point, ts)) => {
                assert!(cell.0 < CELL_LIMIT, "st-cell id space exhausted");
                let seq = self.next_in_cell.entry(cell).or_insert(0);
                assert!(*seq <= SEQ_MASK, "st-cell sequence space exhausted");
                let id = ST_FLAG | (cell.0 << SEQ_BITS) | *seq;
                *seq += 1;
                self.st_terms.insert(id, (term.clone(), point, ts));
                id
            }
            None => {
                let id = self.plain_terms.len() as TermId;
                assert!(id & ST_FLAG == 0, "plain id space exhausted");
                self.plain_terms.push(term.clone());
                id
            }
        };
        self.term_to_id.insert(term.clone(), id);
        (id, true)
    }

    /// Encodes an ordinary term, assigning a fresh plain id on first sight.
    pub fn encode(&mut self, term: &Term) -> TermId {
        self.intern(term, || None).0
    }

    /// Encodes a spatio-temporal entity term with its exact anchor. The id
    /// embeds the entity's st-cell. Entities outside the encoder's grid or
    /// epoch fall back to plain ids.
    pub fn encode_st(&mut self, term: &Term, point: &GeoPoint, ts: Timestamp) -> TermId {
        self.intern(term, || Some((*point, ts))).0
    }

    /// Looks up an already-encoded term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.term_to_id.get(term).copied()
    }

    /// Decodes an id.
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        if Self::is_st(id) {
            self.st_terms.get(&id).map(|(term, ..)| term)
        } else {
            self.plain_terms.get(id as usize)
        }
    }

    /// `true` when the id belongs to the spatio-temporal class.
    pub fn is_st(id: TermId) -> bool {
        id & ST_FLAG != 0
    }

    /// The st-cell embedded in an st id.
    pub fn st_cell(id: TermId) -> Option<StCellId> {
        Self::is_st(id).then_some(StCellId((id & !ST_FLAG) >> SEQ_BITS))
    }

    /// The exact anchor of an st term, for refinement.
    pub fn anchor(&self, id: TermId) -> Option<(GeoPoint, Timestamp)> {
        self.st_terms.get(&id).map(|&(_, point, ts)| (point, ts))
    }

    /// Translates st-cell ranges into *id ranges* over the st id class.
    /// The output is sorted and **coalesced** (overlapping or adjacent
    /// input ranges merge into one), which is exactly the precondition
    /// [`id_in_ranges`](Self::id_in_ranges) needs.
    pub fn id_ranges(ranges: &[IdRange]) -> Vec<(TermId, TermId)> {
        let mut out: Vec<(TermId, TermId)> = ranges
            .iter()
            .map(|r| {
                (
                    ST_FLAG | (r.lo.0 << SEQ_BITS),
                    ST_FLAG | (r.hi.0 << SEQ_BITS) | SEQ_MASK,
                )
            })
            .collect();
        out.sort_unstable();
        let mut merged: Vec<(TermId, TermId)> = Vec::with_capacity(out.len());
        for (lo, hi) in out {
            match merged.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// Binary-search membership of an id in sorted, **disjoint** id ranges
    /// (as produced by [`id_ranges`](Self::id_ranges); with overlapping
    /// ranges the search could land past the containing one).
    pub fn id_in_ranges(sorted_ranges: &[(TermId, TermId)], id: TermId) -> bool {
        let idx = sorted_ranges.partition_point(|&(lo, _)| lo <= id);
        idx > 0 && id <= sorted_ranges[idx - 1].1
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.term_to_id.len()
    }

    /// `true` when no terms are registered.
    pub fn is_empty(&self) -> bool {
        self.term_to_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, EquiGrid, TimeInterval};

    fn dict() -> Dictionary {
        let grid = EquiGrid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 16, 16);
        Dictionary::new(StCellEncoder::new(grid, Timestamp(0), 60_000))
    }

    #[test]
    fn plain_ids_round_trip_and_dedupe() {
        let mut d = dict();
        let a = d.encode(&Term::iri("x:a"));
        let b = d.encode(&Term::iri("x:b"));
        assert_ne!(a, b);
        assert_eq!(d.encode(&Term::iri("x:a")), a);
        assert_eq!(d.term_of(a), Some(&Term::iri("x:a")));
        assert!(!Dictionary::is_st(a));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn st_ids_embed_cell_and_round_trip() {
        let mut d = dict();
        let p = GeoPoint::new(3.1, 7.4);
        let t = Timestamp(90_000);
        let id = d.encode_st(&Term::iri("n:1"), &p, t);
        assert!(Dictionary::is_st(id));
        let cell = Dictionary::st_cell(id).unwrap();
        assert_eq!(cell, d.encoder().encode(&p, t).unwrap());
        assert_eq!(d.term_of(id), Some(&Term::iri("n:1")));
        assert_eq!(d.anchor(id), Some((p, t)));
    }

    #[test]
    fn same_cell_entities_get_distinct_ids() {
        let mut d = dict();
        let p = GeoPoint::new(3.1, 7.4);
        let a = d.encode_st(&Term::iri("n:1"), &p, Timestamp(0));
        let b = d.encode_st(&Term::iri("n:2"), &p, Timestamp(1));
        assert_ne!(a, b);
        assert_eq!(Dictionary::st_cell(a), Dictionary::st_cell(b));
    }

    #[test]
    fn out_of_grid_falls_back_to_plain() {
        let mut d = dict();
        let id = d.encode_st(&Term::iri("n:far"), &GeoPoint::new(50.0, 50.0), Timestamp(0));
        assert!(!Dictionary::is_st(id));
    }

    #[test]
    fn id_ranges_match_exactly_the_cells() {
        let mut d = dict();
        // Entities inside and outside the query window.
        let inside = d.encode_st(&Term::iri("n:in"), &GeoPoint::new(2.0, 2.0), Timestamp(30_000));
        let outside_space = d.encode_st(&Term::iri("n:out_s"), &GeoPoint::new(9.0, 9.0), Timestamp(30_000));
        let outside_time = d.encode_st(&Term::iri("n:out_t"), &GeoPoint::new(2.0, 2.0), Timestamp(600_000));
        let qbox = BoundingBox::new(1.0, 1.0, 3.0, 3.0);
        let qiv = TimeInterval::new(Timestamp(0), Timestamp(120_000));
        let mut ranges = Dictionary::id_ranges(&d.encoder().query_ranges(&qbox, &qiv));
        ranges.sort();
        assert!(Dictionary::id_in_ranges(&ranges, inside));
        assert!(!Dictionary::id_in_ranges(&ranges, outside_space));
        assert!(!Dictionary::id_in_ranges(&ranges, outside_time));
        // Plain ids never match.
        let plain = d.encode(&Term::iri("x:a"));
        assert!(!Dictionary::id_in_ranges(&ranges, plain));
    }

    #[test]
    fn id_in_ranges_boundaries() {
        let ranges = vec![(10u64, 20u64), (30, 40)];
        assert!(Dictionary::id_in_ranges(&ranges, 10));
        assert!(Dictionary::id_in_ranges(&ranges, 20));
        assert!(!Dictionary::id_in_ranges(&ranges, 25));
        assert!(Dictionary::id_in_ranges(&ranges, 30));
        assert!(!Dictionary::id_in_ranges(&ranges, 41));
        assert!(!Dictionary::id_in_ranges(&ranges, 5));
    }
}
