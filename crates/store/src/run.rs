//! The live store's one segment type: an immutable run of encoded triples
//! sorted by `(s, p, o)`. A subject's rows are contiguous, the first and
//! last subject are the run's zone map, a point lookup is a binary search,
//! and — a spatio-temporal id carries its cell in its high bits — a
//! pushdown id range is one slice. Two runs merge in a linear pass, which
//! keeps a partition at O(log batches) of them, and a query reads those few
//! in step ([`for_each_subject`]) as if they were one.

use crate::dictionary::{EncodedTriple, TermId};
use std::ops::Deref;

/// One star-query arm in id space: predicate, and object unless "any".
pub(crate) type Arm = (TermId, Option<TermId>);

/// `true` when a row in one of `parts` (one subject's rows, run by run)
/// satisfies `arm`.
pub(crate) fn arm_in(parts: &[&[EncodedTriple]], &(p, o): &Arm) -> bool {
    parts.iter().copied().flatten().any(|t| t.p == p && o.is_none_or(|o| t.o == o))
}

/// `rows.partition_point(pred)` probing outwards from the front, O(log of
/// the answer): a sweep of ascending keys touches only rows near each cut.
fn gallop(rows: &[EncodedTriple], pred: impl Fn(&EncodedTriple) -> bool) -> usize {
    let mut step = 1;
    while step < rows.len() && pred(&rows[step]) {
        step *= 2;
    }
    let from = step / 2;
    from + rows[from..rows.len().min(step + 1)].partition_point(pred)
}

/// A non-empty, immutable run of triples sorted by `(s, p, o)`. Duplicate
/// triples are kept: a generation's runs always sum to its watermark.
#[derive(Debug)]
pub(crate) struct SortedRun {
    rows: Vec<EncodedTriple>,
}

impl SortedRun {
    /// Wraps rows already sorted by `(s, p, o)`.
    pub(crate) fn from_sorted(rows: Vec<EncodedTriple>) -> Self {
        debug_assert!(!rows.is_empty() && rows.is_sorted());
        Self { rows }
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The union of two runs, in one linear pass.
    pub(crate) fn merge(&self, other: &SortedRun) -> SortedRun {
        let (a, b) = (&self.rows[..], &other.rows[..]);
        let (mut i, mut j) = (0, 0);
        let mut rows = Vec::with_capacity(a.len() + b.len());
        while i < a.len() && j < b.len() {
            let from_a = a[i] <= b[j];
            rows.push(if from_a { a[i] } else { b[j] });
            i += usize::from(from_a);
            j += usize::from(!from_a);
        }
        rows.extend_from_slice(&a[i..]);
        rows.extend_from_slice(&b[j..]);
        SortedRun { rows }
    }

    /// `true` when the subject has an arm `(p, o)` (`o = None`: any object).
    /// Subjects outside the run's zone map cost two comparisons.
    pub(crate) fn subject_has(&self, s: TermId, p: TermId, o: Option<TermId>) -> bool {
        if s < self.rows[0].s || s > self.rows[self.rows.len() - 1].s {
            return false;
        }
        let key = EncodedTriple { s, p, o: o.unwrap_or(0) };
        let at = self.rows.partition_point(|t| *t < key);
        self.rows.get(at).is_some_and(|t| t.s == s && t.p == p && o.is_none_or(|o| t.o == o))
    }

    /// Objects of `(s, p, ?)`, ascending.
    pub(crate) fn objects_of(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        let from = self.rows.partition_point(|t| (t.s, t.p) < (s, p));
        self.rows[from..].iter().take_while(move |t| (t.s, t.p) == (s, p)).map(|t| t.o)
    }
}

/// Reads `runs` in step — the merge a compaction would do, unwritten —
/// calling `f` once per subject, ascending, with that subject's rows in
/// each run that holds any. With `ranges` (sorted, disjoint id ranges: the
/// st pushdown) only subjects inside one are visited; each range is cut
/// out of each run by two galloping searches, the rest is never read.
pub(crate) fn for_each_subject<R: Deref<Target = SortedRun>>(
    runs: &[R],
    ranges: Option<&[(TermId, TermId)]>,
    mut f: impl FnMut(&[&[EncodedTriple]]),
) {
    let mut rest: Vec<&[EncodedTriple]> = runs.iter().map(|run| &run.rows[..]).collect();
    let mut window: Vec<&[EncodedTriple]> = Vec::with_capacity(runs.len());
    let mut parts: Vec<&[EncodedTriple]> = Vec::with_capacity(runs.len());
    for &(lo, hi) in ranges.unwrap_or(&[(0, TermId::MAX)]) {
        window.clear();
        for rows in &mut rest {
            let from = gallop(rows, |t| t.s < lo);
            let (inside, after) = rows[from..].split_at(gallop(&rows[from..], |t| t.s <= hi));
            *rows = after;
            if !inside.is_empty() {
                window.push(inside);
            }
        }
        while let Some(s) = window.iter().map(|rows| rows[0].s).min() {
            parts.clear();
            window.retain_mut(|rows| {
                let (own, after) = rows.split_at(gallop(rows, |t| t.s == s));
                if !own.is_empty() {
                    parts.push(own);
                }
                *rows = after;
                !after.is_empty()
            });
            f(&parts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rows: &[(u64, u64, u64)]) -> SortedRun {
        let mut rows: Vec<EncodedTriple> = rows.iter().map(|&(s, p, o)| EncodedTriple { s, p, o }).collect();
        rows.sort_unstable();
        SortedRun::from_sorted(rows)
    }

    /// `(subject, rows across runs)` per call.
    fn subjects(runs: &[&SortedRun], ranges: Option<&[(u64, u64)]>) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        for_each_subject(runs, ranges, |parts| {
            let s = parts[0][0].s;
            assert!(parts.iter().copied().flatten().all(|t| t.s == s), "one subject per call");
            out.push((s, parts.iter().map(|rows| rows.len()).sum()));
        });
        out
    }

    #[test]
    fn point_lookups_are_binary_searches_with_a_zone_map() {
        let r = run(&[(5, 1, 10), (5, 1, 11), (5, 2, 20), (9, 1, 10)]);
        assert!(r.subject_has(5, 1, None));
        assert!(r.subject_has(5, 1, Some(11)));
        assert!(!r.subject_has(5, 1, Some(12)));
        assert!(!r.subject_has(5, 3, None));
        assert!(r.subject_has(9, 1, Some(10)));
        assert!(!r.subject_has(7, 1, None), "inside the zone map, absent");
        assert!(!r.subject_has(4, 1, None) && !r.subject_has(10, 1, None), "outside the zone map");
        assert_eq!(r.objects_of(5, 1).collect::<Vec<_>>(), vec![10, 11]);
        assert_eq!(r.objects_of(5, 9).count(), 0);
    }

    #[test]
    fn merge_keeps_order_and_duplicates() {
        let merged = run(&[(1, 1, 1), (3, 1, 1), (3, 2, 2)]).merge(&run(&[(2, 1, 1), (3, 1, 1)]));
        assert_eq!(merged.len(), 5);
        assert!(merged.rows.is_sorted());
        assert_eq!(merged.rows.iter().filter(|t| (t.s, t.p, t.o) == (3, 1, 1)).count(), 2);
    }

    #[test]
    fn sweep_visits_each_subject_once_with_its_rows_from_every_run() {
        let a = run(&[(1, 1, 1), (4, 1, 1), (4, 2, 2), (6, 1, 1), (20, 1, 1), (31, 1, 1)]);
        let b = run(&[(4, 3, 3), (5, 1, 1), (31, 2, 2), (31, 3, 3)]);
        assert_eq!(subjects(&[&a], None), vec![(1, 1), (4, 2), (6, 1), (20, 1), (31, 1)]);
        assert_eq!(subjects(&[&a, &b], None), vec![(1, 1), (4, 3), (5, 1), (6, 1), (20, 1), (31, 3)]);
        // Ranges: only subjects inside them, still merged across runs.
        let ranges = [(2, 5), (7, 9), (10, 20), (31, 31), (40, 50)];
        assert_eq!(subjects(&[&a, &b], Some(&ranges)), vec![(4, 3), (5, 1), (20, 1), (31, 3)]);
        assert_eq!(subjects(&[&a], Some(&[(0, 0), (31, 31)])), vec![(31, 1)]);
        assert!(subjects(&[&a, &b], Some(&[])).is_empty());
        assert!(subjects(&[], None).is_empty());
    }
}
