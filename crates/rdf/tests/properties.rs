//! Property tests for the RDF layer: BGP evaluation equals brute force,
//! graphs keep set semantics, template instantiation is total on bound
//! vectors, and the compiled semantic-node lifter equals the template
//! interpreter it replaces on the real-time layer.

use datacron_geo::{EntityId, GeoPoint, PositionReport, Timestamp};
use datacron_rdf::connectors::{critical_point_vector, semantic_node_template};
use datacron_rdf::fast::SemanticNodeLifter;
use datacron_rdf::generator::{GraphTemplate, TermTemplate, TripleGenerator, VariableVector};
use datacron_rdf::graph::Graph;
use datacron_rdf::query::{evaluate, PatternTerm, QueryPattern};
use datacron_rdf::term::{Literal, Term, Triple};
use datacron_synopses::{CriticalKind, CriticalPoint};
use proptest::prelude::*;
use proptest::strategy::Just;
use std::collections::HashSet;

fn arb_triples() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..6, 0u8..3, 0u8..6), 0..40)
}

fn term(prefix: &str, i: u8) -> Term {
    Term::iri(format!("{prefix}:{i}"))
}

/// Values in `(-mag, mag)`, with both signed zeros drawn often.
fn signed(mag: f64) -> BoxedStrategy<f64> {
    prop_oneof![Just(-0.0f64), Just(0.0f64), -mag..mag].boxed()
}

/// Vessels and aircraft, with ids at both ends of `u64` (ids above
/// `i64::MAX` render negative in IRIs) and a few small ids that repeat, so
/// one lifter meets the same entity twice.
fn entity() -> BoxedStrategy<EntityId> {
    let id = prop_oneof![Just(0u64), Just(u64::MAX), 1u64..4, (1u64 << 63)..u64::MAX];
    (proptest::bool::ANY, id)
        .prop_map(|(aircraft, id)| if aircraft { EntityId::aircraft(id) } else { EntityId::vessel(id) })
        .boxed()
}

/// A report with signed coordinates, kinematics and event time (negative
/// times included).
fn report() -> BoxedStrategy<PositionReport> {
    let ts = prop_oneof![Just(-1i64), Just(0i64), -10_000_000_000_000i64..10_000_000_000_000];
    (entity(), (signed(180.0), signed(90.0)), (signed(400.0), signed(720.0), signed(15_000.0)), ts)
        .prop_map(|(entity, (lon, lat), (speed_mps, heading_deg, altitude_m), ts)| PositionReport {
            entity,
            ts: Timestamp(ts),
            point: GeoPoint { lon, lat },
            altitude_m,
            speed_mps,
            heading_deg,
            vertical_rate_mps: 0.0,
        })
        .boxed()
}

/// Every critical-point kind, payload variants carrying `payload`.
fn every_kind(payload: f64) -> [CriticalKind; 13] {
    use CriticalKind::*;
    [
        Start,
        End,
        StopStart,
        StopEnd,
        SlowMotionStart,
        SlowMotionEnd,
        ChangeInHeading { delta_deg: payload },
        SpeedChange { ratio: payload },
        GapStart,
        GapEnd { silence_s: payload },
        ChangeInAltitude { rate_mps: payload },
        Takeoff,
        Landing,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Graph insertion deduplicates: size equals the distinct triple count,
    /// and matching honours every mask.
    #[test]
    fn graph_set_semantics_and_masks(raw in arb_triples()) {
        let triples: Vec<Triple> = raw
            .iter()
            .map(|&(s, p, o)| Triple::new(term("s", s), term("p", p), term("o", o)))
            .collect();
        let distinct: HashSet<&Triple> = triples.iter().collect();
        let graph: Graph = triples.iter().cloned().collect();
        prop_assert_eq!(graph.len(), distinct.len());
        // Spot-check the (s, p, o) masks against brute force.
        for s in 0..6u8 {
            let expect = distinct.iter().filter(|t| t.s == term("s", s)).count();
            prop_assert_eq!(graph.matching(Some(&term("s", s)), None, None).len(), expect);
        }
        for p in 0..3u8 {
            let expect = distinct.iter().filter(|t| t.p == term("p", p)).count();
            prop_assert_eq!(graph.matching(None, Some(&term("p", p)), None).len(), expect);
        }
    }

    /// A two-pattern star query over random graphs equals the brute-force
    /// join.
    #[test]
    fn bgp_matches_brute_force(raw in arb_triples()) {
        let graph: Graph = raw
            .iter()
            .map(|&(s, p, o)| Triple::new(term("s", s), term("p", p), term("o", o)))
            .collect();
        let q = vec![
            QueryPattern::new(PatternTerm::var("x"), PatternTerm::iri("p:0"), PatternTerm::var("y")),
            QueryPattern::new(PatternTerm::var("x"), PatternTerm::iri("p:1"), PatternTerm::var("z")),
        ];
        let sols = evaluate(&graph, &q);
        // Brute force join over the raw triples.
        let distinct: HashSet<&(u8, u8, u8)> = raw.iter().collect();
        let mut expected = HashSet::new();
        for &&(s1, p1, o1) in &distinct {
            if p1 != 0 {
                continue;
            }
            for &&(s2, p2, o2) in &distinct {
                if p2 == 1 && s1 == s2 {
                    expected.insert((s1, o1, o2));
                }
            }
        }
        let got: HashSet<(u8, u8, u8)> = sols
            .iter()
            .map(|b| {
                let parse = |t: &Term| -> u8 {
                    t.as_iri().unwrap().split(':').nth(1).unwrap().parse().unwrap()
                };
                (parse(&b["x"]), parse(&b["y"]), parse(&b["z"]))
            })
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Template instantiation succeeds for every pattern whose variables
    /// are bound, and the produced IRIs embed the lexical forms.
    #[test]
    fn templates_are_total_on_bound_vectors(id in 0i64..10_000, speed in 0.0f64..50.0) {
        let vars = VariableVector::new()
            .with("id", Literal::Int(id))
            .with("speed", Literal::Double(speed));
        let template = GraphTemplate::new()
            .pattern(
                TermTemplate::IriFunc("e:{id}".into()),
                TermTemplate::Const(Term::iri("p:speed")),
                TermTemplate::Var("speed".into()),
            )
            .pattern(
                TermTemplate::IriFunc("e:{id}".into()),
                TermTemplate::Const(Term::iri("p:type")),
                TermTemplate::Const(Term::iri("c:Entity")),
            );
        let mut gen = TripleGenerator::new(template);
        let triples = gen.generate(&vars);
        prop_assert_eq!(triples.len(), 2);
        prop_assert_eq!(gen.skipped_patterns(), 0);
        let expected_iri = format!("e:{id}");
        prop_assert_eq!(triples[0].s.as_iri(), Some(expected_iri.as_str()));
        prop_assert_eq!(&triples[0].o, &Term::double(speed));
    }

    /// The compiled lifter (the real-time layer's only RDF engine) emits
    /// exactly the `semantic_node_template` interpreter's triples — same
    /// order, same lexical forms, ten per point, no pattern skipped — for
    /// every critical-point kind of every report, across entities sharing
    /// one lifter.
    #[test]
    fn lifter_equals_the_semantic_node_template(
        reports in proptest::collection::vec(report(), 1..5),
        payload in signed(1_000.0),
    ) {
        let mut lifter = SemanticNodeLifter::new();
        let mut template = TripleGenerator::new(semantic_node_template());
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        for report in reports {
            for kind in every_kind(payload) {
                let cp = CriticalPoint::new(report, kind);
                prop_assert_eq!(lifter.lift_into(&cp, &mut fast), 10);
                prop_assert_eq!(template.generate_into(&critical_point_vector(&cp), &mut reference), 10);
            }
        }
        prop_assert_eq!(template.skipped_patterns(), 0);
        prop_assert!(fast == reference, "lifter and template disagree");
        prop_assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
    }
}
