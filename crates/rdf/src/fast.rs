//! Compiled hot-path RDF generation for synopses critical points.
//!
//! [`SemanticNodeLifter`] emits exactly the triples of
//! [`semantic_node_template`](crate::connectors::semantic_node_template) —
//! same patterns, same order, same lexical forms — without the template
//! machinery: no [`VariableVector`](crate::generator::VariableVector)
//! `HashMap`, no per-pattern `format!`, no re-parsing of `{var}`
//! placeholders. Constant terms (predicates, classes) and the per-entity
//! trajectory/entity IRIs live in one [`Interner`] arena as `u32`
//! [`Sym`]bols; per-point strings (node IRI, WKT) are written into a
//! reused scratch buffer. Terms are materialised (an `Arc` clone) only as
//! each output triple is pushed.
//!
//! The real-time layer generates all of its RDF with this lifter. The
//! template interpreter stays as its reference: a seeded property test
//! (`tests/properties.rs`) pins the lifter's output equal to the
//! template's, by `==` and by `Debug`, over every critical-point kind and
//! extreme ids, coordinates, kinematics and timestamps.

use crate::interner::{Interner, Sym};
use crate::term::{Literal, Term, Triple};
use crate::vocab;
use datacron_geo::hash::FxHashMap;
use datacron_geo::EntityId;
use datacron_synopses::CriticalPoint;
use std::fmt::Write as _;
use std::sync::Arc;

/// Interned per-entity IRIs (trajectory, entity).
type EntitySyms = (Sym, Sym);

/// A compiled lifter from critical points to semantic-node triples.
#[derive(Debug, Clone)]
pub struct SemanticNodeLifter {
    interner: Interner,
    rdf_type: Sym,
    semantic_node: Sym,
    trajectory: Sym,
    of_moving_object: Sym,
    has_node: Sym,
    as_wkt: Sym,
    has_time: Sym,
    has_speed: Sym,
    has_heading: Sym,
    has_altitude: Sym,
    event_type: Sym,
    /// Trajectory/entity IRIs per entity (bounded by the live fleet).
    entity_iris: FxHashMap<EntityId, EntitySyms>,
    /// Critical-point kind labels (bounded by the kind alphabet).
    event_labels: FxHashMap<&'static str, Sym>,
    /// Reused string buffer for per-point IRI and WKT construction.
    scratch: String,
}

impl Default for SemanticNodeLifter {
    fn default() -> Self {
        Self::new()
    }
}

impl SemanticNodeLifter {
    /// Builds a lifter with the constant vocabulary pre-interned.
    pub fn new() -> Self {
        let mut interner = Interner::new();
        let mut iri = |term: Term| {
            let s = term.as_iri().expect("vocabulary constants are IRIs").to_owned();
            interner.intern(&s)
        };
        let rdf_type = iri(vocab::rdf_type());
        let semantic_node = iri(vocab::semantic_node_class());
        let trajectory = iri(vocab::trajectory_class());
        let of_moving_object = iri(vocab::of_moving_object());
        let has_node = iri(vocab::has_node());
        let as_wkt = iri(vocab::as_wkt());
        let has_time = iri(vocab::has_time());
        let has_speed = iri(vocab::has_speed());
        let has_heading = iri(vocab::has_heading());
        let has_altitude = iri(vocab::has_altitude());
        let event_type = iri(vocab::event_type());
        Self {
            interner,
            rdf_type,
            semantic_node,
            trajectory,
            of_moving_object,
            has_node,
            as_wkt,
            has_time,
            has_speed,
            has_heading,
            has_altitude,
            event_type,
            entity_iris: FxHashMap::default(),
            event_labels: FxHashMap::default(),
            scratch: String::new(),
        }
    }

    /// The trajectory/entity IRI symbols of an entity, interned on first
    /// sight and reused for every later critical point of that entity.
    fn entity_syms(&mut self, entity: EntityId) -> EntitySyms {
        if let Some(&syms) = self.entity_iris.get(&entity) {
            return syms;
        }
        // The template writes the id through `Literal::Int(id as i64)`, so
        // the lexical form is the signed rendering.
        self.scratch.clear();
        let _ = write!(self.scratch, "{}trajectory/{}/{}", vocab::DATACRON, entity.kind, entity.id as i64);
        let traj = self.interner.intern(&self.scratch);
        self.scratch.clear();
        let _ = write!(self.scratch, "{}{}/{}", vocab::DATACRON, entity.kind, entity.id as i64);
        let ent = self.interner.intern(&self.scratch);
        self.entity_iris.insert(entity, (traj, ent));
        (traj, ent)
    }

    /// Lifts one critical point, appending the ten semantic-node triples
    /// (template order) to `out`; returns how many triples were appended.
    pub fn lift_into(&mut self, cp: &CriticalPoint, out: &mut Vec<Triple>) -> usize {
        let r = &cp.report;
        let (traj_sym, entity_sym) = self.entity_syms(r.entity);
        let label = cp.kind.label();
        let event_sym = match self.event_labels.get(label) {
            Some(&sym) => sym,
            None => {
                let sym = self.interner.intern(label);
                self.event_labels.insert(label, sym);
                sym
            }
        };

        // Node IRI — unique per (entity, ts); built in the scratch buffer,
        // not interned (interning one-shot strings would only grow the
        // arena).
        self.scratch.clear();
        let _ = write!(
            self.scratch,
            "{}node/{}/{}/{}",
            vocab::DATACRON,
            r.entity.kind,
            r.entity.id as i64,
            r.ts.millis()
        );
        let node = Term::Iri(Arc::from(self.scratch.as_str()));

        self.scratch.clear();
        let _ = write!(self.scratch, "POINT ({} {})", r.point.lon, r.point.lat);
        let wkt = Term::Literal(Literal::Wkt(Arc::from(self.scratch.as_str())));

        let traj = self.interner.iri(traj_sym);
        out.push(Triple::new(node.clone(), self.interner.iri(self.rdf_type), self.interner.iri(self.semantic_node)));
        out.push(Triple::new(traj.clone(), self.interner.iri(self.rdf_type), self.interner.iri(self.trajectory)));
        out.push(Triple::new(traj.clone(), self.interner.iri(self.of_moving_object), self.interner.iri(entity_sym)));
        out.push(Triple::new(traj, self.interner.iri(self.has_node), node.clone()));
        out.push(Triple::new(node.clone(), self.interner.iri(self.as_wkt), wkt));
        out.push(Triple::new(node.clone(), self.interner.iri(self.has_time), Term::Literal(Literal::DateTime(r.ts.millis()))));
        out.push(Triple::new(node.clone(), self.interner.iri(self.has_speed), Term::Literal(Literal::Double(r.speed_mps))));
        out.push(Triple::new(node.clone(), self.interner.iri(self.has_heading), Term::Literal(Literal::Double(r.heading_deg))));
        out.push(Triple::new(node.clone(), self.interner.iri(self.has_altitude), Term::Literal(Literal::Double(r.altitude_m))));
        out.push(Triple::new(node, self.interner.iri(self.event_type), self.interner.str_literal(event_sym)));
        10
    }

    /// The backing interner (arena size = constants + two IRIs per entity
    /// seen + one label per critical-point kind seen).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{GeoPoint, PositionReport, Timestamp};
    use datacron_synopses::CriticalKind;

    fn cp(kind: CriticalKind, entity: EntityId, t_s: i64) -> CriticalPoint {
        let r = PositionReport::basic(entity, Timestamp::from_secs(t_s), GeoPoint::new(23.51, 37.97));
        CriticalPoint::new(r, kind)
    }

    #[test]
    fn entity_iris_are_interned_once() {
        let mut fast = SemanticNodeLifter::new();
        let before = fast.interner().len();
        let mut out = Vec::new();
        for t in 0..10 {
            fast.lift_into(&cp(CriticalKind::Start, EntityId::vessel(9), t), &mut out);
        }
        // One entity: exactly two new IRIs (trajectory + entity) and one
        // event label, regardless of how many points were lifted.
        assert_eq!(fast.interner().len(), before + 3);
    }
}
