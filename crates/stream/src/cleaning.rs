//! Online data cleaning of surveillance streams.
//!
//! The real-time layer performs "online data cleaning of erroneous data"
//! (§3) before any downstream processing. [`StreamCleaner`] is a per-entity
//! operator that rejects:
//!
//! * implausible records (invalid coordinates, non-finite or impossible
//!   reported kinematics);
//! * duplicates (same entity, same timestamp);
//! * out-of-order records (older than the last accepted one);
//! * teleport outliers — positions implying a speed over the physical bound
//!   given the previous accepted position (this is what catches the gross
//!   AIS position spikes).
//!
//! Every rejection is labelled, so data-quality assessment (the
//! visual-analytics quality workflows of §7) can count error types.

use crate::operator::Operator;
use datacron_geo::{PositionReport, Timestamp};

/// Why a record was rejected, or that it was accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CleaningOutcome {
    /// The record passed all filters.
    Accepted,
    /// Invalid or non-physical fields.
    Implausible,
    /// Same timestamp as an already-accepted record of this entity.
    Duplicate,
    /// Timestamp earlier than the last accepted record.
    OutOfOrder,
    /// Position implies an impossible speed from the previous position.
    Teleport,
}

/// Cleaning thresholds.
#[derive(Debug, Clone)]
pub struct CleaningConfig {
    /// Maximum plausible reported speed, m/s (vessels ~30, aircraft ~350).
    pub max_speed_mps: f64,
    /// Maximum implied speed between consecutive accepted positions, m/s.
    pub max_implied_speed_mps: f64,
}

impl CleaningConfig {
    /// Defaults for the maritime domain.
    pub fn maritime() -> Self {
        Self {
            max_speed_mps: 35.0,
            max_implied_speed_mps: 45.0,
        }
    }

    /// Defaults for the aviation domain.
    pub fn aviation() -> Self {
        Self {
            max_speed_mps: 350.0,
            max_implied_speed_mps: 420.0,
        }
    }
}

/// Running rejection counters, one per outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningStats {
    /// Accepted records.
    pub accepted: u64,
    /// Implausible-field rejections.
    pub implausible: u64,
    /// Duplicate rejections.
    pub duplicates: u64,
    /// Out-of-order rejections.
    pub out_of_order: u64,
    /// Teleport rejections.
    pub teleports: u64,
}

impl CleaningStats {
    /// Total records seen.
    pub fn total(&self) -> u64 {
        self.accepted + self.implausible + self.duplicates + self.out_of_order + self.teleports
    }
}

/// Resumable snapshot of a [`StreamCleaner`]'s mutable state (the config is
/// supplied again on restore). Captured by the durability layer's
/// checkpoints so a recovered cleaner resumes with identical decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanerState {
    /// The last accepted report (the duplicate/teleport reference point).
    pub last: Option<PositionReport>,
    /// Outcome counters at snapshot time.
    pub stats: CleaningStats,
}

/// Per-entity cleaning operator. Use one instance per entity (the real-time
/// layer keeps one in each entity's state).
#[derive(Debug, Clone)]
pub struct StreamCleaner {
    config: CleaningConfig,
    last: Option<PositionReport>,
    stats: CleaningStats,
}

impl StreamCleaner {
    /// Creates a cleaner with the given thresholds.
    pub fn new(config: CleaningConfig) -> Self {
        Self {
            config,
            last: None,
            stats: CleaningStats::default(),
        }
    }

    /// Snapshots the mutable state for checkpointing.
    pub fn state(&self) -> CleanerState {
        CleanerState { last: self.last, stats: self.stats }
    }

    /// Rebuilds a cleaner from a checkpointed state and its config.
    pub fn restore(config: CleaningConfig, state: CleanerState) -> Self {
        Self { config, last: state.last, stats: state.stats }
    }

    /// The running counters.
    pub fn stats(&self) -> CleaningStats {
        self.stats
    }

    /// The last accepted record's timestamp, if any.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.last.map(|r| r.ts)
    }

    /// Classifies one record and updates state when accepted.
    pub fn check(&mut self, r: &PositionReport) -> CleaningOutcome {
        if !r.is_plausible(self.config.max_speed_mps) {
            self.stats.implausible += 1;
            return CleaningOutcome::Implausible;
        }
        if let Some(prev) = &self.last {
            if r.ts == prev.ts {
                self.stats.duplicates += 1;
                return CleaningOutcome::Duplicate;
            }
            if r.ts < prev.ts {
                self.stats.out_of_order += 1;
                return CleaningOutcome::OutOfOrder;
            }
            let dt = r.ts.delta_secs(&prev.ts);
            let implied = prev.point.haversine_distance(&r.point) / dt.max(1e-3);
            if implied > self.config.max_implied_speed_mps {
                self.stats.teleports += 1;
                return CleaningOutcome::Teleport;
            }
        }
        self.last = Some(*r);
        self.stats.accepted += 1;
        CleaningOutcome::Accepted
    }
}

impl Operator<PositionReport, PositionReport> for StreamCleaner {
    fn on_record(&mut self, input: PositionReport, out: &mut Vec<PositionReport>) {
        if self.check(&input) == CleaningOutcome::Accepted {
            out.push(input);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{EntityId, GeoPoint};

    fn report(t_s: i64, lon: f64, lat: f64, speed: f64) -> PositionReport {
        PositionReport {
            speed_mps: speed,
            ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(t_s), GeoPoint::new(lon, lat))
        }
    }

    #[test]
    fn accepts_clean_sequence() {
        let mut c = StreamCleaner::new(CleaningConfig::maritime());
        for i in 0..10 {
            let r = report(i * 10, 0.001 * i as f64, 40.0, 8.0);
            assert_eq!(c.check(&r), CleaningOutcome::Accepted);
        }
        assert_eq!(c.stats().accepted, 10);
        assert_eq!(c.stats().total(), 10);
    }

    #[test]
    fn rejects_implausible_fields() {
        let mut c = StreamCleaner::new(CleaningConfig::maritime());
        assert_eq!(c.check(&report(0, 200.0, 40.0, 8.0)), CleaningOutcome::Implausible);
        assert_eq!(c.check(&report(0, 0.0, 40.0, 100.0)), CleaningOutcome::Implausible);
        let mut nan = report(0, 0.0, 40.0, 8.0);
        nan.heading_deg = f64::NAN;
        assert_eq!(c.check(&nan), CleaningOutcome::Implausible);
    }

    #[test]
    fn rejects_duplicates_and_out_of_order() {
        let mut c = StreamCleaner::new(CleaningConfig::maritime());
        assert_eq!(c.check(&report(100, 0.0, 40.0, 8.0)), CleaningOutcome::Accepted);
        assert_eq!(c.check(&report(100, 0.0, 40.0, 8.0)), CleaningOutcome::Duplicate);
        assert_eq!(c.check(&report(50, 0.0, 40.0, 8.0)), CleaningOutcome::OutOfOrder);
        assert_eq!(c.stats().duplicates, 1);
        assert_eq!(c.stats().out_of_order, 1);
    }

    #[test]
    fn rejects_teleports_then_recovers() {
        let mut c = StreamCleaner::new(CleaningConfig::maritime());
        assert_eq!(c.check(&report(0, 0.0, 40.0, 8.0)), CleaningOutcome::Accepted);
        // 0.5 degrees (~42 km at lat 40) in 10 s is a teleport.
        assert_eq!(c.check(&report(10, 0.5, 40.0, 8.0)), CleaningOutcome::Teleport);
        // The next plausible record relative to the last *accepted* one passes.
        assert_eq!(c.check(&report(20, 0.002, 40.0, 8.0)), CleaningOutcome::Accepted);
        assert_eq!(c.stats().teleports, 1);
    }

    #[test]
    fn operator_impl_filters_stream() {
        let mut c = StreamCleaner::new(CleaningConfig::maritime());
        let inputs = vec![
            report(0, 0.0, 40.0, 8.0),
            report(0, 0.0, 40.0, 8.0),  // duplicate
            report(10, 0.5, 40.0, 8.0), // teleport
            report(20, 0.002, 40.0, 8.0),
        ];
        let out = c.run(inputs);
        assert_eq!(out.len(), 2);
        assert_eq!(c.watermark(), Some(Timestamp::from_secs(20)));
    }

    #[test]
    fn cleans_generated_noisy_voyage() {
        use datacron_data::maritime::{VoyageConfig, VoyageGenerator};
        let cfg = VoyageConfig {
            outlier_probability: 0.02,
            duplicate_probability: 0.02,
            ..VoyageConfig::default()
        };
        let v = VoyageGenerator::new(cfg).voyage(
            1,
            datacron_data::maritime::VesselClass::Cargo,
            GeoPoint::new(0.0, 40.0),
            GeoPoint::new(1.0, 40.5),
            Timestamp(0),
            5,
        );
        let mut c = StreamCleaner::new(CleaningConfig::maritime());
        let kept = c.run(v.reports.clone());
        let stats = c.stats();
        assert!(stats.teleports > 0, "injected outliers should be caught: {stats:?}");
        assert!(stats.duplicates > 0, "injected duplicates should be caught");
        assert!(kept.len() as u64 == stats.accepted);
        // The cleaned stream stays close to the ground truth.
        let cleaned = datacron_geo::Trajectory::from_reports(kept);
        let dev = cleaned.mean_deviation_from(&v.clean).expect("non-empty");
        assert!(dev < 100.0, "cleaned stream deviates {dev} m");
    }
}
