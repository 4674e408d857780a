//! The single-pass critical-point state machine.

use crate::config::SynopsesConfig;
use crate::critical::{CriticalKind, CriticalPoint};
use datacron_geo::point::heading_difference;
use datacron_geo::vector::Velocity;
use datacron_geo::{PositionReport, Timestamp};
use datacron_stream::operator::Operator;
use std::collections::VecDeque;

/// Resumable snapshot of a [`SynopsesGenerator`]'s online state (the config
/// is supplied again on restore). Captured by the durability layer's
/// checkpoints so a recovered generator emits the exact same critical
/// points as an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsesState {
    /// Recent reports within the course window, oldest first.
    pub window: Vec<PositionReport>,
    /// The last processed report.
    pub last: Option<PositionReport>,
    /// Whether the trajectory `Start` point was emitted.
    pub started: bool,
    /// Report that began a below-stop-speed streak.
    pub stop_candidate: Option<PositionReport>,
    /// Currently inside a stop episode?
    pub in_stop: bool,
    /// Report that began a slow-motion streak.
    pub slow_candidate: Option<PositionReport>,
    /// Currently inside a slow-motion episode?
    pub in_slow: bool,
    /// Aviation: currently airborne?
    pub airborne: bool,
    /// Aviation: vertical rate regime (-1 descending, 0 level, +1 climbing).
    pub vertical_regime: i8,
    /// Last `ChangeInHeading` emission time (debounce).
    pub last_heading_emit: Option<Timestamp>,
    /// Last `SpeedChange` emission time (debounce).
    pub last_speed_emit: Option<Timestamp>,
    /// Dead-reckoning anchor: motion state at the last critical point.
    pub anchor: Option<PositionReport>,
    /// Raw records seen.
    pub seen: u64,
    /// Critical points emitted.
    pub emitted: u64,
}

/// Velocity components of one window entry, precomputed at insertion so
/// the per-record mean-course query never redoes trigonometry or
/// allocates. `eligible` caches the heading-noise-floor filter; ineligible
/// entries carry zeroed components (never summed).
#[derive(Debug, Clone, Copy)]
struct CachedVelocity {
    vx: f64,
    vy: f64,
    eligible: bool,
}

/// Streaming synopses generator for **one** entity (a multiplexed stream
/// needs one instance per entity, as the real-time layer keeps).
///
/// Single pass, bounded state: a sliding window of the recent course plus a
/// few scalars per motion regime.
#[derive(Debug, Clone)]
pub struct SynopsesGenerator {
    cfg: SynopsesConfig,
    /// Recent reports within `cfg.window_s`.
    window: VecDeque<PositionReport>,
    /// Per-entry velocity cache, kept in lockstep with `window` (same
    /// pushes, pops and clears). Derived state: rebuilt from the window on
    /// restore, never checkpointed.
    vel_cache: VecDeque<CachedVelocity>,
    last: Option<PositionReport>,
    started: bool,
    /// Time a below-stop-speed streak began.
    stop_candidate: Option<PositionReport>,
    in_stop: bool,
    /// Time a slow-motion streak began.
    slow_candidate: Option<PositionReport>,
    in_slow: bool,
    /// Aviation: currently airborne?
    airborne: bool,
    /// Aviation: vertical rate regime (-1 descending, 0 level, +1 climbing).
    vertical_regime: i8,
    /// Last emission time per debounced kind label.
    last_heading_emit: Option<Timestamp>,
    last_speed_emit: Option<Timestamp>,
    /// Dead-reckoning anchor: motion state at the last critical point.
    anchor: Option<PositionReport>,
    /// Counters.
    seen: u64,
    emitted: u64,
}

impl SynopsesGenerator {
    /// Creates a generator with the given thresholds.
    pub fn new(cfg: SynopsesConfig) -> Self {
        Self {
            cfg,
            window: VecDeque::new(),
            vel_cache: VecDeque::new(),
            last: None,
            started: false,
            stop_candidate: None,
            in_stop: false,
            slow_candidate: None,
            in_slow: false,
            airborne: false,
            vertical_regime: 0,
            last_heading_emit: None,
            last_speed_emit: None,
            anchor: None,
            seen: 0,
            emitted: 0,
        }
    }

    /// Snapshots the online state for checkpointing.
    pub fn state(&self) -> SynopsesState {
        let mut out = SynopsesState {
            window: Vec::new(),
            last: None,
            started: false,
            stop_candidate: None,
            in_stop: false,
            slow_candidate: None,
            in_slow: false,
            airborne: false,
            vertical_regime: 0,
            last_heading_emit: None,
            last_speed_emit: None,
            anchor: None,
            seen: 0,
            emitted: 0,
        };
        self.state_into(&mut out);
        out
    }

    /// [`state`](Self::state) into an existing snapshot, reusing its
    /// window allocation — the cold-state spill tier snapshots entities
    /// millions of times and recycles one scratch snapshot.
    pub fn state_into(&self, out: &mut SynopsesState) {
        out.window.clear();
        out.window.extend(self.window.iter().copied());
        out.last = self.last;
        out.started = self.started;
        out.stop_candidate = self.stop_candidate;
        out.in_stop = self.in_stop;
        out.slow_candidate = self.slow_candidate;
        out.in_slow = self.in_slow;
        out.airborne = self.airborne;
        out.vertical_regime = self.vertical_regime;
        out.last_heading_emit = self.last_heading_emit;
        out.last_speed_emit = self.last_speed_emit;
        out.anchor = self.anchor;
        out.seen = self.seen;
        out.emitted = self.emitted;
    }

    /// Rebuilds a generator from a checkpointed state and its config.
    pub fn restore(cfg: SynopsesConfig, state: SynopsesState) -> Self {
        let mut out = Self::new(cfg);
        out.restore_from(&state);
        out
    }

    /// [`restore`](Self::restore) in place, reusing this generator's
    /// window and velocity-cache allocations. Behaviour after the call is
    /// identical to a freshly [`restore`](Self::restore)d generator with
    /// this generator's config.
    pub fn restore_from(&mut self, state: &SynopsesState) {
        self.vel_cache.clear();
        self.vel_cache
            .extend(state.window.iter().map(|r| Self::cached_velocity(&self.cfg, r)));
        self.window.clear();
        self.window.extend(state.window.iter().copied());
        self.last = state.last;
        self.started = state.started;
        self.stop_candidate = state.stop_candidate;
        self.in_stop = state.in_stop;
        self.slow_candidate = state.slow_candidate;
        self.in_slow = state.in_slow;
        self.airborne = state.airborne;
        self.vertical_regime = state.vertical_regime;
        self.last_heading_emit = state.last_heading_emit;
        self.last_speed_emit = state.last_speed_emit;
        self.anchor = state.anchor;
        self.seen = state.seen;
        self.emitted = state.emitted;
    }

    /// Raw records seen.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Critical points emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Fraction of the input dropped so far (`0.8` = 80 % reduction).
    pub fn reduction(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        1.0 - self.emitted as f64 / self.seen as f64
    }

    fn emit(&mut self, out: &mut Vec<CriticalPoint>, report: PositionReport, kind: CriticalKind) {
        self.emitted += 1;
        out.push(CriticalPoint::new(report, kind));
    }

    /// Straight-line dead-reckoning prediction from the anchor state.
    fn predicted_from_anchor(&self, ts: Timestamp) -> Option<datacron_geo::GeoPoint> {
        let a = self.anchor.as_ref()?;
        let dt = ts.delta_secs(&a.ts);
        if dt <= 0.0 {
            return Some(a.point);
        }
        Some(a.point.destination(a.heading_deg, a.speed_mps * dt))
    }

    /// Computes the cached velocity entry for one report: trigonometry only
    /// for samples above the heading noise floor.
    fn cached_velocity(cfg: &SynopsesConfig, r: &PositionReport) -> CachedVelocity {
        if r.speed_mps >= cfg.heading_noise_floor_mps {
            let v = r.velocity();
            CachedVelocity { vx: v.vx, vy: v.vy, eligible: true }
        } else {
            CachedVelocity { vx: 0.0, vy: 0.0, eligible: false }
        }
    }

    /// Appends a report to the course window and its velocity cache.
    fn window_push(&mut self, r: PositionReport) {
        self.vel_cache.push_back(Self::cached_velocity(&self.cfg, &r));
        self.window.push_back(r);
    }

    /// Invalidates the course window (gap, turn, speed change).
    fn window_clear(&mut self) {
        self.window.clear();
        self.vel_cache.clear();
    }

    /// Mean velocity vector over the recent window, excluding near-rest
    /// samples (heading noise floor). Sums the cached per-entry components
    /// in window order — bit-identical to averaging freshly computed
    /// velocities, with no per-call allocation or trigonometry.
    fn recent_mean_velocity(&self) -> Option<Velocity> {
        let (mut vx, mut vy) = (0.0f64, 0.0f64);
        let mut n = 0u64;
        for c in &self.vel_cache {
            if c.eligible {
                vx += c.vx;
                vy += c.vy;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        let n = n as f64;
        Some(Velocity { vx: vx / n, vy: vy / n })
    }

    /// Mean speed over the recent window.
    fn recent_mean_speed(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.window.iter().map(|r| r.speed_mps).sum::<f64>() / self.window.len() as f64)
    }

    fn debounced(last: &mut Option<Timestamp>, now: Timestamp, min_reissue_s: f64) -> bool {
        match last {
            Some(prev) if now.delta_secs(prev) < min_reissue_s => false,
            _ => {
                *last = Some(now);
                true
            }
        }
    }

    /// Processes one report, appending any critical points to `out`.
    pub fn process(&mut self, r: PositionReport, out: &mut Vec<CriticalPoint>) {
        self.seen += 1;

        // --- First report ---
        if !self.started {
            self.started = true;
            self.airborne = r.altitude_m > self.cfg.ground_altitude_m;
            self.emit(out, r, CriticalKind::Start);
            self.anchor = Some(r);
            self.window_push(r);
            self.last = Some(r);
            return;
        }
        let prev = self.last.expect("started implies last");

        // --- Communication gap ---
        let silence = r.ts.delta_secs(&prev.ts);
        if silence > self.cfg.gap_s {
            self.emit(out, prev, CriticalKind::GapStart);
            self.emit(out, r, CriticalKind::GapEnd { silence_s: silence });
            // A gap invalidates the recent-course window.
            self.window_clear();
        }

        // --- Takeoff / landing (aviation) ---
        let on_ground = r.altitude_m <= self.cfg.ground_altitude_m;
        if self.airborne && on_ground {
            self.airborne = false;
            self.emit(out, r, CriticalKind::Landing);
        } else if !self.airborne && !on_ground {
            self.airborne = true;
            // "The latest location of an aircraft while still on the ground."
            self.emit(out, prev, CriticalKind::Takeoff);
        }

        // --- Change in altitude (aviation) ---
        if self.cfg.altitude_rate_mps.is_finite() {
            let regime = if r.vertical_rate_mps > self.cfg.altitude_rate_mps {
                1
            } else if r.vertical_rate_mps < -self.cfg.altitude_rate_mps {
                -1
            } else {
                0
            };
            if regime != self.vertical_regime && regime != 0 {
                self.emit(
                    out,
                    r,
                    CriticalKind::ChangeInAltitude {
                        rate_mps: r.vertical_rate_mps,
                    },
                );
            }
            self.vertical_regime = regime;
        }

        // --- Stop detection ---
        if r.speed_mps < self.cfg.stop_speed_mps {
            match (&self.stop_candidate, self.in_stop) {
                (None, false) => self.stop_candidate = Some(r),
                (Some(since), false)
                    if r.ts.delta_secs(&since.ts) >= self.cfg.state_min_duration_s =>
                {
                    let anchor = *since;
                    self.in_stop = true;
                    self.emit(out, anchor, CriticalKind::StopStart);
                }
                _ => {}
            }
        } else {
            if self.in_stop {
                self.in_stop = false;
                self.emit(out, r, CriticalKind::StopEnd);
            }
            self.stop_candidate = None;
        }

        // --- Slow motion (moving, but consistently slow; suppressed inside a stop) ---
        let slow = (self.cfg.stop_speed_mps..self.cfg.slow_speed_mps).contains(&r.speed_mps) && !self.in_stop;
        if slow {
            match (&self.slow_candidate, self.in_slow) {
                (None, false) => self.slow_candidate = Some(r),
                (Some(since), false)
                    if r.ts.delta_secs(&since.ts) >= self.cfg.state_min_duration_s =>
                {
                    let anchor = *since;
                    self.in_slow = true;
                    self.emit(out, anchor, CriticalKind::SlowMotionStart);
                }
                _ => {}
            }
        } else {
            if self.in_slow {
                self.in_slow = false;
                self.emit(out, r, CriticalKind::SlowMotionEnd);
            }
            self.slow_candidate = None;
        }

        // --- Change in heading vs. recent mean velocity vector ---
        if r.speed_mps >= self.cfg.heading_noise_floor_mps {
            if let Some(mean_v) = self.recent_mean_velocity() {
                let delta = heading_difference(r.heading_deg, mean_v.heading());
                if delta > self.cfg.heading_threshold_deg
                    && Self::debounced(&mut self.last_heading_emit, r.ts, self.cfg.min_reissue_s)
                {
                    // Signed: positive when turning clockwise from the course.
                    let signed = {
                        let mut d = (r.heading_deg - mean_v.heading()) % 360.0;
                        if d > 180.0 {
                            d -= 360.0;
                        }
                        if d <= -180.0 {
                            d += 360.0;
                        }
                        d
                    };
                    self.emit(out, r, CriticalKind::ChangeInHeading { delta_deg: signed });
                    // Refocus the course window on the new direction.
                    self.window_clear();
                }
            }
        }

        // --- Speed change vs. recent mean speed ---
        if let Some(mean_s) = self.recent_mean_speed() {
            if mean_s > self.cfg.heading_noise_floor_mps {
                let ratio = (r.speed_mps - mean_s) / mean_s;
                if ratio.abs() > self.cfg.speed_change_ratio
                    && Self::debounced(&mut self.last_speed_emit, r.ts, self.cfg.min_reissue_s)
                {
                    self.emit(out, r, CriticalKind::SpeedChange { ratio });
                    self.window_clear();
                }
            }
        }

        // --- Dead-reckoning deviation bound ---
        // A position that the straight-line prediction out of the last
        // critical point still explains is "predictable" and dropped; once
        // the deviation exceeds the bound, the location becomes critical.
        let already_emitted = self.anchor.map(|a| a.ts) != Some(r.ts)
            && out.last().map(|c| c.report.ts) == Some(r.ts);
        if !already_emitted {
            if let Some(pred) = self.predicted_from_anchor(r.ts) {
                if pred.haversine_distance(&r.point) > self.cfg.deviation_threshold_m {
                    let anchor_heading = self.anchor.expect("prediction implies anchor").heading_deg;
                    let signed = {
                        let mut d = (r.heading_deg - anchor_heading) % 360.0;
                        if d > 180.0 {
                            d -= 360.0;
                        }
                        if d <= -180.0 {
                            d += 360.0;
                        }
                        d
                    };
                    if signed.abs() >= 5.0 {
                        self.emit(out, r, CriticalKind::ChangeInHeading { delta_deg: signed });
                    } else {
                        let mean = self.recent_mean_speed().unwrap_or(r.speed_mps).max(1e-6);
                        self.emit(out, r, CriticalKind::SpeedChange { ratio: (r.speed_mps - mean) / mean });
                    }
                    self.window_clear();
                }
            }
        }
        // Re-anchor at the current state whenever this record was emitted.
        if out.last().map(|c| c.report.ts) == Some(r.ts) || self.anchor.is_none() {
            self.anchor = Some(r);
        }

        // --- Window maintenance ---
        self.window_push(r);
        while let Some(front) = self.window.front() {
            if r.ts.delta_secs(&front.ts) > self.cfg.window_s {
                self.window.pop_front();
                self.vel_cache.pop_front();
            } else {
                break;
            }
        }
        self.last = Some(r);
    }

    /// Emits the trailing `End` point.
    pub fn flush(&mut self, out: &mut Vec<CriticalPoint>) {
        if let Some(last) = self.last.take() {
            self.emit(out, last, CriticalKind::End);
        }
    }
}

impl Operator<PositionReport, CriticalPoint> for SynopsesGenerator {
    fn on_record(&mut self, input: PositionReport, out: &mut Vec<CriticalPoint>) {
        self.process(input, out);
    }

    fn on_flush(&mut self, out: &mut Vec<CriticalPoint>) {
        self.flush(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{EntityId, GeoPoint};

    fn rep(t_s: i64, lon: f64, lat: f64, speed: f64, heading: f64) -> PositionReport {
        PositionReport {
            speed_mps: speed,
            heading_deg: heading,
            ..PositionReport::basic(EntityId::vessel(1), Timestamp::from_secs(t_s), GeoPoint::new(lon, lat))
        }
    }

    fn kinds(cps: &[CriticalPoint]) -> Vec<&'static str> {
        cps.iter().map(|c| c.kind.label()).collect()
    }

    #[test]
    fn straight_cruise_keeps_only_endpoints() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        // Kinematically consistent track: each step travels exactly
        // speed × dt along the reported heading.
        let mut p = GeoPoint::new(0.0, 40.0);
        let mut inputs = Vec::new();
        for i in 0..200 {
            inputs.push(rep(i * 10, p.lon, p.lat, 8.0, 90.0));
            p = p.destination(90.0, 80.0);
        }
        let out = g.run(inputs);
        assert_eq!(kinds(&out), vec!["start", "end"]);
        assert!(g.reduction() > 0.98, "reduction {}", g.reduction());
    }

    #[test]
    fn turn_emits_change_in_heading() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        let mut inputs = Vec::new();
        for i in 0..30 {
            inputs.push(rep(i * 10, 0.001 * i as f64, 40.0, 8.0, 90.0));
        }
        // Sharp 40-degree turn.
        for i in 30..60 {
            inputs.push(rep(i * 10, 0.03 + 0.0007 * (i - 30) as f64, 40.0 + 0.0007 * (i - 30) as f64, 8.0, 50.0));
        }
        let out = g.run(inputs);
        let turn = out
            .iter()
            .find(|c| matches!(c.kind, CriticalKind::ChangeInHeading { .. }))
            .expect("turn detected");
        if let CriticalKind::ChangeInHeading { delta_deg } = turn.kind {
            assert!((delta_deg - -40.0).abs() < 5.0, "delta {delta_deg}");
        }
    }

    #[test]
    fn stop_emits_paired_events_at_anchor() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        let mut inputs = Vec::new();
        for i in 0..20 {
            inputs.push(rep(i * 10, 0.001 * i as f64, 40.0, 8.0, 90.0));
        }
        for i in 20..40 {
            inputs.push(rep(i * 10, 0.02, 40.0, 0.1, 90.0)); // stationary 200 s
        }
        for i in 40..60 {
            inputs.push(rep(i * 10, 0.02 + 0.001 * (i - 40) as f64, 40.0, 8.0, 90.0));
        }
        let out = g.run(inputs);
        let labels = kinds(&out);
        let start_idx = labels.iter().position(|&l| l == "stop_start").expect("stop_start");
        let end_idx = labels.iter().position(|&l| l == "stop_end").expect("stop_end");
        assert!(start_idx < end_idx);
        // The stop-start anchor is the first stationary report (t=200).
        assert_eq!(out[start_idx].report.ts, Timestamp::from_secs(200));
        assert_eq!(out[end_idx].report.ts, Timestamp::from_secs(400));
    }

    #[test]
    fn brief_slowdown_is_not_a_stop() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        let mut inputs = Vec::new();
        for i in 0..20 {
            inputs.push(rep(i * 10, 0.001 * i as f64, 40.0, 8.0, 90.0));
        }
        inputs.push(rep(200, 0.02, 40.0, 0.1, 90.0)); // single stationary sample
        for i in 21..40 {
            inputs.push(rep(i * 10, 0.02 + 0.001 * (i - 21) as f64, 40.0, 8.0, 90.0));
        }
        let out = g.run(inputs);
        assert!(!kinds(&out).contains(&"stop_start"), "got {:?}", kinds(&out));
    }

    #[test]
    fn slow_motion_detected() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        let mut inputs = Vec::new();
        for i in 0..20 {
            inputs.push(rep(i * 10, 0.001 * i as f64, 40.0, 8.0, 90.0));
        }
        for i in 20..50 {
            inputs.push(rep(i * 10, 0.02 + 0.0002 * (i - 20) as f64, 40.0, 1.5, 90.0));
        }
        for i in 50..70 {
            inputs.push(rep(i * 10, 0.026 + 0.001 * (i - 50) as f64, 40.0, 8.0, 90.0));
        }
        let out = g.run(inputs);
        let labels = kinds(&out);
        assert!(labels.contains(&"slow_motion_start"), "got {labels:?}");
        assert!(labels.contains(&"slow_motion_end"));
    }

    #[test]
    fn gap_emits_start_and_end() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        let inputs = vec![
            rep(0, 0.0, 40.0, 8.0, 90.0),
            rep(10, 0.001, 40.0, 8.0, 90.0),
            rep(1000, 0.05, 40.0, 8.0, 90.0), // 990 s of silence
        ];
        let out = g.run(inputs);
        let labels = kinds(&out);
        assert_eq!(labels, vec!["start", "gap_start", "gap_end", "end"]);
        // gap_start anchors at the last pre-gap report.
        assert_eq!(out[1].report.ts, Timestamp::from_secs(10));
        if let CriticalKind::GapEnd { silence_s } = out[2].kind {
            assert!((silence_s - 990.0).abs() < 1e-9);
        } else {
            panic!("expected GapEnd");
        }
    }

    #[test]
    fn speed_change_detected() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        let mut inputs = Vec::new();
        for i in 0..20 {
            inputs.push(rep(i * 10, 0.001 * i as f64, 40.0, 8.0, 90.0));
        }
        for i in 20..30 {
            inputs.push(rep(i * 10, 0.02 + 0.0015 * (i - 20) as f64, 40.0, 13.0, 90.0));
        }
        let out = g.run(inputs);
        let sc = out
            .iter()
            .find(|c| matches!(c.kind, CriticalKind::SpeedChange { .. }))
            .expect("speed change detected");
        if let CriticalKind::SpeedChange { ratio } = sc.kind {
            assert!(ratio > 0.25, "ratio {ratio}");
        }
    }

    #[test]
    fn takeoff_and_landing_for_aircraft() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::aviation());
        let mut inputs = Vec::new();
        let e = EntityId::aircraft(1);
        let mk = |t_s: i64, alt: f64, vr: f64, speed: f64| PositionReport {
            altitude_m: alt,
            vertical_rate_mps: vr,
            speed_mps: speed,
            heading_deg: 90.0,
            ..PositionReport::basic(e, Timestamp::from_secs(t_s), GeoPoint::new(0.001 * t_s as f64, 40.0))
        };
        // Ground roll, climb, cruise, descend, land.
        for i in 0..5 {
            inputs.push(mk(i * 8, 0.0, 0.0, 60.0));
        }
        for i in 5..15 {
            inputs.push(mk(i * 8, (i - 4) as f64 * 100.0, 12.0, 120.0));
        }
        for i in 15..25 {
            inputs.push(mk(i * 8, 1000.0, 0.0, 200.0));
        }
        for i in 25..35 {
            inputs.push(mk(i * 8, 1000.0 - (i - 24) as f64 * 100.0, -12.0, 150.0));
        }
        for i in 35..40 {
            inputs.push(mk(i * 8, 0.0, 0.0, 40.0));
        }
        let out = g.run(inputs);
        let labels = kinds(&out);
        assert!(labels.contains(&"takeoff"), "got {labels:?}");
        assert!(labels.contains(&"landing"));
        assert!(labels.contains(&"change_in_altitude"));
        // Takeoff anchors at the last on-ground report (t = 32 s).
        let takeoff = out.iter().find(|c| c.kind == CriticalKind::Takeoff).unwrap();
        assert_eq!(takeoff.report.ts, Timestamp::from_secs(32));
        // Exactly one climb-entry and one descent-entry altitude event.
        let alt_events: Vec<_> = out
            .iter()
            .filter_map(|c| match c.kind {
                CriticalKind::ChangeInAltitude { rate_mps } => Some(rate_mps),
                _ => None,
            })
            .collect();
        assert_eq!(alt_events.len(), 2, "got {alt_events:?}");
        assert!(alt_events[0] > 0.0 && alt_events[1] < 0.0);
    }

    #[test]
    fn heading_jitter_at_rest_is_suppressed() {
        let mut g = SynopsesGenerator::new(SynopsesConfig::maritime());
        // A stopped vessel with random GPS headings must not emit turns.
        let mut inputs = vec![rep(0, 0.0, 40.0, 8.0, 90.0), rep(10, 0.001, 40.0, 8.0, 90.0)];
        for i in 2..40 {
            inputs.push(rep(i * 10, 0.001, 40.0, 0.2, (i * 73 % 360) as f64));
        }
        let out = g.run(inputs);
        assert!(
            !out.iter().any(|c| matches!(c.kind, CriticalKind::ChangeInHeading { .. })),
            "got {:?}",
            kinds(&out)
        );
    }

    #[test]
    fn debounce_limits_reissue() {
        let cfg = SynopsesConfig {
            min_reissue_s: 1_000.0, // effectively once
            ..SynopsesConfig::maritime()
        };
        let mut g = SynopsesGenerator::new(cfg);
        let mut inputs = Vec::new();
        // Continuous wiggling: heading alternates every report.
        for i in 0..100 {
            let h = if i % 2 == 0 { 60.0 } else { 120.0 };
            inputs.push(rep(i * 10, 0.001 * i as f64, 40.0, 8.0, h));
        }
        let out = g.run(inputs);
        let turns = out
            .iter()
            .filter(|c| matches!(c.kind, CriticalKind::ChangeInHeading { .. }))
            .count();
        assert!(turns <= 1, "debounced to at most one turn, got {turns}");
    }
}
