//! System configuration.

use crate::realtime::SupervisionConfig;
use datacron_geo::{BoundingBox, Timestamp};
use datacron_linkdisc::LinkerConfig;
use datacron_stream::cleaning::CleaningConfig;
use datacron_synopses::SynopsesConfig;
use std::path::PathBuf;

/// The application domain, selecting threshold defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// AIS vessel surveillance.
    Maritime,
    /// ADS-B/radar aircraft surveillance.
    Aviation,
}

/// Configuration of the assembled system.
#[derive(Debug, Clone)]
pub struct DatacronConfig {
    /// The domain.
    pub domain: Domain,
    /// The area of interest (grids, encoders and monitors span it).
    pub extent: BoundingBox,
    /// Epoch of the spatio-temporal encoding.
    pub epoch: Timestamp,
    /// Time-bucket width of the spatio-temporal encoding, ms.
    pub st_bucket_millis: i64,
    /// Spatial grid resolution of the store encoding (rows = cols).
    pub st_grid_cells: u32,
    /// Online cleaning thresholds.
    pub cleaning: CleaningConfig,
    /// Synopses thresholds.
    pub synopses: SynopsesConfig,
    /// Link-discovery parameters.
    pub linker: LinkerConfig,
    /// FLP recent-history window (reports).
    pub flp_window: usize,
    /// Supervision thresholds of the real-time layer.
    pub supervision: SupervisionConfig,
    /// Whether the layer records metrics (counters, gauges, stage-latency
    /// histograms) into its [`ObsRegistry`](datacron_obs::ObsRegistry).
    /// When `false` the registry is disabled and every instrument is a
    /// detached no-op, so the hot path pays nothing.
    pub metrics: bool,
    /// Resident-entity budget of the real-time layer. When the number of
    /// entities with live operator state exceeds this, the idlest (by
    /// `last_seen` event time) are spilled to the cold tier
    /// ([`SpillStore`](crate::spill::SpillStore)) and transparently
    /// rehydrated on their next report — outputs stay bit-identical to an
    /// unbounded run. `None` (the default) keeps every entity resident.
    /// In sharded mode the budget applies **per shard** (each worker's
    /// layer is built from this config).
    pub max_resident_entities: Option<usize>,
    /// Directory tier of the spill store: spilled blobs go to one file per
    /// entity under this directory (atomic tmp+rename, index-owned
    /// membership) instead of the in-memory tier, keeping RSS flat in
    /// fleet size. `None` (the default) spills to memory. Only meaningful
    /// with [`max_resident_entities`](Self::max_resident_entities) set.
    pub spill_dir: Option<PathBuf>,
}

impl DatacronConfig {
    /// Maritime defaults over the given area of interest.
    pub fn maritime(extent: BoundingBox) -> Self {
        Self {
            domain: Domain::Maritime,
            extent,
            epoch: Timestamp(0),
            st_bucket_millis: 3_600_000,
            st_grid_cells: 64,
            cleaning: CleaningConfig::maritime(),
            synopses: SynopsesConfig::maritime(),
            linker: LinkerConfig::default(),
            flp_window: 12,
            supervision: SupervisionConfig::default(),
            metrics: true,
            max_resident_entities: None,
            spill_dir: None,
        }
    }

    /// Aviation defaults over the given area of interest.
    pub fn aviation(extent: BoundingBox) -> Self {
        Self {
            domain: Domain::Aviation,
            extent,
            epoch: Timestamp(0),
            st_bucket_millis: 900_000,
            st_grid_cells: 64,
            cleaning: CleaningConfig::aviation(),
            synopses: SynopsesConfig::aviation(),
            linker: LinkerConfig::default(),
            flp_window: 12,
            supervision: SupervisionConfig::default(),
            metrics: true,
            max_resident_entities: None,
            spill_dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_defaults_differ() {
        let ext = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let m = DatacronConfig::maritime(ext);
        let a = DatacronConfig::aviation(ext);
        assert_eq!(m.domain, Domain::Maritime);
        assert_eq!(a.domain, Domain::Aviation);
        assert!(a.cleaning.max_speed_mps > m.cleaning.max_speed_mps);
        assert!(a.st_bucket_millis < m.st_bucket_millis, "aircraft move faster");
    }
}
