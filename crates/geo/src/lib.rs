#![warn(missing_docs)]

//! # datacron-geo
//!
//! Spatio-temporal primitives for the datAcron mobility-forecasting stack.
//!
//! This crate is the geometric and temporal foundation shared by every other
//! component: geodesic math on WGS-84 points, local tangent-plane
//! projections, bounding boxes and polygons, equi-grid space partitioning
//! (used by link discovery and the knowledge-graph store), spatio-temporal
//! cell encoding (the dictionary-encoding scheme of the store), timestamps
//! and intervals, and the core mobility model types ([`PositionReport`],
//! [`Trajectory`]) that the paper's architecture revolves around.
//!
//! Everything here is dependency-free and deterministic, because the
//! downstream experiments (compression error, prediction error,
//! link-discovery throughput) are only as trustworthy as this layer.
//!
//! ## Conventions
//!
//! * Coordinates are WGS-84 degrees: longitude in `[-180, 180]`, latitude in
//!   `[-90, 90]`.
//! * Distances are metres, speeds metres/second, headings degrees clockwise
//!   from true north in `[0, 360)`.
//! * Timestamps are milliseconds since the Unix epoch ([`Timestamp`]).

pub mod bbox;
pub mod grid;
pub mod hash;
pub mod moving;
pub mod point;
pub mod polygon;
pub mod stcell;
pub mod time;
pub mod vector;

pub use bbox::BoundingBox;
pub use grid::{CellIndex, EquiGrid};
pub use hash::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use moving::{EntityId, MovingKind, PositionReport, Trajectory};
pub use point::{GeoPoint, EARTH_RADIUS_M};
pub use polygon::Polygon;
pub use stcell::{StCellEncoder, StCellId};
pub use time::{TimeInterval, Timestamp};
pub use vector::LocalFrame;
