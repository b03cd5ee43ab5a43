//! Geospatial substrate for RetraSyn.
//!
//! Implements the discretization and stream machinery from §II-C/§III-B of
//! the paper:
//!
//! - [`Point`] / [`BoundingBox`]: continuous two-dimensional locations.
//! - [`Grid`]: the uniform K×K discretization with 8-adjacency (plus self)
//!   reachability.
//! - [`Trajectory`] / [`StreamDataset`]: raw continuous trajectory streams,
//!   each entering at its own timestamp (`a_i` in Definition 4).
//! - [`GriddedStream`] / [`GriddedDataset`]: the discretized view on which
//!   every mechanism and metric operates. Discretization splits streams at
//!   non-adjacent cell jumps (mirroring the paper's handling of non-adjacent
//!   timestamps: "we add quitting events and split them into multiple
//!   streams").
//! - [`TransitionState`] / [`TransitionTable`]: the reachability-constrained
//!   transition domain `S = {m_ij} ∪ {e_i} ∪ {q_j}` of size `O(9|C|)`
//!   (§III-B), with a dense bijective index used by the frequency oracle.
//! - [`EventTimeline`]: per-timestamp user transition states, including the
//!   final `Quit` farewell report one step after a stream's last location.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod gridded;
pub mod io;
pub mod point;
pub mod space;
pub mod stream;
pub mod timeline;
pub mod trajectory;
pub mod transition;

pub use grid::{CellId, Grid};
pub use gridded::{GriddedDataset, GriddedStream, StreamView};
pub use point::{BoundingBox, Point};
pub use space::{QuadGrid, QuadLeaf, Space, SpaceDescriptor, Topology};
pub use stream::{DatasetStats, StreamDataset};
pub use timeline::{EventTimeline, UserEvent};
pub use trajectory::Trajectory;
pub use transition::{TransitionState, TransitionTable};
