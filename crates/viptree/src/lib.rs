#![warn(missing_docs)]

//! VIP-tree index for indoor spaces (Shao et al., PVLDB 2016), as used by
//! the IFLS paper.
//!
//! The **Vivid Indoor Partitioning tree** indexes an indoor venue bottom-up:
//! adjacent partitions are combined into leaf nodes, adjacent leaf nodes
//! into non-leaf nodes, and so on until a single root remains. Nodes store
//! distance matrices (with first-hop doors) that make exact indoor shortest
//! distances a handful of matrix lookups:
//!
//! * a **leaf node** stores exact distances between all doors of the node
//!   (covering its access doors), and — the *vivid* enhancement — from all
//!   its doors to the access doors of every ancestor;
//! * a **non-leaf node** stores exact distances between the access doors of
//!   all its children.
//!
//! *Access doors* of a node are the doors through which every path entering
//! or leaving the node must pass. Because any path out of a node crosses one
//! of its access doors, composing these matrices over the tree yields
//! *exact* global distances — a property this crate's tests verify against
//! the Dijkstra ground truth of `ifls-indoor`.
//!
//! Beyond distances, the crate provides the lower bound `iMinD(p, N)`
//! between a partition and a tree node (§5.3.1 of the IFLS paper), a
//! facility object layer ([`FacilityIndex`]), and the classic top-down
//! incremental nearest-neighbor search ([`IncrementalNn`]) used by the
//! paper's baseline.
//!
//! # Example
//!
//! ```
//! use ifls_viptree::{VipTree, VipTreeConfig};
//! use ifls_venues::GridVenueSpec;
//!
//! let venue = GridVenueSpec::small_office().build();
//! let tree = VipTree::build(&venue, VipTreeConfig::default());
//! // Exact distance between two partitions:
//! let a = venue.partitions()[2].id();
//! let b = venue.partitions()[10].id();
//! let d = tree.min_dist_partition_to_partition(a, b);
//! assert!(d.is_finite());
//! ```

mod build;
pub mod cache;
mod dist;
pub mod kernels;
mod knn;
mod matrix;
mod node;
mod path;
mod snapshot;
mod tree;
pub mod warm;

pub use cache::{DistCache, DistCacheStats, DEFAULT_CACHE_ENTRIES};
pub use knn::{FacilityIndex, IncrementalNn, NnEntry};
pub use matrix::{DistArena, MatRef};
pub use node::{NodeChildren, NodeId};
pub use path::IndoorPath;
pub use snapshot::{
    snapshot_schema_for, SnapshotError, SnapshotInfo, SNAPSHOT_MAGIC, SNAPSHOT_MIN_VERSION,
    SNAPSHOT_SCHEMA, SNAPSHOT_VERSION,
};
pub use tree::{VipTree, VipTreeStats};
pub use warm::{WarmTier, DEFAULT_WARM_BUDGET_BYTES};

// Compile-time audit of the concurrency contract: the index is immutable
// after construction (no interior mutability, no per-query scratch inside
// shared structs), so queries may share it by reference across threads.
// `ifls-core`'s parallel engine relies on these bounds; breaking them —
// e.g. by caching query state in a `Cell` — must fail the build, not the
// race detector.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VipTree<'static>>();
    assert_send_sync::<FacilityIndex>();
    assert_send_sync::<DistArena>();
    assert_send_sync::<VipTreeConfig>();
};

/// Construction parameters for a [`VipTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VipTreeConfig {
    /// Maximum number of partitions combined into one leaf node.
    pub leaf_max_partitions: usize,
    /// Maximum number of children of a non-leaf node.
    pub max_fanout: usize,
    /// Whether leaves store the *vivid* door-to-ancestor-access-door
    /// matrices. With `false` the index degrades to a plain IP-tree:
    /// distances are still exact but computed by climbing the tree level by
    /// level instead of a single three-matrix composition.
    pub vivid: bool,
}

impl Default for VipTreeConfig {
    fn default() -> Self {
        Self {
            leaf_max_partitions: 8,
            max_fanout: 4,
            vivid: true,
        }
    }
}

impl VipTreeConfig {
    /// An IP-tree configuration: identical structure, no vivid matrices.
    pub fn ip_tree() -> Self {
        Self {
            vivid: false,
            ..Self::default()
        }
    }
}
