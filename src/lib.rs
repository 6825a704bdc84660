#![warn(missing_docs)]

//! # IFLS — Indoor Facility Location Selection
//!
//! A faithful, production-quality reproduction of *"An Efficient Approach
//! for Indoor Facility Location Selection"* (Rayhan, Hashem, Cheema, Lu,
//! Ali — EDBT 2023).
//!
//! Given an indoor venue, a set of clients `C`, a set of existing facilities
//! `Fe` and a set of candidate locations `Fn`, the IFLS query returns the
//! candidate that minimizes the maximum indoor distance of any client to its
//! nearest facility:
//!
//! ```text
//! A = argmin_{n ∈ Fn} ( max_{c ∈ C} iDist(c, NN(c, Fe ∪ {n})) )
//! ```
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`indoor`] — indoor space model, door graph, exact distances.
//! * [`viptree`] — the VIP-tree index (Shao et al., PVLDB 2016).
//! * [`venues`] — venue generators, including the paper's four venues.
//! * [`workloads`] — client/facility generators and the Table 2 grid.
//! * [`core`] — the IFLS algorithms: the modified MinMax baseline, the
//!   efficient single-pass approach, and the MinDist/MaxSum extensions.
//! * [`obs`] — zero-dependency tracing and metrics.
//!
//! # Quickstart
//!
//! ```
//! use ifls::prelude::*;
//!
//! // A deterministic miniature venue and workload.
//! let venue = ifls::venues::grid::GridVenueSpec::small_office().build();
//! let tree = VipTree::build(&venue, VipTreeConfig::default());
//! let workload = ifls::workloads::WorkloadBuilder::new(&venue)
//!     .clients_uniform(40)
//!     .existing_uniform(3)
//!     .candidates_uniform(5)
//!     .seed(7)
//!     .build();
//!
//! let result = EfficientIfls::new(&tree)
//!     .run(&workload.clients, &workload.existing, &workload.candidates);
//! let baseline = ModifiedMinMax::new(&tree)
//!     .run(&workload.clients, &workload.existing, &workload.candidates);
//! assert_eq!(result.objective(), baseline.objective());
//! ```

pub use ifls_core as core;
pub use ifls_indoor as indoor;
pub use ifls_obs as obs;
pub use ifls_venues as venues;
pub use ifls_viptree as viptree;
pub use ifls_workloads as workloads;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use ifls_core::{
        BatchRunner, BruteForce, EfficientConfig, EfficientIfls, IflsMonitor, IflsQuery, MaxSum,
        MinDist, MinMax, MinMaxOutcome, ModifiedMinMax, ParallelSolver, QueryStats,
    };
    pub use ifls_indoor::{
        DoorId, GroundTruth, IndoorPoint, PartitionId, Point, Rect, Venue, VenueBuilder,
    };
    pub use ifls_viptree::{FacilityIndex, VipTree, VipTreeConfig};
    pub use ifls_workloads::{Workload, WorkloadBuilder};
}
