//! # crimson-reconstruction — tree inference algorithms and comparison metrics
//!
//! The Crimson Benchmark Manager "tests and evaluates tree inference
//! algorithms against the gold-standard simulation tree" (§2.2). This crate
//! provides both sides of that pipeline:
//!
//! * **Distance estimation** ([`distance`]): pairwise evolutionary distances
//!   from aligned sequences (raw p-distance, Jukes–Cantor and Kimura
//!   corrections) feeding the distance-based reconstruction methods.
//! * **Reconstruction algorithms** ([`mod@upgma`], [`nj`]): UPGMA hierarchical
//!   clustering and Neighbor-Joining — the canonical distance methods whose
//!   behaviour the CIPRes benchmarking workflow was designed to score.
//! * **Tree comparison** ([`compare`]): Robinson–Foulds distance over clades
//!   (computed with bitset cluster tables in the spirit of Day's linear-time
//!   algorithm, paper ref \[1\]), normalized RF, majority-rule consensus
//!   trees and triplet distance.
//!
//! ```
//! use reconstruction::prelude::*;
//! use phylo::distance::patristic_matrix;
//! use phylo::builder::figure1_tree;
//!
//! // Reconstructing from the *true* patristic distances recovers the
//! // topology exactly.
//! let gold = figure1_tree();
//! let matrix = patristic_matrix(&gold).unwrap();
//! let inferred = neighbor_joining(&matrix).unwrap();
//! let rf = robinson_foulds(&gold, &inferred).unwrap();
//! assert_eq!(rf.distance, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod distance;
pub mod nj;
pub mod upgma;

pub use compare::{
    compare_sources, majority_consensus, robinson_foulds, triplet_distance, CladeAgreement,
    CladeSource, RfResult, SourceComparison,
};
pub use distance::{jc_corrected_matrix, k2p_corrected_matrix, p_distance_matrix, DistanceError};
pub use nj::neighbor_joining;
pub use upgma::upgma;

/// Commonly used items.
pub mod prelude {
    pub use crate::compare::{
        compare_sources, majority_consensus, robinson_foulds, triplet_distance, CladeAgreement,
        CladeSource, RfResult, SourceComparison,
    };
    pub use crate::distance::{
        jc_corrected_matrix, k2p_corrected_matrix, p_distance_matrix, DistanceError,
    };
    pub use crate::nj::neighbor_joining;
    pub use crate::upgma::upgma;
}
