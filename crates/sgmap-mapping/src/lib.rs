//! Communication-aware partition-to-GPU mapping (Section 3.2).
//!
//! Given the Partition Dependence Graph and the PCIe topology of the target
//! platform, the mapping step assigns every partition to a GPU so that the
//! bottleneck — the busiest GPU *or* the busiest PCIe link — is as fast as
//! possible:
//!
//! ```text
//! minimise Tmax
//!   T_gpu_j  = Σ_i n_ij · T_i              ≤ Tmax      (III.1, III.4)
//!   T_comm_l = Lat + D_l / BW              ≤ Tmax      (III.2, III.3)
//!   Σ_j n_ij = 1                                        (III.5)
//!   D_l      = Σ_{(i,j)∈E_P} [crossing] · D_ij          (III.6, III.7)
//! ```
//!
//! Three mappers are provided:
//!
//! * [`map_ilp`] — the exact formulation above, solved with the
//!   branch-and-bound ILP solver of `sgmap-ilp` (warm-started by the greedy
//!   mapper and bounded by a node/time budget),
//! * [`map_greedy`] — longest-processing-time list scheduling followed by a
//!   communication-aware local search; used both as the ILP warm start and as
//!   a fast stand-alone mapper,
//! * [`map_round_robin`] — the hardware-agnostic assignment in the style of
//!   the prior work, which balances only the partition count per GPU and
//!   ignores the interconnect.
//!
//! [`evaluate_assignment`] computes the objective of any assignment and is
//! shared by all three (and by the tests, to check the ILP never loses to the
//! greedy mapper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluate;
mod greedy;
mod ilp;
mod repair;

pub use evaluate::{evaluate_assignment, MappingCost};
pub use greedy::{map_greedy, map_round_robin};
pub use ilp::{map_ilp, map_ilp_traced, MappingOptions};
pub use repair::{
    map_on_survivors, repair_mapping, repair_mapping_greedy, RepairOptions, RepairStats,
};
pub use sgmap_ilp::SolveStats;

use sgmap_gpusim::Platform;
use sgmap_partition::{PartitionError, Pdg};

/// Which algorithm produced a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingMethod {
    /// The communication-aware ILP formulation.
    Ilp,
    /// LPT list scheduling plus local search.
    Greedy,
    /// Hardware-agnostic round-robin (prior-work style).
    RoundRobin,
}

/// A partition-to-GPU assignment together with its predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// `assignment[i]` is the GPU index of partition `i`.
    pub assignment: Vec<usize>,
    /// Predicted bottleneck time (the ILP objective `Tmax`), microseconds.
    pub predicted_tmax_us: f64,
    /// Predicted busy time of each GPU, microseconds.
    pub per_gpu_time_us: Vec<f64>,
    /// Predicted communication time of each directed PCIe link, microseconds.
    pub per_link_time_us: Vec<f64>,
    /// The algorithm that produced this mapping.
    pub method: MappingMethod,
    /// Whether the ILP proved optimality (always `false` for the heuristics).
    pub optimal: bool,
    /// Solver counters of the ILP search (all zero for the heuristics and
    /// for the trivial single-GPU / empty cases the ILP answers directly).
    pub ilp_stats: SolveStats,
}

impl Mapping {
    /// Number of distinct GPUs actually used.
    pub fn gpus_used(&self) -> usize {
        let mut used: Vec<usize> = self.assignment.clone();
        used.sort_unstable();
        used.dedup();
        used.len()
    }
}

/// Why a mapper could not produce a mapping.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MappingError {
    /// The ILP solver failed.
    Ilp(sgmap_ilp::IlpError),
    /// The PDG has no topological order for round-robin to deal in.
    Pdg(PartitionError),
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::Ilp(e) => write!(f, "{e}"),
            MappingError::Pdg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MappingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MappingError::Ilp(e) => Some(e),
            MappingError::Pdg(e) => Some(e),
        }
    }
}

impl From<sgmap_ilp::IlpError> for MappingError {
    fn from(e: sgmap_ilp::IlpError) -> Self {
        MappingError::Ilp(e)
    }
}

impl From<PartitionError> for MappingError {
    fn from(e: PartitionError) -> Self {
        MappingError::Pdg(e)
    }
}

/// Convenience entry point dispatching on [`MappingMethod`].
///
/// # Errors
///
/// Returns [`MappingError::Ilp`] for [`MappingMethod::Ilp`] when the solver
/// fails, and [`MappingError::Pdg`] for [`MappingMethod::RoundRobin`] when
/// the PDG has a cycle; the greedy mapper cannot fail.
pub fn map_with(
    pdg: &Pdg,
    platform: &Platform,
    method: MappingMethod,
    options: &MappingOptions,
) -> Result<Mapping, MappingError> {
    map_with_traced(pdg, platform, method, options, None)
}

/// [`map_with`] with an optional trace collector: the whole mapping step runs
/// under a `map` span and the ILP method forwards the collector into the
/// solver (see [`map_ilp_traced`]).
///
/// # Errors
///
/// Same as [`map_with`].
pub fn map_with_traced(
    pdg: &Pdg,
    platform: &Platform,
    method: MappingMethod,
    options: &MappingOptions,
    trace: sgmap_trace::TraceRef<'_>,
) -> Result<Mapping, MappingError> {
    let mut span = sgmap_trace::span(trace, "map");
    span.arg("partitions", pdg.len());
    span.arg("gpus", platform.gpu_count());
    match method {
        MappingMethod::Ilp => Ok(map_ilp_traced(pdg, platform, options, trace)?),
        MappingMethod::Greedy => Ok(map_greedy(pdg, platform)),
        MappingMethod::RoundRobin => Ok(map_round_robin(pdg, platform)?),
    }
}
