//! Error type for the partitioning stage.

use std::fmt;

use sgmap_graph::{FilterId, GraphError};

/// Errors produced while partitioning a stream graph.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// A single filter does not fit into the device's shared memory even as
    /// its own partition; the graph cannot be compiled with the
    /// one-kernel-for-graph approach.
    FilterTooLarge(FilterId),
    /// The underlying graph analysis failed (inconsistent rates, cycles, ...).
    Graph(GraphError),
    /// The produced partitioning does not cover every filter exactly once
    /// (internal invariant violation).
    InvalidCover,
    /// The partition dependence graph has a cycle, so no kernel order
    /// exists.
    CyclicPdg {
        /// Partitions a topological sort could still order.
        ordered: usize,
        /// Partitions in the PDG.
        partitions: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::FilterTooLarge(id) => write!(
                f,
                "filter {} exceeds shared memory even as a singleton partition",
                id.index()
            ),
            PartitionError::Graph(e) => write!(f, "graph analysis failed: {e}"),
            PartitionError::InvalidCover => {
                write!(f, "partitioning does not cover all filters exactly once")
            }
            PartitionError::CyclicPdg {
                ordered,
                partitions,
            } => write!(
                f,
                "partition dependence graph has a cycle: only {ordered} of {partitions} partitions can be ordered"
            ),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PartitionError {
    fn from(e: GraphError) -> Self {
        PartitionError::Graph(e)
    }
}
