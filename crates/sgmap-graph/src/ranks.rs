//! Topological ranks over forward channels.

use crate::filter::FilterId;
use crate::graph::StreamGraph;
use crate::Result;

/// The position of every filter in one topological order of a graph's
/// forward (non-feedback) channels.
///
/// Every forward channel runs from a lower to a strictly higher rank, so a
/// forward path between two filters only visits ranks between theirs. The
/// convexity half of [`NodeSet::is_connected_convex`](crate::NodeSet::is_connected_convex)
/// relies on this to search only inside a set's rank window. Build the
/// table once per graph and share it across every probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoRanks {
    ranks: Vec<u32>,
}

impl TopoRanks {
    /// Ranks the filters of `graph` by [`StreamGraph::topological_order`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`](crate::GraphError::CyclicGraph)
    /// if the forward channels form a cycle.
    pub fn new(graph: &StreamGraph) -> Result<Self> {
        let order = graph.topological_order()?;
        let mut ranks = vec![0u32; order.len()];
        for (rank, id) in order.iter().enumerate() {
            ranks[id.index()] = rank as u32;
        }
        Ok(TopoRanks { ranks })
    }

    /// The rank of `id`: its position in the topological order.
    pub fn rank(&self, id: FilterId) -> usize {
        self.ranks[id.index()] as usize
    }

    /// Number of ranked filters (the graph's filter count).
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Returns `true` for the table of an empty graph.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;

    #[test]
    fn forward_channels_climb_in_rank_and_feedback_is_ignored() {
        let mut g = StreamGraph::new("loop");
        let ids: Vec<FilterId> = (0..4)
            .map(|i| g.add_filter(Filter::new(format!("f{i}"), 1, 1, 1.0)))
            .collect();
        // Added out of index order so ranks differ from indices.
        g.add_channel(ids[2], ids[1], 1, 1).unwrap();
        g.add_channel(ids[0], ids[2], 1, 1).unwrap();
        g.add_channel(ids[1], ids[3], 1, 1).unwrap();
        g.add_feedback_channel(ids[3], ids[0], 1, 1, 1).unwrap();
        let ranks = TopoRanks::new(&g).unwrap();
        assert_eq!(ranks.len(), 4);
        for (_, ch) in g.channels().filter(|(_, ch)| !ch.feedback) {
            assert!(ranks.rank(ch.src) < ranks.rank(ch.dst));
        }
        let mut seen: Vec<usize> = ids.iter().map(|&id| ranks.rank(id)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_forward_cycle_has_no_ranks() {
        let mut g = StreamGraph::new("cycle");
        let a = g.add_filter(Filter::new("a", 1, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, a, 1, 1).unwrap();
        assert_eq!(TopoRanks::new(&g), Err(crate::GraphError::CyclicGraph));
    }
}
