//! Graph algorithms over forward (non-feedback) channels: the topological
//! order, plus the whole-graph reachability and connectivity passes kept as
//! a test oracle.

use crate::error::GraphError;
use crate::filter::FilterId;
use crate::graph::StreamGraph;
use crate::Result;

/// Kahn's algorithm over forward channels.
pub(crate) fn topological_order(graph: &StreamGraph) -> Result<Vec<FilterId>> {
    let n = graph.filter_count();
    let mut indegree = vec![0usize; n];
    for (_, ch) in graph.channels() {
        if !ch.feedback {
            indegree[ch.dst.index()] += 1;
        }
    }
    let mut queue: Vec<FilterId> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(FilterId::from_index)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &c in graph.out_channels(u) {
            let ch = graph.channel(c);
            if ch.feedback {
                continue;
            }
            let d = ch.dst.index();
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(ch.dst);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(GraphError::CyclicGraph)
    }
}

/// Whole-graph connectivity and convexity predicates: each allocates
/// graph-sized vectors and walks the whole graph. They are the test oracle
/// for the local [`NodeSet::is_connected_convex`](crate::NodeSet::is_connected_convex).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::NodeSet;

    fn membership(set: &NodeSet, graph: &StreamGraph) -> Vec<bool> {
        let mut m = vec![false; graph.filter_count()];
        for id in set.iter() {
            m[id.index()] = true;
        }
        m
    }

    /// Returns `true` if the members form a weakly connected sub-graph of
    /// `graph`.
    pub(crate) fn is_connected(set: &NodeSet, graph: &StreamGraph) -> bool {
        !set.is_empty() && is_weakly_connected(graph, &membership(set, graph))
    }

    /// Returns `true` if no directed forward path between two members passes
    /// through a non-member.
    pub(crate) fn is_convex(set: &NodeSet, graph: &StreamGraph) -> bool {
        if set.len() <= 1 {
            return true;
        }
        let members = membership(set, graph);
        // A non-member x violates convexity iff it is reachable from a
        // member and can itself reach a member.
        let mut reachable_from_set = members.clone();
        let mut stack: Vec<FilterId> = set.iter().collect();
        while let Some(u) = stack.pop() {
            for &c in graph.out_channels(u) {
                let ch = graph.channel(c);
                if ch.feedback {
                    continue;
                }
                if !reachable_from_set[ch.dst.index()] {
                    reachable_from_set[ch.dst.index()] = true;
                    stack.push(ch.dst);
                }
            }
        }
        let reaches_set = can_reach_targets(graph, &members);
        for i in 0..graph.filter_count() {
            if !members[i] && reachable_from_set[i] && reaches_set[i] {
                let downstream_member_exists = graph
                    .successors(FilterId::from_index(i))
                    .iter()
                    .any(|&s| reaches_set[s.index()] || members[s.index()]);
                if downstream_member_exists {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the set of nodes reachable from `start` over forward channels,
    /// restricted to nodes for which `allowed` returns `true` (the start node is
    /// always included).
    pub(crate) fn reachable_within(
        graph: &StreamGraph,
        start: FilterId,
        allowed: impl Fn(FilterId) -> bool,
    ) -> Vec<bool> {
        let n = graph.filter_count();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(u) = stack.pop() {
            for &c in graph.out_channels(u) {
                let ch = graph.channel(c);
                if ch.feedback {
                    continue;
                }
                let v = ch.dst;
                if !seen[v.index()] && allowed(v) {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Returns `true` if the nodes marked in `members` form a weakly connected
    /// sub-graph (treating channels as undirected, ignoring feedback channels).
    pub(crate) fn is_weakly_connected(graph: &StreamGraph, members: &[bool]) -> bool {
        let count = members.iter().filter(|&&m| m).count();
        if count == 0 {
            return false;
        }
        let start = members.iter().position(|&m| m).expect("non-empty");
        let mut seen = vec![false; graph.filter_count()];
        let mut stack = vec![FilterId::from_index(start)];
        seen[start] = true;
        let mut visited = 0usize;
        while let Some(u) = stack.pop() {
            visited += 1;
            let mut push_neighbor = |v: FilterId| {
                if members[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            };
            for &c in graph.out_channels(u) {
                let ch = graph.channel(c);
                if !ch.feedback {
                    push_neighbor(ch.dst);
                }
            }
            for &c in graph.in_channels(u) {
                let ch = graph.channel(c);
                if !ch.feedback {
                    push_neighbor(ch.src);
                }
            }
        }
        visited == count
    }

    /// Computes, for every node, whether it can reach any node of `targets`
    /// (marked as `true`) over forward channels. Used by the convexity test.
    pub(crate) fn can_reach_targets(graph: &StreamGraph, targets: &[bool]) -> Vec<bool> {
        // Process nodes in reverse topological order so that a single pass
        // suffices; the graph is guaranteed acyclic over forward channels.
        let order = topological_order(graph).unwrap_or_else(|_| graph.filter_ids().collect());
        let mut reach = targets.to_vec();
        for &u in order.iter().rev() {
            if reach[u.index()] {
                continue;
            }
            for &c in graph.out_channels(u) {
                let ch = graph.channel(c);
                if !ch.feedback && reach[ch.dst.index()] {
                    reach[u.index()] = true;
                    break;
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::filter::Filter;

    fn diamond() -> (StreamGraph, Vec<FilterId>) {
        // a -> b -> d, a -> c -> d
        let mut g = StreamGraph::new("diamond");
        let a = g.add_filter(Filter::new("a", 0, 2, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        let c = g.add_filter(Filter::new("c", 1, 1, 1.0));
        let d = g.add_filter(Filter::new("d", 2, 0, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(a, c, 1, 1).unwrap();
        g.add_channel(b, d, 1, 1).unwrap();
        g.add_channel(c, d, 1, 1).unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, ids) = diamond();
        let order = topological_order(&g).unwrap();
        let pos: Vec<usize> = ids
            .iter()
            .map(|id| order.iter().position(|x| x == id).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn reachability_is_restricted_by_predicate() {
        let (g, ids) = diamond();
        let reach = reachable_within(&g, ids[0], |v| v != ids[1]);
        assert!(reach[ids[2].index()]);
        assert!(reach[ids[3].index()]);
        assert!(!reach[ids[1].index()]);
    }

    #[test]
    fn weak_connectivity() {
        let (g, ids) = diamond();
        let mut members = vec![false; g.filter_count()];
        members[ids[1].index()] = true;
        members[ids[2].index()] = true;
        // b and c are not connected to each other without a or d.
        assert!(!is_weakly_connected(&g, &members));
        members[ids[0].index()] = true;
        assert!(is_weakly_connected(&g, &members));
    }

    #[test]
    fn reach_targets_marks_ancestors() {
        let (g, ids) = diamond();
        let mut targets = vec![false; g.filter_count()];
        targets[ids[3].index()] = true;
        let reach = can_reach_targets(&g, &targets);
        assert!(reach.iter().all(|&r| r), "every node reaches the sink");
        let mut targets = vec![false; g.filter_count()];
        targets[ids[1].index()] = true;
        let reach = can_reach_targets(&g, &targets);
        assert!(reach[ids[0].index()]);
        assert!(!reach[ids[2].index()]);
        assert!(!reach[ids[3].index()]);
    }
}
