//! Sub-graphs of a stream graph: the candidate partitions of the mapping
//! flow.
//!
//! A [`NodeSet`] is an arbitrary subset of the filters of a [`StreamGraph`].
//! The partitioning heuristic only ever keeps node sets that are *connected*
//! and *convex* (no path between two members passes through a non-member),
//! so that predicate is provided here, as a local search over the set and
//! its topological-rank window, together with the boundary/interior channel
//! queries needed to compute workloads, IO volumes and inter-partition
//! traffic.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::filter::{FilterId, FilterKind};
use crate::graph::{ChannelId, StreamGraph};
use crate::ranks::TopoRanks;
use crate::rates::RepetitionVector;
use crate::Result;

/// A set of filters of a stream graph, kept sorted by filter id.
///
/// The members are stored behind an [`Arc`], so cloning a node set — which
/// the partition search and the estimator caches do constantly — is a
/// reference-count bump rather than a vector copy, and the hash of the
/// member list is precomputed at construction so hash-map lookups keyed by
/// node sets do not re-walk the members.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSet {
    members: Arc<Vec<FilterId>>,
    /// FNV-1a over the member ids; maintained on every mutation.
    hash: u64,
}

/// FNV-1a over the member ids. Deterministic across runs and platforms, so
/// anything derived from the hash (bucket order never is) stays stable.
fn members_hash(members: &[FilterId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in members {
        h ^= id.index() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl NodeSet {
    fn from_sorted(members: Vec<FilterId>) -> Self {
        let hash = members_hash(&members);
        NodeSet {
            members: Arc::new(members),
            hash,
        }
    }

    /// Creates an empty node set.
    pub fn new() -> Self {
        NodeSet::from_sorted(Vec::new())
    }

    /// Creates a node set containing a single filter.
    pub fn singleton(id: FilterId) -> Self {
        NodeSet::from_sorted(vec![id])
    }

    /// Creates a node set containing every filter of `graph`.
    pub fn all(graph: &StreamGraph) -> Self {
        NodeSet::from_sorted(graph.filter_ids().collect())
    }

    /// Creates a node set from an iterator of filter ids (duplicates are
    /// removed).
    pub fn from_ids(ids: impl IntoIterator<Item = FilterId>) -> Self {
        let mut members: Vec<FilterId> = ids.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        NodeSet::from_sorted(members)
    }

    /// Number of filters in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the set contains no filter.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `id` belongs to the set.
    pub fn contains(&self, id: FilterId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Inserts a filter; returns `true` if it was not already present.
    pub fn insert(&mut self, id: FilterId) -> bool {
        match self.members.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                Arc::make_mut(&mut self.members).insert(pos, id);
                self.hash = members_hash(&self.members);
                true
            }
        }
    }

    /// Iterates over the member filter ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FilterId> + '_ {
        self.members.iter().copied()
    }

    /// Returns the members as a slice, sorted ascending.
    pub fn as_slice(&self) -> &[FilterId] {
        &self.members
    }

    /// Returns a new set that is the union of `self` and `other`.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut members = Vec::with_capacity(self.members.len() + other.members.len());
        let (mut i, mut j) = (0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => {
                    members.push(self.members[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    members.push(other.members[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    members.push(self.members[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        members.extend_from_slice(&self.members[i..]);
        members.extend_from_slice(&other.members[j..]);
        NodeSet::from_sorted(members)
    }

    /// Returns a new set with the members of `self` that are not in `other`.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut members = Vec::with_capacity(self.members.len());
        let (mut i, mut j) = (0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => {
                    members.push(self.members[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        members.extend_from_slice(&self.members[i..]);
        NodeSet::from_sorted(members)
    }

    /// Returns `true` if the two sets share at least one filter.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Returns `true` if the set is non-empty, weakly connected and convex
    /// in `graph`: the structural guard of every merge and move the
    /// partition search makes. `ranks` must be the graph's [`TopoRanks`].
    ///
    /// Both halves stay local. Connectivity is a search over the members
    /// alone, following forward channels in both directions; feedback
    /// channels are ignored, so a set held together only by a feedback
    /// channel is rejected. Convexity (no forward path between two members
    /// passes through a non-member) is a forward search from the members'
    /// non-member successors through non-members ranked below the highest
    /// member; reaching a member proves a violation. That is exact: the
    /// non-members of any member → non-member → member path all rank
    /// strictly inside the set's rank window. Scratch space is sized by the
    /// set and its rank window, never by the graph.
    pub fn is_connected_convex(&self, graph: &StreamGraph, ranks: &TopoRanks) -> bool {
        debug_assert_eq!(ranks.len(), graph.filter_count(), "ranks of another graph");
        !self.is_empty() && self.is_connected_within(graph) && self.is_convex_within(graph, ranks)
    }

    fn is_connected_within(&self, graph: &StreamGraph) -> bool {
        let members = self.as_slice();
        let mut seen = vec![false; members.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 0usize;
        while let Some(i) = stack.pop() {
            visited += 1;
            for v in graph.forward_neighbors(members[i]) {
                if let Ok(j) = members.binary_search(&v) {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        visited == members.len()
    }

    fn is_convex_within(&self, graph: &StreamGraph, ranks: &TopoRanks) -> bool {
        let members = self.as_slice();
        if members.len() <= 1 {
            return true;
        }
        let (lo, hi) = members.iter().fold((usize::MAX, 0), |(lo, hi), &id| {
            let r = ranks.rank(id);
            (lo.min(r), hi.max(r))
        });
        let successors = |u: FilterId| {
            graph
                .out_channels(u)
                .iter()
                .map(|&c| graph.channel(c))
                .filter(|ch| !ch.feedback)
                .map(|ch| ch.dst)
        };
        // Every non-member worth expanding ranks strictly between `lo` and
        // `hi` (above a member, below the highest one), so `rank - lo`
        // indexes the window.
        let mut seen = vec![false; hi - lo];
        let mut stack: Vec<FilterId> = Vec::new();
        let mut enter = |v: FilterId, stack: &mut Vec<FilterId>| {
            let r = ranks.rank(v);
            if r < hi && !seen[r - lo] {
                seen[r - lo] = true;
                stack.push(v);
            }
        };
        for &m in members {
            for v in successors(m) {
                if !self.contains(v) {
                    enter(v, &mut stack);
                }
            }
        }
        while let Some(x) = stack.pop() {
            for v in successors(x) {
                if self.contains(v) {
                    return false;
                }
                enter(v, &mut stack);
            }
        }
        true
    }

    /// Channels whose endpoints are both members.
    pub fn internal_channels(&self, graph: &StreamGraph) -> Vec<ChannelId> {
        graph
            .channels()
            .filter(|(_, ch)| self.contains(ch.src) && self.contains(ch.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Channels entering the set from outside.
    pub fn input_channels(&self, graph: &StreamGraph) -> Vec<ChannelId> {
        graph
            .channels()
            .filter(|(_, ch)| !self.contains(ch.src) && self.contains(ch.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Channels leaving the set to the outside.
    pub fn output_channels(&self, graph: &StreamGraph) -> Vec<ChannelId> {
        graph
            .channels()
            .filter(|(_, ch)| self.contains(ch.src) && !self.contains(ch.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Total work (abstract operations) of the members per steady-state
    /// iteration.
    pub fn iteration_work(&self, graph: &StreamGraph, reps: &RepetitionVector) -> f64 {
        self.iter()
            .map(|id| graph.filter(id).work * reps[id.index()] as f64)
            .sum()
    }

    /// Total IO bytes per steady-state iteration: boundary channel traffic
    /// plus the primary input/output carried by source and sink filters that
    /// are members of this set.
    pub fn iteration_io_bytes(&self, graph: &StreamGraph, reps: &RepetitionVector) -> u64 {
        let mut bytes = 0u64;
        for id in self.input_channels(graph) {
            bytes += graph.channel_iteration_bytes(id, reps);
        }
        for id in self.output_channels(graph) {
            bytes += graph.channel_iteration_bytes(id, reps);
        }
        for id in self.iter() {
            let f = graph.filter(id);
            match f.kind {
                FilterKind::Source => {
                    bytes += reps[id.index()] * u64::from(f.push) * u64::from(f.token_bytes)
                }
                FilterKind::Sink => {
                    bytes += reps[id.index()] * u64::from(f.pop) * u64::from(f.token_bytes)
                }
                _ => {}
            }
        }
        bytes
    }

    /// Sum of the members' firings per steady-state iteration.
    pub fn iteration_firings(&self, reps: &RepetitionVector) -> u64 {
        self.iter().map(|id| reps[id.index()]).sum()
    }

    /// Checks that the set is non-empty and that every member exists in
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyNodeSet`] or
    /// [`GraphError::UnknownFilter`].
    pub fn validate(&self, graph: &StreamGraph) -> Result<()> {
        if self.is_empty() {
            return Err(GraphError::EmptyNodeSet);
        }
        for id in self.iter() {
            if id.index() >= graph.filter_count() {
                return Err(GraphError::UnknownFilter(id));
            }
        }
        Ok(())
    }
}

impl Default for NodeSet {
    fn default() -> Self {
        NodeSet::new()
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        // Shared storage (the common case after a cheap clone) and the
        // precomputed hash both short-circuit the member comparison.
        Arc::ptr_eq(&self.members, &other.members)
            || (self.hash == other.hash && self.members == other.members)
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl FromIterator<FilterId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = FilterId>>(iter: T) -> Self {
        NodeSet::from_ids(iter)
    }
}

impl Extend<FilterId> for NodeSet {
    fn extend<T: IntoIterator<Item = FilterId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::oracle;
    use crate::filter::Filter;

    /// a -> b -> c -> d plus a -> e -> d (a diamond with a long arm).
    fn fixture() -> (StreamGraph, Vec<FilterId>) {
        let mut g = StreamGraph::new("fixture");
        let a = g.add_filter(Filter::new("a", 0, 2, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 2.0));
        let c = g.add_filter(Filter::new("c", 1, 1, 3.0));
        let d = g.add_filter(Filter::new("d", 2, 0, 4.0));
        let e = g.add_filter(Filter::new("e", 1, 1, 5.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, c, 1, 1).unwrap();
        g.add_channel(c, d, 1, 1).unwrap();
        g.add_channel(a, e, 1, 1).unwrap();
        g.add_channel(e, d, 1, 1).unwrap();
        (g, vec![a, b, c, d, e])
    }

    #[test]
    fn set_operations() {
        let s1 = NodeSet::from_ids([FilterId::from_index(0), FilterId::from_index(2)]);
        let s2 = NodeSet::from_ids([FilterId::from_index(2), FilterId::from_index(3)]);
        assert!(s1.intersects(&s2));
        let u = s1.union(&s2);
        assert_eq!(u.len(), 3);
        assert!(u.contains(FilterId::from_index(0)));
        assert!(u.contains(FilterId::from_index(3)));
        let mut s = NodeSet::singleton(FilterId::from_index(1));
        assert!(s.insert(FilterId::from_index(0)));
        assert!(!s.insert(FilterId::from_index(0)));
        assert_eq!(s.as_slice()[0], FilterId::from_index(0));
        let d = u.difference(&s2);
        assert_eq!(d, NodeSet::singleton(FilterId::from_index(0)));
        assert_eq!(s1.difference(&s1), NodeSet::new());
        assert_eq!(u.difference(&NodeSet::new()), u);
        // Hashes of derived sets match freshly built ones (cache-key contract).
        assert_eq!(d, NodeSet::from_ids([FilterId::from_index(0)]));
    }

    #[test]
    fn connectivity_and_convexity() {
        let (g, ids) = fixture();
        let ranks = TopoRanks::new(&g).unwrap();
        let (a, b, c, d, e) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let check = |set: &NodeSet, connected: bool, convex: bool| {
            assert_eq!(oracle::is_connected(set, &g), connected, "{set:?}");
            assert_eq!(oracle::is_convex(set, &g), convex, "{set:?}");
            assert_eq!(set.is_connected_within(&g), connected, "{set:?}");
            assert_eq!(set.is_convex_within(&g, &ranks), convex, "{set:?}");
            assert_eq!(
                set.is_connected_convex(&g, &ranks),
                connected && convex,
                "{set:?}"
            );
        };
        // {b, c} is connected and convex.
        check(&NodeSet::from_ids([b, c]), true, true);
        // {b, d}: b->c->d exists, but c is missing: not connected as an
        // undirected induced subgraph, and not convex.
        check(&NodeSet::from_ids([b, d]), false, false);
        // {a, d} plus the arm e: convex only if both arms are included.
        check(&NodeSet::from_ids([a, d]), false, false);
        check(&NodeSet::from_ids([a, b, c, d, e]), true, true);
        // {a, b, e}: the path a->b does not leave the set, and no path between
        // members goes through an outsider (c is only on a path from b to d,
        // and d is not a member), so this is convex.
        check(&NodeSet::from_ids([a, b, e]), true, true);
        // {b, e, d}: a path e->d stays inside, but b reaches d only through c
        // which is outside: not convex.
        check(&NodeSet::from_ids([b, e, d]), false, false);
        // The empty set is rejected; a singleton is always fine.
        assert!(!NodeSet::new().is_connected_convex(&g, &ranks));
        check(&NodeSet::singleton(c), true, true);
    }

    #[test]
    fn feedback_only_adjacency_is_rejected() {
        // a -> b -> c with the back edge c -> a: {a, c} touch only through
        // the feedback channel, so the union is not connected.
        let mut g = StreamGraph::new("loop");
        let a = g.add_filter(Filter::new("a", 1, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        let c = g.add_filter(Filter::new("c", 1, 1, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, c, 1, 1).unwrap();
        g.add_feedback_channel(c, a, 1, 1, 1).unwrap();
        let ranks = TopoRanks::new(&g).unwrap();
        let ac = NodeSet::from_ids([a, c]);
        assert!(!oracle::is_connected(&ac, &g));
        assert!(!ac.is_connected_convex(&g, &ranks));
        assert!(NodeSet::from_ids([a, b, c]).is_connected_convex(&g, &ranks));
    }

    #[test]
    fn bypass_through_the_rank_window_is_not_convex() {
        // m1 -> x -> m2 and m1 -> m2, with a second branch y off the path:
        // {m1, m2} is connected through its own channel, but x sits inside
        // the set's rank window on a path that leaves and re-enters it.
        // y ranks inside the window too but reaches no member.
        let mut g = StreamGraph::new("bypass");
        let src = g.add_filter(Filter::new("src", 0, 1, 1.0));
        let m1 = g.add_filter(Filter::new("m1", 1, 3, 1.0));
        let y = g.add_filter(Filter::new("y", 1, 0, 1.0));
        let x = g.add_filter(Filter::new("x", 1, 1, 1.0));
        let m2 = g.add_filter(Filter::new("m2", 2, 0, 1.0));
        g.add_channel(src, m1, 1, 1).unwrap();
        g.add_channel(m1, y, 1, 1).unwrap();
        g.add_channel(m1, x, 1, 1).unwrap();
        g.add_channel(x, m2, 1, 1).unwrap();
        g.add_channel(m1, m2, 1, 1).unwrap();
        let ranks = TopoRanks::new(&g).unwrap();
        assert!(ranks.rank(m1) < ranks.rank(x) && ranks.rank(x) < ranks.rank(m2));
        let pair = NodeSet::from_ids([m1, m2]);
        assert!(oracle::is_connected(&pair, &g) && !oracle::is_convex(&pair, &g));
        assert!(!pair.is_connected_convex(&g, &ranks));
        assert!(NodeSet::from_ids([m1, x, m2]).is_connected_convex(&g, &ranks));
        assert!(NodeSet::from_ids([m1, x, y, m2]).is_connected_convex(&g, &ranks));
    }

    /// SplitMix64: a tiny seeded generator for the equivalence sweep.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// A random weakly connected DAG whose filter ids are shuffled against
    /// its topological order, plus feedback channels from later to earlier
    /// filters. Every channel's rates follow a random repetition vector, so
    /// the balance equations hold.
    fn random_graph(rng: &mut Rng) -> StreamGraph {
        let n = 2 + rng.below(38);
        let mut g = StreamGraph::new("random");
        let ids: Vec<FilterId> = (0..n)
            .map(|i| g.add_filter(Filter::new(format!("f{i}"), 1, 1, 1.0)))
            .collect();
        let mut order = ids.clone();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let reps: Vec<u32> = (0..n).map(|_| 1 + rng.below(4) as u32).collect();
        let gcd = |mut a: u32, mut b: u32| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let rates = |from: usize, to: usize| {
            let k = gcd(reps[from], reps[to]);
            (reps[to] / k, reps[from] / k)
        };
        for to in 1..n {
            let mut from = rng.below(to);
            loop {
                let (push, pop) = rates(from, to);
                g.add_channel(order[from], order[to], push, pop).unwrap();
                if !rng.chance(30) {
                    break;
                }
                from = rng.below(to);
            }
        }
        for _ in 0..rng.below(4) {
            let (from, to) = (rng.below(n), rng.below(n));
            if from > to {
                let (push, pop) = rates(from, to);
                g.add_feedback_channel(order[from], order[to], push, pop, 8)
                    .unwrap();
            }
        }
        assert!(g.repetition_vector().is_ok(), "rates are balanced");
        g
    }

    /// Greedily merges random adjacent groups whose union the oracle accepts,
    /// the way coarsening does, starting from `groups`.
    fn coarsen(rng: &mut Rng, g: &StreamGraph, mut groups: Vec<NodeSet>) -> Vec<NodeSet> {
        for _ in 0..groups.len() * 2 {
            if groups.len() < 2 {
                break;
            }
            let i = rng.below(groups.len());
            let j = rng.below(groups.len());
            if i == j {
                continue;
            }
            let union = groups[i].union(&groups[j]);
            if oracle::is_connected(&union, g) && oracle::is_convex(&union, g) {
                groups[i] = union;
                groups.swap_remove(j);
            }
        }
        groups
    }

    #[test]
    fn local_predicate_matches_the_whole_graph_oracle() {
        let mut rng = Rng(0x5eed);
        let mut probes = [0usize; 3];
        let mut rejected = 0usize;
        for _ in 0..400 {
            let g = random_graph(&mut rng);
            let ranks = TopoRanks::new(&g).unwrap();
            let mut check = |set: &NodeSet, kind: usize| {
                let connected = oracle::is_connected(set, &g);
                let convex = oracle::is_convex(set, &g);
                if !set.is_empty() {
                    assert_eq!(set.is_connected_within(&g), connected, "{set:?}");
                }
                assert_eq!(set.is_convex_within(&g, &ranks), convex, "{set:?}");
                assert_eq!(
                    set.is_connected_convex(&g, &ranks),
                    connected && convex,
                    "{set:?}"
                );
                probes[kind] += 1;
                rejected += usize::from(!(connected && convex));
            };
            // Fine clusters, then coarse parts built from them.
            let clusters = coarsen(
                &mut rng,
                &g,
                g.filter_ids().map(NodeSet::singleton).collect(),
            );
            let parts = coarsen(&mut rng, &g, clusters.clone());
            // Unions of two parts: every pair, adjacent or not.
            for i in 0..parts.len() {
                for j in i + 1..parts.len() {
                    check(&parts[i].union(&parts[j]), 0);
                }
            }
            // Part-minus-cluster differences, as refinement moves build them.
            for part in &parts {
                for cluster in clusters.iter().filter(|c| part.intersects(c)) {
                    check(&part.difference(cluster), 1);
                }
            }
            // Random subsets at random densities.
            for _ in 0..8 {
                let density = 10 + rng.below(80);
                let set: NodeSet = g.filter_ids().filter(|_| rng.chance(density)).collect();
                check(&set, 2);
            }
        }
        assert!(probes.iter().all(|&p| p > 500), "{probes:?}");
        let total: usize = probes.iter().sum();
        assert!(
            rejected > total / 10 && rejected < total * 9 / 10,
            "{rejected}/{total}"
        );
    }

    #[test]
    fn boundary_channels_and_io() {
        let (g, ids) = fixture();
        let reps = g.repetition_vector().unwrap();
        let bc = NodeSet::from_ids([ids[1], ids[2]]);
        assert_eq!(bc.internal_channels(&g).len(), 1);
        assert_eq!(bc.input_channels(&g).len(), 1);
        assert_eq!(bc.output_channels(&g).len(), 1);
        // one token in + one token out, 4 bytes per token.
        assert_eq!(bc.iteration_io_bytes(&g, &reps), 8);
        assert_eq!(bc.iteration_work(&g, &reps), 2.0 + 3.0);
        // The whole graph's IO is the primary input + output.
        let all = NodeSet::all(&g);
        assert_eq!(
            all.iteration_io_bytes(&g, &reps),
            g.primary_input_bytes(&reps) + g.primary_output_bytes(&reps)
        );
    }

    #[test]
    fn clones_share_storage_and_mutation_keeps_hash_consistent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let hash_of = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let a = NodeSet::from_ids([FilterId::from_index(3), FilterId::from_index(1)]);
        let clone = a.clone();
        assert!(Arc::ptr_eq(&a.members, &clone.members));
        assert_eq!(a, clone);
        assert_eq!(hash_of(&a), hash_of(&clone));
        // Mutating the clone must not disturb the original (copy-on-write)
        // and must keep hash consistent with an equal set built from scratch.
        let mut grown = clone;
        assert!(grown.insert(FilterId::from_index(2)));
        assert_eq!(a.len(), 2);
        assert_eq!(grown.len(), 3);
        let rebuilt = NodeSet::from_ids((1..4).map(FilterId::from_index));
        assert_eq!(grown, rebuilt);
        assert_eq!(hash_of(&grown), hash_of(&rebuilt));
        assert_ne!(hash_of(&a), hash_of(&grown));
        // Empty sets built any way agree too.
        assert_eq!(hash_of(&NodeSet::new()), hash_of(&NodeSet::default()));
        assert_eq!(hash_of(&NodeSet::new()), hash_of(&NodeSet::from_ids([])));
    }

    #[test]
    fn validate_rejects_empty_and_foreign_sets() {
        let (g, _) = fixture();
        assert_eq!(NodeSet::new().validate(&g), Err(GraphError::EmptyNodeSet));
        let foreign = NodeSet::singleton(FilterId::from_index(99));
        assert!(matches!(
            foreign.validate(&g),
            Err(GraphError::UnknownFilter(_))
        ));
        assert!(NodeSet::all(&g).validate(&g).is_ok());
    }
}
