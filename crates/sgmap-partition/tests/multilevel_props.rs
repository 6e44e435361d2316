//! Property tests for the multilevel partitioner: over random seeded
//! synthetic programs it must uphold exactly the invariants the flat
//! four-phase search guarantees (full disjoint cover, per-part forward
//! connectivity — so parts joined only by a feedback channel never merge —
//! and convexity), never end up worse than the all-singletons objective the
//! search starts from (coarsening, initial partitioning and refinement all
//! only accept improvements), and stay byte-deterministic across thread
//! counts.

use proptest::prelude::*;

use sgmap_apps::synthetic::{spec, Family};
use sgmap_gpusim::GpuSpec;
use sgmap_graph::{GraphBuilder, NodeSet, StreamGraph, TopoRanks};
use sgmap_partition::{
    Algorithm, MultilevelOptions, PartitionRequest, PartitionSearchOptions, Partitioning,
};
use sgmap_pee::Estimator;

/// Random synthetic programs: any family, 30–120 target leaves, any seed.
/// Small enough that a proptest case stays in milliseconds, large enough
/// that coarsening has real work to do.
fn graph_strategy() -> BoxedStrategy<StreamGraph> {
    (0u8..3, 30u32..120, any::<u64>())
        .prop_map(|(family, n, seed)| {
            let family = match family {
                0 => Family::Pipeline,
                1 => Family::SplitJoin,
                _ => Family::Mixed,
            };
            GraphBuilder::new(format!("prop_{}_{n}_{seed:x}", family.name()))
                .build(spec(family, n, seed))
                .expect("synthetic specs build")
        })
        .boxed()
}

fn multilevel_options() -> BoxedStrategy<MultilevelOptions> {
    (4usize..40, 1usize..6, 1usize..5)
        .prop_map(|(target, levels, attempts)| {
            MultilevelOptions::new()
                .with_coarsen_target(target)
                .with_max_levels(levels)
                .with_matching_attempts(attempts)
        })
        .boxed()
}

fn run_multilevel(
    graph: &StreamGraph,
    options: MultilevelOptions,
    threads: usize,
) -> (Partitioning, f64) {
    let est = Estimator::new(graph, GpuSpec::m2090()).expect("synthetic rates are consistent");
    let p = PartitionRequest::new(&est)
        .with_algorithm(Algorithm::Multilevel(options))
        .with_search(PartitionSearchOptions::new().with_threads(threads))
        .run()
        .expect("multilevel partitioning succeeds");
    let singleton_total: f64 = graph
        .filter_ids()
        .map(|id| {
            est.estimate(&NodeSet::singleton(id))
                .expect("singletons fit")
                .normalized_us
        })
        .sum();
    (p, singleton_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multilevel_upholds_the_flat_invariants(
        graph in graph_strategy(),
        options in multilevel_options(),
    ) {
        let (p, _) = run_multilevel(&graph, options, 1);
        p.validate_cover(&graph).expect("disjoint full cover");
        prop_assert!(!p.is_empty());
        prop_assert!(p.len() <= graph.filter_count());
        let ranks = TopoRanks::new(&graph).expect("acyclic forward channels");
        for part in p.iter() {
            // Forward-channel connectivity: a part held together only by a
            // feedback channel would fail this, exactly as in the flat
            // search.
            prop_assert!(part.nodes.is_connected_convex(&graph, &ranks));
        }
    }

    #[test]
    fn multilevel_never_worsens_the_singleton_objective(
        graph in graph_strategy(),
        options in multilevel_options(),
    ) {
        // Every accepted coarsening merge and refinement move improves (or
        // for coarsening at least preserves feasibility of) the estimator
        // objective, so the final total can never exceed the all-singletons
        // starting point.
        let (p, singleton_total) = run_multilevel(&graph, options, 1);
        prop_assert!(
            p.total_estimated_time_us() <= singleton_total + 1e-6,
            "{} > {}",
            p.total_estimated_time_us(),
            singleton_total
        );
    }

    #[test]
    fn multilevel_is_byte_deterministic_across_threads(
        graph in graph_strategy(),
        options in multilevel_options(),
    ) {
        let (serial, _) = run_multilevel(&graph, options.clone(), 1);
        let (parallel, _) = run_multilevel(&graph, options, 4);
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            prop_assert_eq!(&a.nodes, &b.nodes);
            prop_assert_eq!(
                a.estimate.normalized_us.to_bits(),
                b.estimate.normalized_us.to_bits()
            );
        }
    }
}
