//! Acceptance test for hierarchical platforms: on an NVLink-island box the
//! communication-aware mappers keep a heavy-traffic cut inside one island
//! (where it rides 20 GB/s NVLink hops), while the hardware-agnostic
//! round-robin baseline splits it across the 6 GB/s PCIe fabric between
//! islands and pays the bottleneck for it.

use sgmap_gpusim::PlatformSpec;
use sgmap_mapping::{map_greedy, map_ilp, map_round_robin, MappingOptions};
use sgmap_partition::{Pdg, PdgEdge};

/// `nvlink8_m2090` is two islands of four GPUs each, numbered island-major.
fn island_of(gpu: usize) -> usize {
    gpu / 4
}

/// An 8-partition chain of equal 400 us workloads whose middle edge carries
/// 6 MB per iteration. Balanced onto 8 GPUs the compute floor is 400 us; the
/// heavy cut costs 300 us on an NVLink hop but 1000 us on a PCIe hop, so the
/// optimum keeps partitions 3 and 4 on distinct GPUs of the same island.
fn chain_with_heavy_cut() -> Pdg {
    let n = 8;
    let mut edges: Vec<PdgEdge> = (0..n - 1)
        .map(|i| PdgEdge {
            from: i,
            to: i + 1,
            bytes_per_iteration: 64,
        })
        .collect();
    edges[3].bytes_per_iteration = 6_000_000;
    let mut input = vec![0u64; n];
    let mut output = vec![0u64; n];
    input[0] = 1024;
    output[n - 1] = 1024;
    Pdg {
        times_us: vec![400.0; n],
        edges,
        primary_input_bytes: input,
        primary_output_bytes: output,
    }
}

#[test]
fn communication_aware_mappers_keep_the_heavy_cut_intra_island() {
    let platform = PlatformSpec::nvlink8_m2090().build().unwrap();
    let pdg = chain_with_heavy_cut();

    // Round-robin deals the chain across all 8 GPUs in topological order,
    // which lands the heavy cut on the island boundary.
    let rr = map_round_robin(&pdg, &platform).unwrap();
    assert_ne!(
        island_of(rr.assignment[3]),
        island_of(rr.assignment[4]),
        "round-robin assignment {:?}",
        rr.assignment
    );
    // 6 MB over a 6 GB/s PCIe hop is 1000 us — the fabric is the bottleneck.
    assert!(rr.predicted_tmax_us >= 1000.0, "{}", rr.predicted_tmax_us);

    let greedy = map_greedy(&pdg, &platform);
    assert_eq!(
        island_of(greedy.assignment[3]),
        island_of(greedy.assignment[4]),
        "greedy assignment {:?}",
        greedy.assignment
    );
    assert!(greedy.predicted_tmax_us < rr.predicted_tmax_us);

    let ilp = map_ilp(&pdg, &platform, &MappingOptions::default()).unwrap();
    assert_eq!(
        island_of(ilp.assignment[3]),
        island_of(ilp.assignment[4]),
        "ilp assignment {:?}",
        ilp.assignment
    );
    assert!(ilp.predicted_tmax_us <= greedy.predicted_tmax_us + 1e-6);
}
