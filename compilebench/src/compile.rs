//! The compile workloads, `paper-map8` and `synth-scale`: each item is one
//! program (app, N, platform) compiled end to end through
//! `sgmap_core::compile` and run through `execute`, with every output
//! checked independently of the code that produced it.

use std::time::{Duration, Instant};

use sgmap_apps::synthetic::{self, Family};
use sgmap_apps::App;
use sgmap_core::{
    compile, execute, Algorithm, CompileResult, FlowConfig, MultilevelOptions,
    PartitionSearchOptions, RunReport,
};
use sgmap_gpusim::{Endpoint, ExecutionPlan, Platform, PlatformSpec};
use sgmap_graph::{GraphBuilder, GraphError, StreamGraph};
use sgmap_mapping::{
    evaluate_assignment, map_greedy, repair_mapping, Mapping, MappingMethod, RepairOptions,
    RepairStats, SolveStats,
};
use sgmap_partition::{Partitioning, Pdg};
use sgmap_pee::EstimateCache;
use sgmap_sweep::SweepSpec;

use crate::guard::{guarded, Failure};
use crate::measure::elapsed_ms;
use crate::stats::Digest;

/// Where an item's stream graph comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// One of the paper's applications at size `N`.
    Paper(App, u32),
    /// A seeded synthetic program with about `n` leaf filters.
    Synth(Family, u32, u64),
}

impl Source {
    pub fn build(&self, trace: sgmap_trace::TraceRef<'_>) -> Result<StreamGraph, GraphError> {
        match *self {
            Source::Paper(app, n) => app.build_traced(n, trace),
            Source::Synth(family, n, seed) => {
                GraphBuilder::new(format!("synth_{}_{n}", family.name()))
                    .build_traced(synthetic::spec(family, n, seed), trace)
            }
        }
    }
}

/// A repaired mapping, what the repair reported, and its wall time (ms).
pub type Repaired = (Mapping, RepairStats, f64);

/// One program of a compile workload.
pub struct Item {
    pub id: String,
    pub source: Source,
    /// The flow configuration, without an estimate cache (each op attaches
    /// a fresh one) and without a trace collector.
    pub config: FlowConfig,
    /// Repair the mapping after losing the GPU that hosts partition 0.
    pub repair: bool,
}

impl Item {
    /// Whether this item's op repairs `compiled`: repair needs a second GPU
    /// and a partition on the lost one.
    pub fn repairs(&self, compiled: &CompileResult) -> bool {
        self.repair && compiled.platform.gpu_count() > 1 && !compiled.pdg.is_empty()
    }
}

/// The `paper-map8` programs: one or two sizes of each of the paper's eight
/// apps, each mapping within about 150 ms on an 8-GPU platform. DES 12 and
/// FMRadio 4 stop at the ILP node budget on both platforms; the others solve
/// at the root node. Larger budget-stopped sizes (DES 20: 150 and 720 ms,
/// FMRadio 12: 520 and 320 ms, DCT 18: about 21 s on `cluster2x4`) leave
/// each of them only a handful of samples per run, and a statistic of a
/// handful of samples wanders by 10 to 15% between runs on a shared machine.
const PAPER_MAP8: &[(App, u32)] = &[
    (App::Des, 4),
    (App::Des, 12),
    (App::FmRadio, 4),
    (App::Fft, 512),
    (App::Dct, 14),
    (App::MatMul2, 9),
    (App::MatMul3, 7),
    (App::BitonicRec, 32),
    (App::Bitonic, 32),
];

/// The `synth-scale` programs: family and size in leaf filters. SynthPipe
/// partitions at 2k and 5k, SynthLoop at 2k (its 5k program is the known
/// plan-generation panic), and SynthFan fails partitioning at every size,
/// 10k included. SynthPipe 10k (about 7 s) and SynthLoop 10k (about 6.5 s,
/// the same panic as 5k) are left out: with SynthPipe 10k a pass took 12 to
/// 15 s, each item had 2 or 3 samples a run, and the runs' compile times
/// spread by 0.13 (IQR over median) even after scaling.
const SYNTH_SCALE: &[(&str, Family, u32)] = &[
    ("SynthPipe", Family::Pipeline, 2_000),
    ("SynthPipe", Family::Pipeline, 5_000),
    ("SynthFan", Family::SplitJoin, 2_000),
    ("SynthFan", Family::SplitJoin, 5_000),
    ("SynthFan", Family::SplitJoin, 10_000),
    ("SynthLoop", Family::Mixed, 2_000),
    ("SynthLoop", Family::Mixed, 5_000),
];

/// Fixed work: node budgets only, never a wall-clock limit.
pub fn mapping_config() -> FlowConfig {
    let mut config = FlowConfig::new().with_partition_search(PartitionSearchOptions::serial());
    config.mapping_options = SweepSpec::deterministic_mapping_options();
    config
}

/// The default repair budget (24 nodes, 5% gap) without its 1 s clock.
pub fn repair_options() -> RepairOptions {
    let mut options = RepairOptions::default();
    options.ilp.time_limit = Duration::from_secs(86_400);
    options
}

pub fn paper_map8_items() -> Vec<Item> {
    let platforms = [
        ("nvlink8", PlatformSpec::nvlink8_m2090()),
        ("cluster2x4", PlatformSpec::cluster2x4_m2090()),
    ];
    let mut items = Vec::new();
    for &(app, n) in PAPER_MAP8 {
        for (tag, platform) in &platforms {
            items.push(Item {
                id: format!("{}-{n}@{tag}", app.name()),
                source: Source::Paper(app, n),
                config: mapping_config().with_platform(platform.clone()),
                repair: true,
            });
        }
    }
    items
}

pub fn synth_scale_items(seed: u64) -> Vec<Item> {
    SYNTH_SCALE
        .iter()
        .map(|&(name, family, n)| Item {
            id: format!("{name}-{n}@paper4"),
            source: Source::Synth(family, n, seed),
            config: mapping_config()
                .with_platform(PlatformSpec::paper())
                .with_algorithm(Algorithm::Multilevel(MultilevelOptions::default())),
            repair: false,
        })
        .collect()
}

/// What one completed op produced, reduced to what the metrics and the
/// digest need.
pub struct Output {
    pub filters: usize,
    pub partitions: usize,
    /// An ILP mapping onto more than one GPU was attempted.
    pub ilp_mapped: bool,
    pub optimal: bool,
    pub ilp: SolveStats,
    pub predicted_tmax_us: f64,
    pub sim_us_per_iter: f64,
    pub transfer_share: f64,
    pub inter_gpu_bytes: u64,
    pub kernels: usize,
    pub transfers: usize,
    pub repair: Option<RepairOutput>,
    pub digest: u64,
}

pub struct RepairOutput {
    pub ms: f64,
    /// Repaired predicted Tmax over the pre-fault predicted Tmax.
    pub slowdown: f64,
    /// Greedy-patch Tmax over the polished Tmax (≥ 1).
    pub polish_gain: f64,
    pub stats: RepairStats,
}

/// One timed op: compile, execute and (optionally) repair one program.
pub struct Op {
    /// Wall time of `compile`, failed compiles included.
    pub compile_ms: f64,
    /// Wall time of the whole op (compile, execute, repair).
    pub op_ms: f64,
    pub outcome: Result<Output, Failure>,
}

/// Runs one op on a graph built during set-up.
pub fn run_op(item: &Item, graph: &StreamGraph) -> Op {
    let start = Instant::now();
    // A fresh per-item cache, as in the traced run, so both do the same work.
    let config = item
        .config
        .clone()
        .with_estimate_cache(EstimateCache::shared());
    let compiled = guarded(|| compile(graph, &config).map_err(|e| e.to_string()));
    let compile_ms = elapsed_ms(start);
    let ran = compiled.and_then(|compiled| {
        guarded(|| {
            let report = execute(&compiled, &config);
            let repair = if item.repairs(&compiled) {
                let lost = compiled.mapping.assignment[0];
                let t = Instant::now();
                let (mapping, stats) = repair_mapping(
                    &compiled.pdg,
                    &compiled.platform,
                    &compiled.mapping,
                    lost,
                    &repair_options(),
                    None,
                )
                .map_err(|e| e.to_string())?;
                Some((mapping, stats, elapsed_ms(t)))
            } else {
                None
            };
            Ok((compiled, report, repair))
        })
    });
    let op_ms = elapsed_ms(start);
    Op {
        compile_ms,
        op_ms,
        outcome: ran
            .and_then(|(compiled, report, repair)| checked(graph, &compiled, &report, repair)),
    }
}

/// Checks one completed op with [`check`] and summarizes it, under the same
/// panic guard as the op: a panic in a check fails the op with its text.
pub fn checked(
    graph: &StreamGraph,
    compiled: &CompileResult,
    report: &RunReport,
    repair: Option<Repaired>,
) -> Result<Output, Failure> {
    guarded(|| {
        Ok(check(
            graph,
            compiled,
            report.time_per_iteration_us,
            repair.as_ref(),
        )
        .map(|()| summarize(graph, compiled, report, repair)))
    })?
    .map_err(Failure::Violation)
}

/// The independent output checks. Each recomputes its answer from the
/// outputs with code the compile did not use for that answer.
pub fn check(
    graph: &StreamGraph,
    compiled: &CompileResult,
    sim_us_per_iter: f64,
    repair: Option<&Repaired>,
) -> Result<(), String> {
    check_cover(graph, &compiled.partitioning)?;
    let (pdg, platform, mapping) = (&compiled.pdg, &compiled.platform, &compiled.mapping);
    check_assignment(pdg, platform, &mapping.assignment)?;
    if mapping.method == MappingMethod::Ilp {
        let greedy = map_greedy(pdg, platform);
        let greedy_tmax = evaluate_assignment(pdg, platform, &greedy.assignment).tmax_us;
        let ilp_tmax = evaluate_assignment(pdg, platform, &mapping.assignment).tmax_us;
        if !at_most(ilp_tmax, greedy_tmax) {
            return Err(format!(
                "ILP mapping Tmax {ilp_tmax} exceeds the greedy mapping's {greedy_tmax}"
            ));
        }
    }
    if !(sim_us_per_iter.is_finite() && sim_us_per_iter > 0.0) {
        return Err(format!("simulated time per iteration is {sim_us_per_iter}"));
    }
    if let Some((repaired, stats, _)) = repair {
        check_assignment(pdg, platform, &repaired.assignment)?;
        if repaired.assignment.contains(&stats.lost_gpu) {
            return Err(format!(
                "repaired mapping still uses lost GPU {}",
                stats.lost_gpu
            ));
        }
        let tmax = evaluate_assignment(pdg, platform, &repaired.assignment).tmax_us;
        if !at_most(tmax, stats.patch_tmax_us) {
            return Err(format!(
                "repaired Tmax {tmax} exceeds the greedy patch's {}",
                stats.patch_tmax_us
            ));
        }
    }
    Ok(())
}

/// `value <= limit` up to rounding; `false` when either is NaN.
fn at_most(value: f64, limit: f64) -> bool {
    use std::cmp::Ordering::{Equal, Less};
    matches!(
        value.partial_cmp(&(limit * (1.0 + 1e-9))),
        Some(Less | Equal)
    )
}

/// Every filter of the graph sits in exactly one partition.
fn check_cover(graph: &StreamGraph, partitioning: &Partitioning) -> Result<(), String> {
    let mut seen = vec![0u32; graph.filter_count()];
    for partition in partitioning.iter() {
        for id in partition.nodes.iter() {
            let slot = seen.get_mut(id.index()).ok_or_else(|| {
                format!("partition names filter {} outside the graph", id.index())
            })?;
            *slot += 1;
        }
    }
    match seen.iter().position(|&count| count != 1) {
        Some(filter) => Err(format!("filter {filter} is in {} partitions", seen[filter])),
        None => Ok(()),
    }
}

/// One GPU of the platform per partition.
fn check_assignment(pdg: &Pdg, platform: &Platform, assignment: &[usize]) -> Result<(), String> {
    if assignment.len() != pdg.len() {
        return Err(format!(
            "{} assignments for {} partitions",
            assignment.len(),
            pdg.len()
        ));
    }
    match assignment.iter().find(|&&gpu| gpu >= platform.gpu_count()) {
        Some(gpu) => Err(format!(
            "partition mapped to GPU {gpu} of a {}-GPU platform",
            platform.gpu_count()
        )),
        None => Ok(()),
    }
}

/// Bytes a plan moves between two GPUs over all its fragments.
pub fn inter_gpu_bytes(plan: &ExecutionPlan) -> u64 {
    plan.transfers
        .iter()
        .filter(|t| matches!((t.from, t.to), (Endpoint::Gpu(_), Endpoint::Gpu(_))))
        .map(|t| t.bytes_per_fragment * u64::from(plan.n_fragments))
        .sum()
}

pub fn summarize(
    graph: &StreamGraph,
    compiled: &CompileResult,
    report: &RunReport,
    repair: Option<Repaired>,
) -> Output {
    let mapping = &compiled.mapping;
    let mut digest = Digest::default();
    for partition in compiled.partitioning.iter() {
        digest.u64(partition.nodes.len() as u64);
        for id in partition.nodes.iter() {
            digest.u64(id.index() as u64);
        }
    }
    for &gpu in &mapping.assignment {
        digest.u64(gpu as u64);
    }
    digest
        .f64(mapping.predicted_tmax_us)
        .u64(mapping.ilp_stats.nodes)
        .u64(mapping.ilp_stats.lp_iterations)
        .f64(report.time_per_iteration_us);
    let repair = repair.map(|(repaired, stats, ms)| {
        for &gpu in &repaired.assignment {
            digest.u64(gpu as u64);
        }
        digest
            .f64(stats.repaired_tmax_us)
            .u64(stats.ilp_stats.nodes)
            .u64(stats.ilp_stats.lp_iterations);
        RepairOutput {
            ms,
            slowdown: stats.repaired_tmax_us / stats.baseline_tmax_us,
            polish_gain: stats.patch_tmax_us / stats.repaired_tmax_us,
            stats,
        }
    });
    let stats = &report.stats;
    let busy = stats.kernel_total_us + stats.transfer_total_us;
    Output {
        filters: graph.filter_count(),
        partitions: compiled.partition_count(),
        ilp_mapped: mapping.method == MappingMethod::Ilp && compiled.platform.gpu_count() > 1,
        optimal: mapping.optimal,
        ilp: mapping.ilp_stats,
        predicted_tmax_us: mapping.predicted_tmax_us,
        sim_us_per_iter: report.time_per_iteration_us,
        transfer_share: if busy > 0.0 {
            stats.transfer_total_us / busy
        } else {
            0.0
        },
        inter_gpu_bytes: inter_gpu_bytes(&compiled.plan),
        kernels: compiled.kernels.len(),
        transfers: compiled.plan.transfers.len(),
        repair,
        digest: digest.value(),
    }
}
