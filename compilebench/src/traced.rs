//! The traced run: the layer functions `compile` chains together, called one
//! at a time, each wrapped in a benchmark-owned span that names its item.
//! The per-layer metrics come from this run only; end-to-end numbers come
//! from untraced runs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sgmap_codegen::build_execution_plan_traced;
use sgmap_core::{execute, partition_graph, CompileResult, RunReport};
use sgmap_graph::StreamGraph;
use sgmap_mapping::{map_with_traced, repair_mapping, Mapping, MappingMethod};
use sgmap_pee::{EstimateCache, Estimator};
use sgmap_sweep::{JsonValue, SweepReport};
use sgmap_trace::{ArgValue, Collector, Span};

use crate::compile::{checked, repair_options, Item, Output, Repaired};
use crate::guard::{guarded, Failure};
use crate::measure::elapsed_ms;
use crate::stats::geomean;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub graph_build_ms: f64,
    pub graph_filters: u64,
    pub graph_channels: u64,
    pub pee_estimator_ms: f64,
    pub pee_estimate_queries: u64,
    pub pee_estimate_misses: u64,
    pub partition_busy_ms: f64,
    pub partition_calls: u64,
    pub partition_failed: u64,
    pub partition_partitions: u64,
    pub map_busy_ms: f64,
    pub map_calls: u64,
    pub map_ilp_nodes: u64,
    pub map_lp_iterations: u64,
    pub map_lp_warm_starts: u64,
    pub map_lp_cold_solves: u64,
    pub map_refactorizations: u64,
    /// ILP mappings that stopped at their node budget.
    pub map_budget_stops: u64,
    /// ILP mappings attempted (the base of the uncertified share).
    pub map_ilp_mappings: u64,
    pub map_gap_max: f64,
    /// Simulated time per iteration over predicted Tmax, per mapping.
    pub map_model_errors: Vec<f64>,
    pub repair_busy_ms: f64,
    pub repair_calls: u64,
    pub repair_ilp_nodes: u64,
    pub repair_moved_partitions: u64,
    pub repair_polish_gains: Vec<f64>,
    pub repair_slowdowns: Vec<f64>,
    pub codegen_busy_ms: f64,
    pub codegen_kernels: u64,
    pub codegen_transfers: u64,
    pub sim_busy_ms: f64,
    pub sim_transfer_shares: Vec<f64>,
    pub sim_inter_gpu_bytes: u64,
    pub sweep_wall_ms: f64,
    pub sweep_points: u64,
    pub sweep_compile_groups: u64,
    pub sweep_compiles_saved: u64,
    pub sweep_cache_hit_rate: f64,
    pub sweep_failed_points: u64,
    pub trace_overhead_share: f64,
}

impl Layers {
    /// `(name, value, unit)` for every per-layer metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let queries = self.pee_estimate_queries;
        vec![
            ("graph.build_ms", self.graph_build_ms, "ms"),
            ("graph.filters", self.graph_filters as f64, "count"),
            ("graph.channels", self.graph_channels as f64, "count"),
            ("pee.estimator_ms", self.pee_estimator_ms, "ms"),
            ("pee.estimate_queries", queries as f64, "count"),
            (
                "pee.estimate_misses",
                self.pee_estimate_misses as f64,
                "count",
            ),
            (
                "pee.hit_rate",
                crate::stats::share(queries - self.pee_estimate_misses.min(queries), queries),
                "share",
            ),
            ("partition.busy_ms", self.partition_busy_ms, "ms"),
            ("partition.calls", self.partition_calls as f64, "count"),
            ("partition.failed", self.partition_failed as f64, "count"),
            (
                "partition.partitions",
                self.partition_partitions as f64,
                "count",
            ),
            ("map.busy_ms", self.map_busy_ms, "ms"),
            ("map.calls", self.map_calls as f64, "count"),
            ("map.ilp_nodes", self.map_ilp_nodes as f64, "count"),
            ("map.lp_iterations", self.map_lp_iterations as f64, "count"),
            (
                "map.lp_warm_starts",
                self.map_lp_warm_starts as f64,
                "count",
            ),
            (
                "map.lp_cold_solves",
                self.map_lp_cold_solves as f64,
                "count",
            ),
            (
                "map.refactorizations",
                self.map_refactorizations as f64,
                "count",
            ),
            (
                "map.ms_per_node",
                if self.map_ilp_nodes > 0 {
                    self.map_busy_ms / self.map_ilp_nodes as f64
                } else {
                    0.0
                },
                "ms",
            ),
            ("map.budget_stops", self.map_budget_stops as f64, "count"),
            ("map.gap.max", self.map_gap_max, "share"),
            (
                "map.uncertified_share",
                crate::stats::share(self.map_budget_stops, self.map_ilp_mappings),
                "share",
            ),
            (
                "map.tmax_model_error.geomean",
                geomean(&self.map_model_errors).unwrap_or(0.0),
                "ratio",
            ),
            ("repair.busy_ms", self.repair_busy_ms, "ms"),
            ("repair.calls", self.repair_calls as f64, "count"),
            ("repair.ilp_nodes", self.repair_ilp_nodes as f64, "count"),
            (
                "repair.moved_partitions",
                self.repair_moved_partitions as f64,
                "count",
            ),
            (
                "repair.polish_gain.geomean",
                geomean(&self.repair_polish_gains).unwrap_or(0.0),
                "ratio",
            ),
            (
                "repair.slowdown.geomean",
                geomean(&self.repair_slowdowns).unwrap_or(0.0),
                "ratio",
            ),
            ("codegen.busy_ms", self.codegen_busy_ms, "ms"),
            ("codegen.kernels", self.codegen_kernels as f64, "count"),
            ("codegen.transfers", self.codegen_transfers as f64, "count"),
            ("sim.busy_ms", self.sim_busy_ms, "ms"),
            (
                "sim.transfer_share",
                crate::stats::mean(&self.sim_transfer_shares),
                "share",
            ),
            (
                "sim.inter_gpu_bytes",
                self.sim_inter_gpu_bytes as f64,
                "bytes",
            ),
            ("sweep.wall_ms", self.sweep_wall_ms, "ms"),
            ("sweep.points", self.sweep_points as f64, "count"),
            (
                "sweep.compile_groups",
                self.sweep_compile_groups as f64,
                "count",
            ),
            (
                "sweep.compiles_saved",
                self.sweep_compiles_saved as f64,
                "count",
            ),
            ("sweep.cache_hit_rate", self.sweep_cache_hit_rate, "share"),
            (
                "sweep.failed_points",
                self.sweep_failed_points as f64,
                "count",
            ),
            ("trace.overhead_share", self.trace_overhead_share, "share"),
        ]
    }

    /// Adds the solver counters of one mapping, completed op or not.
    fn add_mapping(&mut self, mapping: &Mapping, gpus: usize) {
        let ilp = &mapping.ilp_stats;
        self.map_ilp_nodes += ilp.nodes;
        self.map_lp_iterations += ilp.lp_iterations;
        self.map_lp_warm_starts += ilp.lp_warm_starts;
        self.map_lp_cold_solves += ilp.lp_cold_solves;
        self.map_refactorizations += ilp.refactorizations;
        if mapping.method == MappingMethod::Ilp && gpus > 1 {
            self.map_ilp_mappings += 1;
            if !mapping.optimal {
                self.map_budget_stops += 1;
            }
            if ilp.optimality_gap.is_finite() {
                self.map_gap_max = self.map_gap_max.max(ilp.optimality_gap);
            }
        }
    }

    /// Adds what one completed traced op produced.
    fn add_output(&mut self, out: &Output) {
        self.partition_partitions += out.partitions as u64;
        if out.predicted_tmax_us > 0.0 {
            self.map_model_errors
                .push(out.sim_us_per_iter / out.predicted_tmax_us);
        }
        self.codegen_kernels += out.kernels as u64;
        self.codegen_transfers += out.transfers as u64;
        self.sim_transfer_shares.push(out.transfer_share);
        self.sim_inter_gpu_bytes += out.inter_gpu_bytes;
        if let Some(repair) = &out.repair {
            self.repair_ilp_nodes += repair.stats.ilp_stats.nodes;
            self.repair_moved_partitions += repair.stats.moved_partitions as u64;
            self.repair_polish_gains.push(repair.polish_gain);
            self.repair_slowdowns.push(repair.slowdown);
        }
    }
}

/// A benchmark-owned span around one layer call, tagged with its item.
fn layer_span<'a>(trace: &'a Arc<Collector>, name: &'static str, item: &str) -> Span<'a> {
    trace.span_with(name, vec![("item", ArgValue::from(item))])
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let value = f();
    *acc += t.elapsed().as_secs_f64() * 1000.0;
    value
}

/// One traced op of a compile item. Returns the item's output (or failure)
/// and the wall time of its layer calls, graph build excluded.
fn traced_op(
    item: &Item,
    trace: &Arc<Collector>,
    layers: &mut Layers,
) -> (Result<Output, Failure>, f64) {
    let id = item.id.as_str();
    let _item_span = trace.span_with("bench.item", vec![("item", ArgValue::from(id))]);
    let graph = {
        let _span = layer_span(trace, "bench.graph", id);
        timed(&mut layers.graph_build_ms, || {
            guarded(|| item.source.build(Some(trace)).map_err(|e| e.to_string()))
        })
    };
    let graph = match graph {
        Ok(graph) => graph,
        Err(failure) => return (Err(failure), 0.0),
    };
    layers.graph_filters += graph.filter_count() as u64;
    layers.graph_channels += graph.channel_count() as u64;

    let start = Instant::now();
    let cache = EstimateCache::shared();
    let ran = run_layers(item, &graph, &cache, trace, layers);
    let wall_ms = elapsed_ms(start);
    // Failed ops asked the estimator too; count their queries as well.
    let estimates = cache.stats();
    layers.pee_estimate_queries += estimates.queries();
    layers.pee_estimate_misses += estimates.misses;
    let outcome =
        ran.and_then(|(compiled, report, repair)| checked(&graph, &compiled, &report, repair));
    if let Ok(out) = &outcome {
        layers.add_output(out);
    }
    (outcome, wall_ms)
}

/// The layer calls of one op, each in its own benchmark span, in the order
/// `compile`, `execute` and the repair step make them.
fn run_layers(
    item: &Item,
    graph: &StreamGraph,
    cache: &Arc<EstimateCache>,
    trace: &Arc<Collector>,
    layers: &mut Layers,
) -> Result<(CompileResult, RunReport, Option<Repaired>), Failure> {
    let id = item.id.as_str();
    let config = item
        .config
        .clone()
        .with_estimate_cache(cache.clone())
        .with_trace(trace.clone());
    let platform = config.platform();
    let estimator = {
        let _span = layer_span(trace, "bench.estimator", id);
        timed(&mut layers.pee_estimator_ms, || {
            guarded(|| {
                Estimator::new(graph, config.estimation_gpu().clone())
                    .map(|e| {
                        e.with_enhancement(config.enhanced)
                            .with_trace(config.trace.clone())
                            .with_shared_cache(cache.clone())
                    })
                    .map_err(|e| e.to_string())
            })
        })
    }?;
    let stage = {
        let _span = layer_span(trace, "bench.partition", id);
        layers.partition_calls += 1;
        timed(&mut layers.partition_busy_ms, || {
            guarded(|| partition_graph(graph, &config, &estimator).map_err(|e| e.to_string()))
        })
    }
    .inspect_err(|_| layers.partition_failed += 1)?;
    let mapping = {
        let _span = layer_span(trace, "bench.map", id);
        layers.map_calls += 1;
        timed(&mut layers.map_busy_ms, || {
            guarded(|| {
                map_with_traced(
                    &stage.pdg,
                    &platform,
                    config.mapper,
                    &config.mapping_options,
                    Some(trace),
                )
                .map_err(|e| e.to_string())
            })
        })
    }?;
    layers.add_mapping(&mapping, platform.gpu_count());
    let (plan, kernels) = {
        let _span = layer_span(trace, "bench.codegen", id);
        timed(&mut layers.codegen_busy_ms, || {
            guarded(|| {
                Ok(build_execution_plan_traced(
                    &estimator,
                    &stage.partitioning,
                    &stage.pdg,
                    &mapping,
                    &platform,
                    &config.plan,
                    Some(trace),
                ))
            })
        })
    }?;
    let compiled = CompileResult {
        platform,
        partitioning: stage.partitioning,
        pdg: stage.pdg,
        mapping,
        plan,
        kernels,
    };
    let report = {
        let _span = layer_span(trace, "bench.sim", id);
        timed(&mut layers.sim_busy_ms, || {
            guarded(|| Ok(execute(&compiled, &config)))
        })
    }?;
    let repair = if item.repairs(&compiled) {
        let lost = compiled.mapping.assignment[0];
        let _span = layer_span(trace, "bench.repair", id);
        layers.repair_calls += 1;
        let t = Instant::now();
        let repaired = guarded(|| {
            repair_mapping(
                &compiled.pdg,
                &compiled.platform,
                &compiled.mapping,
                lost,
                &repair_options(),
                Some(trace),
            )
            .map_err(|e| e.to_string())
        });
        let repair_ms = elapsed_ms(t);
        layers.repair_busy_ms += repair_ms;
        let (mapping, stats) = repaired?;
        Some((mapping, stats, repair_ms))
    } else {
        None
    };
    Ok((compiled, report, repair))
}

/// Runs every item once, traced, in list order. Returns the layer metrics,
/// each item's outcome and the summed wall time of the layer calls.
pub fn traced_compile_pass(
    items: &[Item],
    trace: &Arc<Collector>,
) -> (Layers, Vec<Result<Output, Failure>>, f64) {
    let mut layers = Layers::default();
    let mut outcomes = Vec::with_capacity(items.len());
    let mut wall_ms = 0.0;
    for item in items {
        let (outcome, ms) = traced_op(item, trace, &mut layers);
        outcomes.push(outcome);
        wall_ms += ms;
    }
    (layers, outcomes, wall_ms)
}

/// Layer metrics of a traced sweep. The sweep is one public call, so the
/// layers inside it are read from the library's own spans and counters.
pub fn sweep_layers(report: &SweepReport, trace: &Collector, wall_ms: f64) -> Layers {
    let totals = trace.span_totals();
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.total_us / 1000.0);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let ok: Vec<_> = report.records.iter().filter(|r| r.is_ok()).collect();
    let queries = report.cache.hits + report.cache.misses;
    Layers {
        graph_build_ms: busy("graph.build"),
        graph_filters: trace.counter("graph.filters"),
        graph_channels: trace.counter("graph.channels"),
        pee_estimate_queries: queries,
        pee_estimate_misses: report.cache.misses,
        partition_busy_ms: busy("partition"),
        partition_calls: count("partition"),
        partition_partitions: ok.iter().map(|r| r.partitions as u64).sum(),
        map_busy_ms: busy("map"),
        map_calls: count("map"),
        map_ilp_nodes: trace.counter("ilp.nodes"),
        map_lp_iterations: trace.counter("ilp.lp_iterations"),
        map_lp_warm_starts: trace.counter("ilp.lp_warm_starts"),
        map_lp_cold_solves: trace.counter("ilp.lp_cold_solves"),
        map_refactorizations: trace.counter("ilp.refactorizations"),
        map_budget_stops: trace.counter("ilp.budget_exhausted"),
        map_ilp_mappings: count("ilp.solve"),
        map_model_errors: ok
            .iter()
            .filter(|r| r.predicted_tmax_us > 0.0)
            .map(|r| r.time_per_iteration_us / r.predicted_tmax_us)
            .collect(),
        codegen_busy_ms: busy("codegen"),
        codegen_kernels: trace.counter("codegen.kernels"),
        codegen_transfers: trace.counter("codegen.transfers"),
        sim_busy_ms: busy("execute"),
        sweep_wall_ms: wall_ms,
        sweep_points: report.records.len() as u64,
        sweep_compile_groups: report.dedup.compile_groups,
        sweep_compiles_saved: report.dedup.compiles_saved(),
        sweep_cache_hit_rate: crate::stats::share(report.cache.hits, queries),
        sweep_failed_points: (report.records.len() - ok.len()) as u64,
        ..Layers::default()
    }
}

/// Per-name span totals and self times (milliseconds) from a Chrome trace,
/// counting only spans whose name passes `keep`. A span's self time is its
/// duration minus the part covered by its kept child spans on the same lane.
pub fn self_times(
    chrome_json: &str,
    keep: impl Fn(&str) -> bool,
) -> Result<BTreeMap<String, (u64, f64, f64)>, String> {
    let doc = JsonValue::parse(chrome_json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace has no traceEvents array")?;
    let mut lanes: BTreeMap<u64, Vec<(String, f64, f64)>> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let name = event.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if !keep(name) {
            continue;
        }
        let num = |key: &str| event.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        lanes
            .entry(num("tid") as u64)
            .or_default()
            .push((name.to_string(), num("ts"), num("dur")));
    }
    let mut totals: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for mut spans in lanes.into_values() {
        // Parents start no later than their children and last longer.
        spans.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.2.total_cmp(&a.2)));
        let mut child_us = vec![0.0f64; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let start = spans[i].1;
            while let Some(&top) = open.last() {
                if spans[top].1 + spans[top].2 <= start {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                child_us[parent] += spans[i].2;
            }
            open.push(i);
        }
        for (i, (name, _, dur)) in spans.iter().enumerate() {
            let entry = totals.entry(name.clone()).or_default();
            entry.0 += 1;
            entry.1 += dur / 1000.0;
            entry.2 += (dur - child_us[i]).max(0.0) / 1000.0;
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_same_lane_only() {
        let trace = r#"{"traceEvents":[
            {"name":"bench.item","ph":"X","pid":1,"tid":1,"ts":0,"dur":100},
            {"name":"bench.map","ph":"X","pid":1,"tid":1,"ts":10,"dur":50},
            {"name":"ilp.solve","ph":"X","pid":1,"tid":1,"ts":20,"dur":30},
            {"name":"bench.sim","ph":"X","pid":1,"tid":1,"ts":70,"dur":20},
            {"name":"bench.map","ph":"X","pid":1,"tid":2,"ts":10,"dur":40},
            {"name":"x","ph":"i","s":"t","pid":1,"tid":1,"ts":5}
        ]}"#;
        let all = self_times(trace, |_| true).unwrap();
        assert_eq!(all["bench.item"], (1, 0.1, 0.03));
        let map = all["bench.map"];
        assert_eq!((map.0, map.1), (2, 0.09));
        assert!((map.2 - 0.06).abs() < 1e-12, "{map:?}");
        // Dropping library spans hands their time back to the layer span.
        let layers = self_times(trace, |n| n.starts_with("bench.")).unwrap();
        assert!((layers["bench.map"].2 - 0.09).abs() < 1e-12);
        assert!(!layers.contains_key("ilp.solve"));
    }
}
