//! `compilebench`: the fixed-work end-to-end compile benchmark.
//!
//! ```text
//! compilebench --workload paper-map8|synth-scale|dse-sweep --seed N
//!              --seconds S --trace 0|1 [--synth-seed N] [--out-dir DIR]
//! ```
//!
//! Untraced runs (`--trace 0`) time whole compiles and print the end-to-end
//! metrics; traced runs (`--trace 1`) call the layers one at a time under
//! benchmark-owned spans and print the per-layer metrics. `--seed` only
//! shuffles the order in which each pass visits the items, so every seed
//! does the same work; `--synth-seed` picks the synthetic programs of
//! `synth-scale` (default `sgmap_apps::synthetic::DEFAULT_SEED`). The last
//! line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. See
//! `README.md` next to this package for what each workload and metric is.

mod compile;
mod dse;
mod guard;
mod measure;
mod reference;
mod stats;
mod traced;

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sgmap_graph::StreamGraph;
use sgmap_sweep::{check_trace, JsonValue, SweepReport};
use sgmap_trace::Collector;

use crate::compile::{Item, Op, Output};
use crate::guard::Failure;
use crate::measure::measure;
use crate::reference::Kind;
use crate::stats::{geomean, median, share, Digest};
use crate::traced::Layers;

const USAGE: &str = "usage: compilebench --workload paper-map8|synth-scale|dse-sweep --seed N --seconds S --trace 0|1 [--synth-seed N] [--out-dir DIR]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperMap8,
    SynthScale,
    DseSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-map8" => Some(Workload::PaperMap8),
            "synth-scale" => Some(Workload::SynthScale),
            "dse-sweep" => Some(Workload::DseSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperMap8 => "paper-map8",
            Workload::SynthScale => "synth-scale",
            Workload::DseSweep => "dse-sweep",
        }
    }

    /// The reference work this workload's wall times are scaled by: the
    /// one whose speed follows the workload's own (see `reference.rs`).
    fn reference(self) -> Kind {
        match self {
            Workload::PaperMap8 => Kind::InCache,
            Workload::SynthScale | Workload::DseSweep => Kind::InMemory,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    synth_seed: u64,
    out_dir: PathBuf,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut synth_seed = sgmap_apps::synthetic::DEFAULT_SEED;
    let mut out_dir = PathBuf::from("compilebench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag}: bad value '{value}'\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--synth-seed" => synth_seed = parse_u64(&value).ok_or_else(bad)?,
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        synth_seed,
        out_dir,
    })
}

/// What a run prints as its last line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    JsonValue::object(vec![
                        ("value", JsonValue::Float(value)),
                        ("unit", JsonValue::str(unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Uint(self.attempted)),
            ("failed", JsonValue::Uint(self.failed)),
            ("metrics", JsonValue::object(metrics)),
        ])
        .render()
    }
}

fn main() -> ExitCode {
    guard::install_panic_hook();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match panic::catch_unwind(AssertUnwindSafe(|| run(&args))) {
        Ok(Ok(result)) => {
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Ok(Err(message)) => {
            eprintln!("compilebench: {message}");
            ExitCode::FAILURE
        }
        Err(_) => {
            let message = guard::last_panic().unwrap_or_else(|| "panic".to_string());
            eprintln!("compilebench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    eprintln!(
        "compilebench {} seed={} seconds={} trace={} synth-seed={:#x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.synth_seed
    );
    match args.workload {
        Workload::PaperMap8 => run_compile(args, compile::paper_map8_items()),
        Workload::SynthScale => run_compile(args, compile::synth_scale_items(args.synth_seed)),
        Workload::DseSweep => run_dse(args),
    }
}

/// How long the timed passes may take: none beyond the first pass in a traced
/// run, whose untraced pass is only the overhead reference.
fn budget(args: &Args) -> Duration {
    if args.trace {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(args.seconds)
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run_compile(args: &Args, items: Vec<Item>) -> Result<RunResult, String> {
    let build_graphs = || {
        items
            .iter()
            .map(|item| guard::guarded(|| item.source.build(None).map_err(|e| e.to_string())))
            .collect::<Vec<Result<StreamGraph, Failure>>>()
    };
    let graphs = build_graphs();
    let measured = measure(
        items.len(),
        args.seed,
        budget(args),
        args.workload.reference(),
        || {
            std::hint::black_box(build_graphs());
        },
        |i| {
            let op = match &graphs[i] {
                Ok(graph) => compile::run_op(&items[i], graph),
                Err(failure) => Op {
                    compile_ms: 0.0,
                    op_ms: 0.0,
                    outcome: Err(failure.clone()),
                },
            };
            (op.op_ms, op)
        },
    );
    let setup_s = median(&measured.setup_s).expect("every run times set-up");
    let scale = measured.speed_scale();
    let reference = measured.reference_ms;
    let (ops, passes) = (measured.results, measured.passes);

    // Each program counts once, so `attempted` and `failed` do not depend
    // on how many passes fit in the run; every repeat of an item must
    // reproduce its first op exactly.
    let mut tally = Tally::default();
    for item_ops in &ops {
        tally.add(&item_ops[0].outcome);
    }
    let mut record = String::new();
    for (item, item_ops) in items.iter().zip(&ops) {
        let first = fingerprint(&item_ops[0].outcome);
        for (k, op) in item_ops.iter().enumerate().skip(1) {
            if fingerprint(&op.outcome) != first {
                tally
                    .violations
                    .push(format!("{}: repeat {k} differs from the first op", item.id));
            }
        }
        let _ = writeln!(record, "{} {first}", item.id);
    }
    print_item_table(&items, &ops, passes);
    tally
        .violations
        .extend(check_against_earlier_runs(args, &record)?);

    if args.trace {
        // The traced pass calls each item once, so the reference is each
        // item's first untraced op, not the median of its warm repeats.
        let untraced_ms: f64 = ops.iter().map(|item_ops| item_ops[0].op_ms).sum();
        let collector = Arc::new(Collector::new());
        let (mut layers, outcomes, traced_ms) = traced::traced_compile_pass(&items, &collector);
        for ((item, outcome), item_ops) in items.iter().zip(&outcomes).zip(&ops) {
            if fingerprint(outcome) != fingerprint(&item_ops[0].outcome) {
                tally.violations.push(format!(
                    "{}: traced op differs from the untraced op",
                    item.id
                ));
            }
        }
        layers.trace_overhead_share = (traced_ms - untraced_ms) / untraced_ms.max(1e-9);
        return finish_traced(args, layers, &collector, tally);
    }

    let mut compile_ms = Vec::new();
    let mut sim_us = Vec::new();
    let (mut total_ms, mut completed, mut filters) = (0.0, 0u64, 0u64);
    for item_ops in &ops {
        let ms = item_compile_ms(item_ops);
        total_ms += ms;
        if let Ok(out) = &item_ops[0].outcome {
            completed += 1;
            filters += out.filters as u64;
            compile_ms.push(ms);
            sim_us.push(out.sim_us_per_iter);
        }
    }
    let total_s = total_ms / 1000.0;
    let compile_geomean = geomean(&compile_ms).unwrap_or(0.0);
    print_raw(
        &reference,
        scale,
        &[
            ("setup_s", setup_s),
            ("compile_ms.geomean", compile_geomean),
            ("compiles_per_s", completed as f64 / total_s.max(1e-12)),
        ],
    );
    let metrics = vec![
        ("setup_s", setup_s * scale, "s"),
        ("compile_ms.geomean", compile_geomean * scale, "ms"),
        (
            "compiles_per_s",
            completed as f64 / (total_s * scale).max(1e-12),
            "1/s",
        ),
        (
            "filters_per_s",
            filters as f64 / (total_s * scale).max(1e-12),
            "1/s",
        ),
        (
            "sim_us_per_iter.geomean",
            geomean(&sim_us).unwrap_or(0.0),
            "sim-us",
        ),
        ("ok_share", share(completed, items.len() as u64), "share"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    Ok(tally.finish(metrics))
}

/// Prints a run's wall-clock figures as measured, before scaling, and the
/// reference work they are scaled by.
fn print_raw(reference_ms: &[f64], scale: f64, raw: &[(&str, f64)]) {
    eprintln!(
        "reference work: {} runs, median {:.4} ms; scale {scale:.4}",
        reference_ms.len(),
        median(reference_ms).unwrap_or(0.0),
    );
    for (name, value) in raw {
        eprintln!("  raw {name:<24} {value:>16.6}");
    }
}

/// An item's compile time: the median of its compiles in the run.
fn item_compile_ms(item_ops: &[Op]) -> f64 {
    median(&item_ops.iter().map(|op| op.compile_ms).collect::<Vec<_>>())
        .expect("every item ran at least once")
}

/// What must repeat exactly between ops of one item: its outcome, node and
/// LP-iteration counts and output digest.
fn fingerprint(outcome: &Result<Output, Failure>) -> String {
    match outcome {
        Ok(out) => {
            let (repair_nodes, repair_lp) = out.repair.as_ref().map_or((0, 0), |r| {
                (r.stats.ilp_stats.nodes, r.stats.ilp_stats.lp_iterations)
            });
            format!(
                "ok nodes={} lp_iterations={} repair_nodes={repair_nodes} repair_lp_iterations={repair_lp} digest={:016x}",
                out.ilp.nodes, out.ilp.lp_iterations, out.digest
            )
        }
        Err(failure) => format!("failed {failure}"),
    }
}

fn print_item_table(items: &[Item], ops: &[Vec<Op>], passes: u64) {
    eprintln!(
        "{passes} pass(es); per item: samples, median compile ms, median repair ms (both unscaled), outcome"
    );
    for (item, item_ops) in items.iter().zip(ops) {
        let compile = item_compile_ms(item_ops);
        let repair: Vec<f64> = item_ops
            .iter()
            .filter_map(|op| op.outcome.as_ref().ok()?.repair.as_ref().map(|r| r.ms))
            .collect();
        let outcome = match &item_ops[0].outcome {
            Ok(out) => format!(
                "{} filters, {} partitions, {} nodes{}, {:.3} sim-us/iter",
                out.filters,
                out.partitions,
                out.ilp.nodes,
                if out.ilp_mapped && !out.optimal {
                    format!(" (budget stop, gap {:.4})", out.ilp.optimality_gap)
                } else {
                    String::new()
                },
                out.sim_us_per_iter
            ),
            Err(failure) => format!("FAILED: {failure}"),
        };
        eprintln!(
            "  {:<24} {:>4} {:>10.3} {:>9.3}  {outcome}",
            item.id,
            item_ops.len(),
            compile,
            median(&repair).unwrap_or(0.0),
        );
    }
}

/// Compares this run's per-item counts and digests with the record an
/// earlier run of the same build and inputs left, or leaves the record.
/// A difference makes the run invalid.
fn check_against_earlier_runs(args: &Args, record: &str) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    let mut build = Digest::default();
    build.bytes(&bytes);
    let path = args.out_dir.join(format!(
        "record-{}-{:x}-{:016x}.txt",
        args.workload.name(),
        args.synth_seed,
        build.value()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == record => Ok(Vec::new()),
        Ok(earlier) => {
            let differing = earlier
                .lines()
                .zip(record.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("differs from an earlier run: was '{a}', now '{b}'"))
                .collect::<Vec<_>>();
            Ok(if differing.is_empty() {
                vec!["item list differs from an earlier run".to_string()]
            } else {
                differing
            })
        }
        Err(_) => {
            write_atomically(&path, record)?;
            Ok(Vec::new())
        }
    }
}

fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Ops attempted and failed, and the reasons the run is invalid.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn add<T>(&mut self, outcome: &Result<T, Failure>) {
        self.attempted += 1;
        if let Err(failure) = outcome {
            self.failed += 1;
            if let Failure::Violation(_) = failure {
                self.violations.push(failure.to_string());
            }
        }
    }

    /// Counts each point of a sweep as an op; a sweep that failed as a whole
    /// fails all of them.
    fn add_sweep(&mut self, outcome: &Result<SweepReport, Failure>, points: usize) {
        self.attempted += points as u64;
        self.failed += match outcome {
            Ok(report) => report.records.iter().filter(|r| !r.is_ok()).count() as u64,
            Err(failure) => {
                if let Failure::Violation(_) = failure {
                    self.violations.push(failure.to_string());
                }
                points as u64
            }
        };
    }

    fn finish(self, metrics: Vec<(&'static str, f64, &'static str)>) -> RunResult {
        for v in &self.violations {
            eprintln!("INVALID: {v}");
        }
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<28} {value:>16.6} {unit}");
        }
        RunResult {
            correct: self.violations.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Exports the traced run, checks the export with the validator behind
/// `sweep --check-trace`, prints per-layer self times and returns the
/// per-layer metrics.
fn finish_traced(
    args: &Args,
    layers: Layers,
    collector: &Collector,
    mut tally: Tally,
) -> Result<RunResult, String> {
    let json = collector.chrome_trace_json();
    let path = args
        .out_dir
        .join(format!("trace-{}.json", args.workload.name()));
    write_atomically(&path, &json)?;
    match check_trace(&json) {
        Ok(summary) => eprintln!("trace {}: {summary}", path.display()),
        Err(e) => tally
            .violations
            .push(format!("trace export rejected by check_trace: {e}")),
    }
    let print = |title: &str, keep: &dyn Fn(&str) -> bool| -> Result<(), String> {
        let mut rows: Vec<_> = traced::self_times(&json, keep)?.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        eprintln!("{title}: span, count, total ms, self ms");
        for (name, (count, total, own)) in rows.iter().take(24) {
            eprintln!("  {name:<28} {count:>7} {total:>12.3} {own:>12.3}");
        }
        Ok(())
    };
    print("per-layer self time (benchmark spans)", &|n| {
        n.starts_with("bench.")
    })?;
    print("self time of every span", &|_| true)?;
    Ok(tally.finish(layers.metrics()))
}

fn run_dse(args: &Args) -> Result<RunResult, String> {
    let setup = dse::setup()?;
    let threads = sgmap_sweep::default_threads();
    let measured = measure(
        1,
        args.seed,
        budget(args),
        args.workload.reference(),
        || {
            std::hint::black_box(dse::setup()).ok();
        },
        |_| {
            let op = dse::run_op(&setup, threads, None);
            (op.wall_ms, op)
        },
    );
    let setup_s = median(&measured.setup_s).expect("every run times set-up");
    let scale = measured.speed_scale();
    let reference = measured.reference_ms;
    let passes = measured.passes;
    let ops = measured.results.into_iter().next().expect("one item");
    let mut tally = Tally::default();
    let fingerprint = |op: &dse::Op| match &op.outcome {
        Ok(report) => format!(
            "ok points={} digest={:016x}",
            report.records.len(),
            dse::digest(report)
        ),
        Err(failure) => format!("failed {failure}"),
    };
    let first = fingerprint(&ops[0]);
    tally.add_sweep(&ops[0].outcome, setup.points);
    for (k, op) in ops.iter().enumerate() {
        if fingerprint(op) != first {
            tally
                .violations
                .push(format!("sweep {k} differs from the first sweep"));
        }
    }
    let walls: Vec<f64> = ops.iter().map(|op| op.wall_ms).collect();
    let wall_ms = median(&walls).expect("at least one sweep");
    eprintln!(
        "{passes} sweep(s) on {threads} worker thread(s), {} points each; median {wall_ms:.1} ms; {first}",
        setup.points
    );
    tally.violations.extend(check_against_earlier_runs(
        args,
        &format!("sweep {first}\n"),
    )?);
    let report = match &ops[0].outcome {
        Ok(report) => report,
        Err(failure) => return Err(format!("the sweep failed: {failure}")),
    };
    for r in report.records.iter().filter(|r| !r.is_ok()) {
        eprintln!(
            "  failed point {} ({} N={} on {} / {}): {}",
            r.index,
            r.app.name(),
            r.n,
            r.gpu_model,
            r.stack,
            r.error.as_deref().unwrap_or("")
        );
    }

    if args.trace {
        let collector = Arc::new(Collector::new());
        let traced = {
            let _span = collector.span("bench.sweep");
            dse::run_op(&setup, threads, Some(&collector))
        };
        let traced_report = match &traced.outcome {
            Ok(report) => report,
            Err(failure) => return Err(format!("the traced sweep failed: {failure}")),
        };
        if fingerprint(&traced) != first {
            tally
                .violations
                .push("traced sweep differs from the untraced sweep".to_string());
        }
        let mut layers = traced::sweep_layers(traced_report, &collector, traced.wall_ms);
        layers.trace_overhead_share = (traced.wall_ms - wall_ms) / wall_ms.max(1e-9);
        return finish_traced(args, layers, &collector, tally);
    }

    let ok: Vec<_> = report.records.iter().filter(|r| r.is_ok()).collect();
    let filters: u64 = ok
        .iter()
        .map(|r| dse::filters(&setup, r.app, r.n) as u64)
        .sum();
    let points = setup.points.max(1) as f64;
    print_raw(
        &reference,
        scale,
        &[
            ("setup_s", setup_s),
            ("compile_ms.geomean", wall_ms / points),
            (
                "compiles_per_s",
                ok.len() as f64 / (wall_ms / 1000.0).max(1e-12),
            ),
        ],
    );
    let wall_s = wall_ms * scale / 1000.0;
    let sim_us: Vec<f64> = ok.iter().map(|r| r.time_per_iteration_us).collect();
    let metrics = vec![
        ("setup_s", setup_s * scale, "s"),
        ("compile_ms.geomean", wall_ms * scale / points, "ms"),
        ("compiles_per_s", ok.len() as f64 / wall_s.max(1e-12), "1/s"),
        ("filters_per_s", filters as f64 / wall_s.max(1e-12), "1/s"),
        (
            "sim_us_per_iter.geomean",
            geomean(&sim_us).unwrap_or(0.0),
            "sim-us",
        ),
        (
            "ok_share",
            share(ok.len() as u64, setup.points as u64),
            "share",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    Ok(tally.finish(metrics))
}
