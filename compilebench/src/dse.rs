//! The `dse-sweep` workload: one `run_sweep` over a design-space grid whose
//! points share compile groups and the estimate cache.

use std::collections::BTreeMap;
use std::time::Instant;

use sgmap_apps::App;
use sgmap_gpusim::{GpuSpec, PlatformSpec};
use sgmap_pee::EstimateCache;
use sgmap_sweep::{run_sweep_with_cache_traced, AppSweep, StackConfig, SweepReport, SweepSpec};
use sgmap_trace::Collector;

use crate::guard::{guarded, Failure};
use crate::stats::Digest;

/// Paper apps at mid-range sizes.
const APPS: &[(App, u32)] = &[
    (App::Des, 12),
    (App::FmRadio, 12),
    (App::Dct, 10),
    (App::MatMul2, 4),
    (App::Fft, 128),
    (App::Bitonic, 16),
];

/// The grid: the apps on the 4-GPU reference tree and its ±5/10/20%
/// bandwidth, latency and throughput perturbations, plus a 1-GPU box for the
/// SPSG reference stack; stacks `ours`, `previous` and `spsg`; mapping
/// stability measured against the unperturbed tree.
pub fn spec() -> SweepSpec {
    let gpu = GpuSpec::m2090();
    let mut platforms = vec![
        PlatformSpec::reference(gpu.clone(), 1).named("M2090:1gpu"),
        PlatformSpec::paper().named("M2090"),
    ];
    for pct in [5i32, 10, 20] {
        for sign in [1i32, -1] {
            let scale = 1.0 + f64::from(sign * pct) / 100.0;
            let d = sign * pct;
            platforms.push(
                PlatformSpec::reference(gpu.clone(), 4)
                    .named(format!("M2090:bw{d:+}%"))
                    .with_link_scales(scale, 1.0),
            );
            platforms.push(
                PlatformSpec::reference(gpu.clone(), 4)
                    .named(format!("M2090:lat{d:+}%"))
                    .with_link_scales(1.0, scale),
            );
            let tp = gpu.with_throughput_factor(scale, &format!("tp{d:+}%"));
            platforms.push(PlatformSpec::reference(tp, 4).named(format!("M2090:tp{d:+}%")));
        }
    }
    let apps = APPS
        .iter()
        .map(|&(app, n)| AppSweep::explicit(app, vec![n]))
        .collect();
    let mut spec = SweepSpec::on_platforms(
        "dse-sweep",
        apps,
        platforms,
        vec![
            StackConfig::ours(),
            StackConfig::previous(),
            StackConfig::spsg(),
        ],
    );
    spec.stability_baseline = Some("M2090".to_string());
    spec
}

/// What set-up prepares: the spec, its expanded point count, and the filter
/// count of every (app, N) graph the sweep will build.
pub struct Setup {
    pub spec: SweepSpec,
    pub points: usize,
    pub filters: BTreeMap<(&'static str, u32), usize>,
}

pub fn setup() -> Result<Setup, String> {
    let spec = spec();
    let points = spec.expand().map_err(|e| e.to_string())?.len();
    let mut filters = BTreeMap::new();
    for &(app, n) in APPS {
        let graph = app
            .build(n)
            .map_err(|e| format!("{} N={n}: {e}", app.name()))?;
        filters.insert((app.name(), n), graph.filter_count());
    }
    Ok(Setup {
        spec,
        points,
        filters,
    })
}

/// One sweep: its wall time and report.
pub struct Op {
    pub wall_ms: f64,
    pub outcome: Result<SweepReport, Failure>,
}

pub fn run_op(setup: &Setup, threads: usize, trace: Option<&std::sync::Arc<Collector>>) -> Op {
    let start = Instant::now();
    let report = guarded(|| {
        run_sweep_with_cache_traced(&setup.spec, threads, EstimateCache::shared(), trace)
            .map_err(|e| e.to_string())
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let outcome = report.and_then(|report| {
        guarded(|| Ok(check(setup, &report)))?.map_err(Failure::Violation)?;
        Ok(report)
    });
    Op { wall_ms, outcome }
}

/// Independent checks of a sweep report: every expanded point is reported
/// once, in order; every completed point has a finite positive simulated
/// time and objective and uses no more GPUs than its platform has; the SPSG
/// points run one partition on one GPU; the stability section is present.
/// Failed points are counted, not rejected here.
pub fn check(setup: &Setup, report: &SweepReport) -> Result<(), String> {
    if report.records.len() != setup.points {
        return Err(format!(
            "{} records for {} expanded points",
            report.records.len(),
            setup.points
        ));
    }
    for (i, r) in report.records.iter().enumerate() {
        if r.index != i {
            return Err(format!("record {i} carries index {}", r.index));
        }
        if !r.is_ok() {
            continue;
        }
        let at = format!(
            "point {i} ({} N={} on {} / {})",
            r.app.name(),
            r.n,
            r.gpu_model,
            r.stack
        );
        if !(r.time_per_iteration_us.is_finite() && r.time_per_iteration_us > 0.0) {
            return Err(format!("{at}: simulated time {}", r.time_per_iteration_us));
        }
        if !(r.predicted_tmax_us.is_finite() && r.predicted_tmax_us > 0.0) {
            return Err(format!("{at}: predicted Tmax {}", r.predicted_tmax_us));
        }
        if r.partitions == 0 || r.gpus_used == 0 || r.gpus_used > r.gpus {
            return Err(format!(
                "{at}: {} partitions on {} of {} GPUs",
                r.partitions, r.gpus_used, r.gpus
            ));
        }
        if r.stack == "spsg" && (r.partitions != 1 || r.gpus_used != 1) {
            return Err(format!("{at}: SPSG ran {} partitions", r.partitions));
        }
    }
    if report.stability.is_none() {
        return Err("stability section missing".to_string());
    }
    Ok(())
}

/// Filters of the graph behind a record.
pub fn filters(setup: &Setup, app: App, n: u32) -> usize {
    setup.filters.get(&(app.name(), n)).copied().unwrap_or(0)
}

/// Digest of everything deterministic in the report.
pub fn digest(report: &SweepReport) -> u64 {
    let mut d = Digest::default();
    d.str(&report.canonical_json());
    d.value()
}
