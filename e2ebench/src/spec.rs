//! The benchmark's catalog: its workloads, every metric with its unit and
//! direction, and the rendering of `BENCHMARK.json`. Every metric name the
//! program prints is looked up here, so the spec file and the output
//! cannot drift apart (the self-test compares them).

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 25;

/// How the benchmark is started from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "e2ebench/Cargo.toml",
    "--",
];

/// The directories holding the benchmark.
pub const PATHS: [&str; 1] = ["e2ebench"];

/// One seeded workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "sim_mixed",
        why: "dCat max-fairness on the 18-core 45 MiB socket at full fidelity: the per-reference \
              path (stream, translate, L1/L2/LLC) does nearly all the work",
    },
    WorkloadSpec {
        name: "daemon_ticks",
        why: "dcatd's own loop on a 12-domain fixture tree with max-performance: telemetry parse, \
              knapsack, resctrl writes and frame export; no simulator work",
    },
    WorkloadSpec {
        name: "fleet_churn",
        why: "run_fleet with churn, sampled LLC sets and all four policies: tenant restarts fault \
              in pages, LFOC and Memshare run, hosts fan out over the pool",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric. `bound` is set for end-to-end metrics only: the share of
/// the parent's median by which the metric may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run, on every workload. "op" is the
/// workload's unit of work: one epoch (run_epoch, snapshots, policy tick,
/// frame push) on `sim_mixed`, one daemon tick on `daemon_ticks`, one
/// `run_fleet` call on `fleet_churn`.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("sim_instr_per_s", "instr/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
    e2e("norm_ipc_mean", "ratio", Higher, 0.25),
    e2e("norm_ipc_min", "ratio", Higher, 0.25),
    e2e("jain_fairness", "ratio", Higher, 0.2),
    e2e("ok_rate", "ratio", Higher, 0.01),
];

/// Reported by every traced run. A layer a workload does not exercise
/// reads 0 and is marked "not exercised" in the text report.
pub const PER_LAYER: [MetricSpec; 51] = [
    layer("workloads.refs", "count", Higher),
    layer("workloads.ns_per_ref", "ns", Lower),
    layer("llc-sim.paging.translates", "count", Higher),
    layer("llc-sim.paging.ns_per_translate", "ns", Lower),
    layer("llc-sim.paging.pages_mapped", "count", Lower),
    layer("llc-sim.paging.fault_frac", "ratio", Lower),
    layer("llc-sim.hierarchy.accesses", "count", Higher),
    layer("llc-sim.hierarchy.ns_per_access", "ns", Lower),
    layer("llc-sim.hierarchy.l1_hit_frac", "ratio", Higher),
    layer("llc-sim.hierarchy.l2_hit_frac", "ratio", Higher),
    layer("llc-sim.hierarchy.llc_hit_frac", "ratio", Higher),
    layer("llc-sim.hierarchy.llc_miss_frac", "ratio", Lower),
    layer("llc-sim.hierarchy.ns_l1_hit", "ns", Lower),
    layer("llc-sim.hierarchy.ns_l2_hit", "ns", Lower),
    layer("llc-sim.hierarchy.ns_llc_hit", "ns", Lower),
    layer("llc-sim.hierarchy.ns_llc_miss", "ns", Lower),
    layer("host.engine.epochs", "count", Higher),
    layer("host.engine.ms_per_epoch", "ms", Lower),
    layer("host.engine.snapshots_us", "us", Lower),
    layer("host.engine.self_frac", "ratio", Lower),
    layer("host.engine.epoch_op_ms_p90", "ms", Lower),
    layer("dcat.policy.ticks", "count", Higher),
    layer("dcat.policy.tick_us_p50", "us", Lower),
    layer("dcat.policy.tick_us_p99", "us", Lower),
    layer("dcat.policy.ways_moved", "count", Lower),
    layer("dcat.policy.phase_changes", "count", Lower),
    layer("dcat.policy.share_of_epoch", "ratio", Lower),
    layer("dcat.telemetry.parse_us", "us", Lower),
    layer("dcat.telemetry.rows", "count", Higher),
    layer("dcat.telemetry.malformed_rows", "count", Lower),
    layer("resctrl.fs.ops", "count", Lower),
    layer("resctrl.fs.us_per_op", "us", Lower),
    layer("resctrl.fs.ops_per_tick", "count", Lower),
    layer("resctrl.fs.failed_ops", "count", Lower),
    layer("resctrl.fs.noop_write_frac", "ratio", Lower),
    layer("dcat.daemon.ticks", "count", Higher),
    layer("dcat.daemon.degraded_ticks", "count", Lower),
    layer("dcat.daemon.events", "count", Lower),
    layer("dcat.daemon.self_frac", "ratio", Lower),
    layer("dcat.daemon.tick_us_p90", "us", Lower),
    layer("dcat.daemon.tick_us_p99", "us", Lower),
    layer("obs.frames.encode_us", "us", Lower),
    layer("obs.frames.bytes_per_tick", "bytes", Lower),
    layer("obs.frames.validate_us", "us", Lower),
    layer("bench.fleet.run_ms", "ms", Lower),
    layer("bench.fleet.run_ms_p90", "ms", Lower),
    layer("bench.fleet.hosts", "count", Higher),
    layer("bench.fleet.host_epochs_per_s", "1/s", Higher),
    layer("bench.fleet.tenant_restarts", "count", Higher),
    layer("bench.fleet.mean_cos_used", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn metrics_for(traced: bool) -> &'static [MetricSpec] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `name` is a workload of the catalog.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

fn quoted(items: &[&str]) -> String {
    let parts: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", parts.join(", "))
}

fn metric_lines(list: &[MetricSpec]) -> String {
    let lines: Vec<String> = list
        .iter()
        .map(|m| {
            let bound = m
                .bound
                .map(|b| format!(", \"bound\": {b}"))
                .unwrap_or_default();
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    lines.join(",\n")
}

/// The `BENCHMARK.json` text this catalog describes.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        metric_lines(&END_TO_END),
        metric_lines(&PER_LAYER),
    )
}
