//! One module per reproduced table/figure, plus the ablations and the
//! decision traces. Each exposes `run(fast)`; the `fast` flag shrinks
//! epoch counts and cycle budgets so integration tests and CI finish
//! quickly, while `dcat-exp <name>` without `--fast` runs the full-size
//! version. [`EXPERIMENTS`] is the only place an experiment is named.

pub mod ablate_interval;
pub mod ablate_perf_table;
pub mod ablate_phase_thr;
pub mod ablate_policy;
pub mod ablate_replacement;
pub mod ablate_settle;
pub mod common;
pub mod exp_coloring;
pub mod fault_sweep;
pub mod fig01_interference;
pub mod fig02_conflict_latency;
pub mod fig03_set_histogram;
pub mod fig05_phase_metric;
pub mod fig07_lifecycle;
pub mod fig08_miss_threshold;
pub mod fig09_ipc_threshold;
pub mod fig10_dynamic_alloc;
pub mod fig11_latency_norm;
pub mod fig12_perf_table_reuse;
pub mod fig13_streaming;
pub mod fig14_two_receivers;
pub mod fig15_mixed;
pub mod fig17_spec2006;
pub mod fleet_churn;
pub mod fleet_scale;
pub mod tab_services;
pub mod trace_decisions;
pub mod trace_fig15;

use crate::Cli;
use tab_services::Service;

/// One entry of the experiment table: what `dcat-exp <name>` runs.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable identifier: the `dcat-exp` argument.
    pub name: &'static str,
    /// Runs the experiment, printing its report through [`crate::report`].
    pub run: fn(&Cli),
    /// Whether `dcat-exp all` (the full evaluation suite) runs it.
    pub in_all: bool,
}

const fn exp(name: &'static str, in_all: bool, run: fn(&Cli)) -> Experiment {
    Experiment { name, run, in_all }
}

/// Every experiment, in the paper's presentation order. `dcat-exp all`
/// runs the `in_all` entries in this order. Only the printed report
/// matters here, so each module's structured return value is dropped.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("fig01_interference", true, |c| {
        fig01_interference::run(c.fast);
    }),
    exp("fig02_conflict_latency", true, |c| {
        fig02_conflict_latency::run(c.fast);
    }),
    exp("fig03_set_histogram", true, |c| {
        fig03_set_histogram::run(c.fast);
    }),
    exp("fig05_phase_metric", true, |c| {
        fig05_phase_metric::run(c.fast);
    }),
    exp("fig07_lifecycle", true, fig07),
    exp("fig08_miss_threshold", true, |c| {
        fig08_miss_threshold::run(c.fast);
    }),
    exp("fig09_ipc_threshold", true, |c| {
        fig09_ipc_threshold::run(c.fast);
    }),
    exp("fig10_dynamic_alloc", true, |c| {
        fig10_dynamic_alloc::run(c.fast);
    }),
    exp("fig11_latency_norm", true, |c| {
        fig11_latency_norm::run(c.fast);
    }),
    exp("fig12_perf_table_reuse", true, |c| {
        fig12_perf_table_reuse::run(c.fast);
    }),
    exp("fig13_streaming", true, |c| {
        fig13_streaming::run(c.fast);
    }),
    exp("fig14_two_receivers", true, |c| {
        fig14_two_receivers::run(c.fast);
    }),
    // Figure 16 is printed by the Figure-15 run.
    exp("fig15_mixed", true, |c| {
        fig15_mixed::run(c.fast);
    }),
    exp("fig17_spec2006", true, |c| {
        fig17_spec2006::run(c.fast);
    }),
    exp("tab04_redis", false, |c| {
        tab_services::run_service(Service::Redis, c.fast);
    }),
    exp("tab05_postgres", false, tab05),
    exp("tab06_elasticsearch", false, |c| {
        tab_services::run_service(Service::Elasticsearch, c.fast);
    }),
    exp("tab_services", true, |c| {
        tab_services::run(c.fast);
    }),
    exp("ablate_replacement", true, |c| {
        ablate_replacement::run(c.fast);
    }),
    exp("ablate_interval", false, |c| ablate_interval::run(c.fast)),
    exp("ablate_perf_table", false, |c| {
        ablate_perf_table::run(c.fast)
    }),
    exp("ablate_phase_thr", false, |c| ablate_phase_thr::run(c.fast)),
    exp("ablate_policy", false, |c| ablate_policy::run(c.fast)),
    exp("ablate_settle", false, |c| ablate_settle::run(c.fast)),
    exp("exp_coloring_vs_cat", true, |c| {
        exp_coloring::run(c.fast);
    }),
    exp("fault_sweep", true, |c| {
        fault_sweep::run(c.fast);
    }),
    exp("fleet_scale", true, fleet_scale),
    exp("fleet_churn", true, fleet_churn),
    exp("trace_decisions", false, |c| trace_decisions::run(c.fast)),
    exp("trace_fig15", false, |c| trace_fig15::run(c.fast)),
];

/// Figure 7; `--frames-out` also exports both timelines' frame stream.
fn fig07(cli: &Cli) {
    let (_, frames) = fig07_lifecycle::run_with_frames(cli.fast);
    if let Some(path) = &cli.frames_out {
        if let Err(e) = dcat_obs::write_text(path, &frames) {
            panic!("frames export to {}: {e}", path.display());
        }
    }
}

/// Table 5 and its three-instance variant.
fn tab05(cli: &Cli) {
    tab_services::run_service(Service::Postgres, cli.fast);
    tab_services::run_postgres_multi(cli.fast);
}

/// `--tenants N` runs one fleet size instead of the 100/1 000/10 000
/// ladder.
fn fleet_scale(cli: &Cli) {
    let r = match cli.tenants {
        Some(n) => fleet_scale::run_at(&[n], cli.fast),
        None => fleet_scale::run(cli.fast),
    };
    if let Err(e) = r {
        panic!("fleet_scale aborted: {e} (severity {:?})", e.severity());
    }
}

/// `--tenants N` overrides the default fleet size (1 000, or 48 with
/// `--fast`).
fn fleet_churn(cli: &Cli) {
    let r = match cli.tenants {
        Some(n) => fleet_churn::run_at(n, cli.fast),
        None => fleet_churn::run(cli.fast),
    };
    if let Err(e) = r {
        panic!("fleet_churn aborted: {e} (severity {:?})", e.severity());
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn names_are_unique_and_not_dispatcher_verbs() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(!names.contains(&"all") && !names.contains(&"list"));
    }

    #[test]
    fn the_suite_is_the_paper_evaluation_in_order() {
        let suite: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            suite,
            [
                "fig01_interference",
                "fig02_conflict_latency",
                "fig03_set_histogram",
                "fig05_phase_metric",
                "fig07_lifecycle",
                "fig08_miss_threshold",
                "fig09_ipc_threshold",
                "fig10_dynamic_alloc",
                "fig11_latency_norm",
                "fig12_perf_table_reuse",
                "fig13_streaming",
                "fig14_two_receivers",
                "fig15_mixed",
                "fig17_spec2006",
                "tab_services",
                "ablate_replacement",
                "exp_coloring_vs_cat",
                "fault_sweep",
                "fleet_scale",
                "fleet_churn",
            ]
        );
    }
}
