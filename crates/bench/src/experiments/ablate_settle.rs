//! Ablation: the settle interval (epochs between a ways change and its
//! judgement). Too small misjudges cold caches; too large converges
//! slowly. Uses the Figure-10 MLR-8MB scenario.

use dcat::DcatConfig;
use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Sweeps `settle_intervals` over 1, 2 and 4.
pub fn run(fast: bool) {
    report::section("Ablation: settle intervals before judging a ways change");
    let epochs = if fast { 16 } else { 44 };
    let rows = crate::Runner::from_env().map(vec![1u32, 2, 4], |_, settle| {
        let cfg = DcatConfig {
            settle_intervals: settle,
            ..DcatConfig::default()
        };
        let mut plans = vec![VmPlan::always("mlr", 3, |s| {
            Box::new(Mlr::new(8 * MB, 70 + s))
        })];
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
                Box::new(Lookbusy::new())
            }));
        }
        let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, epochs);
        let ways = r.ways_series(0);
        let peak = ways.iter().copied().max().unwrap_or(0);
        let first_peak = ways.iter().position(|&w| w == peak).unwrap_or(0);
        vec![
            settle.to_string(),
            peak.to_string(),
            ways.last().copied().unwrap_or(0).to_string(),
            first_peak.to_string(),
            format!("{:.2}", r.steady_ipc(0, (epochs / 4) as usize)),
        ]
    });
    report::table(
        &[
            "settle",
            "peak ways",
            "final ways",
            "epoch of peak",
            "steady IPC",
        ],
        &rows,
    );
}
