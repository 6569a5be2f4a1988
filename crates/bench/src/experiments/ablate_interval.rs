//! Ablation: controller interval length (the paper's configurable period;
//! too long reacts slowly, too short judges cold caches).

use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Sweeps the cycles per epoch at a fixed total of simulated cycles.
pub fn run(fast: bool) {
    report::section("Ablation: controller interval (cycles per epoch)");
    let budgets: &[u64] = if fast {
        &[1_000_000, 4_000_000]
    } else {
        &[2_000_000, 10_000_000, 30_000_000]
    };
    let rows = crate::Runner::from_env().map(budgets.to_vec(), |_, budget| {
        let mut cfg = paper_engine(fast);
        cfg.cycles_per_epoch = budget;
        // Fix the total simulated cycles across the sweep.
        let total_cycles: u64 = if fast { 24_000_000 } else { 360_000_000 };
        let epochs = (total_cycles / budget).max(4);
        let mut plans = vec![VmPlan::always("mlr", 3, |s| {
            Box::new(Mlr::new(8 * MB, 70 + s))
        })];
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
                Box::new(Lookbusy::new())
            }));
        }
        let r = run_scenario(PolicyKind::Dcat(paper_dcat()), cfg, &plans, epochs);
        let ways = r.ways_series(0);
        let peak = ways.iter().copied().max().unwrap_or(0);
        let first_peak_epoch = ways.iter().position(|&w| w == peak).unwrap_or(0) as u64;
        vec![
            format!("{}M", budget / 1_000_000),
            epochs.to_string(),
            peak.to_string(),
            format!("{}M", first_peak_epoch * budget / 1_000_000),
            format!("{:.2}", r.steady_ipc(0, (epochs / 4) as usize)),
        ]
    });
    report::table(
        &[
            "interval",
            "epochs",
            "peak ways",
            "cycles to peak",
            "steady IPC",
        ],
        &rows,
    );
}
