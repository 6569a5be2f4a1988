//! Ablation: max-fairness vs. max-performance free-pool distribution
//! (the design choice of paper Section 3.5) on the Figure-14 scenario.

use dcat::DcatConfig;

use crate::experiments::fig14_two_receivers::{run_with, TwoReceivers};
use crate::report;

/// Runs the Figure-14 scenario under both distribution policies.
pub fn run(fast: bool) {
    report::section("Ablation: allocation policy (two receivers + late-comer)");
    let runs = crate::Runner::from_env().map(
        vec![DcatConfig::default(), DcatConfig::max_performance()],
        |_, cfg| run_with(cfg, fast),
    );
    let final_ways = |ways: &[u32]| ways.last().copied().unwrap_or(0).to_string();
    let row = |policy: &str, r: &TwoReceivers| {
        vec![
            policy.to_string(),
            final_ways(&r.ways_8mb),
            final_ways(&r.ways_12mb),
            format!("{:.2}", r.total_norm_ipc),
        ]
    };
    report::table(
        &[
            "policy",
            "MLR-8MB final ways",
            "MLR-12MB final ways",
            "total norm IPC",
        ],
        &[
            row("max-fairness", &runs[0]),
            row("max-performance", &runs[1]),
        ],
    );
}
