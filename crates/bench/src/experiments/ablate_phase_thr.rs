//! Ablation: phase-change threshold sensitivity on a phased workload that
//! alternates between an MLR-like and an MLOAD-like phase.

use dcat::DcatConfig;
use workloads::{phased::Phase, Lookbusy, Mload, Mlr, PhasedStream};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Sweeps `phase_change_thr` over 2%, 10% and 50%.
pub fn run(fast: bool) {
    report::section("Ablation: phase-change threshold");
    let epochs = if fast { 20 } else { 48 };
    let rows = crate::Runner::from_env().map(vec![0.02f64, 0.10, 0.50], |_, thr| {
        let cfg = DcatConfig {
            phase_change_thr: thr,
            ..DcatConfig::default()
        };
        let mut plans = vec![VmPlan::always("phased", 3, |s| {
            Box::new(PhasedStream::cycling(vec![
                Phase {
                    stream: Box::new(Mlr::new(6 * MB, 80 + s)),
                    accesses: 400_000,
                },
                Phase {
                    stream: Box::new(Mload::new(30 * MB)),
                    accesses: 400_000,
                },
            ]))
        })];
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
                Box::new(Lookbusy::new())
            }));
        }
        let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, epochs);
        let changes: usize = r.reports.iter().filter(|e| e[0].phase_changed).count();
        vec![
            format!("{:.0}%", thr * 100.0),
            changes.to_string(),
            format!("{:.2}", r.steady_ipc(0, (epochs / 4) as usize)),
        ]
    });
    report::table(
        &["phase_change_thr", "phase changes detected", "steady IPC"],
        &rows,
    );
    report::say("(too small: spurious reclaims; too large: stale baselines)");
}
