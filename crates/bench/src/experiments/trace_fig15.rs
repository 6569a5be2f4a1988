//! Diagnostic: per-epoch decisions for the Figure-15 scenario (the
//! MLR-8MB receiver next to the MLOAD-60MB streamer).

use workloads::{Lookbusy, Mload, Mlr};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Runs the scenario and prints one line per epoch.
pub fn run(fast: bool) {
    let mut plans = vec![
        VmPlan::always("mlr-8mb", 3, |s| Box::new(Mlr::new(8 * MB, 400 + s))),
        VmPlan::always("mload-60mb", 3, |_| Box::new(Mload::new(60 * MB))),
    ];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 2, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    // Fast mode runs fig15_mixed's 20 fast epochs: enough for MLOAD to
    // hit the streaming cap and MLR to start receiving.
    let r = run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        if fast { 20 } else { 24 },
    );
    let norm = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.2}"));
    for (e, rep) in r.reports.iter().enumerate() {
        report::say(format!(
            "e{e:>2} MLR {:<9} w={:>2} n={:<5} | MLOAD {:<9} w={:>2} n={:<5} miss={:.2} ipc={:.4}",
            rep[0].class.to_string(),
            rep[0].ways,
            norm(rep[0].norm_ipc),
            rep[1].class.to_string(),
            rep[1].ways,
            norm(rep[1].norm_ipc),
            rep[1].llc_miss_rate,
            rep[1].ipc,
        ));
    }
}
