//! Diagnostic: prints dCat's per-epoch decisions for the Redis scenario
//! (class, ways, IPC, normalized IPC, miss rate) — the quickest way to see
//! the controller think.

use workloads::{Lookbusy, Mload, RedisModel};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Runs the Redis scenario and prints one line per epoch.
pub fn run(fast: bool) {
    let plans = vec![
        VmPlan::always("service", 4, |s| {
            Box::new(RedisModel::paper_default(700 + s))
        }),
        VmPlan::always("mload-1", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("mload-2", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("lookbusy-1", 4, |_| Box::new(Lookbusy::new())),
        VmPlan::always("lookbusy-2", 4, |_| Box::new(Lookbusy::new())),
    ];
    let r = run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        if fast { 16 } else { 36 },
    );
    for (e, rep) in r.reports.iter().enumerate() {
        let d = &rep[0];
        report::say(format!(
            "e{e:>2} class={:<9} ways={:>2} ipc={:.3} norm={:?} miss={:.3} phase_chg={}",
            d.class.to_string(),
            d.ways,
            d.ipc,
            d.norm_ipc.map(|v| (v * 100.0).round() / 100.0),
            d.llc_miss_rate,
            d.phase_changed
        ));
    }
}
