//! Ablation: per-phase performance-table reuse on vs. off (the paper's
//! Figure-12 mechanism), measured as epochs from restart to peak ways.

use crate::experiments::fig12_perf_table_reuse::run_with_reuse;
use crate::report;

/// Runs the Figure-12 scenario with and without reuse.
pub fn run(fast: bool) {
    report::section("Ablation: performance-table reuse");
    let runs =
        crate::Runner::from_env().map(vec![true, false], |_, reuse| run_with_reuse(fast, reuse));
    let (with, without) = (&runs[0], &runs[1]);
    report::table(
        &[
            "perf-table reuse",
            "1st run epochs to peak",
            "2nd run epochs to peak",
        ],
        &[
            vec![
                "enabled".into(),
                with.first_run_epochs.to_string(),
                with.second_run_epochs.to_string(),
            ],
            vec![
                "disabled".into(),
                without.first_run_epochs.to_string(),
                without.second_run_epochs.to_string(),
            ],
        ],
    );
    report::say("(with reuse, the second run should converge much faster)");
}
