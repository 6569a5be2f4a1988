//! The benchmark's self-test on a deterministic fake clock, in the pattern
//! of `dcat-perfbench --check`: tiny versions of all three workloads run
//! untraced and traced, every metric of the catalog must be emitted with
//! its unit and a well-formed name, the digests of the two modes must
//! agree, the ledger residuals must be reported with their bases, and the
//! committed `BENCHMARK.json` must be the catalog's rendering.

use dcat_bench::perf::harness::FakeClock;
use dcat_bench::report;

use crate::spec;

/// Nanoseconds the fake clock advances per read.
const STRIDE: u64 = 1_000;

fn well_formed_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the catalog itself and the committed spec file.
fn check_spec(fail: &mut Vec<String>) {
    let mut names: Vec<&str> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER.iter())
        .map(|m| m.name)
        .chain(spec::WORKLOADS.iter().map(|w| w.name))
        .collect();
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        if !well_formed_name(m.name) || !well_formed_unit(m.unit) {
            fail.push(format!("malformed metric {} [{}]", m.name, m.unit));
        }
        if m.bound.is_some_and(|b| !(0.0..=0.25).contains(&b)) {
            fail.push(format!("{}: bound out of range", m.name));
        }
    }
    for w in spec::WORKLOADS {
        if !well_formed_name(w.name) || w.why.len() > 200 || w.why.contains('\n') {
            fail.push(format!("malformed workload {}", w.name));
        }
    }
    let setup = spec::END_TO_END.iter().find(|m| m.name == "setup_s");
    let largest = spec::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    if setup.is_none_or(|m| m.unit != "s" || m.better != spec::Better::Lower)
        || setup.and_then(|m| m.bound) != Some(largest)
    {
        fail.push("setup_s must be seconds, lower is better, with the largest bound".into());
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    if names.len() != before {
        fail.push("a name is used twice".into());
    }
    let path = crate::checkout_root().join("BENCHMARK.json");
    // lint: allow(DL005, comparing the committed spec file with the catalog)
    match std::fs::read_to_string(&path) {
        Ok(text) if text == spec::benchmark_json() => {}
        Ok(_) => fail.push("BENCHMARK.json differs from the catalog (run --write-spec)".into()),
        Err(e) => fail.push(format!("reading BENCHMARK.json: {e}")),
    }
}

/// Runs the self-test; returns whether everything passed.
pub fn run() -> bool {
    let mut fail = Vec::new();
    check_spec(&mut fail);
    for w in spec::WORKLOADS {
        let mut digests = Vec::new();
        for traced in [false, true] {
            let mut clock = FakeClock::new(STRIDE);
            let dir = crate::work_root().join(format!(
                "selftest-{}-{}-{}",
                w.name,
                u8::from(traced),
                std::process::id()
            ));
            let mut out = crate::run_workload(&mut clock, w.name, 7, 0, traced, true, dir);
            out.ledger.set("peak_rss_mb", 1.0);
            let ok_rate = out.checks.ok_rate();
            out.ledger.set("ok_rate", ok_rate);
            let mode = if traced { "traced" } else { "untraced" };
            for f in out.checks.failures() {
                fail.push(format!("{} {mode}: {f}", w.name));
            }
            for m in spec::metrics_for(traced) {
                match out.ledger.get(m.name) {
                    Some(v) if v.is_finite() => {}
                    other => fail.push(format!("{} {mode}: {} = {other:?}", w.name, m.name)),
                }
            }
            let residuals: &[&str] = if !traced {
                &[]
            } else if w.name == "daemon_ticks" {
                &["dcat.daemon.self_frac = (", "trace.overhead_frac = ("]
            } else {
                &["host.engine.self_frac = (", "trace.overhead_frac = ("]
            };
            for r in residuals {
                if !out.ledger.notes().iter().any(|n| n.starts_with(r)) {
                    fail.push(format!("{} {mode}: no base reported for {r}", w.name));
                }
            }
            report::say(format!(
                "self-test {} {mode}: {} checks, {} failed, digest {}",
                w.name,
                out.checks.attempted(),
                out.checks.failed(),
                out.digest
            ));
            digests.push(out.digest);
        }
        if digests.first() != digests.last() || digests.iter().any(String::is_empty) {
            fail.push(format!("{}: traced and untraced digests differ", w.name));
        }
    }
    for f in &fail {
        report::say(format!("self-test FAILED: {f}"));
    }
    report::say(if fail.is_empty() {
        "self-test: ok"
    } else {
        "self-test: failed"
    });
    fail.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(well_formed_name("llc-sim.hierarchy.ns_l1_hit"));
        assert!(!well_formed_name(".starts_with_dot"));
        assert!(!well_formed_name("has space"));
        assert!(well_formed_unit("1/s"));
        assert!(!well_formed_unit("µs"));
    }
}
