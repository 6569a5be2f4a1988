//! dcat-e2ebench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sim_mixed|daemon_ticks|fleet_churn|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --self-test
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --write-spec
//! ```
//!
//! Run from the root of a checkout. A run prints its report, then one
//! JSON object as the last line of standard output: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`. It
//! exits non-zero when an operation or an output check failed. See
//! `README.md` beside this file for the workloads and metrics.

mod common;
mod daemon_ticks;
mod fleet_churn;
mod measure;
mod mirror;
mod selftest;
mod sim_mixed;
mod spec;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dcat_bench::report;
use dcat_bench::timing::WallClock;
use dcat_obs::CycleSource;

use crate::common::{Outcome, RunCtx};

/// The root of the checkout the benchmark was built in.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where runs keep fixture trees while they run (removed afterwards).
pub fn work_root() -> PathBuf {
    checkout_root().join(".bench_work")
}

/// Where runs store their reports and span logs.
fn results_dir() -> PathBuf {
    checkout_root().join(".bench_results")
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Run,
    SelfTest,
    WriteSpec,
}

#[derive(Debug, Clone)]
struct Args {
    mode: Mode,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--self-test" => args.mode = Mode::SelfTest,
            "--write-spec" => args.mode = Mode::WriteSpec,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.mode == Mode::Run && !(args.workload == "all" || spec::is_workload(&args.workload)) {
        return Err(format!(
            "--workload must be one of {} or all (got {:?})",
            spec::WORKLOADS.map(|w| w.name).join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            report::say(format!("error: {e}"));
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::SelfTest => selftest::run(),
        Mode::WriteSpec => write_spec(),
        Mode::Run if args.workload == "all" => run_all(&args),
        Mode::Run => run_one(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_spec() -> bool {
    // lint: allow(DL005, the benchmark writes its own spec file on request)
    match std::fs::write(
        checkout_root().join("BENCHMARK.json"),
        spec::benchmark_json(),
    ) {
        Ok(()) => {
            report::say("wrote BENCHMARK.json");
            true
        }
        Err(e) => {
            report::say(format!("error: writing BENCHMARK.json: {e}"));
            false
        }
    }
}

/// Runs every workload, each in a process of its own so that its peak RSS
/// is its own, and waits for each.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            report::say(format!("error: locating this program: {e}"));
            return false;
        }
    };
    let mut all_ok = true;
    for w in spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        let ok = status.is_ok_and(|s| s.success());
        report::say(format!(
            "== {}: {}",
            w.name,
            if ok { "ok" } else { "FAILED" }
        ));
        all_ok &= ok;
    }
    all_ok
}

/// Runs one workload from `params` on `clock`, in `work_dir`.
pub fn run_workload(
    clock: &mut dyn CycleSource,
    workload: &str,
    seed: u64,
    budget_ns: u64,
    traced: bool,
    tiny: bool,
    work_dir: PathBuf,
) -> Outcome {
    let mut ctx = RunCtx {
        clock,
        budget_ns,
        work_dir,
        dirs: 0,
    };
    let result = match (workload, traced) {
        ("sim_mixed", false) => sim_mixed::run(&mut ctx, &sim_params(tiny), seed),
        ("sim_mixed", true) => sim_mixed::run_traced(&mut ctx, &sim_params(tiny), seed),
        ("daemon_ticks", _) => daemon_ticks::run(&mut ctx, &daemon_params(tiny), seed, traced),
        ("fleet_churn", _) => fleet_churn::run(&mut ctx, &fleet_params(tiny), seed, traced),
        _ => Err(format!("unknown workload {workload}")),
    };
    // lint: allow(DL005, removing the run's own scratch directory inside the checkout)
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    // Succeeds only when no other run is using the scratch root.
    let _ = std::fs::remove_dir(work_root());
    result.unwrap_or_else(|e| {
        let mut out = Outcome::new("failed");
        out.checks.check(false, || format!("{workload}: {e}"));
        out
    })
}

fn sim_params(tiny: bool) -> sim_mixed::Params {
    if tiny {
        sim_mixed::Params::TINY
    } else {
        sim_mixed::Params::FULL
    }
}

fn daemon_params(tiny: bool) -> daemon_ticks::Params {
    if tiny {
        daemon_ticks::Params::TINY
    } else {
        daemon_ticks::Params::FULL
    }
}

fn fleet_params(tiny: bool) -> fleet_churn::Params {
    if tiny {
        fleet_churn::Params::TINY
    } else {
        fleet_churn::Params::FULL
    }
}

fn run_one(args: &Args) -> bool {
    let mut clock = WallClock::new();
    let work_dir = work_root().join(format!("{}-{}", args.workload, std::process::id()));
    let budget_ns = args.seconds.saturating_mul(1_000_000_000);
    let mut out = run_workload(
        &mut clock,
        &args.workload,
        args.seed,
        budget_ns,
        args.trace,
        false,
        work_dir,
    );
    if !args.trace {
        if let Some(mib) = out.checks.check_ok("peak RSS", measure::peak_rss_mib()) {
            out.ledger.set("peak_rss_mb", mib);
        }
    }
    let ok_rate = out.checks.ok_rate();
    out.ledger.set("ok_rate", ok_rate);
    let text = render(&out, args.trace);
    report::emit_raw(&text);
    store(args, &out, &text);
    let json = result_json(&mut out, args.trace);
    report::say(&json);
    out.checks.failed() == 0
}

/// Keeps the report and span logs under the results directory.
fn store(args: &Args, out: &Outcome, text: &str) {
    let dir = results_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    // lint: allow(DL005, the benchmark's own results directory inside the checkout)
    let mut written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), text));
    for (pass, log) in &out.spans {
        // lint: allow(DL005, the benchmark's own results directory inside the checkout)
        written = written.and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.{pass}.spans.jsonl")),
                log.to_jsonl(),
            )
        });
    }
    if let Err(e) = written {
        report::say(format!("note: could not store results: {e}"));
    }
}

/// The human-readable report: notes, every metric with its unit, the
/// digest and any failures.
fn render(out: &Outcome, traced: bool) -> String {
    let mut t = format!(
        "== {} ({})\n",
        out.workload,
        if traced { "traced" } else { "untraced" }
    );
    for n in out.ledger.notes() {
        t.push_str(&format!("  {n}\n"));
    }
    for m in spec::metrics_for(traced) {
        let v = out.ledger.get(m.name).unwrap_or(0.0);
        let idle = if out.ledger.is_idle(m.name) {
            "  (not measured on this workload)"
        } else {
            ""
        };
        t.push_str(&format!("  {:<36} {v:>16.6} {}{idle}\n", m.name, m.unit));
    }
    t.push_str(&format!("  digest {} {}\n", out.workload, out.digest));
    t.push_str(&format!(
        "  checks: {} attempted, {} failed\n",
        out.checks.attempted(),
        out.checks.failed()
    ));
    for f in out.checks.failures() {
        t.push_str(&format!("  FAILED: {f}\n"));
    }
    t
}

/// The last line: `correct`, `attempted`, `failed` and the metrics of the
/// run's mode, each with its unit.
fn result_json(out: &mut Outcome, traced: bool) -> String {
    let mut metrics = Vec::new();
    for m in spec::metrics_for(traced) {
        let v = out.ledger.get(m.name).unwrap_or(0.0);
        let v = if v.is_finite() {
            v
        } else {
            out.checks
                .check(false, || format!("{} is not finite", m.name));
            0.0
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed() == 0,
        out.checks.attempted().max(1),
        out.checks.failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "fleet_churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_churn", 7, 3, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "sim_mixed", "--trace", "2"])).is_err());
    }

    #[test]
    fn self_test_passes() {
        assert!(selftest::run());
    }
}
