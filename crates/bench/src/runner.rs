//! Shared CLI parsing and the deterministic parallel sweep runner.
//!
//! Every experiment accepts `--fast` and `--jobs N`. `--jobs`
//! sets a process-global width consumed by [`Runner::from_env`]; sweeps
//! inside experiments fan their scenario runs out through
//! [`Runner::map`], which combines [`host::Pool`]'s index-ordered
//! execution with [`crate::report::capture`] so each task's printed
//! output is replayed in task order. The result: the bytes written to
//! stdout are identical for any jobs width, and `--jobs 1` is simply the
//! degenerate inline case.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dcat_obs::MetricsSink;
use host::Pool;

use crate::report;

static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-global sweep width (clamped to at least 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The process-global sweep width.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

/// Process-global LLC set-sampling stride (0 or 1 = full fidelity).
static SAMPLE_SETS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global LLC sampling stride (`--sample-sets N`).
pub fn set_sample_sets(n: usize) {
    SAMPLE_SETS.store(n, Ordering::Relaxed);
}

/// The LLC fidelity selected on the command line: `Full` unless
/// `--sample-sets N` with `N > 1` was given.
pub fn llc_fidelity() -> llc_sim::SimFidelity {
    match SAMPLE_SETS.load(Ordering::Relaxed) {
        0 | 1 => llc_sim::SimFidelity::Full,
        n => llc_sim::SimFidelity::Sampled {
            one_in: n.min(u32::MAX as usize) as u32,
        },
    }
}

/// Flags shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Scaled-down epoch counts and cycle budgets (for tests and CI).
    pub fast: bool,
    /// Parallel sweep width.
    pub jobs: usize,
    /// Where to export the process-root metrics snapshot on exit
    /// (Prometheus text, or JSONL when the path ends in `.jsonl`).
    pub metrics_out: Option<PathBuf>,
    /// Where to write the run's `dcat-frames/v1` stream (for experiments
    /// that export one; others ignore it).
    pub frames_out: Option<PathBuf>,
    /// LLC set-sampling stride (`--sample-sets N`); 0 means full
    /// fidelity. Values of 1 also degenerate to full fidelity.
    pub sample_sets: usize,
    /// Explicit fleet size for the fleet experiments (`--tenants N`).
    pub tenants: Option<u32>,
}

impl Cli {
    /// Parses a flag list: `--fast`, and `--jobs N`, `--sample-sets N`,
    /// `--tenants N`, `--metrics-out PATH`, `--frames-out PATH`, each
    /// also spelled `--flag=VALUE`. Installs the parsed width via
    /// [`set_jobs`] and the sampling stride via [`set_sample_sets`].
    ///
    /// # Errors
    ///
    /// Rejects unknown flags and stray arguments, a valued flag without
    /// a value, and a count that is not a non-negative integer, so a
    /// typo never silently runs a different experiment.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Cli {
            fast: false,
            jobs: 1,
            metrics_out: None,
            frames_out: None,
            sample_sets: 0,
            tenants: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v)),
                None => (arg.as_str(), None),
            };
            let mut value = || {
                inline
                    .or_else(|| it.next().map(String::as_str))
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--fast" if inline.is_none() => cli.fast = true,
                "--jobs" => cli.jobs = count(flag, value()?)?,
                "--sample-sets" => cli.sample_sets = count(flag, value()?)?,
                "--tenants" => cli.tenants = Some(count(flag, value()?)?),
                "--metrics-out" => cli.metrics_out = Some(PathBuf::from(value()?)),
                "--frames-out" => cli.frames_out = Some(PathBuf::from(value()?)),
                _ => return Err(format!("unknown argument '{arg}'")),
            }
        }
        cli.jobs = cli.jobs.max(1);
        set_jobs(cli.jobs);
        set_sample_sets(cli.sample_sets);
        Ok(cli)
    }
}

/// Parses a count flag's value.
fn count<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, got '{value}'"))
}

/// Standard experiment driver: runs `body`, then honors `--metrics-out`
/// by exporting everything the run [`report::record`]ed into the
/// process-root registry.
///
/// # Panics
///
/// Panics if the metrics file cannot be written.
pub fn main_with(cli: &Cli, body: impl FnOnce(&Cli)) {
    body(cli);
    if let Some(path) = &cli.metrics_out {
        let snap = report::take_root_metrics();
        if let Err(e) = dcat_obs::FileSink::new(path).export(&snap) {
            panic!("metrics export to {}: {e}", path.display());
        }
    }
}

/// Deterministic parallel sweep executor.
pub struct Runner {
    pool: Pool,
}

impl Runner {
    /// A runner at the process-global `--jobs` width.
    pub fn from_env() -> Self {
        Runner::new(jobs())
    }

    /// A runner at an explicit width (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner {
            pool: Pool::new(jobs),
        }
    }

    /// The runner's width.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Runs `f` over every item, in parallel up to the runner's width,
    /// and returns results in **item order**. Anything a task says
    /// through [`crate::report`] — text *and* recorded metrics — is
    /// captured and replayed in item order after the task completes, so
    /// stdout bytes and exported metric snapshots never depend on
    /// completion order or jobs width.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let chunks = self
            .pool
            .map(items, |i, item| report::capture_obs(|| f(i, item)));
        chunks
            .into_iter()
            .map(|(value, out, metrics)| {
                report::emit_raw(&out);
                report::emit_obs(&metrics);
                value
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_flags() {
        let base = Cli {
            fast: false,
            jobs: 1,
            metrics_out: None,
            frames_out: None,
            sample_sets: 0,
            tenants: None,
        };
        let ok = |args: &[&str]| Cli::parse(&argv(args)).expect("valid flags");
        assert_eq!(ok(&[]), base);
        assert_eq!(
            ok(&["--fast", "--jobs", "4"]),
            Cli {
                fast: true,
                jobs: 4,
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--jobs=8"]),
            Cli {
                jobs: 8,
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--metrics-out", "m.prom"]),
            Cli {
                metrics_out: Some(PathBuf::from("m.prom")),
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--metrics-out=target/m.jsonl"]),
            Cli {
                metrics_out: Some(PathBuf::from("target/m.jsonl")),
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--frames-out", "target/frames.jsonl"]),
            Cli {
                frames_out: Some(PathBuf::from("target/frames.jsonl")),
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--frames-out=f.jsonl"]),
            Cli {
                frames_out: Some(PathBuf::from("f.jsonl")),
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--sample-sets", "8"]),
            Cli {
                sample_sets: 8,
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--sample-sets=16"]),
            Cli {
                sample_sets: 16,
                ..base.clone()
            }
        );
        assert_eq!(
            ok(&["--tenants", "1000", "--tenants=12"]),
            Cli {
                tenants: Some(12),
                ..base.clone()
            }
        );
        // A zero width clamps to the inline runner.
        assert_eq!(ok(&["--jobs", "0"]), base);
        set_jobs(1); // do not leak the globals into other tests
        set_sample_sets(0);
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        for args in [
            &["--fsat"][..],
            &["fast"],
            &["--fast=1"],
            &["--fast", "--mystery"],
        ] {
            let err = Cli::parse(&argv(args)).expect_err("unknown argument");
            assert!(err.starts_with("unknown argument"), "{args:?}: {err}");
        }
    }

    #[test]
    fn cli_rejects_missing_values() {
        for args in [
            &["--jobs"][..],
            &["--jobs="],
            &["--sample-sets"],
            &["--tenants"],
            &["--metrics-out"],
            &["--frames-out="],
        ] {
            let err = Cli::parse(&argv(args)).expect_err("missing value");
            assert!(err.ends_with("needs a value"), "{args:?}: {err}");
        }
    }

    #[test]
    fn cli_rejects_malformed_counts() {
        for args in [
            &["--jobs", "x"][..],
            &["--jobs=2.5"],
            &["--sample-sets", "-1"],
            &["--tenants", "x"],
            &["--tenants", "99999999999"],
        ] {
            let err = Cli::parse(&argv(args)).expect_err("malformed count");
            assert!(err.contains("non-negative integer"), "{args:?}: {err}");
        }
    }

    #[test]
    fn sample_sets_maps_to_fidelity() {
        set_sample_sets(0);
        assert_eq!(llc_fidelity(), llc_sim::SimFidelity::Full);
        set_sample_sets(1);
        assert_eq!(llc_fidelity(), llc_sim::SimFidelity::Full);
        set_sample_sets(8);
        assert_eq!(llc_fidelity(), llc_sim::SimFidelity::Sampled { one_in: 8 });
        set_sample_sets(0);
    }

    #[test]
    fn runner_output_is_byte_identical_across_widths() {
        let run = |jobs: usize| {
            report::capture(|| {
                let r = Runner::new(jobs);
                let sums = r.map((0..24u64).collect(), |i, seed| {
                    let mut rng = smallrng::SmallRng::seed_from_u64(seed);
                    let sum = (0..500)
                        .map(|_| rng.next_u64())
                        .fold(0u64, u64::wrapping_add);
                    report::say(format!("task {i}: {sum}"));
                    sum
                });
                sums
            })
        };
        let (v1, out1) = run(1);
        let (v4, out4) = run(4);
        assert_eq!(v1, v4);
        assert_eq!(out1, out4);
        assert!(out1.starts_with("task 0: "));
        assert_eq!(out1.lines().count(), 24);
    }

    #[test]
    fn runner_metrics_are_byte_identical_across_widths() {
        // Worker metrics funnel through capture_obs/emit_obs; the merged
        // snapshot (and its rendered exports) must not depend on width.
        let run = |jobs: usize| {
            let ((), _text, snap) = report::capture_obs(|| {
                let r = Runner::new(jobs);
                let _ = r.map((0..16u64).collect(), |i, seed| {
                    report::record(|reg| {
                        reg.counter_add("tasks_total", &[], 1);
                        let label = if seed % 2 == 0 { "even" } else { "odd" };
                        reg.counter_add("tasks_by_parity", &[("parity", label)], 1);
                        reg.histogram_observe(
                            "task_index",
                            &[],
                            dcat_obs::DEFAULT_STEP_BUCKETS,
                            i as u64,
                        );
                    });
                });
            });
            snap
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(
            a.get("tasks_total", &[]),
            Some(&dcat_obs::MetricValue::Counter(16))
        );
    }
}
