//! Measurement plumbing shared by the workloads: timing samples and their
//! percentiles, output checks counted against attempts, the digest of
//! simulated statistics, the metric ledger of one run, and the peak-RSS
//! probe.

use std::collections::BTreeMap;

use perf_events::convert::{counter_to_f64, len_to_f64};

use crate::spec;

/// Nanoseconds to the given unit's scale.
pub const NS_PER_US: f64 = 1e3;
pub const NS_PER_MS: f64 = 1e6;
pub const NS_PER_S: f64 = 1e9;

/// Fewest samples a reported percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Durations in nanoseconds on the benchmark's clock.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank `p`th percentile and how many samples lie beyond it;
    /// `None` when there are no samples.
    pub fn percentile(&self, p: usize) -> Option<(u64, usize)> {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = (p * n).div_ceil(100).clamp(1, n.max(1));
        sorted.get(rank - 1).map(|&v| (v, n - rank))
    }

    /// The median in nanoseconds (0 when empty).
    pub fn median(&self) -> u64 {
        self.percentile(50).map_or(0, |(v, _)| v)
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            counter_to_f64(self.total_ns()) / len_to_f64(self.0.len())
        }
    }
}

/// Work per host second of one operation that did `work` in `ns`.
pub fn rate(work: u64, ns: u64) -> f64 {
    ratio(work, ns) * NS_PER_S
}

/// The median of `xs` (0 when empty).
pub fn median_f64(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// `num / den` as a float, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        counter_to_f64(num) / counter_to_f64(den)
    }
}

/// Operations and output checks of one run. Each one counts as an
/// attempt; `ok_rate` is the share that succeeded.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one attempt, recording `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Counts one attempt that succeeded when `result` is `Ok`.
    pub fn check_ok<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn ok_rate(&self) -> f64 {
        1.0 - ratio(self.failed, self.attempted)
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// FNV-1a over the canonical text of a workload's simulated statistics.
/// Host timings never enter it, so it is identical across runs of one
/// seed, traced or not.
#[derive(Debug, Clone)]
pub struct Digest {
    hash: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Digest {
    pub fn feed(&mut self, text: &str) {
        for b in text.bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Metric values of one run, by catalog name. Units come from the
/// catalog; a layer a workload does not reach is recorded as such.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
    /// Layers (by name prefix) this workload does not exercise.
    idle_layers: Vec<&'static str>,
    /// Free-form lines printed with the report (bases of ratios, load
    /// checks, sample counts).
    notes: Vec<String>,
}

impl Ledger {
    /// Records `value` under the catalog metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalog: that is a bug in this
    /// program, caught by the self-test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::find(name).is_some(),
            "metric {name} missing from the catalog"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Marks every metric under `prefix` (a layer, or one metric) as not
    /// measured on this workload; they read 0.
    pub fn idle(&mut self, prefix: &'static str) {
        self.idle_layers.push(prefix);
        for m in spec::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with(prefix))
        {
            self.values.entry(m.name).or_insert(0.0);
        }
    }

    pub fn is_idle(&self, name: &str) -> bool {
        self.idle_layers.iter().any(|p| name.starts_with(p))
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Records the `p`th percentile of `samples` (in `scale` nanoseconds
    /// per unit) under `name`, with the sample count in the notes. Above
    /// the median it counts as a failed check when fewer than
    /// [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn percentile(
        &mut self,
        checks: &mut Checks,
        label: &str,
        samples: &Samples,
        scale: f64,
        (name, p): (&'static str, usize),
    ) {
        let (v, beyond) = samples.percentile(p).unwrap_or((0, 0));
        if p > 50 {
            checks.check(beyond >= TAIL_SAMPLES, || {
                format!(
                    "{label}: p{p} has {beyond} samples beyond it (n={}), needs {TAIL_SAMPLES}",
                    samples.len()
                )
            });
        }
        self.set(name, counter_to_f64(v) / scale);
        self.note(format!(
            "{label}: p{p} {:.4} (n={}, {beyond} beyond)",
            counter_to_f64(v) / scale,
            samples.len()
        ));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each workload
/// runs in a process of its own, so the figure is that workload's.
pub fn peak_rss_mib() -> Result<f64, String> {
    // lint: allow(DL005, the process's own status file; nothing is written)
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    Ok(counter_to_f64(kib) / 1024.0)
}

/// Jain's fairness index over `xs`, counting only positive values.
pub fn jain(xs: &[u64]) -> f64 {
    let vals: Vec<f64> = xs
        .iter()
        .filter(|&&v| v > 0)
        .map(|&v| counter_to_f64(v))
        .collect();
    let sum: f64 = vals.iter().sum();
    let sq: f64 = vals.iter().map(|x| x * x).sum();
    if vals.is_empty() || sq <= 0.0 {
        1.0
    } else {
        sum * sum / (len_to_f64(vals.len()) * sq)
    }
}

/// Normalized IPC per domain: each domain's values are averaged, then
/// the domains' averages give the mean and the worst domain.
#[derive(Debug, Default)]
pub struct PerDomain {
    sums: BTreeMap<String, (f64, u64)>,
}

impl PerDomain {
    pub fn add(&mut self, domain: &str, v: f64) {
        let slot = self.sums.entry(domain.to_string()).or_insert((0.0, 0));
        slot.0 += v;
        slot.1 += 1;
    }

    pub fn domains(&self) -> usize {
        self.sums.len()
    }

    /// Mean over domains of their averages, and the lowest average.
    pub fn mean_min(&self) -> (f64, f64) {
        let avgs: Vec<f64> = self
            .sums
            .values()
            .map(|&(s, n)| s / counter_to_f64(n))
            .collect();
        mean_min(&avgs)
    }
}

/// Mean and minimum of `xs` (both 0 when empty).
pub fn mean_min(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / len_to_f64(xs.len());
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    (mean, min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_its_tail_count() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.percentile(50), Some((50, 50)));
        assert_eq!(s.percentile(90), Some((90, 10)));
        assert_eq!(s.percentile(99), Some((99, 1)));
        assert_eq!(Samples::default().percentile(50), None);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "bad".into());
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        assert!((c.ok_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.failures(), ["bad".to_string()]);
    }

    #[test]
    fn jain_is_one_for_equal_shares() {
        assert!((jain(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!(jain(&[1, 9]) < 1.0);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Digest::default();
        a.feed("epoch=1 ins=5");
        let mut b = Digest::default();
        b.feed("epoch=1 ins=6");
        assert_ne!(a.hex(), b.hex());
    }
}
