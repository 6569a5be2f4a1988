//! Pieces the three workloads share: the run context, a workload's
//! outcome, the per-epoch tally behind the simulated metrics and load
//! checks, and the per-layer figures more than one workload reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use dcat::DomainReport;
use dcat_obs::CycleSource;
use perf_events::convert::{counter_to_f64, len_to_f64};

use crate::measure::{jain, ratio, Checks, Ledger, PerDomain, Samples, NS_PER_US};
use crate::mirror::{self, Mirror};
use crate::trace::SpanLog;

/// What a run measures with and for how long.
pub struct RunCtx<'a> {
    pub clock: &'a mut dyn CycleSource,
    /// Nanoseconds of timed operations the run aims for.
    pub budget_ns: u64,
    /// Scratch directory for fixture trees and telemetry files.
    pub work_dir: PathBuf,
    /// Directories handed out by [`RunCtx::fresh_dir`] so far.
    pub dirs: u64,
}

impl RunCtx<'_> {
    /// A directory under the scratch directory that no earlier call
    /// returned. Nothing is deleted while the run measures; the whole
    /// scratch directory is removed when it ends.
    pub fn fresh_dir(&mut self, stem: &str) -> PathBuf {
        self.dirs += 1;
        self.work_dir.join(format!("{stem}-{}", self.dirs))
    }

    /// Whether a loop that started at `start` has spent `budget_ns` and
    /// timed at least `min_ops` operations.
    pub fn spent(&mut self, start: u64, budget_ns: u64, ops: usize, min_ops: usize) -> bool {
        ops >= min_ops && self.clock.now_cycles().saturating_sub(start) >= budget_ns
    }
}

/// Everything one workload run reports.
pub struct Outcome {
    pub workload: &'static str,
    pub ledger: Ledger,
    pub checks: Checks,
    /// Digest of the simulated statistics (hex).
    pub digest: String,
    /// Span logs of the traced passes, by pass name.
    pub spans: Vec<(&'static str, SpanLog)>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            ledger: Ledger::default(),
            checks: Checks::default(),
            digest: String::new(),
            spans: Vec::new(),
        }
    }
}

/// Canonical text of one tick's reports, for digests.
pub fn reports_text(tick: u64, reports: &[DomainReport]) -> String {
    let mut t = String::new();
    for r in reports {
        let _ = writeln!(
            t,
            "t{tick} {} class={} ways={} cbm={:?} ipc={:?} norm={:?} miss={:?} phase={} base={:?} \
             skipped={}",
            r.name,
            r.class,
            r.ways,
            r.cbm,
            r.ipc,
            r.norm_ipc,
            r.llc_miss_rate,
            r.phase_changed,
            r.baseline_ipc,
            r.skipped
        );
    }
    t
}

/// Running totals over the epochs (or ticks) that feed the simulated
/// metrics and the load checks.
#[derive(Debug, Default)]
pub struct EpochTally {
    classes: BTreeMap<String, u64>,
    phase_changes: u64,
    ways_moved: u64,
    prev_ways: BTreeMap<String, u32>,
    norm_ipc: PerDomain,
    instructions: Vec<u64>,
    llc_miss: u64,
    l1_ref: u64,
    ticks: u64,
}

impl EpochTally {
    /// Counts one tick's Figure-6 classes, phase changes, way moves and
    /// normalized IPCs.
    pub fn observe(&mut self, reports: &[DomainReport]) {
        self.ticks += 1;
        for r in reports {
            *self.classes.entry(r.class.to_string()).or_default() += 1;
            self.phase_changes += u64::from(r.phase_changed);
            if let Some(prev) = self.prev_ways.insert(r.name.clone(), r.ways) {
                self.ways_moved += u64::from(prev.abs_diff(r.ways));
            }
            // Only domains that ran this interval: an idle one reads 0.
            if let Some(v) = r.norm_ipc.filter(|v| v.is_finite() && r.ipc > 0.0) {
                self.norm_ipc.add(&r.name, v);
            }
        }
    }

    /// Adds one tick's per-domain instructions, in domain order.
    pub fn instructions(&mut self, per_domain: impl Iterator<Item = u64>) {
        for (i, v) in per_domain.enumerate() {
            match self.instructions.get_mut(i) {
                Some(slot) => *slot += v,
                None => self.instructions.push(v),
            }
        }
    }

    pub fn misses(&mut self, llc_miss: u64, l1_ref: u64) {
        self.llc_miss += llc_miss;
        self.l1_ref += l1_ref;
    }

    pub fn phase_changes(&self) -> u64 {
        self.phase_changes
    }

    pub fn ways_moved(&self) -> u64 {
        self.ways_moved
    }

    /// Sets the simulated metrics and prints the load checks.
    pub fn report(&self, l: &mut Ledger) {
        let (mean, min) = self.norm_ipc.mean_min();
        l.set("norm_ipc_mean", mean);
        l.set("norm_ipc_min", min);
        l.set("jain_fairness", jain(&self.instructions));
        l.set("dcat.policy.ways_moved", counter_to_f64(self.ways_moved));
        l.set(
            "dcat.policy.phase_changes",
            counter_to_f64(self.phase_changes),
        );
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        l.note(format!(
            "load: {} ticks; classes {}; phase_changes {}; ways_moved {}; llc_miss_frac {:.4} \
             ({} misses / {} refs); norm_ipc averaged per domain over {} domains; jain over {} domains",
            self.ticks,
            classes.join(" "),
            self.phase_changes,
            self.ways_moved,
            ratio(self.llc_miss, self.l1_ref),
            self.llc_miss,
            self.l1_ref,
            self.norm_ipc.domains(),
            self.instructions.len(),
        ));
    }
}

/// Validates a `dcat-frames/v1` stream with `parse_stream`, counting the
/// check. Returns the validation time and the number of frames.
pub fn validate_frames(
    ctx: &mut RunCtx<'_>,
    out: &mut Outcome,
    label: &str,
    text: &str,
    expected_frames: Option<usize>,
) -> (u64, usize) {
    let t0 = ctx.clock.now_cycles();
    let parsed = dcat_obs::frames::parse_stream(text);
    let ns = ctx.clock.now_cycles().saturating_sub(t0);
    let frames = match out.checks.check_ok(label, parsed) {
        Some(segments) => segments.iter().map(|s| s.frames.len()).sum(),
        None => 0,
    };
    if let Some(want) = expected_frames {
        out.checks.check(frames == want, || {
            format!("{label}: {frames} frames, expected {want}")
        });
    }
    (ns, frames)
}

/// `trace.overhead_frac`: traced median operation over untraced, minus 1.
pub fn overhead(l: &mut Ledger, plain: &Samples, traced: &Samples) {
    let (u, t) = (plain.median(), traced.median());
    let frac = if u == 0 {
        0.0
    } else {
        (counter_to_f64(t) - counter_to_f64(u)) / counter_to_f64(u)
    };
    l.set("trace.overhead_frac", frac);
    l.note(format!(
        "trace.overhead_frac = ({t} ns traced - {u} ns untraced) / {u} ns (medians of {} and {} ops)",
        traced.len(),
        plain.len()
    ));
}

/// `dcat.policy.ticks` and the tick-time percentiles.
pub fn policy_ticks(l: &mut Ledger, ticks: &Samples) {
    let (p50, _) = ticks.percentile(50).unwrap_or((0, 0));
    let (p99, beyond) = ticks.percentile(99).unwrap_or((0, 0));
    l.set("dcat.policy.ticks", len_to_f64(ticks.len()));
    l.set("dcat.policy.tick_us_p50", counter_to_f64(p50) / NS_PER_US);
    l.set("dcat.policy.tick_us_p99", counter_to_f64(p99) / NS_PER_US);
    l.note(format!(
        "dcat.policy tick: n={} p50 {p50} ns, p99 {p99} ns with {beyond} samples beyond",
        ticks.len()
    ));
}

/// `obs.frames.*` from the push spans and the validated stream.
pub fn frame_costs(l: &mut Ledger, pushes: &Samples, text: &str, validated: (u64, usize)) {
    let (validate_ns, frames) = validated;
    let header = text.lines().next().map_or(0, str::len);
    let body = text.len().saturating_sub(header);
    l.set("obs.frames.encode_us", pushes.mean() / NS_PER_US);
    l.set(
        "obs.frames.bytes_per_tick",
        len_to_f64(body) / len_to_f64(frames.max(1)),
    );
    l.set(
        "obs.frames.validate_us",
        counter_to_f64(validate_ns) / len_to_f64(frames.max(1)) / NS_PER_US,
    );
    l.note(format!(
        "obs.frames: {} pushes; {body} bytes over {frames} frames; validate {validate_ns} ns",
        pushes.len()
    ));
}

/// The layers beneath `run_epoch`, from the mirror's ledger, and the
/// engine's self time as the residual of the real `run_epoch` spans.
pub fn ref_layers(l: &mut Ledger, m: &Mirror, log: &SpanLog) {
    let g = &m.ledger;
    let per = |ns: u64, n: u64| ratio(ns, n);
    let accesses = g.accesses();
    l.set("workloads.refs", counter_to_f64(g.refs));
    l.set("workloads.ns_per_ref", per(g.stream_ns, g.refs));
    l.set("llc-sim.paging.translates", counter_to_f64(g.translates));
    l.set(
        "llc-sim.paging.ns_per_translate",
        per(g.translate_ns, g.translates),
    );
    l.set("llc-sim.paging.pages_mapped", len_to_f64(m.pages_mapped()));
    l.set("llc-sim.paging.fault_frac", ratio(g.faults, g.translates));
    l.set("llc-sim.hierarchy.accesses", counter_to_f64(accesses));
    l.set(
        "llc-sim.hierarchy.ns_per_access",
        per(g.access_ns, accesses),
    );
    l.set("llc-sim.hierarchy.l1_hit_frac", ratio(g.l1.count, accesses));
    l.set("llc-sim.hierarchy.l2_hit_frac", ratio(g.l2.count, accesses));
    l.set(
        "llc-sim.hierarchy.llc_hit_frac",
        ratio(g.llc.count, accesses),
    );
    l.set(
        "llc-sim.hierarchy.llc_miss_frac",
        ratio(g.dram.count, accesses),
    );
    l.set(
        "llc-sim.hierarchy.ns_l1_hit",
        per(g.l1.timed_ns, g.l1.timed),
    );
    l.set(
        "llc-sim.hierarchy.ns_l2_hit",
        per(g.l2.timed_ns, g.l2.timed),
    );
    l.set(
        "llc-sim.hierarchy.ns_llc_hit",
        per(g.llc.timed_ns, g.llc.timed),
    );
    l.set(
        "llc-sim.hierarchy.ns_llc_miss",
        per(g.dram.timed_ns, g.dram.timed),
    );
    l.note(format!(
        "replay: {} refs, {} faults, accesses l1/l2/llc/dram = {}/{}/{}/{}; timed one by one \
         {}/{}/{}/{}",
        g.refs,
        g.faults,
        g.l1.count,
        g.l2.count,
        g.llc.count,
        g.dram.count,
        g.l1.timed,
        g.l2.timed,
        g.llc.timed,
        g.dram.timed
    ));

    let run_epoch = log.total(mirror::SPAN_RUN_EPOCH);
    let beneath = g.stream_ns + g.translate_ns + g.access_ns;
    let residual = counter_to_f64(run_epoch) - counter_to_f64(beneath);
    let self_frac = if run_epoch == 0 {
        0.0
    } else {
        residual / counter_to_f64(run_epoch)
    };
    l.set("host.engine.self_frac", self_frac);
    l.note(format!(
        "host.engine.self_frac = ({run_epoch} ns run_epoch - {beneath} ns replayed \
         stream+translate+access) / {run_epoch} ns, over {} replayed epochs",
        log.samples(mirror::SPAN_RUN_EPOCH).len()
    ));
}
