//! `daemon_ticks`: `dcatd`'s own loop, `dcat::daemon::run_daemon_observed`,
//! with interval 0 and the max-performance allocator, on 12 domains of a
//! 20-way, 16-COS `FsBackend::create_fixture` tree.
//!
//! The observer callback plays the sampler: after each tick it rewrites
//! the telemetry CSV from a seeded counter model whose domains move
//! through phases and respond to the ways they were granted, and waits
//! for the filesystem to write out what the tick wrote. Each tick's frame
//! is encoded and appended to an in-memory frame stream, as `dcatd
//! --frames-out` appends it to a file. A tick is timed from the end of one
//! callback to the start of the next, plus the frame encode and append;
//! the sampler's turn is left out.
//!
//! The daemon runs in chunks of a fixed number of ticks, each on a fresh
//! fixture tree from the same seed, until the budget is spent. Every chunk
//! must reproduce the first one exactly. A chunk's set-up (fixture tree,
//! counter model, the daemon's start and first tick) is one `setup_s`
//! sample; its first tick is not a timed operation.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig, ObsOptions, ResiliencePolicy};
use dcat::{CachePolicy, DcatConfig, DcatController, DomainReport, Event, WorkloadHandle};
use dcat_bench::perf::harness::FakeClock;
use dcat_bench::timing::WallClock;
use dcat_obs::{CycleSource, FrameWriter, MetricValue, PolicyExt};
use perf_events::convert::counter_to_f64;
use perf_events::CounterSnapshot;
use resctrl::{CacheController, CatCapabilities, Cbm, CosId, FsBackend, ResctrlError};
use smallrng::{split_seed, SmallRng};

use crate::common::{self, EpochTally, Outcome, RunCtx};
use crate::measure::{
    median_f64, rate, ratio, Checks, Digest, Samples, NS_PER_MS, NS_PER_S, NS_PER_US,
};
use crate::trace::SpanLog;

const WAYS: u32 = 20;
const SPAN_TICK: &str = "dcat.daemon.tick";
const SPAN_PUSH: &str = "obs.frames.push";
const SPAN_PARSE: &str = "dcat.telemetry.parse";
const SPAN_POLICY: &str = "dcat.policy.tick";

/// Sizes of one `daemon_ticks` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub domains: u32,
    /// Ticks per daemon run (chunk).
    pub chunk_ticks: u64,
    /// Fewest timed ticks per run.
    pub min_ops: usize,
    /// Fewest chunks per run (each gives one `setup_s` sample).
    pub min_chunks: usize,
    /// Whether the self-test's fake clock times the replay's resctrl calls.
    pub fake_clock: bool,
    /// Shortest phase of the counter model in ticks; a domain's four
    /// phases last one to four times this.
    pub phase_ticks: u64,
}

impl Params {
    pub const FULL: Params = Params {
        domains: 12,
        chunk_ticks: 1000,
        min_ops: 1000,
        min_chunks: 5,
        fake_clock: false,
        phase_ticks: 100,
    };

    pub const TINY: Params = Params {
        domains: 12,
        chunk_ticks: 60,
        min_ops: 1000,
        min_chunks: 2,
        fake_clock: true,
        phase_ticks: 10,
    };
}

/// One phase of a domain's counter model.
#[derive(Debug, Clone, Copy)]
struct PhaseModel {
    /// Memory references per 1000 instructions (dCat's phase signature).
    mem_per_kilo: u64,
    /// LLC references per 1000 instructions.
    llc_per_kilo: u64,
    /// Ways at which the working set fits; 0 for a streaming phase.
    fit_ways: u32,
    ticks: u64,
}

impl PhaseModel {
    /// LLC miss rate in per mille with `ways` granted.
    fn miss_permille(&self, ways: u32) -> u64 {
        if self.fit_ways == 0 {
            return 950;
        }
        let short = u64::from(self.fit_ways.saturating_sub(ways));
        20 + 900 * short / u64::from(self.fit_ways)
    }
}

struct DomainModel {
    phases: Vec<PhaseModel>,
    phase: usize,
    left: u64,
    totals: CounterSnapshot,
    rng: SmallRng,
}

/// The seeded counter model that plays the sampler.
struct Sampler {
    names: Vec<String>,
    domains: Vec<DomainModel>,
}

/// Phase signatures far enough apart that every switch crosses dCat's 10%
/// threshold.
const SIGNATURES: [u64; 4] = [150, 230, 330, 460];

/// `0..n` in an order drawn from `rng` (Fisher-Yates).
fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range_usize(0..i + 1));
    }
    v
}

impl Sampler {
    /// Every domain cycles through one phase of each kind — streaming, a
    /// small working set, a large one, no LLC use — with one of four fixed
    /// lengths each, and the working-set sizes spread evenly over the
    /// domains, so every seed carries the same mix. The seed draws the
    /// order of the phases, their signatures and lengths, and the noise.
    fn new(p: &Params, seed: u64) -> Self {
        let mut names = Vec::new();
        let mut domains = Vec::new();
        for d in 0..p.domains {
            names.push(format!("vm{d:02}"));
            let mut rng = SmallRng::seed_from_u64(split_seed(seed, 200 + u64::from(d)));
            let kinds = shuffled(4, &mut rng);
            let sigs = shuffled(SIGNATURES.len(), &mut rng);
            let lengths = shuffled(4, &mut rng);
            let phases: Vec<PhaseModel> = kinds
                .iter()
                .zip(&sigs)
                .zip(&lengths)
                .map(|((&kind, &sig), &len)| PhaseModel {
                    mem_per_kilo: SIGNATURES.get(sig).copied().unwrap_or(150),
                    llc_per_kilo: if kind == 3 { 0 } else { 12 },
                    fit_ways: match kind {
                        0 | 3 => 0,
                        1 => 1 + d % 2,
                        _ => 3 + d % 6,
                    },
                    ticks: p.phase_ticks * (1 + u64::try_from(len).unwrap_or(0)),
                })
                .collect();
            let left = phases.first().map_or(1, |ph| ph.ticks);
            domains.push(DomainModel {
                phases,
                phase: 0,
                left,
                totals: CounterSnapshot::default(),
                rng,
            });
        }
        Sampler { names, domains }
    }

    /// Advances every domain by one interval under the ways it holds and
    /// returns the telemetry text plus the instructions it retired.
    fn advance(&mut self, ways: &[u32]) -> (String, u64) {
        let mut text = String::from("# name,l1_ref,llc_ref,llc_miss,ret_ins,cycles\n");
        let mut retired = 0;
        for ((name, d), &w) in self.names.iter().zip(&mut self.domains).zip(ways) {
            if d.left == 0 {
                d.phase = (d.phase + 1) % d.phases.len().max(1);
                d.left = d.phases.get(d.phase).map_or(1, |ph| ph.ticks);
            }
            d.left -= 1;
            let Some(ph) = d.phases.get(d.phase).copied() else {
                continue;
            };
            let miss = ph.miss_permille(w);
            // Cycles per 1000 instructions: 700 of execution plus a
            // 200-cycle stall per LLC miss.
            let cpi_milli = 700 + ph.llc_per_kilo * miss * 200 / 1000;
            let cycles = 1_000_000_000 + d.rng.gen_range(0..2_000_000);
            let ins = cycles * 1000 / cpi_milli;
            let jitter = 995 + d.rng.gen_range(0..11);
            let l1 = ins * ph.mem_per_kilo / 1000 * jitter / 1000;
            let llc = ins * ph.llc_per_kilo / 1000;
            let delta = CounterSnapshot {
                l1_ref: l1,
                llc_ref: llc,
                llc_miss: llc * miss / 1000,
                ret_ins: ins,
                cycles,
            };
            d.totals = d.totals.merged_with(&delta);
            retired += ins;
            let t = d.totals;
            text.push_str(&format!(
                "{name},{},{},{},{},{}\n",
                t.l1_ref, t.llc_ref, t.llc_miss, t.ret_ins, t.cycles
            ));
        }
        (text, retired)
    }
}

/// The domains the daemon manages: two cores each; a third of them,
/// drawn from the seed, reserve two ways, the rest one.
fn domains(p: &Params, seed: u64) -> Vec<WorkloadHandle> {
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 300));
    let order = shuffled(usize::try_from(p.domains).unwrap_or(0), &mut rng);
    let wide = order.len() / 3;
    (0..p.domains)
        .zip(order)
        .map(|(d, rank)| {
            let ways = if rank < wide { 2 } else { 1 };
            WorkloadHandle::new(format!("vm{d:02}"), vec![2 * d, 2 * d + 1], ways)
        })
        .collect()
}

/// Rewrites the telemetry file in place. The counters only grow, so the
/// text never shrinks and the file is never truncated.
///
/// With `settle`, it then waits until the filesystem has written out
/// everything pending (on ext4, an fsync commits the journal, which waits
/// for the data of every file in it, the daemon's schemata included). A
/// daemon ticking once per interval finds its disk idle at each tick; at
/// interval 0 the next tick would otherwise queue behind the writeback of
/// the ones before it and measure the disk instead of the daemon. The
/// wait is part of the sampler's turn, outside the timed tick.
fn write_file(path: &Path, text: &str, settle: bool) -> Result<(), String> {
    let written = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .and_then(|mut f| {
            f.write_all(text.as_bytes())?;
            f.set_len(u64::try_from(text.len()).unwrap_or(u64::MAX))?;
            if settle {
                f.sync_all()?;
            }
            Ok(())
        });
    written.map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<String, String> {
    // lint: allow(DL005, reading back the fixture tree for output checks)
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one chunk produced.
struct Chunk {
    setup_ns: u64,
    ticks: Samples,
    /// The counter model's instructions per host second of each tick.
    rates: Vec<f64>,
    digest: String,
    tally: EpochTally,
    outcome_counts: (u64, u64, u64),
    /// Telemetry text the daemon read at each tick, and the reports it
    /// produced, for the replay.
    texts: Vec<String>,
    reports: Vec<Vec<DomainReport>>,
    frames_text: String,
}

fn counter_total(snap: &dcat_obs::Snapshot, name: &str) -> u64 {
    snap.iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// The cbm programmed for each core, read back from the fixture tree.
fn schemata_by_core(root: &Path, caps: CatCapabilities) -> Result<BTreeMap<u32, Cbm>, String> {
    let mut by_core = BTreeMap::new();
    for cos in 0..caps.num_closids {
        let dir = if cos == 0 {
            root.to_path_buf()
        } else {
            root.join(format!("COS{cos}"))
        };
        let cbm = resctrl::fs::parse_schemata(&read_file(&dir.join("schemata"))?)
            .map_err(|e| e.to_string())?;
        let cores = resctrl::fs::parse_cpu_list(&read_file(&dir.join("cpus_list"))?)
            .map_err(|e| e.to_string())?;
        for core in cores {
            by_core.insert(core, cbm);
        }
    }
    Ok(by_core)
}

/// Waits until the filesystem has committed everything written or
/// deleted before this run (on ext4 an fsync commits the journal), so that
/// a run does not pay for the fixture trees an earlier run removed.
fn settle(dir: &Path) -> Result<(), String> {
    // lint: allow(DL005, creating and syncing the run's own scratch directory)
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::open(dir)?.sync_all())
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// Runs one chunk of the daemon and checks its outputs.
fn chunk(
    ctx: &mut RunCtx<'_>,
    p: &Params,
    seed: u64,
    checks: &mut Checks,
    mut log: Option<&mut SpanLog>,
) -> Result<Chunk, String> {
    let t0 = ctx.clock.now_cycles();
    let dir = ctx.fresh_dir("daemon");
    let root = dir.join("resctrl");
    let caps = CatCapabilities::with_ways(WAYS);
    FsBackend::create_fixture(&root, caps, 2 * p.domains).map_err(|e| format!("fixture: {e}"))?;
    let handles = domains(p, seed);
    let mut sampler = Sampler::new(p, seed);
    let reserved: Vec<u32> = handles.iter().map(|h| h.reserved_ways).collect();
    let (mut text, _) = sampler.advance(&reserved);
    let telemetry = dir.join("telemetry.csv");
    write_file(&telemetry, &text, false)?;
    let mut writer = FrameWriter::new("dcatd");

    let cfg = DaemonConfig {
        resctrl_root: root.clone(),
        telemetry_path: telemetry.clone(),
        domains: handles.clone(),
        dcat: DcatConfig::max_performance(),
        interval: Duration::ZERO,
        max_ticks: Some(p.chunk_ticks),
        resilience: ResiliencePolicy::default(),
        fault_plan: None,
        obs: ObsOptions::default(),
    };
    let ext = PolicyExt {
        cos: p.domains,
        ..PolicyExt::default()
    };

    let mut setup_ns = 0;
    let mut ticks = Samples::default();
    let mut rates = Vec::new();
    let mut digest = Digest::default();
    let mut tally = EpochTally::default();
    let mut texts = Vec::new();
    let mut reports_log = Vec::new();
    let mut degraded = 0u64;
    let mut violations = 0u64;
    let mut io_error: Option<String> = None;
    let mut prev_end: Option<u64> = None;
    let mut pending_instructions = 0;
    let clock = &mut *ctx.clock;
    let outcome = run_daemon_observed(&cfg, |obs| {
        let start = clock.now_cycles();
        writer.push(dcat::frame_from_observation(obs, "dcat", ext));
        let pushed = clock.now_cycles();
        match prev_end {
            None => setup_ns = pushed.saturating_sub(t0),
            Some(prev) => {
                let tick_ns = start.saturating_sub(prev) + pushed.saturating_sub(start);
                ticks.push(tick_ns);
                rates.push(rate(pending_instructions, tick_ns));
                if let Some(log) = log.as_deref_mut() {
                    log.record(SPAN_TICK, prev, start);
                    log.record(SPAN_PUSH, start, pushed);
                }
            }
        }

        // Bookkeeping and the sampler's rewrite are outside the tick.
        degraded += u64::from(obs.degraded);
        violations += u64::try_from(
            obs.events
                .iter()
                .filter(|e| matches!(e, Event::InvariantViolation { .. }))
                .count(),
        )
        .unwrap_or(u64::MAX);
        if !obs.degraded {
            tally.observe(obs.reports);
        }
        digest.feed(&common::reports_text(obs.tick, obs.reports));
        texts.push(std::mem::take(&mut text));
        reports_log.push(obs.reports.to_vec());
        let ways: Vec<u32> = if obs.reports.len() == reserved.len() {
            obs.reports.iter().map(|r| r.ways).collect()
        } else {
            reserved.clone()
        };
        let (next, retired) = sampler.advance(&ways);
        pending_instructions = retired;
        if let Err(e) = write_file(&telemetry, &next, true) {
            io_error.get_or_insert(e);
        }
        text = next;
        prev_end = Some(clock.now_cycles());
    })
    .map_err(|e| format!("daemon: {e}"))?;

    if let Some(e) = io_error {
        checks.check(false, || e);
    }
    checks.check(degraded == 0, || format!("{degraded} degraded ticks"));
    checks.check(violations == 0, || {
        format!("{violations} invariant violations")
    });
    let by_core = schemata_by_core(&root, caps)?;
    for r in &outcome.reports {
        let core = handles
            .iter()
            .find(|h| h.name == r.name)
            .and_then(|h| h.cores.first().copied());
        let programmed = core.and_then(|c| by_core.get(&c)).map(|c| u64::from(c.0));
        checks.check(programmed.is_some() && programmed == r.cbm, || {
            format!(
                "{}: schemata {programmed:?} but the report says {:?}",
                r.name, r.cbm
            )
        });
    }
    let frames_text = writer.into_string();
    let want = usize::try_from(p.chunk_ticks).unwrap_or(usize::MAX);
    match dcat_obs::frames::parse_stream(&frames_text) {
        Ok(segs) => {
            let n: usize = segs.iter().map(|s| s.frames.len()).sum();
            checks.check(n == want, || format!("daemon frames: {n}, expected {want}"));
        }
        Err(e) => {
            checks.check(false, || format!("daemon frames: {e}"));
        }
    }

    let counts = (
        counter_total(&outcome.metrics, "dcat_ticks_total"),
        counter_total(&outcome.metrics, "dcat_degraded_ticks_total"),
        counter_total(&outcome.metrics, "dcat_events_total"),
    );
    digest.feed(&common::reports_text(0, &outcome.reports));
    digest.feed(&format!(
        "ticks={} degraded={} events={}\n",
        counts.0, counts.1, counts.2
    ));
    digest.feed(&frames_text);
    tally.instructions(sampler.domains.iter().map(|d| d.totals.ret_ins));
    Ok(Chunk {
        setup_ns,
        ticks,
        rates,
        digest: digest.hex(),
        tally,
        outcome_counts: counts,
        texts,
        reports: reports_log,
        frames_text,
    })
}

/// Chunks until the budget is spent; returns them with the checks.
fn pass(
    ctx: &mut RunCtx<'_>,
    p: &Params,
    seed: u64,
    budget_ns: u64,
    mut log: Option<&mut SpanLog>,
    checks: &mut Checks,
) -> Result<Vec<Chunk>, String> {
    let start = ctx.clock.now_cycles();
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut ops = 0;
    while chunks.len() < p.min_chunks || !ctx.spent(start, budget_ns, ops, p.min_ops) {
        let mut c = chunk(ctx, p, seed, checks, log.as_deref_mut())?;
        ops += c.ticks.len();
        if let Some(first) = chunks.first() {
            checks.check(first.digest == c.digest, || {
                "a daemon chunk diverged from the first one of the same seed".into()
            });
            // Only the first chunk's recordings feed the replay.
            c.texts = Vec::new();
            c.reports = Vec::new();
            c.frames_text = String::new();
        }
        chunks.push(c);
    }
    Ok(chunks)
}

fn merged_ticks(chunks: &[Chunk]) -> Samples {
    let mut all = Samples::default();
    for c in chunks {
        all.extend(&c.ticks);
    }
    all
}

/// Runs `daemon_ticks`, untraced or traced.
pub fn run(ctx: &mut RunCtx<'_>, p: &Params, seed: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new("daemon_ticks");
    settle(&ctx.work_dir)?;
    if !traced {
        let chunks = pass(ctx, p, seed, ctx.budget_ns, None, &mut out.checks)?;
        report_untraced(&mut out, &chunks);
        return Ok(out);
    }
    let share = ctx.budget_ns / 3;
    let plain = pass(ctx, p, seed, share, None, &mut out.checks)?;
    let mut log = SpanLog::default();
    let traced_chunks = pass(ctx, p, seed, share, Some(&mut log), &mut out.checks)?;
    let (Some(a), Some(b)) = (plain.first(), traced_chunks.first()) else {
        return Err("no chunk ran".into());
    };
    out.checks.check(a.digest == b.digest, || {
        "traced and untraced digests differ".into()
    });
    out.digest = b.digest.clone();
    let plain_ticks = merged_ticks(&plain);
    let traced_ticks = merged_ticks(&traced_chunks);
    common::overhead(&mut out.ledger, &plain_ticks, &traced_ticks);
    report_traced(ctx, p, seed, &mut out, b, &plain_ticks, &log)?;
    for idle in ["workloads", "llc-sim", "host.engine", "bench.fleet"] {
        out.ledger.idle(idle);
    }
    out.spans.push(("traced", log));
    Ok(out)
}

fn report_untraced(out: &mut Outcome, chunks: &[Chunk]) {
    let mut setups = Samples::default();
    for c in chunks {
        setups.push(c.setup_ns);
    }
    let ticks = merged_ticks(chunks);
    let rates: Vec<f64> = chunks
        .iter()
        .flat_map(|c| c.rates.iter().copied())
        .collect();
    let l = &mut out.ledger;
    l.set("setup_s", counter_to_f64(setups.median()) / NS_PER_S);
    l.note(format!(
        "setup: median of {} chunk set-ups (fixture tree, daemon start, first tick)",
        setups.len()
    ));
    let per_chunk: Vec<String> = chunks
        .iter()
        .map(|c| format!("{:.0}", counter_to_f64(c.ticks.median()) / NS_PER_US))
        .collect();
    l.note(format!("tick p50 per chunk (us): {}", per_chunk.join(" ")));
    l.percentile(
        &mut out.checks,
        "tick (ms)",
        &ticks,
        NS_PER_MS,
        ("op_ms_p50", 50),
    );
    l.set("sim_instr_per_s", median_f64(&rates));
    if let Some(first) = chunks.first() {
        first.tally.report(l);
        load_checks(&mut out.checks, &first.tally);
        out.digest = first.digest.clone();
    }
}

/// A seed that makes the daemon trivial fails the run.
fn load_checks(checks: &mut Checks, tally: &EpochTally) {
    checks.check(tally.ways_moved() > 0, || {
        "daemon_ticks never moved a way".into()
    });
    checks.check(tally.phase_changes() > 0, || {
        "daemon_ticks never changed phase".into()
    });
}

/// The per-layer figures: the daemon's own, plus the replay of the first
/// traced chunk's telemetry through parse, policy tick over a timed
/// `FsBackend`, and frame encode.
fn report_traced(
    ctx: &mut RunCtx<'_>,
    p: &Params,
    seed: u64,
    out: &mut Outcome,
    first: &Chunk,
    ticks: &Samples,
    log: &SpanLog,
) -> Result<(), String> {
    first.tally.report(&mut out.ledger);
    load_checks(&mut out.checks, &first.tally);
    let (n_ticks, n_degraded, n_events) = first.outcome_counts;
    let l = &mut out.ledger;
    l.set("dcat.daemon.ticks", counter_to_f64(n_ticks));
    l.set("dcat.daemon.degraded_ticks", counter_to_f64(n_degraded));
    l.set("dcat.daemon.events", counter_to_f64(n_events));
    for tail in [
        ("dcat.daemon.tick_us_p90", 90),
        ("dcat.daemon.tick_us_p99", 99),
    ] {
        out.ledger.percentile(
            &mut out.checks,
            "untraced tick (us)",
            ticks,
            NS_PER_US,
            tail,
        );
    }
    let validated = common::validate_frames(
        ctx,
        out,
        "daemon frames",
        &first.frames_text,
        Some(first.texts.len()),
    );
    common::frame_costs(
        &mut out.ledger,
        &log.samples(SPAN_PUSH),
        &first.frames_text,
        validated,
    );

    let mut replay_log = SpanLog::default();
    let fs = replay(ctx, p, seed, first, &mut replay_log, &mut out.checks)?;
    let l = &mut out.ledger;
    let parse = replay_log.samples(SPAN_PARSE);
    let policy = replay_log.samples(SPAN_POLICY);
    common::policy_ticks(l, &policy);
    l.set("dcat.telemetry.parse_us", parse.mean() / NS_PER_US);
    l.set("dcat.telemetry.rows", ratio(fs.rows, count(parse.len())));
    l.set(
        "dcat.telemetry.malformed_rows",
        counter_to_f64(fs.malformed),
    );
    l.set("resctrl.fs.ops", counter_to_f64(fs.ops));
    l.set("resctrl.fs.us_per_op", ratio(fs.ns, fs.ops) / NS_PER_US);
    l.set(
        "resctrl.fs.ops_per_tick",
        ratio(fs.ops, count(policy.len())),
    );
    l.set("resctrl.fs.failed_ops", counter_to_f64(fs.failed));
    l.set(
        "resctrl.fs.noop_write_frac",
        ratio(fs.noop_writes, fs.writes),
    );
    l.note(format!(
        "resctrl.fs: {} ops in {} ns over {} ticks; {} of {} mask writes left the mask unchanged",
        fs.ops,
        fs.ns,
        policy.len(),
        fs.noop_writes,
        fs.writes
    ));
    let tick = ticks.mean();
    let pushes = log.samples(SPAN_PUSH).mean();
    let (parse_mean, policy_mean) = (parse.mean(), policy.mean());
    l.set(
        "dcat.policy.share_of_epoch",
        if tick > 0.0 { policy_mean / tick } else { 0.0 },
    );
    let self_frac = if tick > 0.0 {
        (tick - parse_mean - policy_mean - pushes) / tick
    } else {
        0.0
    };
    l.set("dcat.daemon.self_frac", self_frac);
    l.note(format!(
        "dcat.daemon.self_frac = ({tick:.0} ns tick - {parse_mean:.0} parse - {policy_mean:.0} \
         policy incl. resctrl - {pushes:.0} frame push) / {tick:.0} ns (means per tick)"
    ));
    out.spans.push(("replay", replay_log));
    Ok(())
}

fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Counts and times of every call into the filesystem backend.
#[derive(Debug, Default, Clone, Copy)]
struct FsTally {
    ops: u64,
    ns: u64,
    failed: u64,
    writes: u64,
    noop_writes: u64,
    rows: u64,
    malformed: u64,
}

/// `resctrl::CacheController` around `FsBackend` that times every call
/// and counts mask writes that change nothing.
struct TimedFs {
    inner: FsBackend,
    clock: Box<dyn CycleSource>,
    shadow: BTreeMap<u8, Cbm>,
    tally: FsTally,
}

impl TimedFs {
    fn call<T>(
        &mut self,
        f: impl FnOnce(&mut FsBackend) -> Result<T, ResctrlError>,
    ) -> Result<T, ResctrlError> {
        let t0 = self.clock.now_cycles();
        let r = f(&mut self.inner);
        self.tally.ns += self.clock.now_cycles().saturating_sub(t0);
        self.tally.ops += 1;
        self.tally.failed += u64::from(r.is_err());
        r
    }
}

impl CacheController for TimedFs {
    fn capabilities(&self) -> CatCapabilities {
        self.inner.capabilities()
    }

    fn num_cores(&self) -> u32 {
        self.inner.num_cores()
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        self.tally.writes += 1;
        let full = self.inner.capabilities().full_mask();
        if self.shadow.get(&cos.0).copied().unwrap_or(full) == cbm {
            self.tally.noop_writes += 1;
        }
        let r = self.call(|fs| fs.program_cos(cos, cbm));
        if r.is_ok() {
            self.shadow.insert(cos.0, cbm);
        }
        r
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        self.call(|fs| fs.assign_core(core, cos))
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        // `&self`: timed by the caller's policy span, counted here.
        self.inner.cos_mask(cos)
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        self.inner.core_cos(core)
    }

    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        self.call(|fs| fs.flush_cbm(cbm))
    }
}

/// Replays the recorded telemetry through the daemon's layers, one public
/// call at a time, and checks that the decisions match the daemon's.
fn replay(
    ctx: &mut RunCtx<'_>,
    p: &Params,
    seed: u64,
    first: &Chunk,
    log: &mut SpanLog,
    checks: &mut Checks,
) -> Result<FsTally, String> {
    let root: PathBuf = ctx.fresh_dir("replay").join("resctrl");
    let caps = CatCapabilities::with_ways(WAYS);
    let inner = FsBackend::create_fixture(&root, caps, 2 * p.domains)
        .map_err(|e| format!("replay fixture: {e}"))?;
    let clock: Box<dyn CycleSource> = if p.fake_clock {
        Box::new(FakeClock::new(1_000))
    } else {
        Box::new(WallClock::new())
    };
    let mut fs = TimedFs {
        inner,
        clock,
        shadow: BTreeMap::new(),
        tally: FsTally::default(),
    };
    let handles = domains(p, seed);
    let mut policy = DcatController::new(DcatConfig::max_performance(), handles.clone(), &mut fs)
        .map_err(|e| format!("replay controller: {e}"))?;
    // The controller's construction is set-up, not ticks.
    fs.tally = FsTally::default();
    let mut writer = FrameWriter::new("replay");
    let ext = PolicyExt {
        cos: p.domains,
        ..PolicyExt::default()
    };
    for (i, (text, want)) in first.texts.iter().zip(&first.reports).enumerate() {
        let tick = u64::try_from(i + 1).unwrap_or(u64::MAX);
        let (samples, issues) =
            log.span(ctx.clock, SPAN_PARSE, || dcat::parse_telemetry_lossy(text));
        fs.tally.rows += u64::try_from(samples.len()).unwrap_or(u64::MAX);
        fs.tally.malformed += u64::try_from(issues.len()).unwrap_or(u64::MAX);
        let snaps: Vec<CounterSnapshot> = handles
            .iter()
            .map(|h| samples.get(&h.name).copied().unwrap_or_default())
            .collect();
        let reports = log
            .span(ctx.clock, SPAN_POLICY, || {
                CachePolicy::tick(&mut policy, &snaps, &mut fs)
            })
            .map_err(|e| format!("replay tick {tick}: {e}"))?;
        let frame = dcat::frame_from_reports(tick, "dcat", &reports, ext);
        log.span(ctx.clock, "obs.frames.encode", || writer.push(frame));
        let ways = |r: &[DomainReport]| r.iter().map(|d| (d.ways, d.class)).collect::<Vec<_>>();
        checks.check(ways(&reports) == ways(want), || {
            format!("replay diverged from the daemon at tick {tick}")
        });
    }
    Ok(fs.tally)
}
