//! `fleet_churn`: `dcat_bench::run_fleet` with churning tenants, sampled
//! LLC sets (one in 8), 12-core hosts and a pool of at most `nproc`
//! workers. Successive calls rotate through `FleetPolicy::ALL`, so the
//! LFOC and Memshare policies run beside both dCat allocators. One
//! operation is one `run_fleet` call; every call starts from empty caches,
//! as a fleet run does.
//!
//! The traced run also replays host 0 — its tenants' streams, restarts
//! included — in lockstep with the mirror, which must reproduce both the
//! engine's counters and the real fleet run's per-tenant instructions.

use std::fmt::Write as _;

use dcat::DcatConfig;
use dcat_bench::fleet::{ServiceKind, CLASS_LABELS};
use dcat_bench::{run_fleet, FleetConfig, FleetPolicy, FleetResult, TenantSpec};
use host::{EngineConfig, VmSpec};
use llc_sim::{CacheGeometry, SimFidelity};
use perf_events::convert::{counter_to_f64, len_to_f64};
use smallrng::split_seed;

use crate::common::{self, EpochTally, Outcome, RunCtx};
use crate::measure::{
    mean_min, median_f64, rate, ratio, Checks, Digest, PerDomain, Samples, NS_PER_MS, NS_PER_S,
    NS_PER_US,
};
use crate::mirror::{self, Lockstep};
use crate::trace::SpanLog;

const SPAN_RUN: &str = "bench.fleet.run_fleet";

/// Sizes of one `fleet_churn` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub tenants: u32,
    pub epochs: u64,
    pub cycles_per_epoch: u64,
    pub sample_one_in: u32,
    /// Fewest timed calls per run (the p90 needs ten beyond it).
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    pub const FULL: Params = Params {
        tenants: 96,
        epochs: 8,
        cycles_per_epoch: 100_000,
        sample_one_in: 8,
        min_ops: 100,
        setups: 7,
    };

    pub const TINY: Params = Params {
        tenants: 24,
        epochs: 3,
        cycles_per_epoch: 10_000,
        sample_one_in: 8,
        min_ops: 100,
        setups: 2,
    };
}

/// Offset of host engine seeds in the fleet's seed streams (tenant ids
/// occupy the low streams), as `run_fleet` derives them.
const HOST_SEED_STREAM: u64 = 1 << 32;

/// Candidate fleet seeds tried per benchmark seed.
const FLEET_CANDIDATES: u64 = 100_000;

/// Percent weights of the services in `TenantSpec::generate`'s mix.
const MIX: [(ServiceKind, u64); 5] = [
    (ServiceKind::Redis, 35),
    (ServiceKind::Postgres, 25),
    (ServiceKind::Elasticsearch, 15),
    (ServiceKind::Analytics, 13),
    (ServiceKind::Streaming, 12),
];

/// The fleet of benchmark seed `seed`: the first candidate fleet seed
/// whose service counts are within one tenant of the mix's expected
/// counts, whose active tenant-epochs of each service are within 10% of a
/// typical fleet's, and that restarts at least one tenant. The seed still
/// draws every tenant's slot, lifetime, diurnal phase and workload seed;
/// only fleets far from the typical one, which would make one seed
/// measure a different amount of work from another, are passed over.
fn fleet_config(p: &Params, seed: u64) -> Result<FleetConfig, String> {
    let mut cfg = FleetConfig::new(p.tenants, true);
    cfg.tenants_per_host = 12;
    cfg.epochs = p.epochs;
    cfg.cycles_per_epoch = p.cycles_per_epoch;
    cfg.churn = true;
    cfg.llc_fidelity = SimFidelity::Sampled {
        one_in: p.sample_one_in,
    };
    let typical = typical_load(&cfg);
    for k in 0..FLEET_CANDIDATES {
        cfg.seed = split_seed(seed, 1_000 + k);
        let tenants = TenantSpec::generate(&cfg);
        if typical_mix(&tenants, &cfg, &typical) && restarts(&tenants, cfg.epochs) > 0 {
            return Ok(cfg);
        }
    }
    Err(format!(
        "no fleet near the typical one among {FLEET_CANDIDATES} candidates"
    ))
}

/// Active tenant-epochs of each service, in [`MIX`] order.
fn load(tenants: &[TenantSpec], epochs: u64) -> [u64; 5] {
    let mut out = [0; 5];
    for (slot, (kind, _)) in out.iter_mut().zip(MIX) {
        *slot = tenants
            .iter()
            .filter(|t| t.service == kind)
            .map(|t| {
                t.departure_epoch
                    .min(epochs)
                    .saturating_sub(t.arrival_epoch)
            })
            .sum();
    }
    out
}

/// Mean [`load`] over a fixed set of candidate fleets, the same for every
/// benchmark seed.
fn typical_load(cfg: &FleetConfig) -> [f64; 5] {
    const N: u64 = 256;
    let mut c = cfg.clone();
    let mut sum = [0u64; 5];
    for k in 0..N {
        c.seed = split_seed(0x5EED_F1EE7, k);
        for (acc, l) in sum
            .iter_mut()
            .zip(load(&TenantSpec::generate(&c), c.epochs))
        {
            *acc += l;
        }
    }
    sum.map(|s| counter_to_f64(s) / counter_to_f64(N))
}

fn typical_mix(tenants: &[TenantSpec], cfg: &FleetConfig, typical: &[f64; 5]) -> bool {
    let n = u64::try_from(tenants.len()).unwrap_or(0);
    let counts_ok = MIX.iter().all(|&(kind, w)| {
        let count = tenants.iter().filter(|t| t.service == kind).count();
        (u64::try_from(count).unwrap_or(0) * 100).abs_diff(n * w) <= 100
    });
    let loads_ok = load(tenants, cfg.epochs)
        .iter()
        .zip(typical)
        .all(|(&l, &t)| (counter_to_f64(l) - t).abs() <= 0.1 * t);
    counts_ok && loads_ok
}

/// Tenants whose workload starts after epoch 0 and so maps fresh pages
/// mid-run.
fn restarts(tenants: &[TenantSpec], epochs: u64) -> u64 {
    let n = tenants
        .iter()
        .filter(|t| t.arrival_epoch > 0 && t.arrival_epoch < epochs)
        .count();
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Host `host`'s engine as `run_fleet` builds it: one core per tenant slot
/// and a 2 MiB, 16-way LLC.
fn host_engine(cfg: &FleetConfig, host: u32) -> EngineConfig {
    let mut e = EngineConfig::xeon_e5_v4();
    e.socket.hierarchy = llc_sim::HierarchyConfig {
        cores: cfg.tenants_per_host,
        l1: CacheGeometry::new(64, 8, 64),
        l2: CacheGeometry::new(128, 8, 64),
        llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 16),
        llc_policy: Default::default(),
    };
    e.cycles_per_epoch = cfg.cycles_per_epoch;
    e.memory_bytes = 256 * 1024 * 1024;
    e.seed = split_seed(cfg.seed, HOST_SEED_STREAM + u64::from(host));
    e.llc_fidelity = cfg.llc_fidelity;
    e
}

/// What the rotation's first pass over `FleetPolicy::ALL` produced; later
/// calls must reproduce it.
#[derive(Default)]
struct Reference {
    serialized: Vec<(&'static str, String)>,
    jain: Vec<f64>,
    norm_ipc: PerDomain,
    mean_cos: Vec<f64>,
    ways_moved: u64,
    classes: [u64; 6],
    llc_miss_frac: Vec<f64>,
    maxfair_instructions: Vec<u64>,
}

struct Pass {
    setup: Samples,
    calls: Samples,
    /// Simulated instructions per host second of each call.
    rates: Vec<f64>,
    reference: Reference,
    digest: Digest,
    hosts: u32,
    jobs: usize,
    validate_ns: u64,
    frames: usize,
    frame_bytes: usize,
}

/// Validates one call's outputs and, during the first rotation, records
/// its simulated results as the reference.
fn record_call(
    ctx: &mut RunCtx<'_>,
    checks: &mut Checks,
    pass: &mut Pass,
    policy: FleetPolicy,
    call: usize,
    r: &FleetResult,
    log: Option<&mut SpanLog>,
) {
    let t0 = ctx.clock.now_cycles();
    let parsed = dcat_obs::frames::parse_stream(&r.frames);
    let t1 = ctx.clock.now_cycles();
    if let Some(log) = log {
        log.record("obs.frames.validate", t0, t1);
    }
    pass.validate_ns += t1.saturating_sub(t0);
    let Some(segments) = checks.check_ok("fleet frames", parsed) else {
        return;
    };
    let frames: usize = segments.iter().map(|s| s.frames.len()).sum();
    let want = usize::try_from(r.hosts).unwrap_or(0) * r.rows.len();
    checks.check(
        frames == want && segments.len() == usize::try_from(r.hosts).unwrap_or(0),
        || {
            format!(
                "fleet frames: {frames} in {} segments for {} hosts",
                segments.len(),
                r.hosts
            )
        },
    );
    pass.frames += frames;
    pass.frame_bytes += r.frames.len();

    let text = r.serialize();
    let reference = &mut pass.reference;
    match reference
        .serialized
        .iter()
        .find(|(label, _)| *label == r.policy)
    {
        Some((_, first)) => {
            checks.check(*first == text, || {
                format!("call {call}: {} diverged from its first run", r.policy)
            });
        }
        None => {
            pass.digest.feed(&text);
            pass.digest.feed(&r.frames);
            reference.jain.push(r.jain_fairness());
            reference.mean_cos.push(r.mean_cos_used());
            reference.llc_miss_frac.push(r.miss_rate());
            for seg in &segments {
                for f in &seg.frames {
                    reference.ways_moved += u64::from(f.ways_moved);
                    // Only tenants that ran this epoch: an idle one reads 0.
                    for d in f.domains.iter().filter(|d| d.ipc > 0.0) {
                        if let Some(v) = d.norm_ipc {
                            reference
                                .norm_ipc
                                .add(&format!("{}/{}", r.policy, d.name), v);
                        }
                    }
                }
            }
            for row in &r.rows {
                for (acc, c) in reference.classes.iter_mut().zip(row.classes) {
                    *acc += c;
                }
            }
            if policy == FleetPolicy::DcatMaxFairness {
                reference.maxfair_instructions = r.tenant_instructions.clone();
            }
            reference.serialized.push((r.policy, text));
        }
    }
}

fn pass(
    ctx: &mut RunCtx<'_>,
    p: &Params,
    seed: u64,
    setups: usize,
    budget_ns: u64,
    mut log: Option<&mut SpanLog>,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let mut pass = Pass {
        setup: Samples::default(),
        calls: Samples::default(),
        rates: Vec::new(),
        reference: Reference::default(),
        digest: Digest::default(),
        hosts: 0,
        jobs: 1,
        validate_ns: 0,
        frames: 0,
        frame_bytes: 0,
    };
    let mut cfg = fleet_config(p, seed)?;
    for _ in 0..setups.max(1) {
        let t0 = ctx.clock.now_cycles();
        cfg = fleet_config(p, seed)?;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        pass.jobs = nproc.min(usize::try_from(cfg.hosts()).unwrap_or(1)).max(1);
        dcat_bench::runner::set_jobs(pass.jobs);
        let warm =
            run_fleet(FleetPolicy::DcatMaxFairness, &cfg).map_err(|e| format!("run_fleet: {e}"))?;
        checks.check(warm.hosts == cfg.hosts(), || {
            "warm-up fleet has the wrong hosts".into()
        });
        pass.setup.push(ctx.clock.now_cycles().saturating_sub(t0));
    }
    pass.hosts = cfg.hosts();

    let start = ctx.clock.now_cycles();
    let mut call = 0usize;
    let rotation = FleetPolicy::ALL.len();
    while call < rotation || !ctx.spent(start, budget_ns, pass.calls.len(), p.min_ops) {
        let policy = FleetPolicy::ALL
            .get(call % rotation)
            .copied()
            .unwrap_or(FleetPolicy::DcatMaxFairness);
        let t0 = ctx.clock.now_cycles();
        let result = run_fleet(policy, &cfg);
        let t1 = ctx.clock.now_cycles();
        pass.calls.push(t1.saturating_sub(t0));
        if let Some(log) = log.as_deref_mut() {
            log.record(SPAN_RUN, t0, t1);
        }
        if let Some(r) = checks.check_ok("run_fleet", result) {
            pass.rates
                .push(rate(r.total_instructions(), t1.saturating_sub(t0)));
            record_call(ctx, checks, &mut pass, policy, call, &r, log.as_deref_mut());
        }
        call += 1;
    }
    Ok(pass)
}

/// Runs `fleet_churn`, untraced or traced.
pub fn run(ctx: &mut RunCtx<'_>, p: &Params, seed: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new("fleet_churn");
    let cfg = fleet_config(p, seed)?;
    let tenants = TenantSpec::generate(&cfg);
    let restarted = restarts(&tenants, cfg.epochs);
    out.checks.check(restarted > 0, || {
        "fleet_churn never restarts a tenant".into()
    });

    if !traced {
        let pass = pass(ctx, p, seed, p.setups, ctx.budget_ns, None, &mut out.checks)?;
        report_common(&mut out, &pass, restarted);
        let l = &mut out.ledger;
        l.set("setup_s", counter_to_f64(pass.setup.median()) / NS_PER_S);
        l.note(format!(
            "setup: median of {} set-ups (config, tenant traces, one warm-up run_fleet)",
            pass.setup.len()
        ));
        l.percentile(
            &mut out.checks,
            "run_fleet call (ms)",
            &pass.calls,
            NS_PER_MS,
            ("op_ms_p50", 50),
        );
        l.set("sim_instr_per_s", median_f64(&pass.rates));
        out.digest = pass.digest.hex();
        return Ok(out);
    }

    let share = ctx.budget_ns / 3;
    let plain = pass(ctx, p, seed, 1, share, None, &mut out.checks)?;
    let mut log = SpanLog::default();
    let tr = pass(ctx, p, seed, 1, share, Some(&mut log), &mut out.checks)?;
    out.checks.check(plain.digest.hex() == tr.digest.hex(), || {
        "traced and untraced digests differ".into()
    });
    out.digest = tr.digest.hex();
    report_common(&mut out, &tr, restarted);
    common::overhead(&mut out.ledger, &plain.calls, &tr.calls);
    let runs = log.samples(SPAN_RUN);
    out.ledger.percentile(
        &mut out.checks,
        "untraced run_fleet call (ms)",
        &plain.calls,
        NS_PER_MS,
        ("bench.fleet.run_ms_p90", 90),
    );
    let l = &mut out.ledger;
    l.set(
        "bench.fleet.run_ms",
        counter_to_f64(runs.median()) / NS_PER_MS,
    );
    let host_epochs = u64::from(tr.hosts) * p.epochs * u64::try_from(runs.len()).unwrap_or(0);
    l.set(
        "bench.fleet.host_epochs_per_s",
        counter_to_f64(host_epochs) / (counter_to_f64(runs.total_ns()) / NS_PER_S).max(1e-12),
    );
    l.note(format!(
        "bench.fleet: {host_epochs} host-epochs in {} ns of run_fleet over {} calls",
        runs.total_ns(),
        runs.len()
    ));
    let frames = u64::try_from(tr.frames).unwrap_or(0);
    l.set(
        "obs.frames.bytes_per_tick",
        ratio(u64::try_from(tr.frame_bytes).unwrap_or(0), frames),
    );
    l.set(
        "obs.frames.validate_us",
        ratio(tr.validate_ns, frames) / NS_PER_US,
    );
    l.note(format!(
        "obs.frames: {} bytes and {} ns of validation over {frames} frames; frames are encoded \
         inside run_fleet, so encode_us is not measured here",
        tr.frame_bytes, tr.validate_ns
    ));

    replay_host0(ctx, &cfg, &tenants, &tr.reference, &mut out)?;
    // The host-0 replay has too few epochs for a p90 with ten beyond it.
    for idle in [
        "dcat.telemetry",
        "resctrl.fs",
        "dcat.daemon",
        "host.engine.epoch_op_ms_p90",
        "obs.frames.encode_us",
    ] {
        out.ledger.idle(idle);
    }
    out.spans.push(("traced", log));
    Ok(out)
}

/// Figures both modes report: the simulated metrics of the first
/// rotation, the fleet's shape and the load checks.
fn report_common(out: &mut Outcome, pass: &Pass, restarted: u64) {
    let r = &pass.reference;
    let l = &mut out.ledger;
    let (jain_mean, _) = mean_min(&r.jain);
    let (norm_mean, norm_min) = r.norm_ipc.mean_min();
    l.set("jain_fairness", jain_mean);
    l.set("norm_ipc_mean", norm_mean);
    l.set("norm_ipc_min", norm_min);
    l.set("bench.fleet.hosts", f64::from(pass.hosts));
    l.set("bench.fleet.tenant_restarts", counter_to_f64(restarted));
    l.set("bench.fleet.mean_cos_used", mean_min(&r.mean_cos).0);
    let mut classes = String::new();
    for (label, c) in CLASS_LABELS.iter().zip(r.classes) {
        let _ = write!(classes, " {label}={c}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    l.note(format!(
        "load: first rotation over {} policies; classes{classes}; ways_moved {}; LLC miss rate {:.4} \
         (misses per LLC reference, mean over policies; the traced replay gives llc_miss_frac); phase changes are not exposed by run_fleet; tenant restarts {restarted}; \
         {} hosts on a pool of {} workers (available_parallelism {nproc}); jain over {} policies; \
         norm_ipc averaged per policy and tenant over {} of them",
        r.serialized.len(),
        r.ways_moved,
        mean_min(&r.llc_miss_frac).0,
        pass.hosts,
        pass.jobs,
        r.jain.len(),
        r.norm_ipc.domains()
    ));
}

/// Replays host 0 under dCat max-fairness in lockstep with the mirror;
/// every epoch is traced (a fleet run starts from empty caches).
fn replay_host0(
    ctx: &mut RunCtx<'_>,
    cfg: &FleetConfig,
    tenants: &[TenantSpec],
    reference: &Reference,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_host = usize::try_from(cfg.tenants_per_host).unwrap_or(1).max(1);
    let shard: Vec<TenantSpec> = tenants.iter().take(per_host).cloned().collect();
    let vms: Vec<VmSpec> = shard
        .iter()
        .zip(0u32..)
        .map(|(t, slot)| VmSpec::new(format!("t{}", t.id), vec![slot], 1))
        .collect();
    let mut ls = Lockstep::new(host_engine(cfg, 0), vms, DcatConfig::default())?;
    let mut log = SpanLog::default();
    let mut tally = EpochTally::default();
    let mut instructions = vec![0u64; shard.len()];
    for epoch in 0..cfg.epochs {
        for (slot, t) in shard.iter().enumerate() {
            if t.arrival_epoch == epoch && t.departure_epoch > epoch {
                ls.start_workload(slot, || t.stream());
            }
            if t.departure_epoch == epoch && ls.engine.has_workload(slot) {
                ls.stop_workload(slot);
            }
        }
        let step = ls.step(ctx.clock, Some(&mut log), &mut out.checks)?;
        for (acc, s) in instructions.iter_mut().zip(&step.stats) {
            *acc += s.instructions;
        }
        tally.observe(&step.reports);
    }
    let want: Vec<u64> = reference
        .maxfair_instructions
        .iter()
        .take(shard.len())
        .copied()
        .collect();
    out.checks.check(want == instructions, || {
        "host-0 replay disagrees with run_fleet's per-tenant instructions".into()
    });

    let l = &mut out.ledger;
    let run_epoch = log.samples(mirror::SPAN_RUN_EPOCH);
    let snaps = log.samples(mirror::SPAN_SNAPSHOTS);
    let ticks = log.samples(mirror::SPAN_POLICY);
    l.set("host.engine.epochs", len_to_f64(run_epoch.len()));
    l.set(
        "host.engine.ms_per_epoch",
        counter_to_f64(run_epoch.median()) / NS_PER_MS,
    );
    l.set(
        "host.engine.snapshots_us",
        counter_to_f64(snaps.median()) / NS_PER_US,
    );
    common::policy_ticks(l, &ticks);
    let epoch_ns = run_epoch.total_ns() + snaps.total_ns() + ticks.total_ns();
    l.set(
        "dcat.policy.share_of_epoch",
        ratio(ticks.total_ns(), epoch_ns),
    );
    l.set("dcat.policy.ways_moved", counter_to_f64(tally.ways_moved()));
    l.set(
        "dcat.policy.phase_changes",
        counter_to_f64(tally.phase_changes()),
    );
    l.note(format!(
        "host-0 replay: {} epochs of {} tenants under dcat-maxfair; policy share = {} ns of ticks \
         / {epoch_ns} ns of run_epoch+snapshots+tick",
        cfg.epochs,
        shard.len(),
        ticks.total_ns()
    ));
    common::ref_layers(l, &ls.mirror, &log);
    out.spans.push(("replay", log));
    Ok(())
}
