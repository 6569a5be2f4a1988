//! `sim_mixed`: dCat max-fairness on the paper's 18-core, 20-way, 45 MiB
//! Xeon E5 v4 socket at full fidelity.
//!
//! Seven VMs share the socket: MLR-8MB, MLOAD-60MB, a Redis model, a
//! PostgreSQL model, a phased stream that cycles between an MLR and an
//! MLOAD phase, and two lookbusy VMs. Caches start empty; the warm-up
//! epochs run the same loop untimed and count toward `setup_s`. One
//! operation is `Engine::run_epoch`, `Engine::snapshots`,
//! `CachePolicy::tick` and `FrameWriter::push`.

use std::fmt::Write as _;

use dcat::{CachePolicy, DcatConfig, DcatController, DomainReport, WorkloadHandle};
use dcat_obs::{CycleSource, FrameWriter};
use host::{Engine, EngineConfig, VmEpochStats, VmSpec};
use perf_events::convert::counter_to_f64;
use smallrng::split_seed;
use workloads::phased::Phase;
use workloads::{AccessStream, Lookbusy, Mload, Mlr, PhasedStream, PostgresModel, RedisModel};

use crate::common::{self, EpochTally, Outcome, RunCtx};
use crate::measure::{
    median_f64, rate, ratio, Checks, Digest, Samples, NS_PER_MS, NS_PER_S, NS_PER_US,
};
use crate::mirror::{self, Lockstep};
use crate::trace::SpanLog;

const MB: u64 = 1 << 20;

/// Span names of the traced epoch operation.
const SPAN_OP: &str = "sim.epoch_op";
const SPAN_PUSH: &str = "obs.frames.push";

/// Sizes of one `sim_mixed` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub cycles_per_epoch: u64,
    /// Untimed epochs from empty caches before the first timed one.
    pub warmup_epochs: u64,
    /// Measured epochs that feed the digest and the simulated metrics;
    /// every run completes at least this many.
    pub window_epochs: u64,
    /// Fewest timed operations per run (the p90 needs ten beyond it).
    pub min_ops: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Traced epochs of the replay after its own warm-up.
    pub replay_epochs: u64,
}

impl Params {
    pub const FULL: Params = Params {
        cycles_per_epoch: 500_000,
        warmup_epochs: 24,
        window_epochs: 60,
        min_ops: 100,
        setups: 3,
        replay_epochs: 16,
    };

    pub const TINY: Params = Params {
        cycles_per_epoch: 20_000,
        warmup_epochs: 2,
        window_epochs: 4,
        min_ops: 100,
        setups: 2,
        replay_epochs: 3,
    };
}

/// The seven VMs on their pinned cores, with reserved ways.
pub fn vm_specs() -> Vec<VmSpec> {
    [
        ("mlr-8mb", 0, 3),
        ("mload-60mb", 2, 3),
        ("redis", 4, 2),
        ("postgres", 6, 2),
        ("phased", 8, 2),
        ("lookbusy-0", 10, 2),
        ("lookbusy-1", 12, 2),
    ]
    .into_iter()
    .map(|(name, core, ways)| VmSpec::new(name, vec![core, core + 1], ways))
    .collect()
}

/// The access stream of VM `vm`, generated from `seed`.
pub fn stream(vm: usize, seed: u64) -> Box<dyn AccessStream> {
    let s = |k: u64| split_seed(seed, 100 + k);
    match vm {
        0 => Box::new(Mlr::new(8 * MB, s(0))),
        1 => Box::new(Mload::new(60 * MB)),
        2 => Box::new(RedisModel::paper_default(s(2))),
        3 => Box::new(PostgresModel::new(500_000, s(3))),
        4 => Box::new(PhasedStream::cycling(vec![
            Phase {
                stream: Box::new(Mlr::new(6 * MB, s(4))),
                accesses: 60_000,
            },
            Phase {
                stream: Box::new(Mload::new(24 * MB)),
                accesses: 120_000,
            },
        ])),
        _ => Box::new(Lookbusy::new()),
    }
}

fn engine_config(p: &Params, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::xeon_e5_v4();
    cfg.cycles_per_epoch = p.cycles_per_epoch;
    cfg.seed = split_seed(seed, 1);
    cfg
}

struct Sim {
    engine: Engine,
    policy: DcatController,
    frames: FrameWriter,
}

fn build(p: &Params, seed: u64) -> Result<Sim, String> {
    let vms = vm_specs();
    let handles: Vec<WorkloadHandle> = vms
        .iter()
        .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
        .collect();
    let n = vms.len();
    let mut engine = Engine::new(engine_config(p, seed), vms)?;
    for vm in 0..n {
        engine.start_workload(vm, stream(vm, seed));
    }
    let policy = DcatController::new(DcatConfig::default(), handles, &mut engine.cat())
        .map_err(|e| format!("controller: {e}"))?;
    Ok(Sim {
        engine,
        policy,
        frames: FrameWriter::new("scenario:dcat"),
    })
}

impl Sim {
    /// One epoch operation. With a span log every call gets its span.
    fn op(
        &mut self,
        clock: &mut dyn CycleSource,
        log: Option<&mut SpanLog>,
    ) -> Result<(Vec<VmEpochStats>, Vec<DomainReport>), String> {
        let Sim {
            engine,
            policy,
            frames,
        } = self;
        let tick = engine.epoch() + 1;
        let (stats, reports) = match log {
            None => {
                let stats = engine.run_epoch();
                let snaps = engine.snapshots();
                let reports = CachePolicy::tick(policy, &snaps, &mut engine.cat());
                if let Ok(r) = &reports {
                    frames.push(dcat::frame_from_reports(
                        tick,
                        "dcat",
                        r,
                        policy.frame_ext(),
                    ));
                }
                (stats, reports)
            }
            Some(log) => {
                log.enter(clock, SPAN_OP);
                let stats = log.span(clock, mirror::SPAN_RUN_EPOCH, || engine.run_epoch());
                let snaps = log.span(clock, mirror::SPAN_SNAPSHOTS, || engine.snapshots());
                let reports = log.span(clock, mirror::SPAN_POLICY, || {
                    CachePolicy::tick(policy, &snaps, &mut engine.cat())
                });
                if let Ok(r) = &reports {
                    let frame = dcat::frame_from_reports(tick, "dcat", r, policy.frame_ext());
                    log.span(clock, SPAN_PUSH, || frames.push(frame));
                }
                log.exit(clock);
                (stats, reports)
            }
        };
        let reports = reports.map_err(|e| format!("policy tick: {e}"))?;
        Ok((stats, reports))
    }

    /// Drops the request-latency samples the service VMs accumulate, so
    /// memory stays flat however many epochs a run times.
    fn drain_latencies(&mut self) {
        for vm in 0..self.engine.num_vms() {
            let _ = self.engine.take_request_latencies(vm);
        }
    }

    fn audit(&self, checks: &mut Checks) {
        let views = self.policy.domain_views();
        let total = self.engine.config().socket.llc_ways();
        let min_ways = self.policy.config().min_ways;
        let result = dcat::invariants::check(&views, total, min_ways);
        let epoch = self.engine.epoch();
        checks.check(result.is_ok(), || {
            format!("invariant violated at epoch {epoch}: {result:?}")
        });
    }
}

/// The simulated statistics of one epoch, in canonical text.
fn epoch_text(epoch: u64, stats: &[VmEpochStats], reports: &[DomainReport]) -> String {
    let mut t = String::new();
    for s in stats {
        let _ = writeln!(
            t,
            "e{epoch} {} ins={} cyc={} l1={} llcr={} llcm={} ways={} req={} occ={}",
            s.name,
            s.instructions,
            s.cycles,
            s.l1_ref,
            s.llc_ref,
            s.llc_miss,
            s.ways,
            s.requests_completed,
            s.llc_occupancy_lines
        );
    }
    t.push_str(&common::reports_text(epoch, reports));
    t
}

/// Everything one pass over the workload produced.
struct Pass {
    setup: Samples,
    ops: Samples,
    /// Simulated instructions per host second of each timed operation.
    rates: Vec<f64>,
    tally: EpochTally,
    digest: Digest,
    frames_text: String,
    checks: Checks,
}

/// Builds and warms up `setups` times (keeping the last), then times
/// operations until the budget is spent and the window is full.
fn pass(
    ctx: &mut RunCtx<'_>,
    p: &Params,
    seed: u64,
    setups: usize,
    budget_ns: u64,
    mut log: Option<&mut SpanLog>,
) -> Result<Pass, String> {
    let mut checks = Checks::default();
    let mut setup = Samples::default();
    let mut built: Option<(Sim, Digest)> = None;
    let mut first_digest: Option<String> = None;
    for _ in 0..setups.max(1) {
        drop(built.take());
        let t0 = ctx.clock.now_cycles();
        let mut sim = build(p, seed)?;
        let mut digest = Digest::default();
        for _ in 0..p.warmup_epochs {
            let epoch = sim.engine.epoch();
            let (stats, reports) = sim.op(ctx.clock, None)?;
            sim.audit(&mut checks);
            sim.drain_latencies();
            digest.feed(&epoch_text(epoch, &stats, &reports));
        }
        setup.push(ctx.clock.now_cycles().saturating_sub(t0));
        // Every set-up replays the same inputs, so their warm-ups agree.
        let hex = digest.hex();
        let first = first_digest.get_or_insert_with(|| hex.clone());
        checks.check(*first == hex, || "set-ups of one seed diverged".into());
        built = Some((sim, digest));
    }
    let (mut sim, mut digest) = built.ok_or("no set-up ran")?;

    let mut ops = Samples::default();
    let mut rates = Vec::new();
    let mut tally = EpochTally::default();
    let start = ctx.clock.now_cycles();
    let mut measured = 0u64;
    while measured < p.window_epochs || !ctx.spent(start, budget_ns, ops.len(), p.min_ops) {
        let epoch = sim.engine.epoch();
        let t0 = ctx.clock.now_cycles();
        let (stats, reports) = sim.op(ctx.clock, log.as_deref_mut())?;
        let op_ns = ctx.clock.now_cycles().saturating_sub(t0);
        ops.push(op_ns);
        checks.check(true, String::new);
        sim.audit(&mut checks);
        sim.drain_latencies();
        rates.push(rate(stats.iter().map(|s| s.instructions).sum(), op_ns));
        if measured < p.window_epochs {
            digest.feed(&epoch_text(epoch, &stats, &reports));
            tally.observe(&reports);
            tally.instructions(stats.iter().map(|s| s.instructions));
            tally.misses(
                stats.iter().map(|s| s.llc_miss).sum(),
                stats.iter().map(|s| s.l1_ref).sum(),
            );
        }
        measured += 1;
    }
    let frames_text = sim.frames.into_string();
    Ok(Pass {
        setup,
        ops,
        rates,
        tally,
        digest,
        frames_text,
        checks,
    })
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &mut RunCtx<'_>, p: &Params, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new("sim_mixed");
    let mut pass = pass(ctx, p, seed, p.setups, ctx.budget_ns, None)?;
    out.checks.merge(std::mem::take(&mut pass.checks));
    common::validate_frames(ctx, &mut out, "sim_mixed frames", &pass.frames_text, None);

    out.ledger
        .set("setup_s", counter_to_f64(pass.setup.median()) / NS_PER_S);
    out.ledger.note(format!(
        "setup: median of {} set-ups, each {} warm-up epochs from empty caches",
        pass.setup.len(),
        p.warmup_epochs
    ));
    out.ledger.percentile(
        &mut out.checks,
        "epoch op (ms)",
        &pass.ops,
        NS_PER_MS,
        ("op_ms_p50", 50),
    );
    out.ledger.set("sim_instr_per_s", median_f64(&pass.rates));
    pass.tally.report(&mut out.ledger);
    out.digest = pass.digest.hex();
    Ok(out)
}

/// The traced run: an untraced pass, a traced pass with spans around
/// every public call of the epoch operation, and the lockstep replay
/// that reaches the layers beneath `run_epoch`.
pub fn run_traced(ctx: &mut RunCtx<'_>, p: &Params, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new("sim_mixed");
    let share = ctx.budget_ns / 3;
    let mut plain = pass(ctx, p, seed, 1, share, None)?;
    let mut log = SpanLog::default();
    let mut traced = pass(ctx, p, seed, 1, share, Some(&mut log))?;
    out.checks.merge(std::mem::take(&mut plain.checks));
    out.checks.merge(std::mem::take(&mut traced.checks));
    out.checks
        .check(plain.digest.hex() == traced.digest.hex(), || {
            "traced and untraced digests differ".into()
        });
    let validate_ns =
        common::validate_frames(ctx, &mut out, "sim_mixed frames", &traced.frames_text, None);

    out.ledger.percentile(
        &mut out.checks,
        "untraced epoch op (ms)",
        &plain.ops,
        NS_PER_MS,
        ("host.engine.epoch_op_ms_p90", 90),
    );
    let l = &mut out.ledger;
    common::overhead(l, &plain.ops, &traced.ops);
    let run_epoch = log.samples(mirror::SPAN_RUN_EPOCH);
    let ticks = log.samples(mirror::SPAN_POLICY);
    let pushes = log.samples(SPAN_PUSH);
    let ops = log.samples(SPAN_OP);
    l.set(
        "host.engine.epochs",
        counter_to_f64(u64::try_from(run_epoch.len()).unwrap_or(0)),
    );
    l.set(
        "host.engine.ms_per_epoch",
        counter_to_f64(run_epoch.median()) / NS_PER_MS,
    );
    l.set(
        "host.engine.snapshots_us",
        counter_to_f64(log.samples(mirror::SPAN_SNAPSHOTS).median()) / NS_PER_US,
    );
    common::policy_ticks(l, &ticks);
    let share_of_epoch = ratio(ticks.total_ns(), ops.total_ns());
    l.set("dcat.policy.share_of_epoch", share_of_epoch);
    l.note(format!(
        "dcat.policy.share_of_epoch = {} ns of policy ticks / {} ns of epoch operations",
        ticks.total_ns(),
        ops.total_ns()
    ));
    traced.tally.report(l);
    common::frame_costs(l, &pushes, &traced.frames_text, validate_ns);

    replay(ctx, p, seed, &mut out)?;
    for idle in ["dcat.telemetry", "resctrl.fs", "dcat.daemon", "bench.fleet"] {
        out.ledger.idle(idle);
    }
    out.spans.push(("traced", log));
    out.digest = traced.digest.hex();
    Ok(out)
}

/// Lockstep replay from empty caches; the post-warm-up epochs are traced.
fn replay(ctx: &mut RunCtx<'_>, p: &Params, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let vms = vm_specs();
    let n = vms.len();
    let mut ls = Lockstep::new(engine_config(p, seed), vms, DcatConfig::default())?;
    for vm in 0..n {
        ls.start_workload(vm, || stream(vm, seed));
    }
    for _ in 0..p.warmup_epochs {
        ls.step(ctx.clock, None, &mut out.checks)?;
    }
    let mut log = SpanLog::default();
    for _ in 0..p.replay_epochs {
        ls.step(ctx.clock, Some(&mut log), &mut out.checks)?;
    }
    common::ref_layers(&mut out.ledger, &ls.mirror, &log);
    out.spans.push(("replay", log));
    Ok(())
}
