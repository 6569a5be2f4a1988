//! The replay that reaches the layers `host::Engine::run_epoch` hides.
//!
//! [`Mirror`] re-runs the engine's epoch loop from the simulator's public
//! functions — `AccessStream::next_batch`, `PageMapper::translate_with`,
//! `Hierarchy::access`, `CyclesModel` — in the engine's slice order, and
//! implements `resctrl::CacheController` the way `host::EngineCat` does,
//! so a second policy instance can tick over it. Fed the same generated
//! inputs, it must produce the engine's counters exactly; [`Lockstep`]
//! checks that every epoch, which is what makes the per-layer times it
//! records stand for the engine's own work.
//!
//! Within one slice the mirror translates every reference before it
//! accesses any. Translation touches only the page tables, the frame pool
//! and the VM's placement stream, and the hierarchy never reads them, so
//! the results are the same as the engine's interleaved loop.

use dcat::{CachePolicy, DcatController, DomainReport};
use dcat_obs::CycleSource;
use host::{Engine, EngineConfig, VmEpochStats, VmSpec};
use llc_sim::{
    CoreCounters, CyclesModel, FrameAllocator, Hierarchy, HitLevel, PageMapper, WayMask,
};
use perf_events::CounterSnapshot;
use resctrl::{CacheController, CatCapabilities, Cbm, CosId, ResctrlError};
use smallrng::{split_seed, SmallRng};
use workloads::{AccessStream, MemRef};

use crate::measure::Checks;
use crate::trace::SpanLog;

/// One slice in this many has each of its accesses timed for the
/// per-outcome costs; the others are timed as a whole.
const TIMED_SLICE_STRIDE: u64 = 8;

/// Span names of the replayed layers.
pub const SPAN_STREAM: &str = "workloads.next_batch";
pub const SPAN_TRANSLATE: &str = "llc-sim.paging.translate";
pub const SPAN_ACCESS: &str = "llc-sim.hierarchy.access";

/// Count and time of the accesses that ended at one level.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bin {
    /// Accesses served at this level.
    pub count: u64,
    /// Of those, accesses that were timed one by one, and their time.
    pub timed: u64,
    pub timed_ns: u64,
}

/// What the replayed layers did while tracing was on.
#[derive(Debug, Default, Clone)]
pub struct RefLedger {
    pub refs: u64,
    pub stream_ns: u64,
    pub translates: u64,
    pub translate_ns: u64,
    /// Translations that mapped a page for the first time.
    pub faults: u64,
    pub access_ns: u64,
    pub l1: Bin,
    pub l2: Bin,
    pub llc: Bin,
    pub dram: Bin,
}

impl RefLedger {
    pub fn bin_mut(&mut self, level: HitLevel) -> &mut Bin {
        match level {
            HitLevel::L1 => &mut self.l1,
            HitLevel::L2 => &mut self.l2,
            HitLevel::Llc => &mut self.llc,
            HitLevel::Dram => &mut self.dram,
        }
    }

    pub fn accesses(&self) -> u64 {
        self.l1.count + self.l2.count + self.llc.count + self.dram.count
    }
}

/// One VM's counters over one epoch: the fields of `VmEpochStats` that
/// the simulation determines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmCounters {
    pub instructions: u64,
    pub cycles: u64,
    pub l1_ref: u64,
    pub llc_ref: u64,
    pub llc_miss: u64,
}

impl From<&VmEpochStats> for VmCounters {
    fn from(s: &VmEpochStats) -> Self {
        VmCounters {
            instructions: s.instructions,
            cycles: s.cycles,
            l1_ref: s.l1_ref,
            llc_ref: s.llc_ref,
            llc_miss: s.llc_miss,
        }
    }
}

struct Running {
    stream: Box<dyn AccessStream>,
    mapper: PageMapper,
    carry_refs: f64,
    batch: Vec<MemRef>,
    paddrs: Vec<u64>,
}

struct Slot {
    cores: Vec<u32>,
    primary: u32,
    running: Option<Running>,
    placement_rng: SmallRng,
}

/// The engine's epoch loop, rebuilt from public simulator functions.
pub struct Mirror {
    cfg: EngineConfig,
    hierarchy: Hierarchy,
    frames: FrameAllocator,
    slots: Vec<Slot>,
    cos_masks: Vec<Cbm>,
    core_cos: Vec<CosId>,
    slices: u64,
    pub ledger: RefLedger,
}

/// The engine's own conversion of a slice's fractional reference count.
fn truncate(x: f64) -> u64 {
    // lint: allow(DL008, the same saturating truncation host::Engine applies, bit for bit)
    x as u64
}

impl Mirror {
    /// A mirror of `Engine::new(cfg, vms)`.
    pub fn new(cfg: EngineConfig, vms: &[VmSpec]) -> Self {
        let caps = CatCapabilities::with_ways(cfg.socket.llc_ways());
        let mut hierarchy = Hierarchy::new(cfg.socket.hierarchy);
        hierarchy.set_fidelity(cfg.llc_fidelity);
        let slots = vms
            .iter()
            .enumerate()
            .map(|(vm, spec)| Slot {
                cores: spec.cores.clone(),
                primary: spec.primary_core(),
                running: None,
                placement_rng: SmallRng::seed_from_u64(split_seed(
                    cfg.seed,
                    u64::try_from(vm).unwrap_or(u64::MAX),
                )),
            })
            .collect();
        Mirror {
            hierarchy,
            frames: FrameAllocator::new(cfg.memory_bytes, cfg.frame_policy, cfg.seed),
            slots,
            cos_masks: vec![caps.full_mask(); usize::try_from(caps.num_closids).unwrap_or(0)],
            core_cos: vec![CosId(0); usize::try_from(cfg.socket.hierarchy.cores).unwrap_or(0)],
            slices: 0,
            ledger: RefLedger::default(),
            cfg,
        }
    }

    pub fn start_workload(&mut self, vm: usize, stream: Box<dyn AccessStream>) {
        let mapper = PageMapper::new(stream.page_size());
        self.stop_workload(vm);
        if let Some(slot) = self.slots.get_mut(vm) {
            slot.running = Some(Running {
                stream,
                mapper,
                carry_refs: 0.0,
                batch: Vec::new(),
                paddrs: Vec::new(),
            });
        }
    }

    pub fn stop_workload(&mut self, vm: usize) {
        if let Some(mut running) = self.slots.get_mut(vm).and_then(|s| s.running.take()) {
            running.mapper.clear(&mut self.frames);
        }
    }

    /// Pages currently mapped across every running workload.
    pub fn pages_mapped(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.running.as_ref())
            .map(|r| r.mapper.mapped_pages())
            .sum()
    }

    pub fn snapshots(&self) -> Vec<CounterSnapshot> {
        self.slots
            .iter()
            .map(|slot| {
                let sum = slot.cores.iter().fold(CoreCounters::default(), |acc, &c| {
                    acc.merged_with(&self.hierarchy.counters(c))
                });
                CounterSnapshot::from(sum)
            })
            .collect()
    }

    /// Runs one epoch. With a span log, every slice's stream, translate
    /// and access phases are timed and counted into [`Mirror::ledger`].
    pub fn run_epoch(
        &mut self,
        clock: &mut dyn CycleSource,
        mut log: Option<&mut SpanLog>,
    ) -> Result<Vec<VmCounters>, String> {
        let before = self.snapshots();
        let budget = i64::try_from(self.cfg.cycles_per_epoch).unwrap_or(i64::MAX);
        let mut remaining = vec![budget; self.slots.len()];
        loop {
            let mut progressed = false;
            for (vm, rem) in remaining.iter_mut().enumerate() {
                let idle = self.slots.get(vm).is_none_or(|s| s.running.is_none());
                if *rem <= 0 || idle {
                    continue;
                }
                let cycles = self.run_slice(vm, clock, log.as_deref_mut())?;
                *rem -= i64::try_from(cycles).unwrap_or(i64::MAX);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let after = self.snapshots();
        Ok(after
            .iter()
            .zip(&before)
            .map(|(a, b)| {
                let d = a.delta_since(b);
                VmCounters {
                    instructions: d.ret_ins,
                    cycles: d.cycles,
                    l1_ref: d.l1_ref,
                    llc_ref: d.llc_ref,
                    llc_miss: d.llc_miss,
                }
            })
            .collect())
    }

    fn run_slice(
        &mut self,
        vm: usize,
        clock: &mut dyn CycleSource,
        log: Option<&mut SpanLog>,
    ) -> Result<u64, String> {
        let instrs = self.cfg.slice_instructions;
        let latency = self.cfg.latency;
        let timed_each = self.slices.is_multiple_of(TIMED_SLICE_STRIDE);
        self.slices += 1;
        let Some(Slot {
            primary,
            running: Some(rt),
            placement_rng,
            ..
        }) = self.slots.get_mut(vm)
        else {
            return Ok(0);
        };
        let core = *primary;
        let profile = rt.stream.profile();
        let refs_f = perf_events::convert::counter_to_f64(instrs) * profile.mem_refs_per_instr
            + rt.carry_refs;
        let n_refs = truncate(refs_f);
        rt.carry_refs = refs_f - perf_events::convert::counter_to_f64(n_refs);
        let before = self.hierarchy.counters(core);
        let tracing = log.is_some();
        let mut now = || if tracing { clock.now_cycles() } else { 0 };

        let t0 = now();
        rt.stream
            .next_batch(&mut rt.batch, usize::try_from(n_refs).unwrap_or(usize::MAX));
        let t1 = now();
        let mapped_before = rt.mapper.mapped_pages();
        rt.paddrs.clear();
        for mref in &rt.batch {
            let paddr = rt
                .mapper
                .translate_with(mref.vaddr, &mut self.frames, placement_rng)
                .ok_or("physical memory pool exhausted in the replay")?;
            rt.paddrs.push(paddr.0);
        }
        let t2 = now();
        let ledger = &mut self.ledger;
        if tracing && timed_each {
            let mut prev = t2;
            for (mref, &paddr) in rt.batch.iter().zip(&rt.paddrs) {
                let level = self.hierarchy.access(core, paddr, mref.kind);
                let t = now();
                let bin = ledger.bin_mut(level);
                bin.count += 1;
                bin.timed += 1;
                bin.timed_ns += t.saturating_sub(prev);
                prev = t;
            }
        } else {
            for (mref, &paddr) in rt.batch.iter().zip(&rt.paddrs) {
                let level = self.hierarchy.access(core, paddr, mref.kind);
                if tracing {
                    ledger.bin_mut(level).count += 1;
                }
            }
        }
        let t3 = now();

        let mut delta = self.hierarchy.counters(core).delta_since(&before);
        delta.ret_ins = instrs;
        let cycles = CyclesModel::new(latency, profile.cpi_exec, profile.mlp).cycles_for(&delta);
        self.hierarchy.record_instructions(core, instrs);
        self.hierarchy.record_cycles(core, cycles);

        if let Some(log) = log {
            let n = u64::try_from(rt.batch.len()).unwrap_or(u64::MAX);
            let faults = rt.mapper.mapped_pages().saturating_sub(mapped_before);
            ledger.refs += n;
            ledger.translates += n;
            ledger.faults += u64::try_from(faults).unwrap_or(u64::MAX);
            ledger.stream_ns += t1.saturating_sub(t0);
            ledger.translate_ns += t2.saturating_sub(t1);
            ledger.access_ns += t3.saturating_sub(t2);
            log.record(SPAN_STREAM, t0, t1);
            log.record(SPAN_TRANSLATE, t1, t2);
            log.record(SPAN_ACCESS, t2, t3);
        }
        Ok(cycles)
    }

    fn apply_mask_to_core(&mut self, core: u32) {
        let Some(&cos) = usize::try_from(core)
            .ok()
            .and_then(|c| self.core_cos.get(c))
        else {
            return;
        };
        let Some(&cbm) = self.cos_masks.get(usize::from(cos.0)) else {
            return;
        };
        self.hierarchy.set_fill_mask(core, WayMask(cbm.0));
    }
}

impl CacheController for Mirror {
    fn capabilities(&self) -> CatCapabilities {
        CatCapabilities::with_ways(self.cfg.socket.llc_ways())
    }

    fn num_cores(&self) -> u32 {
        self.cfg.socket.hierarchy.cores
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        self.validate_cbm(cbm)?;
        let Some(slot) = self.cos_masks.get_mut(usize::from(cos.0)) else {
            return Err(ResctrlError::InvalidCos(cos));
        };
        *slot = cbm;
        for core in 0..self.num_cores() {
            let assigned = usize::try_from(core)
                .ok()
                .and_then(|c| self.core_cos.get(c));
            if assigned == Some(&cos) {
                self.apply_mask_to_core(core);
            }
        }
        Ok(())
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        let Some(slot) = usize::try_from(core)
            .ok()
            .and_then(|c| self.core_cos.get_mut(c))
        else {
            return Err(ResctrlError::InvalidCore(core));
        };
        *slot = cos;
        self.apply_mask_to_core(core);
        Ok(())
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.validate_cos(cos)?;
        self.cos_masks
            .get(usize::from(cos.0))
            .copied()
            .ok_or(ResctrlError::InvalidCos(cos))
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        usize::try_from(core)
            .ok()
            .and_then(|c| self.core_cos.get(c))
            .copied()
            .ok_or(ResctrlError::InvalidCore(core))
    }

    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        self.hierarchy.flush_mask(WayMask(cbm.0));
        Ok(())
    }
}

/// Span names of the engine-level calls.
pub const SPAN_RUN_EPOCH: &str = "host.engine.run_epoch";
pub const SPAN_SNAPSHOTS: &str = "host.engine.snapshots";
pub const SPAN_POLICY: &str = "dcat.policy.tick";
pub const SPAN_MIRROR_EPOCH: &str = "mirror.run_epoch";

/// A real engine and its dCat controller next to a mirror with its own
/// controller, stepped epoch by epoch on the same inputs.
pub struct Lockstep {
    pub engine: Engine,
    pub policy: DcatController,
    pub mirror: Mirror,
    pub mirror_policy: DcatController,
}

/// What one lockstep epoch produced on the real side.
pub struct LockstepEpoch {
    pub stats: Vec<VmEpochStats>,
    pub reports: Vec<DomainReport>,
}

impl Lockstep {
    /// Both sides, built from the same config, VMs and controller config.
    pub fn new(
        cfg: EngineConfig,
        vms: Vec<VmSpec>,
        dcat_cfg: dcat::DcatConfig,
    ) -> Result<Self, String> {
        let handles: Vec<dcat::WorkloadHandle> = vms
            .iter()
            .map(|v| dcat::WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
            .collect();
        let mut mirror = Mirror::new(cfg, &vms);
        let mut engine = Engine::new(cfg, vms)?;
        let policy = DcatController::new(dcat_cfg, handles.clone(), &mut engine.cat())
            .map_err(|e| e.to_string())?;
        let mirror_policy =
            DcatController::new(dcat_cfg, handles, &mut mirror).map_err(|e| e.to_string())?;
        Ok(Lockstep {
            engine,
            policy,
            mirror,
            mirror_policy,
        })
    }

    pub fn start_workload(&mut self, vm: usize, make: impl Fn() -> Box<dyn AccessStream>) {
        self.engine.start_workload(vm, make());
        self.mirror.start_workload(vm, make());
    }

    pub fn stop_workload(&mut self, vm: usize) {
        self.engine.stop_workload(vm);
        self.mirror.stop_workload(vm);
    }

    /// One epoch on both sides. With a span log, the engine-level calls
    /// and the mirror's layers are traced. The mirror must match the
    /// engine counter for counter and decision for decision.
    pub fn step(
        &mut self,
        clock: &mut dyn CycleSource,
        mut log: Option<&mut SpanLog>,
        checks: &mut Checks,
    ) -> Result<LockstepEpoch, String> {
        let engine = &mut self.engine;
        let policy = &mut self.policy;
        let (stats, snaps) = match log.as_deref_mut() {
            Some(log) => {
                let stats = log.span(clock, SPAN_RUN_EPOCH, || engine.run_epoch());
                let snaps = log.span(clock, SPAN_SNAPSHOTS, || engine.snapshots());
                (stats, snaps)
            }
            None => (engine.run_epoch(), engine.snapshots()),
        };
        let reports = match log.as_deref_mut() {
            Some(log) => log.span(clock, SPAN_POLICY, || {
                CachePolicy::tick(policy, &snaps, &mut engine.cat())
            }),
            None => CachePolicy::tick(policy, &snaps, &mut engine.cat()),
        }
        .map_err(|e| format!("policy tick: {e}"))?;

        if let Some(log) = log.as_deref_mut() {
            log.enter(clock, SPAN_MIRROR_EPOCH);
        }
        let mirrored = self.mirror.run_epoch(clock, log.as_deref_mut());
        if let Some(log) = log {
            log.exit(clock);
        }
        let mirrored = mirrored?;
        let m_snaps = self.mirror.snapshots();
        let m_reports = CachePolicy::tick(&mut self.mirror_policy, &m_snaps, &mut self.mirror)
            .map_err(|e| format!("mirror policy tick: {e}"))?;

        for vm in 0..self.engine.num_vms() {
            let _ = self.engine.take_request_latencies(vm);
        }
        let real: Vec<VmCounters> = stats.iter().map(VmCounters::from).collect();
        let epoch = self.engine.epoch();
        checks.check(real == mirrored, || {
            format!("replay diverged from the engine's counters at epoch {epoch}")
        });
        let ways = |r: &[DomainReport]| r.iter().map(|d| d.ways).collect::<Vec<_>>();
        checks.check(ways(&reports) == ways(&m_reports), || {
            format!("replay's controller diverged from the engine's at epoch {epoch}")
        });
        Ok(LockstepEpoch { stats, reports })
    }
}
