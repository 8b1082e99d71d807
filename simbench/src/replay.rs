//! The traced run: per-layer cost from replays of each cell.
//!
//! For every cell (or, on `tenants64`, every machine) the runner
//! 1. builds and drains each workload into a buffer (`wl.*`),
//! 2. replays the buffers through `Machine::step` on external tenants,
//!    interleaved exactly as `Machine::run` schedules them, and
//! 3. replays the executed sequence again through `Os::mmap` and
//!    `Mmu::access` on a bare `Os`/`Mmu` configured as
//!    `MachineBuilder::build` configures them.
//!
//! The difference between 2 and 3 is the machine's dispatch and counter
//! attribution; 3 splits into the OS fault path (init phase, before each
//! tenant's `StatsBarrier`, plus exit reclaim) and translation (measured
//! phase). All three executions must agree on every counter that does not
//! depend on a workload's timing profile.

use std::collections::BTreeMap;
use std::time::Instant;

use tps_core::{TenantFaultCause, VirtAddr};
use tps_mem::BuddyAllocator;
use tps_os::Os;
use tps_sim::{Machine, MachineBuilder, MachineConfig, Mmu, RunCounters, TenantSpec};
use tps_wl::{build_seeded, Event, SuiteScale, Workload};

use crate::ledger::{self, Ledger};
use crate::spans::{Recorder, RUN_CELL};
use crate::workload::{
    run_pass, tenant_config, tenant_key, tenant_plan, tenant_spec, Bench, Ctx, Hog, Pass, Trace,
    HOG_CAP, TENANT_MECHS,
};

/// Events drained from the hog: far more than it executes before its
/// cap kills it.
const HOG_DRAIN_EVENTS: usize = 4096;

/// What the traced run reports, before aggregation across iterations.
pub struct Traced {
    /// The traced end-to-end pass.
    pub pass: Pass,
    /// Raw per-layer values, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Every recorded span.
    pub spans: Vec<crate::spans::Span>,
}

/// One tenant's event buffer, identity and memory cap.
struct Stream {
    key: String,
    events: Vec<Event>,
    cap: Option<u64>,
}

/// One executed step, in the order `Machine::run` would execute it.
#[derive(Clone, Copy)]
enum Op {
    Event(usize, Event),
    /// The tenant left the machine (stream end or kill); with reclaim on,
    /// its regions return to the shared pool.
    Exit(usize),
}

/// Host time and work of one bare replay, split by phase.
#[derive(Default)]
struct Phases {
    init_ns: u64,
    measured_ns: u64,
    exit_ns: u64,
    init_faults: u64,
    measured_accesses: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Measured,
    Exit,
}

/// Accumulates host time per phase, reading the clock only when the
/// phase changes.
struct PhaseClock {
    phase: Phase,
    since: Instant,
    ns: [u64; 3],
}

impl PhaseClock {
    fn new() -> Self {
        PhaseClock {
            phase: Phase::Init,
            since: Instant::now(),
            ns: [0; 3],
        }
    }

    fn enter(&mut self, phase: Phase) {
        if phase != self.phase {
            let now = Instant::now();
            self.ns[self.phase as usize] += (now - self.since).as_nanos() as u64;
            self.since = now;
            self.phase = phase;
        }
    }

    fn stop(mut self) -> [u64; 3] {
        let now = Instant::now();
        self.ns[self.phase as usize] += (now - self.since).as_nanos() as u64;
        self.ns
    }
}

/// Layer totals summed over cells.
#[derive(Default)]
struct Totals {
    events: u64,
    replayed: u64,
    step_ns: u64,
    bare_ns: u64,
    serial_cell_ns: u64,
    phases: Phases,
    pte_writes: u64,
    buddy_splits: u64,
    buddy_merges: u64,
    buddy_frees: u64,
}

/// Runs the traced end-to-end pass and the per-cell replays.
pub fn traced_run(ctx: &Ctx) -> Traced {
    let rec = Recorder::default();
    let mut pass = rec.span("pass", None, RUN_CELL, |root| {
        run_pass(ctx, Some(Trace { rec: &rec, root }))
    });
    let mut totals = Totals::default();
    let mut replays = Ledger::default();
    let mut shared_over_solo = 1.0;
    match ctx.bench.spec(ctx.seed, ctx.threads) {
        Some(spec) => {
            let matrix = spec.build().expect("the workload spec is valid");
            for (i, cell) in matrix.cells().iter().enumerate() {
                let id = i as u32 + 1;
                let machine = format!("{}.{}", cell.benchmark(), cell.mechanism().cli_name());
                let config = matrix.spec().machine_config(cell.mechanism());
                rec.span("cell", None, id, |parent| {
                    let stream = drain(
                        &rec,
                        parent,
                        id,
                        tenant_key(0, cell.benchmark()),
                        usize::MAX,
                        || build_seeded(cell.benchmark(), ctx.bench.scale(), cell.seed()),
                    );
                    replay_machine(
                        &rec,
                        parent,
                        id,
                        &config,
                        false,
                        &machine,
                        &[stream],
                        &mut totals,
                        &mut replays,
                        &mut pass,
                    );
                });
            }
        }
        None => {
            let plan = tenant_plan(ctx.seed);
            for (m, mech) in TENANT_MECHS.iter().enumerate() {
                let machine = mech.cli_name();
                let config = tenant_config(*mech);
                rec.span("machine", None, RUN_CELL, |parent| {
                    let streams: Vec<Stream> = plan
                        .iter()
                        .enumerate()
                        .map(|(slot, (key, name, seed))| {
                            let id = (m * plan.len() + slot) as u32 + 1;
                            let key = key.clone();
                            match name {
                                Some(name) => drain(&rec, parent, id, key, usize::MAX, || {
                                    build_seeded(name, SuiteScale::Test, *seed)
                                }),
                                None => Stream {
                                    cap: Some(HOG_CAP),
                                    ..drain(&rec, parent, id, key, HOG_DRAIN_EVENTS, || {
                                        Box::new(Hog::default())
                                    })
                                },
                            }
                        })
                        .collect();
                    replay_machine(
                        &rec,
                        parent,
                        RUN_CELL,
                        &config,
                        true,
                        machine,
                        &streams,
                        &mut totals,
                        &mut replays,
                        &mut pass,
                    );
                });
            }
            // Shared Machine::run against the same tenants run alone.
            let mut solo_ns = 0u64;
            for (m, mech) in TENANT_MECHS.iter().enumerate() {
                for (slot, (_, name, seed)) in plan.iter().enumerate() {
                    let id = (m * plan.len() + slot) as u32 + 1;
                    let mut solo = MachineBuilder::new(tenant_config(*mech))
                        .tenant(tenant_spec(*name, *seed))
                        .reclaim_on_exit(true)
                        .build()
                        .expect("a machine with a tenant is valid");
                    let t = Instant::now();
                    rec.span("machine.solo_run", None, id, |_| {
                        std::hint::black_box(solo.run());
                    });
                    solo_ns += t.elapsed().as_nanos() as u64;
                }
            }
            let shared_s: f64 = pass.machine_run_s.iter().sum();
            shared_over_solo = shared_s / (solo_ns as f64 / 1e9);
        }
    }
    let spans = rec.spans();
    let values = layer_values(ctx, &pass, &totals, &replays, shared_over_solo, &spans);
    Traced {
        pass,
        values,
        spans,
    }
}

/// Builds one workload and drains up to `limit` events into a buffer.
fn drain(
    rec: &Recorder,
    parent: u32,
    cell: u32,
    key: String,
    limit: usize,
    build: impl FnOnce() -> Box<dyn Workload>,
) -> Stream {
    let mut workload = rec.span("wl.build", Some(parent), cell, |_| build());
    let events = rec.span("wl.drain", Some(parent), cell, |_| {
        let mut events = Vec::new();
        while events.len() < limit {
            match workload.next_event() {
                Some(e) => events.push(e),
                None => break,
            }
        }
        drop(workload);
        events
    });
    Stream {
        key,
        events,
        cap: None,
    }
}

/// Scheduler slots the step replay runs before the bare replay catches up
/// on what it executed. Alternating in chunks of a few milliseconds
/// exposes both replays to the same host conditions, so their difference
/// (the machine's dispatch cost) is not swamped by swings in host speed
/// that last seconds.
const CHUNK_SLOTS: usize = 1 << 16;

/// Replays one machine's tenants through `Machine::step` and, chunk by
/// chunk, the executed sequence through a bare `Os`/`Mmu`; cross-checks
/// both against the end-to-end pass.
#[allow(clippy::too_many_arguments)]
fn replay_machine(
    rec: &Recorder,
    parent: u32,
    cell: u32,
    config: &MachineConfig,
    reclaim: bool,
    machine_key: &str,
    streams: &[Stream],
    totals: &mut Totals,
    replays: &mut Ledger,
    pass: &mut Pass,
) {
    totals.events += streams.iter().map(|s| s.events.len() as u64).sum::<u64>();
    let keys: Vec<String> = streams
        .iter()
        .map(|s| format!("{machine_key}/{}", s.key))
        .collect();
    let machine_cell = format!("{machine_key}/machine");

    let mut step = StepReplay::new(config, reclaim, streams);
    let mut bare = BareReplay::new(config, streams.len());
    let mut log = Vec::with_capacity(CHUNK_SLOTS);
    let (mut step_ns, mut bare_ns) = (0u64, 0u64);
    let diverged = loop {
        log.clear();
        let t = Instant::now();
        let done = rec.span("machine.replay", Some(parent), cell, |_| {
            step.run_chunk(streams, &mut log)
        });
        step_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let applied = rec.span("mmu.replay", Some(parent), cell, |_| bare.apply(&log));
        bare_ns += t.elapsed().as_nanos() as u64;
        totals.replayed += log.iter().filter(|op| matches!(op, Op::Event(..))).count() as u64;
        match applied {
            Err(e) => break Some(e),
            Ok(()) if done => break None,
            Ok(()) => {}
        }
    };
    totals.step_ns += step_ns;
    totals.bare_ns += bare_ns;
    let wl_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name.starts_with("wl."))
        .map(crate::spans::Span::duration_ns)
        .sum();
    totals.serial_cell_ns += wl_ns + step_ns;
    if let Some(e) = diverged {
        pass.fail(&machine_cell, &format!("Os/Mmu replay diverged: {e}"));
        return;
    }

    let step_ledger = step.finish(&keys, &machine_cell);
    let phases = &bare.phases;
    totals.phases.init_ns += phases.init_ns;
    totals.phases.measured_ns += phases.measured_ns;
    totals.phases.exit_ns += phases.exit_ns;
    totals.phases.init_faults += phases.init_faults;
    totals.phases.measured_accesses += phases.measured_accesses;
    let (bare_ledger, work) = bare.finish(&keys, &machine_cell);
    totals.pte_writes += work[0];
    totals.buddy_splits += work[1];
    totals.buddy_merges += work[2];
    totals.buddy_frees += work[3];
    let mut mismatches = Vec::new();
    for (what, a, b) in [
        ("Machine::step replay", &pass.ledger, &step_ledger),
        ("Os/Mmu replay", &pass.ledger, &bare_ledger),
        (
            "Machine::step and Os/Mmu replays",
            &step_ledger,
            &bare_ledger,
        ),
    ] {
        for (key, got, want) in a.diff_common(b) {
            eprintln!("simbench: {what}: {key}: {got} vs {want}");
            mismatches.push((ledger::cell_of(&key).to_string(), what));
        }
    }
    for (unit, what) in mismatches {
        pass.fail(&unit, &format!("counters disagree: {what}"));
    }
    replays.extend(bare_ledger);
}

/// The streams replayed through `Machine::step` on external tenants with
/// `Machine::run`'s round-robin interleaving and fault containment.
struct StepReplay {
    machine: Machine,
    reclaim: bool,
    next: Vec<usize>,
    live: Vec<usize>,
    cursor: usize,
}

impl StepReplay {
    fn new(config: &MachineConfig, reclaim: bool, streams: &[Stream]) -> Self {
        let machine = MachineBuilder::new(config.clone())
            .tenants(streams.iter().map(|s| {
                let tenant = TenantSpec::external(s.key.clone());
                match s.cap {
                    Some(bytes) => tenant.memory_cap(bytes),
                    None => tenant,
                }
            }))
            .reclaim_on_exit(reclaim)
            .build()
            .expect("a machine with tenants is valid");
        StepReplay {
            machine,
            reclaim,
            next: vec![0; streams.len()],
            live: (0..streams.len()).collect(),
            cursor: 0,
        }
    }

    /// Runs up to [`CHUNK_SLOTS`] scheduler slots, appending what executed
    /// to `log`. Returns true once every tenant has left.
    fn run_chunk(&mut self, streams: &[Stream], log: &mut Vec<Op>) -> bool {
        for _ in 0..CHUNK_SLOTS {
            if self.live.is_empty() {
                break;
            }
            if self.cursor >= self.live.len() {
                self.cursor = 0;
            }
            let pick = self.cursor;
            self.cursor += 1;
            let slot = self.live[pick];
            let (exit, ended) = match streams[slot].events.get(self.next[slot]) {
                Some(&event) => {
                    self.next[slot] += 1;
                    match self.machine.step(slot, event) {
                        Ok(()) => {
                            log.push(Op::Event(slot, event));
                            (None, false)
                        }
                        Err(fault) => (Some(fault.cause()), true),
                    }
                }
                // A stream that ends leaves like a process exit. With
                // reclaim on, the kill path performs exactly the
                // retire-and-reclaim `Machine::run` does. Without it (solo
                // cells only), `finish` retires the tenant after its last
                // event, as `run` itself would.
                None => (self.reclaim.then_some(TenantFaultCause::BadEvent), true),
            };
            if let Some(cause) = exit {
                self.machine.kill_tenant(slot, cause);
                log.push(Op::Exit(slot));
            }
            if ended {
                self.live.remove(pick);
                if pick < self.cursor {
                    self.cursor -= 1;
                }
            }
        }
        self.live.is_empty()
    }

    /// Finalizes the machine and returns its ledger.
    fn finish(mut self, keys: &[String], machine_cell: &str) -> Ledger {
        let stats = self.machine.run();
        let mut ledger = Ledger::default();
        for (slot, key) in keys.iter().enumerate() {
            let s = stats.tenant(slot);
            ledger::run_stats_hw(&mut ledger, key, s);
            ledger::os_stats(&mut ledger, key, &s.os);
            ledger::cache_hits(&mut ledger, key, s.mmu_cache_hits);
        }
        ledger::os_stats(&mut ledger, machine_cell, &stats.global.os);
        ledger::cache_hits(&mut ledger, machine_cell, stats.global.mmu_cache_hits);
        ledger::buddy(&mut ledger, machine_cell, self.machine.os().buddy());
        ledger
    }
}

/// A tenant's translation view frozen when it leaves the machine.
struct ExitView {
    census: BTreeMap<tps_core::PageOrder, u64>,
    resident: u64,
    touched: u64,
}

impl ExitView {
    fn of(os: &Os, asid: u16) -> Self {
        let process = os.process(asid);
        ExitView {
            census: process.page_table().page_census(),
            resident: process.resident_bytes(),
            touched: process.touched_bytes(),
        }
    }
}

/// The executed sequence replayed on a bare `Os`/`Mmu`, configured as
/// `MachineBuilder::build` configures a machine's.
struct BareReplay {
    os: Os,
    mmu: Mmu,
    asids: Vec<u16>,
    regions: Vec<BTreeMap<u32, VirtAddr>>,
    counters: Vec<RunCounters>,
    measured: Vec<bool>,
    exits: Vec<Option<ExitView>>,
    phases: Phases,
}

impl BareReplay {
    fn new(config: &MachineConfig, tenants: usize) -> Self {
        let buddy = config
            .initial_memory
            .clone()
            .unwrap_or_else(|| BuddyAllocator::new(config.memory_bytes));
        let mut os = Os::with_buddy(buddy, config.policy);
        os.set_background_noise(config.os_noise_period);
        if config.five_level_paging {
            os.set_page_table_levels(5);
        }
        os.set_fine_grained_ad(config.fine_grained_ad);
        let mmu = Mmu::new(config);
        let asids = (0..tenants).map(|_| os.spawn()).collect();
        BareReplay {
            os,
            mmu,
            asids,
            regions: vec![BTreeMap::new(); tenants],
            counters: vec![RunCounters::default(); tenants],
            measured: vec![false; tenants],
            exits: (0..tenants).map(|_| None).collect(),
            phases: Phases::default(),
        }
    }

    /// Applies one chunk of the executed sequence, timing each phase.
    fn apply(&mut self, log: &[Op]) -> Result<(), String> {
        let mut clock = PhaseClock::new();
        for op in log {
            match *op {
                Op::Event(t, event) => {
                    let phase = if self.measured[t] {
                        Phase::Measured
                    } else {
                        Phase::Init
                    };
                    clock.enter(phase);
                    self.event(t, event, phase)?;
                }
                Op::Exit(t) => {
                    clock.enter(Phase::Exit);
                    let asid = self.asids[t];
                    self.exits[t] = Some(ExitView::of(&self.os, asid));
                    self.mmu.retire_asid(asid);
                    for base in std::mem::take(&mut self.regions[t]).into_values() {
                        let shootdowns = self.os.munmap(asid, base).map_err(|e| e.to_string())?;
                        self.mmu.apply_shootdowns(&shootdowns);
                    }
                }
            }
        }
        let [init_ns, measured_ns, exit_ns] = clock.stop();
        self.phases.init_ns += init_ns;
        self.phases.measured_ns += measured_ns;
        self.phases.exit_ns += exit_ns;
        Ok(())
    }

    fn event(&mut self, t: usize, event: Event, phase: Phase) -> Result<(), String> {
        let asid = self.asids[t];
        match event {
            Event::Mmap { region, bytes } => {
                let vma = self.os.mmap(asid, bytes).map_err(|e| e.to_string())?;
                self.regions[t].insert(region, vma.base());
            }
            Event::Munmap { region } => {
                let base = self.regions[t]
                    .remove(&region)
                    .ok_or_else(|| format!("munmap of unknown region {region}"))?;
                let shootdowns = self.os.munmap(asid, base).map_err(|e| e.to_string())?;
                self.mmu.apply_shootdowns(&shootdowns);
            }
            Event::Access {
                region,
                offset,
                write,
            } => {
                let base = *self.regions[t]
                    .get(&region)
                    .ok_or_else(|| format!("access to unknown region {region}"))?;
                let va = VirtAddr::new(base.value() + offset);
                let outcome = self
                    .mmu
                    .access(&mut self.os, asid, va, write)
                    .map_err(|e| e.to_string())?;
                self.counters[t].record(outcome.level, &outcome);
                match phase {
                    Phase::Init => self.phases.init_faults += u64::from(outcome.faults),
                    _ => self.phases.measured_accesses += 1,
                }
            }
            Event::Compute { insts } => self.counters[t].compute(insts),
            Event::StatsBarrier => {
                self.counters[t].barrier();
                self.measured[t] = true;
            }
        }
        Ok(())
    }

    /// The replay's ledger and `[pte_writes, buddy splits, merges, frees]`.
    fn finish(mut self, keys: &[String], machine_cell: &str) -> (Ledger, [u64; 4]) {
        let mut ledger = Ledger::default();
        for (t, key) in keys.iter().enumerate() {
            let view = self.exits[t]
                .take()
                .unwrap_or_else(|| ExitView::of(&self.os, self.asids[t]));
            ledger::counters_hw(
                &mut ledger,
                key,
                &self.counters[t].measured,
                &self.counters[t].full,
                &view.census,
                view.resident,
                view.touched,
            );
        }
        ledger::os_stats(&mut ledger, machine_cell, &self.os.stats());
        ledger::cache_hits(&mut ledger, machine_cell, self.mmu.mmu_cache_hits());
        ledger::buddy(&mut ledger, machine_cell, self.os.buddy());
        let pte_writes = self
            .asids
            .iter()
            .map(|&a| self.os.page_table(a).pte_writes())
            .sum();
        let b = self.os.buddy();
        let work = [pte_writes, b.split_count(), b.merge_count(), b.free_count()];
        (ledger, work)
    }
}

/// The raw per-layer values of one traced run.
fn layer_values(
    ctx: &Ctx,
    pass: &Pass,
    totals: &Totals,
    replays: &Ledger,
    shared_over_solo: f64,
    spans: &[crate::spans::Span],
) -> BTreeMap<&'static str, f64> {
    use crate::spans::{self_ms, total_ms};
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let wl_ms = self_ms("wl.build", spans) + self_ms("wl.drain", spans);
    // Signed: on a noisy host the difference of two timings can dip below
    // zero, and clamping it would bias the figure upward.
    let dispatch_ns = totals.step_ns as f64 - totals.bare_ns as f64;
    let os_ms = (totals.phases.init_ns + totals.phases.exit_ns) as f64 / 1e6;
    let mmu_ms = totals.phases.measured_ns as f64 / 1e6;
    let experiment_ms = self_ms("experiment.build", spans)
        + self_ms("report.json", spans)
        + self_ms("io.publish", spans)
        + total_ms("io.checkpoint", spans);
    let pool_ms = total_ms("pool.run", spans);
    let pool_speedup = if ctx.bench == Bench::Tenants64 || pool_ms == 0.0 {
        1.0
    } else {
        totals.serial_cell_ns as f64 / 1e6 / pool_ms
    };
    let machine_hits = replays.sum_field("machine/mmu_cache.pde")
        + replays.sum_field("machine/mmu_cache.pdpte")
        + replays.sum_field("machine/mmu_cache.pml4e");
    let values: [(&'static str, f64); 34] = [
        ("wl.build_ms", total_ms("wl.build", spans)),
        (
            "wl.gen_ns_per_event",
            per(total_ms("wl.drain", spans) * 1e6, totals.events),
        ),
        ("wl.events", totals.events as f64),
        (
            "machine.dispatch_ns_per_event",
            per(dispatch_ns, totals.replayed),
        ),
        ("machine.tenant_overhead_ratio", shared_over_solo),
        ("machine.tenants_killed", pass.killed as f64),
        (
            "os.fault_ns",
            per(totals.phases.init_ns as f64, totals.phases.init_faults),
        ),
        ("os.faults", replays.sum_field("machine/os.faults") as f64),
        (
            "os.promotions",
            replays.sum_field("machine/os.promotions") as f64,
        ),
        ("pt.pte_writes", totals.pte_writes as f64),
        ("mem.buddy_splits", totals.buddy_splits as f64),
        ("mem.buddy_merges", totals.buddy_merges as f64),
        ("mem.buddy_frees", totals.buddy_frees as f64),
        (
            "os.shootdowns",
            replays.sum_field("machine/os.shootdowns") as f64,
        ),
        (
            "os.op_cycles",
            replays.sum_field("machine/os.op_cycles") as f64,
        ),
        (
            "mmu.access_ns",
            per(
                totals.phases.measured_ns as f64,
                totals.phases.measured_accesses,
            ),
        ),
        ("tlb.l1_hits", replays.sum_field("full_mem.l1_hits") as f64),
        (
            "tlb.stlb_hits",
            replays.sum_field("full_mem.stlb_hits") as f64,
        ),
        (
            "tlb.range_hits",
            replays.sum_field("full_mem.range_hits") as f64,
        ),
        ("pt.walks", replays.sum_field("full_mem.l2_misses") as f64),
        ("pt.walk_refs", replays.sum_field("full_walk_refs") as f64),
        ("pt.mmu_cache_hits", machine_hits as f64),
        ("experiment.build_ms", total_ms("experiment.build", spans)),
        ("pool.speedup", pool_speedup),
        ("report.json_ms", total_ms("report.json", spans)),
        ("io.publish_ms", total_ms("io.publish", spans)),
        ("io.checkpoint_ms", total_ms("io.checkpoint", spans)),
        ("report.bytes", pass.report_bytes as f64),
        ("io.journal_bytes", pass.journal_bytes as f64),
        ("self.wl_ms", wl_ms),
        ("self.machine_ms", dispatch_ns / 1e6),
        ("self.os_ms", os_ms),
        ("self.mmu_ms", mmu_ms),
        ("self.experiment_ms", experiment_ms),
    ];
    let mut out: BTreeMap<&'static str, f64> = values.into_iter().collect();
    out.insert("pass.traced_wall_ms", pass.wall_s * 1e3);
    out.insert("pool.wall_ms", pool_ms);
    out.insert("pool.serial_cell_ms", totals.serial_cell_ns as f64 / 1e6);
    out
}
