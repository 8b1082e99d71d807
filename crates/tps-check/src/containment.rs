//! The containment property: multi-tenant fault-containment schedules.
//!
//! [`crate::campaign`] stresses the OS layer and [`crate::chaos`] the
//! artifact I/O; this module stresses the containment contract of the
//! machine itself: a tenant that misbehaves — overruns the shared pool,
//! exceeds its memory cap, or emits a malformed event stream — must be
//! *killed*, never allowed to panic the machine or corrupt the shared
//! hardware state the survivors keep using.
//!
//! Every schedule is a pure function of `(campaign seed, schedule
//! index)`: it assembles 2–6 tenants from a small cast of adversaries
//! (well-behaved processes, a memory hog that touches more than the
//! whole pool, a capped process that overruns its share, a buggy
//! process that emits a malformed event), picks a shared-pool size that
//! guarantees contention, an OOM policy, and — on a quarter of the
//! schedules — an armed [`FaultPlan`] whose injected allocation
//! failures masquerade as early OOM. Each schedule then asserts:
//!
//! * **No panics.** The whole run executes under `catch_unwind`; any
//!   unwind is a pinned campaign failure.
//! * **Buddy conservation after every kill.** Integrated schedules run
//!   [`tps_sim::Machine::run`] and audit the final OS state with the
//!   [`Auditor`]; manual schedules drive [`tps_sim::Machine::step`]
//!   directly, kill faulting tenants through
//!   [`tps_sim::Machine::kill_tenant`], and audit the live OS
//!   immediately after each kill — the freed frames must already be
//!   back in a consistent buddy state while the survivors run on.
//! * **Per-tenant stats sum to the rollup.** The per-tenant attributed
//!   OS counters (kill-reclaim work included) must sum exactly to the
//!   machine-wide [`tps_os::OsStats`], and the per-tenant access counts
//!   to the global TLB counters — no work may leak off the books when a
//!   tenant dies mid-run.
//! * **Deterministic kill sequences.** Re-running the identical
//!   schedule must reproduce the same per-tenant outcomes — cause and
//!   `at_event` — and the same per-tenant statistics, so a kill
//!   observed once is a kill observed always.
//!
//! A failing schedule replays alone with [`Campaign::replay`].

use std::fmt;

use tps_core::rng::Rng;
use tps_core::{TenantFaultCause, BASE_PAGE_SIZE};
use tps_os::OsStats;
use tps_sim::{
    Machine, MachineBuilder, MachineConfig, MachineRunStats, Mechanism, OnOom, Scheduler,
    TenantOutcome, TenantSpec,
};
use tps_wl::{Event, Workload, WorkloadProfile};

use crate::audit::Auditor;
use crate::plan::{FaultPlan, FaultPlanConfig};
use crate::runner::{Campaign, Property};

const MIB: u64 = 1 << 20;

/// What the containment schedules exercised.
#[derive(Clone, Debug, Default)]
pub struct ContainmentTally {
    /// Schedules driven through [`tps_sim::Machine::step`] +
    /// [`tps_sim::Machine::kill_tenant`] with an audit after every kill.
    pub manual: u64,
    /// Schedules running under an armed [`FaultPlan`].
    pub armed: u64,
    /// Tenants killed across all schedules.
    pub kills: u64,
    /// Kills caused by shared-pool exhaustion (injected or real).
    pub oom_kills: u64,
    /// Kills caused by a per-tenant memory cap.
    pub cap_kills: u64,
    /// Kills caused by malformed events (unknown regions included).
    pub bad_event_kills: u64,
    /// Tenants that ran their event stream to completion.
    pub completed: u64,
}

impl fmt::Display for ContainmentTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({} manual, {} fault-armed): {} kills \
             ({} oom, {} cap, {} bad-event), {} completed",
            self.manual,
            self.armed,
            self.kills,
            self.oom_kills,
            self.cap_kills,
            self.bad_event_kills,
            self.completed
        )
    }
}

/// The default campaign: 240 schedules.
pub const CAMPAIGN: Campaign = Campaign {
    schedules: 240,
    seed: 0x7e57_dead_0000_0002,
};

/// The containment contracts, checked by seeded multi-tenant schedules.
#[derive(Clone, Copy, Debug)]
pub struct ContainmentProperty;

impl Property for ContainmentProperty {
    type Tally = ContainmentTally;

    fn check(&self, index: u64, seed: u64, tally: &mut ContainmentTally) -> Result<(), String> {
        let plan = derive_plan(seed, index);
        tally.manual += u64::from(plan.manual);
        tally.armed += u64::from(plan.faults.is_some());
        let stats = if plan.manual {
            run_manual(&plan)?
        } else {
            let stats = run_integrated(&plan)?;
            let (first, second) = (digest(&stats), digest(&run_integrated(&plan)?));
            if first != second {
                return Err(format!(
                    "kill sequence is not deterministic: first run {first:?}, re-run {second:?}"
                ));
            }
            stats
        };
        for slot in 0..stats.per_tenant.len() {
            match stats.outcome(slot) {
                TenantOutcome::Completed => tally.completed += 1,
                TenantOutcome::Killed { cause, .. } => {
                    tally.kills += 1;
                    match cause {
                        TenantFaultCause::Oom => tally.oom_kills += 1,
                        TenantFaultCause::CapExceeded => tally.cap_kills += 1,
                        TenantFaultCause::UnknownRegion | TenantFaultCause::BadEvent => {
                            tally.bad_event_kills += 1
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// What one tenant in a schedule does.
struct TenantPlan {
    role: &'static str,
    events: Vec<Event>,
    cap: Option<u64>,
}

/// One fully derived schedule: rebuildable any number of times.
struct SchedulePlan {
    mem_bytes: u64,
    mechanism: Mechanism,
    on_oom: OnOom,
    faults: Option<FaultPlanConfig>,
    manual: bool,
    tenants: Vec<TenantPlan>,
}

/// A tenant replaying a precomputed event script.
struct Scripted {
    profile: WorkloadProfile,
    events: std::vec::IntoIter<Event>,
}

impl Workload for Scripted {
    fn profile(&self) -> WorkloadProfile {
        self.profile.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }
}

/// A load or store at `region[offset]`.
fn access(region: u32, offset: u64, write: bool) -> Event {
    Event::Access {
        region,
        offset,
        write,
    }
}

/// A well-behaved process: a few small regions, a burst of accesses,
/// roughly half the regions unmapped again.
fn benign_plan(rng: &mut Rng) -> Vec<Event> {
    let regions = 1 + rng.below(2) as u32;
    let mut events = Vec::new();
    for region in 0..regions {
        let bytes = MIB * (1 + rng.below(2));
        events.push(Event::Mmap { region, bytes });
        for _ in 0..96 {
            events.push(access(region, rng.below(bytes), rng.chance(0.3)));
        }
    }
    for region in 0..regions {
        if rng.chance(0.5) {
            events.push(Event::Munmap { region });
        }
    }
    events
}

/// A noisy neighbor: maps and *touches* far more memory than the whole
/// shared pool holds, so left unchecked it is guaranteed to hit OOM.
fn hog_plan(rng: &mut Rng) -> Vec<Event> {
    let bytes = 2 * MIB;
    let mut events = Vec::new();
    for region in 0..24u32 {
        events.push(Event::Mmap { region, bytes });
        let mut offset = rng.below(BASE_PAGE_SIZE);
        while offset < bytes {
            events.push(access(region, offset, true));
            offset += BASE_PAGE_SIZE;
        }
    }
    events
}

/// A process that keeps mapping past any plausible per-tenant cap.
fn greedy_plan(rng: &mut Rng) -> Vec<Event> {
    let mut events = Vec::new();
    for region in 0..8u32 {
        events.push(Event::Mmap { region, bytes: MIB });
        for _ in 0..16 {
            events.push(access(region, rng.below(MIB), rng.chance(0.5)));
        }
    }
    events
}

/// A buggy process: a benign prefix, then one malformed event.
fn buggy_plan(rng: &mut Rng) -> Vec<Event> {
    let bytes = MIB;
    let mut events = vec![Event::Mmap { region: 0, bytes }];
    for _ in 0..32 {
        events.push(access(0, rng.below(bytes), false));
    }
    events.push(match rng.below(4) {
        0 => access(99, 0, false),
        1 => access(0, bytes + 1, true),
        2 => Event::Mmap { region: 0, bytes },
        _ => Event::Munmap { region: 77 },
    });
    events
}

/// Derives one schedule from its seed. Pure: the same seed always
/// yields the identical plan.
fn derive_plan(seed: u64, schedule: u64) -> SchedulePlan {
    let mut rng = Rng::new(seed);
    let tenant_count = 2 + rng.below(5) as usize;
    let mem_bytes = (16 + rng.below(9)) * MIB;
    let mechanism = [Mechanism::Only4K, Mechanism::Thp, Mechanism::Tps][rng.below(3) as usize];
    let on_oom = if rng.chance(0.5) {
        OnOom::KillVictim
    } else {
        OnOom::FailFast
    };
    let faults = rng.chance(0.25).then(|| FaultPlanConfig {
        buddy_alloc: 0.01,
        reserve_span: 0.02,
        shootdown_deliver: 0.02,
        walk_step: 0.01,
        any_size_fill: 0.01,
        ..FaultPlanConfig::disabled(rng.next_u64())
    });
    let mut tenants = Vec::with_capacity(tenant_count);
    for slot in 0..tenant_count {
        // Slot 0 is always well-behaved so every schedule has a
        // potential survivor; the rest draw from the adversary cast.
        let role = if slot == 0 { 0 } else { rng.below(4) };
        let (role, events, cap) = match role {
            0 => ("benign", benign_plan(&mut rng), None),
            1 => ("hog", hog_plan(&mut rng), None),
            2 => (
                "greedy",
                greedy_plan(&mut rng),
                Some((1 + rng.below(4)) * MIB),
            ),
            _ => ("buggy", buggy_plan(&mut rng), None),
        };
        tenants.push(TenantPlan { role, events, cap });
    }
    SchedulePlan {
        mem_bytes,
        mechanism,
        on_oom,
        faults,
        manual: schedule % 4 == 3,
        tenants,
    }
}

/// Builds the machine for one schedule; `scripted` selects whether the
/// tenants carry their event scripts (integrated mode) or are external
/// shells stepped by the campaign itself (manual mode).
fn build_machine(plan: &SchedulePlan, scripted: bool) -> Result<Machine, String> {
    let config = MachineConfig::for_mechanism(plan.mechanism).with_memory(plan.mem_bytes);
    let mut builder = MachineBuilder::new(config)
        .scheduler(Scheduler::RoundRobin)
        .on_oom(plan.on_oom);
    for tenant in &plan.tenants {
        let mut spec = if scripted {
            TenantSpec::workload(Scripted {
                profile: WorkloadProfile::named(tenant.role),
                events: tenant.events.clone().into_iter(),
            })
        } else {
            TenantSpec::external(tenant.role)
        };
        if let Some(cap) = tenant.cap {
            spec = spec.memory_cap(cap);
        }
        builder = builder.tenant(spec);
    }
    let mut machine = builder
        .build()
        .map_err(|e| format!("machine build failed: {e}"))?;
    if let Some(cfg) = plan.faults {
        let (handle, _plan) = FaultPlan::handles(cfg);
        machine.set_fault_injector(Some(handle));
    }
    Ok(machine)
}

/// The per-tenant facts a re-run must reproduce exactly.
type Digest = Vec<(TenantOutcome, u64, OsStats)>;

fn digest(stats: &MachineRunStats) -> Digest {
    stats
        .per_tenant
        .iter()
        .enumerate()
        .map(|(slot, t)| (stats.outcome(slot), t.mem.accesses, t.os))
        .collect()
}

/// The books-balance checks shared by both modes: a clean audit of the
/// final OS state, per-tenant OS attribution summing exactly to the
/// machine-wide rollup, and per-tenant accesses summing to the global
/// TLB counters.
fn check_books(machine: &Machine, stats: &MachineRunStats) -> Result<(), String> {
    let violations = Auditor::new().audit(machine.os());
    if !violations.is_empty() {
        return Err(format!(
            "post-run audit found {} violation(s): {}",
            violations.len(),
            violations.join("; ")
        ));
    }
    let mut os_sum = OsStats::default();
    for tenant in &stats.per_tenant {
        os_sum.accumulate(&tenant.os);
    }
    if os_sum != stats.global.os {
        return Err(format!(
            "attribution leak: per-tenant OS stats sum to {os_sum:?} \
             but the machine-wide rollup reads {:?}",
            stats.global.os
        ));
    }
    let accesses: u64 = stats.per_tenant.iter().map(|t| t.mem.accesses).sum();
    if accesses != stats.global.mem.accesses {
        return Err(format!(
            "per-tenant accesses sum to {accesses} but the rollup reads {}",
            stats.global.mem.accesses
        ));
    }
    Ok(())
}

/// Runs one schedule body, turning a panic into a pinned failure.
fn contained(
    body: impl FnOnce() -> Result<MachineRunStats, String>,
) -> Result<MachineRunStats, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("machine panicked instead of containing the fault: {msg}")
    })?
}

/// Integrated mode: [`tps_sim::Machine::run`] owns the containment
/// policy.
fn run_integrated(plan: &SchedulePlan) -> Result<MachineRunStats, String> {
    contained(|| {
        let mut machine = build_machine(plan, true)?;
        let stats = machine.run();
        check_books(&machine, &stats)?;
        Ok(stats)
    })
}

/// Manual mode: the campaign is the driver. Faulting tenants are killed
/// through [`tps_sim::Machine::kill_tenant`] and the live OS is audited
/// *immediately* after each kill, while the survivors still run.
fn run_manual(plan: &SchedulePlan) -> Result<MachineRunStats, String> {
    contained(|| {
        let mut machine = build_machine(plan, false)?;
        let mut auditor = Auditor::new();
        let mut streams: Vec<std::vec::IntoIter<Event>> = plan
            .tenants
            .iter()
            .map(|t| t.events.clone().into_iter())
            .collect();
        let mut live: Vec<usize> = (0..plan.tenants.len()).collect();
        let mut turn = 0usize;
        while !live.is_empty() {
            let pick = turn % live.len();
            let slot = live[pick];
            turn += 1;
            let Some(event) = streams[slot].next() else {
                live.remove(pick);
                continue;
            };
            if let Err(fault) = machine.step(slot, event) {
                machine.kill_tenant(slot, fault.cause());
                live.remove(pick);
                let violations = auditor.audit(machine.os());
                if !violations.is_empty() {
                    return Err(format!(
                        "audit right after killing tenant {slot} ({}) found {} violation(s): {}",
                        fault.cause().label(),
                        violations.len(),
                        violations.join("; ")
                    ));
                }
            }
        }
        // The external tenants' machine-side streams are empty: run()
        // retires the survivors and rolls the books up.
        let stats = machine.run();
        check_books(&machine, &stats)?;
        Ok(stats)
    })
}
