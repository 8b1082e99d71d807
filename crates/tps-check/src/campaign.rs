//! The OS property: randomized fault-injected schedules.
//!
//! A *schedule* is a seeded sequence of `mmap` / page-fault / `munmap` /
//! `compact` operations run against a small, pressured [`Os`] instance
//! with a [`FaultPlan`] installed, audited by an [`Auditor`] as it goes
//! and torn down completely at the end (all VMAs unmapped, with a final
//! everything-returned check). A [`Campaign`] of [`OsProperty`] runs
//! many of them.
//!
//! Everything is deterministic: the campaign seed fixes the schedule
//! seeds, each schedule seed fixes both the op stream and the fault
//! stream, so any reported violation replays exactly.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::audit::Auditor;
use crate::plan::{FaultPlan, FaultPlanConfig};
use crate::runner::{spread, Campaign, Property};
use tps_core::rng::Rng;
use tps_core::{InjectorHandle, PageOrder, TpsError, VirtAddr};
use tps_os::{Os, OsStats, PolicyConfig, PolicyKind, Vma};
use tps_tlb::Asid;

/// The default campaign: 100 schedules.
pub const CAMPAIGN: Campaign = Campaign {
    schedules: 100,
    seed: 0x7505_cafe,
};

/// Fault-injected OS schedules: every cross-layer invariant holds and
/// teardown returns every frame. The fields shape each schedule's op
/// stream.
#[derive(Copy, Clone, Debug)]
pub struct OsProperty {
    /// Operations per schedule (before the final teardown).
    pub ops_per_schedule: u32,
    /// Physical memory per schedule; small sizes create real pressure.
    pub mem_bytes: u64,
    /// Fault-site probabilities. The `seed` field inside is ignored —
    /// each schedule derives its own injector seed.
    pub plan: FaultPlanConfig,
    /// Audit after every this-many ops (0 = only at schedule end).
    pub audit_every: u32,
}

impl Default for OsProperty {
    fn default() -> Self {
        OsProperty {
            ops_per_schedule: 48,
            mem_bytes: 32 << 20,
            plan: FaultPlanConfig {
                buddy_alloc: 0.05,
                reserve_span: 0.20,
                compaction_step: 0.25,
                shootdown_deliver: 0.25,
                // Hardware sites stay off here: the campaign audits the OS
                // layer; `crate::shadow` owns the hardware sites.
                ..FaultPlanConfig::disabled(0)
            },
            audit_every: 8,
        }
    }
}

/// What one schedule did and found.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Final OS counters (after teardown).
    pub stats: OsStats,
    /// Free bytes at teardown (for conservation checks).
    pub free_bytes: u64,
    /// Free-list histogram at teardown, as (order, count) pairs — part of
    /// the byte-identical fingerprint for zero-cost-default checks.
    pub histogram: Vec<(u8, u64)>,
    /// Invariant violations, prefixed with the op index where found.
    pub violations: Vec<String>,
    /// Operations that legitimately failed with `OutOfMemory`.
    pub oom_events: u64,
}

/// Summed counters proving the degradation paths really ran.
#[derive(Clone, Debug, Default)]
pub struct OsTally {
    /// Faults the injectors introduced.
    pub faults_injected: u64,
    /// Legitimate out-of-memory degradations.
    pub oom_events: u64,
    /// Every schedule's final OS counters, summed.
    pub os: OsStats,
}

impl fmt::Display for OsTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let os = &self.os;
        write!(
            f,
            "({} faults injected, {} OOM events): {} faults, {} 4K fallbacks \
             ({} from OOM), {} compaction aborts, {} shootdowns retried, {} promotions",
            self.faults_injected,
            self.oom_events,
            os.faults,
            os.fallback_4k,
            os.oom_fallbacks,
            os.compaction_aborts,
            os.shootdowns_retried,
            os.promotions
        )
    }
}

impl Property for OsProperty {
    type Tally = OsTally;

    /// The xoshiro stream of the base seed.
    fn seeds(&self, base: u64) -> impl Iterator<Item = u64> {
        let mut seeder = Rng::new(base);
        std::iter::repeat_with(move || seeder.next_u64())
    }

    fn check(&self, _index: u64, seed: u64, tally: &mut OsTally) -> Result<(), String> {
        let (out, plan) = run_planned(self, seed);
        tally.faults_injected += plan.borrow().injected_total();
        tally.oom_events += out.oom_events;
        tally.os += out.stats;
        if out.violations.is_empty() {
            Ok(())
        } else {
            Err(out.violations.join("; "))
        }
    }
}

/// The policies a schedule may draw (RMM is exercised elsewhere; its
/// eager `mmap` propagates OOM rather than degrading, which would blur
/// the campaign's "errors are violations" rule).
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Tps,
    PolicyKind::TpsEager,
    PolicyKind::Thp,
    PolicyKind::Only4K,
    PolicyKind::Only2M,
];

/// Runs one schedule with a caller-chosen injector (possibly `None`).
///
/// The op stream depends only on `(property, schedule_seed)` and the OS's
/// observable behavior, so two runs with behaviorally identical injectors
/// (e.g. `None` vs a never-faulting plan) produce identical outcomes —
/// the zero-cost-default property.
pub fn run_schedule_with_injector(
    property: &OsProperty,
    schedule_seed: u64,
    injector: Option<InjectorHandle>,
) -> ScheduleOutcome {
    let mut rng = Rng::new(schedule_seed);
    let kind = POLICIES[rng.below(POLICIES.len() as u64) as usize];
    let mut policy = PolicyConfig::new(kind);
    if kind == PolicyKind::Tps && rng.chance(0.5) {
        // Exercise speculative promotion too (bloat allowed, audited).
        policy = policy.with_threshold(0.5);
    }
    let mut os = Os::new(property.mem_bytes, policy);
    if rng.chance(0.5) {
        os.set_background_noise(16);
    }
    os.set_fault_injector(injector);

    let procs: Vec<Asid> = (0..1 + rng.below(2)).map(|_| os.spawn()).collect();
    let mut vmas: Vec<(Asid, Vma)> = Vec::new();
    let mut auditor = Auditor::new();
    let mut violations = Vec::new();
    let mut oom_events = 0;

    for op in 0..property.ops_per_schedule {
        let roll = rng.next_f64();
        if vmas.is_empty() || (roll < 0.20 && vmas.len() < 24) {
            let pid = procs[rng.below(procs.len() as u64) as usize];
            let bytes = PageOrder::P4K.bytes() * (1 + rng.below(96));
            match os.mmap(pid, bytes) {
                Ok(vma) => vmas.push((pid, vma)),
                Err(e) => violations.push(format!("op {op}: mmap failed: {e}")),
            }
        } else if roll < 0.28 {
            let (pid, vma) = vmas.swap_remove(rng.below(vmas.len() as u64) as usize);
            match os.munmap(pid, vma.base()) {
                Ok(shootdowns) => auditor.record_shootdowns(&shootdowns),
                Err(e) => violations.push(format!("op {op}: munmap failed: {e}")),
            }
        } else if roll < 0.34 {
            match os.compact() {
                Ok((_, shootdowns)) => auditor.record_shootdowns(&shootdowns),
                Err(e) => violations.push(format!("op {op}: compact failed: {e}")),
            }
        } else {
            let (pid, vma) = &vmas[rng.below(vmas.len() as u64) as usize];
            let off = rng.below(vma.len());
            let va = VirtAddr::new(vma.base().value() + off);
            if os.page_table(*pid).lookup(va).is_none() {
                match os.handle_fault(*pid, va, rng.chance(0.5)) {
                    Ok(outcome) => auditor.record_fill(&os, *pid, &outcome),
                    Err(TpsError::OutOfMemory { .. }) => oom_events += 1,
                    Err(e) => violations.push(format!("op {op}: fault at {va} failed: {e}")),
                }
            }
        }
        if property.audit_every > 0 && (op + 1) % property.audit_every == 0 {
            violations.extend(
                auditor
                    .audit(&os)
                    .into_iter()
                    .map(|m| format!("op {op}: {m}")),
            );
        }
    }

    // Teardown: unmap everything, then all non-noise memory must be back.
    let end = property.ops_per_schedule;
    for (pid, vma) in vmas.drain(..) {
        match os.munmap(pid, vma.base()) {
            Ok(shootdowns) => auditor.record_shootdowns(&shootdowns),
            Err(e) => violations.push(format!("op {end}: teardown munmap: {e}")),
        }
    }
    violations.extend(
        auditor
            .audit(&os)
            .into_iter()
            .map(|m| format!("op {end}: {m}")),
    );
    let noise_bytes = os.noise_blocks().len() as u64 * PageOrder::P2M.bytes();
    let used_bytes = os.buddy().used_bytes();
    if used_bytes != noise_bytes {
        violations.push(format!(
            "op {end}: teardown leak: {used_bytes} bytes still allocated, \
             {noise_bytes} attributable to noise"
        ));
    }

    ScheduleOutcome {
        stats: os.stats(),
        free_bytes: os.buddy().free_bytes(),
        histogram: os
            .buddy()
            .histogram()
            .iter()
            .map(|(order, count)| (order.get(), count))
            .collect(),
        violations,
        oom_events,
    }
}

/// Runs one schedule under a [`FaultPlan`] built from `property.plan` and
/// seeded per schedule; the plan comes back for its injection counters.
fn run_planned(property: &OsProperty, seed: u64) -> (ScheduleOutcome, Rc<RefCell<FaultPlan>>) {
    let (handle, plan) = FaultPlan::handles(FaultPlanConfig {
        // Decorrelate the fault stream from the op stream: `seed ^ φ64`.
        seed: spread(seed, 1),
        ..property.plan
    });
    (
        run_schedule_with_injector(property, seed, Some(handle)),
        plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_schedule_runs_clean_under_injection() {
        let (out, plan) = run_planned(&OsProperty::default(), 0xdead_beef);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(plan.borrow().consultations() > 0, "injector was consulted");
        assert!(out.stats.faults > 0, "schedule did real work");
    }

    #[test]
    fn schedules_replay_deterministically() {
        let (a, a_plan) = run_planned(&OsProperty::default(), 42);
        let (b, b_plan) = run_planned(&OsProperty::default(), 42);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.free_bytes, b.free_bytes);
        assert_eq!(a.histogram, b.histogram);
        assert_eq!(
            a_plan.borrow().injected_total(),
            b_plan.borrow().injected_total()
        );
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn small_campaign_aggregates() {
        let campaign = Campaign {
            schedules: 8,
            ..CAMPAIGN
        };
        let report = campaign.run(&OsProperty::default());
        assert_eq!(report.schedules, 8);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.tally.os.faults > 0);
    }
}
