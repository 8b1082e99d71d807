//! The headline robustness claims, as executable tests:
//!
//! 1. ~1,000 randomized seeded mmap/fault/munmap/compact schedules under
//!    injected faults complete with zero panics and every cross-layer
//!    invariant held.
//! 2. The injection hooks are zero-cost by default: a schedule run with
//!    no injector and the same schedule run with a never-faulting plan
//!    produce byte-identical OS statistics and free-list state.

use tps_check::campaign::{self, run_schedule_with_injector, OsProperty};
use tps_check::{Campaign, FaultPlan, FaultPlanConfig};

/// 1,000 schedules × 48 ops, faults injected at every site, audits every
/// 8 ops plus a full audit and leak check at each teardown. Zero panics is
/// implicit (a panic fails the test); zero violations is asserted.
#[test]
fn thousand_fault_injected_schedules_hold_every_invariant() {
    let campaign = Campaign {
        schedules: 1000,
        ..campaign::CAMPAIGN
    };
    let report = campaign.run(&OsProperty::default());
    assert_eq!(report.schedules, 1000);
    assert!(report.passed(), "invariant violations: {report}");
    let tally = &report.tally;
    // The campaign must have actually exercised the fault machinery, not
    // merely survived an idle run.
    assert!(tally.faults_injected > 1000, "faults were injected");
    assert!(tally.os.faults > 10_000, "schedules did real paging work");
    assert!(
        tally.os.oom_fallbacks > 0,
        "allocation denial degraded to 4K"
    );
    assert!(tally.os.compaction_aborts > 0, "compaction was interrupted");
    assert!(
        tally.os.shootdowns_retried > 0,
        "dropped shootdowns were retried"
    );
    assert!(tally.os.promotions > 0, "promotion machinery kept working");
}

/// Torture variant: every site faults at high probability. Much more
/// degradation, still zero violations.
#[test]
fn high_probability_torture_schedules_stay_consistent() {
    let campaign = Campaign {
        schedules: 100,
        seed: 0x0123_4567_89ab_cdef,
    };
    let torture = OsProperty {
        plan: FaultPlanConfig::uniform(0, 0.6),
        ..OsProperty::default()
    };
    let report = campaign.run(&torture);
    assert!(report.passed(), "torture violations: {report}");
    assert!(
        report.tally.faults_injected > report.schedules,
        "torture really hurt"
    );
}

/// Zero-cost default: for many seeds, running with no injector installed
/// and running with a never-faulting `FaultPlan` installed produce
/// byte-identical statistics, free bytes, and free-list histograms.
#[test]
fn disabled_injection_is_byte_identical_to_no_injector() {
    let property = OsProperty::default();
    for seed in 0..25u64 {
        let bare = run_schedule_with_injector(&property, seed, None);
        let (handle, plan) = FaultPlan::handles(FaultPlanConfig::disabled(seed));
        let hooked = run_schedule_with_injector(&property, seed, Some(handle));
        assert!(
            bare.violations.is_empty(),
            "seed {seed}: {:?}",
            bare.violations
        );
        assert!(
            hooked.violations.is_empty(),
            "seed {seed}: {:?}",
            hooked.violations
        );
        assert_eq!(bare.stats, hooked.stats, "seed {seed}: OsStats diverged");
        assert_eq!(bare.free_bytes, hooked.free_bytes, "seed {seed}");
        assert_eq!(bare.histogram, hooked.histogram, "seed {seed}");
        assert!(
            plan.borrow().consultations() > 0,
            "seed {seed}: the disabled plan was really installed and consulted"
        );
    }
}
