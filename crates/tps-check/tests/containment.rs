//! The headline containment claim: hundreds of seeded multi-tenant
//! schedules full of hogs, cap overrunners, malformed event streams and
//! injected allocation faults complete with zero panics, a conserved
//! buddy state after every kill, per-tenant statistics that sum exactly
//! to the rollup, and byte-for-byte reproducible kill sequences.

use tps_check::containment::{ContainmentProperty, CAMPAIGN};

#[test]
fn containment_campaign_holds_every_contract() {
    const {
        assert!(
            CAMPAIGN.schedules >= 200,
            "the campaign must stay substantial"
        )
    };
    let report = CAMPAIGN.run(&ContainmentProperty);
    let tally = &report.tally;
    assert!(report.passed(), "{report}");
    assert_eq!(report.schedules, CAMPAIGN.schedules);
    // The cast guarantees the campaign actually exercised every kill
    // path, not just fault-free runs.
    assert!(tally.kills > 0, "{report}");
    assert!(tally.oom_kills > 0, "{report}");
    assert!(tally.cap_kills > 0, "{report}");
    assert!(tally.bad_event_kills > 0, "{report}");
    assert!(tally.completed > 0, "{report}");
    assert!(tally.manual > 0, "{report}");
    assert!(tally.armed > 0, "{report}");
}

#[test]
fn one_pinned_schedule_replays_in_isolation() {
    CAMPAIGN
        .replay(&ContainmentProperty, 0)
        .expect("schedule 0 upholds the contracts");
}
