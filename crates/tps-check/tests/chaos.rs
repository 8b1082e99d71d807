//! The headline artifact-robustness claim: a pinned-seed chaos campaign
//! of kill / corruption / I/O-storm schedules over the experiment
//! engine's checkpoint journal and report publication path completes
//! with zero contract violations.
//!
//! Every schedule is a pure function of the pinned campaign seed and its
//! index, so a failure here is replayable in isolation with
//! `Campaign::replay` at the schedule index the assertion message prints.

use tps_check::chaos::{scratch_dir, ChaosProperty, CAMPAIGN};

#[test]
fn chaos_campaign_holds_every_artifact_contract() {
    const {
        assert!(
            CAMPAIGN.schedules >= 200,
            "the acceptance bar is >= 200 pinned-seed schedules"
        )
    };
    let dir = scratch_dir("campaign");
    let chaos = ChaosProperty::new(&dir).expect("reference run builds");
    let report = CAMPAIGN.run(&chaos);
    let tally = &report.tally;
    assert_eq!(report.schedules, CAMPAIGN.schedules);
    // Every schedule family actually ran.
    assert!(tally.kills > 0 && tally.corruptions > 0 && tally.io_storms > 0);
    // Every family exercised its success path at least once: kills that
    // resumed byte-identically, corruptions that were caught, damaged
    // journals that salvage recovered.
    assert!(tally.resumed > 0, "{report}");
    assert!(tally.detected > 0, "{report}");
    assert!(tally.salvaged > 0, "{report}");
    assert!(
        report.passed(),
        "chaos campaign failed — replay with Campaign::replay:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
