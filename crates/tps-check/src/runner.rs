//! The one seeded campaign runner behind every randomized robustness check.
//!
//! A [`Campaign`] runs a fixed number of *schedules* of one [`Property`]
//! (the OS contracts in [`crate::campaign`], the artifact contracts in
//! [`crate::chaos`], the tenant-containment contracts in
//! [`crate::containment`]). Each schedule is a pure function of its index
//! and its seed, so a broken contract becomes one pinned [`Failure`] and
//! [`Campaign::replay`] re-runs that schedule alone with the same detail.

use std::fmt;

/// SplitMix64's golden-gamma increment.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Spreads `base` over schedule indices: `base ^ index·φ64`. Distinct
/// indices get well-separated seeds, and any one of them is derivable
/// alone, so a failing schedule replays in isolation.
pub(crate) fn spread(base: u64, index: u64) -> u64 {
    base ^ index.wrapping_mul(GOLDEN)
}

/// How many schedules a campaign runs, and the base seed they derive from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Campaign {
    /// Number of schedules to run.
    pub schedules: u64,
    /// Base seed; every schedule seed derives from it.
    pub seed: u64,
}

impl Campaign {
    /// Runs every schedule of `property`. Deterministic: the same
    /// campaign and property always yield the same report.
    pub fn run<P: Property>(&self, property: &P) -> Report<P::Tally> {
        let mut report = Report::default();
        for (schedule, seed) in (0..self.schedules).zip(property.seeds(self.seed)) {
            report.schedules += 1;
            if let Err(detail) = property.check(schedule, seed, &mut report.tally) {
                report.failures.push(Failure {
                    schedule,
                    seed,
                    detail,
                });
            }
        }
        report
    }

    /// Replays schedule `index` of `property` alone.
    ///
    /// # Errors
    ///
    /// The broken contract's description, exactly as [`Campaign::run`]
    /// pins it.
    pub fn replay<P: Property>(&self, property: &P, index: u64) -> Result<(), String> {
        let seed = property.seeds(self.seed).nth(index as usize);
        let seed = seed.expect("seed streams are endless");
        property.check(index, seed, &mut P::Tally::default())
    }
}

/// One pinned schedule failure: everything needed to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The schedule's index within the campaign.
    pub schedule: u64,
    /// The schedule's derived seed.
    pub seed: u64,
    /// What contract broke.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule {} (seed {:#x}): {}",
            self.schedule, self.seed, self.detail
        )
    }
}

/// Aggregated outcome of a campaign.
#[derive(Clone, Debug, Default)]
pub struct Report<T> {
    /// Schedules executed.
    pub schedules: u64,
    /// The property's own counters, summed over every schedule.
    pub tally: T,
    /// Contract violations, pinned for replay. Empty means the campaign
    /// passed.
    pub failures: Vec<Failure>,
}

impl<T> Report<T> {
    /// Whether every schedule upheld every contract.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The one-line summary (schedule count, tally, failure count), then one
/// line per pinned failure.
impl<T: fmt::Display> fmt::Display for Report<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules {}, {} failures",
            self.schedules,
            self.tally,
            self.failures.len()
        )?;
        for failure in &self.failures {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

/// A contract checked by running seeded schedules.
pub trait Property {
    /// Counters a schedule adds to (what the campaign exercised).
    type Tally: Default;

    /// The endless stream of schedule seeds from base seed `base`: by
    /// default `base ^ index·φ64` for each schedule index.
    fn seeds(&self, base: u64) -> impl Iterator<Item = u64> {
        (0..).map(move |index| spread(base, index))
    }

    /// Runs schedule `index` from `seed`, adding what it exercised to
    /// `tally`.
    ///
    /// # Errors
    ///
    /// The broken contract's description.
    fn check(&self, index: u64, seed: u64, tally: &mut Self::Tally) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{self, OsProperty};
    use crate::chaos::{self, scratch_dir, ChaosProperty};
    use crate::containment::{self, ContainmentProperty};

    /// Fails only at schedule 3; counts every schedule it sees.
    struct FailsAtThree;

    impl Property for FailsAtThree {
        type Tally = u64;

        fn check(&self, index: u64, seed: u64, tally: &mut u64) -> Result<(), String> {
            *tally += 1;
            if index == 3 {
                return Err(format!("broke at {seed:#x}"));
            }
            Ok(())
        }
    }

    #[test]
    fn one_failing_schedule_is_pinned_and_replays() {
        let campaign = Campaign {
            schedules: 6,
            seed: 0x5eed,
        };
        let report = campaign.run(&FailsAtThree);
        assert_eq!(report.schedules, 6);
        assert_eq!(report.tally, 6);
        let seed = spread(0x5eed, 3);
        let detail = format!("broke at {seed:#x}");
        assert_eq!(
            report.failures,
            vec![Failure {
                schedule: 3,
                seed,
                detail: detail.clone(),
            }]
        );
        assert!(!report.passed());
        assert_eq!(campaign.replay(&FailsAtThree, 3), Err(detail));
        assert_eq!(campaign.replay(&FailsAtThree, 2), Ok(()));
    }

    fn first4(campaign: Campaign, property: &impl Property) -> Vec<u64> {
        property.seeds(campaign.seed).take(4).collect()
    }

    /// Schedule counts and first seeds of the three campaigns, pinned to
    /// the values the campaigns have always used, so a refactor cannot
    /// silently reseed them.
    #[test]
    fn campaign_counts_and_seeds_are_pinned() {
        assert_eq!(campaign::CAMPAIGN.schedules, 100);
        assert_eq!(
            first4(campaign::CAMPAIGN, &OsProperty::default()),
            [
                0x8cff_45e4_cb3b_2ace,
                0x6dfe_7fb0_0692_0564,
                0x16a1_6559_e1c4_308f,
                0x07a9_a76e_7d8f_539b,
            ]
        );

        let dir = scratch_dir("pin");
        let chaos = ChaosProperty::new(&dir).expect("reference builds");
        assert_eq!(chaos::CAMPAIGN.schedules, 240);
        assert_eq!(
            first4(chaos::CAMPAIGN, &chaos),
            [
                0x7e57_c4a0_0000_0001,
                0xe060_bd19_7f4a_7c14,
                0x4239_37d2_fe94_f82b,
                0xa4f1_a98c_7ddf_743e,
            ]
        );
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(containment::CAMPAIGN.schedules, 240);
        assert_eq!(
            first4(containment::CAMPAIGN, &ContainmentProperty),
            [
                0x7e57_dead_0000_0002,
                0xe060_a714_7f4a_7c17,
                0x4239_2ddf_fe94_f828,
                0xa4f1_b381_7ddf_743d,
            ]
        );
    }
}
