//! Runs a fault-injection campaign and prints the report.
//!
//! ```sh
//! cargo run -p tps-check --release --example campaign_demo
//! cargo run -p tps-check --release --example campaign_demo -- 200 0.6
//! ```
//!
//! Optional args: `<schedules> <uniform fault probability>`.

use tps_check::campaign::{self, OsProperty};
use tps_check::{Campaign, FaultPlanConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let schedules: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let campaign = Campaign {
        schedules,
        ..campaign::CAMPAIGN
    };
    let mut property = OsProperty::default();
    if let Some(p) = args.next().and_then(|a| a.parse::<f64>().ok()) {
        property.plan = FaultPlanConfig::uniform(0, p);
    }

    println!(
        "campaign: {} schedules x {} ops, {} MB memory, fault probabilities \
         buddy {:.2} / reserve {:.2} / compaction {:.2} / shootdown {:.2}",
        campaign.schedules,
        property.ops_per_schedule,
        property.mem_bytes >> 20,
        property.plan.buddy_alloc,
        property.plan.reserve_span,
        property.plan.compaction_step,
        property.plan.shootdown_deliver,
    );
    let report = campaign.run(&property);
    let tally = &report.tally;
    println!("schedules run        : {}", report.schedules);
    println!(
        "ops executed         : {}",
        report.schedules * u64::from(property.ops_per_schedule)
    );
    println!("faults injected      : {}", tally.faults_injected);
    println!("page faults handled  : {}", tally.os.faults);
    println!("promotions           : {}", tally.os.promotions);
    println!("4K fallbacks         : {}", tally.os.fallback_4k);
    println!("  of which OOM-caused: {}", tally.os.oom_fallbacks);
    println!("compaction aborts    : {}", tally.os.compaction_aborts);
    println!("shootdowns retried   : {}", tally.os.shootdowns_retried);
    println!("legit OOM errors     : {}", tally.oom_events);
    if report.passed() {
        println!("invariant violations : none");
    } else {
        println!(
            "invariant violations : {} schedule(s)",
            report.failures.len()
        );
        for failure in &report.failures {
            println!("  {failure}");
        }
        std::process::exit(1);
    }
}
