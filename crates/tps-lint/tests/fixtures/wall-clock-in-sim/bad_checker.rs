// fixture: crate=tps-check path=crates/tps-check/src/campaign.rs
//! Bad: a campaign timing its own schedules. The checker is held to the
//! same wall-clock ban as the simulator; only the worker-pool watchdog is
//! allowlisted.

use std::time::{Duration, Instant};

/// Times one schedule — one violation.
pub fn time_schedule(run: impl FnOnce()) -> Duration {
    let started = Instant::now(); //~ ERROR wall-clock-in-sim
    run();
    started.elapsed()
}
