//! First-touch microbench: the cost of demand-faulting a fresh region.
//!
//! One VMA is touched once per 4 KB page, in address order, under TPS
//! and under THP. Each case is timed two ways:
//!
//! * `os`: [`Os::handle_fault`] alone, called for every page the page
//!   table does not map yet — the OS fault and promotion path;
//! * `mmu`: [`Mmu::access`] on every page — the same faults plus the TLB
//!   probes, walks and fills around them.
//!
//! ```sh
//! cargo run --release -p tps-bench --bin first_touch             # 16 and 256 MB, 5 runs
//! cargo run --release -p tps-bench --bin first_touch -- --mb 16 --runs 1
//! ```
//!
//! Prints one JSON object with an `os` and an `mmu` record per case.
//! `ns_per_fault` is the minimum over `--runs` fresh machines. The
//! counters `faults`, `promotions` and `pte_writes` are deterministic;
//! the `mmu` path writes one more PTE per fault than the `os` path, for
//! the accessed/dirty bits.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use tps_core::{VirtAddr, BASE_PAGE_SIZE, MIB};
use tps_mem::BuddyAllocator;
use tps_os::Os;
use tps_sim::{MachineConfig, Mechanism, Mmu};

/// Modeled physical memory: twice the largest region.
const MEMORY: u64 = 512 * MIB;

/// Deterministic work counters of one first-touch pass.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Counters {
    faults: u64,
    promotions: u64,
    pte_writes: u64,
}

/// One timed first-touch pass over a fresh machine.
fn touch_once(mechanism: Mechanism, bytes: u64, through_mmu: bool) -> (f64, Counters) {
    let config = MachineConfig::for_mechanism(mechanism).with_memory(MEMORY);
    let mut os = Os::with_buddy(BuddyAllocator::new(MEMORY), config.policy);
    let asid = os.spawn();
    let mut mmu = Mmu::new(&config);
    let base = os
        .mmap(asid, bytes)
        .expect("first-touch region maps")
        .base()
        .value();
    let start = Instant::now();
    for off in (0..bytes).step_by(BASE_PAGE_SIZE as usize) {
        let va = VirtAddr::new(base + off);
        if through_mmu {
            mmu.access(&mut os, asid, va, true)
                .expect("first touch of a mapped region");
        } else if os.page_table(asid).lookup(va).is_none() {
            os.handle_fault(asid, va, true)
                .expect("first touch of a mapped region");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = os.stats();
    let counters = Counters {
        faults: stats.faults,
        promotions: stats.promotions,
        pte_writes: os.page_table(asid).pte_writes(),
    };
    (elapsed * 1e9 / stats.faults.max(1) as f64, counters)
}

/// Minimum ns/fault over `runs` passes, plus the (run-invariant) counters.
fn min_of(runs: u32, mechanism: Mechanism, bytes: u64, through_mmu: bool) -> (f64, Counters) {
    let (mut best, counters) = touch_once(mechanism, bytes, through_mmu);
    for _ in 1..runs {
        let (ns, again) = touch_once(mechanism, bytes, through_mmu);
        assert_eq!(again, counters, "first-touch counters changed between runs");
        best = best.min(ns);
    }
    (best, counters)
}

fn usage() -> ExitCode {
    eprintln!("usage: first_touch [--mb N]... [--runs N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut sizes_mb: Vec<u64> = Vec::new();
    let mut runs = 5u32;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), value) {
            ("--mb", Some(mb)) if mb > 0 && mb <= MEMORY / 2 / MIB => sizes_mb.push(mb),
            ("--runs", Some(n)) if n > 0 => runs = n.min(u64::from(u32::MAX)) as u32,
            _ => return usage(),
        }
    }
    if sizes_mb.is_empty() {
        sizes_mb = vec![16, 256];
    }

    let mut cases = Vec::new();
    for &mb in &sizes_mb {
        for (name, mechanism) in [("tps", Mechanism::Tps), ("thp", Mechanism::Thp)] {
            let paths = [("os", false), ("mmu", true)].map(|(path, through_mmu)| {
                let (ns, c) = min_of(runs, mechanism, mb * MIB, through_mmu);
                format!(
                    "\"{path}\": {{\"ns_per_fault\": {ns:.0}, \"faults\": {}, \
                     \"promotions\": {}, \"pte_writes\": {}}}",
                    c.faults, c.promotions, c.pte_writes
                )
            });
            cases.push(format!("    \"{name}-{mb}mb\": {{{}}}", paths.join(", ")));
        }
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tps-first-touch/v1\",");
    let _ = writeln!(out, "  \"runs\": {runs},");
    let _ = writeln!(out, "  \"cases\": {{\n{}\n  }}", cases.join(",\n"));
    out.push_str("}\n");
    print!("{out}");
    ExitCode::SUCCESS
}
