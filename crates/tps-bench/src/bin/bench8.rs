//! Pinned-seed translation microbench (the committed `BENCH_8.json`).
//!
//! Drives a deterministic access stream straight through [`Mmu::access`] —
//! no workload framework, no worker pool — so the measured loop is exactly
//! the translation fast path the hot-path lint rules fence: L1/L2 TLB
//! probes, page walks, MMU-cache hits and the CoLT contiguity probe.
//!
//! ```sh
//! cargo run --release -p tps-bench --bin bench8
//! ```
//!
//! Prints one JSON object: per-mechanism wall time plus the TLB-hit/walk
//! counters. The counters are seed-pinned and byte-stable; wall time is a
//! snapshot of the machine that ran it. `BENCH_8.json` commits a before/
//! after pair of these measurements around the PR 8 dyn-dispatch and
//! allocation burn-down.

use std::fmt::Write as _;
use std::time::Instant;

use tps_core::rng::SplitMix64;
use tps_core::VirtAddr;
use tps_mem::BuddyAllocator;
use tps_os::Os;
use tps_sim::{MachineConfig, Mechanism, Mmu, ThreadCounters};

/// Pinned microbench seed.
const SEED: u64 = 0x5EED_0008;
/// Modeled physical memory.
const MEMORY: u64 = 512 << 20;
/// Number of mapped regions. Warm-up touches them interleaved so buddy
/// frames alternate between regions, breaking physical contiguity: CoLT
/// cannot coalesce giant runs and must keep refilling its L1 through the
/// contiguity probe, which is the call the dyn burn-down devirtualizes.
const VMAS: u64 = 8;
/// Bytes per mapped region. The total (256 MB as 2 MB pages) overflows
/// the 32-entry huge L1 TLB, so the timed loop exercises L1 misses, STLB
/// probes, probe-driven refills and real page walks rather than parking
/// in a handful of L1 entries.
const VMA_SIZE: u64 = 32 << 20;
/// Hot window the stream favors (L1-resident under every mechanism).
const HOT_WINDOW: u64 = 8 << 20;
/// Timed accesses per mechanism.
const ACCESSES: u64 = 2_000_000;
/// STLB sets for the microbench: shrunk from the Table I 128 so the
/// uniform tail of the stream overflows L2 and reaches the walker.
const STLB_SETS: usize = 8;

struct Measurement {
    wall_ms: f64,
    counters: ThreadCounters,
    faults: u64,
}

fn run_mechanism(mechanism: Mechanism) -> Measurement {
    let mut config = MachineConfig::for_mechanism(mechanism).with_memory(MEMORY);
    config.tlb.stlb_sets = STLB_SETS;
    config.tlb.tps_stlb_entries = STLB_SETS * config.tlb.stlb_ways;
    let mut os = Os::with_buddy(BuddyAllocator::new(MEMORY), config.policy);
    let asid = os.spawn();
    let mut mmu = Mmu::new(&config);
    let bases: Vec<u64> = (0..VMAS)
        .map(|_| {
            let vma = os.mmap(asid, VMA_SIZE).expect("microbench region maps");
            vma.base().value()
        })
        .collect();

    // Warm-up: touch every base page once (faults, promotions, fills), so
    // the timed loop measures translation, not first-touch policy. The
    // regions are touched interleaved to scatter frames between them.
    let mut off = 0;
    while off < VMA_SIZE {
        for base in &bases {
            mmu.access(&mut os, asid, VirtAddr::new(base + off), true)
                .expect("warm-up touches freshly mapped regions");
        }
        off += tps_core::BASE_PAGE_SIZE;
    }

    // Timed loop: 7 of 8 accesses land in the hot window (L1-friendly),
    // the rest are uniform over all regions (stressing STLB/walks).
    let mut rng = SplitMix64::new(SEED);
    let mut counters = ThreadCounters::default();
    let mut faults = 0u64;
    let start = Instant::now();
    for _ in 0..ACCESSES {
        let r = rng.next_u64();
        let va = if r & 7 != 0 {
            bases[0] + r % HOT_WINDOW
        } else {
            bases[((r >> 32) % VMAS) as usize] + r % VMA_SIZE
        };
        let out = mmu
            .access(&mut os, asid, VirtAddr::new(va), r & 1 == 0)
            .expect("benchmark accesses stay within mapped regions");
        counters.record(out.level, &out);
        faults += u64::from(out.faults);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Measurement {
        wall_ms,
        counters,
        faults,
    }
}

fn main() {
    let mechanisms = [
        ("thp", Mechanism::Thp),
        ("tps", Mechanism::Tps),
        ("colt", Mechanism::Colt),
        ("rmm", Mechanism::Rmm),
    ];
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tps-bench8/v1\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"accesses\": {ACCESSES},");
    let _ = writeln!(out, "  \"mechanisms\": {{");
    for (i, (name, mech)) in mechanisms.iter().enumerate() {
        let m = run_mechanism(*mech);
        let c = &m.counters;
        let _ = write!(
            out,
            "    \"{name}\": {{\"wall_ms\": {:.1}, \"accesses\": {}, \"l1_hits\": {}, \
             \"stlb_hits\": {}, \"range_hits\": {}, \"l2_misses\": {}, \"walks\": {}, \
             \"walk_refs\": {}, \"faults\": {}}}",
            m.wall_ms,
            c.mem.accesses,
            c.mem.l1_hits,
            c.mem.stlb_hits,
            c.mem.range_hits,
            c.mem.l2_misses,
            c.walks,
            c.walk_refs,
            m.faults
        );
        out.push_str(if i + 1 < mechanisms.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  }\n}\n");
    print!("{out}");
}
