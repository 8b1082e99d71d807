//! Deterministic counters of a run, keyed `<cell>/<field>`.
//!
//! Every simulated statistic the benchmark holds fixed lives here: the
//! output check compares ledgers against the committed expected values
//! for the pinned seed, against earlier passes of the same run, and
//! across the three ways the traced run executes each cell.

use std::collections::BTreeMap;
use std::path::Path;

use tps_core::PageOrder;
use tps_mem::BuddyAllocator;
use tps_os::OsStats;
use tps_sim::{RunStats, TenantOutcome, ThreadCounters};

/// Ordered `key -> value` counter map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger(BTreeMap<String, String>);

impl Ledger {
    /// Records one field.
    pub fn put(&mut self, cell: &str, field: &str, value: impl std::fmt::Display) {
        self.0.insert(format!("{cell}/{field}"), value.to_string());
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds every entry of `other` under the same keys.
    pub fn extend(&mut self, other: Ledger) {
        self.0.extend(other.0);
    }

    /// Text form: one `key value` line per field, in key order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.0 {
            out.push_str(k);
            out.push(' ');
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    /// Parses [`Ledger::render`] output.
    pub fn parse(text: &str) -> Ledger {
        Ledger(
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Reads a committed ledger; `None` when the file does not exist.
    pub fn load(path: &Path) -> Option<Ledger> {
        std::fs::read_to_string(path)
            .ok()
            .map(|t| Ledger::parse(&t))
    }

    /// FNV-1a over the text form: equal ledgers, equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Keys whose values differ between `self` and `other`, with both
    /// values (`None` where a side lacks the key).
    pub fn diff(&self, other: &Ledger) -> Vec<(String, Option<String>, Option<String>)> {
        let mut keys: Vec<&String> = self.0.keys().chain(other.0.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .filter_map(|k| {
                let a = self.0.get(k);
                let b = other.0.get(k);
                (a != b).then(|| (k.clone(), a.cloned(), b.cloned()))
            })
            .collect()
    }

    /// Like [`Ledger::diff`], restricted to keys both ledgers hold: the
    /// comparison of execution paths that report different field sets.
    pub fn diff_common(&self, other: &Ledger) -> Vec<(String, String, String)> {
        self.0
            .iter()
            .filter_map(|(k, a)| match other.0.get(k) {
                Some(b) if a != b => Some((k.clone(), a.clone(), b.clone())),
                _ => None,
            })
            .collect()
    }

    /// Sum of the numeric values of every key ending in `/<suffix>`.
    pub fn sum_field(&self, suffix: &str) -> u64 {
        let tail = format!("/{suffix}");
        self.0
            .iter()
            .filter(|(k, _)| k.ends_with(&tail))
            .filter_map(|(_, v)| v.parse::<u64>().ok())
            .sum()
    }

    /// Cells (the part of each key before the last `/`) whose fields
    /// differ between the two ledgers.
    pub fn differing_cells(&self, other: &Ledger) -> Vec<String> {
        let mut cells: Vec<String> = self
            .diff(other)
            .into_iter()
            .map(|(k, _, _)| cell_of(&k).to_string())
            .collect();
        cells.dedup();
        cells
    }
}

/// The cell part of a `<cell>/<field>` key.
pub fn cell_of(key: &str) -> &str {
    key.rsplit_once('/').map_or(key, |(cell, _)| cell)
}

/// The per-tenant translation counters of a finished run.
pub fn run_stats_hw(ledger: &mut Ledger, cell: &str, s: &RunStats) {
    let measured = ThreadCounters {
        mem: s.mem,
        walks: s.walks,
        walk_refs: s.walk_refs,
        alias_extras: s.alias_extras,
        ad_updates: s.ad_updates,
        ..ThreadCounters::default()
    };
    let full = ThreadCounters {
        mem: s.full_mem,
        walk_refs: s.full_walk_refs,
        ..ThreadCounters::default()
    };
    counters_hw(
        ledger,
        cell,
        &measured,
        &full,
        &s.page_census,
        s.resident_bytes,
        s.touched_bytes,
    );
}

/// The same counters from a replay's own per-tenant counters and the
/// tenant's address space at exit. Only the fields [`RunStats`] also
/// carries are recorded.
pub fn counters_hw(
    ledger: &mut Ledger,
    cell: &str,
    measured: &ThreadCounters,
    full: &ThreadCounters,
    census: &BTreeMap<PageOrder, u64>,
    resident_bytes: u64,
    touched_bytes: u64,
) {
    for (prefix, t) in [("mem", &measured.mem), ("full_mem", &full.mem)] {
        ledger.put(cell, &format!("{prefix}.accesses"), t.accesses);
        ledger.put(cell, &format!("{prefix}.l1_hits"), t.l1_hits);
        ledger.put(cell, &format!("{prefix}.stlb_hits"), t.stlb_hits);
        ledger.put(cell, &format!("{prefix}.range_hits"), t.range_hits);
        ledger.put(cell, &format!("{prefix}.l2_misses"), t.l2_misses);
    }
    ledger.put(cell, "walks", measured.walks);
    ledger.put(cell, "walk_refs", measured.walk_refs);
    ledger.put(cell, "alias_extras", measured.alias_extras);
    ledger.put(cell, "ad_updates", measured.ad_updates);
    ledger.put(cell, "full_walk_refs", full.walk_refs);
    for (order, count) in census {
        ledger.put(cell, &format!("census.{}", order.get()), count);
    }
    ledger.put(cell, "resident_bytes", resident_bytes);
    ledger.put(cell, "touched_bytes", touched_bytes);
}

/// OS activity counters (per tenant as attributed, or machine-wide).
pub fn os_stats(ledger: &mut Ledger, cell: &str, os: &OsStats) {
    let fields = [
        ("mmaps", os.mmaps),
        ("munmaps", os.munmaps),
        ("faults", os.faults),
        ("promotions", os.promotions),
        ("reservations_created", os.reservations_created),
        ("fallback_4k", os.fallback_4k),
        ("shootdowns", os.shootdowns),
        ("cow_faults", os.cow_faults),
        ("cow_bytes_copied", os.cow_bytes_copied),
        ("op_cycles", os.op_cycles),
        ("oom_fallbacks", os.oom_fallbacks),
        ("compaction_aborts", os.compaction_aborts),
        ("shootdowns_retried", os.shootdowns_retried),
    ];
    for (name, value) in fields {
        ledger.put(cell, &format!("os.{name}"), value);
    }
}

/// MMU paging-structure-cache hits (PDE, PDPTE, PML4E).
pub fn cache_hits(ledger: &mut Ledger, cell: &str, hits: (u64, u64, u64)) {
    ledger.put(cell, "mmu_cache.pde", hits.0);
    ledger.put(cell, "mmu_cache.pdpte", hits.1);
    ledger.put(cell, "mmu_cache.pml4e", hits.2);
}

/// Buddy allocator operation counts.
pub fn buddy(ledger: &mut Ledger, cell: &str, b: &BuddyAllocator) {
    ledger.put(cell, "buddy.splits", b.split_count());
    ledger.put(cell, "buddy.merges", b.merge_count());
    ledger.put(cell, "buddy.allocs", b.alloc_count());
    ledger.put(cell, "buddy.frees", b.free_count());
    ledger.put(cell, "buddy.free_bytes", b.free_bytes());
}

/// How a tenant's run ended, as a stable label.
pub fn outcome_label(outcome: TenantOutcome) -> String {
    match outcome {
        TenantOutcome::Completed => "completed".to_string(),
        TenantOutcome::Killed { cause, at_event } => format!("killed:{cause}@{at_event}"),
    }
}

/// Every field of one finished tenant the output check pins: translation
/// counters, attributed OS work (including `op_cycles`), MMU-cache hits,
/// page census and outcome.
pub fn full_tenant(ledger: &mut Ledger, cell: &str, s: &RunStats, outcome: TenantOutcome) {
    run_stats_hw(ledger, cell, s);
    os_stats(ledger, cell, &s.os);
    cache_hits(ledger, cell, s.mmu_cache_hits);
    ledger.put(cell, "outcome", outcome_label(outcome));
}
