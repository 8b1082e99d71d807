//! The two-level TLB hierarchy under its four studied organizations.
//!
//! | Kind       | L1                                          | L2                              |
//! |------------|---------------------------------------------|---------------------------------|
//! | `Baseline` | 64e 4K SA + 32e 2M + 4e 1G                  | 1536e dual 4K/2M + 16e 1G       |
//! | `Tps`      | 64e 4K SA + **32e any-size (mask)**         | any-size (same capacity)        |
//! | `Colt`     | 64e coalesced 4K + 32e coalesced 2M + 4e 1G | 1536e dual 4K/2M + 16e 1G       |
//! | `Rmm`      | as Baseline                                 | as Baseline + **32e Range TLB** |
//!
//! Capacities follow Table I / §III-A2 of the paper. The TPS-mode STLB is
//! modeled as a fully-associative any-size structure of the baseline STLB's
//! capacity — the paper leaves its indexing unspecified, and TPS almost
//! never reaches the STLB anyway.

use crate::any_size::AnySizeTlb;
use crate::colt::{detect_run, ColtTlb};
use crate::dual_stlb::DualStlb;
use crate::entry::{Asid, TlbEntry};
use crate::range_tlb::{RangeEntry, RangeTlb};
use crate::set_assoc::SetAssocTlb;
use crate::skewed::SkewedTlb;
use tps_core::{InjectorHandle, LeafInfo, PageOrder, PerAsid, VirtAddr};

/// Which TLB organization to build.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum HierarchyKind {
    /// Conventional per-size TLBs (reservation-THP baseline).
    #[default]
    Baseline,
    /// Tailored Page Sizes: any-size L1 TLB with page masks.
    Tps,
    /// CoLT-SA coalesced TLB baseline.
    Colt,
    /// Redundant Memory Mappings: Range TLB at the L2 level.
    Rmm,
}

/// Structure sizes (defaults follow the paper's Table I).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Which organization to build.
    pub kind: HierarchyKind,
    /// Sets of the 4 KB L1 TLB.
    pub l1_4k_sets: usize,
    /// Ways of the 4 KB L1 TLB.
    pub l1_4k_ways: usize,
    /// Entries of the 2 MB L1 TLB (baseline/CoLT/RMM).
    pub l1_2m_entries: usize,
    /// Entries of the 1 GB L1 TLB (baseline/CoLT/RMM).
    pub l1_1g_entries: usize,
    /// Entries of the any-size TPS L1 TLB.
    pub tps_l1_entries: usize,
    /// Sets of the dual-size STLB.
    pub stlb_sets: usize,
    /// Ways of the dual-size STLB.
    pub stlb_ways: usize,
    /// Entries of the 1 GB STLB.
    pub stlb_1g_entries: usize,
    /// Entries of the any-size STLB used in TPS mode.
    pub tps_stlb_entries: usize,
    /// Entries of the RMM Range TLB.
    pub range_tlb_entries: usize,
    /// Use the skewed-associative any-size TLB instead of the fully
    /// associative one for the TPS L1 (design ablation; paper §III-A2
    /// notes skewed-associative alternatives are possible).
    pub tps_l1_skewed: bool,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            kind: HierarchyKind::Baseline,
            l1_4k_sets: 16,
            l1_4k_ways: 4,
            l1_2m_entries: 32,
            l1_1g_entries: 4,
            tps_l1_entries: 32,
            stlb_sets: 128,
            stlb_ways: 12,
            stlb_1g_entries: 16,
            tps_stlb_entries: 1536 + 16,
            range_tlb_entries: 32,
            tps_l1_skewed: false,
        }
    }
}

impl TlbConfig {
    /// Table I configuration with the given organization.
    pub fn with_kind(kind: HierarchyKind) -> Self {
        TlbConfig {
            kind,
            ..Default::default()
        }
    }
}

/// The result a TLB structure produced for one access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Base-page PFN the accessed VPN maps to.
    pub pfn: u64,
    /// Whether the cached mapping permits writes.
    pub writable: bool,
}

/// Outcome of the L2-level probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum L2Hit {
    /// The STLB (or 1 GB STLB) provided the translation.
    Stlb(Translation),
    /// The STLB missed but the Range TLB covered the address (RMM only):
    /// the PTE is constructed without a page walk.
    Range(Translation),
    /// Both missed: a page walk is required.
    Miss,
}

/// Hit/miss counters of translated accesses. The simulator keeps one
/// set per thread, recording each access once from its outcome.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Memory accesses translated.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits in the STLB structures.
    pub stlb_hits: u64,
    /// L2 hits provided by the Range TLB after an STLB miss.
    pub range_hits: u64,
    /// Accesses that missed every TLB level (page walks).
    pub l2_misses: u64,
}

impl std::ops::AddAssign for TlbStats {
    fn add_assign(&mut self, other: TlbStats) {
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.stlb_hits += other.stlb_hits;
        self.range_hits += other.range_hits;
        self.l2_misses += other.l2_misses;
    }
}

impl TlbStats {
    /// L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.accesses - self.l1_hits
    }

    /// L1 hit rate in `[0, 1]`.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }

    /// L1 misses that still hit somewhere in the L2 level.
    pub fn l1_miss_l2_hit(&self) -> u64 {
        self.stlb_hits + self.range_hits
    }
}

/// Degradation counters accumulated by injected TLB faults, summed over
/// every any-size structure and the dual STLB of one hierarchy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbFaultStats {
    /// Any-size fills dropped ([`tps_core::FaultSite::AnySizeFill`]).
    pub fill_drops: u64,
    /// Evictions whose incoming entry was abandoned
    /// ([`tps_core::FaultSite::AnySizeEvict`]).
    pub evict_abandons: u64,
    /// Dual-STLB probes forced to miss
    /// ([`tps_core::FaultSite::StlbProbe`]).
    pub stlb_probe_misses: u64,
}

impl TlbFaultStats {
    /// Total injected TLB degradations.
    pub fn total(&self) -> u64 {
        self.fill_drops + self.evict_abandons + self.stlb_probe_misses
    }
}

/// One TLB structure of a level list.
#[derive(Clone, Debug)]
enum Structure {
    SetAssoc(SetAssocTlb),
    Colt(ColtTlb),
    AnySize(AnySizeTlb),
    Skewed(SkewedTlb),
    Dual(DualStlb),
    Range(RangeTlb),
}

/// Runs `$body` on whichever structure `$tlb` holds, bound as `$t`: the one
/// `match` that the operations every structure shares dispatch through.
macro_rules! each_structure {
    ($tlb:expr, $t:ident => $body:expr) => {
        match $tlb {
            Structure::SetAssoc($t) => $body,
            Structure::Colt($t) => $body,
            Structure::AnySize($t) => $body,
            Structure::Skewed($t) => $body,
            Structure::Dual($t) => $body,
            Structure::Range($t) => $body,
        }
    };
}

/// A structure plus the page orders it is filled with, one bit per
/// order. A fill goes to the first structure of its list that holds the
/// leaf's order; the Range TLB caches ranges and holds no page order.
#[derive(Clone, Debug)]
struct Level {
    tlb: Structure,
    orders: u32,
}

impl Level {
    fn new(tlb: Structure, orders: &[PageOrder]) -> Self {
        let orders = orders.iter().fold(0, |bits, o| bits | 1 << o.get());
        Level { tlb, orders }
    }

    /// A structure that holds every page order (the TPS any-size TLBs).
    fn any(tlb: Structure) -> Self {
        Level {
            tlb,
            orders: u32::MAX,
        }
    }

    fn holds(&self, order: PageOrder) -> bool {
        self.orders >> order.get() & 1 != 0
    }

    // Inlined into each probe loop, so the L1 and L2 loops each get a
    // dispatch branch of their own that predicts on its own history.
    #[inline(always)]
    fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<Translation> {
        each_structure!(&mut self.tlb, t => t.lookup(asid, vpn).map(|e| Translation {
            pfn: e.translate(vpn),
            writable: e.writable,
        }))
    }
}

/// The full two-level TLB hierarchy of one core.
///
/// Each level is a list of structures built once per [`HierarchyKind`],
/// in probe order; every operation is one loop over the lists.
///
/// The hierarchy performs lookups and fills; *when* to fill which level is
/// orchestrated by the simulator's MMU so walk/fault interleaving is modeled
/// in one place.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    kind: HierarchyKind,
    l1: Vec<Level>,
    l2: Vec<Level>,
    /// Set once a fault injector is installed; until then every fault
    /// counter is zero, so [`Self::fault_stats`] skips the scan.
    injected: bool,
}

impl TlbHierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(config: TlbConfig) -> Self {
        let (p4k, p2m, p1g) = (PageOrder::P4K, PageOrder::P2M, PageOrder::P1G);
        let any_size = |entries, orders: &[PageOrder]| {
            Level::new(Structure::AnySize(AnySizeTlb::new(entries)), orders)
        };
        let l1_4k = || {
            let t = SetAssocTlb::new(config.l1_4k_sets, config.l1_4k_ways, p4k);
            Level::new(Structure::SetAssoc(t), &[p4k])
        };
        let conventional_l1 = || {
            vec![
                l1_4k(),
                any_size(config.l1_2m_entries, &[p2m]),
                any_size(config.l1_1g_entries, &[p1g]),
            ]
        };
        let stlb = || {
            let dual = DualStlb::new(config.stlb_sets, config.stlb_ways);
            vec![
                Level::new(Structure::Dual(dual), &[p4k, p2m]),
                any_size(config.stlb_1g_entries, &[p1g]),
            ]
        };
        let (l1, l2) = match config.kind {
            HierarchyKind::Baseline => (conventional_l1(), stlb()),
            HierarchyKind::Rmm => {
                let mut l2 = stlb();
                let range = RangeTlb::new(config.range_tlb_entries);
                l2.push(Level::new(Structure::Range(range), &[]));
                (conventional_l1(), l2)
            }
            HierarchyKind::Colt => {
                let colt_4k = ColtTlb::new(config.l1_4k_sets, config.l1_4k_ways, p4k);
                let colt_2m = ColtTlb::new(8, config.l1_2m_entries / 8, p2m);
                let l1 = vec![
                    Level::new(Structure::Colt(colt_4k), &[p4k]),
                    Level::new(Structure::Colt(colt_2m), &[p2m]),
                    any_size(config.l1_1g_entries, &[p1g]),
                ];
                (l1, stlb())
            }
            HierarchyKind::Tps => {
                let any = if config.tps_l1_skewed {
                    Structure::Skewed(SkewedTlb::new((config.tps_l1_entries / 4).max(1)))
                } else {
                    Structure::AnySize(AnySizeTlb::new(config.tps_l1_entries))
                };
                let stlb = Structure::AnySize(AnySizeTlb::new(config.tps_stlb_entries));
                (vec![l1_4k(), Level::any(any)], vec![Level::any(stlb)])
            }
        };
        TlbHierarchy {
            kind: config.kind,
            l1,
            l2,
            injected: false,
        }
    }

    /// The configured organization.
    pub fn kind(&self) -> HierarchyKind {
        self.kind
    }

    /// Probes the L1 structures for one access.
    pub fn lookup_l1(&mut self, asid: Asid, va: VirtAddr) -> Option<Translation> {
        let vpn = va.base_page_number();
        self.l1.iter_mut().find_map(|level| level.lookup(asid, vpn))
    }

    /// Probes the L2 structures: the STLB, then (RMM only) the Range TLB.
    pub fn lookup_l2(&mut self, asid: Asid, va: VirtAddr) -> L2Hit {
        let vpn = va.base_page_number();
        for level in &mut self.l2 {
            if let Some(t) = level.lookup(asid, vpn) {
                return if matches!(level.tlb, Structure::Range(_)) {
                    L2Hit::Range(t)
                } else {
                    L2Hit::Stlb(t)
                };
            }
        }
        L2Hit::Miss
    }

    /// Installs a walked leaf into the appropriate L1 structure with no
    /// contiguity information: CoLT fills degrade to single-page runs.
    ///
    /// # Panics
    ///
    /// Panics if no L1 structure of this organization holds the leaf's
    /// page order.
    pub fn fill_l1(&mut self, asid: Asid, va: VirtAddr, leaf: &LeafInfo) {
        self.fill_l1_with_probe(asid, va, leaf, |_, _| None);
    }

    /// [`Self::fill_l1`] with CoLT's PTE-cache-line contiguity probe: for
    /// a page number at the given granularity, the probe returns the
    /// `(frame, writable)` mapping of that neighbor if one of exactly that
    /// size exists. Ignored by the other organizations. The probe is a
    /// generic parameter (not `dyn`) so the per-fill neighbor checks
    /// inline into the CoLT run detection.
    pub fn fill_l1_with_probe(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        leaf: &LeafInfo,
        contiguity: impl Fn(u64, PageOrder) -> Option<(u64, bool)>,
    ) {
        let kind = self.kind;
        fill(&mut self.l1, kind, asid, va, leaf, contiguity);
    }

    /// Installs a walked leaf into the L2 level.
    ///
    /// # Panics
    ///
    /// Panics if no L2 structure of this organization holds the leaf's
    /// page order.
    pub fn fill_l2(&mut self, asid: Asid, va: VirtAddr, leaf: &LeafInfo) {
        let kind = self.kind;
        fill(&mut self.l2, kind, asid, va, leaf, |_, _| None);
    }

    /// Installs a range into the Range TLB (no-op unless RMM).
    pub fn fill_range(&mut self, entry: RangeEntry) {
        for level in &mut self.l2 {
            if let Structure::Range(t) = &mut level.tlb {
                t.fill(entry);
            }
        }
    }

    /// True if this hierarchy has a Range TLB (i.e. is RMM).
    pub fn has_range_tlb(&self) -> bool {
        self.l2
            .iter()
            .any(|level| matches!(level.tlb, Structure::Range(_)))
    }

    fn levels_mut(&mut self) -> impl Iterator<Item = &mut Level> {
        self.l1.iter_mut().chain(&mut self.l2)
    }

    /// Shoots down all cached translations overlapping a page.
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        for level in self.levels_mut() {
            each_structure!(&mut level.tlb, t => t.invalidate(asid, va, order));
        }
    }

    /// Removes every cached translation of an ASID.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        for level in self.levels_mut() {
            each_structure!(&mut level.tlb, t => t.invalidate_asid(asid));
        }
    }

    /// Flushes everything.
    pub fn flush(&mut self) {
        for level in self.levels_mut() {
            each_structure!(&mut level.tlb, t => t.flush());
        }
    }

    /// Installs (or removes) a fault injector on every structure that
    /// carries injection hooks: the any-size TLBs (fill/evict sites) and
    /// the dual STLB (probe site). The set-associative, CoLT, skewed and
    /// range structures are not instrumented.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injected |= injector.is_some();
        for level in self.levels_mut() {
            match &mut level.tlb {
                Structure::AnySize(t) => t.set_fault_injector(injector.clone()),
                Structure::Dual(t) => t.set_fault_injector(injector.clone()),
                Structure::SetAssoc(_)
                | Structure::Colt(_)
                | Structure::Skewed(_)
                | Structure::Range(_) => {}
            }
        }
    }

    /// Degradation counters from injected TLB faults, summed across the
    /// instrumented structures. `read` picks the share of each per-ASID
    /// counter: [`PerAsid::total`] for the machine-wide figure, or
    /// `|c| c.of(asid)` for one address space's.
    pub fn fault_stats(&self, read: impl Fn(&PerAsid) -> u64) -> TlbFaultStats {
        let mut out = TlbFaultStats::default();
        if !self.injected {
            return out;
        }
        for level in self.l1.iter().chain(&self.l2) {
            match &level.tlb {
                Structure::AnySize(t) => {
                    out.fill_drops += read(t.fill_drops());
                    out.evict_abandons += read(t.evict_abandons());
                }
                Structure::Dual(t) => out.stlb_probe_misses += read(t.probe_misses()),
                Structure::SetAssoc(_)
                | Structure::Colt(_)
                | Structure::Skewed(_)
                | Structure::Range(_) => {}
            }
        }
        out
    }

    /// Mean CoLT run length of the 4 KB L1 (1.0 for other organizations).
    pub fn colt_mean_run_len(&self) -> f64 {
        self.l1
            .iter()
            .find_map(|level| match &level.tlb {
                Structure::Colt(t) => Some(t.mean_run_len()),
                _ => None,
            })
            .unwrap_or(1.0)
    }
}

/// Installs a leaf into the first structure of `levels` that holds its
/// order, running CoLT's run detection when that structure coalesces.
fn fill(
    levels: &mut [Level],
    kind: HierarchyKind,
    asid: Asid,
    va: VirtAddr,
    leaf: &LeafInfo,
    contiguity: impl Fn(u64, PageOrder) -> Option<(u64, bool)>,
) {
    let order = leaf.order;
    let Some(level) = levels.iter_mut().find(|level| level.holds(order)) else {
        panic!("the {kind:?} TLB level cannot hold a {order} page");
    };
    let entry = TlbEntry::from_leaf(asid, va, leaf);
    match &mut level.tlb {
        Structure::Colt(t) => {
            let g = order.get();
            let upn = va.base_page_number() >> g;
            let run = detect_run(asid, order, upn, entry.pfn >> g, entry.writable, |u| {
                contiguity(u, order)
            });
            t.fill(run);
        }
        Structure::SetAssoc(t) => t.fill(entry),
        Structure::AnySize(t) => t.fill(entry),
        Structure::Skewed(t) => t.fill(entry),
        Structure::Dual(t) => t.fill(entry),
        Structure::Range(_) => unreachable!("the Range TLB holds no page order"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tps_core::{PhysAddr, PteFlags, BASE_PAGE_SIZE, GIB, MAX_PAGE_ORDER};

    fn leaf(pa: u64, order: u8) -> LeafInfo {
        LeafInfo {
            base: PhysAddr::new(pa),
            order: PageOrder::new(order).unwrap(),
            flags: PteFlags::PRESENT | PteFlags::WRITABLE,
        }
    }

    fn is_empty(h: &TlbHierarchy) -> bool {
        let mut levels = h.l1.iter().chain(&h.l2);
        levels.all(|level| each_structure!(&level.tlb, t => t.is_empty()))
    }

    /// Every organization: each order it accepts fills and hits at both
    /// levels, each shootdown empties every structure, and an order it
    /// cannot hold panics.
    #[test]
    fn every_organization_fills_hits_and_shoots_down() {
        let conventional = [PageOrder::P4K, PageOrder::P2M, PageOrder::P1G].map(PageOrder::get);
        let every: Vec<u8> = (0..=MAX_PAGE_ORDER).collect();
        // The skewed TLB's largest size class tops out at 1 GB: bigger
        // pages alias across its sets (see `skewed.rs`).
        let up_to_1g = &every[..=usize::from(PageOrder::P1G.get())];
        let cases: [(HierarchyKind, bool, &[u8], Option<u8>); 5] = [
            (HierarchyKind::Baseline, false, &conventional, Some(3)),
            (HierarchyKind::Tps, false, &every, None),
            (HierarchyKind::Tps, true, up_to_1g, None),
            (HierarchyKind::Colt, false, &conventional, Some(3)),
            (HierarchyKind::Rmm, false, &conventional, Some(3)),
        ];
        // Aligned for every order up to MAX_PAGE_ORDER.
        let va = VirtAddr::new(1024 * GIB);
        let pa = 64 * GIB;
        for (kind, skewed, orders, rejected) in cases {
            let mut config = TlbConfig::with_kind(kind);
            config.tps_l1_skewed = skewed;
            for &order in orders {
                let case = format!("{kind:?} skewed={skewed} order {order}");
                let l = leaf(pa, order);
                let mut h = TlbHierarchy::new(config);
                let fill = |h: &mut TlbHierarchy| {
                    h.fill_l1(1, va, &l);
                    h.fill_l2(1, va, &l);
                    h.fill_range(RangeEntry {
                        asid: 1,
                        start_vpn: va.base_page_number(),
                        end_vpn: va.base_page_number() + 1,
                        delta: 0,
                        writable: true,
                    });
                };
                assert!(h.lookup_l1(1, va).is_none(), "{case}");
                assert_eq!(h.lookup_l2(1, va), L2Hit::Miss, "{case}");
                fill(&mut h);
                // The last base page of the page hits the single entry.
                let last = va + (l.order.bytes() - BASE_PAGE_SIZE);
                let expect = Translation {
                    pfn: l.base.base_page_number() + l.order.base_pages() - 1,
                    writable: true,
                };
                assert_eq!(h.lookup_l1(1, last), Some(expect), "{case}");
                assert_eq!(h.lookup_l2(1, last), L2Hit::Stlb(expect), "{case}");
                assert!(h.lookup_l1(2, va).is_none(), "{case}: ASID isolation");
                h.invalidate_asid(2);
                assert!(h.lookup_l1(1, va).is_some(), "{case}: other ASID kept");

                h.invalidate_page(1, va, l.order);
                assert!(is_empty(&h), "{case}: invalidate_page");
                fill(&mut h);
                h.invalidate_asid(1);
                assert!(is_empty(&h), "{case}: invalidate_asid");
                fill(&mut h);
                h.flush();
                assert!(is_empty(&h), "{case}: flush");
            }
            if let Some(order) = rejected {
                let fills: [fn(&mut TlbHierarchy, &LeafInfo); 2] = [
                    |h, l| h.fill_l1(0, VirtAddr::new(0), l),
                    |h, l| h.fill_l2(0, VirtAddr::new(0), l),
                ];
                for fill in fills {
                    let mut h = TlbHierarchy::new(config);
                    let err = catch_unwind(AssertUnwindSafe(|| fill(&mut h, &leaf(0, order))))
                        .expect_err("an order the kind cannot hold must panic");
                    let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                    assert!(msg.contains("cannot hold"), "{kind:?}: {msg}");
                }
            }
        }
    }

    #[test]
    fn stlb_backstops_l1_eviction() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        // Fill 65 distinct 4K pages: more than the 64-entry L1.
        for i in 0..65u64 {
            let va = VirtAddr::new(i << 12);
            let l = leaf(i << 12, 0);
            h.fill_l1(0, va, &l);
            h.fill_l2(0, va, &l);
        }
        // Page 0 was evicted from L1 but lives in the STLB.
        let va0 = VirtAddr::new(0);
        assert!(h.lookup_l1(0, va0).is_none());
        assert!(matches!(h.lookup_l2(0, va0), L2Hit::Stlb(_)));
    }

    #[test]
    fn colt_coalesces_with_probe() {
        let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Colt));
        // Pages 0..8 map contiguously to frames 0..8.
        let probe = |v: u64, g: PageOrder| (g == PageOrder::P4K && v < 8).then_some((v, true));
        h.fill_l1_with_probe(0, VirtAddr::new(0x3000), &leaf(0x3000, 0), &probe);
        // The single fill covers the whole window.
        for i in 0..8u64 {
            assert!(h.lookup_l1(0, VirtAddr::new(i << 12)).is_some(), "page {i}");
        }
        assert!(h.lookup_l1(0, VirtAddr::new(8 << 12)).is_none());
        assert!(h.colt_mean_run_len() > 7.9);
    }

    #[test]
    fn rmm_range_hit_after_stlb_miss() {
        let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Rmm));
        h.fill_range(RangeEntry {
            asid: 0,
            start_vpn: 0x1000, // tps-lint::allow(no-magic-page-size, reason = "VPN index, not a byte size")
            end_vpn: 0x10_0000,
            delta: 0x5000,
            writable: true,
        });
        let va = VirtAddr::new(0x8765 << 12);
        assert!(h.lookup_l1(0, va).is_none());
        match h.lookup_l2(0, va) {
            L2Hit::Range(t) => assert_eq!(t.pfn, 0x8765 + 0x5000),
            other => panic!("expected range hit, got {other:?}"),
        }
    }

    #[test]
    fn baseline_ignores_range_fill() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        assert!(!h.has_range_tlb());
        h.fill_range(RangeEntry {
            asid: 0,
            start_vpn: 0,
            end_vpn: 100,
            delta: 0,
            writable: true,
        });
        assert_eq!(h.lookup_l2(0, VirtAddr::new(0x5000)), L2Hit::Miss);
    }

    #[test]
    fn fault_stats_count_injected_degradations() {
        use tps_core::{FaultPlan, FaultPlanConfig};
        let mut h = TlbHierarchy::new(TlbConfig::default());
        let va = VirtAddr::new(GIB);
        let l = leaf(GIB, 9);
        h.fill_l1(0, va, &l);
        assert_eq!(h.fault_stats(PerAsid::total), TlbFaultStats::default());
        let (handle, _plan) = FaultPlan::handles(FaultPlanConfig {
            any_size_fill: 1.0,
            stlb_probe: 1.0,
            ..FaultPlanConfig::disabled(7)
        });
        h.set_fault_injector(Some(handle));
        h.fill_l1(0, va, &l); // the 2 MB any-size L1 drops it
        assert_eq!(h.lookup_l2(0, va), L2Hit::Miss); // forced probe miss
                                                     // Removing the injector keeps what it already injected.
        h.set_fault_injector(None);
        let s = h.fault_stats(PerAsid::total);
        assert_eq!(
            (s.fill_drops, s.evict_abandons, s.stlb_probe_misses),
            (1, 0, 1)
        );
        // Both degradations are charged to the ASID that suffered them.
        assert_eq!(h.fault_stats(|c| c.of(0)), s);
        assert_eq!(h.fault_stats(|c| c.of(1)), TlbFaultStats::default());
    }

    #[test]
    fn hit_rate_computation() {
        let mut s = TlbStats::default();
        assert_eq!(s.l1_hit_rate(), 1.0, "vacuous");
        s.accesses = 10;
        s.l1_hits = 9;
        s.stlb_hits = 1;
        assert!((s.l1_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(s.l1_misses(), 1);
        assert_eq!(s.l1_miss_l2_hit(), 1);
    }
}
