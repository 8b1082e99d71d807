//! Differential shadow-walk oracle for the hardware-layer fault sites.
//!
//! The OS-level campaign checks cross-layer invariants; this oracle
//! checks the *hardware model* under injected faults. It drives random
//! translations through the full product path — any-size L1 TLB, dual
//! STLB, MMU paging-structure caches, page walker — with every hardware
//! [`tps_core::FaultSite`] armed, and replays **every** translation (in
//! particular every one that absorbed a fault) against a naive reference
//! walker that descends the page table entry by entry with no caches, no
//! TLBs, and no injector. Injected hardware faults may only cost time;
//! any divergence from the reference is a correctness violation.

use crate::plan::{FaultPlan, FaultPlanConfig};
use crate::runner::spread;
use tps_core::rng::Rng;
use tps_core::{PhysAddr, VirtAddr, BASE_PAGE_SIZE};
use tps_os::{Os, PolicyConfig, PolicyKind, Vma};
use tps_pt::{AliasPolicy, MmuCaches, PageTable, Walker};
use tps_tlb::{AnySizeTlb, Asid, DualStlb, TlbEntry};

/// Knobs for one shadow-walk run.
#[derive(Copy, Clone, Debug)]
pub struct ShadowConfig {
    /// Random translations driven through the product path.
    pub translations: u32,
    /// Master seed: fixes the address stream and the fault stream.
    pub seed: u64,
    /// Per-site probability armed on every hardware fault site.
    pub rate: f64,
    /// Modeled physical memory backing the mappings.
    pub mem_bytes: u64,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            translations: 4_000,
            seed: 0x5aad_0e11,
            rate: 0.05,
            mem_bytes: 64 << 20,
        }
    }
}

/// What one shadow-walk run observed.
#[derive(Clone, Debug, Default)]
pub struct ShadowReport {
    /// Translations performed.
    pub translations: u64,
    /// Translations during which the injector fired at least once.
    pub faulted_translations: u64,
    /// L1 (any-size TLB) hits.
    pub tlb_hits: u64,
    /// Dual-STLB hits.
    pub stlb_hits: u64,
    /// Full page walks.
    pub walks: u64,
    /// Product-vs-reference divergences (correctness violations; must be
    /// empty). Each entry names the VA and both physical addresses.
    pub mismatches: Vec<String>,
    /// Injections per fault-site label, in label order.
    pub injected: Vec<(&'static str, u64)>,
    /// Degradation counters: (walk restarts, alias-install retries,
    /// MMU-cache fill drops, TLB fill drops, TLB evict abandons, STLB
    /// probe misses) — the panic-free cost of the absorbed faults.
    pub degradations: [u64; 6],
}

impl ShadowReport {
    /// Injections recorded for one site label.
    pub fn injected_at(&self, label: &str) -> u64 {
        self.injected
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, n)| *n)
    }
}

/// Physical address a TLB entry yields for `va` (base-page translation
/// plus the offset within the base page — matching [`WalkOk::translate`]
/// for any entry that covers the address).
///
/// [`WalkOk::translate`]: tps_pt::WalkOk::translate
fn entry_pa(entry: &TlbEntry, va: VirtAddr) -> PhysAddr {
    PhysAddr::new(
        entry.translate(va.base_page_number()) * BASE_PAGE_SIZE
            + va.page_offset(tps_core::BASE_PAGE_SHIFT),
    )
}

/// The naive reference walker: a plain radix descent over raw entries.
/// No caches, no TLBs, no injector, no alias bookkeeping — just the
/// architectural definition of a page walk.
fn reference_walk(pt: &PageTable, va: VirtAddr) -> Option<PhysAddr> {
    let mut level = pt.levels();
    let mut node = pt.root();
    loop {
        let pte = pt.read_entry(node, va.pt_index(level));
        if !pte.is_present() {
            return None;
        }
        if pte.is_leaf(level) {
            let leaf = pte.decode_leaf(level).ok()?;
            return Some(PhysAddr::new(
                leaf.base.value() + va.page_offset(leaf.order.shift()),
            ));
        }
        node = pte.next_table();
        level -= 1;
    }
}

/// Runs the oracle: populates a TPS-policy address space, then drives
/// `cfg.translations` random translations through the faulted hardware
/// path, checking each against [the reference](reference_walk).
pub fn run_shadow_walk(cfg: &ShadowConfig) -> ShadowReport {
    let mut rng = Rng::new(cfg.seed);
    let mut os = Os::new(cfg.mem_bytes, PolicyConfig::new(PolicyKind::Tps));
    let pid: Asid = os.spawn();

    // Arm every hardware site; OS sites stay at zero so the only faults
    // in play are the ones this oracle is auditing. The fault stream is
    // decorrelated from the translation stream: `seed ^ φ64`.
    let (handle, plan) =
        FaultPlan::handles(FaultPlanConfig::uniform_hw(spread(cfg.seed, 1), cfg.rate));
    // The OS hook reaches the page table's alias-install site; the rest
    // are the hardware structures the loop below drives directly.
    os.set_fault_injector(Some(handle.clone()));
    let mut walker = Walker::new(AliasPolicy::Pointer);
    walker.set_fault_injector(Some(handle.clone()));
    let mut caches = MmuCaches::default();
    caches.set_fault_injector(Some(handle.clone()));
    // Deliberately tiny TLBs: TPS promotion covers each arena with a
    // handful of tailored pages, so realistic capacities would almost
    // never miss — and the fill/evict/probe sites only fire on misses.
    let mut tlb = AnySizeTlb::new(4);
    tlb.set_fault_injector(Some(handle.clone()));
    let mut stlb = DualStlb::new(4, 2);
    stlb.set_fault_injector(Some(handle));

    // Populate: a few VMAs, every base page demand-touched, so the TPS
    // policy promotes to tailored pages and installs alias PTEs (the
    // alias-install site fires during this phase).
    let mut vmas: Vec<Vma> = Vec::new();
    for _ in 0..8 {
        let bytes = BASE_PAGE_SIZE * (32 + rng.below(96));
        let vma = os.mmap(pid, bytes).expect("shadow arena fits");
        for page in 0..vma.len() / BASE_PAGE_SIZE {
            let va = VirtAddr::new(vma.base().value() + page * BASE_PAGE_SIZE);
            if os.page_table(pid).lookup(va).is_none() {
                os.handle_fault(pid, va, rng.chance(0.5))
                    .expect("demand fault succeeds");
            }
        }
        vmas.push(vma);
    }

    let mut report = ShadowReport::default();
    for _ in 0..cfg.translations {
        let vma = &vmas[rng.below(vmas.len() as u64) as usize];
        let va = VirtAddr::new(vma.base().value() + rng.below(vma.len()));
        let injected_before = plan.borrow().injected_total();

        // Product path: L1 → STLB → walk (with structure caches), then
        // fill the TLBs the way the MMU would.
        let vpn = va.base_page_number();
        let product = if let Some(entry) = tlb.lookup(pid, vpn) {
            report.tlb_hits += 1;
            entry_pa(&entry, va)
        } else if let Some(entry) = stlb.lookup(pid, vpn) {
            report.stlb_hits += 1;
            tlb.fill(entry);
            entry_pa(&entry, va)
        } else {
            report.walks += 1;
            let ok = walker
                .walk_for(pid, os.page_table(pid), va, Some(&mut caches))
                .expect("every VA in the arena is mapped");
            let entry = TlbEntry::from_leaf(pid, va, &ok.leaf);
            tlb.fill(entry);
            if entry.order == tps_core::PageOrder::P4K || entry.order == tps_core::PageOrder::P2M {
                stlb.fill(entry);
            }
            ok.translate(va)
        };

        if plan.borrow().injected_total() > injected_before {
            report.faulted_translations += 1;
        }
        report.translations += 1;

        // The differential check: the product path must agree with the
        // naive reference on every translation, faulted or not.
        let reference = reference_walk(os.page_table(pid), va);
        if reference != Some(product) && report.mismatches.len() < 32 {
            report.mismatches.push(format!(
                "va {va}: product {product}, reference {reference:?}"
            ));
        }
    }

    report.degradations = [
        walker.walk_restarts(),
        os.page_table(pid).alias_install_retries(),
        caches.fill_drops(),
        tlb.fill_drops(),
        tlb.evict_abandons(),
        stlb.probe_misses(),
    ];
    report.injected = plan
        .borrow()
        .injected()
        .iter()
        .map(|(label, count)| (*label, *count))
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_translations_always_match_the_reference() {
        let report = run_shadow_walk(&ShadowConfig::default());
        assert!(report.mismatches.is_empty(), "{:#?}", report.mismatches);
        assert!(report.faulted_translations > 0, "faults actually landed");
        assert!(report.walks > 0 && report.tlb_hits > 0);
    }

    #[test]
    fn every_hardware_site_fires_and_is_absorbed() {
        // A high rate and enough traffic make every site statistically
        // certain to fire; the seed pins the exact counts.
        let report = run_shadow_walk(&ShadowConfig {
            rate: 0.2,
            ..ShadowConfig::default()
        });
        for label in [
            "walk-step",
            "alias-install",
            "mmu-cache-fill",
            "any-size-fill",
            "any-size-evict",
            "stlb-probe",
        ] {
            assert!(
                report.injected_at(label) > 0,
                "site {label} never fired: {:?}",
                report.injected
            );
        }
        assert!(report.mismatches.is_empty(), "{:#?}", report.mismatches);
        // Each injection shows up as a degradation, never a wrong answer.
        let degradations: u64 = report.degradations.iter().sum();
        assert!(degradations > 0);
    }

    #[test]
    fn oracle_replays_deterministically() {
        let a = run_shadow_walk(&ShadowConfig::default());
        let b = run_shadow_walk(&ShadowConfig::default());
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.degradations, b.degradations);
        assert_eq!(a.tlb_hits, b.tlb_hits);
        assert_eq!(a.walks, b.walks);
    }
}
