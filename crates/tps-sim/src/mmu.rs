//! The MMU: orchestrates TLB lookups, page walks, faults and fills for one
//! core (shared by both hardware threads under SMT).

use crate::config::MachineConfig;
use crate::nested::NestedWalkModel;
use tps_core::{LeafInfo, PageOrder, PerAsid, PteFlags, TpsError, VirtAddr};
use tps_os::{Os, Shootdown};
use tps_pt::{MmuCaches, Walker};
use tps_tlb::{Asid, L2Hit, TlbHierarchy, Translation};

/// Where an access found its translation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessLevel {
    /// Hit in an L1 TLB structure.
    L1,
    /// Hit in the STLB after an L1 miss.
    Stlb,
    /// STLB miss covered by the Range TLB (RMM only).
    Range,
    /// Full miss: a hardware page walk was performed.
    Walk,
}

/// The outcome of translating one access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Where the translation came from.
    pub level: AccessLevel,
    /// Page-table memory references performed (including aborted faulting
    /// walks, alias-PTE extra accesses, and nested amplification).
    pub walk_refs: u64,
    /// True if a completed walk ended on an alias PTE.
    pub alias_extra: bool,
    /// Page faults taken while serving this access.
    pub faults: u32,
    /// Hardware A/D-bit stores performed.
    pub ad_updates: u64,
}

/// The core's translation machinery.
#[derive(Clone, Debug)]
pub struct Mmu {
    tlb: TlbHierarchy,
    caches: MmuCaches,
    walker: Walker,
    nested: Option<NestedWalkModel>,
    perfect_l1: bool,
    perfect_l2: bool,
    verify: bool,
}

impl Mmu {
    /// Builds the MMU for a machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        Mmu {
            tlb: TlbHierarchy::new(config.tlb),
            caches: MmuCaches::new(config.mmu_cache),
            walker: Walker::new(config.alias),
            nested: config
                .virtualized
                .then(|| NestedWalkModel::new(config.memory_bytes)),
            perfect_l1: config.perfect_l1,
            perfect_l2: config.perfect_l2,
            verify: config.verify_translations,
        }
    }

    /// MMU-cache hit counters (PDE, PDPTE, PML4E), machine-wide.
    pub fn mmu_cache_hits(&self) -> (u64, u64, u64) {
        self.mmu_cache_hits_by(PerAsid::total)
    }

    /// MMU-cache hit counters, each counted per ASID of the walk; `read`
    /// picks the share: `|c| c.of(asid)` for one address space's.
    pub fn mmu_cache_hits_by(&self, read: impl Fn(&PerAsid) -> u64) -> (u64, u64, u64) {
        let [pde, pdpte, pml4e] = self.caches.hit_counts();
        (read(pde), read(pdpte), read(pml4e))
    }

    /// Installs (or removes) a fault injector on every hardware structure
    /// this MMU owns: the page walker (walk-step restarts), the MMU
    /// page-structure caches (dropped fills), and the TLB hierarchy
    /// (dropped fills, abandoned evictions, forced STLB probe misses).
    pub fn set_fault_injector(&mut self, injector: Option<tps_core::InjectorHandle>) {
        self.walker.set_fault_injector(injector.clone());
        self.caches.set_fault_injector(injector.clone());
        self.tlb.set_fault_injector(injector);
    }

    /// Degradation counters from injected hardware faults: walk restarts,
    /// dropped MMU-cache fills, and the TLB hierarchy's fault stats,
    /// machine-wide.
    pub fn hw_fault_counters(&self) -> (u64, u64, tps_tlb::TlbFaultStats) {
        self.hw_fault_counters_by(PerAsid::total)
    }

    /// The degradation counters, each counted against the ASID of the
    /// access that suffered it; `read` picks the share: `|c| c.of(asid)`
    /// for one address space's.
    pub fn hw_fault_counters_by(
        &self,
        read: impl Fn(&PerAsid) -> u64,
    ) -> (u64, u64, tps_tlb::TlbFaultStats) {
        (
            read(self.walker.walk_restarts()),
            read(self.caches.fill_drops()),
            self.tlb.fault_stats(read),
        )
    }

    /// Flushes the paging-structure caches only (page merges free
    /// page-table nodes but leave TLB entries valid — paper §III-C2).
    pub fn flush_structure_caches(&mut self) {
        self.caches.invalidate_all();
    }

    /// Drops every TLB entry tagged with `asid` — the hardware side of a
    /// tenant exiting: its dead translations stop occupying shared TLB
    /// capacity, so surviving tenants immediately gain reach (the
    /// capacity-release half of multi-tenant cross-talk).
    pub fn retire_asid(&mut self, asid: Asid) {
        self.tlb.invalidate_asid(asid);
    }

    /// Applies OS-requested TLB shootdowns (munmap, compaction).
    pub fn apply_shootdowns(&mut self, shootdowns: &[Shootdown]) {
        for sd in shootdowns {
            self.tlb.invalidate_page(sd.asid, sd.va, sd.order);
        }
        if !shootdowns.is_empty() {
            // INVLPG also flushes paging-structure caches.
            self.caches.invalidate_all();
        }
    }

    /// Makes sure `va` is mapped, faulting as needed. Returns the covering
    /// leaf and the number of faults taken.
    fn ensure_mapped(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
    ) -> Result<(LeafInfo, u32), TpsError> {
        let mut faults = 0u32;
        loop {
            if let Some(leaf) = os.page_table(asid).lookup(va) {
                return Ok((leaf, faults));
            }
            os.handle_fault(asid, va, write)?;
            faults += 1;
        }
    }

    /// Translates one access, performing fills, walks, faults and
    /// copy-on-write resolution.
    ///
    /// # Errors
    ///
    /// Propagates the OS fault handler's error when the access cannot be
    /// served — the pool is out of memory, or the address lies outside
    /// every region (segfault). The machine converts these into tenant
    /// faults; they never panic.
    ///
    /// # Panics
    ///
    /// With `verify_translations`, panics if a cached translation
    /// disagrees with the page table (a simulator invariant, not a
    /// tenant-reachable fault).
    pub fn access(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
    ) -> Result<AccessOutcome, TpsError> {
        let mut earlier: Option<AccessOutcome> = None;
        loop {
            let (mut outcome, writable) = self.access_attempt(os, asid, va, write)?;
            if let Some(prev) = earlier {
                // A copy-on-write retry: the access keeps its first level.
                outcome.level = prev.level;
                outcome.walk_refs += prev.walk_refs;
                outcome.alias_extra |= prev.alias_extra;
                outcome.faults += prev.faults;
                outcome.ad_updates += prev.ad_updates;
            }
            if !write || writable {
                return Ok(outcome);
            }
            // Protection fault: resolve copy-on-write and retry.
            let shootdowns = os.handle_cow_fault(asid, va)?;
            self.apply_shootdowns(&shootdowns);
            outcome.faults += 1;
            earlier = Some(outcome);
        }
    }

    /// One translation attempt; returns the outcome plus whether the
    /// mapping used permits writes.
    ///
    /// Each probe branch yields where the translation came from, the
    /// translation itself, the faults it took and the leaf to install;
    /// one tail then fills, verifies and updates the A/D bits.
    fn access_attempt(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
    ) -> Result<(AccessOutcome, bool), TpsError> {
        let mut walk_refs = 0;
        let mut alias_extra = false;
        let (level, t, faults, leaf) = if self.perfect_l1 {
            let (leaf, faults) = self.ensure_mapped(os, asid, va, write)?;
            (AccessLevel::L1, leaf_translation(va, &leaf), faults, None)
        } else if let Some(t) = self.tlb.lookup_l1(asid, va) {
            (AccessLevel::L1, t, 0, None)
        } else if self.perfect_l2 {
            let (leaf, faults) = self.ensure_mapped(os, asid, va, write)?;
            let t = leaf_translation(va, &leaf);
            (AccessLevel::Stlb, t, faults, Some(leaf))
        } else {
            match self.tlb.lookup_l2(asid, va) {
                L2Hit::Stlb(t) => {
                    // Refill L1 from the (functionally looked-up) leaf: the
                    // hardware already has everything it needs in the entry.
                    let (leaf, faults) = self.ensure_mapped(os, asid, va, write)?;
                    (AccessLevel::Stlb, t, faults, Some(leaf))
                }
                L2Hit::Range(t) => {
                    // RMM: construct the 4 KB PTE from the range, no walk.
                    let flags = if t.writable {
                        PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER
                    } else {
                        PteFlags::PRESENT | PteFlags::USER
                    };
                    let leaf = LeafInfo {
                        base: tps_core::PhysAddr::from_pfn(t.pfn),
                        order: PageOrder::P4K,
                        flags,
                    };
                    (AccessLevel::Range, t, 0, Some(leaf))
                }
                L2Hit::Miss => {
                    let (leaf, faults, refs, alias) = self.walk(os, asid, va, write)?;
                    (walk_refs, alias_extra) = (refs, alias);
                    let t = leaf_translation(va, &leaf);
                    (AccessLevel::Walk, t, faults, Some(leaf))
                }
            }
        };

        if let Some(leaf) = &leaf {
            if level == AccessLevel::Walk {
                self.tlb.fill_l2(asid, va, leaf);
                // RMM refills its Range TLB from the OS range table after
                // the walk (off the critical path).
                if self.tlb.has_range_tlb() {
                    if let Some(range) = os.range_for(asid, va) {
                        self.tlb.fill_range(range);
                    }
                }
            }
            self.tlb
                .fill_l1_with_probe(asid, va, leaf, |upn: u64, order: PageOrder| {
                    os.probe_mapping_order(asid, upn, order)
                });
        }
        if self.verify {
            self.verify_translation(os, asid, va, t.pfn);
        }
        let ad_updates = if level == AccessLevel::L1 {
            0
        } else {
            u64::from(os.hw_mark_accessed(asid, va, write))
        };
        let outcome = AccessOutcome {
            level,
            walk_refs,
            alias_extra,
            faults,
            ad_updates,
        };
        Ok((outcome, t.writable))
    }

    /// Page walk, taking faults (and their promotions) until it completes.
    /// Returns the leaf, the faults taken, every page-table reference
    /// (aborted walks included) and whether the walk ended on an alias PTE.
    fn walk(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
    ) -> Result<(LeafInfo, u32, u64, bool), TpsError> {
        let mut faults = 0u32;
        let mut walk_refs = 0u64;
        loop {
            let result =
                self.walker
                    .walk_for(asid, os.page_table(asid), va, Some(&mut self.caches));
            match result {
                Ok(ok) => {
                    walk_refs += self.charge_refs(&ok.refs);
                    return Ok((ok.leaf, faults, walk_refs, ok.alias_extra));
                }
                Err(fault) => {
                    walk_refs += self.charge_refs(&fault.refs);
                    faults += 1;
                    if os.handle_fault(asid, va, write)?.promoted {
                        // Cross-level promotion may free page-table nodes:
                        // the OS flushes the paging-structure caches.
                        self.caches.invalidate_all();
                    }
                }
            }
        }
    }

    /// Counts guest refs plus nested (host) amplification when virtualized.
    fn charge_refs(&mut self, refs: &[tps_core::PhysAddr]) -> u64 {
        let mut total = refs.len() as u64;
        if let Some(nested) = &mut self.nested {
            for &pa in refs {
                total += nested.nested_refs(pa);
            }
        }
        total
    }

    fn verify_translation(&self, os: &Os, asid: Asid, va: VirtAddr, pfn: u64) {
        let expect = os
            .page_table(asid)
            .translate(va)
            .expect("verified access must be mapped")
            .base_page_number();
        assert_eq!(
            pfn, expect,
            "translation mismatch at {va} (asid {asid}): tlb {pfn:#x} vs pt {expect:#x}"
        );
    }
}

/// The translation a page-table leaf gives `va`.
fn leaf_translation(va: VirtAddr, leaf: &LeafInfo) -> Translation {
    let offset = va.base_page_number() - va.align_down(leaf.order.shift()).base_page_number();
    Translation {
        pfn: leaf.base.base_page_number() + offset,
        writable: leaf.flags.contains(PteFlags::WRITABLE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Mechanism};
    use tps_core::BASE_PAGE_SIZE;
    use tps_os::{CowPolicy, PolicyConfig, PolicyKind};

    fn setup() -> (Os, Mmu, Asid) {
        let config = MachineConfig::for_mechanism(Mechanism::Tps)
            .with_memory(64 << 20)
            .with_verification();
        let mut os = Os::with_buddy(
            tps_mem::BuddyAllocator::new(64 << 20),
            PolicyConfig::new(PolicyKind::Tps),
        );
        let asid = os.spawn();
        (os, Mmu::new(&config), asid)
    }

    #[test]
    fn cow_write_after_fork_resolves_through_the_tlb() {
        let (mut os, mut mmu, parent) = setup();
        let vma = os.mmap(parent, 64 << 10).unwrap();
        // Parent touches everything (writable), warming its TLB entries.
        for i in 0..16u64 {
            let va = VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE);
            mmu.access(&mut os, parent, va, true).unwrap();
        }
        let (child, shootdowns) = os.fork(parent);
        mmu.apply_shootdowns(&shootdowns);

        // Child reads: hits shared read-only frames; verification checks
        // the translation against the child's page table.
        let out = mmu.access(&mut os, child, vma.base(), false).unwrap();
        assert_eq!(out.faults, 0);

        // Child writes: the CoW fault resolves inside Mmu::access.
        let out = mmu
            .access(&mut os, child, vma.base() + 0x2000, true)
            .unwrap();
        assert!(out.faults >= 1, "CoW fault must be taken");
        assert!(os.stats().cow_faults >= 1);

        // Parent writes after the child diverged: sole-owner re-protect.
        let out = mmu
            .access(&mut os, parent, vma.base() + 0x2000, true)
            .unwrap();
        assert!(out.faults >= 1);
        // Subsequent writes are fault-free in both.
        assert_eq!(
            mmu.access(&mut os, child, vma.base() + 0x2000, true)
                .unwrap()
                .faults,
            0
        );
        assert_eq!(
            mmu.access(&mut os, parent, vma.base() + 0x2000, true)
                .unwrap()
                .faults,
            0
        );
    }

    #[test]
    fn cow_copy_smallest_through_the_tlb() {
        let (mut os, mut mmu, parent) = setup();
        os.set_cow_policy(CowPolicy::CopySmallest);
        let vma = os.mmap(parent, 32 << 10).unwrap();
        for i in 0..8u64 {
            mmu.access(
                &mut os,
                parent,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        let (child, sds) = os.fork(parent);
        mmu.apply_shootdowns(&sds);
        // One child write splits the shared 32K page; every later access
        // still translates correctly (verification is on).
        mmu.access(&mut os, child, vma.base() + 0x3000, true)
            .unwrap();
        for i in 0..8u64 {
            mmu.access(
                &mut os,
                child,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                false,
            )
            .unwrap();
            mmu.access(
                &mut os,
                parent,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                false,
            )
            .unwrap();
        }
        assert_eq!(os.stats().cow_bytes_copied, BASE_PAGE_SIZE);
    }
}
