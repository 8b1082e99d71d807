//! Per-process virtual address space: VMA bookkeeping and region placement.

use std::collections::BTreeMap;
use tps_core::{InvariantLayer, PageOrder, TpsError, VirtAddr, BASE_PAGE_SHIFT};

/// A mapped virtual memory area (one `mmap` result).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Vma {
    base: VirtAddr,
    len: u64,
}

impl Vma {
    /// First address of the area.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Length in bytes (a multiple of the base page).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-length area (never produced by `map_region`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the last address.
    pub fn end(&self) -> VirtAddr {
        VirtAddr::new(self.base.value() + self.len)
    }

    /// True if `va` lies inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.base && va < self.end()
    }
}

/// The VMA table of one process plus a bump placement policy.
///
/// Regions are placed at addresses aligned to their covering page order so
/// that TPS promotions up to the whole-region size remain possible, with a
/// guard gap between regions (so no two VMAs can ever share a potential
/// tailored page).
#[derive(Clone, Debug)]
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    bump: u64,
}

/// Where process mappings start (4 GB — clear of null and code regions).
const MMAP_BASE: u64 = 1 << 32;

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            vmas: BTreeMap::new(),
            bump: MMAP_BASE,
        }
    }

    /// Number of live VMAs.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// True if no VMAs exist.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Places a new region of `len` bytes (rounded up to whole pages),
    /// aligned to `align`, and records its VMA.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvariantViolation`] if `len` is zero — the mmap
    /// path reports a malformed request instead of panicking.
    pub fn map_region(&mut self, len: u64, align: PageOrder) -> Result<Vma, TpsError> {
        if len == 0 {
            return Err(TpsError::invariant(
                InvariantLayer::Os,
                "cannot map an empty region".to_string(),
            ));
        }
        let len = round_up_pages(len);
        let base = VirtAddr::new(self.bump).align_up(align.shift());
        let vma = Vma { base, len };
        self.vmas.insert(base.value(), vma);
        // Guard gap: skip to the next alignment boundary past the region so
        // a neighboring VMA can never share an aligned tailored-page region.
        self.bump = (base.value() + len + align.bytes()) & !(align.bytes() - 1);
        Ok(vma)
    }

    /// Removes the VMA starting exactly at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::Unmapped`] if no VMA starts there.
    pub fn unmap_region(&mut self, base: VirtAddr) -> Result<Vma, TpsError> {
        self.vmas.remove(&base.value()).ok_or(TpsError::Unmapped {
            vaddr: base.value(),
        })
    }

    /// The VMA containing `va`, if any.
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        let (_, vma) = self.vmas.range(..=va.value()).next_back()?;
        vma.contains(va).then_some(vma)
    }

    /// Iterates VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Total mapped virtual bytes.
    pub fn total_bytes(&self) -> u64 {
        self.vmas.values().map(Vma::len).sum()
    }
}

/// Rounds a byte count up to a whole number of base pages.
pub fn round_up_pages(len: u64) -> u64 {
    let page = 1u64 << BASE_PAGE_SHIFT;
    len.div_ceil(page) * page
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::BASE_PAGE_SIZE;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    #[test]
    fn regions_are_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        let v1 = a.map_region(28 << 10, o(3)).unwrap();
        let v2 = a.map_region(1 << 20, o(8)).unwrap();
        assert!(v1.base().is_aligned(12 + 3));
        assert!(v2.base().is_aligned(12 + 8));
        assert!(v2.base() >= v1.end());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn guard_gap_prevents_shared_promotion_regions() {
        let mut a = AddressSpace::new();
        let v1 = a.map_region(4 << 10, o(4)).unwrap(); // 4K region, 64K alignment
        let v2 = a.map_region(4 << 10, o(4)).unwrap();
        // No aligned 64K region contains parts of both VMAs.
        assert!(v2.base().value() - v1.base().align_down(16).value() >= 64 << 10);
    }

    #[test]
    fn len_rounds_to_pages() {
        let mut a = AddressSpace::new();
        let v = a.map_region(5000, o(0)).unwrap();
        assert_eq!(v.len(), 8192);
        assert_eq!(a.total_bytes(), 8192);
    }

    #[test]
    fn find_and_unmap() {
        let mut a = AddressSpace::new();
        let v = a.map_region(64 << 10, o(4)).unwrap();
        let inside = VirtAddr::new(v.base().value() + BASE_PAGE_SIZE);
        assert_eq!(a.find(inside), Some(&v));
        assert!(a.find(VirtAddr::new(v.end().value())).is_none());
        assert!(a.find(VirtAddr::new(v.base().value() - 1)).is_none());
        let removed = a.unmap_region(v.base()).unwrap();
        assert_eq!(removed, v);
        assert!(a.find(inside).is_none());
        assert!(a.unmap_region(v.base()).is_err());
    }

    #[test]
    fn empty_region_is_an_error_not_a_panic() {
        let mut a = AddressSpace::new();
        assert!(matches!(
            a.map_region(0, o(0)),
            Err(TpsError::InvariantViolation { .. })
        ));
        assert!(a.is_empty());
    }

    #[test]
    fn many_regions_stay_sorted() {
        let mut a = AddressSpace::new();
        let vmas: Vec<_> = (0..50)
            .map(|i| a.map_region((i + 1) * BASE_PAGE_SIZE, o(0)).unwrap())
            .collect();
        let listed: Vec<_> = a.iter().cloned().collect();
        assert_eq!(vmas, listed);
    }
}
