//! The fully-associative any-page-size TLB — the paper's TPS TLB (Fig. 7).
//!
//! Each entry carries a *page mask* derived from its page order; lookups
//! mask the incoming VPN before the tag compare, adding one gate delay.
//! The paper deploys this as a 32-entry L1 structure replacing the separate
//! 2 MB and 1 GB L1 TLBs, and we also reuse it (with a larger capacity) as
//! the TPS-mode STLB, whose design the paper leaves unspecified.
//!
//! # Host-side index
//!
//! The modelled hardware is a fully-associative LRU array: every entry
//! compares its masked tag in parallel, and a fill into a full array
//! replaces the least recently used entry. Simulating that by scanning
//! every entry costs host time proportional to the capacity on each
//! probe, which at the 1,552-entry TPS STLB dominated first-touch runs.
//! The struct therefore keeps lookup aids that change no modelled outcome:
//!
//! * a hash index from `(asid, order, vpn >> order)` to the entry's slot,
//!   plus, per resident page order, a 64-bit filter of its page numbers.
//!   A probe checks one key per resident order whose filter admits it;
//!   when entries of several orders cover the address (stale small
//!   entries beside a promoted page) the lowest slot wins, exactly as the
//!   first match of a slot-order scan did;
//! * an intrusive doubly-linked LRU list over the slots. A hit or fill
//!   moves its slot to the tail; the head is the victim;
//! * removals (shootdowns, injected evict faults) compact the slots in
//!   order and rebuild the list and the index from the previous LRU
//!   order, using scratch allocated in [`AnySizeTlb::new`].

use crate::entry::{Asid, TlbEntry};
use tps_core::inject::should_fault;
use tps_core::{FaultSite, InjectorHandle, PageOrder, PerAsid, VirtAddr, MAX_PAGE_ORDER};

/// "No slot": an empty index way or the end of the LRU list.
const NONE: u32 = u32::MAX;

/// Ways of one index bucket (one 64-byte host cache line).
const WAYS: usize = 4;

/// Low key bits holding the page order.
const ORDER_BITS: u32 = 5;

/// The packed key of an empty way. Real keys never have all order bits
/// set, since orders stop at [`MAX_PAGE_ORDER`].
const EMPTY_KEY: u64 = u64::MAX;

/// Page-number bits that pick a page's bit in its order's filter word.
const FILTER_BITS: u32 = 6;

/// Packs a page (its order and `vpn >> order`) into one index key;
/// injective because VPNs of 64-bit addresses have at most 52 bits.
#[inline]
fn page_key(order: u32, upn: u64) -> u64 {
    (upn << ORDER_BITS) | u64::from(order)
}

/// Fibonacci hash of a key: its top bits pick the key's home bucket.
#[inline]
fn key_hash(asid: Asid, key: u64) -> u64 {
    (key ^ (u64::from(asid) << 48)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A page's bit position in its order's filter word: its page number
/// folded to [`FILTER_BITS`] bits.
#[inline]
fn filter_pos(upn: u64) -> usize {
    ((upn ^ (upn >> FILTER_BITS)) & ((1 << FILTER_BITS) - 1)) as usize
}

/// One bucket of the hash index: up to [`WAYS`] keys with their slots.
#[derive(Copy, Clone, Debug)]
struct Bucket {
    keys: [u64; WAYS],
    asids: [Asid; WAYS],
    slots: [u32; WAYS],
    /// Resident keys whose insertion found this bucket full and moved
    /// on; a probe continues past the bucket only while this is non-zero.
    passed: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    keys: [EMPTY_KEY; WAYS],
    asids: [0; WAYS],
    slots: [NONE; WAYS],
    passed: 0,
};

/// One live entry plus its LRU neighbours.
#[derive(Copy, Clone, Debug)]
struct Slot {
    entry: TlbEntry,
    /// Next older slot (towards the LRU head).
    older: u32,
    /// Next newer slot (towards the LRU tail).
    newer: u32,
}

/// Fully-associative TLB accepting entries of any page order.
///
/// # Example
///
/// ```
/// use tps_tlb::{AnySizeTlb, TlbEntry};
/// use tps_core::PageOrder;
///
/// let mut tlb = AnySizeTlb::new(32);
/// let entry = TlbEntry {
///     asid: 0, vpn: 0x4000, order: PageOrder::new(5).unwrap(), // 128K page
///     pfn: 0x8000, writable: true,
/// };
/// tlb.fill(entry);
/// // Any base page within the 128K page hits through the mask compare.
/// assert!(tlb.lookup(0, 0x4000 + 31).is_some());
/// assert!(tlb.lookup(0, 0x4000 + 32).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct AnySizeTlb {
    capacity: usize,
    /// Live entries in slot order: the order [`Self::iter`] yields and
    /// covering hits tie-break by.
    slots: Vec<Slot>,
    /// Hash index of the slots by `(asid, order, vpn >> order)`: buckets
    /// probed linearly, never more than half full.
    index: Vec<Bucket>,
    /// `64 - log2(index.len())`: turns a multiplicative hash into a bucket.
    index_shift: u32,
    /// Bit `o` is set while an entry of order `o` is resident.
    orders: u32,
    /// Per page order, a one-word summary of its resident pages: a bit is
    /// set while some page of that order has it as [`filter_pos`]. A
    /// lookup probes the index only for orders whose bit is set. Boxed
    /// to keep the struct small; 32 words, so any `u32` order masked to
    /// five bits indexes it without a bounds check.
    filters: Box<[u64; 32]>,
    /// Resident keys behind each filter bit, per order.
    filter_counts: Vec<[u32; 1 << FILTER_BITS]>,
    /// Least recently used slot: the next victim.
    lru_head: u32,
    /// Most recently used slot.
    lru_tail: u32,
    /// Removal scratch: each old slot's new number, or [`NONE`].
    renumber: Vec<u32>,
    /// Removal scratch: the surviving slots, renumbered, in LRU order.
    lru_order: Vec<u32>,
    injector: Option<InjectorHandle>,
    fill_drops: PerAsid,
    evict_abandons: PerAsid,
}

impl AnySizeTlb {
    /// Creates a TLB with the given entry count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` slot number.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(capacity < NONE as usize, "capacity must fit a u32 slot");
        let buckets = (2 * capacity).div_ceil(WAYS).next_power_of_two().max(2);
        AnySizeTlb {
            capacity,
            slots: Vec::with_capacity(capacity),
            index: vec![EMPTY_BUCKET; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            orders: 0,
            filters: Box::new([0; 32]),
            filter_counts: vec![[0; 1 << FILTER_BITS]; MAX_PAGE_ORDER as usize + 1],
            lru_head: NONE,
            lru_tail: NONE,
            renumber: vec![NONE; capacity],
            lru_order: Vec::with_capacity(capacity),
            injector: None,
            fill_drops: PerAsid::default(),
            evict_abandons: PerAsid::default(),
        }
    }

    /// Installs (or removes) a fault injector consulted at every fill and
    /// eviction. A [`FaultSite::AnySizeFill`] hit drops the fill; an
    /// [`FaultSite::AnySizeEvict`] hit evicts the LRU victim but abandons
    /// the incoming entry. Both only lower the hit rate.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    /// Fills dropped by injected [`FaultSite::AnySizeFill`] faults
    /// (degradation counter), per ASID of the dropped entry.
    pub fn fill_drops(&self) -> &PerAsid {
        &self.fill_drops
    }

    /// Evictions whose incoming entry was abandoned by injected
    /// [`FaultSite::AnySizeEvict`] faults (degradation counter), per ASID
    /// of the abandoned entry.
    pub fn evict_abandons(&self) -> &PerAsid {
        &self.evict_abandons
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up a base-page VPN: the mask-then-compare of every entry,
    /// answered by one index probe per resident page order whose filter
    /// admits the VPN.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        let mut hit = NONE;
        let mut orders = self.orders;
        while orders != 0 {
            let order = orders.trailing_zeros();
            orders &= orders - 1;
            let upn = vpn >> order;
            if self.filters[(order & 31) as usize] >> filter_pos(upn) & 1 != 0 {
                let key = page_key(order, upn);
                hit = hit.min(self.find(asid, key, key_hash(asid, key)));
            }
        }
        if hit == NONE {
            return None;
        }
        self.touch(hit);
        Some(self.slots[hit as usize].entry)
    }

    /// Installs an entry of any order, evicting the LRU entry when full.
    ///
    /// `entry.vpn` must be the page start (aligned to its order), as
    /// [`TlbEntry`] requires. If an entry of the same ASID, page start
    /// and order is resident it is updated in place.
    pub fn fill(&mut self, entry: TlbEntry) {
        if should_fault(&self.injector, FaultSite::AnySizeFill) {
            self.fill_drops.bump(entry.asid);
            return;
        }
        let order = u32::from(entry.order.get());
        debug_assert_eq!(entry.vpn >> order << order, entry.vpn, "unaligned fill");
        let key = page_key(order, entry.vpn >> order);
        let slot = self.find(entry.asid, key, key_hash(entry.asid, key));
        if slot != NONE {
            self.slots[slot as usize].entry = entry;
            self.touch(slot);
            return;
        }
        if self.slots.len() < self.capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                entry,
                older: NONE,
                newer: NONE,
            });
            self.push_newest(slot);
            self.insert_key(slot);
            return;
        }
        let victim = self.lru_head;
        if should_fault(&self.injector, FaultSite::AnySizeEvict) {
            // The victim is already gone when the install fails: the slot
            // ends up empty until a later fill reuses it.
            self.evict_abandons.bump(entry.asid);
            self.retain(|slot, _| slot != victim);
            return;
        }
        self.remove_key(victim);
        self.slots[victim as usize].entry = entry;
        self.insert_key(victim);
        self.touch(victim);
    }

    /// Shoots down entries overlapping the given page range for the ASID.
    pub fn invalidate(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        let start = va.align_down(order.shift()).base_page_number();
        let end = start + order.base_pages();
        self.retain(|_, e| {
            let e_end = e.vpn + e.order.base_pages();
            !(e.asid == asid && e.vpn < end && start < e_end)
        });
    }

    /// Removes every entry of an ASID.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        self.retain(|_, e| e.asid != asid);
    }

    /// Removes everything.
    pub fn flush(&mut self) {
        self.slots.clear();
        self.clear_index();
    }

    /// Iterates live entries (for occupancy statistics).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.slots.iter().map(|s| &s.entry)
    }

    /// The bucket a key's probe starts at.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> self.index_shift) as usize
    }

    /// The key and ASID `slot` is indexed under.
    #[inline]
    fn key_of(&self, slot: u32) -> (Asid, u64) {
        let e = &self.slots[slot as usize].entry;
        let order = u32::from(e.order.get());
        (e.asid, page_key(order, e.vpn >> order))
    }

    /// The slot indexed under `(asid, key)`, or [`NONE`]; `hash` is the
    /// key's [`key_hash`].
    #[inline]
    fn find(&self, asid: Asid, key: u64, hash: u64) -> u32 {
        let mask = self.index.len() - 1;
        let mut b = self.home(hash);
        loop {
            let bucket = &self.index[b];
            let mut slot = NONE;
            for w in 0..WAYS {
                if bucket.keys[w] == key && bucket.asids[w] == asid {
                    slot = bucket.slots[w];
                }
            }
            if slot != NONE || bucket.passed == 0 {
                return slot;
            }
            b = (b + 1) & mask;
        }
    }

    /// Indexes `slot` under its entry's key and sets its page's filter bit.
    fn insert_key(&mut self, slot: u32) {
        let (asid, key) = self.key_of(slot);
        let hash = key_hash(asid, key);
        let mask = self.index.len() - 1;
        let mut b = self.home(hash);
        loop {
            let bucket = &mut self.index[b];
            if let Some(w) = bucket.keys.iter().position(|&k| k == EMPTY_KEY) {
                bucket.keys[w] = key;
                bucket.asids[w] = asid;
                bucket.slots[w] = slot;
                break;
            }
            bucket.passed += 1;
            b = (b + 1) & mask;
        }
        let order = (key & ((1 << ORDER_BITS) - 1)) as usize;
        let pos = filter_pos(key >> ORDER_BITS);
        self.filter_counts[order][pos] += 1;
        self.filters[order] |= 1 << pos;
        self.orders |= 1 << order;
    }

    /// Unindexes `slot`, retracing its insertion probe, and clears its
    /// page's filter bit once no other page holds it.
    fn remove_key(&mut self, slot: u32) {
        let (asid, key) = self.key_of(slot);
        let hash = key_hash(asid, key);
        let mask = self.index.len() - 1;
        let mut b = self.home(hash);
        loop {
            let bucket = &mut self.index[b];
            if let Some(w) = bucket.slots.iter().position(|&s| s == slot) {
                bucket.keys[w] = EMPTY_KEY;
                bucket.slots[w] = NONE;
                break;
            }
            bucket.passed -= 1;
            b = (b + 1) & mask;
        }
        let order = (key & ((1 << ORDER_BITS) - 1)) as usize;
        let pos = filter_pos(key >> ORDER_BITS);
        let count = &mut self.filter_counts[order][pos];
        *count -= 1;
        if *count == 0 {
            self.filters[order] &= !(1 << pos);
            if self.filters[order] == 0 {
                self.orders &= !(1 << order);
            }
        }
    }

    /// Empties the index, the filters and the LRU list.
    fn clear_index(&mut self) {
        self.index.fill(EMPTY_BUCKET);
        self.orders = 0;
        self.filters.fill(0);
        self.filter_counts.fill([0; 1 << FILTER_BITS]);
        self.lru_head = NONE;
        self.lru_tail = NONE;
    }

    /// Appends an unlinked slot at the LRU tail.
    #[inline]
    fn push_newest(&mut self, slot: u32) {
        self.slots[slot as usize].older = self.lru_tail;
        self.slots[slot as usize].newer = NONE;
        match self.lru_tail {
            NONE => self.lru_head = slot,
            tail => self.slots[tail as usize].newer = slot,
        }
        self.lru_tail = slot;
    }

    /// Marks a linked slot most recently used.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if slot == self.lru_tail {
            return;
        }
        let Slot { older, newer, .. } = self.slots[slot as usize];
        // Not the tail, so `newer` is a live slot.
        self.slots[newer as usize].older = older;
        match older {
            NONE => self.lru_head = newer,
            older => self.slots[older as usize].newer = newer,
        }
        self.push_newest(slot);
    }

    /// Keeps the entries `keep` accepts, in slot order, and rebuilds the
    /// LRU list and the index over their new slot numbers. Does nothing
    /// (and touches no index bucket) when every entry is kept.
    fn retain(&mut self, mut keep: impl FnMut(u32, &TlbEntry) -> bool) {
        let mut live = 0u32;
        for (slot, s) in self.slots.iter().enumerate() {
            self.renumber[slot] = if keep(slot as u32, &s.entry) {
                live += 1;
                live - 1
            } else {
                NONE
            };
        }
        if live as usize == self.slots.len() {
            return;
        }
        self.lru_order.clear();
        let mut slot = self.lru_head;
        while slot != NONE {
            if self.renumber[slot as usize] != NONE {
                self.lru_order.push(self.renumber[slot as usize]);
            }
            slot = self.slots[slot as usize].newer;
        }
        let mut slot = 0;
        let renumber = &self.renumber;
        self.slots.retain(|_| {
            slot += 1;
            renumber[slot - 1] != NONE
        });
        self.clear_index();
        for i in 0..self.lru_order.len() {
            let slot = self.lru_order[i];
            self.push_newest(slot);
            self.insert_key(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tps_core::rng::Rng;

    /// The linear-scan implementation the index replaced, kept verbatim as
    /// the reference model of the differential test below: every entry is
    /// compared on each probe, and LRU is a per-entry stamp.
    // Verbatim copy: not every accessor is exercised by the tests.
    #[allow(dead_code)]
    mod scan_model {
        use crate::entry::{Asid, TlbEntry};
        use tps_core::inject::should_fault;
        use tps_core::{FaultSite, InjectorHandle, PageOrder, VirtAddr};

        #[derive(Clone, Debug)]
        pub struct AnySizeTlb {
            capacity: usize,
            entries: Vec<(TlbEntry, u64)>,
            clock: u64,
            injector: Option<InjectorHandle>,
            fill_drops: u64,
            evict_abandons: u64,
        }

        impl AnySizeTlb {
            /// Creates a TLB with the given entry count.
            ///
            /// # Panics
            ///
            /// Panics if `capacity` is zero.
            pub fn new(capacity: usize) -> Self {
                assert!(capacity > 0, "capacity must be positive");
                AnySizeTlb {
                    capacity,
                    entries: Vec::with_capacity(capacity),
                    clock: 0,
                    injector: None,
                    fill_drops: 0,
                    evict_abandons: 0,
                }
            }

            /// Installs (or removes) a fault injector consulted at every fill and
            /// eviction. A [`FaultSite::AnySizeFill`] hit drops the fill; an
            /// [`FaultSite::AnySizeEvict`] hit evicts the LRU victim but abandons
            /// the incoming entry. Both only lower the hit rate.
            pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
                self.injector = injector;
            }

            /// Fills dropped by injected [`FaultSite::AnySizeFill`] faults
            /// (degradation counter).
            pub fn fill_drops(&self) -> u64 {
                self.fill_drops
            }

            /// Evictions whose incoming entry was abandoned by injected
            /// [`FaultSite::AnySizeEvict`] faults (degradation counter).
            pub fn evict_abandons(&self) -> u64 {
                self.evict_abandons
            }

            /// Entry capacity.
            pub fn capacity(&self) -> usize {
                self.capacity
            }

            /// Live entries.
            pub fn len(&self) -> usize {
                self.entries.len()
            }

            /// True if empty.
            pub fn is_empty(&self) -> bool {
                self.entries.is_empty()
            }

            /// Looks up a base-page VPN (mask-then-compare across all entries).
            pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
                self.clock += 1;
                let clock = self.clock;
                self.entries
                    .iter_mut()
                    .find(|(e, _)| e.covers(asid, vpn))
                    .map(|(e, stamp)| {
                        *stamp = clock;
                        *e
                    })
            }

            /// Installs an entry of any order, evicting the LRU entry when full.
            ///
            /// If an existing entry covers the same page start at the same order it
            /// is updated in place.
            pub fn fill(&mut self, entry: TlbEntry) {
                if should_fault(&self.injector, FaultSite::AnySizeFill) {
                    self.fill_drops += 1;
                    return;
                }
                self.clock += 1;
                if let Some((e, stamp)) = self.entries.iter_mut().find(|(e, _)| {
                    e.asid == entry.asid && e.vpn == entry.vpn && e.order == entry.order
                }) {
                    *e = entry;
                    *stamp = self.clock;
                    return;
                }
                if self.entries.len() < self.capacity {
                    self.entries.push((entry, self.clock));
                    return;
                }
                // A full TLB with positive capacity always yields a victim; fall
                // back to a plain push rather than panicking if it somehow cannot.
                let Some(victim) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(i, _)| i)
                else {
                    self.entries.push((entry, self.clock));
                    return;
                };
                if should_fault(&self.injector, FaultSite::AnySizeEvict) {
                    // The victim is already gone when the install fails: the slot
                    // ends up empty until a later fill reuses it.
                    self.evict_abandons += 1;
                    self.entries.remove(victim);
                    return;
                }
                self.entries[victim] = (entry, self.clock);
            }

            /// Shoots down entries overlapping the given page range for the ASID.
            pub fn invalidate(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
                let start = va.align_down(order.shift()).base_page_number();
                let end = start + order.base_pages();
                self.entries.retain(|(e, _)| {
                    let e_end = e.vpn + e.order.base_pages();
                    !(e.asid == asid && e.vpn < end && start < e_end)
                });
            }

            /// Removes every entry of an ASID.
            pub fn invalidate_asid(&mut self, asid: Asid) {
                self.entries.retain(|(e, _)| e.asid != asid);
            }

            /// Removes everything.
            pub fn flush(&mut self) {
                self.entries.clear();
            }

            /// Iterates live entries (for occupancy statistics).
            pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
                self.entries.iter().map(|(e, _)| e)
            }
        }
    }

    fn e(vpn: u64, order: u8) -> TlbEntry {
        TlbEntry {
            asid: 0,
            vpn,
            order: PageOrder::new(order).unwrap(),
            pfn: vpn + 0x10_0000,
            writable: true,
        }
    }

    #[test]
    fn mixed_sizes_coexist() {
        let mut t = AnySizeTlb::new(8);
        t.fill(e(0, 0)); // 4K
        t.fill(e(8, 3)); // 32K at page 8
        t.fill(e(512, 9)); // 2M at page 512
        assert!(t.lookup(0, 0).is_some());
        assert!(t.lookup(0, 10).is_some(), "inside the 32K page");
        assert!(t.lookup(0, 700).is_some(), "inside the 2M page");
        assert!(t.lookup(0, 4).is_none());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lru_eviction() {
        let mut t = AnySizeTlb::new(2);
        t.fill(e(0, 0));
        t.fill(e(1, 0));
        assert!(t.lookup(0, 0).is_some()); // refresh 0
        t.fill(e(2, 0));
        assert!(t.lookup(0, 1).is_none(), "entry 1 was LRU");
        assert!(t.lookup(0, 0).is_some());
        assert!(t.lookup(0, 2).is_some());
    }

    #[test]
    fn translation_through_mask() {
        let mut t = AnySizeTlb::new(4);
        t.fill(e(16, 2)); // 16K page: base pages 16..20
        let hit = t.lookup(0, 19).unwrap();
        assert_eq!(hit.translate(19), 19 + 0x10_0000);
    }

    #[test]
    fn invalidate_overlapping_large_entry() {
        let mut t = AnySizeTlb::new(4);
        t.fill(e(0, 4)); // 64K page: pages 0..16
                         // Shoot down one 4K page inside it: whole entry must go (the
                         // conservative hardware behavior).
        t.invalidate(0, VirtAddr::new(5 << 12), PageOrder::P4K);
        assert!(t.lookup(0, 0).is_none());
    }

    #[test]
    fn asid_isolation() {
        let mut t = AnySizeTlb::new(4);
        let mut a = e(0, 3);
        a.asid = 1;
        let mut b = e(0, 3);
        b.asid = 2;
        b.pfn = 0x999;
        t.fill(a);
        t.fill(b);
        assert_eq!(t.lookup(1, 3).unwrap().pfn, a.pfn);
        assert_eq!(t.lookup(2, 3).unwrap().pfn, 0x999);
        t.invalidate_asid(1);
        assert!(t.lookup(1, 3).is_none());
        assert!(t.lookup(2, 3).is_some());
    }

    #[test]
    fn update_in_place_no_duplicate() {
        let mut t = AnySizeTlb::new(4);
        t.fill(e(8, 3));
        let mut updated = e(8, 3);
        updated.writable = false;
        t.fill(updated);
        assert_eq!(t.len(), 1);
        assert!(!t.lookup(0, 8).unwrap().writable);
    }

    fn hw_plan(
        cfg: tps_core::FaultPlanConfig,
    ) -> std::rc::Rc<std::cell::RefCell<tps_core::FaultPlan>> {
        std::rc::Rc::new(std::cell::RefCell::new(tps_core::FaultPlan::new(cfg)))
    }

    #[test]
    fn injected_fill_fault_drops_the_entry() {
        use tps_core::{FaultPlanConfig, InjectorHandle};
        let mut t = AnySizeTlb::new(4);
        let plan = hw_plan(FaultPlanConfig {
            any_size_fill: 1.0,
            ..FaultPlanConfig::disabled(31)
        });
        t.set_fault_injector(Some(plan.clone() as InjectorHandle));
        t.fill(e(0, 0));
        assert_eq!(t.fill_drops().total(), 1);
        assert!(t.is_empty(), "fill was dropped");
        assert!(t.lookup(0, 0).is_none());
        assert_eq!(plan.borrow().injected_at("any-size-fill"), 1);
    }

    #[test]
    fn injected_evict_fault_abandons_the_incoming_entry() {
        use tps_core::{FaultPlanConfig, InjectorHandle};
        let mut t = AnySizeTlb::new(2);
        t.fill(e(0, 0));
        t.fill(e(1, 0));
        let plan = hw_plan(FaultPlanConfig {
            any_size_evict: 1.0,
            ..FaultPlanConfig::disabled(32)
        });
        t.set_fault_injector(Some(plan.clone() as InjectorHandle));
        t.fill(e(2, 0));
        // The LRU victim (vpn 0) is gone, the incoming entry never landed.
        assert_eq!(t.evict_abandons().total(), 1);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(0, 0).is_none(), "victim evicted");
        assert!(t.lookup(0, 2).is_none(), "incoming abandoned");
        assert!(t.lookup(0, 1).is_some());
        assert_eq!(plan.borrow().injected_at("any-size-evict"), 1);
        // The freed slot is reusable once the injector is removed.
        t.set_fault_injector(None);
        t.fill(e(3, 0));
        assert_eq!(t.len(), 2);
        assert!(t.lookup(0, 3).is_some());
    }

    fn fault_plan(seed: u64) -> InjectorHandle {
        hw_plan(tps_core::FaultPlanConfig {
            any_size_fill: 0.05,
            any_size_evict: 0.2,
            ..tps_core::FaultPlanConfig::disabled(seed)
        })
    }

    /// A page-aligned entry of `order` containing base page `vpn`.
    fn entry_at(rng: &mut Rng, asid: Asid, vpn: u64, order: u8) -> TlbEntry {
        let order = PageOrder::new(order).unwrap();
        let align = |v: u64| v >> order.get() << order.get();
        TlbEntry {
            asid,
            vpn: align(vpn),
            order,
            pfn: align(rng.below(1 << 24)),
            writable: rng.chance(0.5),
        }
    }

    /// Drives the indexed TLB and the scan model through one random
    /// operation sequence and compares them after every step: lookup
    /// results, then occupancy, slot order and degradation counters.
    ///
    /// The sequence mixes fresh fills (mostly 4 KB, so the capacity
    /// overflows and LRU evictions happen), promotions (a larger page
    /// filled over an earlier, still resident smaller one), exact-key
    /// refills, lookups aimed inside filled pages, shootdowns, whole-ASID
    /// shootdowns and flushes across three ASIDs. Odd seeds also inject
    /// fill-drop and evict-abandon faults into both TLBs from identically
    /// seeded plans.
    fn differential_run(capacity: usize, seed: u64, steps: usize) -> Result<(), TestCaseError> {
        let mut rng = Rng::new(seed);
        let mut tlb = AnySizeTlb::new(capacity);
        let mut model = scan_model::AnySizeTlb::new(capacity);
        if seed % 2 == 1 {
            tlb.set_fault_injector(Some(fault_plan(seed)));
            model.set_fault_injector(Some(fault_plan(seed)));
        }
        // Eight times the capacity in distinct base pages: enough fresh
        // keys to overflow the TLB, few enough that lookups often hit.
        let span = (8 * capacity as u64).next_power_of_two();
        // Whole-ASID shootdowns and flushes are rare enough that even the
        // large TLB fills up between them.
        let asid_shootdown = 0.2 / capacity as f64;
        let flush = 0.1 / capacity as f64;
        let mut filled: Vec<TlbEntry> = Vec::new();
        let mut full = false;
        for step in 0..steps {
            let asid = rng.below(3) as Asid;
            let earlier =
                (!filled.is_empty()).then(|| filled[rng.below(filled.len() as u64) as usize]);
            let op = rng.below(100);
            let fill = match (op, earlier) {
                (0..=34, _) | (35..=54, None) => {
                    let order = if rng.chance(0.7) {
                        0
                    } else {
                        rng.below(10) as u8
                    };
                    let vpn = rng.below(span);
                    Some(entry_at(&mut rng, asid, vpn, order))
                }
                (35..=44, Some(old)) => {
                    let order = (old.order.get() + 1 + rng.below(4) as u8).min(12);
                    Some(entry_at(&mut rng, old.asid, old.vpn, order))
                }
                (45..=54, Some(old)) => Some(TlbEntry {
                    pfn: entry_at(&mut rng, old.asid, old.vpn, old.order.get()).pfn,
                    writable: !old.writable,
                    ..old
                }),
                _ => None,
            };
            if let Some(e) = fill {
                filled.push(e);
                tlb.fill(e);
                model.fill(e);
            } else if op < 90 {
                let (asid, vpn) = match earlier {
                    Some(old) if rng.chance(0.8) => {
                        (old.asid, old.vpn + rng.below(old.order.base_pages()))
                    }
                    _ => (asid, rng.below(span)),
                };
                let got = tlb.lookup(asid, vpn);
                let want = model.lookup(asid, vpn);
                prop_assert_eq!(got, want, "step {}: lookup({}, {:#x})", step, asid, vpn);
            } else if rng.chance(flush) {
                tlb.flush();
                model.flush();
            } else if rng.chance(asid_shootdown) {
                tlb.invalidate_asid(asid);
                model.invalidate_asid(asid);
            } else {
                let (asid, vpn) = earlier.map_or((asid, rng.below(span)), |e| (e.asid, e.vpn));
                let order = if rng.chance(0.95) {
                    0
                } else {
                    rng.below(11) as u8
                };
                let order = PageOrder::new(order).unwrap();
                let va = VirtAddr::new(vpn << tps_core::BASE_PAGE_SHIFT);
                tlb.invalidate(asid, va, order);
                model.invalidate(asid, va, order);
            }
            prop_assert_eq!(tlb.len(), model.len(), "step {}: len", step);
            full |= tlb.len() == capacity;
            prop_assert!(
                tlb.iter().eq(model.iter()),
                "step {}: slot order differs",
                step
            );
            prop_assert_eq!(
                tlb.fill_drops().total(),
                model.fill_drops(),
                "step {}",
                step
            );
            prop_assert_eq!(
                tlb.evict_abandons().total(),
                model.evict_abandons(),
                "step {}",
                step
            );
        }
        prop_assert!(full, "the run never filled the TLB, so it never evicted");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The 32-entry L1 size: evictions from the first dozens of fills.
        #[test]
        fn indexed_l1_matches_the_scan_model(seed in 0u64..u64::MAX) {
            differential_run(32, seed, 600)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The 1,552-entry TPS STLB size, filled past capacity.
        #[test]
        fn indexed_stlb_matches_the_scan_model(seed in 0u64..u64::MAX) {
            differential_run(1552, seed, 8000)?;
        }
    }
}
