//! A counter charged per address space.
//!
//! Hardware structures shared by several processes (the page walker, the
//! MMU caches, the TLBs) count each event against the ASID of the access
//! that caused it, so a multi-tenant machine can report every tenant's
//! share directly and the machine-wide figure is a plain sum.
//!
//! # Example
//!
//! ```
//! use tps_core::PerAsid;
//! let mut restarts = PerAsid::default();
//! restarts.bump(3);
//! restarts.bump(3);
//! restarts.bump(0);
//! assert_eq!(restarts.of(3), 2);
//! assert_eq!(restarts.of(7), 0); // never seen: zero
//! assert_eq!(restarts.total(), 3);
//! ```

/// One monotone count per ASID. Storage grows on the first count an ASID
/// makes; ASIDs never counted read zero.
#[derive(Clone, Debug, Default)]
pub struct PerAsid(Vec<u64>);

impl PerAsid {
    /// Counts one event against `asid`.
    #[inline]
    pub fn bump(&mut self, asid: u16) {
        let i = usize::from(asid);
        if i >= self.0.len() {
            self.grow(i);
        }
        self.0[i] += 1;
    }

    /// First sight of an ASID: make room for it (and every smaller one).
    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) {
        self.0.resize(i + 1, 0);
    }

    /// The count charged to `asid`.
    pub fn of(&self, asid: u16) -> u64 {
        self.0.get(usize::from(asid)).copied().unwrap_or(0)
    }

    /// The count over every ASID.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}
