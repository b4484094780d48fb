//! Per-site check-discharge facts proved by static analysis.
//!
//! [`SiteFacts`] is a pair of bitmaps over DIR addresses recording which
//! individual dynamic checks a static pass has discharged: a set `div_ok`
//! bit at address `a` means the divisor consumed by the instruction at `a`
//! was proved nonzero on every reachable path, and a set `idx_ok` bit means
//! the array index consumed at `a` was proved within `[0, len)`. The map is
//! analysis output: no executor skips a guard on it. It waits for a
//! consumer whose savings the host cost ledger can measure.
//!
//! Soundness is the *producer's* obligation (the analyze crate's dataflow
//! plane). The auditor ([`crate::exec::run_audit_with`]) closes the loop
//! dynamically: it runs the checked executor and treats a guard that fires
//! at a discharged site as a soundness divergence.

/// Bitmaps of per-address check-discharge facts for one DIR program.
///
/// Addresses outside the recorded code length report `false` for every
/// fact, so a stale or truncated bitmap claims nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteFacts {
    /// Length of the code array the facts were computed for.
    code_len: u32,
    /// One bit per address: divisor proved nonzero at this site.
    div_ok: Vec<u64>,
    /// One bit per address: array index proved in bounds at this site.
    idx_ok: Vec<u64>,
}

impl SiteFacts {
    /// Creates an all-false fact map for a program of `code_len`
    /// instructions (every check stays enabled).
    #[must_use]
    pub fn empty(code_len: u32) -> Self {
        let words = (code_len as usize).div_ceil(64);
        SiteFacts {
            code_len,
            div_ok: vec![0; words],
            idx_ok: vec![0; words],
        }
    }

    /// Length of the code array these facts describe.
    #[must_use]
    pub fn code_len(&self) -> u32 {
        self.code_len
    }

    /// True when no fact bit is set (pure checked execution).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.div_count() == 0 && self.idx_count() == 0
    }

    /// Records a proof that the divisor at `addr` is nonzero.
    pub fn set_div_ok(&mut self, addr: u32) {
        debug_assert!(addr < self.code_len, "fact address out of range");
        if let Some(w) = self.div_ok.get_mut(addr as usize / 64) {
            *w |= 1 << (addr % 64);
        }
    }

    /// Records a proof that the array index at `addr` is in bounds.
    pub fn set_idx_ok(&mut self, addr: u32) {
        debug_assert!(addr < self.code_len, "fact address out of range");
        if let Some(w) = self.idx_ok.get_mut(addr as usize / 64) {
            *w |= 1 << (addr % 64);
        }
    }

    /// True when the divisor at `addr` was proved nonzero.
    #[inline]
    #[must_use]
    pub fn div_ok(&self, addr: u32) -> bool {
        self.div_ok
            .get(addr as usize / 64)
            .is_some_and(|w| w >> (addr % 64) & 1 != 0)
    }

    /// True when the array index at `addr` was proved in bounds.
    #[inline]
    #[must_use]
    pub fn idx_ok(&self, addr: u32) -> bool {
        self.idx_ok
            .get(addr as usize / 64)
            .is_some_and(|w| w >> (addr % 64) & 1 != 0)
    }

    /// Number of sites whose divisor guard is discharged.
    #[must_use]
    pub fn div_count(&self) -> u32 {
        self.div_ok.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of sites whose bounds guard is discharged.
    #[must_use]
    pub fn idx_count(&self) -> u32 {
        self.idx_ok.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_facts_discharge_nothing() {
        let f = SiteFacts::empty(130);
        assert!(f.is_empty());
        for a in 0..130 {
            assert!(!f.div_ok(a));
            assert!(!f.idx_ok(a));
        }
    }

    #[test]
    fn bits_round_trip_across_word_boundaries() {
        let mut f = SiteFacts::empty(130);
        for addr in [0, 1, 63, 64, 65, 127, 128, 129] {
            f.set_div_ok(addr);
            assert!(f.div_ok(addr), "div bit {addr}");
            assert!(!f.idx_ok(addr), "idx bit {addr} must stay clear");
        }
        f.set_idx_ok(64);
        assert!(f.idx_ok(64));
        assert_eq!(f.div_count(), 8);
        assert_eq!(f.idx_count(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn out_of_range_queries_report_false() {
        let f = SiteFacts::empty(10);
        assert!(!f.div_ok(5_000));
        assert!(!f.idx_ok(u32::MAX));
    }
}
