//! The two-level memory hierarchy cost model of Section 7.
//!
//! The paper's unit of time is the level-1 access time, "assumed to be
//! equal to one machine instruction execution time"; level 2 costs ten
//! units and an access through the DTB/cache associative array costs two
//! (`τ_D = 2 t_1`).

/// Access-time parameters of the hierarchy, in level-1 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryCosts {
    /// Level-1 access time `t1` (also one host instruction time).
    pub t1: u64,
    /// Level-2 access time `t2`.
    pub t2: u64,
    /// DTB / cache access time `τ_D` (nominally `2 t1`).
    pub tau_d: u64,
}

impl Default for MemoryCosts {
    /// The paper's stated values: `t1 = 1`, `t2 = 10 t1`, `τ_D = 2 t1`.
    fn default() -> Self {
        MemoryCosts {
            t1: 1,
            t2: 10,
            tau_d: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = MemoryCosts::default();
        assert_eq!(c.t1, 1);
        assert_eq!(c.t2, 10);
        assert_eq!(c.tau_d, 2);
    }
}
