//! Windowed time-series sampling of a machine run.
//!
//! End-of-run aggregates hide exactly what the paper's §6 is about:
//! working-set *phase transitions*. A run with windowing enabled
//! (see [`RunOptions::window`](crate::RunOptions::window)) closes one
//! [`WindowSample`] every N dynamic DIR instructions, carrying the DTB
//! hit/miss deltas, the resident-translation occupancy at window close,
//! and the full per-activity cycle breakdown spent inside the window —
//! enough to plot hit-rate curves and see a loop's working set being
//! loaded, exploited and displaced.

use crate::metrics::CycleBreakdown;

/// One per-window sample of a machine run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowSample {
    /// Index of the first dynamic instruction in the window (0-based).
    pub start: u64,
    /// Dynamic instructions in the window (== the configured window
    /// length except for the final partial window).
    pub instructions: u64,
    /// DTB hits within the window (0 outside DTB modes).
    pub dtb_hits: u64,
    /// DTB misses within the window (0 outside DTB modes).
    pub dtb_misses: u64,
    /// Resident translations at window close (0 outside DTB modes).
    pub occupancy: usize,
    /// Cycles spent within the window, per activity.
    pub cycles: CycleBreakdown,
}

impl WindowSample {
    /// DTB hit rate within the window (`0.0` when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.dtb_hits + self.dtb_misses;
        if total == 0 {
            0.0
        } else {
            self.dtb_hits as f64 / total as f64
        }
    }

    /// Mean cycles per instruction within the window.
    pub fn time_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles.total() as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_guards_empty_windows() {
        assert_eq!(WindowSample::default().hit_rate(), 0.0);
        let w = WindowSample {
            dtb_hits: 3,
            dtb_misses: 1,
            ..WindowSample::default()
        };
        assert!((w.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn per_window_time_divides_by_window_instructions() {
        let w = WindowSample {
            instructions: 10,
            cycles: CycleBreakdown {
                decode: 25,
                semantic: 15,
                ..CycleBreakdown::default()
            },
            ..WindowSample::default()
        };
        assert!((w.time_per_instruction() - 4.0).abs() < 1e-12);
    }
}
