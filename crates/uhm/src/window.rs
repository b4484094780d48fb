//! Windowed time-series sampling of a machine run.
//!
//! End-of-run aggregates hide exactly what the paper's §6 is about:
//! working-set *phase transitions*. A [`WindowSampler`] is a
//! [`TraceSink`] that closes one [`WindowSample`] every N retired DIR
//! instructions, carrying the DTB hit/miss counts, the resident-translation
//! occupancy at window close and the modeled cycles spent inside the
//! window — enough to plot hit-rate curves and see a loop's working set
//! being loaded, exploited and displaced. It reads only the event stream,
//! so the machine keeps no sampling state of its own.

use telemetry::{Event, MissKind, TraceSink};

/// One per-window sample of a machine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Index of the first dynamic instruction in the window (0-based).
    pub start: u64,
    /// Dynamic instructions in the window (== the configured window
    /// length except for the final partial window).
    pub instructions: u64,
    /// DTB hits within the window (0 outside DTB modes).
    pub dtb_hits: u64,
    /// DTB misses within the window, a recovered line included (0
    /// outside DTB modes).
    pub dtb_misses: u64,
    /// Resident translations at window close (0 outside DTB modes).
    pub occupancy: usize,
    /// Modeled cycles spent within the window.
    pub cycles: u64,
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
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// The windowed sampler: a profiling sink that closes a
/// [`WindowSample`] every `every` `Retire` events.
///
/// Cycles are the sum of `Retire.cycles`, hits and misses count
/// `DtbHit`/`DtbMiss`, and occupancy is the last `DtbFill.occupancy`
/// less one per `Recovery` miss (which invalidates the line). It keeps
/// [`CLASSIFY_MISSES`](TraceSink::CLASSIFY_MISSES) off, so a sampled
/// run's metrics are bit-identical to an unobserved run.
#[derive(Debug, Clone)]
pub struct WindowSampler {
    every: u64,
    open: WindowSample,
    occupancy: usize,
    samples: Vec<WindowSample>,
}

impl WindowSampler {
    /// A sampler closing a window every `every` retired instructions.
    ///
    /// # Panics
    ///
    /// If `every` is zero.
    pub fn new(every: u64) -> WindowSampler {
        assert!(every > 0, "a window spans at least one instruction");
        WindowSampler {
            every,
            open: WindowSample::default(),
            occupancy: 0,
            samples: Vec::new(),
        }
    }

    /// The closed windows, the final partial one included.
    pub fn finish(mut self) -> Vec<WindowSample> {
        if self.open.instructions > 0 {
            self.close();
        }
        self.samples
    }

    fn close(&mut self) {
        let start = self.open.start + self.open.instructions;
        self.open.occupancy = self.occupancy;
        self.samples.push(self.open);
        self.open = WindowSample {
            start,
            ..WindowSample::default()
        };
    }
}

impl TraceSink for WindowSampler {
    const CLASSIFY_MISSES: bool = false;

    #[inline]
    fn emit(&mut self, event: Event) {
        match event {
            Event::Retire { cycles, .. } => {
                self.open.instructions += 1;
                self.open.cycles += u64::from(cycles);
                if self.open.instructions == self.every {
                    self.close();
                }
            }
            Event::DtbHit { .. } => self.open.dtb_hits += 1,
            Event::DtbMiss { kind, .. } => {
                self.open.dtb_misses += 1;
                if kind == MissKind::Recovery {
                    self.occupancy = self.occupancy.saturating_sub(1);
                }
            }
            Event::DtbFill { occupancy, .. } => self.occupancy = occupancy as usize,
            _ => {}
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
            cycles: 40,
            ..WindowSample::default()
        };
        assert!((w.time_per_instruction() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn windows_close_on_retires_and_track_occupancy() {
        let retire = |cycles| Event::Retire {
            addr: 0,
            tier: telemetry::Tier::Psder,
            cycles,
        };
        let mut s = WindowSampler::new(2);
        s.emit(Event::DtbMiss {
            addr: 0,
            kind: MissKind::Cold,
        });
        s.emit(Event::DtbFill {
            addr: 0,
            occupancy: 3,
        });
        s.emit(retire(10));
        s.emit(Event::DtbHit { addr: 0 });
        s.emit(retire(1));
        s.emit(Event::DtbMiss {
            addr: 0,
            kind: MissKind::Recovery,
        });
        s.emit(retire(7));
        let want = [
            WindowSample {
                start: 0,
                instructions: 2,
                dtb_hits: 1,
                dtb_misses: 1,
                occupancy: 3,
                cycles: 11,
            },
            WindowSample {
                start: 2,
                instructions: 1,
                dtb_hits: 0,
                dtb_misses: 1,
                occupancy: 2,
                cycles: 7,
            },
        ];
        assert_eq!(s.finish(), want);
        assert!(WindowSampler::new(5).finish().is_empty());
    }
}
