//! Execution metrics: cycle breakdown and the measured Section 7
//! parameters.

use crate::dtb::DtbStats;
use crate::fault::FaultStats;
use memsim::CacheStats;

/// Cycles spent per activity, in level-1 cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// DIR fetches from level-2 memory (`s2 · t2` terms).
    pub fetch_l2: u64,
    /// Short-word fetches from the DTB buffer (`s1 · τ_D` term).
    pub fetch_dtb: u64,
    /// Word fetches through the baseline instruction cache.
    pub fetch_cache: u64,
    /// DTB associative-array lookups (one `τ_D` per INTERP).
    pub lookup: u64,
    /// Second-level translation-store lookups (two-level DTB only).
    pub lookup2: u64,
    /// Promotion traffic: copying translations from the second-level store
    /// into the first-level DTB (two-level DTB only).
    pub promote: u64,
    /// Decoding DIR instructions (`d`).
    pub decode: u64,
    /// Generating PSDER translations (`g`, generation part).
    pub generate: u64,
    /// Storing translations into the buffer array (`g`, store part).
    pub store: u64,
    /// IU2 steering execution in non-DTB modes (interpreter dispatch).
    pub steering: u64,
    /// Semantic-routine micro-words (`x`).
    pub semantic: u64,
}

impl CycleBreakdown {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.fetch_l2
            + self.fetch_dtb
            + self.fetch_cache
            + self.lookup
            + self.lookup2
            + self.promote
            + self.decode
            + self.generate
            + self.store
            + self.steering
            + self.semantic
    }
}

/// Full metrics of a machine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Dynamic DIR instruction count `N`.
    pub instructions: u64,
    /// Cycle breakdown.
    pub cycles: CycleBreakdown,
    /// DIR instructions that were actually fetched-and-decoded (every one
    /// in T1/T3; only misses in T2).
    pub decoded: u64,
    /// Level-2 words fetched for DIR instructions.
    pub l2_words: u64,
    /// Short words executed (from the DTB in T2; inline in T1/T3).
    pub short_words: u64,
    /// Semantic-routine micro-words executed.
    pub routine_words: u64,
    /// DTB statistics (T2 and two-level modes).
    pub dtb: Option<DtbStats>,
    /// Second-level translation-store statistics (two-level mode only).
    pub dtb2: Option<DtbStats>,
    /// Instruction-cache statistics (T3 only).
    pub icache: Option<CacheStats>,
    /// Integrity-check failures recovered by invalidate-and-retranslate
    /// (fault plane only).
    pub recoveries: u64,
    /// Dynamic instructions executed in degraded pure-interpretation
    /// mode after repeated failures at their DIR address.
    pub degraded_instructions: u64,
    /// Level-2 fetches retried after a dropped fetch.
    pub fetch_retries: u64,
    /// Fault-injection totals, when a fault plane was attached.
    pub faults: Option<FaultStats>,
}

impl Metrics {
    /// Average interpretation time per DIR instruction, in level-1 cycles —
    /// the paper's `T`.
    pub fn time_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles.total() as f64 / self.instructions as f64
        }
    }

    /// Measured mean decode cost per *decoded* instruction (`d`).
    pub fn mean_decode(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            self.cycles.decode as f64 / self.decoded as f64
        }
    }

    /// Measured mean generate+store cost per decoded instruction (`g`).
    pub fn mean_generate(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            (self.cycles.generate + self.cycles.store) as f64 / self.decoded as f64
        }
    }

    /// Measured mean semantic time per DIR instruction (`x`).
    pub fn mean_semantic(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles.semantic as f64 / self.instructions as f64
        }
    }

    /// Measured mean short words per DIR instruction (`s1`).
    pub fn mean_s1(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.short_words as f64 / self.instructions as f64
        }
    }

    /// Cycles during which IU1 (the long-format unit) owns the control
    /// word: semantic routines, decoding, translation generation and
    /// interpreter steering — Figure 3's "instruction unit 1".
    pub fn iu1_cycles(&self) -> u64 {
        self.cycles.decode
            + self.cycles.generate
            + self.cycles.store
            + self.cycles.steering
            + self.cycles.semantic
    }

    /// Cycles during which IU2 (the short-format unit) owns the control
    /// word: DTB lookups and short-word fetches from the buffer array.
    pub fn iu2_cycles(&self) -> u64 {
        self.cycles.lookup + self.cycles.lookup2 + self.cycles.fetch_dtb
    }

    /// Cycles stalled on memory traffic outside either instruction unit:
    /// level-2 fetches, i-cache fetches and two-level promotion copies.
    pub fn memory_cycles(&self) -> u64 {
        self.cycles.fetch_l2 + self.cycles.fetch_cache + self.cycles.promote
    }

    /// Measured mean level-2 words per decoded DIR instruction (`s2`).
    pub fn mean_s2(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            self.l2_words as f64 / self.decoded as f64
        }
    }
}

/// Output plus metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The program's output (identical across machine modes).
    pub output: Vec<i64>,
    /// The run's metrics.
    pub metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = CycleBreakdown {
            fetch_l2: 10,
            fetch_dtb: 5,
            fetch_cache: 0,
            lookup: 3,
            lookup2: 2,
            promote: 4,
            decode: 7,
            generate: 2,
            store: 1,
            steering: 4,
            semantic: 8,
        };
        assert_eq!(b.total(), 46);
    }

    #[test]
    fn derived_means_guard_division_by_zero() {
        let m = Metrics::default();
        assert_eq!(m.time_per_instruction(), 0.0);
        assert_eq!(m.mean_decode(), 0.0);
        assert_eq!(m.mean_s1(), 0.0);
    }

    #[test]
    fn iu_partition_covers_all_cycles() {
        let b = CycleBreakdown {
            fetch_l2: 1,
            fetch_dtb: 2,
            fetch_cache: 4,
            lookup: 8,
            lookup2: 16,
            promote: 32,
            decode: 64,
            generate: 128,
            store: 256,
            steering: 512,
            semantic: 1024,
        };
        let m = Metrics {
            cycles: b,
            ..Metrics::default()
        };
        assert_eq!(
            m.iu1_cycles() + m.iu2_cycles() + m.memory_cycles(),
            b.total()
        );
    }

    #[test]
    fn derived_means_compute() {
        let m = Metrics {
            instructions: 10,
            decoded: 5,
            l2_words: 10,
            short_words: 25,
            cycles: CycleBreakdown {
                decode: 50,
                semantic: 30,
                generate: 8,
                store: 2,
                ..CycleBreakdown::default()
            },
            ..Metrics::default()
        };
        assert_eq!(m.mean_decode(), 10.0);
        assert_eq!(m.mean_generate(), 2.0);
        assert_eq!(m.mean_semantic(), 3.0);
        assert_eq!(m.mean_s1(), 2.5);
        assert_eq!(m.mean_s2(), 2.0);
    }
}
