//! Parameter-sweep helpers: the experiment loops of the benchmark harness
//! as a reusable API.
//!
//! Downstream users exploring a design point (how big should the DTB be
//! for this workload? which associativity?) get one-call sweeps
//! returning structured rows instead of re-writing the machine loop.

use dir::encode::SchemeKind;
use dir::program::Program;
use memsim::Geometry;
use psder::MAX_TRANSLATION_WORDS;

use crate::dtb::{Allocation, DtbConfig, DtbStats, Replacement};
use crate::machine::{Machine, Mode};

/// One row of a DTB capacity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// DTB entries.
    pub entries: usize,
    /// DTB statistics of the run.
    pub stats: DtbStats,
    /// Average interpretation time per DIR instruction.
    pub time_per_instruction: f64,
}

/// Runs a program at each DTB capacity, returning hit ratios and times.
///
/// # Panics
///
/// Panics if the program traps (sweeps are meant for the trap-free
/// workloads; run the program once first to check).
pub fn capacity_sweep(
    program: &Program,
    scheme: SchemeKind,
    capacities: &[usize],
) -> Vec<CapacityPoint> {
    let machine = Machine::new(program, scheme);
    capacities
        .iter()
        .map(|&entries| {
            let report = machine
                .run(&Mode::Dtb(DtbConfig::with_capacity(entries)))
                .expect("sweep workloads must be trap-free");
            CapacityPoint {
                entries,
                stats: report.metrics.dtb.expect("dtb mode"),
                time_per_instruction: report.metrics.time_per_instruction(),
            }
        })
        .collect()
}

/// One row of an associativity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssocPoint {
    /// Ways per set (equal-capacity sweep).
    pub ways: usize,
    /// DTB statistics of the run.
    pub stats: DtbStats,
}

/// Runs a program at fixed capacity across associativity degrees.
///
/// # Panics
///
/// Panics if a degree does not divide `capacity`, or the program traps.
pub fn associativity_sweep(
    program: &Program,
    scheme: SchemeKind,
    capacity: usize,
    degrees: &[usize],
) -> Vec<AssocPoint> {
    let machine = Machine::new(program, scheme);
    degrees
        .iter()
        .map(|&ways| {
            assert!(
                capacity.is_multiple_of(ways),
                "degree {ways} does not divide capacity {capacity}"
            );
            let cfg = DtbConfig {
                geometry: Geometry::new(capacity / ways, ways),
                unit_words: MAX_TRANSLATION_WORDS,
                allocation: Allocation::Fixed,
                replacement: Replacement::Lru,
            };
            let report = machine.run(&Mode::Dtb(cfg)).expect("trap-free");
            AssocPoint {
                ways,
                stats: report.metrics.dtb.expect("dtb mode"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sieve() -> Program {
        dir::compiler::compile(&hlr::programs::SIEVE.compile().expect("compiles"))
    }

    #[test]
    fn capacity_sweep_is_monotone() {
        let points = capacity_sweep(&sieve(), SchemeKind::Huffman, &[4, 16, 64, 256]);
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[0].stats.hit_ratio() <= w[1].stats.hit_ratio() + 1e-12);
            assert!(w[0].time_per_instruction >= w[1].time_per_instruction - 1e-9);
        }
    }

    #[test]
    fn associativity_sweep_covers_degrees() {
        let points = associativity_sweep(&sieve(), SchemeKind::Packed, 32, &[1, 2, 4, 8]);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.stats.hit_ratio() > 0.9, "ways {}: {:?}", p.ways, p.stats);
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn associativity_sweep_rejects_bad_degree() {
        associativity_sweep(&sieve(), SchemeKind::Packed, 32, &[3]);
    }
}
