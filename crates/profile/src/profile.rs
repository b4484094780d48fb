//! Execution profiling: per-instruction and per-procedure execution
//! counts derived from a DIR-address trace.
//!
//! The paper's whole argument rests on skewed execution profiles — a small
//! hot working set that earns its translation many times over. This module
//! makes the skew measurable: coverage curves ("what fraction of dynamic
//! execution do the hottest k static instructions account for?") are the
//! direct empirical justification for a small DTB.

use dir::program::Program;

/// A per-instruction execution profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Execution count per static instruction index.
    pub counts: Vec<u64>,
    /// Total dynamic instructions.
    pub total: u64,
}

impl Profile {
    /// Builds a profile from a recorded DIR-address trace, such as the
    /// one the reference executor records
    /// ([`dir::exec::run_with`] with `trace` set).
    pub fn from_trace(program: &Program, trace: &[u32]) -> Profile {
        let mut counts = vec![0u64; program.len()];
        for &addr in trace {
            counts[addr as usize] += 1;
        }
        Profile {
            counts,
            total: trace.len() as u64,
        }
    }

    /// Static instructions that executed at least once.
    pub fn touched(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// The `n` hottest instructions as `(index, count)`, descending by
    /// count; ties break deterministically by ascending instruction
    /// index, so the listing is stable run to run.
    pub fn hottest(&self, n: usize) -> Vec<(u32, u64)> {
        let mut pairs: Vec<(u32, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(n);
        pairs
    }

    /// Fraction of dynamic execution covered by the hottest `k` static
    /// instructions — the locality skew a DTB of capacity `k` can exploit
    /// at best (with perfect replacement).
    pub fn coverage(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut counts: Vec<u64> = self.counts.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u64 = counts.iter().take(k).sum();
        hot as f64 / self.total as f64
    }

    /// Aggregates execution counts per procedure, as `(name, dynamic
    /// count)` in the program's procedure order; the prelude is labelled
    /// `<prelude>`.
    pub fn by_procedure(&self, program: &Program) -> Vec<(String, u64)> {
        let mut rows = Vec::with_capacity(program.procs.len() + 1);
        let prelude_end = program
            .procs
            .iter()
            .map(|p| p.entry)
            .min()
            .unwrap_or(program.len() as u32);
        let sum_range =
            |a: u32, b: u32| -> u64 { self.counts[a as usize..b as usize].iter().sum() };
        rows.push(("<prelude>".to_string(), sum_range(0, prelude_end)));
        for p in &program.procs {
            rows.push((p.name.clone(), sum_range(p.entry, p.end)));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;
    use uhm::{DtbConfig, Machine, Mode};

    /// The profile of `program`'s reference-executor address trace.
    fn reference_profile(program: &Program) -> Profile {
        let (_, stats) = dir::exec::run_with(program, dir::exec::Limits::default(), true).unwrap();
        Profile::from_trace(program, &stats.trace.unwrap())
    }

    fn profile_of(src: &str) -> (Program, Profile) {
        let program = dir::compiler::compile(&hlr::compile(src).unwrap());
        let profile = reference_profile(&program);
        (program, profile)
    }

    #[test]
    fn counts_sum_to_total() {
        let (_, p) = profile_of("proc main() begin int i; for i := 0 to 9 do write i; end");
        assert_eq!(p.counts.iter().sum::<u64>(), p.total);
        assert!(p.total > 0);
    }

    #[test]
    fn loop_bodies_dominate() {
        let (_, p) = profile_of(
            "proc main() begin
                int i; int s := 0;
                for i := 0 to 999 do s := s + i;
                write s;
            end",
        );
        // The hottest instruction must execute ~1000 times.
        let (_, hottest) = p.hottest(1)[0];
        assert!(hottest >= 1000);
        // A handful of instructions cover almost everything.
        assert!(p.coverage(12) > 0.9, "coverage {}", p.coverage(12));
    }

    #[test]
    fn straightline_has_flat_profile() {
        let program = dir::compiler::compile(&hlr::programs::STRAIGHTLINE.compile().unwrap());
        let p = reference_profile(&program);
        // Every instruction executes exactly once: coverage is linear.
        assert_eq!(p.touched() as u64, p.total);
        let k = p.counts.len() / 2;
        let c = p.coverage(k);
        assert!((c - 0.5).abs() < 0.02, "coverage({k}) = {c}");
    }

    #[test]
    fn by_procedure_attributes_counts() {
        let (program, p) = profile_of(
            "proc helper(int n) -> int begin return n + 1; end
             proc main() begin
                int i;
                for i := 0 to 9 do i := helper(i);
                write i;
             end",
        );
        let rows = p.by_procedure(&program);
        assert_eq!(rows.len(), 3); // prelude + 2 procs
        let helper = rows.iter().find(|(n, _)| n == "helper").unwrap();
        assert!(helper.1 > 0);
        let total: u64 = rows.iter().map(|(_, c)| c).sum();
        assert_eq!(total, p.total);
    }

    #[test]
    fn coverage_of_zero_hottest_is_zero() {
        let (_, p) = profile_of("proc main() begin int i; for i := 0 to 9 do write i; end");
        assert_eq!(p.coverage(0), 0.0);
    }

    #[test]
    fn coverage_saturates_at_program_length() {
        let (program, p) = profile_of("proc main() begin int i; for i := 0 to 9 do write i; end");
        // k == static length and any k beyond it cover all of execution.
        for k in [program.len(), program.len() + 1, program.len() * 10] {
            let c = p.coverage(k);
            assert!((c - 1.0).abs() < 1e-12, "coverage({k}) = {c}");
        }
    }

    #[test]
    fn empty_trace_has_zero_coverage() {
        let program =
            dir::compiler::compile(&hlr::compile("proc main() begin write 1; end").unwrap());
        let p = Profile::from_trace(&program, &[]);
        assert_eq!(p.total, 0);
        assert_eq!(p.touched(), 0);
        assert!(p.hottest(4).is_empty());
        for k in [0, 1, program.len()] {
            assert_eq!(p.coverage(k), 0.0, "coverage({k}) of empty trace");
        }
    }

    #[test]
    fn hottest_breaks_count_ties_by_ascending_index() {
        // Regression: `hottest` once depended on the (unstable) sort
        // order for equal counts, so tied instructions could come back
        // in any order and profile listings diffed across runs.
        let p = Profile {
            counts: vec![5, 7, 5, 7, 0, 5],
            total: 29,
        };
        assert_eq!(p.hottest(10), vec![(1, 7), (3, 7), (0, 5), (2, 5), (5, 5)]);
        // Truncation keeps the deterministic prefix.
        assert_eq!(p.hottest(3), vec![(1, 7), (3, 7), (0, 5)]);
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        // Property: on random traces, coverage never decreases as k grows,
        // and is bounded by [0, 1].
        let mut rng = hlr::rng::Rng::new(0x636f_7665);
        for case in 0..32 {
            let len = rng.range_usize(1, 40);
            let steps = rng.range_usize(0, 400);
            let mut counts = vec![0u64; len];
            for _ in 0..steps {
                counts[rng.range_usize(0, len)] += 1;
            }
            let p = Profile {
                counts,
                total: steps as u64,
            };
            let mut prev = 0.0f64;
            for k in 0..=len + 2 {
                let c = p.coverage(k);
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&c),
                    "case {case}: coverage({k}) = {c} out of range"
                );
                assert!(
                    c >= prev - 1e-12,
                    "case {case}: coverage({k}) = {c} < coverage({}) = {prev}",
                    k - 1
                );
                prev = c;
            }
        }
    }

    #[test]
    fn coverage_matches_dtb_upper_bound() {
        // The DTB's hit ratio can never exceed the coverage of its
        // capacity (perfect replacement bound).
        let program = dir::compiler::compile(&hlr::programs::QUEENS.compile().unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let profile = reference_profile(&program);
        for cap in [8usize, 32] {
            let r = machine
                .run(&Mode::Dtb(DtbConfig::with_capacity(cap)))
                .unwrap();
            let h = r.metrics.dtb.unwrap().hit_ratio();
            let bound = profile.coverage(cap);
            assert!(
                h <= bound + 1e-9,
                "cap {cap}: hit ratio {h} exceeds coverage bound {bound}"
            );
        }
    }
}
