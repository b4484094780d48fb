//! Flamegraph export: collapsed call stacks from the retire stream.
//!
//! [`FlameBuilder`] folds the reconstructed procedure call stack (see
//! [`crate::map::CallStack`]) over a run, attributing each
//! retire's modeled cycles to the full stack it executed under. The
//! result renders in the standard *collapsed stack* format consumed by
//! `flamegraph.pl`, `inferno` and speedscope: one line per distinct
//! stack, frames joined by `;` root-first, followed by the sample weight
//! (here: modeled cycles).

use std::collections::BTreeMap;

use dir::program::Program;
use telemetry::{Event, TraceSink};

use crate::map::{CallStack, ProcMap};

/// A [`TraceSink`] accumulating collapsed stacks.
#[derive(Debug)]
pub struct FlameBuilder {
    map: ProcMap,
    stack: CallStack,
    // BTreeMap keys are the stacks themselves, so iteration (and thus
    // the collapsed output) is deterministic without a final sort.
    weights: BTreeMap<Vec<usize>, u64>,
    total_cycles: u64,
}

impl FlameBuilder {
    /// Creates a builder for one program.
    pub fn new(program: &Program) -> FlameBuilder {
        FlameBuilder {
            map: ProcMap::new(program),
            stack: CallStack::new(),
            weights: BTreeMap::new(),
            total_cycles: 0,
        }
    }

    /// Total modeled cycles attributed across all stacks.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Number of distinct stacks observed.
    pub fn stacks(&self) -> usize {
        self.weights.len()
    }

    /// Renders the collapsed-stack text: one `frame;frame;... weight`
    /// line per distinct stack, in deterministic (lexicographic stack)
    /// order. Feed directly to `flamegraph.pl` or paste into speedscope.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, weight) in &self.weights {
            let mut first = true;
            for &region in stack {
                if !first {
                    out.push(';');
                }
                out.push_str(self.map.name(region));
                first = false;
            }
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for FlameBuilder {
    // Observation only — never enable the shadow miss classifier.
    const CLASSIFY_MISSES: bool = false;

    fn emit(&mut self, event: Event) {
        if let Event::Retire { addr, cycles, .. } = event {
            self.stack.step(self.map.region_of(addr));
            let cycles = u64::from(cycles);
            self.total_cycles += cycles;
            *self
                .weights
                .entry(self.stack.frames().to_vec())
                .or_insert(0) += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;
    use uhm::{Machine, Mode, RunOptions};

    const CALLS: &str = "proc leaf(int n) -> int begin return n + 1; end
        proc mid(int n) -> int begin return leaf(n) * 2; end
        proc main() begin
            int i; int s := 0;
            for i := 0 to 9 do s := s + mid(i);
            write s;
        end";

    fn flame_of(src: &str) -> (FlameBuilder, uhm::Report) {
        let program = dir::compiler::compile(&hlr::compile(src).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut flame = FlameBuilder::new(&program);
        let report = machine
            .run_with(&Mode::Interpreter, &mut flame, RunOptions::default())
            .unwrap();
        (flame, report)
    }

    #[test]
    fn weights_partition_the_cycle_total() {
        let (flame, report) = flame_of(CALLS);
        assert_eq!(flame.total_cycles(), report.metrics.cycles.total());
        let sum: u64 = flame.weights.values().sum();
        assert_eq!(sum, flame.total_cycles());
    }

    #[test]
    fn collapsed_lines_nest_root_first() {
        let (flame, _) = flame_of(CALLS);
        let text = flame.collapsed();
        // The deep chain appears with the prelude as root.
        assert!(
            text.lines()
                .any(|l| l.starts_with("<prelude>;main;mid;leaf ")),
            "missing nested stack in:\n{text}"
        );
        // Every line is `frames weight` with a positive integer weight.
        for line in text.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            assert!(weight.parse::<u64>().unwrap() > 0);
        }
    }

    #[test]
    fn output_is_deterministic() {
        let (a, _) = flame_of(CALLS);
        let (b, _) = flame_of(CALLS);
        assert_eq!(a.collapsed(), b.collapsed());
        assert!(a.stacks() >= 3, "expected at least 3 distinct stacks");
    }
}
