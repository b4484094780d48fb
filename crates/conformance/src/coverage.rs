//! Coverage accounting over the generated-program space.
//!
//! The hand-written sample corpus exercises a fixed, known slice of the
//! opcode/pair/trap space; the conformance sweep's value is exactly the
//! part it covers *beyond* that. This module measures what a batch of
//! cases actually touched — opcodes (static and dynamic), static opcode
//! pairs, encoding schemes, DTB execution tiers, DTB miss classes and
//! trap classes — so the sweep can gate on "coverage never shrinks"
//! instead of hoping the generator stays diverse.

use std::collections::BTreeSet;

use dir::isa::{Opcode, OPCODE_COUNT};
use dir::program::Program;
use telemetry::Json;
use uhm::DtbStats;

/// Accumulated coverage over any number of conformance cases.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Opcodes present in at least one compiled program.
    pub static_opcodes: BTreeSet<Opcode>,
    /// Opcodes dynamically retired at least once.
    pub dynamic_opcodes: BTreeSet<Opcode>,
    /// Adjacent static opcode pairs (the symbols of the pair encodings).
    pub opcode_pairs: BTreeSet<(Opcode, Opcode)>,
    /// Encoding schemes a case ran under.
    pub schemes: BTreeSet<&'static str>,
    /// Execution tiers exercised (`interp` for instructions INTERP
    /// decoded inline, `psder` once a DTB-resident translation was
    /// dispatched).
    pub tiers: BTreeSet<&'static str>,
    /// DTB miss classes observed (`cold` / `capacity` / `conflict`).
    pub miss_classes: BTreeSet<&'static str>,
    /// Trap classes raised and cross-checked (`div_by_zero`, ...).
    pub trap_classes: BTreeSet<&'static str>,
    /// Distinct generated programs accounted.
    pub programs: u64,
    /// Oracle cases accounted (one program may contribute several).
    pub cases: u64,
    /// Dynamic DIR instructions retired by the reference DIR executor.
    pub dyn_instructions: u64,
}

impl Coverage {
    /// A fresh, empty accumulator.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Records the static shape of one compiled program: opcodes and
    /// adjacent opcode pairs.
    pub fn record_static(&mut self, program: &Program) {
        let mut prev: Option<Opcode> = None;
        for inst in &program.code {
            let op = inst.opcode();
            self.static_opcodes.insert(op);
            if let Some(p) = prev {
                self.opcode_pairs.insert((p, op));
            }
            prev = Some(op);
        }
    }

    /// Records dynamic opcode counts from a reference execution.
    pub fn record_dynamic(&mut self, counts: &[u64; OPCODE_COUNT]) {
        for (op, &n) in dir::isa::OPCODES.iter().zip(counts) {
            if n > 0 {
                self.dynamic_opcodes.insert(*op);
            }
        }
    }

    /// Records the miss-class taxonomy of one classified DTB run.
    pub fn record_miss_classes(&mut self, stats: &DtbStats) {
        if stats.cold_misses > 0 {
            self.miss_classes.insert("cold");
        }
        if stats.capacity_misses > 0 {
            self.miss_classes.insert("capacity");
        }
        if stats.conflict_misses > 0 {
            self.miss_classes.insert("conflict");
        }
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.static_opcodes
            .extend(other.static_opcodes.iter().copied());
        self.dynamic_opcodes
            .extend(other.dynamic_opcodes.iter().copied());
        self.opcode_pairs.extend(other.opcode_pairs.iter().copied());
        self.schemes.extend(other.schemes.iter().copied());
        self.tiers.extend(other.tiers.iter().copied());
        self.miss_classes.extend(other.miss_classes.iter().copied());
        self.trap_classes.extend(other.trap_classes.iter().copied());
        self.programs += other.programs;
        self.cases += other.cases;
        self.dyn_instructions += other.dyn_instructions;
    }

    /// The canonical JSON section: summary counts plus the exact sets,
    /// so a coverage diff between two sweeps is a line diff.
    pub fn to_json(&self) -> Json {
        let ops = |set: &BTreeSet<Opcode>| {
            Json::Arr(set.iter().map(|o| format!("{o:?}").into()).collect())
        };
        let strs =
            |set: &BTreeSet<&'static str>| Json::Arr(set.iter().map(|s| Json::from(*s)).collect());
        Json::obj(vec![
            ("programs", self.programs.into()),
            ("cases", self.cases.into()),
            ("dyn_instructions", self.dyn_instructions.into()),
            ("static_opcodes", (self.static_opcodes.len() as u64).into()),
            (
                "dynamic_opcodes",
                (self.dynamic_opcodes.len() as u64).into(),
            ),
            ("opcode_pairs", (self.opcode_pairs.len() as u64).into()),
            ("schemes", (self.schemes.len() as u64).into()),
            ("tiers", (self.tiers.len() as u64).into()),
            ("miss_classes", (self.miss_classes.len() as u64).into()),
            ("trap_classes", (self.trap_classes.len() as u64).into()),
            ("static_opcode_set", ops(&self.static_opcodes)),
            ("dynamic_opcode_set", ops(&self.dynamic_opcodes)),
            ("scheme_set", strs(&self.schemes)),
            ("tier_set", strs(&self.tiers)),
            ("miss_class_set", strs(&self.miss_classes)),
            ("trap_class_set", strs(&self.trap_classes)),
        ])
    }

    /// The eight gated dimensions, keyed as in the `coverage` floor of
    /// `baselines/conformance_sweep.json`: the program count and the size
    /// of each coverage set.
    pub fn dimensions(&self) -> [(&'static str, f64); 8] {
        [
            ("programs", self.programs as f64),
            ("static_opcodes", self.static_opcodes.len() as f64),
            ("dynamic_opcodes", self.dynamic_opcodes.len() as f64),
            ("opcode_pairs", self.opcode_pairs.len() as f64),
            ("schemes", self.schemes.len() as f64),
            ("tiers", self.tiers.len() as f64),
            ("miss_classes", self.miss_classes.len() as f64),
            ("trap_classes", self.trap_classes.len() as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let hir = hlr::compile("proc main() begin int i; for i := 0 to 9 do write i * 2; end")
            .expect("sample compiles");
        dir::compiler::compile(&hir)
    }

    #[test]
    fn static_accounting_sees_opcodes_and_pairs() {
        let mut cov = Coverage::new();
        cov.record_static(&sample());
        assert!(cov.static_opcodes.contains(&Opcode::Write));
        assert!(!cov.static_opcodes.is_empty());
        // A program of n instructions has at most n-1 distinct pairs.
        assert!(cov.opcode_pairs.len() < sample().code.len());
    }

    #[test]
    fn merge_is_a_union() {
        let mut a = Coverage::new();
        a.record_static(&sample());
        a.programs = 1;
        let mut b = Coverage::new();
        b.trap_classes.insert("div_by_zero");
        b.programs = 2;
        a.merge(&b);
        assert_eq!(a.programs, 3);
        assert!(a.trap_classes.contains("div_by_zero"));
        assert!(a.static_opcodes.contains(&Opcode::Write));
    }

    #[test]
    fn dimensions_count_the_sets() {
        let mut cov = Coverage::new();
        cov.record_static(&sample());
        cov.programs = 10;
        let dims = cov.dimensions();
        assert_eq!(dims[0], ("programs", 10.0));
        assert_eq!(dims[1], ("static_opcodes", cov.static_opcodes.len() as f64));
        assert!(dims[4..].iter().all(|&(_, n)| n == 0.0));
    }

    #[test]
    fn json_round_trips() {
        let mut cov = Coverage::new();
        cov.record_static(&sample());
        cov.schemes.insert("huffman");
        let text = cov.to_json().render();
        let back = Json::parse(&text).expect("coverage json parses");
        assert_eq!(back.get("schemes").and_then(Json::as_i64), Some(1));
    }
}
