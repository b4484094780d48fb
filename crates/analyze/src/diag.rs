//! The typed diagnostic vocabulary of the analyze plane.
//!
//! Every finding carries a stable [`DiagCode`] (the contract tests and the
//! CLI key on), a fixed [`Severity`] derived from the code, an optional DIR
//! address, and the owning region's name. Codes are grouped by pass:
//! `AN1xx` codec validation, `AN2xx` abstract interpretation, `AN3xx` call
//! graph, `AN5xx` DTB pressure, `AN6xx` interprocedural dataflow. Only the
//! load proof's `AN1xx` and `AN2xx` codes carry [`Severity::Error`]. The
//! `AN4xx` block is retired: the cross-level stack balance it checked is a
//! property of the instruction set, proved by a test.

/// How bad a finding is. Only [`Severity::Error`] blocks verification;
/// warnings and notes ride along in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a property worth knowing, not a defect.
    Info,
    /// Suspicious but well-defined at run time.
    Warning,
    /// The image must not be loaded.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a diagnostic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagCode {
    /// A decoder-side table is structurally invalid (pass 1).
    CodecDefect,
    /// The image does not decode back to the program it claims to encode.
    ImageMismatch,
    /// The image stream fails to decode at all.
    ImageUndecodable,
    /// A path pops an empty operand stack.
    StackUnderflow,
    /// Two paths reach one instruction with different stack depths.
    StackImbalance,
    /// A `Return` executes at the wrong stack depth (operands leaked or
    /// the promised result missing), or appears in the prelude.
    ReturnImbalance,
    /// A branch target lies outside the code array.
    JumpOutOfRange,
    /// A branch target lands inside a different procedure's region.
    JumpCrossesProcedure,
    /// A local is read but never stored anywhere in its procedure.
    UninitializedLocal,
    /// A local may be read before the store that initializes it.
    MaybeUninitializedLocal,
    /// A frame or global slot operand exceeds its declared area.
    SlotOutOfRange,
    /// A path falls through the end of its region.
    FallsThroughRegion,
    /// A `Call` names a procedure index outside the table.
    BadCallee,
    /// A procedure is never reachable from the prelude.
    UnreachableProcedure,
    /// The call graph contains a cycle (recursion depth is unbounded
    /// statically; the dynamic depth limit still applies).
    RecursionDetected,
    /// The hottest loop's translation working set exceeds the default DTB.
    DtbPressure,
    /// Interval analysis proved a conditional branch is never taken.
    BranchNeverTaken,
    /// Interval analysis proved a conditional branch is always taken.
    BranchAlwaysTaken,
    /// Instructions no interprocedural path can reach.
    UnreachableCode,
}

impl DiagCode {
    /// Every diagnostic code, in id order. Tests iterate this to enforce
    /// the `ANxyz` grammar and id uniqueness; keep it in sync when adding
    /// codes (the exhaustive `match` in [`DiagCode::id`] makes the
    /// compiler flag a missing arm, and the count test flags a missing
    /// entry here).
    pub const ALL: [DiagCode; 19] = [
        DiagCode::CodecDefect,
        DiagCode::ImageMismatch,
        DiagCode::ImageUndecodable,
        DiagCode::StackUnderflow,
        DiagCode::StackImbalance,
        DiagCode::ReturnImbalance,
        DiagCode::JumpOutOfRange,
        DiagCode::JumpCrossesProcedure,
        DiagCode::UninitializedLocal,
        DiagCode::MaybeUninitializedLocal,
        DiagCode::SlotOutOfRange,
        DiagCode::FallsThroughRegion,
        DiagCode::BadCallee,
        DiagCode::UnreachableProcedure,
        DiagCode::RecursionDetected,
        DiagCode::DtbPressure,
        DiagCode::BranchNeverTaken,
        DiagCode::BranchAlwaysTaken,
        DiagCode::UnreachableCode,
    ];

    /// The stable `ANxxx` identifier.
    pub fn id(self) -> &'static str {
        match self {
            DiagCode::CodecDefect => "AN101",
            DiagCode::ImageMismatch => "AN102",
            DiagCode::ImageUndecodable => "AN103",
            DiagCode::StackUnderflow => "AN201",
            DiagCode::StackImbalance => "AN202",
            DiagCode::ReturnImbalance => "AN203",
            DiagCode::JumpOutOfRange => "AN204",
            DiagCode::JumpCrossesProcedure => "AN205",
            DiagCode::UninitializedLocal => "AN206",
            DiagCode::MaybeUninitializedLocal => "AN207",
            DiagCode::SlotOutOfRange => "AN208",
            DiagCode::FallsThroughRegion => "AN209",
            DiagCode::BadCallee => "AN210",
            DiagCode::UnreachableProcedure => "AN301",
            DiagCode::RecursionDetected => "AN302",
            DiagCode::DtbPressure => "AN501",
            DiagCode::BranchNeverTaken => "AN601",
            DiagCode::BranchAlwaysTaken => "AN602",
            DiagCode::UnreachableCode => "AN603",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::CodecDefect
            | DiagCode::ImageMismatch
            | DiagCode::ImageUndecodable
            | DiagCode::StackUnderflow
            | DiagCode::StackImbalance
            | DiagCode::ReturnImbalance
            | DiagCode::JumpOutOfRange
            | DiagCode::JumpCrossesProcedure
            | DiagCode::UninitializedLocal
            | DiagCode::SlotOutOfRange
            | DiagCode::FallsThroughRegion
            | DiagCode::BadCallee => Severity::Error,
            DiagCode::MaybeUninitializedLocal
            | DiagCode::UnreachableProcedure
            | DiagCode::DtbPressure
            | DiagCode::UnreachableCode => Severity::Warning,
            DiagCode::RecursionDetected
            | DiagCode::BranchNeverTaken
            | DiagCode::BranchAlwaysTaken => Severity::Info,
        }
    }
}

impl std::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding: a code, a source location in DIR address space, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The diagnostic class.
    pub code: DiagCode,
    /// DIR address the finding anchors to, when it has one.
    pub at: Option<u32>,
    /// Name of the owning region (`<prelude>` or the procedure name).
    pub region: Option<String>,
    /// What went wrong, with the concrete operands.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with no location.
    pub fn global(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            at: None,
            region: None,
            message: message.into(),
        }
    }

    /// Builds a diagnostic anchored to a DIR address inside a region.
    pub fn at(
        code: DiagCode,
        addr: u32,
        region: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            at: Some(addr),
            region: Some(region.into()),
            message: message.into(),
        }
    }

    /// The severity, fixed by the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl std::fmt::Display for Diagnostic {
    /// `error[AN201] main @14: operand stack underflow (depth 0, pops 2)`
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.code)?;
        if let Some(region) = &self.region {
            write!(f, " {region}")?;
        }
        if let Some(at) = self.at {
            write!(f, " @{at}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_have_unique_ids_and_fixed_severities() {
        let mut ids: Vec<&str> = DiagCode::ALL.iter().map(|c| c.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), DiagCode::ALL.len(), "duplicate diagnostic ids");
        assert_eq!(DiagCode::StackUnderflow.severity(), Severity::Error);
        assert_eq!(DiagCode::DtbPressure.severity(), Severity::Warning);
        assert_eq!(DiagCode::RecursionDetected.severity(), Severity::Info);
        assert_eq!(DiagCode::UnreachableCode.severity(), Severity::Warning);
        assert_eq!(DiagCode::BranchNeverTaken.severity(), Severity::Info);
    }

    /// `verify` runs only the load proof, so it accepts exactly what
    /// `analyze` calls clean only while no later pass can emit an error.
    #[test]
    fn only_load_proof_codes_are_errors() {
        for code in DiagCode::ALL {
            if code.severity() == Severity::Error {
                assert!(
                    code.id().starts_with("AN1") || code.id().starts_with("AN2"),
                    "{code}: an error outside the load proof"
                );
            }
        }
    }

    #[test]
    fn every_code_matches_the_anxyz_grammar() {
        for code in DiagCode::ALL {
            let id = code.id();
            assert_eq!(id.len(), 5, "{id}: ids are exactly AN + 3 digits");
            assert!(id.starts_with("AN"), "{id}: ids start with AN");
            let digits = &id[2..];
            assert!(
                digits.chars().all(|c| c.is_ascii_digit()),
                "{id}: suffix must be numeric"
            );
            // The leading digit names the owning pass family; a zero
            // would collide with nothing and means a typo.
            assert!(!digits.starts_with('0'), "{id}: pass digit must be nonzero");
        }
    }

    #[test]
    fn rendering_includes_code_location_and_message() {
        let d = Diagnostic::at(DiagCode::StackUnderflow, 14, "main", "pops 2 at depth 0");
        let s = d.to_string();
        assert!(s.contains("error[AN201]"));
        assert!(s.contains("main @14"));
        assert!(s.contains("pops 2"));
    }
}
