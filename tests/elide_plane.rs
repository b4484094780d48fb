//! Fact-plane integration test: the dataflow pass's per-site facts are
//! dynamically sound. The checked DIR executor, run as an auditor,
//! evaluates every guard the facts claim discharged and never sees one
//! fire over the sample corpus.

use dir::encode::SchemeKind;
use dir::exec::Limits;

fn sample_programs() -> Vec<(&'static str, dir::Program)> {
    hlr::programs::ALL
        .iter()
        .map(|s| {
            (
                s.name,
                dir::compiler::compile(&s.compile().expect("samples compile")),
            )
        })
        .collect()
}

/// Audit mode evaluates the guard at every discharged site: no guard
/// fires anywhere in the corpus, and the audited run equals the checked
/// run.
#[test]
fn audit_mode_finds_no_unsound_site() {
    for (name, program) in sample_programs() {
        let verified = analyze::verify(&program, SchemeKind::ByteAligned.encode(&program))
            .expect("corpus verifies clean");
        let checked = dir::exec::run_with(&program, Limits::default(), false);
        let (audited, verdict) =
            dir::exec::run_audit_with(&program, verified.facts(), Limits::default(), false);
        assert!(
            verdict.is_sound(),
            "{name}: discharged guards fired: {verdict:?}"
        );
        assert_eq!(audited, checked, "{name}: dir audit");
    }
}
