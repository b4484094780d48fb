//! A bench binary's flags are strict: anything but its declared flags is
//! a usage error, exit 2, before any work runs.

use std::process::Command;

#[test]
fn an_unknown_flag_exits_2_with_a_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_representations"))
        .arg("--bogus")
        .output()
        .expect("bench binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(
        stderr.contains("usage: representations [--json]"),
        "{stderr}"
    );
}
