//! The gate harness every bench binary shares: one strict flag parser
//! and one [`Gate`] that checks a run against its committed baseline.
//!
//! Every binary takes `--json` (stdout carries the versioned report
//! instead of the text table); any other flag is a usage error, exit 2.
//! A gate binary runs its full campaign once, prints its report or
//! table, and ends with [`Gate::finish`]: the violations and one
//! `<tool> gate PASS|FAIL` verdict on stderr, and the exit code. The
//! verdict never depends on the output format.

use std::process::ExitCode;

use telemetry::Json;

/// The flags a bench binary was invoked with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Args {
    /// `--json`: stdout carries the report instead of the text table.
    pub json: bool,
    /// `--baseline` (`service_load` only): stdout carries the baseline
    /// file's contents.
    pub baseline: bool,
}

/// Parses `args` (without the program name); `extra` as for [`args`].
fn parse(args: impl IntoIterator<Item = String>, extra: &[&str]) -> Result<Args, String> {
    let mut parsed = Args::default();
    for arg in args {
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--baseline" if extra.contains(&"--baseline") => parsed.baseline = true,
            "--bench" if extra.contains(&"--bench") => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The process arguments of bench binary `tool`: `--json`, plus the
/// flags in `extra` (`--baseline`, or the `--bench` that `cargo bench`
/// passes to every bench target, which changes nothing). Any other
/// argument prints the error and a usage line and exits 2.
pub fn args(tool: &str, extra: &[&str]) -> Args {
    parse(std::env::args().skip(1), extra).unwrap_or_else(|e| {
        let flags: String = extra.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("{tool}: {e}\nusage: {tool} [--json]{flags}");
        std::process::exit(2)
    })
}

/// Collects one run's violations against its committed baseline.
#[derive(Debug)]
pub struct Gate {
    tool: &'static str,
    baseline: Json,
    violations: Vec<String>,
}

impl Gate {
    /// A gate for `tool` over the committed `baseline` text. An
    /// unparsable baseline is a violation, and every later lookup in it
    /// fails as a missing key.
    pub fn new(tool: &'static str, baseline: &str) -> Gate {
        let mut gate = Gate::without_baseline(tool);
        match Json::parse(baseline.trim()) {
            Ok(json) => gate.baseline = json,
            Err(e) => gate.violations.push(format!("baseline unreadable: {e}")),
        }
        gate
    }

    /// A gate for `tool` that checks invariants and bounds only.
    pub fn without_baseline(tool: &'static str) -> Gate {
        Gate {
            tool,
            baseline: Json::Null,
            violations: Vec::new(),
        }
    }

    /// The baseline value at `path`, a violation when it is missing or
    /// not a number.
    pub fn number(&mut self, path: &[&str]) -> Option<f64> {
        let value = self.lookup(path).and_then(Json::as_f64);
        if value.is_none() {
            self.violations.push(format!(
                "baseline {} is missing or not a number",
                path.join(".")
            ));
        }
        value
    }

    /// `got` must equal the baseline value at `path` exactly.
    pub fn exact(&mut self, path: &[&str], got: &Json) {
        let want = self.lookup(path).cloned().unwrap_or(Json::Null);
        if &want != got {
            self.violations.push(format!(
                "{} deviates from the baseline\n    expected: {}\n    got:      {}",
                path.join("."),
                want.render(),
                got.render()
            ));
        }
    }

    /// Each measured value must reach its floor, the baseline number at
    /// `path` followed by the value's key.
    pub fn floors(&mut self, path: &[&str], measured: &[(&str, f64)]) {
        for &(key, value) in measured {
            let full: Vec<&str> = path.iter().copied().chain([key]).collect();
            self.at_least(&full, value, 1.0);
        }
    }

    /// `got` must reach `tolerance` times the baseline number at `path`.
    pub fn at_least(&mut self, path: &[&str], got: f64, tolerance: f64) {
        if let Some(want) = self.number(path) {
            self.require(
                got >= want * tolerance,
                format!(
                    "{} = {got} is below {tolerance} x the baseline {want}",
                    path.join(".")
                ),
            );
        }
    }

    /// An invariant, SLO or bound: `msg` is the violation when `cond`
    /// fails.
    pub fn require(&mut self, cond: bool, msg: impl Into<String>) {
        if !cond {
            self.violations.push(msg.into());
        }
    }

    /// The violations collected so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True while no check has failed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints the violations and the verdict on stderr and returns the
    /// exit code: success exactly when no check failed.
    pub fn finish(self) -> ExitCode {
        for v in &self.violations {
            eprintln!("  {v}");
        }
        if self.passed() {
            eprintln!("{} gate PASS", self.tool);
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "{} gate FAIL: {} violation(s)",
                self.tool,
                self.violations.len()
            );
            ExitCode::FAILURE
        }
    }

    fn lookup(&self, path: &[&str]) -> Option<&Json> {
        path.iter()
            .try_fold(&self.baseline, |json, key| json.get(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str], extra: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(ToString::to_string), extra)
    }

    #[test]
    fn parser_takes_json_and_the_declared_extras_only() {
        assert_eq!(parsed(&[], &[]), Ok(Args::default()));
        assert!(parsed(&["--json"], &[]).unwrap().json);
        let both = parsed(&["--baseline", "--json"], &["--baseline"]).unwrap();
        assert!(both.json && both.baseline);
        assert!(parsed(&["--baseline"], &[]).is_err());
        assert_eq!(parsed(&["--bench"], &["--bench"]), Ok(Args::default()));
    }

    #[test]
    fn parser_rejects_unknown_and_misspelled_flags() {
        for bad in ["--smok", "--jsn", "--json=1", "json", "-j", "--bench"] {
            let err = parsed(&["--json", bad], &["--baseline"]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn a_clean_gate_passes() {
        let mut gate = Gate::new("t", r#"{"a": {"b": 2}, "f": 1.5, "s": {"x": 2.0}}"#);
        gate.require(true, "never");
        gate.exact(&["a"], &Json::obj(vec![("b", 2i64.into())]));
        gate.floors(&[], &[("f", 1.5)]);
        gate.at_least(&["s", "x"], 1.6, 0.8);
        assert!(gate.passed(), "{:?}", gate.violations());
        assert_eq!(gate.finish(), ExitCode::SUCCESS);
    }

    #[test]
    fn each_failed_check_fails_the_gate() {
        let baseline = r#"{"table": [1, 2], "floor": 10, "speedup": 2.0}"#;
        let checks: [fn(&mut Gate); 4] = [
            |g| g.require(false, "an invariant broke"),
            |g| g.exact(&["table"], &Json::Arr(vec![1i64.into(), 3i64.into()])),
            |g| g.floors(&[], &[("floor", 9.0)]),
            |g| g.at_least(&["speedup"], 1.5, 0.8),
        ];
        for check in checks {
            let mut gate = Gate::new("t", baseline);
            check(&mut gate);
            assert_eq!(gate.violations().len(), 1, "{:?}", gate.violations());
            assert_eq!(gate.finish(), ExitCode::FAILURE);
        }
    }

    #[test]
    fn floor_check_flags_regressions_only() {
        let mut gate = Gate::new("t", r#"{"coverage": {"programs": 5, "opcodes": 100}}"#);
        gate.floors(&["coverage"], &[("programs", 10.0), ("opcodes", 17.0)]);
        assert_eq!(gate.violations().len(), 1, "{:?}", gate.violations());
        assert!(gate.violations()[0].contains("opcodes = 17"));
    }

    #[test]
    fn a_missing_or_non_numeric_floor_is_a_violation() {
        let mut gate = Gate::new("t", r#"{"div_ratio": 0.95, "idx_proved": "many"}"#);
        gate.floors(
            &[],
            &[
                ("div_ratio", 0.9),
                ("idx_proved", 9.0),
                ("depth_exact", 9.0),
            ],
        );
        let v = gate.violations();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("div_ratio = 0.9 is below"), "{v:?}");
        assert!(v[1].contains("idx_proved is missing or not a number"));
        assert!(v[2].contains("depth_exact is missing or not a number"));
        let mut ok = Gate::new("t", r#"{"div_ratio": 0.95}"#);
        ok.floors(&[], &[("div_ratio", 0.95)]);
        assert!(ok.passed());
    }

    #[test]
    fn an_unparsable_baseline_is_a_violation_not_a_panic() {
        let mut gate = Gate::new("t", "{\"speedup\": ");
        assert_eq!(gate.violations().len(), 1);
        assert!(gate.violations()[0].contains("baseline unreadable"));
        assert_eq!(gate.number(&["speedup", "byte"]), None);
        gate.at_least(&["speedup", "byte"], 9.0, 0.8);
        assert_eq!(gate.violations().len(), 3, "{:?}", gate.violations());
        assert_eq!(gate.finish(), ExitCode::FAILURE);
    }
}
