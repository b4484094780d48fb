//! The versioned, machine-readable report envelope.
//!
//! Every `--json` surface in the workspace — each `raul` subcommand and
//! each bench binary — emits exactly one [`Report`] line, so results are
//! diffable across PRs and scriptable with `jq`. One envelope serves
//! every kind of run; only the table of required sections
//! ([`Kind::required`]) differs per kind. The version applies to the
//! envelope: consumers check `schema_version` and `kind` and fail loudly
//! on mismatch instead of silently misreading renamed fields.
//!
//! The document is flat (version 8):
//!
//! ```json
//! {
//!   "schema_version": 8,
//!   "kind": "run",               // run | pool | analyze | profile | resilience | service
//!   "tool": "raul",
//!   "config": { ... },           // free-form: workload, mode, scheme, knobs
//!   "metrics": { ... },          // the sections, in emission order:
//!   "derived": { ... },          //   the kind's required ones, then any
//!   "windows": [ ... ]           //   optional ones (windows, output, ...)
//! }
//! ```

use crate::json::Json;

/// Version of the [`Report`] envelope. Bump on any rename, removal or
/// semantic change of an existing section or field; adding a section is
/// backward compatible and does not require a bump.
///
/// Version 8 replaced the six per-kind report families (versions 1, 2
/// and 4–7) with this envelope and its `kind` field; documents stamped
/// with any earlier version are rejected.
pub const SCHEMA_VERSION: i64 = 8;

/// What a [`Report`] describes; it decides the required sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One program on one machine (`raul run`, `raul faults`, the
    /// table/figure/gate bench bins).
    Run,
    /// A batch of tenants on a worker pool (`raul pool`, `raul chaos`).
    Pool,
    /// Load-time verification and analysis of encoded images
    /// (`raul analyze`, `analyze_gate`).
    Analyze,
    /// Cycle attribution of one run or a pool (`raul profile`).
    Profile,
    /// A chaos campaign's scenarios and invariant verdicts
    /// (`chaos_campaign`).
    Resilience,
    /// A request-serving latency trajectory (`raul serve`, `raul load`,
    /// `service_load`).
    Service,
}

impl Kind {
    /// The kind's `kind` field value.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Pool => "pool",
            Kind::Analyze => "analyze",
            Kind::Profile => "profile",
            Kind::Resilience => "resilience",
            Kind::Service => "service",
        }
    }

    /// The sections a report of this kind must carry. Every other
    /// section is optional.
    pub fn required(self) -> &'static [&'static str] {
        match self {
            Kind::Run => &["metrics", "derived"],
            Kind::Pool => &["tenants", "aggregate", "latency_ns"],
            Kind::Analyze => &["images", "aggregate"],
            Kind::Profile => &["profile", "aggregate"],
            Kind::Resilience => &["scenarios", "outcomes", "invariants"],
            Kind::Service => &["steps", "aggregate"],
        }
    }
}

/// The envelope keys every report carries ahead of its sections.
const HEADER: [&str; 4] = ["schema_version", "kind", "tool", "config"];

/// One machine-readable report: a kind, the emitting tool, its
/// configuration and an ordered list of named sections. Sections are
/// free-form JSON — the producing crate fills the canonical shape; this
/// type owns only versioning, the required-section check and
/// round-tripping.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// What the report describes.
    pub kind: Kind,
    /// The emitting tool, e.g. `"raul"` or `"dtb_design"`.
    pub tool: String,
    /// The configuration that produced the run (free-form object).
    pub config: Json,
    /// The named sections, in emission order.
    pub sections: Vec<(String, Json)>,
}

impl Report {
    /// Creates a report from its sections, in order.
    pub fn new<I>(kind: Kind, tool: &str, config: Json, sections: I) -> Report
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        let mut report = Report {
            kind,
            tool: tool.to_string(),
            config,
            sections: Vec::new(),
        };
        for (name, value) in sections {
            report.push(name, value);
        }
        report
    }

    /// Appends a section after the existing ones.
    pub fn push(&mut self, name: &str, value: Json) {
        debug_assert!(
            !HEADER.contains(&name) && self.section(name).is_none(),
            "duplicate report key {name}"
        );
        self.sections.push((name.to_string(), value));
    }

    /// The named section, if present.
    pub fn section(&self, name: &str) -> Option<&Json> {
        self.sections
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// The report as a JSON value (with `schema_version` and `kind`
    /// stamped in).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version".to_string(), Json::Int(SCHEMA_VERSION)),
            ("kind".to_string(), Json::from(self.kind.name())),
            ("tool".to_string(), Json::from(self.tool.as_str())),
            ("config".to_string(), self.config.clone()),
        ];
        pairs.extend(self.sections.iter().cloned());
        Json::Obj(pairs)
    }

    /// Serializes to one compact JSON line.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a report of the `expected` kind from JSON text.
    ///
    /// # Errors
    ///
    /// Propagates JSON syntax errors. Fails when `schema_version` is
    /// missing or not [`SCHEMA_VERSION`], when `kind` is not `expected`,
    /// or when `tool`, `config` or one of the kind's
    /// [required](Kind::required) sections is absent.
    pub fn parse(text: &str, expected: Kind) -> Result<Report, String> {
        let value = Json::parse(text)?;
        let Json::Obj(pairs) = &value else {
            return Err("report is not a JSON object".to_string());
        };
        let version = value
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing kind")?;
        if kind != expected.name() {
            return Err(format!("report kind {kind} (expected {})", expected.name()));
        }
        let tool = value
            .get("tool")
            .and_then(Json::as_str)
            .ok_or("missing tool")?;
        let config = value.get("config").cloned().ok_or("missing config")?;
        let sections: Vec<(String, Json)> = pairs
            .iter()
            .filter(|(k, _)| !HEADER.contains(&k.as_str()))
            .cloned()
            .collect();
        if let Some(name) = expected
            .required()
            .iter()
            .find(|&&name| !sections.iter().any(|(k, _)| k == name))
        {
            return Err(format!("missing {name} section"));
        }
        Ok(Report {
            kind: expected,
            tool: tool.to_string(),
            config,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Kind; 6] = [
        Kind::Run,
        Kind::Pool,
        Kind::Analyze,
        Kind::Profile,
        Kind::Resilience,
        Kind::Service,
    ];

    /// Optional sections, deliberately out of alphabetical order.
    const OPTIONAL: [&str; 5] = ["windows", "output", "trace_health", "slo", "pool"];

    /// A report of `kind` carrying its required sections (each tagged
    /// with its name) followed by every optional section.
    fn sample(kind: Kind) -> Report {
        let mut r = Report::new(
            kind,
            "envelope_test",
            Json::obj([("workers", Json::from(4i64))]),
            [],
        );
        for name in kind.required().iter().chain(&OPTIONAL) {
            r.push(name, Json::obj([("section", Json::from(*name))]));
        }
        r
    }

    /// `sample(kind)` as JSON with `edit` applied to its top-level pairs.
    fn doctored(kind: Kind, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> Json {
        let mut j = sample(kind).to_json();
        let Json::Obj(pairs) = &mut j else {
            unreachable!()
        };
        edit(pairs);
        j
    }

    #[test]
    fn one_envelope_round_trips_and_rejects_every_mismatch() {
        // For each kind: round trip; rejection of every older version, of
        // a missing version, under each other kind and without each
        // required section; acceptance without any optional section.
        for kind in KINDS {
            // Text round-trip, sections in emission order.
            let r = sample(kind);
            let back = Report::parse(&r.render(), kind).unwrap();
            assert_eq!(back, r);
            let names: Vec<&str> = back.sections.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = kind.required().iter().chain(&OPTIONAL).copied().collect();
            assert_eq!(names, want, "{kind:?}");
            let j = r.to_json();
            assert_eq!(j.get("schema_version").and_then(Json::as_i64), Some(8));
            assert_eq!(j.get("kind").and_then(Json::as_str), Some(kind.name()));

            // Every earlier schema version, and none at all.
            for old in 1..SCHEMA_VERSION {
                let j = doctored(kind, |p| p[0].1 = Json::Int(old));
                let err = Report::parse(&j.render(), kind).unwrap_err();
                assert!(err.contains(&format!("schema_version {old}")), "{err}");
            }
            let j = doctored(kind, |p| p.retain(|(k, _)| k != "schema_version"));
            let err = Report::parse(&j.render(), kind).unwrap_err();
            assert_eq!(err, "missing schema_version");

            // Under each of the other five expected kinds.
            for other in KINDS.into_iter().filter(|&o| o != kind) {
                let err = Report::parse(&r.render(), other).unwrap_err();
                assert!(err.contains(&format!("kind {}", kind.name())), "{err}");
            }

            // Without each required section.
            for name in kind.required() {
                let j = doctored(kind, |p| p.retain(|(k, _)| k != name));
                let err = Report::parse(&j.render(), kind).unwrap_err();
                assert_eq!(err, format!("missing {name} section"));
            }

            // Without any optional section.
            let j = doctored(kind, |p| p.retain(|(k, _)| !OPTIONAL.contains(&k.as_str())));
            let back = Report::parse(&j.render(), kind).unwrap();
            assert_eq!(back.sections.len(), kind.required().len());
            assert_eq!(back.section("windows"), None);
        }
        assert!(Report::parse("{}", Kind::Run).is_err());
        assert!(Report::parse("not json", Kind::Run).is_err());
        assert!(Report::parse("[8]", Kind::Run).is_err());
    }
}
