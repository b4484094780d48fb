//! The typed output of a whole-image analysis.

use crate::absint::RegionSummary;
use crate::callgraph::CallGraph;
use crate::dataflow::FactsReport;
use crate::diag::{Diagnostic, Severity};
use crate::pressure::PressureReport;
use crate::regionform::RegionCandidate;
use dir::facts::SiteFacts;
use telemetry::Json;

/// Everything the six passes found and proved about one image.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Scheme label of the analyzed image.
    pub scheme: String,
    /// Static instruction count.
    pub insts: usize,
    /// Per-region facts from the abstract interpreter, prelude first.
    pub regions: Vec<RegionSummary>,
    /// The static call graph and its derived facts.
    pub callgraph: CallGraph,
    /// The DTB pressure estimate.
    pub pressure: PressureReport,
    /// The per-site fact bitmap the dataflow pass discharged
    /// (empty when the load proof found errors).
    pub site_facts: SiteFacts,
    /// Fact coverage: site and discharge counts, per pass and per region.
    pub facts: FactsReport,
    /// Ranked hot-region (natural-loop) candidates with fact coverage.
    pub hot_regions: Vec<RegionCandidate>,
    /// Every finding, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// `true` when no finding is an error — the image may be verified.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// The image's row in a `Kind::Analyze` report's `images` section:
    /// identity, counts, the dataflow fact coverage, the ranked
    /// hot-region table, and every diagnostic with its stable code.
    pub fn to_json(&self, name: &str) -> Json {
        let facts = &self.facts;
        let facts = Json::obj(vec![
            ("div_sites", facts.div_sites.into()),
            ("div_proved", facts.div_proved.into()),
            ("idx_sites", facts.idx_sites.into()),
            ("idx_proved", facts.idx_proved.into()),
            ("depth_exact", facts.depth_exact.into()),
            ("branches_never", facts.branches_never.into()),
            ("branches_always", facts.branches_always.into()),
            ("unreachable_insts", facts.unreachable_insts.into()),
        ]);
        let hot_regions = self
            .hot_regions
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("region", c.region.as_str().into()),
                    ("start", c.start.into()),
                    ("end", c.end.into()),
                    ("depth", c.depth.into()),
                    ("insts", c.insts.into()),
                    ("sites", c.sites().into()),
                    ("proved", c.proved().into()),
                    ("discharge", c.discharge().into()),
                ])
            })
            .collect();
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("code", d.code.id().into()),
                    ("severity", d.severity().to_string().as_str().into()),
                    ("at", d.at.map_or(Json::Null, Json::from)),
                    ("region", d.region.as_deref().map_or(Json::Null, Json::from)),
                    ("message", d.message.as_str().into()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("name", name.into()),
            ("scheme", self.scheme.as_str().into()),
            ("clean", self.is_clean().into()),
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warning).into()),
            ("notes", self.count(Severity::Info).into()),
            ("facts", facts),
            ("hot_regions", Json::Arr(hot_regions)),
            ("diagnostics", Json::Arr(diagnostics)),
        ])
    }

    /// Renders the human-readable report the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        push(
            &mut out,
            format!(
                "analysis: {} scheme, {} instructions, {} regions",
                self.scheme,
                self.insts,
                self.regions.len()
            ),
        );
        // regions[0] is the prelude; regions[1 + i] is procs[i].
        for (i, r) in self.regions.iter().enumerate() {
            let mut extra = String::new();
            if let Some(pi) = i.checked_sub(1) {
                if self.callgraph.reachable.get(pi) == Some(&false) {
                    extra.push_str(", unreachable");
                }
                if self.callgraph.recursive.get(pi) == Some(&true) {
                    extra.push_str(", recursive");
                }
            }
            push(
                &mut out,
                format!(
                    "  {:<12} [{:>4}..{:>4}]  max stack {}{}",
                    r.name, r.start, r.end, r.max_stack, extra
                ),
            );
        }
        if let Some(chain) = self.callgraph.max_chain {
            push(&mut out, format!("call graph: max chain {chain} frames"));
        } else {
            push(
                &mut out,
                "call graph: recursive (static chain unbounded)".to_string(),
            );
        }
        if let Some(h) = &self.pressure.hot {
            push(
                &mut out,
                format!(
                    "dtb pressure: hottest {} {} [{}..{}] needs {} entries / {} words; \
                     recommend {}x{} ({}); total {} words",
                    if h.is_loop { "loop in" } else { "region" },
                    h.region,
                    h.start,
                    h.end,
                    h.insts,
                    h.words,
                    self.pressure.recommended.sets,
                    self.pressure.recommended.ways,
                    if self.pressure.fits_default {
                        "fits default"
                    } else {
                        "exceeds default"
                    },
                    self.pressure.total_words
                ),
            );
        }
        push(
            &mut out,
            format!(
                "facts: div {}/{} proved, idx {}/{} proved, {} depth-exact; \
                 {} never-taken, {} always-taken, {} unreachable",
                self.facts.div_proved,
                self.facts.div_sites,
                self.facts.idx_proved,
                self.facts.idx_sites,
                self.facts.depth_exact,
                self.facts.branches_never,
                self.facts.branches_always,
                self.facts.unreachable_insts
            ),
        );
        for (i, c) in self.hot_regions.iter().enumerate().take(8) {
            push(
                &mut out,
                format!(
                    "hot region #{}: {} [{}..{}] depth {}, {} insts, {}/{} sites proved",
                    i + 1,
                    c.region,
                    c.start,
                    c.end,
                    c.depth,
                    c.insts,
                    c.proved(),
                    c.sites()
                ),
            );
        }
        for d in &self.diagnostics {
            push(&mut out, d.to_string());
        }
        push(
            &mut out,
            format!(
                "verdict: {} ({} errors, {} warnings, {} notes)",
                if self.is_clean() { "clean" } else { "rejected" },
                self.count(Severity::Error),
                self.count(Severity::Warning),
                self.count(Severity::Info)
            ),
        );
        out
    }
}
