//! Bug candidates and final reports.

use crate::checkers::BugKind;
use crate::json::quote_into;
use pata_ir::{Category, FuncId, InstId, Module};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A possible bug produced by stage 1 (typestate tracking without path
/// validation, §3.2). Stage 2 deduplicates and validates these. The
/// session's record of a root ([`crate::persist`]) keeps its candidates
/// as they are.
#[derive(Debug, Clone, PartialEq)]
pub struct PossibleBug {
    /// Bug type.
    pub kind: BugKind,
    /// The instruction that established the offending state (e.g. the
    /// null check); a dedup key component.
    pub origin_id: InstId,
    /// The instruction where the bug manifests (e.g. the dereference); a
    /// dedup key component.
    pub site_id: InstId,
    /// The path constraints collected up to the manifestation site
    /// (Table 3 translation with one symbol per alias set).
    pub constraints: Arc<[pata_smt::Constraint]>,
    /// Additional bug-condition constraints (e.g. `divisor == 0`).
    pub extra: Arc<[pata_smt::Constraint]>,
    /// Access paths of the offending alias set, rendered in the paper's
    /// `func:var` notation (Fig. 7) — what makes reports "readable".
    pub alias_paths: Arc<[String]>,
    /// The analysis root (module interface function) whose exploration
    /// found the bug.
    pub root: FuncId,
}

impl PossibleBug {
    /// The deduplication key of §4 P3: two candidates with identical
    /// problematic instructions are the same bug via different paths.
    pub fn dedup_key(&self) -> (BugKind, InstId, InstId) {
        (self.kind, self.origin_id, self.site_id)
    }
}

/// A validated, human-readable bug report (the paper's final output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugReport {
    /// Bug type.
    pub kind: BugKind,
    /// Source file of the manifestation site.
    pub file: String,
    /// Function containing the manifestation site.
    pub function: String,
    /// Line where the offending state was established.
    pub origin_line: u32,
    /// Line where the bug manifests.
    pub site_line: u32,
    /// OS part (drivers / subsystem / third-party …) for Fig. 11.
    pub category: Category,
    /// Access paths of the offending alias set (`func:var` notation).
    pub alias_paths: Vec<String>,
    /// One-line description.
    pub message: String,
}

impl BugReport {
    /// Builds a report from a validated candidate, reading both lines
    /// from `module` ([`Module::loc_of`]).
    pub fn from_possible(bug: &PossibleBug, module: &Module) -> Self {
        let func = module.function(bug.site_id.func);
        let lines = [
            module.loc_of(bug.origin_id).line,
            module.loc_of(bug.site_id).line,
        ];
        let file = &module.file(func.file()).name;
        Self::from_parts(bug, func.name(), file, func.category(), lines)
    }

    /// Builds a report from a validated candidate whose site lies in the
    /// function `function` of the file `file`, with the origin and site
    /// `lines`: what a session that serves a request from its store's
    /// records knows of a finding without a module.
    pub(crate) fn from_parts(
        bug: &PossibleBug,
        function: &str,
        file: &str,
        category: Category,
        [origin_line, site_line]: [u32; 2],
    ) -> Self {
        let kind = bug.kind;
        let alias_note = if bug.alias_paths.is_empty() {
            String::new()
        } else {
            format!(" [alias set: {}]", bug.alias_paths.join(", "))
        };
        let message = format!(
            "{} in `{}`: state established at line {} triggers at line {}{}",
            kind.describe(),
            function,
            origin_line,
            site_line,
            alias_note
        );
        BugReport {
            kind,
            file: file.to_owned(),
            function: function.to_owned(),
            origin_line,
            site_line,
            category,
            alias_paths: bug.alias_paths.to_vec(),
            message,
        }
    }
}

impl BugReport {
    /// Appends this report's object of the [`Report`] wire format: the
    /// one per-finding writer of [`Report::to_json`] and the serve path.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"kind\": ");
        quote_into(out, self.kind.as_str());
        out.push_str(", \"file\": ");
        quote_into(out, &self.file);
        out.push_str(", \"function\": ");
        quote_into(out, &self.function);
        let _ = write!(
            out,
            ", \"origin_line\": {}, \"site_line\": {}, \"category\": ",
            self.origin_line, self.site_line
        );
        quote_into(out, self.category.as_str());
        out.push_str(", \"alias_paths\": [");
        for (j, p) in self.alias_paths.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            quote_into(out, p);
        }
        out.push_str("], \"message\": ");
        quote_into(out, &self.message);
        out.push('}');
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{} ({}) — {}",
            self.kind.as_str(),
            self.file,
            self.site_line,
            self.function,
            self.message
        )
    }
}

/// Version of the `degraded` report section. Versioned independently of
/// [`REPORT_SCHEMA_VERSION`]: the section was added as an optional envelope
/// field (no outer schema bump), so it carries its own version gate for
/// future shape changes.
pub const DEGRADED_SECTION_VERSION: u64 = 1;

/// One root the analysis could not fully complete: quarantined after a
/// panic, or demoted to a bounded re-run after tripping a resource budget
/// (DESIGN.md "Fault containment & degraded reports").
///
/// Entries are sorted by `(root, stage)` before serialization so degraded
/// reports stay byte-identical across thread counts and cache
/// configurations for the same failure set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DegradedRoot {
    /// Name of the affected root (module interface function).
    pub root: String,
    /// Pipeline stage where the fault hit: `"explore"`, `"validate"`, or
    /// `"session"`.
    pub stage: String,
    /// Why the root degraded: the panic payload for quarantines, or the
    /// tripped budget (`"deadline"` / `"live_bytes"`) for demotions.
    pub reason: String,
    /// What the pipeline did: `"quarantined"` (root skipped, its verdicts
    /// absent from this report) or `"demoted"` (verdicts come from a
    /// bounded re-run).
    pub action: String,
}

/// Version of the JSON report schema produced by [`Report::to_json`].
///
/// Bump this when a field is renamed, removed, or changes meaning; adding
/// new optional fields does not require a bump. [`Report::from_json`]
/// rejects documents with a different version rather than guessing.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Error from [`Report::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The document is not well-formed JSON.
    Json(crate::json::JsonError),
    /// The document is valid JSON but does not match the report schema
    /// (wrong version, missing field, wrong type, unknown slug).
    Schema(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "invalid JSON: {e}"),
            ReportError::Schema(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// A versioned collection of bug reports — the stable machine-readable
/// output of an analysis run (`pata analyze --json`, `--out`).
///
/// The wire format is:
///
/// ```json
/// {
///   "schema_version": 1,
///   "reports": [
///     {
///       "kind": "null-pointer-dereference",
///       "file": "drv.c",
///       "function": "probe",
///       "origin_line": 10,
///       "site_line": 14,
///       "category": "drivers",
///       "alias_paths": ["probe:p", "probe:q"],
///       "message": "..."
///     }
///   ]
/// }
/// ```
///
/// `kind` uses [`BugKind::as_str`] slugs and `category` uses
/// [`Category::as_str`] labels. [`Report::from_json`] round-trips
/// [`Report::to_json`] exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The schema version the document was written with.
    pub schema_version: u64,
    /// The bug reports, in analysis order.
    pub reports: Vec<BugReport>,
    /// Roots whose exploration was budget-truncated (an *optional* envelope
    /// field: emitted only when non-empty, absent on parse means empty, no
    /// schema bump — truncation detail qualifies the verdicts but does not
    /// change their format).
    pub budget_notes: Vec<crate::stats::BudgetNote>,
    /// Roots quarantined or demoted by the fault-containment layer (an
    /// optional envelope field like `budget_notes`: emitted only when
    /// non-empty under its own [`DEGRADED_SECTION_VERSION`], absent on
    /// parse means no root degraded).
    pub degraded: Vec<DegradedRoot>,
}

impl Report {
    /// Wraps `reports` with the current [`REPORT_SCHEMA_VERSION`].
    pub fn new(reports: Vec<BugReport>) -> Self {
        Report {
            schema_version: REPORT_SCHEMA_VERSION,
            reports,
            budget_notes: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// Attaches per-root budget-exhaustion notes to the envelope.
    pub fn with_budget_notes(mut self, notes: Vec<crate::stats::BudgetNote>) -> Self {
        self.budget_notes = notes;
        self
    }

    /// Attaches degraded-root entries to the envelope, sorted by
    /// `(root, stage)` so the serialization is deterministic regardless of
    /// the order faults were observed in. Identical entries collapse to
    /// one (an unlabeled `validate` fault can hit several candidate groups
    /// of the same root and would otherwise repeat verbatim).
    pub fn with_degraded(mut self, degraded: Vec<DegradedRoot>) -> Self {
        self.degraded = sorted_degraded(degraded);
        self
    }

    /// Serializes to the versioned JSON wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_report(
            &mut out,
            self.schema_version,
            &self.reports,
            |out, r| r.write_json(out),
            &self.budget_notes,
            &self.degraded,
        );
        out
    }

    /// Parses a document produced by [`Report::to_json`]. Fails on
    /// malformed JSON, a schema-version mismatch, or missing/mistyped
    /// fields — silent best-effort decoding would defeat the version gate.
    pub fn from_json(text: &str) -> Result<Report, ReportError> {
        use crate::json::JsonValue;
        let doc = JsonValue::parse(text).map_err(ReportError::Json)?;
        let schema = |m: &str| ReportError::Schema(m.to_string());
        let version = doc
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema("missing schema_version"))?;
        if version != REPORT_SCHEMA_VERSION {
            return Err(ReportError::Schema(format!(
                "unsupported schema_version {version} (expected {REPORT_SCHEMA_VERSION})"
            )));
        }
        let items = doc
            .get("reports")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| schema("missing reports array"))?;
        let mut reports = Vec::with_capacity(items.len());
        for item in items {
            let str_field = |name: &str| {
                item.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| ReportError::Schema(format!("missing report field `{name}`")))
            };
            let line_field = |name: &str| {
                item.get(name)
                    .and_then(JsonValue::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| ReportError::Schema(format!("missing report field `{name}`")))
            };
            let kind_slug = str_field("kind")?;
            let kind = BugKind::parse(&kind_slug)
                .ok_or_else(|| ReportError::Schema(format!("unknown bug kind `{kind_slug}`")))?;
            let cat_slug = str_field("category")?;
            let category = Category::ALL
                .into_iter()
                .find(|c| c.as_str() == cat_slug)
                .ok_or_else(|| ReportError::Schema(format!("unknown category `{cat_slug}`")))?;
            let alias_paths = item
                .get("alias_paths")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| schema("missing report field `alias_paths`"))?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| schema("non-string alias path"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            reports.push(BugReport {
                kind,
                file: str_field("file")?,
                function: str_field("function")?,
                origin_line: line_field("origin_line")?,
                site_line: line_field("site_line")?,
                category,
                alias_paths,
                message: str_field("message")?,
            });
        }
        // Optional envelope field: absent means no root was truncated.
        let mut budget_notes = Vec::new();
        if let Some(items) = doc.get("budget_notes").and_then(JsonValue::as_array) {
            for item in items {
                let str_field = |name: &str| {
                    item.get(name)
                        .and_then(JsonValue::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| {
                            ReportError::Schema(format!("missing budget note field `{name}`"))
                        })
                };
                budget_notes.push(crate::stats::BudgetNote {
                    root: str_field("root")?,
                    reason: str_field("reason")?,
                });
            }
        }
        // Optional envelope field: absent means no root degraded. The
        // section carries its own version gate.
        let mut degraded = Vec::new();
        if let Some(section) = doc.get("degraded") {
            let sec_version = section
                .get("version")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| schema("missing degraded section version"))?;
            if sec_version != DEGRADED_SECTION_VERSION {
                return Err(ReportError::Schema(format!(
                    "unsupported degraded section version {sec_version} \
                     (expected {DEGRADED_SECTION_VERSION})"
                )));
            }
            let roots = section
                .get("roots")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| schema("missing degraded roots array"))?;
            for item in roots {
                let str_field = |name: &str| {
                    item.get(name)
                        .and_then(JsonValue::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| {
                            ReportError::Schema(format!("missing degraded field `{name}`"))
                        })
                };
                degraded.push(DegradedRoot {
                    root: str_field("root")?,
                    stage: str_field("stage")?,
                    reason: str_field("reason")?,
                    action: str_field("action")?,
                });
            }
        }
        Ok(Report {
            schema_version: version,
            reports,
            budget_notes,
            degraded,
        })
    }
}

/// Sorts degraded-root entries by `(root, stage)` and collapses identical
/// ones, as [`Report::with_degraded`] stores them.
pub(crate) fn sorted_degraded(mut degraded: Vec<DegradedRoot>) -> Vec<DegradedRoot> {
    degraded.sort();
    degraded.dedup();
    degraded
}

/// Appends a report document of schema `schema_version`: the envelope
/// around `findings`, each written by `write_finding`, then the
/// optional `budget_notes` and `degraded` sections. The one envelope
/// writer of [`Report::to_json`] and the serve path; `degraded` must be
/// sorted ([`sorted_degraded`]).
pub(crate) fn write_report<T>(
    out: &mut String,
    schema_version: u64,
    findings: &[T],
    mut write_finding: impl FnMut(&mut String, &T),
    budget_notes: &[crate::stats::BudgetNote],
    degraded: &[DegradedRoot],
) {
    let _ = write!(
        out,
        "{{\"schema_version\": {schema_version}, \"reports\": ["
    );
    for (i, finding) in findings.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_finding(out, finding);
    }
    out.push(']');
    if !budget_notes.is_empty() {
        out.push_str(", \"budget_notes\": [");
        for (i, n) in budget_notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"root\": ");
            quote_into(out, &n.root);
            out.push_str(", \"reason\": ");
            quote_into(out, &n.reason);
            // Always true: every note comes from a run without stage-1
            // reuse. Kept for the report schema until it is next bumped.
            out.push_str(", \"caches_disabled\": true}");
        }
        out.push(']');
    }
    if !degraded.is_empty() {
        let _ = write!(
            out,
            ", \"degraded\": {{\"version\": {DEGRADED_SECTION_VERSION}, \"roots\": ["
        );
        for (i, d) in degraded.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"root\": ");
            quote_into(out, &d.root);
            out.push_str(", \"stage\": ");
            quote_into(out, &d.stage);
            out.push_str(", \"reason\": ");
            quote_into(out, &d.reason);
            out.push_str(", \"action\": ");
            quote_into(out, &d.action);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_ir::BlockId;

    fn inst_id(f: usize, i: usize) -> InstId {
        InstId {
            func: FuncId::from_index(f),
            block: BlockId::from_index(0),
            inst: i,
        }
    }

    #[test]
    fn dedup_key_ignores_path() {
        let a = PossibleBug {
            kind: BugKind::NullPointerDeref,
            origin_id: inst_id(0, 1),
            site_id: inst_id(0, 5),
            constraints: Arc::new([]),
            extra: Arc::new([]),
            alias_paths: Arc::new([]),
            root: FuncId::from_index(0),
        };
        let mut b = a.clone();
        b.constraints = vec![pata_smt::Constraint::new(
            pata_smt::CmpOp::Eq,
            pata_smt::Term::int(1),
            pata_smt::Term::int(1),
        )]
        .into();
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    fn sample_report() -> BugReport {
        BugReport {
            kind: BugKind::UseAfterFree,
            file: "drv/my \"quoted\" file.c".into(),
            function: "my_probe".into(),
            origin_line: 10,
            site_line: 42,
            category: Category::Drivers,
            alias_paths: vec!["my_probe:p".into(), "helper:q->field".into()],
            message: "use after free in `my_probe`\nwith a newline".into(),
        }
    }

    #[test]
    fn report_json_round_trip() {
        let report = Report::new(vec![sample_report()]);
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.schema_version, REPORT_SCHEMA_VERSION);
    }

    #[test]
    fn report_empty_round_trip() {
        let report = Report::new(vec![]);
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_rejects_wrong_version() {
        let json = Report::new(vec![])
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        let err = Report::from_json(&json).unwrap_err();
        assert!(matches!(err, ReportError::Schema(_)), "{err}");
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn report_rejects_missing_field() {
        let json = r#"{"schema_version": 1, "reports": [{"kind": "use-after-free"}]}"#;
        let err = Report::from_json(json).unwrap_err();
        assert!(matches!(err, ReportError::Schema(_)), "{err}");
    }

    #[test]
    fn report_rejects_unknown_kind() {
        let json = Report::new(vec![sample_report()])
            .to_json()
            .replace("use-after-free", "not-a-bug-kind");
        let err = Report::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("not-a-bug-kind"));
    }

    #[test]
    fn degraded_section_round_trips_sorted() {
        let report = Report::new(vec![sample_report()]).with_degraded(vec![
            DegradedRoot {
                root: "zeta_probe".into(),
                stage: "explore".into(),
                reason: "fault injected: explore:zeta_probe".into(),
                action: "quarantined".into(),
            },
            DegradedRoot {
                root: "alpha_probe".into(),
                stage: "validate".into(),
                reason: "deadline".into(),
                action: "demoted".into(),
            },
        ]);
        // with_degraded sorts by (root, stage) for deterministic bytes.
        assert_eq!(report.degraded[0].root, "alpha_probe");
        let json = report.to_json();
        assert!(json.contains("\"degraded\": {\"version\": 1"));
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn degraded_section_absent_when_empty() {
        let report = Report::new(vec![]).with_degraded(vec![]);
        let json = report.to_json();
        assert!(!json.contains("degraded"));
        assert_eq!(Report::from_json(&json).unwrap().degraded, vec![]);
    }

    #[test]
    fn degraded_section_rejects_wrong_version() {
        let json = Report::new(vec![])
            .with_degraded(vec![DegradedRoot {
                root: "r".into(),
                stage: "explore".into(),
                reason: "x".into(),
                action: "quarantined".into(),
            }])
            .to_json()
            .replace(
                "\"degraded\": {\"version\": 1",
                "\"degraded\": {\"version\": 99",
            );
        let err = Report::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("degraded section version 99"));
    }

    #[test]
    fn report_rejects_malformed_json() {
        assert!(matches!(
            Report::from_json("{nope").unwrap_err(),
            ReportError::Json(_)
        ));
    }
}
