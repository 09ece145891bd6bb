//! `regen --lint`: the static lint pass and the static/dynamic
//! cross-checker over every suite workload, with the standing waivers
//! (`results/lint_suite.json`).

use clfp_limits::{AnalysisConfig, AnalyzeError, Analyzer, MachineKind};
use clfp_metrics::json::Value;
use clfp_metrics::RunManifest;
use clfp_verify::{lint_program, Diagnostic, DiagnosticKind, Severity, TraceChecks};
use clfp_workloads::Workload;

use crate::{front_end, par_map_suite, suite_manifest};

/// Accepts all diagnostics of one kind, optionally scoped to one workload.
///
/// Waivers exist for code-quality findings about the *measured programs*
/// (the MiniC workloads) that are understood and do not affect the limit
/// analysis. [`Severity::Error`] diagnostics can never be waived: they mean
/// the static model and the dynamic behavior disagree.
#[derive(Clone, Copy, Debug)]
pub struct Waiver {
    /// Workload name, or `None` to match every workload.
    pub workload: Option<&'static str>,
    /// The diagnostic kind being accepted.
    pub kind: DiagnosticKind,
    /// Why this finding is acceptable.
    pub reason: &'static str,
}

/// The standing waivers for the benchmark suite, with reasons.
///
/// Re-audited when the alias-region lints landed: the whole suite is
/// clean under `never-stored-region-load` and `region-dead-store` (every
/// workload initializes the regions it reads and reads the regions it
/// writes — results are reduced into `v0`, not stored and abandoned), so
/// neither kind needs a waiver. The two waivers below remain the only
/// accepted findings, and `alias-soundness-violation` joins the
/// error-severity kinds that can never be waived.
pub const SUITE_WAIVERS: &[Waiver] = &[
    Waiver {
        workload: None,
        kind: DiagnosticKind::DeadStore,
        reason: "MiniC codegen is deliberately naive (no DCE): every \
                 expression result is materialized into a register even \
                 when nothing reads it, e.g. a call used as a statement; \
                 harmless extra work in the measured program",
    },
    Waiver {
        workload: None,
        kind: DiagnosticKind::UnreachableBlock,
        reason: "MiniC emits a fallback `return 0` (li v0, 0) after every \
                 function body; when all paths already returned, the \
                 fallback block is jumped over, dead by construction, and \
                 never traced",
    },
];

/// Looks up a waiver for a diagnostic. Errors are never waived.
pub fn waiver_for(workload: &str, diagnostic: &Diagnostic) -> Option<&'static str> {
    if diagnostic.severity() == Severity::Error {
        return None;
    }
    SUITE_WAIVERS
        .iter()
        .find(|w| w.kind == diagnostic.kind && w.workload.is_none_or(|name| name == workload))
        .map(|w| w.reason)
}

/// One diagnostic plus its waiver status.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// The finding itself.
    pub diagnostic: Diagnostic,
    /// The standing waiver covering it, if any.
    pub waived_reason: Option<&'static str>,
}

/// Lint and cross-check results for one workload.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Workload name.
    pub name: &'static str,
    /// Raw dynamic instructions in the checked trace.
    pub raw_instrs: u64,
    /// Sequential instructions with perfect unrolling.
    pub seq_unrolled: u64,
    /// Sequential instructions without unrolling.
    pub seq_rolled: u64,
    /// Every diagnostic, static and dynamic, with waiver status.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Findings not covered by a waiver.
    pub fn outstanding(&self) -> impl Iterator<Item = &LintFinding> {
        self.findings.iter().filter(|f| f.waived_reason.is_none())
    }

    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.diagnostic.severity() == severity)
            .count()
    }
}

/// Results of [`run_lint_suite`]: every workload linted statically and
/// cross-checked dynamically for both unroll settings.
#[derive(Clone, Debug)]
pub struct LintSuite {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<LintReport>,
}

/// Lints one workload and cross-checks its trace against the static model.
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures (not diagnostics).
pub fn lint_workload(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<LintReport, AnalyzeError> {
    let (program, trace) = front_end(workload, config)?;
    // Only the sequential counts are needed from the machine passes, and
    // they are machine-independent: analyze the cheapest model.
    let lint_config = AnalysisConfig {
        machines: vec![MachineKind::Base],
        ..config.clone()
    };
    let analyzer = Analyzer::new(&program, lint_config)?;
    let info = analyzer.static_info();

    let mut diagnostics = lint_program(&program, info);

    let prepared = analyzer.prepare(&trace);
    let (unrolled, rolled) = prepared.report_both();
    diagnostics.extend(
        TraceChecks::new(&program, info).check_dynamic(&trace, &prepared, &unrolled, &rolled),
    );

    Ok(LintReport {
        name: workload.name,
        raw_instrs: trace.len() as u64,
        seq_unrolled: unrolled.seq_instrs,
        seq_rolled: rolled.seq_instrs,
        findings: diagnostics
            .into_iter()
            .map(|diagnostic| LintFinding {
                waived_reason: waiver_for(workload.name, &diagnostic),
                diagnostic,
            })
            .collect(),
    })
}

/// Lints every suite workload and cross-checks its trace for both unroll
/// settings, fanning out over [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure. Diagnostics are data,
/// not errors; inspect [`LintSuite::is_clean`].
pub fn run_lint_suite(config: &AnalysisConfig) -> Result<LintSuite, AnalyzeError> {
    Ok(LintSuite {
        max_instrs: config.max_instrs,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| lint_workload(workload, config))?,
    })
}

impl LintSuite {
    /// Whether every diagnostic across the suite is either absent or
    /// covered by a standing waiver. The lint gate passes only when true.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.outstanding().next().is_none())
    }

    /// The results as JSON (`results/lint_suite.json`).
    pub fn to_json(&self) -> Value {
        let workloads = self.reports.iter().map(|report| {
            let diagnostics = report.findings.iter().map(|finding| {
                finding
                    .diagnostic
                    .to_json()
                    .with("waived", finding.waived_reason.is_some())
                    .with("waiver_reason", finding.waived_reason)
            });
            Value::object()
                .with("name", report.name)
                .with("raw_instrs", report.raw_instrs)
                .with("seq_instrs_unrolled", report.seq_unrolled)
                .with("seq_instrs_rolled", report.seq_rolled)
                .with("errors", report.count(Severity::Error))
                .with("warnings", report.count(Severity::Warning))
                .with("infos", report.count(Severity::Info))
                .with("diagnostics", Value::Array(diagnostics.collect()))
        });
        Value::object()
            .with("suite", "static lint + static/dynamic cross-check")
            .with("max_instrs", self.max_instrs)
            .with(
                "unroll_settings",
                Value::Array(vec![false.into(), true.into()]),
            )
            .with("clean", self.is_clean())
            .with("manifest", self.manifest.to_json())
            .with("workloads", Value::Array(workloads.collect()))
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "## Lint & Cross-Check Suite\n\n\
             | workload | raw instrs | seq (unrolled) | errors | warnings | infos | waived | status |\n\
             |----------|------------|----------------|--------|----------|-------|--------|--------|\n",
        );
        for report in &self.reports {
            let waived = report
                .findings
                .iter()
                .filter(|f| f.waived_reason.is_some())
                .count();
            let outstanding = report.outstanding().count();
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                report.name,
                report.raw_instrs,
                report.seq_unrolled,
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Info),
                waived,
                if outstanding == 0 { "clean" } else { "FAIL" },
            ));
        }
        let mut outstanding: Vec<(&str, &LintFinding)> = Vec::new();
        for report in &self.reports {
            outstanding.extend(report.outstanding().map(|f| (report.name, f)));
        }
        if outstanding.is_empty() {
            out.push_str(
                "\nall diagnostics clean or covered by standing waivers \
                 (see SUITE_WAIVERS)\n",
            );
        } else {
            out.push_str("\noutstanding diagnostics:\n");
            for (name, finding) in outstanding {
                out.push_str(&format!("  {name}: {}\n", finding.diagnostic));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_config;

    #[test]
    fn lint_suite_is_clean() {
        let lint = run_lint_suite(&tiny_config()).unwrap();
        assert_eq!(lint.reports.len(), 10);
        assert!(lint.is_clean(), "{}", lint.summary());
        // Errors can never hide behind a waiver.
        for report in &lint.reports {
            assert_eq!(report.count(Severity::Error), 0, "{}", report.name);
        }
        let json = clfp_metrics::json::render(&lint.to_json());
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"seq_instrs_unrolled\""));
        assert!(json.contains("\"manifest\""));
        assert!(json.trim_end().ends_with('}'));
        let summary = lint.summary();
        assert!(summary.contains("scan"));
        assert!(summary.contains("clean"));
    }
}
