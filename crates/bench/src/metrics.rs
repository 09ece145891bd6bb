//! `regen --metrics`: every workload re-analyzed with the recording
//! metrics sink (`results/metrics_suite.json`, `results/attribution.md`).

use clfp_limits::{AnalysisConfig, AnalyzeError, Analyzer, EdgeKind, MachineKind, MachineMetrics};
use clfp_metrics::json::Value;
use clfp_metrics::RunManifest;
use clfp_vm::TraceSummary;
use clfp_workloads::Workload;

use crate::tables::machine_table;
use crate::{front_end, par_map_suite, suite_manifest};

/// Per-machine execution metrics for one workload: the instruction mix of
/// its measured trace plus, for every machine model, the recorded-schedule
/// metrics from `clfp-metrics` (occupancy, critical-path attribution,
/// binding-edge counters).
#[derive(Clone, Debug)]
pub struct WorkloadMetrics {
    /// Workload name.
    pub name: &'static str,
    /// Raw dynamic instructions in the measured trace.
    pub raw_instrs: u64,
    /// Scheduled instructions after inlining/unrolling removal.
    pub seq_instrs: u64,
    /// Instruction-mix summary of the measured trace.
    pub trace: TraceSummary,
    /// Per-machine metrics, in `MachineKind::ALL` order.
    pub machines: Vec<(MachineKind, MachineMetrics)>,
}

/// Results of [`run_metrics_suite`]: every workload re-analyzed with the
/// recording metrics sink (`results/metrics_suite.json` and
/// `results/attribution.md`).
#[derive(Clone, Debug)]
pub struct MetricsSuite {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Unroll setting the metrics were collected under.
    pub unrolling: bool,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<WorkloadMetrics>,
}

/// Collects execution metrics for one workload: one trace, one
/// preparation walk, then every configured machine with the recording
/// sink.
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures.
pub fn metrics_workload(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<WorkloadMetrics, AnalyzeError> {
    let (program, trace) = front_end(workload, config)?;
    let analyzer = Analyzer::new(&program, config.clone())?;
    let summary = trace.summarize(&program);
    let machines = analyzer.prepare(&trace).machine_metrics();
    let seq_instrs = machines.first().map_or(0, |(_, m)| m.instrs);
    Ok(WorkloadMetrics {
        name: workload.name,
        raw_instrs: trace.len() as u64,
        seq_instrs,
        trace: summary,
        machines,
    })
}

/// Runs the whole suite with the recording metrics sink, fanning out over
/// [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure.
pub fn run_metrics_suite(config: &AnalysisConfig) -> Result<MetricsSuite, AnalyzeError> {
    Ok(MetricsSuite {
        max_instrs: config.max_instrs,
        unrolling: config.unrolling,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| metrics_workload(workload, config))?,
    })
}

impl MetricsSuite {
    /// The results as JSON (`results/metrics_suite.json`).
    pub fn to_json(&self) -> Value {
        let workloads = self.reports.iter().map(|w| {
            let t = &w.trace;
            let trace = Value::object()
                .with("cond_branches", t.cond_branches)
                .with("taken_branches", t.taken_branches)
                .with("loads", t.loads)
                .with("stores", t.stores)
                .with("calls", t.calls)
                .with("returns", t.returns)
                .with("max_call_depth", t.max_call_depth)
                .with("distinct_mem_words", t.distinct_mem_words);
            let machines = w.machines.iter().map(|(kind, m)| {
                let attr = &m.attribution;
                let occupancy = Value::object()
                    .with("peak", m.occupancy.peak)
                    .with("busy_cycles", m.occupancy.busy_cycles)
                    .with(
                        "frac_instrs_ge_4",
                        Value::Fixed(m.occupancy.fraction_in_wide_cycles(4), 3),
                    )
                    .with(
                        "frac_instrs_ge_64",
                        Value::Fixed(m.occupancy.fraction_in_wide_cycles(64), 3),
                    );
                let critical_path = Value::object()
                    .with("chain_instrs", attr.chain_len)
                    .with("heads", attr.terminators)
                    .with("reg_data", attr.counts[0])
                    .with("mem_data", attr.counts[1])
                    .with("control", attr.counts[2])
                    .with("mf_merge", attr.counts[3]);
                let binding = Value::object()
                    .with("reg_data", m.flow.by_kind[0])
                    .with("mem_data", m.flow.by_kind[1])
                    .with("control", m.flow.by_kind[2])
                    .with("mf_merge", m.flow.by_kind[3])
                    .with("unconstrained", m.flow.unconstrained);
                Value::object()
                    .with("machine", kind.name())
                    .with("cycles", m.cycles)
                    .with("instrs", m.instrs)
                    .with("parallelism", Value::Fixed(m.parallelism(), 2))
                    .with("occupancy", occupancy)
                    .with("critical_path", critical_path)
                    .with("binding", binding)
            });
            Value::object()
                .with("name", w.name)
                .with("raw_instrs", w.raw_instrs)
                .with("seq_instrs", w.seq_instrs)
                .with("trace", trace)
                .with("machines", Value::Array(machines.collect()))
        });
        Value::object()
            .with("suite", "per-machine execution metrics")
            .with("max_instrs", self.max_instrs)
            .with("unrolling", self.unrolling)
            .with("manifest", self.manifest.to_json())
            .with("workloads", Value::Array(workloads.collect()))
    }

    /// The critical-path attribution and cycle-occupancy report
    /// (`results/attribution.md`): *why* each machine's parallelism limit
    /// is what it is, per program.
    pub fn attribution_md(&self) -> String {
        let mut out = String::from(
            "## Critical-Path Attribution\n\n\
             For every machine, walk the longest dependence chain of each\n\
             program and classify the edge that bound each instruction on it:\n\
             register data dependence, memory data dependence, the machine's\n\
             own control constraint, or the single-flow merge ordering\n\
             (`mf-merge` — the constraint that following multiple flows of\n\
             control removes). Percentages are over classified chain edges;\n\
             `chain` is the number of instructions on the chain.\n",
        );
        for (index, &kind) in MachineKind::ALL.iter().enumerate() {
            out.push_str(&format!(
                "\n### {}\n\n\
                 | program | chain | reg-data % | mem-data % | control % | mf-merge % |\n\
                 |---------|-------|------------|------------|-----------|------------|\n",
                kind.name()
            ));
            for w in &self.reports {
                let Some((_, m)) = w.machines.get(index).filter(|(k, _)| *k == kind) else {
                    continue;
                };
                let attr = &m.attribution;
                out.push_str(&format!(
                    "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                    w.name,
                    attr.chain_len,
                    attr.percent(EdgeKind::RegData),
                    attr.percent(EdgeKind::MemData),
                    attr.percent(EdgeKind::Control),
                    attr.percent(EdgeKind::MfMerge),
                ));
            }
        }
        out.push_str(
            "\n## Cycle Occupancy\n\n\
             How the parallelism is shaped in time: the widest single cycle\n\
             and the fraction of all instructions issued in cycles at least\n\
             64 wide (burst share). Large limits are burst-shaped, not\n\
             steady streams.\n\n### Peak instructions in one cycle\n\n",
        );
        out.push_str(&self.occupancy_table(|m| format!("{}", m.occupancy.peak)));
        out.push_str("\n### Fraction of instructions issued in cycles ≥ 64 wide\n\n");
        out.push_str(&self.occupancy_table(|m| {
            format!("{:.2}", m.occupancy.fraction_in_wide_cycles(64))
        }));
        out
    }

    fn occupancy_table(&self, cell: impl Fn(&MachineMetrics) -> String) -> String {
        machine_table(
            self.reports
                .iter()
                .map(|w| (w.name, w.machines.iter().map(|(_, m)| cell(m)).collect())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_config;

    #[test]
    fn metrics_suite_attributes_every_machine() {
        let suite = run_metrics_suite(&tiny_config()).unwrap();
        assert_eq!(suite.reports.len(), 10);
        for w in &suite.reports {
            assert_eq!(w.machines.len(), MachineKind::ALL.len());
            assert!(w.seq_instrs > 0, "{}", w.name);
            for (kind, m) in &w.machines {
                assert_eq!(m.instrs, w.seq_instrs, "{} {}", w.name, kind.name());
                assert!(m.cycles > 0 && m.cycles <= m.instrs);
                assert_eq!(m.flow.total(), m.instrs);
                assert_eq!(m.occupancy.instrs, m.instrs);
                assert!(m.occupancy.peak <= m.instrs);
                let attr = &m.attribution;
                if attr.classified() > 0 {
                    let sum: f64 = EdgeKind::ALL.iter().map(|&k| attr.percent(k)).sum();
                    assert!((sum - 100.0).abs() < 1e-6, "{} {}", w.name, kind.name());
                }
                if *kind == MachineKind::Oracle {
                    // The oracle has no control constraint at all.
                    assert_eq!(m.flow.control_bound(), 0, "{}", w.name);
                    assert_eq!(attr.counts[2] + attr.counts[3], 0, "{}", w.name);
                }
                if kind.multiple_flows() {
                    // Following multiple flows removes exactly the merge
                    // ordering — no mf-merge edges can remain.
                    assert_eq!(m.flow.by_kind[3], 0, "{} {}", w.name, kind.name());
                }
            }
        }
        let json = clfp_metrics::json::render(&suite.to_json());
        assert!(json.contains("\"critical_path\""));
        assert!(json.contains("\"binding\""));
        assert!(json.contains("\"config_hash\""));
        assert!(json.trim_end().ends_with('}'));
        let md = suite.attribution_md();
        assert!(md.contains("### ORACLE"));
        assert!(md.contains("mf-merge"));
        assert!(md.contains("## Cycle Occupancy"));
        assert!(md.contains("scan"));
    }
}
