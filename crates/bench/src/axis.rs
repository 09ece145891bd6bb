//! `regen --alias` and `regen --valuepred`: one driver sweeps a relaxation
//! axis over the suite (`results/disambiguation.md`,
//! `results/value_prediction.md`).
//!
//! An axis is a chain of modes, each removing scheduling constraints from
//! the one before it, the way Lam & Wilson's seven machines relax each
//! other. Each axis is one [`AxisSweep`] description ([`DISAMBIGUATION`],
//! [`VALUE_PREDICTION`]). [`run_axis_sweep`] runs any of them the same
//! way: one measured trace, one preparation and one multi-config
//! scheduling walk per workload, gated by the `clfp-verify` monotonicity
//! check and by the gated mode's pipeline agreement.

use clfp_limits::{
    AnalysisConfig, AnalyzeError, Analyzer, MachineKind, MemDisambiguation, Report, StreamOptions,
    ValuePrediction,
};
use clfp_metrics::RunManifest;
use clfp_verify::{check_monotonicity, TraceChecks};
use clfp_workloads::{suite, Workload};

use crate::tables::{fmt_parallelism, harmonic_mean_row, machine_table, parallelism_cells};
use crate::{front_end, matches_reference, par_map_suite, reports_equal, suite_manifest};

/// Chunk size (events) of the streamed gates: the streamed alias-soundness
/// walker and the streamed pipeline the gated mode is pinned against.
const GATE_CHUNK_EVENTS: usize = 4096;

/// The setting one axis mode applies to the suite's configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setting {
    /// A memory-disambiguation mode.
    Disambiguation(MemDisambiguation),
    /// A value-prediction mode.
    ValuePrediction(ValuePrediction),
}

impl Setting {
    /// The mode's short name, as the page and the reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Setting::Disambiguation(mode) => mode.name(),
            Setting::ValuePrediction(mode) => mode.name(),
        }
    }

    /// `config` with this setting applied.
    pub fn apply(self, config: &AnalysisConfig) -> AnalysisConfig {
        match self {
            Setting::Disambiguation(mode) => config.clone().with_disambiguation(mode),
            Setting::ValuePrediction(mode) => config.clone().with_value_prediction(mode),
        }
    }
}

/// One mode of an axis and its blurb on the page.
#[derive(Clone, Copy, Debug)]
pub struct AxisMode {
    /// What the mode changes in the configuration.
    pub setting: Setting,
    /// One-line description, printed in the mode's table heading.
    pub blurb: &'static str,
}

/// Everything that differs between two axis sweeps. [`run_axis_sweep`]
/// runs every description the same way.
#[derive(Debug)]
pub struct AxisSweep {
    /// The axis's name in progress lines and diagnostics.
    pub name: &'static str,
    /// The page the sweep writes, under the output directory.
    pub file: &'static str,
    /// Page heading and introduction, printed above the mode tables.
    pub intro: &'static str,
    /// The modes in page order.
    pub modes: &'static [AxisMode],
    /// Whether `modes` lists the least constrained mode first. The
    /// monotonicity gate reads the chain from the most constrained mode.
    pub strongest_first: bool,
    /// Index into `modes` of the mode whose slice, reference and stream
    /// gates run.
    pub gated: usize,
    /// The gated mode's pipeline-agreement gate line; `{chunk}` stands
    /// for the streamed gates' chunk size.
    pub pipelines_gate: &'static str,
    /// Retention section text and table header, printed under the
    /// section's heading.
    pub retention: &'static str,
    /// One row of the retention table.
    pub retention_row: fn(&AxisWorkload) -> String,
    /// Whether the sweep also runs the dynamic alias-soundness gate.
    pub alias_soundness: bool,
}

impl AxisSweep {
    /// Indices into `modes` from the most constrained mode to the least:
    /// the order the monotonicity gate reads them in.
    fn chain(&self) -> Vec<usize> {
        let mut chain: Vec<usize> = (0..self.modes.len()).collect();
        if self.strongest_first {
            chain.reverse();
        }
        chain
    }
}

/// The memory-disambiguation axis: perfect (by dynamic address), static
/// (alias classes), none (memory as one location).
pub static DISAMBIGUATION: AxisSweep = AxisSweep {
    name: "memory disambiguation",
    file: "disambiguation.md",
    intro: "## Memory Disambiguation: Perfect vs Static vs None\n\n\
            The paper assumes *perfect* memory disambiguation: a load\n\
            depends on a store only when they touched the same dynamic\n\
            address. `static` replaces the oracle with the interprocedural\n\
            alias analysis — accesses are keyed by their static alias\n\
            class, so any may-aliased pair serializes. `none` keys every\n\
            access to one location: all of memory is a single dependence\n\
            chain. Parallelism below is with perfect unrolling, harmonic\n\
            mean over all programs.\n",
    modes: &[
        AxisMode {
            setting: Setting::Disambiguation(MemDisambiguation::Perfect),
            blurb: "oracle, by dynamic address (the paper's model)",
        },
        AxisMode {
            setting: Setting::Disambiguation(MemDisambiguation::Static),
            blurb: "alias classes from the interprocedural analysis",
        },
        AxisMode {
            setting: Setting::Disambiguation(MemDisambiguation::None),
            blurb: "memory as a single location",
        },
    ],
    strongest_first: true,
    gated: 1,
    pipelines_gate: "static-mode pipelines bit-identical (one-walk matrix vs static slice on \
                     every workload; reference pass and streamed pipeline on the first)",
    retention: "How much of the perfect-disambiguation parallelism each\n\
                weaker mode keeps, on the machine where memory dependences\n\
                bind tightest. `classes` is the number of scheduler classes\n\
                the analysis partitioned the program's memory into. Under\n\
                the coarse modes a load waits for *every* earlier\n\
                may-aliasing store (the table accumulates a running max),\n\
                so the modes are strictly ordered: refining the key\n\
                partition can only remove constraints, and\n\
                `perfect >= static >= none` holds pointwise.\n\n\
                | program | classes | perfect | static | static/perfect | none | none/perfect |\n\
                |---------|---------|---------|--------|----------------|------|--------------|\n",
    retention_row: disambiguation_retention,
    alias_soundness: true,
};

fn disambiguation_retention(r: &AxisWorkload) -> String {
    let on = |mode: MemDisambiguation| r.report_for(mode.name()).parallelism(MachineKind::SpCdMf);
    let perfect = on(MemDisambiguation::Perfect);
    let stat = on(MemDisambiguation::Static);
    let none = on(MemDisambiguation::None);
    format!(
        "| {} | {} | {} | {} | {:.0}% | {} | {:.0}% |\n",
        r.workload.name,
        r.num_classes,
        fmt_parallelism(perfect),
        fmt_parallelism(stat),
        100.0 * stat / perfect,
        fmt_parallelism(none),
        100.0 * none / perfect,
    )
}

/// The value-prediction axis: off, last-value, stride, and a perfect
/// value oracle.
pub static VALUE_PREDICTION: AxisSweep = AxisSweep {
    name: "value prediction",
    file: "value_prediction.md",
    intro: "## Value Prediction: Off vs Last-Value vs Stride vs Perfect\n\n\
            The paper's machines never speculate on *data*: a consumer\n\
            always waits for its producer's result. This axis relaxes\n\
            that. A correctly predicted register definition publishes\n\
            availability 0 — consumers proceed as if the value were\n\
            known at fetch — while a mispredicted one publishes its\n\
            real completion time, charging verification at resolve time\n\
            exactly like a mispredicted branch charges the sequential\n\
            machines. `last-value` and `stride` are trained on the\n\
            measured trace during the shared preparation walk;\n\
            `perfect` is the oracle upper bound. Parallelism below is\n\
            with perfect unrolling, harmonic mean over all programs.\n",
    modes: &[
        AxisMode {
            setting: Setting::ValuePrediction(ValuePrediction::Off),
            blurb: "no value speculation (the paper's model)",
        },
        AxisMode {
            setting: Setting::ValuePrediction(ValuePrediction::LastValue),
            blurb: "per-pc last-value predictor, trained on the trace",
        },
        AxisMode {
            setting: Setting::ValuePrediction(ValuePrediction::Stride),
            blurb: "hybrid last-value + stride predictor (its correct set \
                    contains last-value's)",
        },
        AxisMode {
            setting: Setting::ValuePrediction(ValuePrediction::Perfect),
            blurb: "oracle, every definition predicted",
        },
    ],
    strongest_first: false,
    gated: 2,
    pipelines_gate: "stride-mode pipelines bit-identical (one-walk matrix vs stride slice on \
                     every workload; reference pass and streamed chunk {chunk} events on the \
                     first)",
    retention: "How much of the perfect-value-oracle parallelism each mode\n\
                reaches, on the machine where data dependences are the\n\
                binding constraint. `hit` is the predictor's measured hit\n\
                rate over the trace's register definitions. The modes'\n\
                correct sets nest (off ⊆ last-value ⊆ stride ⊆ perfect),\n\
                so every column is pointwise ordered.\n\n\
                | program | off | off/perfect | last-value | hit | stride | hit | stride/perfect | perfect |\n\
                |---------|-----|-------------|------------|-----|--------|-----|----------------|---------|\n",
    retention_row: value_prediction_retention,
    alias_soundness: false,
};

fn value_prediction_retention(r: &AxisWorkload) -> String {
    let on = |mode: ValuePrediction| r.report_for(mode.name()).parallelism(MachineKind::SpCdMf);
    let off = on(ValuePrediction::Off);
    let last = on(ValuePrediction::LastValue);
    let stride = on(ValuePrediction::Stride);
    let perfect = on(ValuePrediction::Perfect);
    format!(
        "| {} | {} | {:.0}% | {} | {:.0}% | {} | {:.0}% | {:.0}% | {} |\n",
        r.workload.name,
        fmt_parallelism(off),
        100.0 * off / perfect,
        fmt_parallelism(last),
        r.hit_rate(ValuePrediction::LastValue.name()),
        fmt_parallelism(stride),
        r.hit_rate(ValuePrediction::Stride.name()),
        100.0 * stride / perfect,
        fmt_parallelism(perfect),
    )
}

/// One workload's results across an axis, with its gates.
#[derive(Clone, Debug)]
pub struct AxisWorkload {
    /// The workload.
    pub workload: Workload,
    /// Scheduler classes the alias analysis partitioned memory into.
    pub num_classes: u32,
    /// Unrolled report per mode, by mode name, in page order.
    pub reports: Vec<(&'static str, Report)>,
    /// Whether the `clfp-verify` monotonicity check passed at both unroll
    /// settings: no mode took more cycles than a more constrained one, on
    /// any machine.
    pub monotone: bool,
    /// Whether the one-walk matrix lanes, the gated mode's slice, and (on
    /// the first workload) the reference pass and the streaming pipeline
    /// produced bit-identical reports under the gated mode.
    pub pipelines_agree: bool,
    /// The dynamic alias-soundness check through the in-memory and the
    /// streamed walker: no observed address conflict fell on a statically
    /// no-alias pair. `None` when the axis does not run it.
    pub alias_sound: Option<[bool; 2]>,
}

impl AxisWorkload {
    /// The unrolled report for the mode named `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the axis has no such mode.
    pub fn report_for(&self, mode: &str) -> &Report {
        &self
            .reports
            .iter()
            .find(|(name, _)| *name == mode)
            .expect("every mode was run")
            .1
    }

    /// The value predictor's hit rate under the mode named `mode`, as a
    /// percentage of def-producing events (100% for a perfect value
    /// oracle, 0% without value prediction).
    pub fn hit_rate(&self, mode: &str) -> f64 {
        self.report_for(mode).branches.value_prediction_rate()
    }
}

/// Results of [`run_axis_sweep`]: every workload scheduled under every
/// mode of one axis.
#[derive(Clone, Debug)]
pub struct AxisSuite {
    /// The axis swept.
    pub axis: &'static AxisSweep,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<AxisWorkload>,
}

/// Sweeps `axis` over one workload: a single measured trace, a single
/// preparation, and a single multi-config scheduling walk
/// ([`PreparedTrace::report_mode_matrix`](clfp_limits::PreparedTrace::report_mode_matrix)),
/// then the gates.
///
/// On every workload the matrix lanes of the gated mode must equal a
/// one-walk report over that mode's slice of the same preparation, and
/// the modes must be monotone at both unroll settings. `full_oracle`
/// additionally prices the reference pass rerun from scratch under the
/// gated mode (the independent oracle) and a small-chunk streamed pass;
/// [`run_axis_sweep`] enables it on the first workload (`slice_modes`
/// itself is pinned bit-identical to a dedicated analyzer by
/// `mode_slices_match_dedicated_preparation`).
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures.
fn sweep_workload(
    axis: &AxisSweep,
    workload: Workload,
    config: &AnalysisConfig,
    full_oracle: bool,
) -> Result<AxisWorkload, AnalyzeError> {
    let (program, trace) = front_end(workload, config)?;
    // One mode-free preparation: each mode becomes extra lanes of one
    // scheduling walk.
    let analyzer = Analyzer::new(&program, config.clone())?;
    let prepared = analyzer.prepare(&trace);
    let configs: Vec<AnalysisConfig> = axis
        .modes
        .iter()
        .map(|mode| mode.setting.apply(config))
        .collect();
    let pairs: Vec<(MemDisambiguation, ValuePrediction)> = configs
        .iter()
        .map(|c| (c.disambiguation, c.value_prediction))
        .collect();
    let matrix = prepared.report_mode_matrix(&pairs);

    let gated = &configs[axis.gated];
    let (unrolled, rolled) = &matrix[axis.gated];
    let (sliced_unrolled, sliced_rolled) = prepared
        .slice_modes(gated.disambiguation, gated.value_prediction)
        .report_both();
    let mut pipelines_agree =
        reports_equal(unrolled, &sliced_unrolled) && reports_equal(rolled, &sliced_rolled);
    if full_oracle {
        let streamed = Analyzer::new(&program, gated.clone())?.run_streamed_on(
            &trace,
            StreamOptions {
                chunk_events: GATE_CHUNK_EVENTS,
                machine_threads: 1,
            },
        )?;
        pipelines_agree = pipelines_agree
            && matches_reference(unrolled, rolled, &program, &trace, gated)?
            && reports_equal(&streamed.unrolled, unrolled)
            && reports_equal(&streamed.rolled, rolled);
    }

    let monotone = [true, false].into_iter().all(|unrolling| {
        let reports: Vec<(&str, &Report)> = axis
            .chain()
            .into_iter()
            .map(|i| {
                let (unrolled, rolled) = &matrix[i];
                (
                    axis.modes[i].setting.name(),
                    if unrolling { unrolled } else { rolled },
                )
            })
            .collect();
        check_monotonicity(axis.name, &reports).is_empty()
    });

    let info = analyzer.static_info();
    let alias_sound = if axis.alias_soundness {
        let checks = TraceChecks::new(&program, info);
        Some([
            checks
                .check_alias_soundness(&trace, trace.len().max(1))?
                .is_empty(),
            checks
                .check_alias_soundness(&trace, GATE_CHUNK_EVENTS)?
                .is_empty(),
        ])
    } else {
        None
    };

    Ok(AxisWorkload {
        workload,
        num_classes: info.alias.num_classes(),
        reports: axis
            .modes
            .iter()
            .zip(matrix)
            .map(|(mode, (unrolled, _))| (mode.setting.name(), unrolled))
            .collect(),
        monotone,
        pipelines_agree,
        alias_sound,
    })
}

/// Runs the whole suite across `axis`, fanning out over
/// [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure.
pub fn run_axis_sweep(
    axis: &'static AxisSweep,
    config: &AnalysisConfig,
) -> Result<AxisSuite, AnalyzeError> {
    let oracle_on = suite().first().map(|w| w.name);
    Ok(AxisSuite {
        axis,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| {
            sweep_workload(axis, workload, config, Some(workload.name) == oracle_on)
        })?,
    })
}

impl AxisSuite {
    /// Whether the monotonicity gate passed on every workload.
    pub fn is_monotone(&self) -> bool {
        self.reports.iter().all(|r| r.monotone)
    }

    /// Whether the gated mode's pipelines agreed bit for bit everywhere.
    pub fn pipelines_agree(&self) -> bool {
        self.reports.iter().all(|r| r.pipelines_agree)
    }

    /// Whether no alias-soundness check found a dynamic conflict on a
    /// statically no-alias pair, through either walker.
    pub fn is_sound(&self) -> bool {
        self.reports
            .iter()
            .all(|r| r.alias_sound.is_none_or(|sound| sound == [true, true]))
    }

    /// Every gate's line on the page and whether it passed on every
    /// workload, in page order.
    pub fn gates(&self) -> Vec<(String, bool)> {
        let mut gates = Vec::new();
        if self.axis.alias_soundness {
            let sound = |walker: usize| {
                self.reports
                    .iter()
                    .all(|r| r.alias_sound.is_some_and(|sound| sound[walker]))
            };
            gates.push(("alias soundness, in-memory walker".to_string(), sound(0)));
            gates.push((
                format!("alias soundness, streamed walker (chunk {GATE_CHUNK_EVENTS} events)"),
                sound(1),
            ));
        }
        let chain: Vec<&str> = self
            .axis
            .chain()
            .into_iter()
            .rev()
            .map(|i| self.axis.modes[i].setting.name())
            .collect();
        gates.push((
            format!(
                "monotonicity ({}, pointwise, both unroll settings)",
                chain.join(" >= ")
            ),
            self.is_monotone(),
        ));
        let chunk = GATE_CHUNK_EVENTS.to_string();
        gates.push((
            self.axis.pipelines_gate.replace("{chunk}", &chunk),
            self.pipelines_agree(),
        ));
        gates
    }

    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.gates().iter().all(|(_, passed)| *passed)
    }

    /// The axis's page: parallelism per machine under each mode,
    /// per-workload retention on SP-CD-MF, and the gate results.
    pub fn markdown(&self) -> String {
        let mut out = String::from(self.axis.intro);
        for mode in self.axis.modes {
            let name = mode.setting.name();
            let reports: Vec<&Report> = self.reports.iter().map(|r| r.report_for(name)).collect();
            let rows = self
                .reports
                .iter()
                .zip(&reports)
                .map(|(r, report)| (r.workload.name, parallelism_cells(report)))
                .chain([harmonic_mean_row(&reports)]);
            out.push_str(&format!("\n### `{name}`: {}\n\n", mode.blurb));
            out.push_str(&machine_table(rows));
        }
        out.push_str("\n### Retention on SP-CD-MF\n\n");
        out.push_str(self.axis.retention);
        for r in &self.reports {
            out.push_str(&(self.axis.retention_row)(r));
        }
        out.push_str("\n### Gates\n\n");
        for (line, passed) in self.gates() {
            out.push_str(&format!(
                "- {line}: **{}**\n",
                if passed { "pass" } else { "FAIL" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_config;

    #[test]
    fn alias_suite_sweeps_modes_and_passes_gates() {
        let suite = run_axis_sweep(&DISAMBIGUATION, &tiny_config()).unwrap();
        assert_eq!(suite.reports.len(), 10);
        assert!(suite.is_sound(), "dynamic conflict on a no-alias pair");
        assert!(suite.pipelines_agree(), "static-mode pipelines diverged");
        let mut static_differs = false;
        let mut none_differs = false;
        for r in &suite.reports {
            assert!(r.num_classes >= 1, "{}", r.workload.name);
            for kind in MachineKind::ALL {
                let perfect = r
                    .report_for(MemDisambiguation::Perfect.name())
                    .parallelism(kind);
                let stat = r
                    .report_for(MemDisambiguation::Static.name())
                    .parallelism(kind);
                let none = r
                    .report_for(MemDisambiguation::None.name())
                    .parallelism(kind);
                for p in [perfect, stat, none] {
                    assert!(
                        p.is_finite() && p >= 1.0,
                        "{} {kind:?}: {p}",
                        r.workload.name
                    );
                }
                // Coarse modes accumulate the store max, so weakening
                // the analysis never helps — pointwise, every machine.
                assert!(
                    stat <= perfect + 1e-9,
                    "{} {kind:?}: static {stat} beat perfect {perfect}",
                    r.workload.name
                );
                assert!(
                    none <= stat + 1e-9,
                    "{} {kind:?}: none {none} beat static {stat}",
                    r.workload.name
                );
                static_differs |= stat != perfect;
                none_differs |= none != stat;
            }
            // Every mode schedules the same instructions.
            let seq = r.report_for(MemDisambiguation::Perfect.name()).seq_instrs;
            assert_eq!(
                r.report_for(MemDisambiguation::Static.name()).seq_instrs,
                seq
            );
            assert_eq!(r.report_for(MemDisambiguation::None.name()).seq_instrs, seq);
        }
        // And the axis is live: each weakening changes some schedule.
        assert!(static_differs, "static mode never changed a schedule");
        assert!(none_differs, "none mode never changed a schedule");
        let md = suite.markdown();
        assert!(md.contains("## Memory Disambiguation"));
        assert!(md.contains("### `perfect`"));
        assert!(md.contains("### `static`"));
        assert!(md.contains("### `none`"));
        assert!(md.contains("### Retention on SP-CD-MF"));
        assert!(md.contains("harmonic mean"));
        assert!(md.contains("- alias soundness, in-memory walker: **pass**"));
        assert!(md.contains("streamed walker (chunk 4096 events): **pass**"));
        assert!(md.contains("static-mode pipelines bit-identical"));
        assert!(md.contains("reference pass and streamed pipeline on the first): **pass**"));
        assert!(md.contains("scan"));
        // The ordering is gated, not only asserted here.
        assert!(suite.is_monotone(), "a weaker mode shortened a schedule");
        assert!(md.contains(
            "- monotonicity (perfect >= static >= none, pointwise, both unroll settings): **pass**"
        ));
        assert!(suite.passed());
    }

    #[test]
    fn valuepred_suite_sweeps_modes_and_passes_gates() {
        let suite = run_axis_sweep(&VALUE_PREDICTION, &tiny_config()).unwrap();
        assert_eq!(suite.reports.len(), 10);
        assert!(suite.is_monotone(), "a stronger mode lengthened a schedule");
        assert!(suite.pipelines_agree(), "stride-mode pipelines diverged");
        let mut last_differs = false;
        let mut stride_differs = false;
        let mut perfect_differs = false;
        for r in &suite.reports {
            // Hit rates nest with the correct sets.
            assert_eq!(
                r.hit_rate(ValuePrediction::Off.name()),
                0.0,
                "{}",
                r.workload.name
            );
            assert_eq!(
                r.hit_rate(ValuePrediction::Perfect.name()),
                100.0,
                "{}",
                r.workload.name
            );
            let lv_rate = r.hit_rate(ValuePrediction::LastValue.name());
            let stride_rate = r.hit_rate(ValuePrediction::Stride.name());
            assert!(
                (0.0..=100.0).contains(&lv_rate) && lv_rate <= stride_rate + 1e-9,
                "{}: last-value hit {lv_rate}% beat stride {stride_rate}%",
                r.workload.name
            );
            for kind in MachineKind::ALL {
                let off = r.report_for(ValuePrediction::Off.name()).parallelism(kind);
                let last = r
                    .report_for(ValuePrediction::LastValue.name())
                    .parallelism(kind);
                let stride = r
                    .report_for(ValuePrediction::Stride.name())
                    .parallelism(kind);
                let perfect = r
                    .report_for(ValuePrediction::Perfect.name())
                    .parallelism(kind);
                for p in [off, last, stride, perfect] {
                    assert!(
                        p.is_finite() && p >= 1.0,
                        "{} {kind:?}: {p}",
                        r.workload.name
                    );
                }
                // Nested correct sets: strengthening the predictor never
                // hurts — pointwise, every machine.
                assert!(
                    off <= last + 1e-9,
                    "{} {kind:?}: off {off} beat last-value {last}",
                    r.workload.name
                );
                assert!(
                    last <= stride + 1e-9,
                    "{} {kind:?}: last-value {last} beat stride {stride}",
                    r.workload.name
                );
                assert!(
                    stride <= perfect + 1e-9,
                    "{} {kind:?}: stride {stride} beat perfect {perfect}",
                    r.workload.name
                );
                last_differs |= last != off;
                stride_differs |= stride != last;
                perfect_differs |= perfect != stride;
            }
            // Every mode schedules the same instructions.
            let seq = r.report_for(ValuePrediction::Off.name()).seq_instrs;
            for mode in ValuePrediction::ALL {
                assert_eq!(
                    r.report_for(mode.name()).seq_instrs,
                    seq,
                    "{}",
                    r.workload.name
                );
            }
        }
        // And the axis is live: each strengthening changes some schedule.
        assert!(last_differs, "last-value mode never changed a schedule");
        assert!(stride_differs, "stride mode never changed a schedule");
        assert!(perfect_differs, "perfect mode never changed a schedule");
        let md = suite.markdown();
        assert!(md.contains("## Value Prediction"));
        assert!(md.contains("### `off`"));
        assert!(md.contains("### `last-value`"));
        assert!(md.contains("### `stride`"));
        assert!(md.contains("### `perfect`"));
        assert!(md.contains("### Retention on SP-CD-MF"));
        assert!(md.contains("harmonic mean"));
        assert!(md.contains("- monotonicity"));
        assert!(md.contains("pointwise, both unroll settings): **pass**"));
        assert!(md.contains("stride-mode pipelines bit-identical"));
        assert!(md.contains("chunk 4096 events on the first): **pass**"));
        assert!(md.contains("scan"));
        // No alias-soundness gate on this axis.
        assert!(!md.contains("alias soundness"));
        assert!(suite.passed());
    }
}
