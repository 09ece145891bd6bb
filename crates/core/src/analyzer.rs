use std::sync::Arc;

use clfp_cfg::StaticInfo;
use clfp_isa::Program;
use clfp_vm::Trace;

use clfp_metrics::{MachineMetrics, MetricsCollector, MetricsSink, NullSink};

use crate::lane::{run_machine_major, LaneScheduler};
use crate::meta::{branches_under, ProgramMeta, TraceMeta, CD_INHERIT, CD_NONE};
use crate::pass::{
    mispredictions, reference_counts, run_pass, run_pass_with_schedule, PassResult, Prepared,
};
use crate::stats::MispredictionStats;
use crate::{
    AnalysisConfig, AnalyzeError, MachineKind, MemDisambiguation, StreamOptions, StreamedReports,
    ValuePrediction,
};

/// The control-dependence source the preparation walk resolved for one
/// dynamic instruction (Section 4.4.1): which controlling-branch instance
/// the CD-honoring machines serialize the instruction after.
///
/// Exposed for the `clfp-verify` static/dynamic cross-checker, which
/// asserts every [`CdSource::Branch`] pc lies in the executed
/// instruction's static reverse-dominance-frontier set.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CdSource {
    /// No controlling branch: control independent within its procedure
    /// invocation at top level, or dropped by the recursion cutoff.
    None,
    /// Inherited from the calling procedure's invocation (the event's
    /// procedure depends on the call site's own control dependence).
    Inherit,
    /// The latest executed instance of this static conditional-branch or
    /// computed-jump pc.
    Branch(u32),
}

/// Parallelism result for one machine.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MachineResult {
    /// The machine model.
    pub kind: MachineKind,
    /// Critical-path length in cycles.
    pub cycles: u64,
    /// Parallelism: sequential instructions / cycles.
    pub parallelism: f64,
}

/// Full analysis report for one program and configuration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Sequential dynamic instruction count (after inlining/unrolling
    /// removal) — the numerator of every parallelism figure.
    pub seq_instrs: u64,
    /// Raw dynamic instruction count (whole trace).
    pub raw_instrs: u64,
    /// Per-machine results, in the order requested.
    pub results: Vec<MachineResult>,
    /// Branch and prediction statistics (Table 2).
    pub branches: crate::stats::BranchReport,
    /// Misprediction-distance statistics from the SP machine
    /// (Figures 6, 7); present when `SP` was among the analyzed machines.
    pub mispred_stats: Option<MispredictionStats>,
}

impl Report {
    /// The parallelism measured for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not among the configured machines.
    pub fn parallelism(&self, kind: MachineKind) -> f64 {
        self.result(kind)
            .unwrap_or_else(|| panic!("machine {kind} was not analyzed"))
            .parallelism
    }

    /// The result for `kind`, if analyzed.
    pub fn result(&self, kind: MachineKind) -> Option<MachineResult> {
        self.results.iter().copied().find(|r| r.kind == kind)
    }
}

/// The trace-driven limit analyzer.
///
/// Construction runs the static analyses (CFG, control dependence, loops,
/// induction variables) and pre-decodes the per-PC metadata table;
/// [`Analyzer::run`] then streams the measured execution and simulates
/// every configured machine model over it in one walk of the scheduling
/// kernel. The paper's
/// profile-based branch predictor is trained on the measured trace itself
/// (the paper profiles "with the same inputs used in the simulations"), so
/// no separate profiling execution is needed.
#[derive(Debug)]
pub struct Analyzer<'a> {
    pub(crate) program: &'a Program,
    pub(crate) info: StaticInfo,
    pub(crate) meta: ProgramMeta,
    pub(crate) config: AnalysisConfig,
}

/// A trace plus everything machine-independent derived from it in a
/// single shared walk: event classification, branch statistics, decoded
/// operands, dynamic memory keys, value-predictor hits, and resolved
/// control-dependence sources. Produced by [`Analyzer::prepare`] for
/// callers that walk one preparation more than once (both unroll
/// settings, mode slices, machine-major metrics) or time it as a stage
/// of its own; a request that walks a trace once streams it instead
/// ([`Analyzer::run_streamed_on`]). The walk is independent of the
/// memory-disambiguation and value-prediction modes, so
/// [`PreparedTrace::slice_modes`] reports the same events under any
/// other mode.
#[derive(Debug)]
pub struct PreparedTrace<'a, 'b> {
    analyzer: &'b Analyzer<'a>,
    /// The configuration this preparation reports under — the analyzer's
    /// own for [`Analyzer::prepare`], a mode-swapped copy for
    /// [`PreparedTrace::slice_modes`].
    config: AnalysisConfig,
    /// The prepared events, shared by every slice.
    meta: Arc<TraceMeta>,
}

impl<'a> Analyzer<'a> {
    /// Prepares an analyzer: static analysis and per-PC metadata decode.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the program is structurally unusable,
    /// or if the configuration asks for a fetch bandwidth of zero.
    pub fn new(program: &'a Program, config: AnalysisConfig) -> Result<Analyzer<'a>, AnalyzeError> {
        if config.fetch_bandwidth == Some(0) {
            return Err(AnalyzeError::BadConfig(
                "fetch bandwidth must be at least one instruction per cycle".into(),
            ));
        }
        if program.text.is_empty() {
            return Err(AnalyzeError::BadProgram("empty text segment".into()));
        }
        if program.validate().is_err() {
            return Err(AnalyzeError::BadProgram(
                "branch or call target out of range".into(),
            ));
        }
        let info = StaticInfo::analyze(program);
        let meta = ProgramMeta::build(program, &info, &config);
        Ok(Analyzer {
            program,
            info,
            meta,
            config,
        })
    }

    /// The static analysis results (shared with callers that want to
    /// inspect control dependences or loops).
    pub fn static_info(&self) -> &StaticInfo {
        &self.info
    }

    /// Streams the measured execution through every configured machine
    /// model ([`Analyzer::run_streamed`] with the default options) and
    /// returns the report for the configured unroll setting.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the measured execution faults.
    pub fn run(&self) -> Result<Report, AnalyzeError> {
        let StreamedReports { unrolled, rolled } = self.run_streamed(StreamOptions::default())?;
        Ok(if self.config.unrolling {
            unrolled
        } else {
            rolled
        })
    }

    /// Runs the machine-independent preparation walk over a trace:
    /// branch-outcome profiling, prediction, the sequential counts under
    /// inlining/unrolling, operand decode, value-predictor training, and
    /// dynamic control-dependence resolution — shared by every machine
    /// model, by both unroll settings (via
    /// [`PreparedTrace::report_with_unrolling`]) and by every
    /// memory-disambiguation and value-prediction mode (via
    /// [`PreparedTrace::slice_modes`]).
    pub fn prepare<'b>(&'b self, trace: &Trace) -> PreparedTrace<'a, 'b> {
        PreparedTrace {
            analyzer: self,
            config: self.config.clone(),
            meta: Arc::new(TraceMeta::build(
                self.program,
                &self.info,
                &self.meta,
                &self.config,
                trace,
            )),
        }
    }

    /// Reference implementation of [`Analyzer::run`] over a captured
    /// trace: the original one-machine-at-a-time pass, which shares
    /// no scheduling code with the kernel. It is the independent oracle
    /// every pipeline is pinned against (the `lane_equivalence` suite
    /// asserts bit-for-bit equal reports) and the wall-time baseline of
    /// `regen --timing`. It classifies the events itself — it replays the
    /// configured branch predictor and value predictor and reads the
    /// ignore masks — and counts the report's branch and value-prediction
    /// statistics the same way, so it shares nothing with the preparation
    /// walk either.
    pub fn run_on_trace_reference(&self, trace: &Trace) -> Report {
        let mispred = mispredictions(self.program, &self.config, trace);
        let reference = self.reference(trace, &mispred);
        let passes = self
            .config
            .machines
            .iter()
            .map(|&kind| run_pass(&reference, kind))
            .collect();
        let (branches, not_ignored) = reference_counts(&reference);
        assemble_report(
            &self.config.machines,
            passes,
            not_ignored,
            trace.len() as u64,
            branches,
        )
    }

    /// Computes the per-instruction schedule for one machine over a trace:
    /// the cycle at which each dynamic instruction executes (0 for
    /// instructions removed by perfect inlining/unrolling). This is the
    /// paper's Figure 3 view of a machine model, computed by the reference
    /// pass.
    pub fn schedule(&self, trace: &Trace, kind: MachineKind) -> Vec<u64> {
        let mispred = mispredictions(self.program, &self.config, trace);
        let mut schedule = Vec::with_capacity(trace.len());
        run_pass_with_schedule(&self.reference(trace, &mispred), kind, Some(&mut schedule));
        schedule
    }

    /// The reference pass's input: `trace` under this analyzer's
    /// configuration, with the misprediction bit of every event.
    fn reference<'t>(&'t self, trace: &'t Trace, mispred: &'t [bool]) -> Prepared<'t> {
        Prepared {
            program: self.program,
            info: &self.info,
            events: trace.events(),
            mispred,
            config: &self.config,
        }
    }
}

impl<'a, 'b> PreparedTrace<'a, 'b> {
    /// This preparation under (`disambiguation`, `value_prediction`): the
    /// same shared events under a mode-swapped configuration, at no cost.
    /// The preparation walk is mode-free (dynamic memory keys, every
    /// value predictor's hit bits), and the lane groups apply a mode when
    /// they schedule, so any preparation slices to any mode. Bit-identical
    /// to a dedicated analyzer under the mode (asserted by the
    /// `mode_slices_match_dedicated_preparation` test and the
    /// `lane_equivalence` suite).
    pub fn slice_modes(
        &self,
        disambiguation: MemDisambiguation,
        value_prediction: ValuePrediction,
    ) -> PreparedTrace<'a, 'b> {
        PreparedTrace {
            analyzer: self.analyzer,
            config: self
                .config
                .clone()
                .with_disambiguation(disambiguation)
                .with_value_prediction(value_prediction),
            meta: Arc::clone(&self.meta),
        }
    }

    /// The resolved control-dependence source of every dynamic
    /// instruction, in trace order (machine-independent; see
    /// [`CdSource`]).
    pub fn cd_sources(&self) -> impl Iterator<Item = CdSource> + '_ {
        self.meta.events.iter().map(|event| match event.cd {
            CD_NONE => CdSource::None,
            CD_INHERIT => CdSource::Inherit,
            pc => CdSource::Branch(pc),
        })
    }

    /// Runs every configured machine over the prepared trace with the
    /// recording metrics sink, returning per-machine execution metrics:
    /// cycle-occupancy histograms, critical-path attribution, and
    /// binding-edge counters (see `clfp-metrics`). The machines run one
    /// at a time, each in a width-1 recording group of the scheduling
    /// kernel — unlike [`PreparedTrace::report_both`] this path is for offline
    /// diagnosis, not throughput; its results re-derive the report's
    /// cycle and instruction counts exactly (asserted by the
    /// `recording_sink_does_not_perturb_results` test and, against the
    /// reference pass, by the `lane_equivalence` suite).
    pub fn machine_metrics(&self) -> Vec<(MachineKind, MachineMetrics)> {
        self.machine_metrics_with_unrolling(self.config.unrolling)
    }

    /// Like [`PreparedTrace::machine_metrics`], but overriding the
    /// unrolling setting (the metrics analogue of
    /// [`PreparedTrace::report_with_unrolling`]).
    pub fn machine_metrics_with_unrolling(
        &self,
        unrolling: bool,
    ) -> Vec<(MachineKind, MachineMetrics)> {
        let events = self.meta.events.len();
        let walks = self.machine_major(
            unrolling,
            || MetricsCollector::with_capacity(events),
            MetricsCollector::finish,
        );
        self.config
            .machines
            .iter()
            .zip(walks)
            .map(|(&kind, (_, metrics))| (kind, metrics))
            .collect()
    }

    /// Runs every configured machine model over the prepared trace under
    /// one unroll setting. Nothing the preparation walk records depends on
    /// the setting (the ignore flags are per pc), so Table 4's
    /// with/without comparison needs only one prepared trace.
    ///
    /// Runs the lane-parallel kernel: every configured machine is
    /// scheduled in one walk over the event stream (see the `lane`
    /// module). Bit-identical to [`Analyzer::run_on_trace_reference`] under
    /// that setting.
    pub fn report_with_unrolling(&self, unrolling: bool) -> Report {
        let passes = self.walk(&[self.mode()], &[unrolling]);
        self.assemble(unrolling, self.config.value_prediction, passes)
    }

    /// Both unroll settings from one lane-parallel walk: all machine ×
    /// setting slots (up to 14) are scheduled reading each event exactly
    /// once. Returns `(unrolled, rolled)` reports — the benchmark suite's
    /// Table 4 path, and the one-mode [`PreparedTrace::report_mode_matrix`].
    pub fn report_both(&self) -> (Report, Report) {
        let mut matrix = self.report_mode_matrix(&[self.mode()]);
        matrix.pop().expect("one mode, one report pair")
    }

    /// The full mode × machine × unroll table from **one** walk over the
    /// prepared events: every requested (disambiguation, value-prediction)
    /// mode contributes its machine × unroll lanes to the same lane
    /// scheduler — each mode's lane groups key memory under its
    /// disambiguation, and each lane masks its value-prediction hit bit,
    /// the same masking the kernel uses for unroll settings. Returns
    /// `(unrolled, rolled)` report pairs in `modes` order, each
    /// bit-identical to a dedicated analyzer under that mode (asserted by
    /// the `mode_matrix_matches_slices` test and the suite gates).
    pub fn report_mode_matrix(
        &self,
        modes: &[(MemDisambiguation, ValuePrediction)],
    ) -> Vec<(Report, Report)> {
        let machines = self.config.machines.len();
        let mut passes = self.walk(modes, &[true, false]).into_iter();
        modes
            .iter()
            .map(|&(_, value_prediction)| {
                let unrolled = passes.by_ref().take(machines).collect();
                let rolled = passes.by_ref().take(machines).collect();
                (
                    self.assemble(true, value_prediction, unrolled),
                    self.assemble(false, value_prediction, rolled),
                )
            })
            .collect()
    }

    /// [`PreparedTrace::report_with_unrolling`] packed machine-major: one
    /// width-1 group of the same kernel per machine, N walks over the
    /// events — the packing the recording metrics paths use. Bit-identical
    /// to the one-walk packing; kept as a public entry point for callers
    /// that compare the two packings or time them.
    pub fn report_with_unrolling_scalar(&self, unrolling: bool) -> Report {
        let walks = self.machine_major(unrolling, || NullSink, |_| ());
        let passes = walks.into_iter().map(|(pass, ())| pass).collect();
        self.assemble(unrolling, self.config.value_prediction, passes)
    }

    /// This preparation's configured (disambiguation, value-prediction)
    /// mode.
    fn mode(&self) -> (MemDisambiguation, ValuePrediction) {
        (self.config.disambiguation, self.config.value_prediction)
    }

    /// One lane-kernel walk over the prepared events, scheduling every
    /// `modes` × `unrolls` × machine slot; results in slot order (see
    /// [`LaneScheduler::new`]). The prepared events are emitted to the
    /// lane driver as one chunk.
    fn walk(
        &self,
        modes: &[(MemDisambiguation, ValuePrediction)],
        unrolls: &[bool],
    ) -> Vec<PassResult> {
        let pcs = &self.analyzer.meta;
        let sched = LaneScheduler::new(pcs, &self.config, modes, unrolls, self.mem_capacity());
        let walked = sched.run(pcs, 0, |emit| {
            emit(&self.meta.events[..]);
            Ok::<(), std::convert::Infallible>(())
        });
        walked.unwrap_or_else(|never| match never {})
    }

    /// Runs the configured machines through the kernel's machine-major
    /// driver ([`run_machine_major`](crate::lane::run_machine_major)):
    /// each machine's group reports every prepared event to a fresh sink
    /// from `new_sink`, which `distill` consumes before the next machine
    /// runs.
    fn machine_major<S: MetricsSink + 'static, T>(
        &self,
        unrolling: bool,
        mut new_sink: impl FnMut() -> S,
        mut distill: impl FnMut(S) -> T,
    ) -> Vec<(PassResult, T)> {
        let pcs = &self.analyzer.meta;
        run_machine_major(pcs, &self.config, unrolling, self.mem_capacity(), |group| {
            let mut sink = new_sink();
            group.feed(pcs, &self.meta.events, &mut sink);
            distill(sink)
        })
    }

    /// Last-write-table sizing hint for perfect disambiguation: the
    /// trace's measured distinct memory-key count (clamped below by the
    /// tables' minimum).
    fn mem_capacity(&self) -> usize {
        self.meta.distinct_mem_keys.min(1 << 28) as usize
    }

    /// Folds per-machine pass results at one unroll setting into a
    /// [`Report`], with the branch report's value-prediction hits taken
    /// under `value_prediction`.
    fn assemble(
        &self,
        unrolling: bool,
        value_prediction: ValuePrediction,
        passes: Vec<PassResult>,
    ) -> Report {
        assemble_report(
            &self.config.machines,
            passes,
            self.meta.not_ignored(unrolling),
            self.meta.events.len() as u64,
            branches_under(self.meta.branches, &self.meta.vp_hits, value_prediction),
        )
    }
}

/// Folds per-machine pass results into a [`Report`] — shared between the
/// in-memory path ([`PreparedTrace`]) and the streaming path
/// (`Analyzer::run_streamed_on`), so both produce reports through
/// identical arithmetic.
pub(crate) fn assemble_report(
    machines: &[MachineKind],
    passes: Vec<PassResult>,
    not_ignored: u64,
    raw_instrs: u64,
    branches: crate::stats::BranchReport,
) -> Report {
    let mut results = Vec::with_capacity(passes.len());
    let mut mispred_stats = None;
    let mut seq_instrs = not_ignored;
    for (&kind, pass) in machines.iter().zip(passes) {
        seq_instrs = pass.count;
        let parallelism = if pass.cycles == 0 {
            1.0
        } else {
            pass.count as f64 / pass.cycles as f64
        };
        results.push(MachineResult {
            kind,
            cycles: pass.cycles,
            parallelism,
        });
        if let Some(stats) = pass.mispred_stats {
            mispred_stats = Some(stats);
        }
    }

    Report {
        seq_instrs,
        raw_instrs,
        results,
        branches,
        mispred_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorChoice;
    use clfp_lang::compile;
    use clfp_vm::VmOptions;

    fn analyze(source: &str, config: AnalysisConfig) -> Report {
        let program = compile(source).unwrap();
        Analyzer::new(&program, config).unwrap().run().unwrap()
    }

    const LOOPY: &str = r#"
        var data: int[64];
        fn main() -> int {
            var seed: int = 12345;
            for (var i: int = 0; i < 64; i = i + 1) {
                seed = seed * 1103515245 + 12345;
                data[i] = seed % 100;
            }
            var s: int = 0;
            for (var i: int = 0; i < 64; i = i + 1) {
                if (data[i] > 50) { s = s + data[i]; }
            }
            return s;
        }
    "#;

    #[test]
    fn machine_hierarchy_on_compiled_code() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        for kind in MachineKind::ALL {
            for &weaker in kind.dominates() {
                assert!(
                    report.parallelism(weaker) <= report.parallelism(kind) + 1e-9,
                    "{weaker} > {kind}: {} vs {}",
                    report.parallelism(weaker),
                    report.parallelism(kind)
                );
            }
        }
        // Base should be modest, oracle substantially higher.
        assert!(report.parallelism(MachineKind::Base) >= 1.0);
        assert!(report.parallelism(MachineKind::Oracle) > report.parallelism(MachineKind::Base));
    }

    #[test]
    fn branch_report_is_populated() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        assert!(report.branches.cond_branches > 60);
        assert!(report.branches.prediction_rate() > 50.0);
        assert!(report.branches.instrs_between_branches() > 1.0);
        assert!(report.raw_instrs > report.seq_instrs);
    }

    #[test]
    fn mispred_stats_present_when_sp_runs() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        assert!(report.mispred_stats.is_some());
        let only_oracle =
            AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]);
        let report = analyze(LOOPY, only_oracle);
        assert!(report.mispred_stats.is_none());
    }

    #[test]
    fn unrolling_changes_results() {
        let on = analyze(LOOPY, AnalysisConfig::quick().with_unrolling(true));
        let off = analyze(LOOPY, AnalysisConfig::quick().with_unrolling(false));
        assert!(on.seq_instrs < off.seq_instrs);
    }

    #[test]
    fn predictor_choice_affects_sp() {
        let profile = analyze(LOOPY, AnalysisConfig::quick());
        let always = analyze(
            LOOPY,
            AnalysisConfig::quick().with_predictor(PredictorChoice::AlwaysTaken),
        );
        // The profile predictor is at least as accurate as always-taken.
        assert!(
            profile.branches.prediction_rate() >= always.branches.prediction_rate() - 1e-9
        );
    }

    #[test]
    fn oracle_equals_sp_family_upper_bound() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        let oracle = report.parallelism(MachineKind::Oracle);
        for kind in MachineKind::ALL {
            assert!(report.parallelism(kind) <= oracle + 1e-9);
        }
    }

    #[test]
    fn fetch_bandwidth_one_serializes_completely() {
        let program = compile(LOOPY).unwrap();
        let config = AnalysisConfig::quick()
            .with_machines(&[MachineKind::Oracle])
            .with_fetch_bandwidth(1);
        let report = Analyzer::new(&program, config).unwrap().run().unwrap();
        // One instruction per cycle: even ORACLE degenerates to sequential
        // execution (parallelism ~1).
        let result = report.result(MachineKind::Oracle).unwrap();
        assert_eq!(result.cycles, report.seq_instrs);
    }

    #[test]
    fn fetch_bandwidth_is_monotone() {
        let program = compile(LOOPY).unwrap();
        let run = |width: Option<u64>| {
            let mut config = AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]);
            config.fetch_bandwidth = width;
            Analyzer::new(&program, config)
                .unwrap()
                .run()
                .unwrap()
                .parallelism(MachineKind::Oracle)
        };
        let narrow = run(Some(4));
        let wide = run(Some(64));
        let unlimited = run(None);
        assert!(narrow <= wide + 1e-9, "{narrow} vs {wide}");
        assert!(wide <= unlimited + 1e-9, "{wide} vs {unlimited}");
        assert!(narrow <= 4.0 + 1e-9, "width-4 front end caps IPC at 4");
    }

    #[test]
    fn coarser_disambiguation_never_helps() {
        let program = compile(LOOPY).unwrap();
        let run = |bytes: u32| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle, MachineKind::SpCdMf])
                .with_disambiguation_bytes(bytes);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let word = run(4);
        let line = run(64);
        for kind in [MachineKind::Oracle, MachineKind::SpCdMf] {
            assert!(
                line.result(kind).unwrap().cycles >= word.result(kind).unwrap().cycles,
                "{kind}: coarser granularity shortened the critical path"
            );
        }
        // On this array-heavy program, 64-byte blocks must actually create
        // false dependences.
        assert!(
            line.result(MachineKind::Oracle).unwrap().cycles
                > word.result(MachineKind::Oracle).unwrap().cycles
        );
    }

    #[test]
    fn disabling_renaming_enforces_false_dependences() {
        let program = compile(LOOPY).unwrap();
        let renamed = Analyzer::new(
            &program,
            AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]),
        )
        .unwrap()
        .run()
        .unwrap();
        let unrenamed = Analyzer::new(
            &program,
            AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle])
                .with_rename(false),
        )
        .unwrap()
        .run()
        .unwrap();
        // Reusing the same registers serially chains the whole program.
        assert!(
            unrenamed.parallelism(MachineKind::Oracle)
                < renamed.parallelism(MachineKind::Oracle) / 2.0,
            "renamed {:.1} vs unrenamed {:.1}",
            renamed.parallelism(MachineKind::Oracle),
            unrenamed.parallelism(MachineKind::Oracle)
        );
    }

    #[test]
    fn latencies_stretch_the_critical_path() {
        let program = compile(LOOPY).unwrap();
        let unit = Analyzer::new(
            &program,
            AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]),
        )
        .unwrap()
        .run()
        .unwrap();
        let slow = Analyzer::new(
            &program,
            AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle])
                .with_latency(crate::Latencies {
                    load: 3,
                    mul_div: 6,
                    other: 1,
                }),
        )
        .unwrap()
        .run()
        .unwrap();
        let unit_cycles = unit.result(MachineKind::Oracle).unwrap().cycles;
        let slow_cycles = slow.result(MachineKind::Oracle).unwrap().cycles;
        assert!(slow_cycles > unit_cycles);
        // And bounded: at most 6x the unit-latency path.
        assert!(slow_cycles <= unit_cycles * 6);
    }

    #[test]
    fn rejects_empty_program() {
        let program = Program::new();
        let err = Analyzer::new(&program, AnalysisConfig::quick()).unwrap_err();
        assert!(matches!(err, AnalyzeError::BadProgram(_)));
    }

    #[test]
    fn result_lookup() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        assert!(report.result(MachineKind::Cd).is_some());
        let restricted = analyze(
            LOOPY,
            AnalysisConfig::quick().with_machines(&[MachineKind::Base]),
        );
        assert!(restricted.result(MachineKind::Oracle).is_none());
    }

    #[test]
    fn cd_sources_cover_every_event() {
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        let sources: Vec<CdSource> = prepared.cd_sources().collect();
        assert_eq!(sources.len(), trace.len());
        // The loopy program must resolve at least one in-procedure branch
        // dependence, and every resolved pc must actually be a branch.
        assert!(sources.iter().any(|s| matches!(s, CdSource::Branch(_))));
        for source in &sources {
            if let CdSource::Branch(pc) = source {
                let instr = program.text[*pc as usize];
                assert!(instr.is_cond_branch() || instr.is_computed_jump());
            }
        }
    }

    #[test]
    fn static_disambiguation_agrees_across_pipelines() {
        use crate::MemDisambiguation;
        let program = compile(LOOPY).unwrap();
        for mode in [MemDisambiguation::Static, MemDisambiguation::None] {
            let config = AnalysisConfig::quick().with_disambiguation(mode);
            let analyzer = Analyzer::new(&program, config).unwrap();
            let mut vm = clfp_vm::Vm::new(
                &program,
                VmOptions {
                    mem_words: analyzer.config.mem_words,
                },
            );
            let trace = vm.trace(analyzer.config.max_instrs).unwrap();
            let lane = analyzer.prepare(&trace).report_with_unrolling(true);
            let reference = analyzer.run_on_trace_reference(&trace);
            let streamed = analyzer
                .run_streamed(crate::StreamOptions {
                    chunk_events: 4096,
                    machine_threads: 0,
                })
                .unwrap();
            for report in [&reference, &streamed.unrolled] {
                assert_eq!(lane.seq_instrs, report.seq_instrs, "{mode:?}");
                for (a, b) in lane.results.iter().zip(&report.results) {
                    assert_eq!(a.kind, b.kind, "{mode:?}");
                    assert_eq!(a.cycles, b.cycles, "{mode:?} {:?}", a.kind);
                }
            }
        }
    }

    #[test]
    fn value_prediction_agrees_across_pipelines() {
        use crate::ValuePrediction;
        let program = compile(LOOPY).unwrap();
        for mode in [
            ValuePrediction::LastValue,
            ValuePrediction::Stride,
            ValuePrediction::Perfect,
        ] {
            let config = AnalysisConfig::quick().with_value_prediction(mode);
            let analyzer = Analyzer::new(&program, config).unwrap();
            let mut vm = clfp_vm::Vm::new(
                &program,
                VmOptions {
                    mem_words: analyzer.config.mem_words,
                },
            );
            let trace = vm.trace(analyzer.config.max_instrs).unwrap();
            let lane = analyzer.prepare(&trace).report_with_unrolling(true);
            let reference = analyzer.run_on_trace_reference(&trace);
            let streamed = analyzer
                .run_streamed(crate::StreamOptions {
                    chunk_events: 4096,
                    machine_threads: 0,
                })
                .unwrap();
            for report in [&reference, &streamed.unrolled] {
                assert_eq!(lane.seq_instrs, report.seq_instrs, "{mode:?}");
                for (a, b) in lane.results.iter().zip(&report.results) {
                    assert_eq!(a.kind, b.kind, "{mode:?}");
                    assert_eq!(a.cycles, b.cycles, "{mode:?} {:?}", a.kind);
                }
            }
        }
    }

    // The value-prediction ordering is also a theorem: the correct sets
    // nest (off = ∅ ⊆ last-value ⊆ stride-hybrid ⊆ perfect = all defs)
    // and a correctly predicted producer only ever *lowers* the published
    // availability time, so under monotone max-folds
    // `perfect <= stride <= last-value <= off` in cycles, pointwise.
    #[test]
    fn weaker_value_prediction_never_helps() {
        use crate::ValuePrediction;
        let program = compile(LOOPY).unwrap();
        let run = |mode: ValuePrediction| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Base, MachineKind::Sp, MachineKind::Oracle])
                .with_value_prediction(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let off = run(ValuePrediction::Off);
        let last = run(ValuePrediction::LastValue);
        let stride = run(ValuePrediction::Stride);
        let perfect = run(ValuePrediction::Perfect);
        for kind in [MachineKind::Base, MachineKind::Sp, MachineKind::Oracle] {
            let o = off.result(kind).unwrap().cycles;
            let l = last.result(kind).unwrap().cycles;
            let s = stride.result(kind).unwrap().cycles;
            let p = perfect.result(kind).unwrap().cycles;
            assert!(l <= o, "{kind}: last-value lost to off ({l} vs {o})");
            assert!(s <= l, "{kind}: stride lost to last-value ({s} vs {l})");
            assert!(p <= s, "{kind}: perfect lost to stride ({p} vs {s})");
        }
        // Strict separation on a hand-built chain: an induction chain a
        // stride predictor follows but last-value misses, behind a chain
        // of irregular values only the oracle predicts.
        let program = clfp_isa::assemble(
            r#"
            .text
            main:
                li r8, 0
                li r9, 99
            loop:
                addi r8, r8, 1     # stride-predictable chain
                mul r10, r8, r8    # irregular: only Perfect breaks it
                add r11, r11, r10
                bgt r9, r8, loop
                halt
            "#,
        )
        .unwrap();
        let run = |mode: ValuePrediction| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Base])
                .with_unrolling(false)
                .with_value_prediction(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let o = run(ValuePrediction::Off).result(MachineKind::Base).unwrap().cycles;
        let s = run(ValuePrediction::Stride)
            .result(MachineKind::Base)
            .unwrap()
            .cycles;
        let p = run(ValuePrediction::Perfect)
            .result(MachineKind::Base)
            .unwrap()
            .cycles;
        assert!(s < o, "stride should break the induction chain ({s} vs {o})");
        assert!(p < s, "perfect should break the irregular chain ({p} vs {s})");
    }

    // Monotonicity is a theorem, not a trend: coarse modes fold stores
    // into the last-write table with a running max
    // (`MemDisambiguation::accumulates`), so refining the key partition
    // can only remove constraints. `perfect <= static <= none` in
    // cycles, pointwise on every machine.
    #[test]
    fn weaker_disambiguation_never_helps() {
        use crate::MemDisambiguation;
        let program = compile(LOOPY).unwrap();
        let run = |mode: MemDisambiguation| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle, MachineKind::SpCdMf])
                .with_disambiguation(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let perfect = run(MemDisambiguation::Perfect);
        let stat = run(MemDisambiguation::Static);
        let none = run(MemDisambiguation::None);
        for kind in [MachineKind::Oracle, MachineKind::SpCdMf] {
            let p = perfect.result(kind).unwrap().cycles;
            let s = stat.result(kind).unwrap().cycles;
            let n = none.result(kind).unwrap().cycles;
            assert!(p <= s, "{kind}: static beat the oracle ({p} vs {s})");
            assert!(s <= n, "{kind}: no disambiguation beat static ({s} vs {n})");
        }
        // Strict separation needs disjoint global chains that frame
        // traffic doesn't drown out: `a`'s serial region chain slows
        // Static past the oracle, while `b`'s load only serializes when
        // all of memory is one location.
        let program = clfp_isa::assemble(
            r#"
            .data
            a: .space 64
            b: .space 64
            .text
            main:
                li r8, 1
                sw r8, 0x1000(r0)  # a[0]
                lw r9, 0x1004(r0)  # a[1]: independent only under Perfect
                sw r9, 0x1008(r0)  # a[2]: extends the region chain
                lw r10, 0x1044(r0) # b[1]: serializes only under None
                add r11, r10, r10
                halt
            "#,
        )
        .unwrap();
        let run = |mode: MemDisambiguation| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle])
                .with_disambiguation(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let p = run(MemDisambiguation::Perfect)
            .result(MachineKind::Oracle)
            .unwrap()
            .cycles;
        let s = run(MemDisambiguation::Static)
            .result(MachineKind::Oracle)
            .unwrap()
            .cycles;
        let n = run(MemDisambiguation::None)
            .result(MachineKind::Oracle)
            .unwrap()
            .cycles;
        assert!(p < s, "static should serialize some oracle parallelism ({p} vs {s})");
        assert!(s < n, "static should beat a single-location memory ({s} vs {n})");
    }

    // Mode slicing is a refactoring of preparation, not an approximation:
    // a slice of one shared preparation must be indistinguishable from
    // preparing from scratch under the mode — reports, branch statistics,
    // and misprediction stats all included.
    #[test]
    fn mode_slices_match_dedicated_preparation() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let base_config = AnalysisConfig::quick();
        let analyzer = Analyzer::new(&program, base_config.clone()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        for dis in MemDisambiguation::ALL {
            for vp in ValuePrediction::ALL {
                let slice = prepared.slice_modes(dis, vp);
                let (slice_unrolled, slice_rolled) = slice.report_both();
                let config = base_config
                    .clone()
                    .with_disambiguation(dis)
                    .with_value_prediction(vp);
                let dedicated = Analyzer::new(&program, config).unwrap();
                let (full_unrolled, full_rolled) = dedicated.prepare(&trace).report_both();
                let reference = dedicated.run_on_trace_reference(&trace);
                for (got, want) in [
                    (&slice_unrolled, &full_unrolled),
                    (&slice_rolled, &full_rolled),
                    (&slice_unrolled, &reference),
                ] {
                    assert_eq!(got.seq_instrs, want.seq_instrs, "{dis:?}/{vp:?}");
                    assert_eq!(got.raw_instrs, want.raw_instrs, "{dis:?}/{vp:?}");
                    assert_eq!(got.branches, want.branches, "{dis:?}/{vp:?}");
                    assert_eq!(got.mispred_stats, want.mispred_stats, "{dis:?}/{vp:?}");
                    for (a, b) in got.results.iter().zip(&want.results) {
                        assert_eq!(a.kind, b.kind, "{dis:?}/{vp:?}");
                        assert_eq!(a.cycles, b.cycles, "{dis:?}/{vp:?} {:?}", a.kind);
                    }
                }
            }
        }
    }

    // The one-walk mode matrix is the same arithmetic as per-mode slices
    // (and therefore as dedicated preparations — see
    // `mode_slices_match_dedicated_preparation`), just scheduled in one
    // pass: every (mode, machine, unroll) cell must agree exactly.
    #[test]
    fn mode_matrix_matches_slices() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        let mut modes = Vec::new();
        for dis in MemDisambiguation::ALL {
            for vp in ValuePrediction::ALL {
                modes.push((dis, vp));
            }
        }
        let matrix = prepared.report_mode_matrix(&modes);
        assert_eq!(matrix.len(), modes.len());
        for (&(dis, vp), (mat_unrolled, mat_rolled)) in modes.iter().zip(&matrix) {
            let slice = prepared.slice_modes(dis, vp);
            let (slice_unrolled, slice_rolled) = slice.report_both();
            for (got, want) in [(mat_unrolled, &slice_unrolled), (mat_rolled, &slice_rolled)] {
                assert_eq!(got.seq_instrs, want.seq_instrs, "{dis:?}/{vp:?}");
                assert_eq!(got.raw_instrs, want.raw_instrs, "{dis:?}/{vp:?}");
                assert_eq!(got.branches, want.branches, "{dis:?}/{vp:?}");
                assert_eq!(got.mispred_stats, want.mispred_stats, "{dis:?}/{vp:?}");
                for (a, b) in got.results.iter().zip(&want.results) {
                    assert_eq!(a.kind, b.kind, "{dis:?}/{vp:?}");
                    assert_eq!(a.cycles, b.cycles, "{dis:?}/{vp:?} {:?}", a.kind);
                }
            }
        }
    }

    // The metrics path (width-1 recording groups over per-mode slices)
    // must describe exactly the schedules the one-walk lane matrix
    // reports: same machines, same cycle and instruction counts,
    // for every mode cell — otherwise the attribution tables would
    // diagnose a schedule nobody ran.
    #[test]
    fn mode_matrix_metrics_match_matrix_cycles() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        let modes = [
            (MemDisambiguation::Perfect, ValuePrediction::Off),
            (MemDisambiguation::Static, ValuePrediction::Stride),
            (MemDisambiguation::None, ValuePrediction::Perfect),
        ];
        let matrix = prepared.report_mode_matrix(&modes);
        for unrolling in [true, false] {
            let metrics: Vec<_> = modes
                .iter()
                .map(|&(dis, vp)| {
                    prepared
                        .slice_modes(dis, vp)
                        .machine_metrics_with_unrolling(unrolling)
                })
                .collect();
            assert_eq!(metrics.len(), modes.len());
            for ((&(dis, vp), (mat_unrolled, mat_rolled)), mode_metrics) in
                modes.iter().zip(&matrix).zip(&metrics)
            {
                let report = if unrolling { mat_unrolled } else { mat_rolled };
                assert_eq!(mode_metrics.len(), report.results.len());
                for ((kind, m), r) in mode_metrics.iter().zip(&report.results) {
                    assert_eq!(*kind, r.kind, "{dis:?}/{vp:?}");
                    assert_eq!(m.cycles, r.cycles, "{dis:?}/{vp:?} {:?}", r.kind);
                    assert!(m.instrs > 0, "{dis:?}/{vp:?} {:?}", r.kind);
                }
            }
        }
    }

    // Preparation is mode-free, so a preparation under any mode slices to
    // any other: here from the coarsest disambiguation with value
    // prediction off to a finer disambiguation and to both realistic
    // value predictors.
    #[test]
    fn any_preparation_slices_to_any_mode() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let base_config = AnalysisConfig::quick()
            .with_disambiguation(MemDisambiguation::None)
            .with_value_prediction(ValuePrediction::Off);
        let analyzer = Analyzer::new(&program, base_config.clone()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        for (dis, vp) in [
            (MemDisambiguation::Static, ValuePrediction::Off),
            (MemDisambiguation::Perfect, ValuePrediction::Stride),
            (MemDisambiguation::Perfect, ValuePrediction::LastValue),
        ] {
            let (slice_unrolled, slice_rolled) = prepared.slice_modes(dis, vp).report_both();
            for (unrolling, got) in [(true, &slice_unrolled), (false, &slice_rolled)] {
                let config = base_config
                    .clone()
                    .with_disambiguation(dis)
                    .with_value_prediction(vp)
                    .with_unrolling(unrolling);
                let want = Analyzer::new(&program, config)
                    .unwrap()
                    .run_on_trace_reference(&trace);
                let tag = format!("{dis:?}/{vp:?} unroll={unrolling}");
                assert_eq!(got.branches, want.branches, "{tag}");
                assert_eq!(got.mispred_stats, want.mispred_stats, "{tag}");
                assert_eq!(got.results.len(), want.results.len(), "{tag}");
                for (a, b) in got.results.iter().zip(&want.results) {
                    assert_eq!(a.kind, b.kind, "{tag}");
                    assert_eq!(a.cycles, b.cycles, "{tag} {:?}", a.kind);
                }
            }
        }
    }

    #[test]
    fn reference_path_matches_lane_run() {
        let program = compile(LOOPY).unwrap();
        let config = AnalysisConfig::quick();
        let analyzer = Analyzer::new(&program, config).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let lane = analyzer.run().unwrap();
        let reference = analyzer.run_on_trace_reference(&trace);
        assert_eq!(lane.seq_instrs, reference.seq_instrs);
        assert_eq!(lane.raw_instrs, reference.raw_instrs);
        assert_eq!(lane.branches, reference.branches);
        assert_eq!(lane.mispred_stats, reference.mispred_stats);
        for (f, r) in lane.results.iter().zip(&reference.results) {
            assert_eq!(f.kind, r.kind);
            assert_eq!(f.cycles, r.cycles);
            assert!((f.parallelism - r.parallelism).abs() < 1e-12);
        }
    }
}
