//! Tracing must observe the pipeline, never steer it: with the span
//! recorder actively collecting, every report — reference pass, lane
//! kernel and streamed — and every machine's recorded metrics must be
//! **bit-identical** to the untraced run, where every span is an inert
//! guard. One test body, not several: the tracing switch is
//! process-global, so the on/off comparison must not interleave with
//! other tests in this binary.

use clfp_limits::{AnalysisConfig, Analyzer, MachineKind, MachineMetrics, Report, StreamOptions};
use clfp_metrics::trace;
use clfp_vm::{Trace, Vm, VmOptions};

fn assert_reports_identical(got: &Report, want: &Report, tag: &str) {
    assert_eq!(got.seq_instrs, want.seq_instrs, "{tag}: seq_instrs");
    assert_eq!(got.raw_instrs, want.raw_instrs, "{tag}: raw_instrs");
    assert_eq!(got.branches, want.branches, "{tag}: branches");
    assert_eq!(got.mispred_stats, want.mispred_stats, "{tag}: mispred");
    assert_eq!(got.results.len(), want.results.len(), "{tag}: machines");
    for (g, w) in got.results.iter().zip(&want.results) {
        assert_eq!(g.kind, w.kind, "{tag}");
        assert_eq!(g.cycles, w.cycles, "{tag} {}", g.kind);
        assert_eq!(
            g.parallelism.to_bits(),
            w.parallelism.to_bits(),
            "{tag} {}: parallelism bits",
            g.kind
        );
    }
}

fn assert_metrics_identical(
    got: &[(MachineKind, MachineMetrics)],
    want: &[(MachineKind, MachineMetrics)],
    tag: &str,
) {
    assert_eq!(got.len(), want.len(), "{tag}: machines");
    for ((kind, g), (want_kind, w)) in got.iter().zip(want) {
        assert_eq!(kind, want_kind, "{tag}");
        assert_eq!((g.instrs, g.cycles), (w.instrs, w.cycles), "{tag} {kind}");
        assert_eq!(g.occupancy, w.occupancy, "{tag} {kind}: occupancy");
        assert_eq!(g.attribution, w.attribution, "{tag} {kind}: attribution");
        assert_eq!(g.flow, w.flow, "{tag} {kind}: flow");
    }
}

fn trace_of(program: &clfp_isa::Program, config: &AnalysisConfig) -> Trace {
    let mut vm = Vm::new(
        program,
        VmOptions {
            mem_words: config.mem_words,
        },
    );
    vm.trace(config.max_instrs).unwrap()
}

/// Every report the pipeline can produce for `program` under `config`:
/// (reference unrolled, reference rolled, lane unrolled, lane rolled,
/// streamed unrolled, streamed rolled).
fn all_reports(program: &clfp_isa::Program, config: &AnalysisConfig) -> Vec<Report> {
    let analyzer = Analyzer::new(program, config.clone()).unwrap();
    let trace = trace_of(program, config);
    let prepared = analyzer.prepare(&trace);
    let (lane_unrolled, lane_rolled) = prepared.report_both();
    let streamed = analyzer
        .run_streamed_on(&trace, StreamOptions::default())
        .unwrap();
    let reference = |unrolling: bool| {
        Analyzer::new(program, config.clone().with_unrolling(unrolling))
            .unwrap()
            .run_on_trace_reference(&trace)
    };
    vec![
        reference(true),
        reference(false),
        lane_unrolled,
        lane_rolled,
        streamed.unrolled,
        streamed.rolled,
    ]
}

#[test]
fn tracing_does_not_perturb_reports() {
    let config = AnalysisConfig::quick().with_max_instrs(20_000);
    let workloads = ["qsort", "parse"];

    for name in workloads {
        let workload = clfp_workloads::by_name(name).unwrap();
        let program = workload.compile().unwrap();

        let analyzer = Analyzer::new(&program, config.clone()).unwrap();
        let events = trace_of(&program, &config);
        let prepared = analyzer.prepare(&events);

        trace::set_tracing(false);
        trace::drain();
        let untraced = all_reports(&program, &config);
        let untraced_metrics = prepared.machine_metrics();
        assert!(
            trace::drain().records.is_empty(),
            "{name}: spans recorded while tracing was off"
        );

        // The recording walk, traced on its own: one `lane.group` span
        // per recording group, the CD group and the non-CD group.
        trace::set_tracing(true);
        let traced_metrics = prepared.machine_metrics();
        let recording_log = trace::drain();
        assert_metrics_identical(&traced_metrics, &untraced_metrics, name);
        let groups = recording_log
            .spans()
            .filter(|s| s.name == "lane.group")
            .count();
        assert_eq!(groups, 2, "{name}: lane.group spans of the recording walk");

        let traced = all_reports(&program, &config);
        trace::set_tracing(false);
        let log = trace::drain();

        // Both unroll settings for every configured machine, in every
        // pipeline, with an actively recording tracer.
        let machines = config.machines.len();
        assert_eq!(machines, 7, "quick config runs all 7 machines");
        for (i, (got, want)) in traced.iter().zip(&untraced).enumerate() {
            assert_eq!(got.results.len(), machines, "{name}: report {i}");
            assert_reports_identical(got, want, &format!("{name}: report {i}"));
        }

        // The traced run must actually have traced the pipeline it ran.
        for span in ["vm.trace", "prepare.build", "stream.pass2", "lane.group"] {
            assert!(
                log.spans().any(|s| s.name == span),
                "{name}: no `{span}` span in the traced run"
            );
        }
    }
}
