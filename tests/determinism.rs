//! Determinism guarantees: tracing, analysis, and compilation are pure
//! functions of their inputs. This is what makes the published tables
//! reproducible bit-for-bit and the trace-file workflow sound.

use clfp::limits::{AnalysisConfig, Analyzer, MachineKind, StreamOptions};
use clfp::vm::{FileTraceSource, Vm, VmOptions};
use clfp::workloads::by_name;

#[test]
fn tracing_is_deterministic() {
    let program = by_name("logic").unwrap().compile().unwrap();
    let trace = |()| {
        let mut vm = Vm::new(&program, VmOptions::default());
        vm.trace(50_000).unwrap()
    };
    let a = trace(());
    let b = trace(());
    assert_eq!(a.events(), b.events());
}

#[test]
fn compilation_is_deterministic() {
    let workload = by_name("eventsim").unwrap();
    let a = workload.compile().unwrap();
    let b = workload.compile().unwrap();
    assert_eq!(a.text, b.text);
    assert_eq!(a.data, b.data);
    assert_eq!(a.entry, b.entry);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn analysis_is_deterministic_and_trace_replay_matches_live() {
    let program = by_name("scan").unwrap().compile().unwrap();
    let config = AnalysisConfig {
        max_instrs: 60_000,
        ..AnalysisConfig::default()
    };
    let analyzer = Analyzer::new(&program, config.clone()).unwrap();
    let live = analyzer.run().unwrap();
    let again = analyzer.run().unwrap();
    for kind in MachineKind::ALL {
        assert_eq!(
            live.result(kind).unwrap().cycles,
            again.result(kind).unwrap().cycles,
            "{kind} not deterministic"
        );
    }

    // Replaying a saved trace file must reproduce the live analysis
    // exactly.
    let mut vm = Vm::new(&program, VmOptions::default());
    let trace = vm.trace(config.max_instrs).unwrap();
    let dir = std::env::temp_dir().join(format!("clfp-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.trc");
    trace.save(&program, &path).unwrap();
    let replayed = FileTraceSource::open(&program, &path).unwrap();
    let streamed = analyzer
        .run_streamed_on(&replayed, StreamOptions::default())
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let from_replay = streamed.report(config.unrolling);
    for kind in MachineKind::ALL {
        assert_eq!(
            live.result(kind).unwrap().cycles,
            from_replay.result(kind).unwrap().cycles,
            "{kind} differs on replayed trace"
        );
    }
    assert_eq!(live.seq_instrs, from_replay.seq_instrs);
    assert_eq!(
        live.branches.predicted_correctly,
        from_replay.branches.predicted_correctly
    );
}

#[test]
fn schedules_are_deterministic_across_analyzer_instances() {
    let program = by_name("parse").unwrap().compile().unwrap();
    let config = AnalysisConfig {
        max_instrs: 40_000,
        ..AnalysisConfig::default()
    };
    let mut vm = Vm::new(&program, VmOptions::default());
    let trace = vm.trace(config.max_instrs).unwrap();
    let a = Analyzer::new(&program, config.clone()).unwrap();
    let b = Analyzer::new(&program, config).unwrap();
    for kind in [MachineKind::SpCdMf, MachineKind::Cd] {
        assert_eq!(a.schedule(&trace, kind), b.schedule(&trace, kind));
    }
}
