//! Exact-equivalence suite for the value-prediction axis: every mode of
//! [`clfp_limits::ValuePrediction`] must produce the same schedule through
//! all three pipelines — the lane kernel in memory, the streaming chunked
//! pipeline (at chunk sizes that straddle call and branch boundaries),
//! and the reference pass, which runs its own value predictor instead of
//! reading the hit bits the preparation walk records for the lanes.
//! Any divergence here means a pipeline read the publish rule (a
//! correctly predicted definition publishes availability 0) differently
//! from the others.

use clfp_limits::{AnalysisConfig, Analyzer, Report, StreamOptions, ValuePrediction};
use clfp_vm::{Vm, VmOptions};

/// A value-rich exerciser: a stride-predictable induction chain, a
/// last-value-friendly reload of a rarely changing flag, an irregular
/// squaring chain only the oracle predicts, and procedure calls so the
/// inlining/unrolling masks interact with the predictor's training
/// sequence. Its trace length is not a multiple of 7, so the 7-event
/// chunk walk crosses boundaries mid-chunk.
const SOURCE: &str = r#"
    .text
    main:
        li r8, 0
        li r9, 12
        li r11, 0
    mloop:
        addi r8, r8, 1
        mul r10, r8, r8
        add r11, r11, r10
        mv a0, r8
        call work
        sw v0, 0x1000(r0)
        lw r12, 0x1000(r0)
        add r11, r11, r12
        blt r8, r9, mloop
        halt
    work:
        addi sp, sp, -4
        sw ra, 0(sp)
        li v0, 0
        ble a0, r0, wend
        addi v0, a0, 5
    wend:
        lw ra, 0(sp)
        addi sp, sp, 4
        ret
    "#;

fn base_config() -> AnalysisConfig {
    AnalysisConfig::quick().with_max_instrs(30_000)
}

fn assert_reports_equal(got: &Report, want: &Report, tag: &str) {
    assert_eq!(got.seq_instrs, want.seq_instrs, "{tag}: seq_instrs");
    assert_eq!(got.raw_instrs, want.raw_instrs, "{tag}: raw_instrs");
    assert_eq!(got.branches, want.branches, "{tag}: branches");
    assert_eq!(got.mispred_stats, want.mispred_stats, "{tag}: mispred");
    assert_eq!(got.results.len(), want.results.len(), "{tag}: machines");
    for (g, w) in got.results.iter().zip(&want.results) {
        assert_eq!(g.kind, w.kind, "{tag}");
        assert_eq!(g.cycles, w.cycles, "{tag} {}", g.kind);
        assert!(
            (g.parallelism - w.parallelism).abs() < 1e-12,
            "{tag} {}: {} vs {}",
            g.kind,
            g.parallelism,
            w.parallelism
        );
    }
}

fn programs() -> Vec<(String, clfp_isa::Program)> {
    let mut programs = vec![("asm".to_string(), clfp_isa::assemble(SOURCE).unwrap())];
    for name in ["qsort", "scan"] {
        let workload = clfp_workloads::by_name(name).expect(name);
        programs.push((name.to_string(), workload.compile().expect(name)));
    }
    programs
}

#[test]
fn pipelines_agree_across_modes_chunks_and_unrolling() {
    for (name, program) in programs() {
        let mut vm = Vm::new(
            &program,
            VmOptions {
                mem_words: base_config().mem_words,
            },
        );
        let trace = vm.trace(base_config().max_instrs).unwrap();
        for mode in ValuePrediction::ALL {
            for unrolling in [true, false] {
                let config = base_config()
                    .with_unrolling(unrolling)
                    .with_value_prediction(mode);
                let analyzer = Analyzer::new(&program, config).unwrap();
                let prepared = analyzer.prepare(&trace);
                let tag = format!("{name} mode={} unroll={unrolling}", mode.name());

                // The reference pass rebuilds its own predictor and must
                // land on the same schedule anyway.
                let lane = prepared.report_with_unrolling(unrolling);
                let reference = analyzer.run_on_trace_reference(&trace);
                assert_reports_equal(&reference, &lane, &format!("{tag} reference"));

                // The streaming pipeline at every chunk size, including
                // single-event chunks and one whole-trace chunk.
                for chunk in [1, 7, 4096, trace.len()] {
                    let streamed = analyzer
                        .run_streamed_on(
                            &trace,
                            StreamOptions {
                                chunk_events: chunk,
                                machine_threads: 1,
                            },
                        )
                        .unwrap();
                    assert_reports_equal(
                        streamed.report(unrolling),
                        &lane,
                        &format!("{tag} chunk={chunk}"),
                    );
                }
            }
        }
    }
}

#[test]
fn off_mode_is_bit_identical_to_default() {
    // `Off` is the default: a config that never mentions the axis and one
    // that sets it explicitly must produce the same reports, so the new
    // axis cannot perturb any pre-existing result.
    let (_, program) = programs().remove(1);
    let default_analyzer = Analyzer::new(&program, base_config()).unwrap();
    let off_analyzer = Analyzer::new(
        &program,
        base_config().with_value_prediction(ValuePrediction::Off),
    )
    .unwrap();
    let mut vm = Vm::new(
        &program,
        VmOptions {
            mem_words: base_config().mem_words,
        },
    );
    let trace = vm.trace(base_config().max_instrs).unwrap();
    let default_prepared = default_analyzer.prepare(&trace);
    let off_prepared = off_analyzer.prepare(&trace);
    for unrolling in [true, false] {
        assert_reports_equal(
            &off_prepared.report_with_unrolling(unrolling),
            &default_prepared.report_with_unrolling(unrolling),
            &format!("unroll={unrolling}"),
        );
    }
}
