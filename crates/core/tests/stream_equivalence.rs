//! Exact-equivalence suite for the streaming chunked pipeline: analyzing
//! through [`Analyzer::run_streamed_on`] must reproduce the in-memory
//! path bit for bit — cycles, counts, branch statistics, misprediction
//! histograms, and the trace summary — for every machine model, both
//! unroll settings, and every chunk size, including chunks that straddle
//! call and branch boundaries and a parallel broadcast with forced worker
//! counts. Both pipelines run the same incremental builders (the
//! in-memory path is the one-big-chunk special case), so any divergence
//! here is carried-state lost at a chunk boundary.

use clfp_limits::{AnalysisConfig, Analyzer, MachineKind, Report, StreamOptions};
use clfp_vm::{ProgramSource, Vm, VmOptions};

/// A procedure-heavy exerciser: calls, CD inheritance,
/// loops, and memory traffic. Its 114-event trace is not a multiple of 7,
/// so the 7-event chunk walk crosses call and branch boundaries mid-chunk
/// and ends on a partial chunk.
const SOURCE: &str = r#"
    .text
    main:
        li r8, 8
    mloop:
        mv a0, r8
        call work
        sw v0, 0x1000(r0)
        lw r9, 0x1000(r0)
        addi r8, r8, -1
        bgt r8, r0, mloop
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

fn config() -> AnalysisConfig {
    AnalysisConfig::quick().with_max_instrs(60_000)
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
fn streamed_matches_in_memory_across_chunk_sizes() {
    for (name, program) in programs() {
        let analyzer = Analyzer::new(&program, config()).unwrap();
        let mut vm = Vm::new(
            &program,
            VmOptions {
                mem_words: config().mem_words,
            },
        );
        let trace = vm.trace(config().max_instrs).unwrap();
        if name == "asm" {
            assert_eq!(trace.len(), 114, "exerciser trace drifted");
            assert!(!trace.len().is_multiple_of(7), "want boundary-straddling chunks");
        }
        let prepared = analyzer.prepare(&trace);
        let want_unrolled = prepared.report_with_unrolling(true);
        let want_rolled = prepared.report_with_unrolling(false);
        let want_summary = trace.summarize(&program);

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
            let tag = format!("{name} chunk={chunk}");
            assert_reports_equal(&streamed.unrolled, &want_unrolled, &format!("{tag} unrolled"));
            assert_reports_equal(&streamed.rolled, &want_rolled, &format!("{tag} rolled"));
            assert_eq!(streamed.summary, want_summary, "{tag}: summary");
        }
    }
}

#[test]
fn parallel_broadcast_matches_sequential() {
    for (name, program) in programs() {
        let analyzer = Analyzer::new(&program, config()).unwrap();
        let mut vm = Vm::new(
            &program,
            VmOptions {
                mem_words: config().mem_words,
            },
        );
        let trace = vm.trace(config().max_instrs).unwrap();
        // Small chunks force many broadcast handoffs.
        let sequential = analyzer
            .run_streamed_on(
                &trace,
                StreamOptions {
                    chunk_events: 512,
                    machine_threads: 1,
                },
            )
            .unwrap();
        // 4 and 3 workers: even and uneven splits of the 14 slots.
        for threads in [4, 3] {
            let parallel = analyzer
                .run_streamed_on(
                    &trace,
                    StreamOptions {
                        chunk_events: 512,
                        machine_threads: threads,
                    },
                )
                .unwrap();
            let tag = format!("{name} threads={threads}");
            assert_reports_equal(
                &parallel.unrolled,
                &sequential.unrolled,
                &format!("{tag} unrolled"),
            );
            assert_reports_equal(
                &parallel.rolled,
                &sequential.rolled,
                &format!("{tag} rolled"),
            );
            assert_eq!(parallel.summary, sequential.summary, "{tag}: summary");
        }
    }
}

#[test]
fn run_streamed_matches_run() {
    let workload = clfp_workloads::by_name("qsort").unwrap();
    let program = workload.compile().unwrap();
    for unrolling in [true, false] {
        let analyzer = Analyzer::new(&program, config().with_unrolling(unrolling)).unwrap();
        let want = analyzer.run().unwrap();
        let streamed = analyzer.run_streamed(StreamOptions::default()).unwrap();
        assert_reports_equal(
            streamed.report(unrolling),
            &want,
            &format!("unroll={unrolling}"),
        );
    }
}

#[test]
fn repeated_source_streams_to_exact_limit() {
    let program = clfp_isa::assemble(SOURCE).unwrap();
    let analyzer = Analyzer::new(&program, config()).unwrap();
    let options = VmOptions {
        mem_words: config().mem_words,
    };
    let one_run = Vm::new(&program, options).trace(u64::MAX).unwrap().len() as u64;
    // Not a multiple of the single-run length: the final repetition is cut
    // mid-execution, and chunks straddle the restart boundary.
    let limit = one_run * 3 + 11;
    let source = ProgramSource::new(&program, options, limit).repeated();
    let streamed = analyzer
        .run_streamed_on(
            &source,
            StreamOptions {
                chunk_events: 64,
                machine_threads: 1,
            },
        )
        .unwrap();
    assert_eq!(streamed.unrolled.raw_instrs, limit);
    assert_eq!(streamed.summary.total, limit);
    // The machine hierarchy must hold on the synthesized stream too.
    for kind in MachineKind::ALL {
        for &weaker in kind.dominates() {
            assert!(
                streamed.unrolled.parallelism(weaker)
                    <= streamed.unrolled.parallelism(kind) + 1e-9,
                "{weaker} > {kind}"
            );
        }
    }
}
