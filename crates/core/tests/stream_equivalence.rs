//! Exact-equivalence suite for the streaming chunked pipeline: analyzing
//! through [`Analyzer::run_streamed_on`] must reproduce an in-memory
//! preparation bit for bit — cycles, counts, branch statistics and
//! misprediction histograms — for every machine model, both unroll
//! settings, and every chunk size, including chunks that straddle call
//! and branch boundaries and the threaded pass 2 with forced thread
//! counts. Both pipelines run the same incremental builders (the
//! in-memory path is the one-big-chunk special case), so any divergence
//! here is carried-state lost at a chunk boundary. [`Analyzer::run`],
//! which streams, must match the reference pass. A cache file that can
//! no longer be read back must end the streamed analysis with an error,
//! inline and threaded.

use std::cell::Cell;

use clfp_limits::{AnalysisConfig, AnalyzeError, Analyzer, MachineKind, Report, StreamOptions};
use clfp_vm::{
    FileTraceSource, ProgramSource, TraceCache, TraceEvent, TraceSource, Vm, VmError, VmOptions,
};

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
        // Small chunks force many hand-offs to the group threads.
        let sequential = analyzer
            .run_streamed_on(
                &trace,
                StreamOptions {
                    chunk_events: 512,
                    machine_threads: 1,
                },
            )
            .unwrap();
        // Any count of two or more runs one thread per lane group.
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
        }
    }
}

#[test]
fn run_matches_reference() {
    let workload = clfp_workloads::by_name("qsort").unwrap();
    let program = workload.compile().unwrap();
    let trace = Vm::new(
        &program,
        VmOptions {
            mem_words: config().mem_words,
        },
    )
    .trace(config().max_instrs)
    .unwrap();
    for unrolling in [true, false] {
        let analyzer = Analyzer::new(&program, config().with_unrolling(unrolling)).unwrap();
        assert_reports_equal(
            &analyzer.run().unwrap(),
            &analyzer.run_on_trace_reference(&trace),
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
    assert_eq!(streamed.rolled.raw_instrs, limit);
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

#[test]
fn unreadable_cache_entry_is_an_analyze_error() {
    let program = clfp_isa::assemble(SOURCE).unwrap();
    let analyzer = Analyzer::new(&program, config()).unwrap();
    let dir = std::env::temp_dir().join(format!("clfp-stream-cache-{}", std::process::id()));
    let cache = TraceCache::new(&dir);
    let options = VmOptions {
        mem_words: config().mem_words,
    };
    let trace = Vm::new(&program, options)
        .trace(config().max_instrs)
        .unwrap();
    let path = cache
        .store(&program, config().max_instrs, &trace)
        .unwrap()
        .path()
        .to_owned();
    let clean = std::fs::read(&path).unwrap();
    let source = cache.lookup(&program, config().max_instrs).unwrap();
    // Inline and threaded pass 2: the threaded one must close its group
    // threads and return the error, not wait on them.
    let expect = |source: &dyn TraceSource, kind| {
        for machine_threads in [1, 2] {
            let options = StreamOptions {
                chunk_events: 7,
                machine_threads,
            };
            let err = analyzer
                .run_streamed_on(source, options)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(
                err,
                AnalyzeError::Vm(VmError::TraceRead { kind }),
                "machine_threads={machine_threads}"
            );
        }
    };
    // The entry shortened by one record after pass 1 read it whole, so
    // pass 2 fails part-way; then shortened, and removed, after the
    // lookup, so pass 1 fails.
    let short_in_pass2 = ShortInPass2 {
        file: &source,
        clean: &clean,
        streams: Cell::new(0),
    };
    expect(&short_in_pass2, std::io::ErrorKind::UnexpectedEof);
    std::fs::write(&path, &clean[..clean.len() - 13]).unwrap();
    expect(&source, std::io::ErrorKind::UnexpectedEof);
    std::fs::remove_file(&path).unwrap();
    expect(&source, std::io::ErrorKind::NotFound);
    std::fs::remove_dir_all(dir).ok();
}

/// A cache entry that is whole for every odd stream (a streamed
/// analysis's pass 1) and one 13-byte record short for every even one
/// (its pass 2).
struct ShortInPass2<'a> {
    file: &'a FileTraceSource,
    clean: &'a [u8],
    streams: Cell<usize>,
}

impl TraceSource for ShortInPass2<'_> {
    fn stream(
        &self,
        chunk_events: usize,
        sink: &mut dyn FnMut(&[TraceEvent]),
    ) -> Result<(), VmError> {
        let pass2 = self.streams.get() % 2;
        self.streams.set(self.streams.get() + 1);
        let len = self.clean.len() - 13 * pass2;
        std::fs::write(self.file.path(), &self.clean[..len]).unwrap();
        self.file.stream(chunk_events, sink)
    }
}
