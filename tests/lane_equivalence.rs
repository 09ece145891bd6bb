//! Exact-equivalence suite for the scheduling kernel against the one
//! independent oracle: the event-major lane walk
//! ([`PreparedTrace::report_with_unrolling`] /
//! [`PreparedTrace::report_both`], the streamed pipeline behind it, the
//! machine-major packing [`PreparedTrace::report_with_unrolling_scalar`],
//! and the recording walks behind [`PreparedTrace::machine_metrics`])
//! must reproduce the one-machine-at-a-time reference pass
//! ([`Analyzer::run_on_trace_reference`]) **bit for bit** — cycle counts,
//! parallelism bits, branch statistics, and misprediction histograms —
//! for every machine model, every suite workload, both unroll settings,
//! and streaming chunk sizes {1, 7, 4096, whole-trace}, and under every
//! memory-disambiguation and value-prediction mode on a sample of
//! workloads ([`MODE_PROGRAMS`]). The reference pass shares no scheduling
//! code with the kernel and computes the identical max/add folds in the
//! identical event order, so any divergence here is a wrong mask or a
//! lost carry, not floating-point noise. The per-mode cases also gate
//! both axes: the `clfp-verify` monotonicity check runs over the
//! disambiguation modes' and the value-prediction modes' reference
//! reports. The recording walks' chains must be tight (under unit
//! latencies every critical path is as long as the run, with one head),
//! and their attribution under the configurations no committed page pins
//! must hash to a recorded digest. Random machine subsets in random
//! request orders, a fixed MiniC program that catches a stale branch
//! ceiling or chain, an assembly program whose computed transfers land in
//! the middle of blocks, and the inlining-off configuration round it out;
//! `random_programs.rs` runs the same comparison on random programs.
//!
//! [`PreparedTrace::report_with_unrolling`]: clfp::limits::PreparedTrace::report_with_unrolling
//! [`PreparedTrace::report_both`]: clfp::limits::PreparedTrace::report_both
//! [`PreparedTrace::report_with_unrolling_scalar`]: clfp::limits::PreparedTrace::report_with_unrolling_scalar
//! [`PreparedTrace::machine_metrics`]: clfp::limits::PreparedTrace::machine_metrics
//! [`Analyzer::run_on_trace_reference`]: clfp::limits::Analyzer::run_on_trace_reference

mod common;

use clfp::isa::Program;
use clfp::limits::{
    AnalysisConfig, Analyzer, Latencies, MachineKind, MemDisambiguation, Report, StreamOptions,
    ValuePrediction,
};
use clfp::metrics::{fnv1a64, OccupancyHistogram};
use clfp::verify::check_monotonicity;
use clfp::vm::{Trace, Vm, VmOptions};
use common::{program_with, same_report, Rng};

/// A procedure-heavy exerciser: calls, CD inheritance, loops, and memory
/// traffic, with a trace length that is not a multiple of 7 so small
/// chunks straddle call and branch boundaries.
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
    AnalysisConfig::quick().with_max_instrs(20_000)
}

/// The programs the per-mode cases sweep: the asm exerciser plus suite
/// workloads with recursion (qsort), indirect accesses (sparse), and the
/// most static alias classes (parse, stencil).
const MODE_PROGRAMS: [&str; 5] = ["asm", "qsort", "sparse", "parse", "stencil"];

/// The asm exerciser plus every suite workload.
fn programs() -> Vec<(String, Program)> {
    let mut programs = vec![("asm".to_string(), clfp::isa::assemble(SOURCE).unwrap())];
    for workload in clfp::workloads::suite() {
        programs.push((
            workload.name.to_string(),
            workload.compile().expect(workload.name),
        ));
    }
    programs
}

fn trace_of(program: &Program) -> Trace {
    let mut vm = Vm::new(
        program,
        VmOptions {
            mem_words: config().mem_words,
        },
    );
    vm.trace(config().max_instrs).unwrap()
}

/// One analyzer per unroll setting under `config`, `(unrolled, rolled)`:
/// the reference pass reads the setting from its analyzer's
/// configuration.
fn per_setting<'a>(program: &'a Program, config: &AnalysisConfig) -> [(bool, Analyzer<'a>); 2] {
    [true, false].map(|unrolling| {
        let analyzer = Analyzer::new(program, config.clone().with_unrolling(unrolling));
        (unrolling, analyzer.unwrap())
    })
}

/// Computed transfers into the middle of blocks: `jr`, `callr` and `ret`
/// each land one instruction past a label (`label + 1`), on a pc that is
/// not a block leader, so the preparation walk meets a new block, a new
/// latest branch instance or a new call-stack top without a block start.
///
/// Each landing starts a dependence chain whose first instruction only
/// its control-dependence source can delay, and the chains feed one
/// another, so a source resolved for the wrong block moves the critical
/// path of the CD and CD-MF machines. The `jr` leaves a block that
/// depends on `b1`, which waits for chain `r10`, and lands in a block
/// that depends on nothing (`jtarget` is a procedure entry, since its
/// address is taken). The `ret` leaves the callee's last block, which
/// inherits, and lands in the caller's block after the `callr`, which
/// depends on `b2`; `b2` waits for chain `r11`, which continues the
/// landing chain `r13`. The chain lengths differ, so the delays a stale
/// source adds at one landing and removes at the other cannot cancel. (A
/// `callr` landing inherits its call site's source, so a stale source
/// there times the same.)
fn mid_block_source() -> String {
    let chain = |reg: &str, n: usize| format!("        addi {reg}, {reg}, 1\n").repeat(n);
    format!(
        r#"
    .text
    main:
        li r10, 5
{a}
    b1: beq r10, r0, done1
        li r9, jtarget
        addi r9, r9, 1
        jr r9
    done1:
        halt
    jtarget:
        addi r12, r12, 100
        li r13, 3
{b}
        addi r11, r13, 1
{c}
    b2: beq r11, r0, done2
        li r9, callee
        addi r9, r9, 1
        callr r9
    rtarget:
        addi r15, r15, 1
        addi r16, r13, 1
{d}
    done2:
        halt
    callee:
        addi r20, r20, 1
        li r21, 9
        beq r21, r0, cskip
        addi r22, r22, 1
    cskip:
        addi ra, ra, 1
        ret
    "#,
        a = chain("r10", 12),
        b = chain("r13", 20),
        c = chain("r11", 17),
        d = chain("r16", 30),
    )
}

/// Every pipeline over one trace under `config`, at both unroll settings,
/// against the reference pass: one preparation's `report_both`, its
/// one-walk and machine-major packings, and the streamed pass at chunk
/// sizes 1, 7 and the whole trace.
fn assert_every_path_matches_reference(
    program: &Program,
    trace: &Trace,
    config: &AnalysisConfig,
    tag: &str,
) {
    let analyzers = per_setting(program, config);
    let prepared = analyzers[0].1.prepare(trace);
    let (unrolled, rolled) = prepared.report_both();
    let streamed = [1, 7, trace.len()].map(|chunk| {
        let options = StreamOptions {
            chunk_events: chunk,
            machine_threads: 1,
        };
        (
            chunk,
            analyzers[0].1.run_streamed_on(trace, options).unwrap(),
        )
    });
    for ((unrolling, analyzer), both) in analyzers.iter().zip([&unrolled, &rolled]) {
        let want = analyzer.run_on_trace_reference(trace);
        let tag = format!("{tag} unroll={unrolling}");
        for (label, got) in [
            ("both", both),
            ("lane", &prepared.report_with_unrolling(*unrolling)),
            (
                "machine-major",
                &prepared.report_with_unrolling_scalar(*unrolling),
            ),
        ] {
            same_report(got, &want, &format!("{tag} {label}")).unwrap();
        }
        for (chunk, streamed) in &streamed {
            let got = streamed.report(*unrolling);
            same_report(got, &want, &format!("{tag} chunk={chunk}")).unwrap();
        }
    }
}

/// The mid-block exerciser, checked to do what it claims: each of its
/// computed transfers lands on `label + 1`, a pc that is not a block
/// leader.
fn mid_block_exerciser() -> (Program, Trace) {
    let program = clfp::isa::assemble(&mid_block_source()).unwrap();
    let trace = trace_of(&program);
    let cfg = clfp::cfg::Cfg::build(&program);
    let events = trace.events();
    for label in ["jtarget", "callee", "rtarget"] {
        let landing = program.symbols.code(label).unwrap() + 1;
        assert_ne!(
            cfg.block(cfg.block_of_instr(landing)).start,
            landing,
            "{label} + 1 must not lead a block"
        );
        let transfers = events
            .windows(2)
            .filter(|pair| pair[1].pc == landing && pair[0].pc + 1 != landing)
            .count();
        assert_eq!(transfers, 1, "{label} + 1 is reached by a transfer");
    }
    (program, trace)
}

#[test]
fn computed_transfers_into_mid_block_match_reference() {
    let (program, trace) = mid_block_exerciser();
    assert_every_path_matches_reference(&program, &trace, &config(), "mid-block");
}

/// Perfect inlining off (`clfp analyze --no-inline`): calls, returns and
/// stack-pointer arithmetic stay in the schedule at both unroll settings.
/// The reference reads the inline mask under `config.inlining` itself.
#[test]
fn inlining_off_matches_reference() {
    let config = AnalysisConfig {
        inlining: false,
        ..config()
    };
    let qsort = clfp::workloads::by_name("qsort")
        .unwrap()
        .compile()
        .unwrap();
    let qsort_trace = trace_of(&qsort);
    let (exerciser, exerciser_trace) = mid_block_exerciser();
    for (name, program, trace) in [
        ("mid-block", &exerciser, &exerciser_trace),
        ("qsort", &qsort, &qsort_trace),
    ] {
        let tag = format!("{name} no-inline");
        assert_every_path_matches_reference(program, trace, &config, &tag);
        // Inlining off keeps the instructions inlining deletes.
        let seq_instrs = |inlining| {
            let config = AnalysisConfig {
                inlining,
                ..config.clone()
            };
            let analyzer = Analyzer::new(program, config.with_unrolling(false)).unwrap();
            analyzer.run_on_trace_reference(trace).seq_instrs
        };
        assert!(seq_instrs(false) > seq_instrs(true), "{tag}: calls kept");
    }
}

/// `report_both` over one preparation under `config` equals the reference
/// pass at both unroll settings.
fn assert_both_match_reference(
    program: &Program,
    trace: &Trace,
    config: &AnalysisConfig,
    tag: &str,
) {
    let analyzers = per_setting(program, config);
    let (unrolled, rolled) = analyzers[0].1.prepare(trace).report_both();
    for ((unrolling, analyzer), got) in analyzers.iter().zip([&unrolled, &rolled]) {
        let want = analyzer.run_on_trace_reference(trace);
        same_report(got, &want, &format!("{tag} unroll={unrolling}")).unwrap();
    }
}

#[test]
fn lane_kernel_matches_reference_on_every_workload() {
    for (name, program) in programs() {
        let trace = trace_of(&program);
        let analyzers = per_setting(&program, &config());
        // One preparation serves both unroll settings (the benchmark
        // suite's path); it must agree with per-setting analyzers too.
        let prepared = analyzers[0].1.prepare(&trace);
        let (both_unrolled, both_rolled) = prepared.report_both();
        for ((unrolling, analyzer), both) in analyzers.iter().zip([&both_unrolled, &both_rolled]) {
            let tag = format!("{name} unroll={unrolling}");
            let want = analyzer.run_on_trace_reference(&trace);
            for (label, got) in [
                ("both", both),
                ("lane", &prepared.report_with_unrolling(*unrolling)),
                (
                    "machine-major",
                    &prepared.report_with_unrolling_scalar(*unrolling),
                ),
                (
                    "per-setting",
                    &analyzer.prepare(&trace).report_with_unrolling(*unrolling),
                ),
            ] {
                same_report(got, &want, &format!("{tag} {label}")).unwrap();
            }
        }
    }
}

#[test]
fn streamed_lane_kernel_matches_reference_across_chunk_sizes() {
    for (name, program) in programs() {
        let trace = trace_of(&program);
        let analyzers = per_setting(&program, &config());
        let want = analyzers
            .each_ref()
            .map(|(_, a)| a.run_on_trace_reference(&trace));
        for chunk in [1, 7, 4096, trace.len()] {
            let options = StreamOptions {
                chunk_events: chunk,
                machine_threads: 1,
            };
            let streamed = analyzers[0].1.run_streamed_on(&trace, options).unwrap();
            let tag = format!("{name} chunk={chunk}");
            same_report(&streamed.unrolled, &want[0], &format!("{tag} unrolled")).unwrap();
            same_report(&streamed.rolled, &want[1], &format!("{tag} rolled")).unwrap();
        }
    }
}

/// The coarse disambiguation modes through the slice, lane and
/// machine-major paths match the reference pass; and the reference
/// reports of all three modes obey the axis's monotonicity theorem
/// (`perfect >= static >= none`, pointwise) at both unroll settings.
#[test]
fn coarse_disambiguation_modes_match_reference() {
    for (name, program) in programs() {
        if !MODE_PROGRAMS.contains(&name.as_str()) {
            continue;
        }
        let trace = trace_of(&program);
        let perfect = Analyzer::new(&program, config()).unwrap();
        let prepared = perfect.prepare(&trace);
        // Reference reports per mode, `[unrolled, rolled]`, from the most
        // constrained mode to the least.
        let mut chain: Vec<(&str, [Report; 2])> = Vec::new();
        for mode in [MemDisambiguation::None, MemDisambiguation::Static] {
            let mode_config = config().with_disambiguation(mode);
            let analyzers = per_setting(&program, &mode_config);
            let dedicated = analyzers[0].1.prepare(&trace);
            let (sliced_unrolled, sliced_rolled) = prepared
                .slice_modes(mode, mode_config.value_prediction)
                .report_both();
            let want = analyzers
                .each_ref()
                .map(|(_, analyzer)| analyzer.run_on_trace_reference(&trace));
            for (((unrolling, _), sliced), want) in analyzers
                .iter()
                .zip([&sliced_unrolled, &sliced_rolled])
                .zip(&want)
            {
                let tag = format!("{name} {} unroll={unrolling}", mode.name());
                for (label, got) in [
                    ("slice", sliced),
                    ("lane", &dedicated.report_with_unrolling(*unrolling)),
                    (
                        "machine-major",
                        &dedicated.report_with_unrolling_scalar(*unrolling),
                    ),
                ] {
                    same_report(got, want, &format!("{tag} {label}")).unwrap();
                }
            }
            chain.push((mode.name(), want));
        }
        let want = per_setting(&program, &config())
            .each_ref()
            .map(|(_, analyzer)| analyzer.run_on_trace_reference(&trace));
        chain.push((MemDisambiguation::Perfect.name(), want));
        for (setting, unrolling) in [true, false].into_iter().enumerate() {
            let reports: Vec<(&str, &Report)> = chain
                .iter()
                .map(|(mode, want)| (*mode, &want[setting]))
                .collect();
            let violations = check_monotonicity("memory disambiguation", &reports);
            assert!(
                violations.is_empty(),
                "{name} unroll={unrolling}: {violations:#?}"
            );
        }
    }
}

/// A disambiguation block wider than a word keeps the true dependence it
/// covers. At 64 bytes the `lw` from 0x1000 must wait for the slow store
/// to 0x1000 (done at cycle 6), though a quicker store to 0x1004, in the
/// same block, comes later in the trace. A block that kept only its
/// latest store's time let that store hide the true producer: the load
/// executed at cycle 3, and ORACLE finished in 6 cycles against the word
/// granularity's 10. Every pipeline must agree at 64 bytes, and none may
/// beat the word.
#[test]
fn coarse_granularity_keeps_the_true_producer() {
    const BLOCK: &str = "
    .text
    main:
        li r8, 1
        addi r8, r8, 1
        addi r8, r8, 1
        addi r8, r8, 1
        addi r8, r8, 1
        sw r8, 0x1000(r0)
        li r9, 3
        sw r9, 0x1004(r0)
        lw r10, 0x1000(r0)
        addi r10, r10, 1
        addi r10, r10, 1
        addi r10, r10, 1
        halt
    ";
    let program = clfp::isa::assemble(BLOCK).unwrap();
    let trace = trace_of(&program);
    let word = config().with_disambiguation_bytes(4);
    let block = config().with_disambiguation_bytes(64);
    assert_both_match_reference(&program, &trace, &block, "64-byte blocks");
    let analyzer = Analyzer::new(&program, block).unwrap();
    let reference = analyzer.run_on_trace_reference(&trace);
    same_report(&analyzer.run().unwrap(), &reference, "64-byte blocks run").unwrap();

    let oracle_cycles = |report: &Report| report.result(MachineKind::Oracle).unwrap().cycles;
    let word_cycles = oracle_cycles(
        &Analyzer::new(&program, word)
            .unwrap()
            .run_on_trace_reference(&trace),
    );
    assert_eq!(word_cycles, 10);
    assert!(
        oracle_cycles(&reference) >= word_cycles,
        "ORACLE at 64 bytes: {} cycles, at 4 bytes: {word_cycles}",
        oracle_cycles(&reference)
    );
    let at = |pc: usize| trace.events().iter().position(|e| e.pc as usize == pc).unwrap();
    let (store, load) = (at(5), at(8));
    let schedule = analyzer.schedule(&trace, MachineKind::Oracle);
    assert!(
        schedule[load] > schedule[store],
        "the load executes at cycle {}, its store at {}",
        schedule[load],
        schedule[store]
    );
}

/// Every mode through one mode-free preparation of the default
/// configuration: the four value-prediction modes under perfect
/// disambiguation, plus (static, stride) and (none, perfect). Each mode's
/// slice (one-walk and machine-major packings) and its mode-matrix cell
/// match the reference pass of an analyzer configured under the mode, at
/// both unroll settings; and the value-prediction modes' reference
/// reports obey the axis's monotonicity theorem (`perfect >= stride >=
/// last-value >= off`, pointwise) at both unroll settings.
#[test]
fn every_mode_slice_matches_reference() {
    let modes: Vec<(MemDisambiguation, ValuePrediction)> = ValuePrediction::ALL
        .into_iter()
        .map(|vp| (MemDisambiguation::Perfect, vp))
        .chain([
            (MemDisambiguation::Static, ValuePrediction::Stride),
            (MemDisambiguation::None, ValuePrediction::Perfect),
        ])
        .collect();
    for (name, program) in programs() {
        if !MODE_PROGRAMS.contains(&name.as_str()) {
            continue;
        }
        let trace = trace_of(&program);
        let analyzer = Analyzer::new(&program, config()).unwrap();
        let prepared = analyzer.prepare(&trace);
        let matrix = prepared.report_mode_matrix(&modes);
        // Reference reports per value-prediction mode, `[unrolled,
        // rolled]`, from the most constrained mode to the least.
        let mut chain: Vec<(&str, [Report; 2])> = Vec::new();
        for (&(dis, vp), (cell_unrolled, cell_rolled)) in modes.iter().zip(&matrix) {
            let slice = prepared.slice_modes(dis, vp);
            let (slice_unrolled, slice_rolled) = slice.report_both();
            let mode_config = config().with_disambiguation(dis).with_value_prediction(vp);
            let want = per_setting(&program, &mode_config)
                .each_ref()
                .map(|(_, analyzer)| analyzer.run_on_trace_reference(&trace));
            for ((unrolling, sliced, cell), want) in [
                (true, &slice_unrolled, cell_unrolled),
                (false, &slice_rolled, cell_rolled),
            ]
            .into_iter()
            .zip(&want)
            {
                let tag = format!("{name} {}/{} unroll={unrolling}", dis.name(), vp.name());
                for (label, got) in [
                    ("slice", sliced),
                    ("matrix", cell),
                    (
                        "machine-major",
                        &slice.report_with_unrolling_scalar(unrolling),
                    ),
                ] {
                    same_report(got, want, &format!("{tag} {label}")).unwrap();
                }
            }
            if dis == MemDisambiguation::Perfect {
                chain.push((vp.name(), want));
            }
        }
        for (setting, unrolling) in [true, false].into_iter().enumerate() {
            let reports: Vec<(&str, &Report)> = chain
                .iter()
                .map(|(mode, want)| (*mode, &want[setting]))
                .collect();
            let violations = check_monotonicity("value prediction", &reports);
            assert!(
                violations.is_empty(),
                "{name} unroll={unrolling}: {violations:#?}"
            );
        }
    }
}

/// The recording walks schedule what the reference pass schedules: every
/// machine's recorded critical path and instruction count equal the
/// reference report's, at both unroll settings, under perfect and static
/// disambiguation. And its chains are tight: under unit latencies, with
/// renaming on and no fetch limit, every hop adds exactly one cycle to a
/// chain that starts at cycle 1, so the recorded critical path is as long
/// as the run and has one head.
#[test]
fn machine_metrics_match_reference_cycles_and_counts() {
    for (name, program) in programs() {
        if !MODE_PROGRAMS.contains(&name.as_str()) {
            continue;
        }
        let trace = trace_of(&program);
        for mode in [MemDisambiguation::Perfect, MemDisambiguation::Static] {
            let analyzers = per_setting(&program, &config().with_disambiguation(mode));
            let prepared = analyzers[0].1.prepare(&trace);
            for (unrolling, analyzer) in &analyzers {
                let tag = format!("{name} {} unroll={unrolling}", mode.name());
                let want = analyzer.run_on_trace_reference(&trace);
                let metrics = prepared.machine_metrics_with_unrolling(*unrolling);
                assert_eq!(metrics.len(), want.results.len(), "{tag}: machines");
                for ((kind, m), r) in metrics.iter().zip(&want.results) {
                    assert_eq!(*kind, r.kind, "{tag}");
                    assert_eq!(m.cycles, r.cycles, "{tag} {kind}: cycles");
                    assert_eq!(m.instrs, want.seq_instrs, "{tag} {kind}: instrs");
                    assert_eq!(m.flow.total(), m.instrs, "{tag} {kind}: flow");
                    // Unit latencies: every event completes in its issue
                    // cycle, so the reference schedule is both arguments.
                    let schedule = analyzer.schedule(&trace, *kind);
                    let occupancy = OccupancyHistogram::from_exec_cycles(&schedule, &schedule);
                    assert_eq!(m.occupancy, occupancy, "{tag} {kind}: occupancy");
                    let a = &m.attribution;
                    assert_eq!(a.chain_len, r.cycles, "{tag} {kind}: chain length");
                    assert_eq!(a.terminators, 1, "{tag} {kind}: chain heads");
                    assert_eq!(a.classified(), a.chain_len - 1, "{tag} {kind}: hops");
                }
            }
        }
    }
}

/// FNV-1a digest of [`attribution_rows`], recorded from the recorder
/// that walked each machine's binding-edge parents back from the chain
/// head, before the kernel carried hop summaries forward.
const ATTRIBUTION_DIGEST: u64 = 0xffc0_3b24_b790_e478;

/// Every machine's critical-path attribution and flow counters, one row
/// per (program, configuration, unroll setting, machine), over
/// [`MODE_PROGRAMS`] under the configurations no committed page pins:
/// static and no disambiguation, stride value prediction, renaming off
/// with a fetch bandwidth of 4 (anti-dependence hops with no producer,
/// fetch-bound heads in mid-trace), realistic latencies, and 64-byte
/// disambiguation blocks (stores accumulate).
fn attribution_rows() -> String {
    use std::fmt::Write;
    let configs = [
        (
            "static",
            config().with_disambiguation(MemDisambiguation::Static),
        ),
        (
            "none",
            config().with_disambiguation(MemDisambiguation::None),
        ),
        (
            "stride",
            config().with_value_prediction(ValuePrediction::Stride),
        ),
        (
            "rename-off-fetch-4",
            config().with_rename(false).with_fetch_bandwidth(4),
        ),
        ("realistic", config().with_latency(Latencies::realistic())),
        ("bytes-64", config().with_disambiguation_bytes(64)),
    ];
    let mut rows = String::new();
    for (name, program) in programs() {
        if !MODE_PROGRAMS.contains(&name.as_str()) {
            continue;
        }
        let trace = trace_of(&program);
        for (label, config) in &configs {
            let analyzer = Analyzer::new(&program, config.clone()).unwrap();
            let prepared = analyzer.prepare(&trace);
            for unrolling in [true, false] {
                for (kind, m) in prepared.machine_metrics_with_unrolling(unrolling) {
                    let (a, f) = (&m.attribution, &m.flow);
                    writeln!(
                        rows,
                        "{name} {label} unroll={unrolling} {kind}: chain {} heads {} hops {:?} \
                         flow {:?} unconstrained {}",
                        a.chain_len, a.terminators, a.counts, f.by_kind, f.unconstrained
                    )
                    .unwrap();
                }
            }
        }
    }
    rows
}

/// The attribution where no committed page pins it: the rows of
/// [`attribution_rows`] must hash to [`ATTRIBUTION_DIGEST`].
#[test]
fn attribution_matches_recorded_digest() {
    let rows = attribution_rows();
    assert_eq!(rows.lines().count(), MODE_PROGRAMS.len() * 6 * 2 * 7);
    assert_eq!(
        fnv1a64(&rows),
        ATTRIBUTION_DIGEST,
        "attribution rows changed:\n{rows}"
    );
}

#[test]
fn singleton_machine_requests_match_reference() {
    let workload = clfp::workloads::by_name("qsort").unwrap();
    let program = workload.compile().unwrap();
    let trace = trace_of(&program);
    for kind in MachineKind::ALL {
        let config = config().with_machines(&[kind]);
        assert_both_match_reference(&program, &trace, &config, &format!("singleton {kind}"));
    }
}

#[test]
fn mixed_machine_subsets_match_reference() {
    // Deliberately scrambled orders: the CD/non-CD lane split must
    // scatter results back into request order.
    let subsets: &[&[MachineKind]] = &[
        &[MachineKind::Oracle, MachineKind::Cd, MachineKind::Sp],
        &[MachineKind::SpCdMf, MachineKind::Base],
        &[
            MachineKind::Sp,
            MachineKind::SpCd,
            MachineKind::CdMf,
            MachineKind::Base,
            MachineKind::Oracle,
        ],
    ];
    let workload = clfp::workloads::by_name("sparse").unwrap();
    let program = workload.compile().unwrap();
    let trace = trace_of(&program);
    for subset in subsets {
        let config = config().with_machines(subset);
        assert_both_match_reference(&program, &trace, &config, &format!("subset {subset:?}"));
    }
}

/// For *any* machine subset in *any* request order, over any of five
/// workloads and either unroll setting, the lane kernel reproduces the
/// reference pass. This exercises the CD/non-CD split, partial lane
/// groups (1–8 lanes, padding lanes replicated from lane 0), and the
/// scatter of group results back into request order — including the
/// singleton and full-14-lane extremes the cases above pin explicitly.
#[test]
fn random_machine_subsets_match_reference() {
    let programs = ["qsort", "scan", "sparse", "matmul", "eventsim"].map(|name| {
        let program = clfp::workloads::by_name(name).unwrap().compile();
        let trace = trace_of(program.as_ref().unwrap());
        (name, program.unwrap(), trace)
    });
    let mut rng = Rng::new(0x1992_0515_C0FF_EE00);
    for round in 0..48 {
        let (name, program, trace) = &programs[rng.below(programs.len())];
        // A random non-empty subset in a random order (Fisher-Yates over
        // ALL, then a random prefix).
        let mut pool: Vec<MachineKind> = MachineKind::ALL.to_vec();
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.below(i + 1));
        }
        let machines = &pool[..1 + rng.below(pool.len())];
        let config = config().with_machines(machines);
        let tag = format!("round {round} {name} {machines:?}");
        assert_both_match_reference(program, trace, &config, &tag);
    }
}

/// Every machine's recorded chain is tight at both unroll settings under
/// `config` (unit latencies, renaming on, no fetch limit): as long as the
/// run, with one head.
fn assert_tight_chains(program: &Program, trace: &Trace, config: &AnalysisConfig, tag: &str) {
    let analyzer = Analyzer::new(program, config.clone()).unwrap();
    let prepared = analyzer.prepare(trace);
    for unrolling in [true, false] {
        for (kind, m) in prepared.machine_metrics_with_unrolling(unrolling) {
            let a = &m.attribution;
            let tight = a.chain_len == m.cycles && a.terminators == 1;
            assert!(
                tight,
                "{tag} unroll={unrolling} {kind}: {a:?} over {} cycles",
                m.cycles
            );
        }
    }
}

/// A correctly predicted branch that an unrolled lane ignores must pass
/// the constraint it would have waited on (`cd1`) through as its ceiling,
/// not keep the ceiling of an earlier misprediction, and a recording lane
/// must pass the chains of both through the same way. This nest — an
/// `if` around a one-trip `for` around a two-trip `while` — is a minimal
/// form of the random programs that catch a kernel keeping the stale
/// ceiling, or storing the ignored branch's own chain; pinning it catches
/// those bugs whatever the random case count.
#[test]
fn ignored_predicted_branch_passes_its_ceiling_through() {
    let source = program_with(
        "    if (v1) {
        for (var L0: int = 0; L0 < 1; L0 = L0 + 1) {
            var W1: int = 2; while (W1 > 0) { W1 = W1 - 1;
                v0 = (v1 && v2);
            }
        }
    }
",
    );
    let program = clfp::lang::compile(&source).unwrap();
    let trace = trace_of(&program);
    assert_both_match_reference(&program, &trace, &config(), "nest");
    assert_tight_chains(&program, &trace, &config(), "nest");
}
