//! Randomized differential suite over random MiniC programs
//! (`common::random_program`), each case drawn from a fixed seed:
//!
//! - **The toolchain against itself.** The compiled code executed by the
//!   VM and the reference AST interpreter agree on `main`'s result and on
//!   the final globals, with default code generation and with
//!   if-conversion plus optimization — a code-generation bug and an
//!   interpreter bug would have to coincide exactly to slip through.
//! - **The lane kernel against the one independent oracle.** One
//!   preparation and one [`report_mode_matrix`] walk cover all 12
//!   (disambiguation, value-prediction) modes. Each mode's reports equal
//!   the reference pass at both unroll settings and the streamed pass at
//!   chunk sizes 1, 7 and whole-trace, bit for bit. The recording walks
//!   ([`machine_metrics_with_unrolling`]) of three mode slices reproduce
//!   the reference cycles and instruction counts, and record tight
//!   chains: under unit latencies every critical path is as long as the
//!   run, with one head.
//! - **The theorems.** Every mode's reports obey the paper's machine
//!   ordering, both mode axes obey [`check_monotonicity`], perfect
//!   unrolling never lengthens the critical path, and the alias analysis
//!   is dynamically sound (no observed address conflict falls on a
//!   no-alias pair; the chunked walker equals the whole-trace walker).
//!
//! A failure panics with the case seed and the program, shrunk by
//! deleting statements while the failure still reproduces.
//!
//! [`report_mode_matrix`]: clfp::limits::PreparedTrace::report_mode_matrix
//! [`machine_metrics_with_unrolling`]: clfp::limits::PreparedTrace::machine_metrics_with_unrolling

mod common;

use clfp::isa::{Reg, DATA_BASE};
use clfp::lang::{compile, compile_with_options, interpret_source, CodegenOptions};
use clfp::limits::{
    AnalysisConfig, Analyzer, MachineKind, MemDisambiguation, Report, StreamOptions,
    ValuePrediction,
};
use clfp::verify::{check_monotonicity, TraceChecks};
use clfp::vm::{Vm, VmOptions};
use common::{check_programs, program_with, same_report};

/// Programs compiled and run against the interpreter, per code generator.
const INTERPRETER_CASES: usize = 256;

/// Programs put through the full mode-matrix check.
const MODE_CASES: usize = 20;

/// Trace cap of the mode-matrix check.
const MAX_INSTRS: u64 = 100_000;

/// The statements of `main` in the stored failure case of the retired
/// property suite: a masked store whose index is a call on a
/// short-circuit `||`, inside two one-trip loops.
const STORED_CASE: &str = "    for (var L0: int = 0; L0 < 1; L0 = L0 + 1) {
        for (var L1: int = 0; L1 < 1; L1 = L1 + 1) {
            g0[(h1((1 || h1(0)))) & 15] = (0 - 1);
        }
    }
";

/// Compiles `source` with default code generation and with if-conversion
/// plus optimization, runs each to completion on the VM, and compares
/// `main`'s result and every global word with the interpreter's.
fn toolchain_agrees(source: &str) -> Result<(), String> {
    let outcome = interpret_source(source, 500_000_000).map_err(|err| format!("interp: {err}"))?;
    let transformed = CodegenOptions {
        if_conversion: true,
        optimize: true,
    };
    for options in [CodegenOptions::default(), transformed] {
        let program = compile_with_options(source, options).map_err(|err| format!("{err}"))?;
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 20 });
        vm.run(50_000_000).map_err(|err| format!("vm: {err}"))?;
        let globals: Result<Vec<i32>, _> = (0..outcome.globals.len() as u32)
            .map(|i| vm.load_word(DATA_BASE + 4 * i))
            .collect();
        let compiled = (
            vm.halted(),
            vm.reg(Reg::V0),
            globals.map_err(|err| format!("{err}"))?,
        );
        let interpreted = (true, outcome.result, outcome.globals.clone());
        if compiled != interpreted {
            return Err(format!(
                "{options:?}: (halted, result, globals) {compiled:?} compiled, {interpreted:?} \
                 interpreted"
            ));
        }
    }
    Ok(())
}

#[test]
fn compiled_matches_interpreted() {
    toolchain_agrees(&program_with(STORED_CASE)).unwrap();
    check_programs(0x1992_0519_0000_0001, INTERPRETER_CASES, toolchain_agrees);
}

/// The paper's machine ordering on one report: no machine beats one that
/// dominates it, and every machine takes at least one cycle and at most
/// one per instruction (parallelism at least 1).
fn hierarchy_holds(report: &Report, tag: &str) -> Result<(), String> {
    let cycles = |kind| report.result(kind).expect("every machine").cycles;
    for kind in MachineKind::ALL {
        if !(1..=report.seq_instrs).contains(&cycles(kind)) {
            let seq = report.seq_instrs;
            return Err(format!(
                "{tag}: {kind} took {} cycles for {seq} instructions",
                cycles(kind)
            ));
        }
        if let Some(&weaker) = kind.dominates().iter().find(|&&w| cycles(w) < cycles(kind)) {
            return Err(format!(
                "{tag}: {weaker} took {} cycles but stronger {kind} took {}",
                cycles(weaker),
                cycles(kind)
            ));
        }
    }
    Ok(())
}

/// Every (disambiguation, value-prediction) mode, disambiguation-major.
fn all_modes() -> Vec<(MemDisambiguation, ValuePrediction)> {
    MemDisambiguation::ALL
        .into_iter()
        .flat_map(|dis| ValuePrediction::ALL.map(|vp| (dis, vp)))
        .collect()
}

fn monotone(axis: &str, chain: &[(&str, &Report)], tag: &str) -> Result<(), String> {
    let violations = check_monotonicity(axis, chain);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{tag}: {violations:#?}"))
    }
}

/// The lane kernel, the streamed pipeline and the reference pass agree in
/// every mode, and every theorem holds, on one program.
fn kernel_agrees(source: &str) -> Result<(), String> {
    let program = compile(source).map_err(|err| format!("compile: {err}"))?;
    let config = AnalysisConfig::quick().with_max_instrs(MAX_INSTRS);
    let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 20 });
    let trace = vm.trace(MAX_INSTRS).map_err(|err| format!("vm: {err}"))?;
    let analyzer = Analyzer::new(&program, config.clone()).map_err(|err| format!("{err}"))?;
    let modes = all_modes();
    let prepared = analyzer.prepare(&trace);
    let matrix = prepared.report_mode_matrix(&modes);

    for (&(dis, vp), (unrolled, rolled)) in modes.iter().zip(&matrix) {
        let mode = format!("{}/{}", dis.name(), vp.name());
        let mode_config = config
            .clone()
            .with_disambiguation(dis)
            .with_value_prediction(vp);
        for (unrolling, got) in [(true, unrolled), (false, rolled)] {
            let tag = format!("{mode} unroll={unrolling}");
            let reference = Analyzer::new(&program, mode_config.clone().with_unrolling(unrolling))
                .map_err(|err| format!("{err}"))?
                .run_on_trace_reference(&trace);
            same_report(got, &reference, &format!("{tag} matrix vs reference"))?;
            hierarchy_holds(got, &tag)?;
        }
        let mode_analyzer = Analyzer::new(&program, mode_config).map_err(|err| format!("{err}"))?;
        for chunk in [1, 7, trace.len().max(1)] {
            let options = StreamOptions {
                chunk_events: chunk,
                machine_threads: 1,
            };
            let streamed = mode_analyzer
                .run_streamed_on(&trace, options)
                .map_err(|err| format!("stream: {err}"))?;
            for (got, want, setting) in [
                (&streamed.unrolled, unrolled, "unrolled"),
                (&streamed.rolled, rolled, "rolled"),
            ] {
                same_report(got, want, &format!("{mode} chunk={chunk} {setting}"))?;
            }
        }
        // The paper: "our simulation of perfect loop unrolling always
        // decreases the program execution times" — unrolling only removes
        // constraints and instructions.
        for kind in [MachineKind::Oracle, MachineKind::CdMf] {
            let on = unrolled.result(kind).expect("every machine").cycles;
            let off = rolled.result(kind).expect("every machine").cycles;
            if on > off {
                return Err(format!(
                    "{mode} {kind}: unrolling grew the critical path {off} -> {on}"
                ));
            }
        }
        if unrolled.seq_instrs > rolled.seq_instrs {
            return Err(format!("{mode}: unrolling grew the sequential count"));
        }
    }

    // The recording walks of a few mode slices schedule what the
    // reference pass schedules, and their chains are tight: under unit
    // latencies, with renaming on and no fetch limit, every hop adds one
    // cycle to a chain that starts at cycle 1.
    for slice_mode in [
        (MemDisambiguation::Perfect, ValuePrediction::Off),
        (MemDisambiguation::Static, ValuePrediction::Stride),
        (MemDisambiguation::None, ValuePrediction::LastValue),
    ] {
        let (dis, vp) = slice_mode;
        let (unrolled, rolled) = &matrix[modes.iter().position(|&m| m == slice_mode).unwrap()];
        let slice = prepared.slice_modes(dis, vp);
        for (unrolling, want) in [(true, unrolled), (false, rolled)] {
            let tag = format!("{}/{} unroll={unrolling}", dis.name(), vp.name());
            let metrics = slice.machine_metrics_with_unrolling(unrolling);
            for ((kind, m), r) in metrics.iter().zip(&want.results) {
                if (m.cycles, m.instrs) != (r.cycles, want.seq_instrs) {
                    return Err(format!(
                        "{tag} {kind}: recorded {} cycles, {} instrs; reference {} and {}",
                        m.cycles, m.instrs, r.cycles, want.seq_instrs
                    ));
                }
                let a = &m.attribution;
                let heads = u64::from(m.instrs > 0);
                if a.chain_len != m.cycles
                    || a.terminators != heads
                    || a.classified() + heads != a.chain_len
                {
                    return Err(format!(
                        "{tag} {kind}: loose chain {a:?} over {} cycles",
                        m.cycles
                    ));
                }
            }
        }
    }

    // Both mode axes, each cross-section from the most constrained mode to
    // the least, at both unroll settings. `modes` runs disambiguation-major
    // in `ALL` order: disambiguation from the least constrained, value
    // prediction from the weakest.
    let vps = ValuePrediction::ALL.len();
    for unrolling in [true, false] {
        let report = |d: usize, v: usize| {
            let (unrolled, rolled) = &matrix[d * vps + v];
            (
                modes[d * vps + v],
                if unrolling { unrolled } else { rolled },
            )
        };
        for v in 0..vps {
            let chain = [2, 1, 0]
                .map(|d| report(d, v))
                .map(|((dis, _), r)| (dis.name(), r));
            let tag = format!("{} unroll={unrolling}", ValuePrediction::ALL[v].name());
            monotone("memory disambiguation", &chain, &tag)?;
        }
        for (d, dis) in MemDisambiguation::ALL.iter().enumerate() {
            let chain: Vec<_> = (0..vps)
                .map(|v| report(d, v))
                .map(|((_, vp), r)| (vp.name(), r))
                .collect();
            let tag = format!("{} unroll={unrolling}", dis.name());
            monotone("value prediction", &chain, &tag)?;
        }
    }

    // The static analysis reads only the program, so one checker covers
    // both unroll settings. The whole-trace walk must find no conflict on
    // a no-alias pair, and so must every chunked walk.
    let checks = TraceChecks::new(&program, analyzer.static_info());
    for chunk in [trace.len().max(1), 1, 7, 4096] {
        let found = checks
            .check_alias_soundness(&trace, chunk)
            .map_err(|err| format!("{err}"))?;
        if !found.is_empty() {
            return Err(format!("unsound alias analysis, chunk {chunk}: {found:?}"));
        }
    }
    Ok(())
}

#[test]
fn kernel_matches_reference_in_every_mode() {
    kernel_agrees(&program_with(STORED_CASE)).unwrap();
    check_programs(0x1992_0519_0000_0002, MODE_CASES, kernel_agrees);
}
