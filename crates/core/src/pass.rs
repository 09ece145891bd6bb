//! The per-machine trace simulation pass (Section 4.4 of the paper).
//!
//! For every dynamic instruction the pass computes the earliest cycle at
//! which it can execute, given:
//!
//! * **true data dependences** — the instruction waits for the last write
//!   of every register it reads and (for loads) of the word it reads;
//! * the machine's **control-flow constraint** — see
//!   [`MachineKind`](crate::MachineKind).
//!
//! Control dependence is resolved dynamically exactly as described in
//! Section 4.4.1: basic-block instances are numbered sequentially; each
//! branch records its latest instance; an instruction's immediate control
//! dependence is the most recent instance among the branches in its
//! block's reverse dominance frontier, or the dependence inherited through
//! the call stack; recursion triggers the paper's upper-bound cutoff.
//!
//! For the speculative machines every branch instance also carries a
//! *misprediction ceiling*: its own execution time if it was mispredicted,
//! otherwise the ceiling it inherited — so dependents wait precisely for
//! their nearest mispredicted control-dependence ancestor (Section 4.4.2).

use clfp_cfg::StaticInfo;
use clfp_isa::{Instr, Program};
use clfp_predict::{BranchProfile, ValuePredictor};
use clfp_vm::{Trace, TraceEvent};

use crate::stats::{BranchReport, MispredictionStats};
use crate::{AnalysisConfig, LastWriteTable, MachineKind, PredictorChoice, ValuePrediction};

/// Everything shared by the seven machine passes over one trace.
pub(crate) struct Prepared<'a> {
    pub program: &'a Program,
    pub info: &'a StaticInfo,
    pub events: &'a [TraceEvent],
    /// Parallel to `events`: whether each event's branch was mispredicted
    /// (computed jumps always are — the paper does not predict them;
    /// non-branches never are). See [`mispredictions`].
    pub mispred: &'a [bool],
    /// Idealization knobs (all at the paper's setting by default); the
    /// pass reads the ignore masks under its `inlining` and `unrolling`.
    pub config: &'a AnalysisConfig,
}

/// The reference's own misprediction bit for every event of `trace`:
/// `config.predictor` replayed over the trace, one prediction per
/// dynamic conditional branch, with the profile predictor trained on the
/// trace itself (the paper profiles "with the same inputs used in the
/// simulations"). Computed jumps are always mispredicted.
pub(crate) fn mispredictions(
    program: &Program,
    config: &AnalysisConfig,
    trace: &Trace,
) -> Vec<bool> {
    let profile = match config.predictor {
        PredictorChoice::Profile => BranchProfile::from_trace(program, trace),
        _ => BranchProfile::new(),
    };
    let mut predictor = config.predictor.build(program, &profile);
    trace
        .iter()
        .map(|event| {
            let instr = program.text[event.pc as usize];
            if instr.is_cond_branch() {
                predictor.predict_and_update(event.pc, event.taken) != event.taken
            } else {
                instr.is_computed_jump()
            }
        })
        .collect()
}

/// Result of one machine pass.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PassResult {
    /// Critical-path length in cycles.
    pub cycles: u64,
    /// Non-ignored dynamic instructions (the sequential time).
    pub count: u64,
    /// Misprediction-distance statistics (SP machine only).
    pub mispred_stats: Option<MispredictionStats>,
}

/// A branch (or pass-through) instance record.
#[derive(Copy, Clone, Debug, Default)]
struct BranchInst {
    /// Sequence number of the block instance that executed it.
    seq: u64,
    /// Procedure-invocation start sequence number active at the time.
    proc_seq: u64,
    /// Execution cycle (CD/CD-MF constraint source).
    time: u64,
    /// Misprediction ceiling (SP-CD/SP-CD-MF constraint source).
    ceiling: u64,
}

/// Interprocedural control-dependence stack entry (one per active call).
#[derive(Copy, Clone, Debug)]
struct StackEntry {
    /// Sequence number at the start of the callee.
    proc_seq: u64,
    /// Inherited CD time (the call instruction's own control dependence).
    inh_time: u64,
    /// Inherited misprediction ceiling.
    inh_ceiling: u64,
}

/// Resolved control-dependence context for one dynamic instruction.
#[derive(Copy, Clone, Debug, Default)]
struct CdCtx {
    time: u64,
    ceiling: u64,
}

pub(crate) fn run_pass(prepared: &Prepared<'_>, kind: MachineKind) -> PassResult {
    run_pass_with_schedule(prepared, kind, None)
}

/// Like [`run_pass`], optionally recording the execution cycle of every
/// trace event (0 for ignored instructions) — used for the Figure 3 style
/// schedule displays and golden tests.
pub(crate) fn run_pass_with_schedule(
    prepared: &Prepared<'_>,
    kind: MachineKind,
    mut schedule: Option<&mut Vec<u64>>,
) -> PassResult {
    let text = &prepared.program.text;
    let cfg = &prepared.info.cfg;
    let deps = &prepared.info.deps;
    let uses_cd = kind.uses_control_deps();
    let track_segments = kind == MachineKind::Sp;

    let config = prepared.config;
    let shift = config.disambiguation_bytes.trailing_zeros();
    let accumulate = config
        .disambiguation
        .accumulates(config.disambiguation_bytes);
    // The reference runs its own value predictor: it is the oracle the
    // prepared pipelines are checked against, so it reads no hit bit
    // they recorded.
    let mut value_predictor = config.value_prediction.build(text.len());
    let mut reg_time = [0u64; 32];
    let mut mem_time = LastWriteTable::with_capacity(1 << 16);
    // False-dependence state, used only when renaming is off.
    let mut reg_read = [0u64; 32];
    let mut mem_read = LastWriteTable::with_capacity(1 << 16);
    let mut branch_info: Vec<Option<BranchInst>> = vec![None; text.len()];
    let mut stack: Vec<StackEntry> = Vec::new();

    let mut seq: u64 = 0;
    let mut last_branch: u64 = 0; // BASE constraint / CD branch ordering
    let mut last_mispred: u64 = 0; // SP constraint / SP-CD ordering
    let mut cycles: u64 = 0;
    let mut count: u64 = 0;

    // SP segment statistics (Figures 6, 7).
    let mut stats = MispredictionStats::new();
    let mut seg_count: u64 = 0;
    let mut seg_start: u64 = 0;
    let mut seg_max: u64 = 0;

    for (i, event) in prepared.events.iter().enumerate() {
        let pc = event.pc;
        let instr = text[pc as usize];
        let block = cfg.block_of_instr(pc);
        if pc == cfg.block(block).start {
            seq += 1;
        }
        let ignored = is_ignored(prepared, pc);
        let is_branch = instr.is_cond_branch() || instr.is_computed_jump();
        let mispredicted = is_branch && prepared.mispred[i];

        // Every def-producing event trains the predictor, ignored or not,
        // so the hit sequence does not depend on the unroll setting.
        let vp_hit = instr.def().is_some() && value_hit(config, &mut value_predictor, event);

        // Resolve control dependence (needed for CD machines, and for the
        // stack inheritance at calls even on non-CD machines it is cheap to
        // skip).
        let cd = if uses_cd || instr.is_call_or_ret() {
            resolve_cd(deps.rdf_branches(block), &branch_info, &stack, seq)
        } else {
            CdCtx::default()
        };

        // Machine-specific control constraint.
        let mut ctl = match kind {
            MachineKind::Base => last_branch,
            MachineKind::Cd | MachineKind::CdMf => cd.time,
            MachineKind::Sp => last_mispred,
            MachineKind::SpCd | MachineKind::SpCdMf => cd.ceiling,
            MachineKind::Oracle => 0,
        };
        // Branch-ordering constraints.
        if is_branch && !ignored {
            match kind {
                // All branches execute in sequential order.
                MachineKind::Cd => ctl = ctl.max(last_branch),
                // Mispredicted branches execute in order, one per cycle.
                MachineKind::SpCd if mispredicted => ctl = ctl.max(last_mispred),
                _ => {}
            }
        }

        let mut exec = 0u64;
        if !ignored {
            // Finite front end: instruction `count` cannot issue before
            // cycle count/W + 1 (W instructions fetched per cycle).
            if let Some(width) = config.fetch_bandwidth {
                ctl = ctl.max(count / width);
            }
            // True data dependences. The tables store *availability*
            // times (execution + latency - 1), so readers simply add 1.
            let mut data = 0u64;
            for reg in instr.uses() {
                data = data.max(reg_time[reg.index()]);
            }
            let is_load = matches!(instr, Instr::Lw { .. });
            let is_store = matches!(instr, Instr::Sw { .. });
            // The last-write key under the configured disambiguation
            // mode, derived here from the raw event.
            let mem_key = match config.disambiguation {
                crate::MemDisambiguation::Perfect => event.mem_addr >> shift,
                crate::MemDisambiguation::Static => {
                    prepared.info.alias.scheduler_class(pc)
                }
                crate::MemDisambiguation::None => 0,
            };
            if is_load {
                data = data.max(mem_time.get(mem_key));
            }
            // Anti and output dependences, when renaming is off: a write
            // waits for the previous readers and the previous writer.
            if !config.rename {
                if let Some(rd) = instr.def() {
                    data = data.max(reg_read[rd.index()]).max(reg_time[rd.index()]);
                }
                if is_store {
                    data = data.max(mem_read.get(mem_key)).max(mem_time.get(mem_key));
                }
            }
            exec = data.max(ctl) + 1;
            let done = exec + config.latency.of(instr) - 1;
            count += 1;
            cycles = cycles.max(done);
            if let Some(rd) = instr.def() {
                // A correctly value-predicted producer releases its
                // consumers immediately (availability 0); the producer's
                // own exec/done still count — verification is charged at
                // resolve time like a mispredicted branch.
                reg_time[rd.index()] = if vp_hit { 0 } else { done };
            }
            if is_store {
                // Keys coarser than a word accumulate: without the
                // oracle, a load must wait for *every* earlier
                // may-aliasing store, not just the latest
                // (`MemDisambiguation::accumulates`).
                let t = if accumulate {
                    mem_time.get(mem_key).max(done)
                } else {
                    done
                };
                mem_time.set(mem_key, t);
            }
            if !config.rename {
                for reg in instr.uses() {
                    reg_read[reg.index()] = reg_read[reg.index()].max(exec);
                }
                if is_load {
                    let prev = mem_read.get(mem_key);
                    mem_read.set(mem_key, prev.max(exec));
                }
            }
        }

        if let Some(schedule) = schedule.as_deref_mut() {
            schedule.push(exec);
        }

        // Tracker updates.
        if is_branch {
            if ignored {
                // Perfect unrolling deleted this branch: dependents inherit
                // the constraint the branch itself would have waited on.
                branch_info[pc as usize] = Some(BranchInst {
                    seq,
                    proc_seq: cur_proc_seq(&stack),
                    time: cd.time,
                    ceiling: cd.ceiling,
                });
            } else {
                last_branch = exec;
                if mispredicted {
                    last_mispred = exec;
                }
                branch_info[pc as usize] = Some(BranchInst {
                    seq,
                    proc_seq: cur_proc_seq(&stack),
                    time: exec,
                    ceiling: if mispredicted { exec } else { cd.ceiling },
                });
            }
        }
        match instr {
            Instr::Call { .. } | Instr::CallR { .. } => {
                stack.push(StackEntry {
                    proc_seq: seq + 1,
                    inh_time: cd.time,
                    inh_ceiling: cd.ceiling,
                });
            }
            Instr::Ret => {
                stack.pop();
            }
            _ => {}
        }

        // SP segment statistics.
        if track_segments && !ignored {
            seg_count += 1;
            seg_max = seg_max.max(exec);
            if mispredicted {
                let span = seg_max.saturating_sub(seg_start).max(1);
                stats.record_segment(
                    seg_count.min(u32::MAX as u64) as u32,
                    seg_count as f64 / span as f64,
                );
                seg_count = 0;
                seg_start = exec;
                seg_max = exec;
            }
        }
    }
    if track_segments && seg_count > 0 {
        let span = seg_max.saturating_sub(seg_start).max(1);
        stats.record_segment(
            seg_count.min(u32::MAX as u64) as u32,
            seg_count as f64 / span as f64,
        );
    }

    PassResult {
        cycles,
        count,
        mispred_stats: track_segments.then_some(stats),
    }
}

/// The report's counts over the reference's input, taken from the
/// program text and the trace without the preparation walk: the branch
/// report (conditional branches, taken and correctly predicted ones by
/// `mispred`, computed jumps, raw events, and the register defs and hits
/// of the reference's own value predictor under
/// `config.value_prediction`), and the events that perfect inlining and
/// unrolling keep.
pub(crate) fn reference_counts(prepared: &Prepared<'_>) -> (BranchReport, u64) {
    let text = &prepared.program.text;
    let mut value_predictor = prepared.config.value_prediction.build(text.len());
    let mut branches = BranchReport {
        raw_instrs: prepared.events.len() as u64,
        ..BranchReport::default()
    };
    let mut not_ignored = 0;
    for (event, &mispredicted) in prepared.events.iter().zip(prepared.mispred) {
        let instr = text[event.pc as usize];
        if instr.is_cond_branch() {
            branches.cond_branches += 1;
            branches.taken += u64::from(event.taken);
            branches.predicted_correctly += u64::from(!mispredicted);
        } else if instr.is_computed_jump() {
            branches.computed_jumps += 1;
        }
        if instr.def().is_some() {
            branches.value_pred_eligible += 1;
            let hit = value_hit(prepared.config, &mut value_predictor, event);
            branches.value_pred_hits += u64::from(hit);
        }
        not_ignored += u64::from(!is_ignored(prepared, event.pc));
    }
    (branches, not_ignored)
}

/// Whether perfect inlining or unrolling, as configured, deletes the
/// static instruction at `pc`.
fn is_ignored(prepared: &Prepared<'_>, pc: u32) -> bool {
    let (config, masks) = (prepared.config, &prepared.info.masks);
    (config.inlining && masks.inline_ignored(pc)) || (config.unrolling && masks.unroll_ignored(pc))
}

/// Whether the reference's own value predictor, built by
/// `config.value_prediction`, predicts the value a register-defining
/// `event` produces; a realistic predictor trains on it.
fn value_hit(
    config: &AnalysisConfig,
    predictor: &mut Option<Box<dyn ValuePredictor>>,
    event: &TraceEvent,
) -> bool {
    match config.value_prediction {
        ValuePrediction::Off => false,
        ValuePrediction::Perfect => true,
        _ => predictor
            .as_mut()
            .expect("realistic mode has a predictor")
            .predict_and_update(event.pc, event.value),
    }
}

fn cur_proc_seq(stack: &[StackEntry]) -> u64 {
    stack.last().map_or(0, |entry| entry.proc_seq)
}

/// Section 4.4.1: the immediate control dependence of a dynamic
/// instruction is the most recent among (a) the latest instances of the
/// branches in its block's reverse dominance frontier from the *same
/// procedure invocation* and (b) the dependence inherited through the call
/// stack. A frontier instance from a *newer* invocation signals recursion;
/// the paper then drops the dependence entirely (an upper bound).
fn resolve_cd(
    rdf: &[u32],
    branch_info: &[Option<BranchInst>],
    stack: &[StackEntry],
    _seq: u64,
) -> CdCtx {
    let proc_seq = cur_proc_seq(stack);
    let mut best: Option<BranchInst> = None;
    for &branch_pc in rdf {
        let Some(inst) = branch_info[branch_pc as usize] else {
            continue;
        };
        if inst.proc_seq > proc_seq {
            // Recursion cutoff.
            return CdCtx::default();
        }
        if inst.proc_seq == proc_seq && best.is_none_or(|b| inst.seq > b.seq) {
            best = Some(inst);
        }
    }
    match best {
        Some(inst) => CdCtx {
            time: inst.time,
            ceiling: inst.ceiling,
        },
        None => match stack.last() {
            Some(entry) => CdCtx {
                time: entry.inh_time,
                ceiling: entry.inh_ceiling,
            },
            None => CdCtx::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;
    use clfp_vm::{Vm, VmOptions};

    /// Assembles, traces, and runs one machine pass without unrolling,
    /// with the misprediction flags of an always-correct or an
    /// always-wrong predictor stub.
    fn analyze(source: &str, kind: MachineKind, mispredict_all: bool) -> PassResult {
        let program = assemble(source).unwrap();
        let info = StaticInfo::analyze(&program);
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 16 });
        let trace = vm.trace(1_000_000).unwrap();
        let text = &program.text;
        let mispred: Vec<bool> = trace
            .iter()
            .map(|e| {
                let instr = text[e.pc as usize];
                instr.is_computed_jump() || (instr.is_cond_branch() && mispredict_all)
            })
            .collect();
        let prepared = Prepared {
            program: &program,
            info: &info,
            events: trace.events(),
            mispred: &mispred,
            config: &AnalysisConfig::default().with_unrolling(false),
        };
        run_pass(&prepared, kind)
    }

    /// A straight-line program: every machine should see the same
    /// data-dependence-limited schedule.
    #[test]
    fn straight_line_all_machines_agree() {
        let source = r#"
            .text
            main:
                li r8, 1
                li r9, 2
                add r10, r8, r9
                add r11, r10, r8
                halt
            "#;
        for kind in MachineKind::ALL {
            let result = analyze(source, kind, false);
            assert_eq!(result.count, 5, "{kind}");
            // Chain: li(1) -> add(2) -> add(3); halt at 1.
            assert_eq!(result.cycles, 3, "{kind}");
        }
    }

    /// Independent instructions behind a branch: ORACLE collapses to the
    /// data critical path; BASE serializes on the branch chain.
    #[test]
    fn base_serializes_on_branches() {
        let source = r#"
            .text
            main:
                li r8, 4
            loop:
                addi r8, r8, -1
                bgt r8, r0, loop
                halt
            "#;
        let oracle = analyze(source, MachineKind::Oracle, false);
        let base = analyze(source, MachineKind::Base, false);
        // 4 iterations: data chain on r8 = li(1), addi×4 (2..5), branches
        // ride one cycle behind. Total instrs: 1 + 8 + 1.
        assert_eq!(oracle.count, 10);
        assert_eq!(oracle.cycles, 6); // li, addi*4, halt? halt waits nothing: 1; bgt chain: addi_k+1
        assert!(base.cycles >= oracle.cycles);
    }

    /// The r8/r9 chains are independent; CD-MF can run them concurrently
    /// while CD must order the two loops' branches.
    #[test]
    fn cd_mf_overlaps_independent_loops() {
        let source = r#"
            .text
            main:
                li r8, 50
            loop1:
                addi r8, r8, -1
                bgt r8, r0, loop1
                li r9, 50
            loop2:
                addi r9, r9, -1
                bgt r9, r0, loop2
                halt
            "#;
        let cd = analyze(source, MachineKind::Cd, false);
        let cdmf = analyze(source, MachineKind::CdMf, false);
        let base = analyze(source, MachineKind::Base, false);
        assert!(cd.cycles <= base.cycles);
        // CD-MF overlaps the two loops: each loop alone needs ~2 cycles per
        // iteration (the body waits on the previous iteration's branch), so
        // the overlapped pair finishes in ~100 cycles while CD's global
        // branch ordering needs ~200.
        assert!(
            cdmf.cycles < cd.cycles,
            "cdmf {} vs cd {}",
            cdmf.cycles,
            cd.cycles
        );
        assert!(cdmf.cycles <= 110, "cdmf took {}", cdmf.cycles);
        assert!(cd.cycles >= 190, "cd took {}", cd.cycles);
    }

    /// With perfect prediction (no mispredictions), SP collapses control
    /// constraints entirely: only data dependences remain, like ORACLE.
    #[test]
    fn sp_with_perfect_prediction_matches_oracle() {
        let source = r#"
            .text
            main:
                li r8, 10
            loop:
                addi r8, r8, -1
                bgt r8, r0, loop
                halt
            "#;
        let sp = analyze(source, MachineKind::Sp, false);
        let oracle = analyze(source, MachineKind::Oracle, false);
        assert_eq!(sp.cycles, oracle.cycles);
        assert_eq!(sp.count, oracle.count);
    }

    /// With every branch mispredicted, SP degenerates to BASE-like
    /// serialization.
    #[test]
    fn sp_with_all_mispredictions_serializes() {
        let source = r#"
            .text
            main:
                li r8, 10
            loop:
                addi r8, r8, -1
                bgt r8, r0, loop
                halt
            "#;
        let sp_bad = analyze(source, MachineKind::Sp, true);
        let sp_good = analyze(source, MachineKind::Sp, false);
        assert!(sp_bad.cycles > sp_good.cycles);
        let base = analyze(source, MachineKind::Base, false);
        assert_eq!(sp_bad.cycles, base.cycles);
    }

    /// SP collects one segment per misprediction plus the trailing one.
    #[test]
    fn sp_segment_statistics() {
        let source = r#"
            .text
            main:
                li r8, 5
            loop:
                addi r8, r8, -1
                bgt r8, r0, loop
                halt
            "#;
        let result = analyze(source, MachineKind::Sp, true);
        let stats = result.mispred_stats.unwrap();
        // 5 mispredicted loop branches + trailing halt segment.
        assert_eq!(stats.total_segments(), 6);
    }

    /// Control-independent code after a data-dependent diamond: SP-CD does
    /// not cancel it on mispredictions, so it beats SP when every branch
    /// mispredicts.
    #[test]
    fn sp_cd_survives_mispredictions_on_independent_code() {
        let source = r#"
            .text
            main:
                li r8, 20
                li r10, 0
                li r11, 0
            loop:
                beq r8, r9, skip     # data-dependent diamond
                addi r10, r10, 1
            skip:
                addi r11, r11, 3     # control independent of the diamond
                addi r8, r8, -1
                bgt r8, r0, loop
                halt
            "#;
        let sp = analyze(source, MachineKind::Sp, true);
        let spcd = analyze(source, MachineKind::SpCd, true);
        let spcdmf = analyze(source, MachineKind::SpCdMf, true);
        assert!(spcd.cycles < sp.cycles, "spcd {} sp {}", spcd.cycles, sp.cycles);
        assert!(spcdmf.cycles <= spcd.cycles);
    }

    /// The full machine ordering on a procedure-heavy program.
    #[test]
    fn machine_hierarchy_holds_with_calls() {
        let source = r#"
            .text
            main:
                li r8, 8
            mloop:
                mv a0, r8
                call work
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
        let mut results = std::collections::HashMap::new();
        for kind in MachineKind::ALL {
            let result = analyze(source, kind, false);
            results.insert(kind, result.count as f64 / result.cycles as f64);
        }
        for kind in MachineKind::ALL {
            for &weaker in kind.dominates() {
                assert!(
                    results[&weaker] <= results[&kind] + 1e-9,
                    "{weaker} ({}) should not beat {kind} ({})",
                    results[&weaker],
                    results[&kind]
                );
            }
        }
    }

    /// Ignored instructions contribute nothing: a loop whose overhead is
    /// removed by unrolling has a shorter sequential count.
    #[test]
    fn unrolling_removes_loop_overhead() {
        let source = r#"
            .text
            main:
                li r8, 0
                li r9, 100
            loop:
                lw r10, 0x1000(r0)
                addi r8, r8, 1
                blt r8, r9, loop
                halt
            "#;
        let program = assemble(source).unwrap();
        let info = StaticInfo::analyze(&program);
        let mut vm = Vm::new(&program, VmOptions { mem_words: 1 << 16 });
        let trace = vm.trace(1_000_000).unwrap();
        let mispred = vec![false; trace.len()];
        let pass = |unrolling: bool| {
            let prepared = Prepared {
                program: &program,
                info: &info,
                events: trace.events(),
                mispred: &mispred,
                config: &AnalysisConfig::default().with_unrolling(unrolling),
            };
            run_pass(&prepared, MachineKind::CdMf)
        };
        let (on, off) = (pass(true), pass(false));
        // Unrolling removes addi+blt per iteration: 100 loads + li*2 + halt.
        assert_eq!(on.count, 103);
        assert_eq!(off.count, 303);
        // With the index chain gone, all loads issue immediately.
        assert!(on.cycles < off.cycles);
        assert!(on.cycles <= 3);
    }

    /// Memory dependences: a store-to-load chain serializes even on ORACLE.
    #[test]
    fn memory_chain_serializes_oracle() {
        let source = r#"
            .text
            main:
                li r8, 1
                sw r8, 0x2000(r0)
                lw r9, 0x2000(r0)
                addi r9, r9, 1
                sw r9, 0x2000(r0)
                lw r10, 0x2000(r0)
                halt
            "#;
        let result = analyze(source, MachineKind::Oracle, false);
        // li(1) sw(2) lw(3) addi(4) sw(5) lw(6).
        assert_eq!(result.cycles, 6);
    }

    /// Loads from distinct addresses do not depend on each other.
    #[test]
    fn independent_memory_is_parallel() {
        let source = r#"
            .text
            main:
                li r8, 1
                sw r8, 0x2000(r0)
                sw r8, 0x2004(r0)
                sw r8, 0x2008(r0)
                lw r9, 0x2000(r0)
                lw r10, 0x2004(r0)
                lw r11, 0x2008(r0)
                halt
            "#;
        let result = analyze(source, MachineKind::Oracle, false);
        // li(1), stores all (2), loads all (3).
        assert_eq!(result.cycles, 3);
    }

    /// Anti and output dependences are NOT enforced: a later write to the
    /// same register does not wait for earlier readers or writers.
    #[test]
    fn no_anti_or_output_dependences() {
        let source = r#"
            .text
            main:
                li r8, 1
                add r9, r8, r8
                add r9, r9, r9
                li r9, 7
                add r10, r9, r9
                halt
            "#;
        let result = analyze(source, MachineKind::Oracle, false);
        // The second li r9 executes at cycle 1 (no output dep); add r10 at 2.
        assert_eq!(result.cycles, 3); // critical path is li->add->add chain
    }
}
