//! Pre-decoded metadata for the multi-machine scheduling kernel.
//!
//! The seed analyzer walked the full dynamic trace once per machine model,
//! and every one of those seven walks re-fetched `text[event.pc]`,
//! re-extracted operand registers, re-looked-up the basic block, and
//! re-ran the reverse-dominance-frontier search for the instruction's
//! immediate control dependence. All of that work is machine-independent:
//!
//! * [`ProgramMeta`] caches the per-**PC** facts once per program —
//!   operand registers, destination, latency class, branch/call/ret/memory
//!   classification, block-start flag, the static alias class, and one
//!   ignore flag per unroll setting. Perfect inlining and unrolling delete
//!   *static* instructions, so whether an event is ignored is a fact of
//!   its pc: [`ProgramMeta::build`] resolves `config.inlining` and both
//!   unroll settings into [`PC_IGNORED_ROLLED`] and
//!   [`PC_IGNORED_UNROLLED`], and the lane kernel reads them from the
//!   `PcMeta` row it loads anyway;
//! * [`TraceMeta`] caches the per-**event** facts once per trace — the
//!   misprediction bit, the dynamic memory key, the value predictors' hit
//!   bits, and the resolved control-dependence source (Section 4.4.1 of
//!   the paper; the *choice* of controlling branch instance depends only
//!   on block-instance sequence numbers, which are identical for every
//!   machine).
//!
//! Nothing in [`TraceMeta`] depends on the unrolling setting except the
//! two sequential counts it keeps ([`TraceMeta::not_ignored`]), so one
//! walk serves both settings — Table 4's with/without-unrolling
//! comparison shares one preparation.
//!
//! A preparation reads its events twice, chunk by chunk. [`Pass1`]
//! collects what must be known before the first event is prepared (the
//! branch profile and the distinct memory-key count), then
//! [`MetaBuilder`] prepares the events. The streamed pipeline feeds both
//! from a [`TraceSource`](clfp_vm::TraceSource); [`TraceMeta::build`]
//! feeds each the whole trace as one chunk.
//!
//! The walk ([`MetaBuilder::push_chunk`]) does per event only the work
//! that varies per event. The static predictors (profile, always-taken,
//! BTFN) fix one direction per static branch (§4.4.2), so they are asked
//! once per branch pc when the builder is created; only the dynamic
//! predictors are consulted per branch instance. The control-dependence
//! source is looked up once per block instance: it is re-resolved at a
//! block start, or after a branch, call or return, and reused otherwise.
//! One pc-indexed table trains both value predictors.
//!
//! The preparation is also independent of the memory-disambiguation and
//! value-prediction modes: it keys memory by dynamic address and trains
//! every value predictor. The lane groups in [`lane`](crate::lane) apply
//! a mode when they schedule, so one preparation serves every mode.
//!
//! The kernel's walks in [`lane`](crate::lane) then touch only their own
//! timing state, sharing everything here.

use clfp_cfg::StaticInfo;
use clfp_isa::{Instr, Program};
use clfp_predict::BranchProfile;
use clfp_vm::Trace;

use crate::stats::BranchReport;
use crate::{AnalysisConfig, PredictorChoice, ValuePrediction};

/// Sentinel register index: "no register".
pub(crate) const NO_REG: u8 = u8::MAX;

// Per-PC flags.
pub(crate) const PC_COND_BRANCH: u16 = 1 << 0;
pub(crate) const PC_COMPUTED_JUMP: u16 = 1 << 1;
/// Conditional branch or computed jump (the paper's "branch").
pub(crate) const PC_BRANCH: u16 = 1 << 2;
pub(crate) const PC_LOAD: u16 = 1 << 3;
pub(crate) const PC_STORE: u16 = 1 << 4;
pub(crate) const PC_CALL: u16 = 1 << 5;
pub(crate) const PC_RET: u16 = 1 << 6;
pub(crate) const PC_BLOCK_START: u16 = 1 << 7;
/// Removed without unrolling: perfect inlining deletes it, and the
/// configuration applies inlining.
pub(crate) const PC_IGNORED_ROLLED: u16 = 1 << 8;
/// Removed with unrolling: [`PC_IGNORED_ROLLED`], or perfect unrolling
/// deletes it.
pub(crate) const PC_IGNORED_UNROLLED: u16 = 1 << 9;

/// Everything the per-event hot loops need to know about one static
/// instruction, decoded once per program instead of once per event per
/// machine.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PcMeta {
    /// `PC_*` flag bits.
    pub flags: u16,
    /// Destination register index, or [`NO_REG`].
    pub def: u8,
    /// Source register indices, [`NO_REG`]-terminated.
    pub uses: [u8; 3],
    /// Completion latency under the configured latency model.
    pub latency: u32,
    /// The static alias analysis's scheduler class: the last-write key of
    /// this load or store under static disambiguation.
    pub alias_class: u32,
}

impl PcMeta {
    #[inline]
    pub fn is(&self, flag: u16) -> bool {
        self.flags & flag != 0
    }
}

/// The per-PC metadata table for one program under one configuration.
#[derive(Clone, Debug)]
pub(crate) struct ProgramMeta {
    pub pcs: Vec<PcMeta>,
    /// Number of static alias classes: the distinct last-write keys under
    /// static disambiguation.
    pub num_classes: usize,
}

impl ProgramMeta {
    /// Decodes every static instruction once, resolving `config.inlining`
    /// into the two per-setting ignore flags.
    pub fn build(program: &Program, info: &StaticInfo, config: &AnalysisConfig) -> ProgramMeta {
        let cfg = &info.cfg;
        let pcs = program
            .text
            .iter()
            .enumerate()
            .map(|(pc, &instr)| {
                let pc = pc as u32;
                let mut flags = 0u16;
                if instr.is_cond_branch() {
                    flags |= PC_COND_BRANCH | PC_BRANCH;
                }
                if instr.is_computed_jump() {
                    flags |= PC_COMPUTED_JUMP | PC_BRANCH;
                }
                if matches!(instr, Instr::Lw { .. }) {
                    flags |= PC_LOAD;
                }
                if matches!(instr, Instr::Sw { .. }) {
                    flags |= PC_STORE;
                }
                if matches!(instr, Instr::Call { .. } | Instr::CallR { .. }) {
                    flags |= PC_CALL;
                }
                if matches!(instr, Instr::Ret) {
                    flags |= PC_RET;
                }
                if cfg.block(cfg.block_of_instr(pc)).start == pc {
                    flags |= PC_BLOCK_START;
                }
                if config.inlining && info.masks.inline_ignored(pc) {
                    flags |= PC_IGNORED_ROLLED | PC_IGNORED_UNROLLED;
                }
                if info.masks.unroll_ignored(pc) {
                    flags |= PC_IGNORED_UNROLLED;
                }
                let mut uses = [NO_REG; 3];
                for (slot, reg) in uses.iter_mut().zip(instr.uses()) {
                    *slot = reg.index() as u8;
                }
                PcMeta {
                    flags,
                    def: instr.def().map_or(NO_REG, |reg| reg.index() as u8),
                    uses,
                    latency: config.latency.of(instr) as u32,
                    alias_class: info.alias.scheduler_class(pc),
                }
            })
            .collect();
        ProgramMeta {
            pcs,
            num_classes: info.alias.num_classes() as usize,
        }
    }
}

// Per-event flags (the classification that varies per dynamic instance;
// the ignore flags are per pc, in [`PcMeta`]).
pub(crate) const EV_MISPRED: u8 = 1 << 0;
pub(crate) const EV_BRANCH: u8 = 1 << 1;
/// The event defines a register (value-prediction eligible). Under
/// `Perfect` value prediction this is exactly the predicted set.
pub(crate) const EV_DEF: u8 = 1 << 2;
/// The last-value predictor hit on this def.
pub(crate) const EV_VP_LAST: u8 = 1 << 3;
/// The hybrid stride predictor hit on this def.
pub(crate) const EV_VP_STRIDE: u8 = 1 << 4;

/// The flag bit that marks a correctly predicted value under `mode`: a
/// correctly speculated producer does not delay its consumers. `Off` maps
/// to no bit (`flags & 0` is never set), `Perfect` to [`EV_DEF`] (every
/// def hits). Each lane masks its own mode's bit, so lanes of different
/// modes share one walk.
pub(crate) fn vp_flag(mode: ValuePrediction) -> u8 {
    match mode {
        ValuePrediction::Off => 0,
        ValuePrediction::LastValue => EV_VP_LAST,
        ValuePrediction::Stride => EV_VP_STRIDE,
        ValuePrediction::Perfect => EV_DEF,
    }
}

/// `branches` with the value-prediction hits `mode` scores, taken from
/// the per-mode totals of a preparation walk (`vp_hits`, indexed by
/// [`ValuePrediction::ALL`]).
pub(crate) fn branches_under(
    branches: BranchReport,
    vp_hits: &[u64; 4],
    mode: ValuePrediction,
) -> BranchReport {
    let index = ValuePrediction::ALL
        .iter()
        .position(|&m| m == mode)
        .expect("mode is in ALL");
    BranchReport {
        value_pred_hits: vp_hits[index],
        ..branches
    }
}

/// The control-dependence source of an event: no constraint (recursion
/// cutoff, or no controlling branch outside any call).
pub(crate) const CD_NONE: u32 = u32::MAX;
/// The control-dependence source of an event: inherited from the top of
/// the machine's interprocedural call stack.
pub(crate) const CD_INHERIT: u32 = u32::MAX - 1;

/// One pre-decoded dynamic instruction.
///
/// `cd` names the static PC of the controlling branch whose *latest
/// instance* is the event's immediate control dependence — the selection
/// (Section 4.4.1) depends only on block-instance sequence numbers, so it
/// is computed once here and each machine merely reads its own recorded
/// time/ceiling for that branch.
#[derive(Copy, Clone, Debug)]
pub(crate) struct EventMeta {
    pub pc: u32,
    /// The dynamic memory key of a load or store, `mem_addr >>
    /// log2(disambiguation_bytes)`: its last-write key under `Perfect`
    /// disambiguation.
    pub mem_key: u32,
    /// Controlling branch PC, [`CD_NONE`], or [`CD_INHERIT`].
    pub cd: u32,
    /// `EV_*` flag bits.
    pub flags: u8,
}

/// Everything machine-independent about one captured trace: the paper's
/// classification pass, the branch report, and the resolved
/// control-dependence stream — computed in a single walk that serves
/// **both** unroll settings (they differ only in which pcs are ignored,
/// a per-pc fact the lane kernel reads from [`PcMeta`]).
#[derive(Clone, Debug)]
pub(crate) struct TraceMeta {
    pub events: Vec<EventMeta>,
    /// Non-ignored events per unroll setting, indexed by `unrolling as
    /// usize`: the sequential counts.
    not_ignored: [u64; 2],
    /// The branch report; its `value_pred_hits` is 0 until a mode picks
    /// one of [`TraceMeta::vp_hits`] (see [`branches_under`]).
    pub branches: BranchReport,
    /// Distinct dynamic memory keys touched by loads and stores — sizes
    /// the perfect-disambiguation last-write tables to the trace's live
    /// footprint instead of a fixed guess.
    pub distinct_mem_keys: u64,
    /// Hits each value-prediction mode scores on this trace, indexed by
    /// [`ValuePrediction::ALL`].
    pub vp_hits: [u64; 4],
}

impl TraceMeta {
    /// The sequential instruction count under one unroll setting: the
    /// events its ignore flag keeps.
    pub fn not_ignored(&self, unrolling: bool) -> u64 {
        self.not_ignored[unrolling as usize]
    }

    /// The shared preparation walk: classification (branch prediction and
    /// the sequential counts for both unroll settings), operand
    /// pre-decode, and dynamic control-dependence resolution, one trace
    /// walk for all machines. The whole-trace special case of the streamed
    /// pipeline's two passes: [`Pass1`] and then [`MetaBuilder`] are each
    /// fed the trace as one chunk, so the in-memory and streaming
    /// pipelines share one implementation of both walks.
    pub fn build(
        program: &Program,
        info: &StaticInfo,
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        trace: &Trace,
    ) -> TraceMeta {
        let _span =
            clfp_metrics::trace::span("prepare.build", "prepare").arg("events", trace.len());
        let mut pass1 = Pass1::new(pcs, config);
        pass1.push_chunk(trace.events());
        let mut builder = MetaBuilder::new(program, info, pcs, config, &pass1.profile);
        let mut events = Vec::with_capacity(trace.len());
        builder.push_chunk(trace.events(), &mut events);
        TraceMeta {
            events,
            not_ignored: builder.not_ignored,
            branches: builder.branches(),
            distinct_mem_keys: pass1.distinct_mem_keys,
            vp_hits: builder.vp_hits(),
        }
    }
}

/// Pass 1 of a preparation: what the preparation walk needs before its
/// first event, collected chunk by chunk over the whole stream.
///
/// * The branch profile, only when the profile predictor is selected:
///   the paper's profile-static predictor is trained on the measured
///   run's own inputs, so the profile of the stream itself is exactly
///   that semantics without a second VM execution.
/// * The count of distinct dynamic memory keys (`mem_addr >>
///   log2(disambiguation_bytes)` over loads and stores), which sizes the
///   perfect-disambiguation last-write tables to the trace's live
///   footprint instead of a fixed guess.
pub(crate) struct Pass1<'a> {
    pcs: &'a ProgramMeta,
    /// Whether the profile predictor is selected, so branches are
    /// profiled.
    pub profile_branches: bool,
    shift: u32,
    /// The branch profile so far (empty unless `profile_branches`).
    pub profile: BranchProfile,
    /// Membership bitmap over dynamic memory keys, grown on demand.
    mem_seen: Vec<u64>,
    /// Distinct dynamic memory keys so far.
    pub distinct_mem_keys: u64,
    /// Events pushed so far.
    pub events: u64,
}

impl<'a> Pass1<'a> {
    /// An empty pass 1 for `config`'s predictor and disambiguation
    /// granularity.
    pub fn new(pcs: &'a ProgramMeta, config: &AnalysisConfig) -> Pass1<'a> {
        Pass1 {
            pcs,
            profile_branches: matches!(config.predictor, PredictorChoice::Profile),
            shift: config.disambiguation_bytes.trailing_zeros(),
            profile: BranchProfile::new(),
            mem_seen: Vec::new(),
            distinct_mem_keys: 0,
            events: 0,
        }
    }

    /// Folds one chunk of consecutive trace events in. `PC_COND_BRANCH`
    /// is set exactly where `BranchProfile::from_trace` records an event,
    /// so the profile matches a whole-trace one bit for bit.
    pub fn push_chunk(&mut self, chunk: &[clfp_vm::TraceEvent]) {
        self.events += chunk.len() as u64;
        for event in chunk {
            let meta = &self.pcs.pcs[event.pc as usize];
            if self.profile_branches && meta.is(PC_COND_BRANCH) {
                self.profile.record(event.pc, event.taken);
            }
            if meta.flags & (PC_LOAD | PC_STORE) != 0 {
                let key = event.mem_addr >> self.shift;
                let word = (key >> 6) as usize;
                if word >= self.mem_seen.len() {
                    self.mem_seen.resize(word + 1, 0);
                }
                let bit = 1u64 << (key & 63);
                if self.mem_seen[word] & bit == 0 {
                    self.mem_seen[word] |= bit;
                    self.distinct_mem_keys += 1;
                }
            }
        }
    }
}

/// How the preparation walk predicts conditional branches.
enum BranchPrediction {
    /// A static predictor's direction for every pc (`false` off the
    /// conditional branches), asked once per static branch: a static
    /// predictor's answer never depends on the dynamic instance.
    Fixed(Vec<bool>),
    /// A dynamic predictor, asked and trained at every dynamic branch.
    Dynamic(Box<dyn clfp_predict::BranchPredictor>),
}

impl BranchPrediction {
    fn new(
        program: &Program,
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        profile: &BranchProfile,
    ) -> BranchPrediction {
        let mut predictor = config.predictor.build(program, profile);
        if !config.predictor.is_static() {
            return BranchPrediction::Dynamic(predictor);
        }
        let directions = pcs
            .pcs
            .iter()
            .enumerate()
            .map(|(pc, meta)| {
                // A static predictor ignores the outcome it is shown.
                meta.is(PC_COND_BRANCH) && predictor.predict_and_update(pc as u32, false)
            })
            .collect();
        BranchPrediction::Fixed(directions)
    }

    /// The prediction for the branch instance at `pc`, whose outcome is
    /// `taken` (a dynamic predictor trains on it).
    #[inline]
    fn predict(&mut self, pc: u32, taken: bool) -> bool {
        match self {
            BranchPrediction::Fixed(directions) => directions[pc as usize],
            BranchPrediction::Dynamic(predictor) => predictor.predict_and_update(pc, taken),
        }
    }
}

/// One static instruction's value-predictor state. The hybrid stride
/// predictor's `seen` and `last` train exactly as the last-value
/// predictor's do, so one row yields both predictors' hit bits.
#[derive(Copy, Clone, Default)]
struct ValueRow {
    last: u32,
    stride: u32,
    seen: bool,
}

impl ValueRow {
    /// Whether the last-value and the stride predictor would have
    /// predicted `value`, then trains both on it — the updates of
    /// `clfp_predict::LastValuePredictor` and
    /// `clfp_predict::StridePredictor` in one.
    #[inline]
    fn predict_and_update(&mut self, value: u32) -> (bool, bool) {
        let last_hit = self.seen && self.last == value;
        let stride_hit = last_hit || (self.seen && self.last.wrapping_add(self.stride) == value);
        self.stride = value.wrapping_sub(self.last);
        self.seen = true;
        self.last = value;
        (last_hit, stride_hit)
    }
}

/// The preparation walk as an incremental, chunk-fed builder.
///
/// All walk state that must survive a chunk boundary lives here: the
/// branch predictor, the value-predictor table, the branch report, and
/// the Section 4.4.1 control-dependence bookkeeping (block-instance
/// sequence numbers, the latest instance of every branch, the
/// procedure-invocation stack, the source resolved for the current
/// block instance). Feeding the whole trace as one chunk is exactly the
/// historical [`TraceMeta::build`] walk, so chunked and in-memory
/// preparation are the same code path — bit-identical by construction,
/// asserted across chunk sizes by the `stream_equivalence` suite.
pub(crate) struct MetaBuilder<'a> {
    pcs: &'a ProgramMeta,
    info: &'a StaticInfo,
    shift: u32,
    prediction: BranchPrediction,
    values: Vec<ValueRow>,
    vp_hits: [u64; 4],
    branches: BranchReport,
    /// Running non-ignored event counts per unroll setting, indexed by
    /// `unrolling as usize` — the report's `seq_instrs` when no machines
    /// run.
    not_ignored: [u64; 2],
    branch_seq: Vec<u64>, // 0 = never executed
    branch_proc: Vec<u64>,
    stack: Vec<u64>,
    seq: u64,
    /// The control-dependence source resolved for the previous event.
    /// `resolve_cd_source` reads the event's block, the latest branch
    /// instances and the call stack, so the source holds until a block
    /// start or a branch, call or return event (a `jr`, `callr` or `ret`
    /// may land in the middle of a block).
    cd: u32,
    /// Whether the previous event was a branch, call or return, so the
    /// next event re-resolves `cd`.
    cd_stale: bool,
}

impl<'a> MetaBuilder<'a> {
    /// Creates a builder with empty carried state. `profile` is the
    /// branch profile of the *entire* stream ([`Pass1`]); it is only
    /// consulted for the profile predictor.
    pub fn new(
        program: &Program,
        info: &'a StaticInfo,
        pcs: &'a ProgramMeta,
        config: &AnalysisConfig,
        profile: &BranchProfile,
    ) -> MetaBuilder<'a> {
        MetaBuilder {
            pcs,
            info,
            shift: config.disambiguation_bytes.trailing_zeros(),
            prediction: BranchPrediction::new(program, pcs, config, profile),
            values: vec![ValueRow::default(); pcs.pcs.len()],
            vp_hits: [0; 4],
            branches: BranchReport::default(),
            not_ignored: [0; 2],
            branch_seq: vec![0u64; pcs.pcs.len()],
            branch_proc: vec![0u64; pcs.pcs.len()],
            stack: Vec::new(),
            seq: 0,
            cd: CD_NONE,
            cd_stale: true,
        }
    }

    /// Processes one chunk of consecutive trace events, appending the
    /// decoded [`EventMeta`] stream to the caller's buffer (which the
    /// streaming pipeline clears and reuses per chunk; the in-memory path
    /// accumulates the whole trace).
    pub fn push_chunk(&mut self, chunk: &[clfp_vm::TraceEvent], events: &mut Vec<EventMeta>) {
        let _span =
            clfp_metrics::trace::span("prepare.chunk", "prepare").arg("events", chunk.len());
        self.branches.raw_instrs += chunk.len() as u64;
        events.reserve(chunk.len());
        for event in chunk {
            let meta = &self.pcs.pcs[event.pc as usize];
            let block_start = meta.is(PC_BLOCK_START);
            if block_start {
                self.seq += 1;
            }

            let mispred = if meta.is(PC_COND_BRANCH) {
                self.branches.cond_branches += 1;
                if event.taken {
                    self.branches.taken += 1;
                }
                let correct = self.prediction.predict(event.pc, event.taken) == event.taken;
                if correct {
                    self.branches.predicted_correctly += 1;
                }
                !correct
            } else if meta.is(PC_COMPUTED_JUMP) {
                self.branches.computed_jumps += 1;
                true
            } else {
                false
            };
            self.not_ignored[0] += u64::from(!meta.is(PC_IGNORED_ROLLED));
            self.not_ignored[1] += u64::from(!meta.is(PC_IGNORED_UNROLLED));

            if block_start || self.cd_stale {
                self.cd = resolve_cd_source(
                    self.info
                        .deps
                        .rdf_branches(self.info.cfg.block_of_instr(event.pc)),
                    &self.branch_seq,
                    &self.branch_proc,
                    &self.stack,
                );
            }

            let mut flags = 0u8;
            if mispred {
                flags |= EV_MISPRED;
            }
            if meta.is(PC_BRANCH) {
                flags |= EV_BRANCH;
            }
            // Every def-producing event trains both value predictors,
            // ignored events included, so the training sequence does not
            // depend on the unroll setting. The lanes pick their mode's
            // hit bit through `vp_flag`.
            if meta.def != NO_REG {
                self.branches.value_pred_eligible += 1;
                flags |= EV_DEF;
                self.vp_hits[3] += 1;
                let (last_hit, stride_hit) =
                    self.values[event.pc as usize].predict_and_update(event.value);
                if last_hit {
                    flags |= EV_VP_LAST;
                    self.vp_hits[1] += 1;
                }
                if stride_hit {
                    flags |= EV_VP_STRIDE;
                    self.vp_hits[2] += 1;
                }
            }
            // The dynamic key; a lane group under a coarser
            // disambiguation mode derives its own key from the pc.
            events.push(EventMeta {
                pc: event.pc,
                mem_key: event.mem_addr >> self.shift,
                cd: self.cd,
                flags,
            });

            if meta.is(PC_BRANCH) {
                self.branch_seq[event.pc as usize] = self.seq;
                self.branch_proc[event.pc as usize] = self.stack.last().copied().unwrap_or(0);
            }
            if meta.is(PC_CALL) {
                self.stack.push(self.seq + 1);
            } else if meta.is(PC_RET) {
                self.stack.pop();
            }
            self.cd_stale = meta.flags & (PC_BRANCH | PC_CALL | PC_RET) != 0;
        }
    }

    /// The branch report over everything pushed so far.
    pub fn branches(&self) -> BranchReport {
        self.branches
    }

    /// Total events pushed so far.
    pub fn raw_instrs(&self) -> u64 {
        self.branches.raw_instrs
    }

    /// Non-ignored events pushed so far, for one unroll setting.
    pub fn not_ignored(&self, unrolling: bool) -> u64 {
        self.not_ignored[unrolling as usize]
    }

    /// Hits each value-prediction mode scores on the events pushed so
    /// far, indexed by [`ValuePrediction::ALL`].
    pub fn vp_hits(&self) -> [u64; 4] {
        self.vp_hits
    }
}

/// The machine-independent half of `pass::resolve_cd`: picks *which*
/// branch instance (by static PC) is the immediate control dependence, or
/// whether the dependence is inherited through the call stack or dropped
/// (recursion cutoff). The per-machine time/ceiling lookup happens in the
/// machine walk.
fn resolve_cd_source(
    rdf: &[u32],
    branch_seq: &[u64],
    branch_proc: &[u64],
    stack: &[u64],
) -> u32 {
    let proc_seq = stack.last().copied().unwrap_or(0);
    let mut best_seq = 0u64;
    let mut best_pc = CD_NONE;
    for &branch_pc in rdf {
        let seq = branch_seq[branch_pc as usize];
        if seq == 0 {
            continue; // never executed
        }
        let bproc = branch_proc[branch_pc as usize];
        if bproc > proc_seq {
            // Recursion cutoff: drop the dependence entirely.
            return CD_NONE;
        }
        if bproc == proc_seq && (best_pc == CD_NONE || seq > best_seq) {
            best_seq = seq;
            best_pc = branch_pc;
        }
    }
    if best_pc != CD_NONE {
        best_pc
    } else if stack.is_empty() {
        CD_NONE
    } else {
        CD_INHERIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_meta_decodes_flags() {
        let program = clfp_isa::assemble(
            r#"
            .text
            main:
                li r8, 2
            loop:
                lw r9, 0x1000(r0)
                sw r9, 0x1004(r0)
                addi r8, r8, -1
                bgt r8, r0, loop
                halt
            "#,
        )
        .unwrap();
        let info = StaticInfo::analyze(&program);
        let meta = ProgramMeta::build(&program, &info, &AnalysisConfig::default());
        assert!(meta.pcs[0].is(PC_BLOCK_START));
        assert!(meta.pcs[1].is(PC_LOAD));
        assert!(meta.pcs[2].is(PC_STORE));
        assert!(meta.pcs[4].is(PC_COND_BRANCH) && meta.pcs[4].is(PC_BRANCH));
        assert_eq!(meta.pcs[0].def, clfp_isa::Reg::new(8).index() as u8);
        assert_eq!(meta.pcs[0].uses[0], NO_REG, "li reads nothing");
        // addi reads r8.
        assert_eq!(meta.pcs[3].uses[0], 8);
        assert_eq!(meta.pcs[3].uses[1], NO_REG);
    }
}
