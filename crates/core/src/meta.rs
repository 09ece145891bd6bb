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
//!   classification, block-start and inline/unroll ignore flags, and the
//!   static alias class;
//! * [`TraceMeta`] caches the per-**event** facts once per trace — the
//!   misprediction and ignore classification (packed two bits per event in
//!   [`EventClass`]), the dynamic memory key, the value predictors' hit
//!   bits, and the resolved control-dependence source (Section 4.4.1 of
//!   the paper; the *choice* of controlling branch instance depends only
//!   on block-instance sequence numbers, which are identical for every
//!   machine).
//!
//! Everything in [`TraceMeta`] except the ignore bit is also independent
//! of the unrolling setting, so the single walk records the ignore bitmap
//! for *both* settings ([`TraceMeta::class`]) — Table 4's
//! with/without-unrolling comparison shares one preparation.
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
pub(crate) const PC_INLINE_IGNORED: u16 = 1 << 8;
pub(crate) const PC_UNROLL_IGNORED: u16 = 1 << 9;

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
    /// Decodes every static instruction once.
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
                if info.masks.inline_ignored(pc) {
                    flags |= PC_INLINE_IGNORED;
                }
                if info.masks.unroll_ignored(pc) {
                    flags |= PC_UNROLL_IGNORED;
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

/// Packed per-event classification: one misprediction bit and one ignore
/// bit per dynamic instruction (the seed used two `Vec<bool>`, eight times
/// the working set the scheduling loops stream over).
#[derive(Clone, Debug, Default)]
pub(crate) struct EventClass {
    mispred: Vec<u64>,
    ignored: Vec<u64>,
    len: usize,
}

impl EventClass {
    pub fn with_capacity(events: usize) -> EventClass {
        let words = events.div_ceil(64);
        EventClass {
            mispred: Vec::with_capacity(words),
            ignored: Vec::with_capacity(words),
            len: 0,
        }
    }

    /// Empties the bitmaps, keeping the allocations (chunk-buffer reuse in
    /// the streaming pipeline).
    pub fn clear(&mut self) {
        self.mispred.clear();
        self.ignored.clear();
        self.len = 0;
    }

    /// Appends one event's classification.
    #[inline]
    pub fn push(&mut self, mispred: bool, ignored: bool) {
        if self.len.is_multiple_of(64) {
            self.mispred.push(0);
            self.ignored.push(0);
        }
        let word = self.len / 64;
        let bit = 1u64 << (self.len % 64);
        if mispred {
            self.mispred[word] |= bit;
        }
        if ignored {
            self.ignored[word] |= bit;
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether event `i`'s branch was mispredicted (computed jumps always
    /// count as mispredicted; non-branches are never set).
    #[inline]
    pub fn mispred(&self, i: usize) -> bool {
        self.mispred[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether event `i` was removed by perfect inlining/unrolling.
    #[inline]
    pub fn ignored(&self, i: usize) -> bool {
        self.ignored[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of non-ignored events — the sequential instruction count.
    pub fn not_ignored(&self) -> u64 {
        let ignored: u32 = self.ignored.iter().map(|word| word.count_ones()).sum();
        self.len as u64 - ignored as u64
    }

    /// Builds the bitmaps from plain slices (test support).
    #[cfg(test)]
    pub fn from_slices(mispred: &[bool], ignored: &[bool]) -> EventClass {
        assert_eq!(mispred.len(), ignored.len());
        let mut class = EventClass::with_capacity(mispred.len());
        for (&m, &s) in mispred.iter().zip(ignored) {
            class.push(m, s);
        }
        class
    }
}

// Per-event flags (unroll-independent classification, duplicated into the
// event stream so the machine walks touch a single cache line per event;
// the unroll-dependent ignore bit lives in the per-setting [`EventClass`]).
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
/// control-dependence stream — computed in a single walk, for **both**
/// unroll settings (they differ only in the ignore bitmap).
#[derive(Clone, Debug)]
pub(crate) struct TraceMeta {
    pub events: Vec<EventMeta>,
    class_unrolled: EventClass,
    class_rolled: EventClass,
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
    /// The packed classification for one unroll setting.
    pub fn class(&self, unrolling: bool) -> &EventClass {
        if unrolling {
            &self.class_unrolled
        } else {
            &self.class_rolled
        }
    }

    /// The shared preparation walk: classification (branch prediction +
    /// ignore masks for both unroll settings), operand pre-decode, and
    /// dynamic control-dependence resolution, one trace walk for all
    /// machines. The whole-trace special case of [`MetaBuilder`] — one
    /// chunk spanning the trace — so the in-memory and streaming pipelines
    /// share one walk implementation.
    pub fn build(
        program: &Program,
        info: &StaticInfo,
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        trace: &Trace,
    ) -> TraceMeta {
        let _span =
            clfp_metrics::trace::span("prepare.build", "prepare").arg("events", trace.len());
        // The paper's profile-static predictor is trained on the measured
        // run's own inputs; deriving it from the measured trace itself is
        // exactly that semantics without a second VM execution.
        let profile = match config.predictor {
            PredictorChoice::Profile => BranchProfile::from_trace(program, trace),
            _ => BranchProfile::new(),
        };
        let mut builder = MetaBuilder::new(program, info, pcs, config, &profile);
        let mut class_unrolled = EventClass::with_capacity(trace.len());
        let mut class_rolled = EventClass::with_capacity(trace.len());
        let mut events = Vec::with_capacity(trace.len());
        builder.push_chunk(trace.events(), &mut events, &mut class_unrolled, &mut class_rolled);
        TraceMeta {
            events,
            class_unrolled,
            class_rolled,
            branches: builder.branches(),
            distinct_mem_keys: builder.distinct_mem_keys(),
            vp_hits: builder.vp_hits(),
        }
    }
}

/// The preparation walk as an incremental, chunk-fed builder.
///
/// All walk state that must survive a chunk boundary lives here: the
/// branch predictor, the branch report, and the Section 4.4.1
/// control-dependence bookkeeping (block-instance sequence numbers, the
/// latest instance of every branch, the procedure-invocation stack).
/// Feeding the whole trace as one chunk is exactly the historical
/// [`TraceMeta::build`] walk, so chunked and in-memory preparation are the
/// same code path — bit-identical by construction, asserted across chunk
/// sizes by the `stream_equivalence` suite.
pub(crate) struct MetaBuilder<'a> {
    pcs: &'a ProgramMeta,
    info: &'a StaticInfo,
    inlining: bool,
    shift: u32,
    predictor: Box<dyn clfp_predict::BranchPredictor>,
    last_predictor: clfp_predict::LastValuePredictor,
    stride_predictor: clfp_predict::StridePredictor,
    vp_hits: [u64; 4],
    branches: BranchReport,
    /// Running non-ignored event counts per unroll setting — the
    /// streaming pipeline's `seq_instrs` fallback when no machines run
    /// (mirrors `EventClass::not_ignored` without retaining the bitmaps).
    not_ignored: [u64; 2],
    branch_seq: Vec<u64>, // 0 = never executed
    branch_proc: Vec<u64>,
    stack: Vec<u64>,
    seq: u64,
    /// Membership bitmap over dynamic memory keys (grown on demand; keys
    /// are word addresses shifted down, so the bitmap is 1/32 of the
    /// touched address range).
    mem_seen: Vec<u64>,
    distinct_mem_keys: u64,
}

impl<'a> MetaBuilder<'a> {
    /// Creates a builder with empty carried state. `profile` is the
    /// branch profile of the *entire* stream (pass 1 of the streaming
    /// pipeline); it is only consulted for the profile predictor.
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
            inlining: config.inlining,
            shift: config.disambiguation_bytes.trailing_zeros(),
            predictor: config.predictor.build(program, profile),
            last_predictor: clfp_predict::LastValuePredictor::new(program.text.len()),
            stride_predictor: clfp_predict::StridePredictor::new(program.text.len()),
            vp_hits: [0; 4],
            branches: BranchReport::default(),
            not_ignored: [0; 2],
            branch_seq: vec![0u64; pcs.pcs.len()],
            branch_proc: vec![0u64; pcs.pcs.len()],
            stack: Vec::new(),
            seq: 0,
            mem_seen: Vec::new(),
            distinct_mem_keys: 0,
        }
    }

    /// Processes one chunk of consecutive trace events, appending the
    /// decoded [`EventMeta`] stream and both per-setting classifications
    /// into the caller's buffers (which the streaming pipeline clears and
    /// reuses per chunk; the in-memory path accumulates the whole trace).
    pub fn push_chunk(
        &mut self,
        chunk: &[clfp_vm::TraceEvent],
        events: &mut Vec<EventMeta>,
        class_unrolled: &mut EventClass,
        class_rolled: &mut EventClass,
    ) {
        let _span = clfp_metrics::trace::span("prepare.chunk", "prepare").arg("events", chunk.len());
        self.branches.raw_instrs += chunk.len() as u64;
        events.reserve(chunk.len());
        for event in chunk {
            let meta = &self.pcs.pcs[event.pc as usize];
            if meta.is(PC_BLOCK_START) {
                self.seq += 1;
            }

            let mispred = if meta.is(PC_COND_BRANCH) {
                self.branches.cond_branches += 1;
                if event.taken {
                    self.branches.taken += 1;
                }
                let prediction = self.predictor.predict_and_update(event.pc, event.taken);
                let correct = prediction == event.taken;
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
            let inline_ignored = self.inlining && meta.is(PC_INLINE_IGNORED);
            let unroll_ignored = inline_ignored || meta.is(PC_UNROLL_IGNORED);
            class_unrolled.push(mispred, unroll_ignored);
            class_rolled.push(mispred, inline_ignored);
            self.not_ignored[0] += !inline_ignored as u64;
            self.not_ignored[1] += !unroll_ignored as u64;

            let cd = resolve_cd_source(
                self.info
                    .deps
                    .rdf_branches(self.info.cfg.block_of_instr(event.pc)),
                &self.branch_seq,
                &self.branch_proc,
                &self.stack,
            );

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
                use clfp_predict::ValuePredictor as _;
                self.branches.value_pred_eligible += 1;
                flags |= EV_DEF;
                self.vp_hits[3] += 1;
                if self.last_predictor.predict_and_update(event.pc, event.value) {
                    flags |= EV_VP_LAST;
                    self.vp_hits[1] += 1;
                }
                if self.stride_predictor.predict_and_update(event.pc, event.value) {
                    flags |= EV_VP_STRIDE;
                    self.vp_hits[2] += 1;
                }
            }
            // The dynamic key; a lane group under a coarser
            // disambiguation mode derives its own key from the pc.
            let mem_key = event.mem_addr >> self.shift;
            if meta.flags & (PC_LOAD | PC_STORE) != 0 {
                let word = (mem_key >> 6) as usize;
                if word >= self.mem_seen.len() {
                    self.mem_seen.resize(word + 1, 0);
                }
                let bit = 1u64 << (mem_key & 63);
                if self.mem_seen[word] & bit == 0 {
                    self.mem_seen[word] |= bit;
                    self.distinct_mem_keys += 1;
                }
            }
            events.push(EventMeta {
                pc: event.pc,
                mem_key,
                cd,
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

    /// Distinct dynamic memory keys seen in load/store events so far —
    /// the live footprint a perfect-disambiguation last-write table must
    /// cover.
    pub fn distinct_mem_keys(&self) -> u64 {
        self.distinct_mem_keys
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
    fn event_class_packs_bits() {
        let mut class = EventClass::with_capacity(3);
        for i in 0..130 {
            class.push(i % 3 == 0, i % 5 == 0);
        }
        assert_eq!(class.len(), 130);
        for i in 0..130 {
            assert_eq!(class.mispred(i), i % 3 == 0, "mispred {i}");
            assert_eq!(class.ignored(i), i % 5 == 0, "ignored {i}");
        }
        assert_eq!(class.not_ignored(), 130 - 26);
    }

    #[test]
    fn event_class_from_slices_roundtrips() {
        let mispred = vec![true, false, true, true, false];
        let ignored = vec![false, false, true, false, true];
        let class = EventClass::from_slices(&mispred, &ignored);
        for i in 0..5 {
            assert_eq!(class.mispred(i), mispred[i]);
            assert_eq!(class.ignored(i), ignored[i]);
        }
        assert_eq!(class.not_ignored(), 3);
    }

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
