//! Static lint diagnostics and static/dynamic consistency checks.
//!
//! The limit study leans on a tower of static analyses — CFG recovery,
//! dominators, control dependence, natural loops, induction variables,
//! inline/unroll ignore masks — and then *trusts* them while scheduling
//! millions of dynamic instructions. This crate is the trust-but-verify
//! layer. It has two halves:
//!
//! * [`lint_program`] — purely static diagnostics over a program and its
//!   [`StaticInfo`]: control transfers that leave `.text`, violations of
//!   the control-dependence structural invariant, unreachable blocks,
//!   reads of maybe-uninitialized registers, and dead stores.
//! * [`TraceChecks`] — a static/dynamic cross-checker that replays a
//!   captured [`Trace`] against the static model and asserts:
//!   1. every dynamic control transfer is an edge the static CFG predicts
//!      ([`TraceChecks::check_edges`]),
//!   2. every controlling branch selected by the analyzer's
//!      control-dependence resolution lies in the executed instruction's
//!      static reverse-dominance-frontier set
//!      ([`TraceChecks::check_cd_sources`]),
//!   3. every induction-variable increment deleted by the perfect-unrolling
//!      mask really updates its register exactly once per observed loop
//!      iteration ([`TraceChecks::check_unroll_masks`]), and
//!   4. the analyzer's sequential instruction count matches an independent
//!      recount of non-ignored trace events
//!      ([`TraceChecks::check_seq_count`]).
//!
//! [`check_monotonicity`] gates the relaxation axes (memory
//! disambiguation, value prediction): across one workload's per-mode
//! reports, a less constrained mode never takes more cycles.
//!
//! Every finding is a [`Diagnostic`] with a [`DiagnosticKind`] and a fixed
//! [`Severity`]. Static-model/dynamic-behavior disagreements are always
//! [`Severity::Error`]: they mean the limit numbers cannot be trusted.
//! Code-quality findings (unreachable blocks, uninitialized reads, dead
//! stores) are warnings or notes about the *measured program*, not the
//! analyzer, and may be waived by a reporting layer.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use clfp_cfg::{BlockId, CdViolation, Cfg, Liveness, MaybeUninit, StaticInfo};
use clfp_isa::{AluOp, Instr, Program, Reg};
use clfp_limits::json::Value;
use clfp_limits::{CdSource, PreparedTrace, Report};
use clfp_vm::{Trace, TraceEvent, TraceSource, VmError};

/// How bad a diagnostic is.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational: worth a look, never blocks anything.
    Info,
    /// Suspicious code in the measured program; does not invalidate the
    /// analysis.
    Warning,
    /// The static model and the dynamic behavior disagree, or the program
    /// is structurally broken. Limit results are not trustworthy.
    Error,
}

impl Severity {
    /// Lowercase name, as printed in diagnostics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a diagnostic is about. Each kind has a fixed [`Severity`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum DiagnosticKind {
    /// A branch, jump, or call targets an instruction outside `.text`.
    BadBranchTarget,
    /// A control-dependence entry is not a block-terminating conditional
    /// branch (the [`clfp_cfg::ControlDeps`] structural invariant).
    CdInvariant,
    /// A basic block can never execute.
    UnreachableBlock,
    /// An instruction may read a register no path has written.
    MaybeUninitRead,
    /// An instruction defines a register that is never read afterwards.
    DeadStore,
    /// A dynamic control transfer is not an edge in the static CFG.
    EdgeViolation,
    /// A resolved control-dependence source is not in the executed
    /// instruction's static RDF branch set.
    CdResolutionViolation,
    /// An induction increment deleted by perfect unrolling did not update
    /// its register exactly once per observed loop iteration.
    UnrollMaskViolation,
    /// The analyzer's sequential instruction count disagrees with an
    /// independent recount of non-ignored trace events.
    SeqCountMismatch,
    /// Two memory accesses dynamically touched the same word, but the
    /// static alias analysis classified the pair no-alias — the `Static`
    /// disambiguation schedule would miss a real dependence.
    AliasSoundnessViolation,
    /// A load's alias regions are never stored to by any instruction; the
    /// value can only come from initialized or zeroed data.
    NeverStoredRegionLoad,
    /// A store's alias regions are never loaded from by any instruction;
    /// at region granularity the stored value is provably unobserved.
    RegionDeadStore,
    /// A mode that relaxes an axis (removes scheduling constraints)
    /// produced a *longer* critical path than the mode it relaxes, on the
    /// same machine — the axis's monotonicity theorem (for example
    /// `perfect >= static >= none` or
    /// `perfect >= stride >= last-value >= off`) was violated, so a
    /// pipeline diverged from the axis's construction.
    MonotonicityViolation,
}

impl DiagnosticKind {
    /// Every kind, in severity-then-declaration order.
    pub const ALL: [DiagnosticKind; 13] = [
        DiagnosticKind::BadBranchTarget,
        DiagnosticKind::CdInvariant,
        DiagnosticKind::UnreachableBlock,
        DiagnosticKind::MaybeUninitRead,
        DiagnosticKind::DeadStore,
        DiagnosticKind::EdgeViolation,
        DiagnosticKind::CdResolutionViolation,
        DiagnosticKind::UnrollMaskViolation,
        DiagnosticKind::SeqCountMismatch,
        DiagnosticKind::AliasSoundnessViolation,
        DiagnosticKind::MonotonicityViolation,
        DiagnosticKind::NeverStoredRegionLoad,
        DiagnosticKind::RegionDeadStore,
    ];

    /// The fixed severity of this kind.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::BadBranchTarget
            | DiagnosticKind::CdInvariant
            | DiagnosticKind::EdgeViolation
            | DiagnosticKind::CdResolutionViolation
            | DiagnosticKind::UnrollMaskViolation
            | DiagnosticKind::SeqCountMismatch
            | DiagnosticKind::AliasSoundnessViolation
            | DiagnosticKind::MonotonicityViolation => Severity::Error,
            DiagnosticKind::UnreachableBlock | DiagnosticKind::MaybeUninitRead => {
                Severity::Warning
            }
            // Region-level findings are informational: globals may carry
            // compile-time initial data (never-stored loads are legal),
            // and MiniC has no I/O, so result arrays are naturally
            // region-dead.
            DiagnosticKind::DeadStore
            | DiagnosticKind::NeverStoredRegionLoad
            | DiagnosticKind::RegionDeadStore => Severity::Info,
        }
    }

    /// Stable kebab-case name, used in reports and waiver tables.
    pub fn name(self) -> &'static str {
        match self {
            DiagnosticKind::BadBranchTarget => "bad-branch-target",
            DiagnosticKind::CdInvariant => "cd-invariant",
            DiagnosticKind::UnreachableBlock => "unreachable-block",
            DiagnosticKind::MaybeUninitRead => "maybe-uninit-read",
            DiagnosticKind::DeadStore => "dead-store",
            DiagnosticKind::EdgeViolation => "edge-violation",
            DiagnosticKind::CdResolutionViolation => "cd-resolution-violation",
            DiagnosticKind::UnrollMaskViolation => "unroll-mask-violation",
            DiagnosticKind::SeqCountMismatch => "seq-count-mismatch",
            DiagnosticKind::AliasSoundnessViolation => "alias-soundness-violation",
            DiagnosticKind::MonotonicityViolation => "monotonicity-violation",
            DiagnosticKind::NeverStoredRegionLoad => "never-stored-region-load",
            DiagnosticKind::RegionDeadStore => "region-dead-store",
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint or cross-check finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// What the finding is about.
    pub kind: DiagnosticKind,
    /// The static instruction it anchors to, when one exists.
    pub pc: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(kind: DiagnosticKind, pc: Option<u32>, message: String) -> Diagnostic {
        Diagnostic { kind, pc, message }
    }

    /// The severity of this diagnostic (fixed per kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// The diagnostic as a JSON object — `kind`, `severity`, `pc` (`null`
    /// when it anchors to no instruction) and `message` — as `clfp lint
    /// --json` lists it and each workload of `results/lint_suite.json`
    /// carries it.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("kind", self.kind.to_string())
            .with("severity", self.severity().to_string())
            .with("pc", self.pc.map(u64::from))
            .with("message", self.message.as_str())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.kind)?;
        if let Some(pc) = self.pc {
            write!(f, " at pc {pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Whether any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}

/// Checks one relaxation axis's monotonicity theorem over one workload's
/// per-mode reports. `chain` pairs each mode's name with its report, from
/// the most constrained mode to the least: each mode only removes
/// scheduling constraints from the one before it, and every scheduling
/// fold is a monotone max, so a later mode must never take *more* cycles
/// than an earlier one — pointwise, on every analyzed machine. Sequential
/// instruction counts must agree across the chain too: a relaxation
/// changes timing, never which instructions are scheduled. `axis` names
/// the axis in the messages.
///
/// Every finding is a [`DiagnosticKind::MonotonicityViolation`] (always
/// [`Severity::Error`]): a pipeline diverged from the axis's construction.
/// The memory-disambiguation chain is `none`, `static`, `perfect` (coarse
/// keys accumulate a running store max); the value-prediction chain is
/// `off`, `last-value`, `stride`, `perfect` (the predictors' correct sets
/// nest).
pub fn check_monotonicity(axis: &str, chain: &[(&str, &Report)]) -> Vec<Diagnostic> {
    let violation = |message| Diagnostic::new(DiagnosticKind::MonotonicityViolation, None, message);
    let mut out = Vec::new();
    for pair in chain.windows(2) {
        let (weak_mode, weak) = pair[0];
        let (strong_mode, strong) = pair[1];
        if weak.seq_instrs != strong.seq_instrs {
            out.push(violation(format!(
                "sequential instruction count changed across {axis} modes: {} under \
                 {weak_mode}, {} under {strong_mode}",
                weak.seq_instrs, strong.seq_instrs
            )));
        }
        for (w, s) in weak.results.iter().zip(&strong.results) {
            if w.kind != s.kind {
                out.push(violation(format!(
                    "machine lists disagree across {axis} modes: {} vs {}",
                    w.kind, s.kind
                )));
            } else if s.cycles > w.cycles {
                out.push(violation(format!(
                    "{}: {axis} mode {weak_mode} took {} cycles, beating the \
                     less constrained {strong_mode} mode's {} — the axis's \
                     monotonicity theorem is violated",
                    w.kind, w.cycles, s.cycles
                )));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Static lint pass
// ---------------------------------------------------------------------------

/// Runs every static diagnostic over a program and its analyses.
///
/// Diagnostics come out grouped by kind in [`DiagnosticKind::ALL`] order,
/// and by pc within a kind.
///
/// # Example
///
/// ```
/// use clfp_cfg::StaticInfo;
/// use clfp_isa::assemble;
/// use clfp_verify::{has_errors, lint_program};
///
/// let program = assemble(
///     "
///     .text
///     main:
///         li r8, 1
///         halt
///     orphan:
///         addi r8, r8, 1
///         halt
///     ",
/// )
/// .unwrap();
/// let info = StaticInfo::analyze(&program);
/// let diags = lint_program(&program, &info);
/// // The orphaned block is flagged, but only as a warning: the measured
/// // program is suspicious, the analysis is not invalidated.
/// assert!(diags.iter().any(|d| d.kind.name() == "unreachable-block"));
/// assert!(!has_errors(&diags));
/// ```
pub fn lint_program(program: &Program, info: &StaticInfo) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_branch_targets(program, &mut out);
    lint_control_deps(program, info, &mut out);
    lint_unreachable(program, &info.cfg, &mut out);
    lint_maybe_uninit(program, &info.cfg, &mut out);
    lint_dead_stores(program, &info.cfg, &mut out);
    lint_regions(program, info, &mut out);
    out
}

/// Direct control transfers must stay inside `.text` (the same rule as
/// [`Program::validate`], but reporting every offender, not just the
/// first).
fn lint_branch_targets(program: &Program, out: &mut Vec<Diagnostic>) {
    let len = program.text.len() as u32;
    for (pc, instr) in program.text.iter().enumerate() {
        let target = match *instr {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                target
            }
            _ => continue,
        };
        if target >= len {
            out.push(Diagnostic::new(
                DiagnosticKind::BadBranchTarget,
                Some(pc as u32),
                format!("`{instr}` targets pc {target}, outside .text (length {len})"),
            ));
        }
    }
    if program.entry >= len && len > 0 {
        out.push(Diagnostic::new(
            DiagnosticKind::BadBranchTarget,
            None,
            format!("entry point {} is outside .text (length {len})", program.entry),
        ));
    }
}

fn lint_control_deps(program: &Program, info: &StaticInfo, out: &mut Vec<Diagnostic>) {
    if let Err(violation) = info.deps.check_detailed(&info.cfg, &program.text) {
        out.push(cd_diagnostic(violation));
    }
}

/// Maps a [`CdViolation`] to a diagnostic. Split out so the mapping is
/// testable without forging a `ControlDeps`.
fn cd_diagnostic(violation: CdViolation) -> Diagnostic {
    Diagnostic::new(
        DiagnosticKind::CdInvariant,
        Some(violation.branch_pc),
        violation.to_string(),
    )
}

/// Over-approximates the set of blocks reachable from the entry point by
/// following CFG edges, direct call targets, and code addresses
/// materialized by `li` (potential indirect-call targets — any immediate
/// that happens to equal a code-symbol address counts, so reachability is
/// conservative and unreachable reports are trustworthy).
fn reachable_blocks(program: &Program, cfg: &Cfg) -> Vec<bool> {
    let mut reached = vec![false; cfg.blocks().len()];
    if program.text.is_empty() {
        return reached;
    }
    let len = program.text.len();
    let mut work = vec![cfg.block_of_instr(program.entry)];
    while let Some(id) = work.pop() {
        if std::mem::replace(&mut reached[id.index()], true) {
            continue;
        }
        let block = cfg.block(id);
        for pc in block.instrs() {
            match program.text[pc as usize] {
                Instr::Call { target } => work.push(cfg.block_of_instr(target)),
                Instr::Li { imm, .. }
                    if imm >= 0
                        && (imm as usize) < len
                        && program.symbols.code_symbols().any(|(_, at)| at == imm as u32) =>
                {
                    work.push(cfg.block_of_instr(imm as u32));
                }
                _ => {}
            }
        }
        work.extend(block.succs.iter().copied());
    }
    reached
}

fn lint_unreachable(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let reached = reachable_blocks(program, cfg);
    for (index, block) in cfg.blocks().iter().enumerate() {
        if reached[index] {
            continue;
        }
        let context = program
            .symbols
            .nearest_code_label(block.start)
            .map(|(name, _)| format!(" (in `{name}`)"))
            .unwrap_or_default();
        out.push(Diagnostic::new(
            DiagnosticKind::UnreachableBlock,
            Some(block.start),
            format!(
                "block b{index} (pc {}..{}){context} is unreachable from the entry point",
                block.start, block.end
            ),
        ));
    }
}

fn lint_maybe_uninit(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let uninit = MaybeUninit::compute(program, cfg);
    for read in uninit.reads() {
        out.push(Diagnostic::new(
            DiagnosticKind::MaybeUninitRead,
            Some(read.pc),
            format!(
                "`{}` reads {}, which may be uninitialized on some path",
                program.text[read.pc as usize], read.reg
            ),
        ));
    }
}

fn lint_dead_stores(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let liveness = Liveness::compute(program, cfg);
    for (pc, reg) in liveness.dead_defs(program, cfg) {
        out.push(Diagnostic::new(
            DiagnosticKind::DeadStore,
            Some(pc),
            format!(
                "`{}` defines {reg}, but the value is never read",
                program.text[pc as usize]
            ),
        ));
    }
}

/// Region-level memory lints over the interprocedural alias analysis:
/// loads whose every reachable region is never stored to (the value can
/// only be initial data), and stores whose every reachable region is
/// never loaded from (provably unobserved at region granularity).
fn lint_regions(program: &Program, info: &StaticInfo, out: &mut Vec<Diagnostic>) {
    let alias = &info.alias;
    let stored = alias.stored_regions(program);
    let loaded = alias.loaded_regions(program);
    let describe = |pc: u32| {
        let regions: Vec<String> = alias.accesses[pc as usize]
            .as_ref()
            .map(|access| {
                access
                    .regions
                    .iter()
                    .map(|r| alias.universe.describe(r as u32, &info.cfg))
                    .collect()
            })
            .unwrap_or_default();
        regions.join(", ")
    };
    for (pc, instr) in program.text.iter().enumerate() {
        let pc = pc as u32;
        let Some(access) = alias.accesses[pc as usize].as_ref() else {
            continue;
        };
        match instr {
            Instr::Lw { .. } => {
                let mut probe = access.regions.clone();
                probe.intersect_with(&stored);
                if probe.is_empty() {
                    out.push(Diagnostic::new(
                        DiagnosticKind::NeverStoredRegionLoad,
                        Some(pc),
                        format!(
                            "`{}` loads from {{{}}}, which no instruction stores to; the \
                             value can only be initial data",
                            program.text[pc as usize],
                            describe(pc)
                        ),
                    ));
                }
            }
            Instr::Sw { .. } => {
                let mut probe = access.regions.clone();
                probe.intersect_with(&loaded);
                if probe.is_empty() {
                    out.push(Diagnostic::new(
                        DiagnosticKind::RegionDeadStore,
                        Some(pc),
                        format!(
                            "`{}` stores to {{{}}}, which no instruction loads from; the \
                             value is unobserved at region granularity",
                            program.text[pc as usize],
                            describe(pc)
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Static/dynamic cross-checker
// ---------------------------------------------------------------------------

/// Replays captured traces against the static model.
///
/// The `StaticInfo` must have been computed for the *same* program the
/// trace was captured from (e.g. via
/// [`clfp_limits::Analyzer::static_info`]).
pub struct TraceChecks<'a> {
    program: &'a Program,
    info: &'a StaticInfo,
}

/// One induction increment watched by [`TraceChecks::check_unroll_masks`].
struct Monitor {
    loop_index: usize,
    reg: Reg,
    increment: u32,
}

/// [`TraceChecks::build_monitors`]'s result: the monitors plus lookup
/// indices by increment PC and by loop-header block.
type MonitorIndex = (
    Vec<Monitor>,
    HashMap<u32, Vec<usize>>,
    HashMap<BlockId, Vec<usize>>,
);

impl<'a> TraceChecks<'a> {
    /// Creates a checker over a program and its static analyses.
    pub fn new(program: &'a Program, info: &'a StaticInfo) -> TraceChecks<'a> {
        TraceChecks { program, info }
    }

    /// Asserts every dynamic control transfer is one the static CFG
    /// predicts: branches go to their target or fall through, straight-line
    /// code advances by one pc (crossing only recorded fall-through edges),
    /// calls land on procedure entries and return to the instruction after
    /// the call, computed jumps land on block leaders, and nothing follows
    /// a halt.
    ///
    /// The trace is streamed in chunks of `chunk_events` (a [`Trace`] is
    /// a [`TraceSource`]; pass `trace.len().max(1)` for one whole-trace
    /// chunk): the checker's carried state (the shadow return stack and
    /// the previous event) crosses chunk boundaries, so trace memory stays
    /// O(chunk).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from producing the stream.
    pub fn check_edges(
        &self,
        source: &dyn TraceSource,
        chunk_events: usize,
    ) -> Result<Vec<Diagnostic>, VmError> {
        let mut walker = EdgeWalker::new(self);
        source.stream(chunk_events, &mut |chunk| {
            for event in chunk {
                walker.push(*event);
            }
        })?;
        Ok(walker.finish())
    }

    /// Checks the control transfer from one event to the pc of the next.
    fn check_edge(
        &self,
        from: &TraceEvent,
        next: u32,
        shadow: &mut Vec<u32>,
        out: &mut Vec<Diagnostic>,
    ) {
        let cfg = &self.info.cfg;
        let text = &self.program.text;
        let pc = from.pc;
        let mut violation = |pc: u32, message: String| {
            out.push(Diagnostic::new(DiagnosticKind::EdgeViolation, Some(pc), message));
        };
        {
            match text[pc as usize] {
                Instr::Branch { target, .. } => {
                    let expect = if from.taken { target } else { pc + 1 };
                    if next != expect {
                        violation(
                            pc,
                            format!(
                                "branch ({}) continued at pc {next}, expected pc {expect}",
                                if from.taken { "taken" } else { "not taken" }
                            ),
                        );
                    } else if !self.is_static_edge(pc, next) {
                        violation(
                            pc,
                            format!("branch edge to pc {next} is missing from the static CFG"),
                        );
                    }
                }
                Instr::Jump { target } => {
                    if next != target {
                        violation(pc, format!("jump continued at pc {next}, expected pc {target}"));
                    } else if !self.is_static_edge(pc, next) {
                        violation(
                            pc,
                            format!("jump edge to pc {next} is missing from the static CFG"),
                        );
                    }
                }
                Instr::Call { target } => {
                    if next != target {
                        violation(pc, format!("call continued at pc {next}, expected pc {target}"));
                    } else if !self.is_proc_entry(next) {
                        violation(
                            pc,
                            format!("call target pc {next} is not a static procedure entry"),
                        );
                    }
                    shadow.push(pc + 1);
                }
                Instr::CallR { .. } => {
                    // The target is only known dynamically; it must still be
                    // a procedure entry the CFG discovered.
                    if !self.is_proc_entry(next) {
                        violation(
                            pc,
                            format!(
                                "indirect call landed at pc {next}, which is not a static \
                                 procedure entry"
                            ),
                        );
                    }
                    shadow.push(pc + 1);
                }
                Instr::Ret => {
                    // An unmatched return (empty shadow stack) can only
                    // happen on a trace that starts mid-call; skip it.
                    if let Some(expect) = shadow.pop() {
                        if next != expect {
                            violation(
                                pc,
                                format!("return continued at pc {next}, expected pc {expect}"),
                            );
                        }
                    }
                }
                Instr::JumpR { .. } => {
                    // Computed jumps are static procedure exits with no
                    // recorded successors; the weakest sane claim is that
                    // they land on a block leader.
                    let block = cfg.block_of_instr(next);
                    if cfg.block(block).start != next {
                        violation(
                            pc,
                            format!("computed jump landed mid-block at pc {next}"),
                        );
                    }
                }
                Instr::Halt => {
                    violation(pc, format!("halt was followed by an event at pc {next}"));
                }
                _ => {
                    if next != pc + 1 {
                        violation(
                            pc,
                            format!(
                                "straight-line instruction continued at pc {next}, expected \
                                 pc {}",
                                pc + 1
                            ),
                        );
                    } else {
                        let bf = cfg.block_of_instr(pc);
                        let bt = cfg.block_of_instr(next);
                        if bf != bt && !cfg.block(bf).succs.contains(&bt) {
                            violation(
                                pc,
                                format!(
                                    "fall-through edge to pc {next} is missing from the \
                                     static CFG"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Asserts every control-dependence source the analyzer resolved to a
    /// concrete branch instance lies in the executed instruction's static
    /// RDF branch set. `sources` is the stream from
    /// [`PreparedTrace::cd_sources`], aligned with `trace`.
    pub fn check_cd_sources(
        &self,
        trace: &Trace,
        sources: impl IntoIterator<Item = CdSource>,
    ) -> Vec<Diagnostic> {
        let sources: Vec<CdSource> = sources.into_iter().collect();
        let mut out = Vec::new();
        if sources.len() != trace.len() {
            out.push(Diagnostic::new(
                DiagnosticKind::CdResolutionViolation,
                None,
                format!(
                    "control-dependence stream has {} entries for {} trace events",
                    sources.len(),
                    trace.len()
                ),
            ));
        }
        for (event, source) in trace.iter().zip(&sources) {
            if let CdSource::Branch(branch_pc) = *source {
                let block = self.info.cfg.block_of_instr(event.pc);
                if !self.info.deps.rdf_branches(block).contains(&branch_pc) {
                    out.push(Diagnostic::new(
                        DiagnosticKind::CdResolutionViolation,
                        Some(event.pc),
                        format!(
                            "control dependence resolved to branch pc {branch_pc}, which is \
                             not in the RDF of block b{}",
                            block.index()
                        ),
                    ));
                }
            }
        }
        out
    }

    /// Asserts every induction increment deleted by the perfect-unrolling
    /// mask really updated its register exactly once per observed loop
    /// iteration.
    ///
    /// Iteration boundaries are observed at latch-to-header transfers; a
    /// header entered any other way starts a fresh counting window (so a
    /// trailing partial iteration, or a loop whose latch is a call block,
    /// is conservatively not checked). Counters are keyed by call depth so
    /// a loop re-entered through recursion is counted per invocation.
    ///
    /// Streamed in chunks of `chunk_events`, as in
    /// [`TraceChecks::check_edges`]; per-invocation iteration counters and
    /// the call depth carry across chunk boundaries.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from producing the stream.
    pub fn check_unroll_masks(
        &self,
        source: &dyn TraceSource,
        chunk_events: usize,
    ) -> Result<Vec<Diagnostic>, VmError> {
        let mut walker = UnrollWalker::new(self);
        source.stream(chunk_events, &mut |chunk| {
            for event in chunk {
                walker.push(*event);
            }
        })?;
        Ok(walker.finish())
    }

    /// Builds the increment monitors for [`UnrollWalker`], flagging
    /// increments missing from the unroll ignore mask as it goes.
    fn build_monitors(&self, out: &mut Vec<Diagnostic>) -> MonitorIndex {
        let info = self.info;
        let cfg = &info.cfg;
        let text = &self.program.text;

        // One monitor per (loop, induction register): the unique in-loop
        // increment `addi/subi r, r, c` the unroll mask deletes.
        let mut monitors: Vec<Monitor> = Vec::new();
        let mut by_increment: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut by_header: HashMap<BlockId, Vec<usize>> = HashMap::new();
        for (loop_index, l) in info.loops.loops().iter().enumerate() {
            for &reg in &info.induction.induction_regs()[loop_index] {
                let mut increment = None;
                for &b in &l.blocks {
                    for pc in cfg.block(b).instrs() {
                        if let Instr::AluI { op: AluOp::Add | AluOp::Sub, rd, rs, imm } =
                            text[pc as usize]
                        {
                            if rd == reg && rs == reg && imm != 0 {
                                increment = Some(pc);
                            }
                        }
                    }
                }
                let Some(increment) = increment else { continue };
                if !info.masks.unroll_ignored(increment) {
                    out.push(Diagnostic::new(
                        DiagnosticKind::UnrollMaskViolation,
                        Some(increment),
                        format!(
                            "induction increment `{}` of the loop at b{} is not in the \
                             unroll ignore mask",
                            text[increment as usize],
                            l.header.index()
                        ),
                    ));
                    continue;
                }
                let index = monitors.len();
                monitors.push(Monitor { loop_index, reg, increment });
                by_increment.entry(increment).or_default().push(index);
                by_header.entry(l.header).or_default().push(index);
            }
        }
        (monitors, by_increment, by_header)
    }

    /// Asserts the analyzer's sequential instruction count for the given
    /// unrolling setting equals an independent recount of trace events not
    /// covered by the ignore masks. Assumes perfect inlining was enabled
    /// (the paper's only configuration; the masks apply the inline set
    /// unconditionally). Streamed in chunks of `chunk_events`, as in
    /// [`TraceChecks::check_edges`].
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from producing the stream.
    pub fn check_seq_count(
        &self,
        source: &dyn TraceSource,
        chunk_events: usize,
        unrolling: bool,
        reported_seq: u64,
    ) -> Result<Vec<Diagnostic>, VmError> {
        let masks = &self.info.masks;
        let mut counted = 0u64;
        source.stream(chunk_events, &mut |chunk| {
            counted += chunk
                .iter()
                .filter(|event| !masks.ignored(event.pc, unrolling))
                .count() as u64;
        })?;
        Ok(seq_count_diags(counted, reported_seq, unrolling))
    }

    /// Asserts the static alias classification is sound against observed
    /// behavior: every dynamic address conflict (two accesses touching
    /// the same word, at least one a store) must involve a pair the
    /// analysis classifies may- or must-alias. A no-alias verdict on a
    /// conflicting pair means the `Static` disambiguation schedule missed
    /// a real dependence — always an [`Severity::Error`].
    ///
    /// Conflicts are observed between each access and the *latest*
    /// earlier access to the same word, matching the last-write semantics
    /// the scheduler keys on; each offending static pair is reported
    /// once.
    ///
    /// Streamed in chunks of `chunk_events`, as in
    /// [`TraceChecks::check_edges`]; the per-word last-access maps and the
    /// reported-pair dedup set carry across chunk boundaries.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from producing the stream.
    pub fn check_alias_soundness(
        &self,
        source: &dyn TraceSource,
        chunk_events: usize,
    ) -> Result<Vec<Diagnostic>, VmError> {
        let mut walker = AliasWalker::new(self);
        source.stream(chunk_events, &mut |chunk| {
            for event in chunk {
                walker.push(*event);
            }
        })?;
        Ok(walker.finish())
    }

    /// Runs every dynamic cross-check against a prepared trace: CFG edges,
    /// control-dependence resolution, unroll-mask iteration counts,
    /// alias-classification soundness, and the sequential instruction
    /// count for both unrolling settings, checked against `unrolled` and
    /// `rolled` — the prepared trace's reports
    /// ([`PreparedTrace::report_both`]).
    pub fn check_dynamic(
        &self,
        trace: &Trace,
        prepared: &PreparedTrace<'_, '_>,
        unrolled: &Report,
        rolled: &Report,
    ) -> Vec<Diagnostic> {
        let whole = trace.len().max(1);
        [
            self.check_edges(trace, whole),
            Ok(self.check_cd_sources(trace, prepared.cd_sources())),
            self.check_unroll_masks(trace, whole),
            self.check_alias_soundness(trace, whole),
            self.check_seq_count(trace, whole, false, rolled.seq_instrs),
            self.check_seq_count(trace, whole, true, unrolled.seq_instrs),
        ]
        .into_iter()
        .flat_map(|diags| diags.expect("an in-memory trace streams without error"))
        .collect()
    }

    fn is_static_edge(&self, from_pc: u32, to_pc: u32) -> bool {
        let cfg = &self.info.cfg;
        let from = cfg.block_of_instr(from_pc);
        let to = cfg.block_of_instr(to_pc);
        cfg.block(to).start == to_pc && cfg.block(from).succs.contains(&to)
    }

    fn is_proc_entry(&self, pc: u32) -> bool {
        let cfg = &self.info.cfg;
        let block = cfg.block_of_instr(pc);
        cfg.block(block).start == pc
            && cfg.procs()[cfg.proc_of_block(block).index()].entry == block
    }
}

/// Builds the [`DiagnosticKind::SeqCountMismatch`] diagnostic when the
/// recount disagrees with the analyzer.
fn seq_count_diags(counted: u64, reported_seq: u64, unrolling: bool) -> Vec<Diagnostic> {
    if counted == reported_seq {
        return Vec::new();
    }
    vec![Diagnostic::new(
        DiagnosticKind::SeqCountMismatch,
        None,
        format!(
            "analyzer reported {reported_seq} sequential instructions with unrolling \
             {}, independent recount found {counted}",
            if unrolling { "on" } else { "off" }
        ),
    )]
}

/// Incremental CFG-edge checker: [`TraceChecks::check_edges`] fed one
/// event at a time. The shadow return-address stack (calls push `pc + 1`,
/// returns must come back to the matching push) and the previous event
/// carry across chunk boundaries.
struct EdgeWalker<'c, 'a> {
    checks: &'c TraceChecks<'a>,
    shadow: Vec<u32>,
    prev: Option<TraceEvent>,
    out: Vec<Diagnostic>,
}

impl<'c, 'a> EdgeWalker<'c, 'a> {
    fn new(checks: &'c TraceChecks<'a>) -> EdgeWalker<'c, 'a> {
        EdgeWalker {
            checks,
            shadow: Vec::new(),
            prev: None,
            out: Vec::new(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if let Some(from) = self.prev {
            self.checks
                .check_edge(&from, event.pc, &mut self.shadow, &mut self.out);
        }
        self.prev = Some(event);
    }

    fn finish(self) -> Vec<Diagnostic> {
        self.out
    }
}

/// Incremental unroll-mask checker: [`TraceChecks::check_unroll_masks`]
/// fed one event at a time. Carries the per-(monitor, call depth)
/// iteration counters, the call depth, and the previous pc.
struct UnrollWalker<'c, 'a> {
    checks: &'c TraceChecks<'a>,
    monitors: Vec<Monitor>,
    by_increment: HashMap<u32, Vec<usize>>,
    by_header: HashMap<BlockId, Vec<usize>>,
    counters: HashMap<(usize, usize), u32>,
    depth: usize,
    prev: Option<u32>,
    out: Vec<Diagnostic>,
}

impl<'c, 'a> UnrollWalker<'c, 'a> {
    fn new(checks: &'c TraceChecks<'a>) -> UnrollWalker<'c, 'a> {
        let mut out = Vec::new();
        let (monitors, by_increment, by_header) = checks.build_monitors(&mut out);
        UnrollWalker {
            checks,
            monitors,
            by_increment,
            by_header,
            counters: HashMap::new(),
            depth: 0,
            prev: None,
            out,
        }
    }

    /// Replay step: count increment executions per (monitor, call depth),
    /// checking the count at every latch-to-header back edge.
    fn push(&mut self, event: TraceEvent) {
        if self.monitors.is_empty() {
            return;
        }
        let info = self.checks.info;
        let cfg = &info.cfg;
        let text = &self.checks.program.text;
        let pc = event.pc;
        let block = cfg.block_of_instr(pc);
        if cfg.block(block).start == pc {
            if let Some(watchers) = self.by_header.get(&block) {
                for &index in watchers {
                    let monitor = &self.monitors[index];
                    let l = &info.loops.loops()[monitor.loop_index];
                    let from_latch = self.prev.is_some_and(|p| {
                        let pb = cfg.block_of_instr(p);
                        p == cfg.block(pb).terminator() && l.latches.contains(&pb)
                    });
                    let slot = self.counters.entry((index, self.depth)).or_insert(0);
                    if from_latch && *slot != 1 {
                        self.out.push(Diagnostic::new(
                            DiagnosticKind::UnrollMaskViolation,
                            Some(monitor.increment),
                            format!(
                                "induction increment `{}` (pc {}) of {} in the loop at \
                                 b{} ran {} times in one iteration, expected exactly once",
                                text[monitor.increment as usize],
                                monitor.increment,
                                monitor.reg,
                                l.header.index(),
                                slot
                            ),
                        ));
                    }
                    *slot = 0;
                }
            }
        }
        if let Some(watchers) = self.by_increment.get(&pc) {
            for &index in watchers {
                *self.counters.entry((index, self.depth)).or_insert(0) += 1;
            }
        }
        match text[pc as usize] {
            Instr::Call { .. } | Instr::CallR { .. } => self.depth += 1,
            Instr::Ret => self.depth = self.depth.saturating_sub(1),
            _ => {}
        }
        self.prev = Some(pc);
    }

    fn finish(self) -> Vec<Diagnostic> {
        self.out
    }
}

/// Incremental alias-soundness checker:
/// [`TraceChecks::check_alias_soundness`] fed one event at a time.
/// Carries the per-word latest load/store pcs and the set of already
/// reported static pairs.
struct AliasWalker<'c, 'a> {
    checks: &'c TraceChecks<'a>,
    /// Latest store pc per accessed word address.
    last_store: HashMap<u32, u32>,
    /// Latest load pc per accessed word address.
    last_load: HashMap<u32, u32>,
    /// Static `(earlier pc, later pc)` pairs already reported.
    reported: std::collections::HashSet<(u32, u32)>,
    out: Vec<Diagnostic>,
}

impl<'c, 'a> AliasWalker<'c, 'a> {
    fn new(checks: &'c TraceChecks<'a>) -> AliasWalker<'c, 'a> {
        AliasWalker {
            checks,
            last_store: HashMap::new(),
            last_load: HashMap::new(),
            reported: std::collections::HashSet::new(),
            out: Vec::new(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        let (is_load, is_store) = match event.instr(self.checks.program) {
            Instr::Lw { .. } => (true, false),
            Instr::Sw { .. } => (false, true),
            _ => return,
        };
        let addr = event.mem_addr;
        if is_load {
            if let Some(&store_pc) = self.last_store.get(&addr) {
                self.check_pair(store_pc, event.pc, addr);
            }
            self.last_load.insert(addr, event.pc);
        }
        if is_store {
            if let Some(&store_pc) = self.last_store.get(&addr) {
                self.check_pair(store_pc, event.pc, addr);
            }
            if let Some(&load_pc) = self.last_load.get(&addr) {
                self.check_pair(load_pc, event.pc, addr);
            }
            self.last_store.insert(addr, event.pc);
        }
    }

    /// Reports the pair if the analysis claims the accesses cannot alias.
    fn check_pair(&mut self, earlier_pc: u32, later_pc: u32, addr: u32) {
        if !self.reported.insert((earlier_pc, later_pc)) {
            return;
        }
        let alias = &self.checks.info.alias;
        if alias.classify(earlier_pc, later_pc) == Some(clfp_cfg::AliasKind::No) {
            let text = &self.checks.program.text;
            self.out.push(Diagnostic::new(
                DiagnosticKind::AliasSoundnessViolation,
                Some(later_pc),
                format!(
                    "`{}` (pc {later_pc}) and `{}` (pc {earlier_pc}) both touched address \
                     {addr:#x}, but the alias analysis classified the pair no-alias",
                    text[later_pc as usize], text[earlier_pc as usize]
                ),
            ));
        }
    }

    fn finish(self) -> Vec<Diagnostic> {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_cfg::CdViolationReason;
    use clfp_isa::assemble;
    use clfp_limits::{AnalysisConfig, Analyzer, MachineKind, MemDisambiguation, ValuePrediction};
    use clfp_vm::{TraceEvent, Vm, VmOptions};

    const CLEAN: &str = r#"
        .text
        main:
            li a0, 3
            call f
            halt
        f:
            add v0, a0, a0
            ret
    "#;

    const LOOPY: &str = r#"
        .text
        main:
            li r8, 0
            li r9, 5
        loop:
            add r10, r8, r8    # pc 2: header body work
            addi r8, r8, 1     # pc 3: induction increment
            blt r8, r9, loop   # pc 4: latch branch
            halt
    "#;

    fn setup(source: &str) -> (Program, StaticInfo) {
        let program = assemble(source).unwrap();
        let info = StaticInfo::analyze(&program);
        (program, info)
    }

    fn trace_of(program: &Program) -> Trace {
        let mut vm = Vm::new(program, VmOptions::default());
        vm.trace(1_000_000).unwrap()
    }

    /// One whole-trace chunk: the in-memory form of every streamed check.
    fn whole(trace: &Trace) -> usize {
        trace.len().max(1)
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_program_lints_clean() {
        let (program, info) = setup(CLEAN);
        let diags = lint_program(&program, &info);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    #[test]
    fn bad_branch_target_flagged() {
        // Lint the mutated text against analyses of the valid program;
        // the branch-target pass only reads the text.
        let (mut program, info) = setup(CLEAN);
        program.text[1] = Instr::Jump { target: 999 };
        let diags = lint_program(&program, &info);
        let bad: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::BadBranchTarget)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].pc, Some(1));
        assert_eq!(bad[0].severity(), Severity::Error);
        assert!(bad[0].message.contains("999"));
    }

    #[test]
    fn unreachable_block_warned() {
        let (program, info) = setup(
            r#"
            .text
            main:
                li r8, 1
                halt
            orphan:
                addi r8, r8, 1
                halt
            "#,
        );
        let diags = lint_program(&program, &info);
        let dead: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::UnreachableBlock)
            .collect();
        assert!(!dead.is_empty());
        assert_eq!(dead[0].severity(), Severity::Warning);
        assert!(dead[0].message.contains("unreachable"));
        assert!(dead[0].message.contains("orphan"), "{}", dead[0].message);
    }

    #[test]
    fn maybe_uninit_read_warned() {
        let (program, info) = setup(
            r#"
            .text
            main:
                add r9, r8, r8
                halt
            "#,
        );
        let diags = lint_program(&program, &info);
        let reads: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::MaybeUninitRead)
            .collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].pc, Some(0));
        assert_eq!(reads[0].severity(), Severity::Warning);
    }

    #[test]
    fn dead_store_noted() {
        let (program, info) = setup(
            r#"
            .text
            main:
                li r8, 1
                li r8, 2
                halt
            "#,
        );
        let diags = lint_program(&program, &info);
        let dead: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].pc, Some(0));
        assert_eq!(dead[0].severity(), Severity::Info);
    }

    #[test]
    fn cd_violation_maps_to_error_diagnostic() {
        let violation = CdViolation {
            block: BlockId(3),
            branch_pc: 7,
            reason: CdViolationReason::NotCondBranch,
        };
        let diag = cd_diagnostic(violation);
        assert_eq!(diag.kind, DiagnosticKind::CdInvariant);
        assert_eq!(diag.pc, Some(7));
        assert_eq!(diag.severity(), Severity::Error);
    }

    #[test]
    fn edge_checks_accept_real_traces() {
        let (program, info) = setup(
            r#"
            .text
            main:
                li r8, 0
                li r9, 5
            loop:
                addi r8, r8, 1
                call bump
                blt r8, r9, loop
                halt
            bump:
                add r10, r8, r0
                ret
            "#,
        );
        let trace = trace_of(&program);
        let checks = TraceChecks::new(&program, &info);
        let all = whole(&trace);
        assert_eq!(checks.check_edges(&trace, all).unwrap(), Vec::new());
        assert_eq!(checks.check_unroll_masks(&trace, all).unwrap(), Vec::new());
    }

    #[test]
    fn edge_checks_flag_corrupted_trace() {
        let (program, info) = setup(CLEAN);
        let trace = trace_of(&program);
        let mut events: Vec<TraceEvent> = trace.events().to_vec();
        // Event 1 should be the straight-line successor of event 0.
        events[1].pc += 1;
        let corrupted = Trace::from_events(events);
        let checks = TraceChecks::new(&program, &info);
        let diags = checks.check_edges(&corrupted, whole(&corrupted)).unwrap();
        assert!(kinds(&diags).contains(&DiagnosticKind::EdgeViolation), "{diags:?}");
        assert!(has_errors(&diags));
    }

    #[test]
    fn cd_resolution_cross_check() {
        let (program, info) = setup(LOOPY);
        let config = AnalysisConfig {
            max_instrs: 10_000,
            machines: vec![MachineKind::Base],
            ..AnalysisConfig::default()
        };
        let analyzer = Analyzer::new(&program, config).unwrap();
        let trace = trace_of(&program);
        let prepared = analyzer.prepare(&trace);
        let checks = TraceChecks::new(&program, &info);

        // The analyzer's own resolution is consistent with the static RDF.
        assert_eq!(checks.check_cd_sources(&trace, prepared.cd_sources()), Vec::new());

        // A stream pinning everything on a non-RDF pc is flagged.
        let bogus = vec![CdSource::Branch(0); trace.len()];
        let diags = checks.check_cd_sources(&trace, bogus);
        assert!(kinds(&diags).contains(&DiagnosticKind::CdResolutionViolation));

        // A mis-aligned stream is flagged even when its entries are benign.
        let short = checks.check_cd_sources(&trace, Vec::new());
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].kind, DiagnosticKind::CdResolutionViolation);
    }

    #[test]
    fn unroll_mask_counts_induction_updates() {
        let (program, info) = setup(LOOPY);
        let trace = trace_of(&program);
        let checks = TraceChecks::new(&program, &info);
        let all = whole(&trace);
        assert_eq!(checks.check_unroll_masks(&trace, all).unwrap(), Vec::new());

        // Duplicate the first execution of the increment (pc 3): the
        // iteration now updates r8 twice, which unrolling must not hide.
        let mut events: Vec<TraceEvent> = trace.events().to_vec();
        let at = events.iter().position(|e| e.pc == 3).unwrap();
        events.insert(at, events[at]);
        let corrupted = Trace::from_events(events);
        let diags = checks
            .check_unroll_masks(&corrupted, whole(&corrupted))
            .unwrap();
        assert_eq!(kinds(&diags), vec![DiagnosticKind::UnrollMaskViolation]);
        assert_eq!(diags[0].pc, Some(3));
        assert!(diags[0].message.contains("2 times"), "{}", diags[0].message);
    }

    #[test]
    fn seq_count_cross_check() {
        let (program, _) = setup(LOOPY);
        let config = AnalysisConfig {
            max_instrs: 10_000,
            machines: vec![MachineKind::Base],
            ..AnalysisConfig::default()
        };
        let analyzer = Analyzer::new(&program, config).unwrap();
        let trace = trace_of(&program);
        let prepared = analyzer.prepare(&trace);
        let checks = TraceChecks::new(&program, analyzer.static_info());
        for unrolling in [false, true] {
            let seq = prepared.report_with_unrolling(unrolling).seq_instrs;
            let count = |seq| checks.check_seq_count(&trace, whole(&trace), unrolling, seq);
            assert_eq!(count(seq).unwrap(), Vec::new());
            let diags = count(seq + 1).unwrap();
            assert_eq!(kinds(&diags), vec![DiagnosticKind::SeqCountMismatch]);
        }
    }

    #[test]
    fn streamed_checks_match_slice_checks() {
        // Clean and corrupted traces: small chunks must produce exactly
        // the one-chunk diagnostics, across chunk sizes that straddle
        // call/branch boundaries.
        let (program, info) = setup(LOOPY);
        let checks = TraceChecks::new(&program, &info);
        let clean = trace_of(&program);
        let mut events: Vec<TraceEvent> = clean.events().to_vec();
        let at = events.iter().position(|e| e.pc == 3).unwrap();
        events.insert(at, events[at]);
        let corrupted = Trace::from_events(events);

        for trace in [&clean, &corrupted] {
            let all = whole(trace);
            for chunk in [1, 7, 4096] {
                assert_eq!(
                    checks.check_edges(trace, chunk).unwrap(),
                    checks.check_edges(trace, all).unwrap(),
                    "edges chunk={chunk}"
                );
                assert_eq!(
                    checks.check_unroll_masks(trace, chunk).unwrap(),
                    checks.check_unroll_masks(trace, all).unwrap(),
                    "unroll chunk={chunk}"
                );
                assert_eq!(
                    checks.check_alias_soundness(trace, chunk).unwrap(),
                    checks.check_alias_soundness(trace, all).unwrap(),
                    "alias chunk={chunk}"
                );
                for unrolling in [false, true] {
                    for reported in [10u64, 11] {
                        assert_eq!(
                            checks
                                .check_seq_count(trace, chunk, unrolling, reported)
                                .unwrap(),
                            checks
                                .check_seq_count(trace, all, unrolling, reported)
                                .unwrap(),
                            "seq chunk={chunk}"
                        );
                    }
                }
            }
        }
    }

    /// Two distinct globals, one stored and one loaded: the ingredients
    /// for both a forged soundness violation and the one-way region
    /// lints.
    const SPLIT_TRAFFIC: &str = r#"
        .data
        a: .space 64
        b: .space 64
        .text
        main:
            li r8, 1
            sw r8, 0x1000(r0)
            lw r9, 0x1040(r0)
            halt
        "#;

    #[test]
    fn alias_soundness_flags_forged_conflict() {
        let (program, info) = setup(SPLIT_TRAFFIC);
        let trace = trace_of(&program);
        let checks = TraceChecks::new(&program, &info);
        let all = whole(&trace);
        assert_eq!(
            checks.check_alias_soundness(&trace, all).unwrap(),
            Vec::new()
        );

        // Forge the load to hit `a` at run time: the analysis still
        // claims the pair cannot alias, which the walker must flag.
        let mut events: Vec<TraceEvent> = trace.events().to_vec();
        let at = events
            .iter()
            .position(|e| matches!(e.instr(&program), Instr::Lw { .. }))
            .unwrap();
        events[at].mem_addr = 0x1000;
        let forged = Trace::from_events(events);
        let diags = checks.check_alias_soundness(&forged, all).unwrap();
        assert_eq!(kinds(&diags), vec![DiagnosticKind::AliasSoundnessViolation]);
        assert!(has_errors(&diags));
        assert!(diags[0].message.contains("no-alias"), "{}", diags[0].message);

        // The streamed walker agrees chunk-for-chunk on both traces.
        for trace in [&trace, &forged] {
            for chunk in [1, 7, 4096] {
                assert_eq!(
                    checks.check_alias_soundness(trace, chunk).unwrap(),
                    checks.check_alias_soundness(trace, whole(trace)).unwrap(),
                    "alias chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn region_lints_note_one_way_traffic() {
        let (program, info) = setup(SPLIT_TRAFFIC);
        let diags = lint_program(&program, &info);
        let kinds = kinds(&diags);
        assert!(kinds.contains(&DiagnosticKind::RegionDeadStore), "{diags:?}");
        assert!(kinds.contains(&DiagnosticKind::NeverStoredRegionLoad), "{diags:?}");
        assert!(!has_errors(&diags));
    }

    #[test]
    fn workload_is_clean_end_to_end() {
        let workload = clfp_workloads::by_name("scan").unwrap();
        let program = workload.compile().unwrap();
        let config = AnalysisConfig {
            max_instrs: 30_000,
            machines: vec![MachineKind::Base],
            ..AnalysisConfig::default()
        };
        let analyzer = Analyzer::new(&program, config).unwrap();
        let mut vm = Vm::new(&program, VmOptions::default());
        let trace = vm.trace(30_000).unwrap();
        let prepared = analyzer.prepare(&trace);
        let checks = TraceChecks::new(&program, analyzer.static_info());
        let (unrolled, rolled) = prepared.report_both();
        let diags = checks.check_dynamic(&trace, &prepared, &unrolled, &rolled);
        assert!(diags.is_empty(), "cross-check violations: {diags:?}");

        let static_diags = lint_program(&program, analyzer.static_info());
        assert!(
            !has_errors(&static_diags),
            "static errors: {static_diags:?}"
        );
    }

    /// A predictable induction chain (stride-friendly), an irregular
    /// squaring chain, and a serial accumulator: enough structure to
    /// strictly separate the value-prediction modes on the base machine.
    const VALUE_CHAINS: &str = r#"
        .text
        main:
            li r8, 0
            li r9, 40
            li r11, 0
        loop:
            addi r8, r8, 1     # stride-predictable induction
            mul r10, r8, r8    # irregular: only perfect predicts squares
            add r11, r11, r10  # serial accumulator on the mul output
            blt r8, r9, loop
            halt
    "#;

    /// Each iteration loads `b`, runs a short dependent chain on the
    /// value, and stores the result to `a`. With perfect (or static:
    /// distinct globals) disambiguation the iterations overlap; with none,
    /// every load waits for the previous iteration's store.
    const MEMORY_CHAINS: &str = r#"
        .data
        a: .space 64
        b: .space 64
        .text
        main:
            li r8, 0
            li r9, 40
        loop:
            lw r10, 0x1040(r0)
            addi r10, r10, 3
            mul r10, r10, r10
            addi r10, r10, 1
            sw r10, 0x1000(r0)
            addi r8, r8, 1
            blt r8, r9, loop
            halt
    "#;

    #[test]
    fn monotonicity_check_accepts_real_reports_and_flags_forgeries() {
        // Each axis's modes, from the most constrained to the least, on a
        // program that strictly separates its endpoints.
        let value_prediction: Vec<(&str, AnalysisConfig)> = ValuePrediction::ALL
            .iter()
            .map(|&mode| {
                (
                    mode.name(),
                    AnalysisConfig::default().with_value_prediction(mode),
                )
            })
            .collect();
        let disambiguation: Vec<(&str, AnalysisConfig)> = MemDisambiguation::ALL
            .iter()
            .rev()
            .map(|&mode| {
                (
                    mode.name(),
                    AnalysisConfig::default().with_disambiguation(mode),
                )
            })
            .collect();
        for (axis, source, configs) in [
            ("value-prediction", VALUE_CHAINS, value_prediction),
            ("disambiguation", MEMORY_CHAINS, disambiguation),
        ] {
            let (program, _) = setup(source);
            let trace = trace_of(&program);
            let reports: Vec<(&str, Report)> = configs
                .into_iter()
                .map(|(name, config)| {
                    let config = AnalysisConfig {
                        max_instrs: 10_000,
                        machines: vec![MachineKind::Base],
                        ..config
                    };
                    let analyzer = Analyzer::new(&program, config).unwrap();
                    (name, analyzer.prepare(&trace).report_with_unrolling(false))
                })
                .collect();

            // The honest chain satisfies the theorem.
            let chain: Vec<(&str, &Report)> = reports
                .iter()
                .map(|(name, report)| (*name, report))
                .collect();
            assert_eq!(check_monotonicity(axis, &chain), Vec::new(), "{axis}");

            // The program strictly separates the endpoints, so swapping
            // their labels forges a violation the check must flag.
            let (weak_name, weak) = chain[0];
            let (strong_name, strong) = chain[chain.len() - 1];
            assert!(
                strong.results[0].cycles < weak.results[0].cycles,
                "{axis}: program fails to separate modes: {strong_name} {} vs {weak_name} {}",
                strong.results[0].cycles,
                weak.results[0].cycles
            );
            let forged = [(weak_name, strong), (strong_name, weak)];
            let diags = check_monotonicity(axis, &forged);
            assert_eq!(
                kinds(&diags),
                vec![DiagnosticKind::MonotonicityViolation],
                "{axis}"
            );
            assert!(has_errors(&diags));
            assert!(diags[0].message.contains("perfect"), "{}", diags[0].message);
            assert!(diags[0].message.contains(axis), "{}", diags[0].message);
        }
    }
}
