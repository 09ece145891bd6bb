//! The scheduling kernel: every machine model, every in-memory and
//! streamed pipeline, with or without metrics recording.
//!
//! A machine pass is a max-fold of constraint terms per dynamic
//! instruction, and the seven machines differ only in the *control* term.
//! So the kernel walks the pre-decoded [`EventMeta`] stream **event-major
//! in lanes**: one walk reads each event once and schedules every
//! requested machine × unroll slot simultaneously, carrying per-lane time
//! vectors (`[u64; L]` per register, per branch PC, per memory key)
//! instead of scalar state.
//!
//! Two properties make the fold branchless across lanes:
//!
//! * Every scheduling quantity is an unsigned max of constraint terms, so
//!   a term that a machine does not impose can be **masked to zero** —
//!   zero never wins an unsigned max against a real constraint. The
//!   machine distinctions (BASE waits on the last branch, SP on the last
//!   misprediction, ORACLE on nothing; CD vs SP-CD read `time` vs
//!   `ceiling`; the CD/SP-CD branch-ordering extras) all become per-lane
//!   constant masks built once at group construction.
//! * Conditional state updates ("only if this lane does not ignore the
//!   event") become select operations `(new & m) | (old & !m)` with the
//!   lane's per-event active mask. Perfect inlining and unrolling delete
//!   static instructions, so the mask comes from the ignore flag of the
//!   lane's unroll setting ([`PC_IGNORED_UNROLLED`] or
//!   [`PC_IGNORED_ROLLED`]) in the [`PcMeta`] row the kernel loads for
//!   the event anyway.
//!
//! What cannot be masked is monomorphized instead. Lanes are grouped by
//! the one structural feature that changes *which state exists*:
//! machines that consult control dependences (CD, CD-MF, SP-CD,
//! SP-CD-MF) need the per-branch `time`/`ceiling` arrays and the
//! inheritance stack; BASE, SP and ORACLE provably never read them. The
//! kernel is generic over `<const L: usize, const CD: bool, const
//! RENAME: bool, const FETCH: bool, S: MetricsSink>`, so the CD arrays,
//! the anti-dependence tracking (off under register renaming, the
//! default) and the fetch-bandwidth divide are stripped at compile time
//! and the per-lane loops fully unroll for `L ∈ {1, 2, 4, 6, 8}`.
//!
//! **One source, two builds.** Baseline x86-64 (SSE2) has no 64-bit
//! vector compare, so the portable build folds the `u64` lanes mostly
//! with scalar `cmp`/`cmov`. The kernel body (`GroupCursor::feed_events`)
//! is therefore `#[inline(always)]` and compiled a second time inside an
//! `avx512f,avx512vl` `#[target_feature]` wrapper, where the same loops
//! become `vpmaxuq` max-folds and masked selects over whole lane vectors.
//! [`GroupFeed::feed`] dispatches to that wrapper when `L > 1` and the
//! CPU has the features (runtime detection, cached by the standard
//! library); width-1 groups, and every group on other CPUs, run the
//! portable build. No switch selects the build: [`kernel_isa`] names the
//! one this host runs, and perf records carry it. A unit test feeds twin
//! groups, throughput and recording, through both builds and requires
//! identical results.
//!
//! The SP machine's misprediction-segment statistics mix integer and
//! floating-point arithmetic and reset state at data-dependent points;
//! they stay scalar, applied per event to the (at most two) SP lanes in
//! a group — the identical operations in the identical order as the
//! reference pass, so the resulting [`MispredictionStats`] are
//! bit-identical.
//!
//! **Metrics recording** (`clfp-metrics` sinks) is the same kernel with a
//! recording sink `S`: such a group owns one sink per lane and keeps,
//! beside every time it stores, the [`HopSummary`] of the chain that
//! produced that time (a boxed [`Recorder`], and a second array in the
//! memory table's slots). Each scheduled event picks its binding edge
//! per lane from the terms the fold read — a later term wins a tie, and
//! control wins the final data-versus-control tie — and its chain is
//! the binding producer's plus one hop of the edge's kind, or a head
//! when nothing binds. So the critical path's attribution is carried
//! forward, and nothing is stored per event. With [`NullSink`] every
//! `S::ENABLED` block is statically eliminated, so the throughput groups
//! compile to the bare kernel. A recording request runs through the same
//! driver as every other walk ([`LaneScheduler`]).
//!
//! **Modes are applied here.** The preparation walk is mode-free: it
//! records each event's dynamic memory key and every value predictor's
//! hit bit. Each group carries one [`MemDisambiguation`] and
//! derives its last-write keys through [`last_write_key`]; each lane
//! masks its [`ValuePrediction`]'s hit bit ([`vp_flag`]). So one
//! preparation serves every mode, and one walk can schedule several
//! modes side by side ([`LaneScheduler::new`]).
//!
//! The reference pass ([`pass`](crate::pass)) is the independent oracle:
//! the `lane_equivalence` integration suite holds this kernel
//! bit-identical to it across machines, workloads, unroll settings,
//! memory-disambiguation and value-prediction modes, and chunk sizes.

use std::ops::Deref;
use std::sync::mpsc;
use std::thread::ScopedJoinHandle;

use clfp_metrics::{EdgeKind, HopSummary, MetricsCollector, MetricsSink, NullSink};

use crate::meta::{
    vp_flag, EventMeta, PcMeta, ProgramMeta, CD_INHERIT, CD_NONE, EV_BRANCH, EV_MISPRED, NO_REG,
    PC_CALL, PC_IGNORED_ROLLED, PC_IGNORED_UNROLLED, PC_LOAD, PC_RET, PC_STORE,
};
use crate::pass::PassResult;
use crate::stats::MispredictionStats;
use crate::{AnalysisConfig, MachineKind, MemDisambiguation, ValuePrediction};

/// A lane-widened [`LastWriteTable`](crate::LastWriteTable): the same
/// open-addressed Fibonacci-hashed probe sequence, but each slot stores
/// the last-write cycle for all `L` lanes, so one probe serves the whole
/// group where the machine-major walk paid one probe per machine.
struct LaneTable<const L: usize> {
    keys: Vec<u32>,
    values: Vec<[u64; L]>,
    len: usize,
    mask: usize,
    /// Beside each slot's times, the chains that produced them: allocated
    /// only for a recording group's `mem_time`, empty otherwise.
    chains: Vec<[HopSummary; L]>,
}

const EMPTY: u32 = u32::MAX;

impl<const L: usize> LaneTable<L> {
    /// A table for about `capacity` keys, with a chain beside each slot's
    /// times when `recording`.
    fn with_capacity(capacity: usize, recording: bool) -> LaneTable<L> {
        let slots = (capacity.max(16) * 2).next_power_of_two();
        LaneTable {
            keys: vec![EMPTY; slots],
            values: vec![[0; L]; slots],
            len: 0,
            mask: slots - 1,
            chains: Self::chain_slots(recording, slots),
        }
    }

    fn chain_slots(recording: bool, slots: usize) -> Vec<[HopSummary; L]> {
        if recording {
            vec![[HopSummary::EMPTY; L]; slots]
        } else {
            Vec::new()
        }
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        let hash = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> 32) as usize & self.mask
    }

    /// The per-lane last-write cycles for `key` ([0; L] if never written).
    #[inline]
    fn get(&self, key: u32) -> [u64; L] {
        debug_assert_ne!(key, EMPTY, "sentinel address");
        let mut slot = self.slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.values[slot];
            }
            if k == EMPTY {
                return [0; L];
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Mutable access to `key`'s lane vector, inserting zeros if absent.
    #[inline]
    fn entry(&mut self, key: u32) -> &mut [u64; L] {
        debug_assert_ne!(key, EMPTY, "sentinel address");
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut slot = self.slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                break;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.len += 1;
                break;
            }
            slot = (slot + 1) & self.mask;
        }
        &mut self.values[slot]
    }

    /// The per-lane last-write cycles in `slot` ([0; L] for a key never
    /// written).
    #[inline]
    fn times(&self, slot: Option<usize>) -> [u64; L] {
        slot.map_or([0; L], |slot| self.values[slot])
    }

    /// The slot holding `key`, if it was ever written: a recording
    /// group's one probe, which reads the chains beside the times.
    #[inline]
    fn find(&self, key: u32) -> Option<usize> {
        let mut slot = self.slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(slot);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_values = std::mem::take(&mut self.values);
        let old_chains = std::mem::take(&mut self.chains);
        let new_slots = (old_keys.len() * 2).max(32);
        self.keys = vec![EMPTY; new_slots];
        self.values = vec![[0; L]; new_slots];
        self.chains = Self::chain_slots(!old_chains.is_empty(), new_slots);
        self.mask = new_slots - 1;
        for (old, key) in old_keys.into_iter().enumerate() {
            if key != EMPTY {
                let mut slot = self.slot(key);
                while self.keys[slot] != EMPTY {
                    slot = (slot + 1) & self.mask;
                }
                self.keys[slot] = key;
                self.values[slot] = old_values[old];
                if let Some(&chains) = old_chains.get(old) {
                    self.chains[slot] = chains;
                }
            }
        }
    }
}

/// Scalar SP-segment state for one lane (see
/// [`MispredictionStats`]): the misprediction-distance bookkeeping is
/// data-dependent and partly floating-point, so it runs per tracked lane
/// exactly as the reference pass runs it.
struct SegTracker {
    lane: usize,
    count: u64,
    start: u64,
    max: u64,
    stats: MispredictionStats,
}

impl SegTracker {
    fn new(lane: usize) -> SegTracker {
        SegTracker {
            lane,
            count: 0,
            start: 0,
            max: 0,
            stats: MispredictionStats::new(),
        }
    }

    fn finish(mut self) -> MispredictionStats {
        if self.count > 0 {
            let span = self.max.saturating_sub(self.start).max(1);
            self.stats.record_segment(
                self.count.min(u32::MAX as u64) as u32,
                self.count as f64 / span as f64,
            );
        }
        self.stats
    }
}

/// A recording group's sinks and chain shadows: beside every time the
/// group keeps in a register, branch or call-stack table, the
/// [`HopSummary`] of the chain that produced it (the memory table keeps
/// its chains in its own slots). Boxed and allocated only for recording
/// groups, so the throughput groups carry none of it.
struct Recorder<const L: usize, S> {
    /// One sink per real lane, in lane order.
    sinks: Vec<S>,
    reg: [[HopSummary; L]; 32],
    /// Shadows `branch_time` / `branch_ceiling` (CD groups only): a lane
    /// that ignores a branch passes its inherited chains through, the
    /// same way it passes the times.
    branch_time: Vec<[HopSummary; L]>,
    branch_ceiling: Vec<[HopSummary; L]>,
    /// Shadows the inherited-dependence call stack (CD groups only).
    stack: Vec<([HopSummary; L], [HopSummary; L])>,
    last_branch: [HopSummary; L],
    last_mispred: [HopSummary; L],
}

impl<const L: usize, S> Recorder<L, S> {
    /// The chains of the `(time, ceiling)` context named by a pre-resolved
    /// `cd` annotation ([`GroupCursor::cd_ctx`] over chains).
    #[inline]
    fn cd_ctx(&self, cd: u32) -> ([HopSummary; L], [HopSummary; L]) {
        let none = [HopSummary::EMPTY; L];
        match cd {
            CD_NONE => (none, none),
            CD_INHERIT => self.stack.last().copied().unwrap_or((none, none)),
            pc => (
                self.branch_time[pc as usize],
                self.branch_ceiling[pc as usize],
            ),
        }
    }
}

/// What one event's fold read outside the group's own tables, for a
/// recording group's [`GroupCursor::bind`]: the memory key's slot in
/// `mem_time` (if written) and the times there and in `mem_read`, the
/// fetch-limit term, and the control-dependence context, `(time,
/// ceiling)` and their chains.
struct FoldTerms<const L: usize> {
    mem_slot: Option<usize>,
    mem_time: [u64; L],
    mem_read: [u64; L],
    fetch: [u64; L],
    cd: ([u64; L], [u64; L]),
    cd_chains: ([HopSummary; L], [HopSummary; L]),
}

/// The sources of a recording fold's candidate binding edges, as labels
/// into [`BIND_EDGE`]: a chain head (nothing binds, or the fetch limit
/// does), each register use, the memory key's last write, the
/// anti-dependences (no producer), the output dependence on the def, the
/// two primary control terms, and the two single-flow orderings.
const BIND_HEAD: usize = 0;
const BIND_USE: usize = 1;
const BIND_MEM: usize = 4;
const BIND_ANTI_REG: usize = 5;
const BIND_DEF: usize = 6;
const BIND_ANTI_MEM: usize = 7;
const BIND_CTL_A: usize = 8;
const BIND_CTL_B: usize = 9;
const BIND_MF_BRANCH: usize = 10;
const BIND_MF_MISPRED: usize = 11;
const BINDS: usize = 12;

/// The edge each candidate label reports (`None`: a chain head).
const BIND_EDGE: [Option<EdgeKind>; BINDS] = {
    use EdgeKind::*;
    [
        None,
        Some(RegData),
        Some(RegData),
        Some(RegData),
        Some(MemData),
        Some(RegData),
        Some(RegData),
        Some(MemData),
        Some(Control),
        Some(Control),
        Some(MfMerge),
        Some(MfMerge),
    ]
};

/// What each candidate label adds to its source chain: one hop of its
/// edge's kind, nothing for a head.
const BIND_STEP: [HopSummary; BINDS] = {
    let mut steps = [HopSummary::EMPTY; BINDS];
    let mut label = 0;
    while label < BINDS {
        if let Some(kind) = BIND_EDGE[label] {
            steps[label] = HopSummary::hop(kind);
        }
        label += 1;
    }
    steps
};

/// One lane's request: which result slot it fills, which machine it
/// models, which unroll setting's ignore flag it reads, and which
/// per-event flag bit marks a correctly predicted value for it
/// ([`vp_flag`] of its value-prediction mode; 0, mode `Off`, never
/// matches).
#[derive(Copy, Clone, Debug)]
pub(crate) struct LaneSlot {
    pub slot: usize,
    pub kind: MachineKind,
    pub unrolling: bool,
    pub vp_flag: u8,
}

/// The last-write key of a load or store under `mode`: the prepared
/// dynamic key under `Perfect`, the pc's static alias class under
/// `Static`, and one location for all of memory under `None`.
#[inline(always)]
fn last_write_key(mode: MemDisambiguation, event: &EventMeta, meta: &PcMeta) -> u32 {
    match mode {
        MemDisambiguation::Perfect => event.mem_key,
        MemDisambiguation::Static => meta.alias_class,
        MemDisambiguation::None => 0,
    }
}

/// How many keys a group's last-write tables hold under `mode`: the
/// trace's distinct dynamic keys (`perfect_keys`), the static alias
/// classes, or the one location.
fn key_capacity(mode: MemDisambiguation, pcs: &ProgramMeta, perfect_keys: usize) -> usize {
    match mode {
        MemDisambiguation::Perfect => perfect_keys,
        MemDisambiguation::Static => pcs.num_classes,
        MemDisambiguation::None => 1,
    }
}

/// Process-wide lane-group id sequence, so trace spans from concurrent
/// walks (and the per-chunk `lane.feed` spans within one walk) can be
/// correlated back to their group in the exported timeline.
static NEXT_GROUP_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl LaneSlot {
    /// Compact `slot:MACHINE±u[*vp]` description for trace spans, e.g.
    /// `3:SP-CD-MF+u` or `17:BASE-u*vp`.
    fn describe(&self) -> String {
        format!(
            "{}:{}{}{}",
            self.slot,
            self.kind.name(),
            if self.unrolling { "+u" } else { "-u" },
            if self.vp_flag != 0 { "*vp" } else { "" },
        )
    }
}

#[inline]
fn lane_mask(on: bool) -> u64 {
    if on {
        u64::MAX
    } else {
        0
    }
}

/// Whether the running CPU has every feature the AVX-512 build of the
/// kernel enables. The standard library caches the detection, so a call
/// costs one relaxed load.
#[inline]
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether a width-`L` group feeds through the AVX-512 build: only
/// multi-lane groups do, since a width-1 group has nothing to vectorize.
#[inline]
fn runs_avx512<const L: usize>() -> bool {
    L > 1 && avx512_available()
}

/// Which build of the scheduling kernel the multi-lane walks run on this
/// host: `"avx512"` where the CPU has AVX-512 (avx512f and avx512vl), else
/// `"portable"`. Width-1 groups (a request for one machine) always run
/// the portable build. Lane walks timed under the two builds differ by
/// about 2×, so perf records name the build they ran.
pub fn kernel_isa() -> &'static str {
    if avx512_available() {
        "avx512"
    } else {
        "portable"
    }
}

/// A group of up to `L` lanes scheduled together by one monomorphized
/// kernel. `CD` selects the control-dependence state (branch arrays +
/// inheritance stack); `RENAME` strips anti-dependence tracking; `FETCH`
/// strips the fetch-bandwidth divide; `S` is the sink each lane reports
/// to — a recording sink makes the group record.
struct GroupCursor<const L: usize, const CD: bool, const RENAME: bool, const FETCH: bool, S> {
    /// The real lanes (`lanes.len() <= L`; padding lanes replicate lane 0
    /// and their results are discarded).
    lanes: Vec<LaneSlot>,
    fetch_width: u64,
    /// All-ones for lanes reading the *unrolled* ignore flag.
    unroll_sel: [u64; L],
    /// Primary control-term masks. `CD`: `m_a` selects `branch_time`
    /// (CD, CD-MF), `m_b` selects `branch_ceiling` (SP-CD, SP-CD-MF).
    /// `!CD`: `m_a` selects `last_branch` (BASE), `m_b` selects
    /// `last_mispred` (SP); ORACLE masks both to zero.
    m_a: [u64; L],
    m_b: [u64; L],
    /// CD-only branch-ordering extras: CD lanes order all branches after
    /// `last_branch`; SP-CD lanes order mispredicted branches after
    /// `last_mispred`.
    m_ord_lb: [u64; L],
    m_ord_lm: [u64; L],
    /// Per-lane value-prediction hit bit (see [`LaneSlot::vp_flag`]).
    vp_flag: [u8; L],

    /// The group's disambiguation mode: how it keys memory
    /// ([`last_write_key`]).
    disambiguation: MemDisambiguation,
    /// Whether stores fold into `mem_time` with `max`: the group's keys
    /// are coarser than a word ([`MemDisambiguation::accumulates`]).
    accumulate: bool,
    reg_time: [[u64; L]; 32],
    reg_read: [[u64; L]; 32],
    mem_time: LaneTable<L>,
    mem_read: LaneTable<L>,
    branch_time: Vec<[u64; L]>,
    branch_ceiling: Vec<[u64; L]>,
    stack: Vec<([u64; L], [u64; L])>,
    last_branch: [u64; L],
    last_mispred: [u64; L],
    cycles: [u64; L],
    count: [u64; L],
    seg: Vec<SegTracker>,
    /// The sinks and chain shadows of a recording group (`None` unless
    /// `S::ENABLED`).
    rec: Option<Box<Recorder<L, S>>>,
    /// Events fed so far.
    fed_events: u64,

    /// Trace/profile attribution, maintained only while tracing is on
    /// (`clfp_metrics::trace`): process-wide group id, walk start
    /// timestamp, accumulated busy time, and chunk count.
    group_id: u64,
    walk_start_us: u64,
    busy_ns: u64,
    fed_chunks: u64,
}

impl<const L: usize, const CD: bool, const RENAME: bool, const FETCH: bool, S: GroupSink>
    GroupCursor<L, CD, RENAME, FETCH, S>
{
    fn new(
        (lanes, pcs, config, perfect_keys, disambiguation): (
            &[LaneSlot],
            &ProgramMeta,
            &AnalysisConfig,
            usize,
            MemDisambiguation,
        ),
    ) -> Self {
        debug_assert!(!lanes.is_empty() && lanes.len() <= L);
        let text_len = pcs.pcs.len();
        let mem_capacity = key_capacity(disambiguation, pcs, perfect_keys);
        let spec = |l: usize| lanes[l.min(lanes.len() - 1)];
        let mut unroll_sel = [0; L];
        let mut m_a = [0; L];
        let mut m_b = [0; L];
        let mut m_ord_lb = [0; L];
        let mut m_ord_lm = [0; L];
        let mut vp_flag = [0u8; L];
        for l in 0..L {
            let lane = spec(l);
            debug_assert_eq!(lane.kind.uses_control_deps(), CD);
            unroll_sel[l] = lane_mask(lane.unrolling);
            vp_flag[l] = lane.vp_flag;
            if CD {
                m_a[l] = lane_mask(matches!(lane.kind, MachineKind::Cd | MachineKind::CdMf));
                m_b[l] = lane_mask(matches!(lane.kind, MachineKind::SpCd | MachineKind::SpCdMf));
                m_ord_lb[l] = lane_mask(lane.kind == MachineKind::Cd);
                m_ord_lm[l] = lane_mask(lane.kind == MachineKind::SpCd);
            } else {
                m_a[l] = lane_mask(lane.kind == MachineKind::Base);
                m_b[l] = lane_mask(lane.kind == MachineKind::Sp);
            }
        }
        let branch_chains = if CD { text_len } else { 0 };
        GroupCursor {
            lanes: lanes.to_vec(),
            fetch_width: config.fetch_bandwidth.unwrap_or(1),
            unroll_sel,
            m_a,
            m_b,
            m_ord_lb,
            m_ord_lm,
            vp_flag,
            disambiguation,
            accumulate: disambiguation.accumulates(config.disambiguation_bytes),
            reg_time: [[0; L]; 32],
            reg_read: [[0; L]; 32],
            mem_time: LaneTable::with_capacity(mem_capacity, S::ENABLED),
            mem_read: LaneTable::with_capacity(if RENAME { 1 } else { mem_capacity }, false),
            branch_time: if CD { vec![[0; L]; text_len] } else { Vec::new() },
            branch_ceiling: if CD { vec![[0; L]; text_len] } else { Vec::new() },
            stack: Vec::new(),
            last_branch: [0; L],
            last_mispred: [0; L],
            cycles: [0; L],
            count: [0; L],
            seg: lanes
                .iter()
                .enumerate()
                .filter(|(_, lane)| lane.kind == MachineKind::Sp)
                .map(|(l, _)| SegTracker::new(l))
                .collect(),
            rec: S::ENABLED.then(|| {
                Box::new(Recorder {
                    sinks: lanes.iter().map(|_| S::default()).collect(),
                    reg: [[HopSummary::EMPTY; L]; 32],
                    branch_time: vec![[HopSummary::EMPTY; L]; branch_chains],
                    branch_ceiling: vec![[HopSummary::EMPTY; L]; branch_chains],
                    stack: Vec::new(),
                    last_branch: [HopSummary::EMPTY; L],
                    last_mispred: [HopSummary::EMPTY; L],
                })
            }),
            fed_events: 0,
            group_id: NEXT_GROUP_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            walk_start_us: 0,
            busy_ns: 0,
            fed_chunks: 0,
        }
    }

    /// The `(time, ceiling)` lane vectors named by a pre-resolved `cd`
    /// annotation.
    #[inline]
    fn cd_ctx(&self, cd: u32) -> ([u64; L], [u64; L]) {
        match cd {
            CD_NONE => ([0; L], [0; L]),
            CD_INHERIT => self.stack.last().copied().unwrap_or(([0; L], [0; L])),
            pc => (
                self.branch_time[pc as usize],
                self.branch_ceiling[pc as usize],
            ),
        }
    }

    /// Each lane's binding edge and chain for one scheduled event, picked
    /// before any state update from the terms the fold read, in the
    /// fold's order: the data terms (the register uses, the load, and
    /// with renaming off the anti- and output-dependence terms), then the
    /// control terms (the machine's primary term, its single-flow branch
    /// ordering, the fetch limit). A later term wins a tie, so control
    /// wins the final data-versus-control tie; a term of 0 never binds,
    /// and an event nothing binds, or the fetch limit binds, is a head.
    /// `terms` holds what the fold read outside the group's tables.
    #[inline(always)]
    fn bind(
        &self,
        rec: &Recorder<L, S>,
        event: &EventMeta,
        meta: &PcMeta,
        terms: &FoldTerms<L>,
    ) -> ([HopSummary; L], [Option<EdgeKind>; L]) {
        let FoldTerms {
            mem_slot,
            mem_time,
            mem_read,
            fetch,
            cd,
            cd_chains,
        } = terms;
        let empty = [HopSummary::EMPTY; L];
        let heads = [HopSummary::HEAD; L];
        let mut source: [&[HopSummary; L]; BINDS] = [&empty; BINDS];
        source[BIND_HEAD] = &heads;
        // The running maximum starts at 1, so a term of 0 never binds.
        let mut best = [1u64; L];
        let mut pick = [BIND_HEAD as u64; L];
        let mut fold = |term: &[u64; L], label: usize| {
            for l in 0..L {
                let wins = term[l] >= best[l];
                best[l] = best[l].max(term[l]);
                pick[l] = if wins { label as u64 } else { pick[l] };
            }
        };
        let masked = |term: &[u64; L], mask: &[u64; L]| -> [u64; L] {
            std::array::from_fn(|l| term[l] & mask[l])
        };

        for (u, &reg) in meta.uses.iter().enumerate() {
            if reg == NO_REG {
                break;
            }
            source[BIND_USE + u] = &rec.reg[reg as usize];
            fold(&self.reg_time[reg as usize], BIND_USE + u);
        }
        if let Some(slot) = *mem_slot {
            source[BIND_MEM] = &self.mem_time.chains[slot];
        }
        if meta.is(PC_LOAD) {
            fold(mem_time, BIND_MEM);
        }
        if !RENAME {
            if meta.def != NO_REG {
                let def = meta.def as usize;
                source[BIND_DEF] = &rec.reg[def];
                fold(&self.reg_read[def], BIND_ANTI_REG);
                fold(&self.reg_time[def], BIND_DEF);
            }
            if meta.is(PC_STORE) {
                fold(mem_read, BIND_ANTI_MEM);
                fold(mem_time, BIND_MEM);
            }
        }

        let (a, b) = if CD {
            source[BIND_CTL_A] = &cd_chains.0;
            source[BIND_CTL_B] = &cd_chains.1;
            (cd.0, cd.1)
        } else {
            source[BIND_CTL_A] = &rec.last_branch;
            source[BIND_CTL_B] = &rec.last_mispred;
            (self.last_branch, self.last_mispred)
        };
        fold(&masked(&a, &self.m_a), BIND_CTL_A);
        fold(&masked(&b, &self.m_b), BIND_CTL_B);
        if CD && event.flags & EV_BRANCH != 0 {
            source[BIND_MF_BRANCH] = &rec.last_branch;
            fold(&masked(&self.last_branch, &self.m_ord_lb), BIND_MF_BRANCH);
            if event.flags & EV_MISPRED != 0 {
                source[BIND_MF_MISPRED] = &rec.last_mispred;
                fold(&masked(&self.last_mispred, &self.m_ord_lm), BIND_MF_MISPRED);
            }
        }
        if FETCH {
            fold(fetch, BIND_HEAD);
        }

        let mut chains = empty;
        let mut edges = [None; L];
        for l in 0..L {
            let label = pick[l] as usize;
            chains[l] = source[label][l] + BIND_STEP[label];
            edges[l] = BIND_EDGE[label];
        }
        (chains, edges)
    }
}

/// Object-safe handle over one monomorphized lane group, so the
/// scheduler can hold a mixed set of groups and feed them chunk by
/// chunk, on one thread or one thread per group. `S` is the sink each
/// lane reports to; throughput groups take the default [`NullSink`].
pub(crate) trait GroupFeed<S = NullSink>: Send {
    /// Schedules one chunk of consecutive events: the next sub-slice of
    /// an in-memory trace, or the streaming path's next chunk. A
    /// recording group reports every event each lane schedules to that
    /// lane's sink, in trace order.
    fn feed(&mut self, pcs: &ProgramMeta, events: &[EventMeta]);

    /// Closes the walk, returning `(request slot, result, sink)` per real
    /// lane.
    fn finish(self: Box<Self>) -> Vec<(usize, PassResult, S)>;
}

impl<const L: usize, const CD: bool, const RENAME: bool, const FETCH: bool, S: GroupSink>
    GroupCursor<L, CD, RENAME, FETCH, S>
{
    /// The kernel: schedules one chunk of events (see [`GroupFeed::feed`]).
    /// Always inlined, so the portable path in `feed` and
    /// [`Self::feed_events_avx512`] each compile their own copy of this one
    /// source under their own target features.
    #[inline(always)]
    fn feed_events(&mut self, pcs: &ProgramMeta, events: &[EventMeta]) {
        for event in events {
            let meta = &pcs.pcs[event.pc as usize];
            let is_branch = event.flags & EV_BRANCH != 0;
            let mispredicted = event.flags & EV_MISPRED != 0 && is_branch;

            // Per-lane active mask from the lane's unroll setting. The
            // two settings differ only in which pcs are ignored, a flag
            // of each pc's row.
            let igu = 0u64.wrapping_sub(u64::from(meta.is(PC_IGNORED_UNROLLED)));
            let igr = 0u64.wrapping_sub(u64::from(meta.is(PC_IGNORED_ROLLED)));
            let mut am = [0u64; L];
            for (a, &sel) in am.iter_mut().zip(&self.unroll_sel) {
                *a = !((igu & sel) | (igr & !sel));
            }

            let (cd0, cd1) = if CD {
                self.cd_ctx(event.cd)
            } else {
                ([0; L], [0; L])
            };

            // Machine-specific control constraint: two masked primary
            // terms, plus the CD/SP-CD branch-ordering extras. A lane's
            // `ctl` is a don't-care when the lane ignores the event
            // (every consumer of `exec` below is select-masked), so no
            // active gating is needed here.
            let mut ctl = [0u64; L];
            if CD {
                for l in 0..L {
                    ctl[l] = (cd0[l] & self.m_a[l]).max(cd1[l] & self.m_b[l]);
                }
                if is_branch {
                    for (l, c) in ctl.iter_mut().enumerate() {
                        *c = (*c).max(self.last_branch[l] & self.m_ord_lb[l]);
                    }
                    if mispredicted {
                        for (l, c) in ctl.iter_mut().enumerate() {
                            *c = (*c).max(self.last_mispred[l] & self.m_ord_lm[l]);
                        }
                    }
                }
            } else {
                for (l, c) in ctl.iter_mut().enumerate() {
                    *c = (self.last_branch[l] & self.m_a[l]).max(self.last_mispred[l] & self.m_b[l]);
                }
            }
            if FETCH {
                for (l, c) in ctl.iter_mut().enumerate() {
                    *c = (*c).max(self.count[l] / self.fetch_width);
                }
            }

            // True data dependences — identical terms for every lane,
            // read from lane-widened tables (one memory probe per group).
            let mut data = [0u64; L];
            for &reg in &meta.uses {
                if reg == NO_REG {
                    break;
                }
                let rt = &self.reg_time[reg as usize];
                for l in 0..L {
                    data[l] = data[l].max(rt[l]);
                }
            }
            let is_load = meta.is(PC_LOAD);
            let is_store = meta.is(PC_STORE);
            // Only memory events probe the tables.
            let mem_key = if is_load || is_store {
                last_write_key(self.disambiguation, event, meta)
            } else {
                0
            };
            // A recording group probes `mem_time` once for the slot, and
            // reads the times and the chains beside them there.
            let mem_slot = if S::ENABLED && (is_load || (!RENAME && is_store)) {
                self.mem_time.find(mem_key)
            } else {
                None
            };
            if is_load {
                let mt = if S::ENABLED {
                    self.mem_time.times(mem_slot)
                } else {
                    self.mem_time.get(mem_key)
                };
                for l in 0..L {
                    data[l] = data[l].max(mt[l]);
                }
            }
            if !RENAME {
                if meta.def != NO_REG {
                    let rr = &self.reg_read[meta.def as usize];
                    let rt = &self.reg_time[meta.def as usize];
                    for l in 0..L {
                        data[l] = data[l].max(rr[l]).max(rt[l]);
                    }
                }
                if is_store {
                    let mr = self.mem_read.get(mem_key);
                    let mt = if S::ENABLED {
                        self.mem_time.times(mem_slot)
                    } else {
                        self.mem_time.get(mem_key)
                    };
                    for l in 0..L {
                        data[l] = data[l].max(mr[l]).max(mt[l]);
                    }
                }
            }

            let mut exec = [0u64; L];
            let mut done = [0u64; L];
            let latency = meta.latency as u64;
            for l in 0..L {
                exec[l] = data[l].max(ctl[l]) + 1;
                done[l] = exec[l] + latency - 1;
            }

            // A recording group's binding edges and chains, picked while
            // every table still holds the times the fold above read.
            let picked = if S::ENABLED {
                let rec = self
                    .rec
                    .as_deref()
                    .expect("a recording group has a recorder");
                let cd_chains = if CD {
                    rec.cd_ctx(event.cd)
                } else {
                    ([HopSummary::EMPTY; L], [HopSummary::EMPTY; L])
                };
                let anti_store = !RENAME && is_store;
                let terms = FoldTerms {
                    mem_slot,
                    mem_time: self.mem_time.times(mem_slot),
                    mem_read: if anti_store {
                        self.mem_read.get(mem_key)
                    } else {
                        [0; L]
                    },
                    fetch: std::array::from_fn(|l| self.count[l] / self.fetch_width),
                    cd: (cd0, cd1),
                    cd_chains,
                };
                let (chains, edges) = self.bind(rec, event, meta, &terms);
                Some((chains, edges, cd_chains))
            } else {
                None
            };

            // State updates, select-masked per lane.
            for (c, &a) in self.count.iter_mut().zip(&am) {
                *c += a & 1;
            }
            for l in 0..L {
                self.cycles[l] = self.cycles[l].max(done[l] & am[l]);
            }
            if meta.def != NO_REG {
                // Value prediction as one more mask: a correctly predicted
                // producer publishes availability 0 instead of `done`,
                // releasing consumers immediately. Each lane masks its own
                // mode's hit bit (`vp_flag`), keeping the kernel
                // branch-free without another monomorphization axis.
                let rt = &mut self.reg_time[meta.def as usize];
                for l in 0..L {
                    let vpm = 0u64.wrapping_sub(u64::from(event.flags & self.vp_flag[l] != 0));
                    rt[l] = ((done[l] & !vpm) & am[l]) | (rt[l] & !am[l]);
                }
            }
            if is_store {
                let mt = self.mem_time.entry(mem_key);
                if self.accumulate {
                    for l in 0..L {
                        mt[l] = (done[l].max(mt[l]) & am[l]) | (mt[l] & !am[l]);
                    }
                } else {
                    for l in 0..L {
                        mt[l] = (done[l] & am[l]) | (mt[l] & !am[l]);
                    }
                }
            }
            if !RENAME {
                for &reg in &meta.uses {
                    if reg == NO_REG {
                        break;
                    }
                    let rr = &mut self.reg_read[reg as usize];
                    for l in 0..L {
                        rr[l] = rr[l].max(exec[l] & am[l]);
                    }
                }
                if is_load {
                    let mr = self.mem_read.entry(mem_key);
                    for l in 0..L {
                        mr[l] = mr[l].max(exec[l] & am[l]);
                    }
                }
            }

            // Branch trackers.
            if is_branch {
                for l in 0..L {
                    self.last_branch[l] = (exec[l] & am[l]) | (self.last_branch[l] & !am[l]);
                }
                if mispredicted {
                    for l in 0..L {
                        self.last_mispred[l] = (exec[l] & am[l]) | (self.last_mispred[l] & !am[l]);
                    }
                }
                if CD {
                    // A lane that ignores the branch (perfect unrolling
                    // deleted it) inherits the constraint the branch
                    // itself would have waited on.
                    let pc = event.pc as usize;
                    let bt = &mut self.branch_time[pc];
                    for l in 0..L {
                        bt[l] = (exec[l] & am[l]) | (cd0[l] & !am[l]);
                    }
                    let bc = &mut self.branch_ceiling[pc];
                    if mispredicted {
                        for l in 0..L {
                            bc[l] = (exec[l] & am[l]) | (cd1[l] & !am[l]);
                        }
                    } else {
                        *bc = cd1;
                    }
                }
            }
            if CD {
                if meta.is(PC_CALL) {
                    self.stack.push((cd0, cd1));
                } else if meta.is(PC_RET) {
                    self.stack.pop();
                }
            }
            if let Some((chains, edges, cd_chains)) = picked {
                // The chains follow the time updates above: an active
                // lane's event stores its chain wherever it stored its
                // time, and an ignored branch passes its inherited chains
                // through.
                let rec = self
                    .rec
                    .as_deref_mut()
                    .expect("a recording group has a recorder");
                if meta.def != NO_REG {
                    let rc = &mut rec.reg[meta.def as usize];
                    for l in 0..L {
                        rc[l] = if am[l] != 0 { chains[l] } else { rc[l] };
                    }
                }
                if is_store {
                    // A store owns the key's chain where the time it left
                    // there is its own: under accumulating keys, a store
                    // that does not raise the maximum keeps the chain of
                    // the store that set it.
                    let slot = self.mem_time.find(mem_key).expect("a store keeps its key");
                    let times = &self.mem_time.values[slot];
                    let owned = &mut self.mem_time.chains[slot];
                    for l in 0..L {
                        let own = am[l] != 0 && times[l] == done[l];
                        owned[l] = if own { chains[l] } else { owned[l] };
                    }
                }
                if is_branch {
                    for l in 0..L {
                        if am[l] != 0 {
                            rec.last_branch[l] = chains[l];
                            if mispredicted {
                                rec.last_mispred[l] = chains[l];
                            }
                        }
                    }
                    if CD {
                        let pc = event.pc as usize;
                        for l in 0..L {
                            let active = am[l] != 0;
                            rec.branch_time[pc][l] =
                                if active { chains[l] } else { cd_chains.0[l] };
                            rec.branch_ceiling[pc][l] = if active && mispredicted {
                                chains[l]
                            } else {
                                cd_chains.1[l]
                            };
                        }
                    }
                }
                if CD {
                    if meta.is(PC_CALL) {
                        rec.stack.push(cd_chains);
                    } else if meta.is(PC_RET) {
                        rec.stack.pop();
                    }
                }
                for (l, sink) in rec.sinks.iter_mut().enumerate() {
                    if am[l] != 0 {
                        sink.on_schedule(exec[l], done[l], edges[l], chains[l]);
                    }
                }
            }

            // SP segment statistics (scalar per tracked lane; empty for
            // every group without an SP lane).
            for t in &mut self.seg {
                if am[t.lane] != 0 {
                    t.count += 1;
                    t.max = t.max.max(exec[t.lane]);
                    if mispredicted {
                        let span = t.max.saturating_sub(t.start).max(1);
                        t.stats.record_segment(
                            t.count.min(u32::MAX as u64) as u32,
                            t.count as f64 / span as f64,
                        );
                        t.count = 0;
                        t.start = exec[t.lane];
                        t.max = exec[t.lane];
                    }
                }
            }
        }
        self.fed_events += events.len() as u64;
    }

    /// [`Self::feed_events`] compiled with AVX-512 enabled, where the
    /// per-lane `u64` max-folds and selects become `vpmaxuq` and masked
    /// moves over whole lane vectors (baseline x86-64 has no 64-bit
    /// vector compare, so its build folds lanes with scalar `cmov`s).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl")]
    fn feed_events_avx512(&mut self, pcs: &ProgramMeta, events: &[EventMeta]) {
        self.feed_events(pcs, events);
    }
}

impl<const L: usize, const CD: bool, const RENAME: bool, const FETCH: bool, S: GroupSink>
    GroupFeed<S> for GroupCursor<L, CD, RENAME, FETCH, S>
{
    fn feed(&mut self, pcs: &ProgramMeta, events: &[EventMeta]) {
        // Attribution is tracing-gated so the untraced hot path pays one
        // relaxed load per ~16K-event chunk and nothing else.
        let feed_start = if clfp_metrics::trace::tracing_enabled() {
            if self.walk_start_us == 0 {
                self.walk_start_us = clfp_metrics::trace::now_monotonic_us().max(1);
            }
            self.fed_chunks += 1;
            Some(std::time::Instant::now())
        } else {
            None
        };
        // `L > 1` is a compile-time constant: width-1 groups have nothing
        // to vectorize, so their branch folds away to the portable body.
        if runs_avx512::<L>() {
            // SAFETY: `runs_avx512` is true only where `avx512_available`
            // detected avx512f and avx512vl, every feature the wrapper
            // enables, on the running CPU.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                self.feed_events_avx512(pcs, events);
            }
        } else {
            self.feed_events(pcs, events);
        }
        if let Some(t0) = feed_start {
            self.busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn finish(self: Box<Self>) -> Vec<(usize, PassResult, S)> {
        // One synthesized summary span per group walk: start = first
        // feed, duration = accumulated busy time (the group may have
        // interleaved with others on one thread, so a plain RAII guard
        // would overcount). This is the per-machine lane attribution the
        // pipeline profile reads back out of the trace log.
        if self.walk_start_us != 0 {
            let isa = if runs_avx512::<L>() {
                "avx512"
            } else {
                "portable"
            };
            let slots = self
                .lanes
                .iter()
                .map(LaneSlot::describe)
                .collect::<Vec<_>>()
                .join(",");
            clfp_metrics::trace::record_span(
                "lane.group",
                "lane",
                self.walk_start_us,
                self.busy_ns / 1_000,
                vec![
                    ("group", self.group_id.into()),
                    ("cd", CD.into()),
                    ("lanes", self.lanes.len().into()),
                    ("width", L.into()),
                    ("isa", isa.into()),
                    ("key_mode", self.disambiguation.name().into()),
                    ("slots", slots.into()),
                    ("events", self.fed_events.into()),
                    ("chunks", self.fed_chunks.into()),
                ],
            );
        }
        let mut stats: Vec<Option<MispredictionStats>> = (0..L).map(|_| None).collect();
        for t in self.seg {
            let lane = t.lane;
            stats[lane] = Some(t.finish());
        }
        let mut sinks = self
            .rec
            .map(|rec| rec.sinks)
            .unwrap_or_default()
            .into_iter();
        self.lanes
            .iter()
            .enumerate()
            .map(|(l, lane)| {
                let pass = PassResult {
                    cycles: self.cycles[l],
                    count: self.count[l],
                    mispred_stats: stats[l].take(),
                };
                (lane.slot, pass, sinks.next().unwrap_or_default())
            })
            .collect()
    }
}

/// Boxes a width-`L` group, monomorphized for the configuration's
/// renaming and fetch-bandwidth settings.
fn boxed<const L: usize, const CD: bool, S: GroupSink>(
    lanes: &[LaneSlot],
    pcs: &ProgramMeta,
    config: &AnalysisConfig,
    perfect_keys: usize,
    disambiguation: MemDisambiguation,
) -> Box<dyn GroupFeed<S>> {
    let args = (lanes, pcs, config, perfect_keys, disambiguation);
    match (config.rename, config.fetch_bandwidth.is_some()) {
        (true, false) => Box::new(GroupCursor::<L, CD, true, false, S>::new(args)),
        (true, true) => Box::new(GroupCursor::<L, CD, true, true, S>::new(args)),
        (false, false) => Box::new(GroupCursor::<L, CD, false, false, S>::new(args)),
        (false, true) => Box::new(GroupCursor::<L, CD, false, true, S>::new(args)),
    }
}

/// A sink the lane driver opens groups for: [`NullSink`] for the
/// throughput walks, [`MetricsCollector`] (one per lane) for the
/// recording walks.
pub(crate) trait GroupSink: MetricsSink + Default + Send + 'static {
    /// Lanes per group: the widest build monomorphized for this sink.
    const GROUP_LANES: usize;

    /// A group for up to [`Self::GROUP_LANES`] lanes of one
    /// control-dependence class, at the narrowest monomorphized width
    /// that holds them.
    fn group<const CD: bool>(
        lanes: &[LaneSlot],
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        perfect_keys: usize,
        disambiguation: MemDisambiguation,
    ) -> Box<dyn GroupFeed<Self>>;
}

/// Throughput groups come in widths 1, 2, 4, 6 and 8: the full
/// 7-machine × 2-setting request is exactly 8 CD + 6 non-CD lanes.
impl GroupSink for NullSink {
    const GROUP_LANES: usize = 8;

    fn group<const CD: bool>(
        lanes: &[LaneSlot],
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        perfect_keys: usize,
        disambiguation: MemDisambiguation,
    ) -> Box<dyn GroupFeed> {
        let make = match lanes.len() {
            1 => boxed::<1, CD, NullSink>,
            2 => boxed::<2, CD, NullSink>,
            3 | 4 => boxed::<4, CD, NullSink>,
            5 | 6 => boxed::<6, CD, NullSink>,
            _ => boxed::<8, CD, NullSink>,
        };
        make(lanes, pcs, config, perfect_keys, disambiguation)
    }
}

/// Recording groups come in widths 1, 2 and 4: a recording request is
/// one mode at one unroll setting, so it holds at most the four CD
/// machines in a group (a larger request opens further groups).
impl GroupSink for MetricsCollector {
    const GROUP_LANES: usize = 4;

    fn group<const CD: bool>(
        lanes: &[LaneSlot],
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        perfect_keys: usize,
        disambiguation: MemDisambiguation,
    ) -> Box<dyn GroupFeed<Self>> {
        let make = match lanes.len() {
            1 => boxed::<1, CD, Self>,
            2 => boxed::<2, CD, Self>,
            _ => boxed::<4, CD, Self>,
        };
        make(lanes, pcs, config, perfect_keys, disambiguation)
    }
}

/// All lane groups for one set of requested mode × unroll × machine
/// slots, driven over a chunked event stream by [`LaneScheduler::run`]
/// and finished into request-ordered results: the one lane driver of
/// the in-memory walks, recording or not, and the streamed pass.
///
/// Each mode's slots split into CD and non-CD groups of up to
/// [`GroupSink::GROUP_LANES`] lanes; larger requests simply open further
/// groups.
pub(crate) struct LaneScheduler<S = NullSink> {
    groups: Vec<Box<dyn GroupFeed<S>>>,
    total: usize,
}

impl<S: GroupSink> LaneScheduler<S> {
    /// The groups for every slot of `modes` × `unrolls` ×
    /// `config.machines`, numbered in that nesting order: mode-major,
    /// then unroll setting, then machine in request order. A mode's
    /// groups key memory under its disambiguation, and its lanes mask
    /// its value-prediction bit. `perfect_keys` sizes the last-write
    /// tables of perfect-disambiguation groups.
    pub fn new(
        pcs: &ProgramMeta,
        config: &AnalysisConfig,
        modes: &[(MemDisambiguation, ValuePrediction)],
        unrolls: &[bool],
        perfect_keys: usize,
    ) -> LaneScheduler<S> {
        let mut groups: Vec<Box<dyn GroupFeed<S>>> = Vec::new();
        let mut slot = 0;
        for &(disambiguation, value_prediction) in modes {
            let mut lanes = Vec::with_capacity(unrolls.len() * config.machines.len());
            for &unrolling in unrolls {
                for &kind in &config.machines {
                    lanes.push(LaneSlot {
                        slot,
                        kind,
                        unrolling,
                        vp_flag: vp_flag(value_prediction),
                    });
                    slot += 1;
                }
            }
            let (cd_lanes, plain_lanes): (Vec<LaneSlot>, Vec<LaneSlot>) = lanes
                .into_iter()
                .partition(|lane| lane.kind.uses_control_deps());
            for lanes in cd_lanes.chunks(S::GROUP_LANES) {
                groups.push(S::group::<true>(
                    lanes,
                    pcs,
                    config,
                    perfect_keys,
                    disambiguation,
                ));
            }
            for lanes in plain_lanes.chunks(S::GROUP_LANES) {
                groups.push(S::group::<false>(
                    lanes,
                    pcs,
                    config,
                    perfect_keys,
                    disambiguation,
                ));
            }
        }
        LaneScheduler {
            groups,
            total: slot,
        }
    }

    /// How many groups [`LaneScheduler::new`] opens for one mode's
    /// `unrolls` × `machines` slots.
    pub fn group_count(machines: &[MachineKind], unrolls: usize) -> usize {
        let cd = machines.iter().filter(|k| k.uses_control_deps()).count();
        let plain = machines.len() - cd;
        (unrolls * cd).div_ceil(S::GROUP_LANES) + (unrolls * plain).div_ceil(S::GROUP_LANES)
    }

    /// Schedules every chunk `produce` emits, in emission order, and
    /// closes the walk, returning each slot's result and sink in
    /// request-slot order — or the producer's error.
    ///
    /// When [`runs_threaded`] allows it for `threads` (`0` allows one per
    /// available core), each group walks on its own scoped thread and
    /// receives every emitted chunk whole through a channel that holds
    /// one chunk, so `produce` (on the calling thread) runs at most two
    /// chunks ahead of the slowest group. A chunk is a borrowed slice (the
    /// in-memory walk emits its whole preparation once) or a shared
    /// buffer (the streamed pass emits each prepared chunk). A group
    /// thread's panic is re-raised on the calling thread.
    ///
    /// Otherwise every group walks on the calling thread: each emitted
    /// chunk is walked across the groups in [`FEED_CHUNK`] pieces, so the
    /// stream is read from memory once.
    pub fn run<C, E>(
        mut self,
        pcs: &ProgramMeta,
        threads: usize,
        produce: impl FnOnce(&mut dyn FnMut(C)) -> Result<(), E>,
    ) -> Result<Vec<(PassResult, S)>, E>
    where
        C: Deref + Clone + Send,
        C::Target: AsRef<[EventMeta]>,
    {
        if !runs_threaded(threads, self.groups.len()) {
            produce(&mut |chunk: C| {
                for piece in (*chunk).as_ref().chunks(FEED_CHUNK) {
                    for group in &mut self.groups {
                        group.feed(pcs, piece);
                    }
                }
            })?;
            return Ok(self.finish());
        }
        std::thread::scope(|scope| {
            let mut feeds: Vec<_> = self
                .groups
                .iter_mut()
                .enumerate()
                .map(|(index, group)| {
                    let (send, chunks) = mpsc::sync_channel::<C>(1);
                    let thread = scope.spawn(move || {
                        // Thread-lifetime span: the gap between this and the
                        // group's lane.group busy time is waiting for chunks.
                        let _worker_span = clfp_metrics::trace::span("stream.worker", "stream")
                            .arg("worker", index as u64)
                            .arg("groups", 1u64);
                        for chunk in chunks {
                            group.feed(pcs, (*chunk).as_ref());
                        }
                    });
                    (send, thread)
                })
                .collect();
            let produced = produce(&mut |chunk: C| {
                // A group's channel closes early only when its thread
                // panicked.
                if let Some(closed) = feeds
                    .iter()
                    .position(|(send, _)| send.send(chunk.clone()).is_err())
                {
                    join(feeds.swap_remove(closed).1);
                }
            });
            for (send, thread) in feeds {
                drop(send);
                join(thread);
            }
            produced
        })?;
        Ok(self.finish())
    }

    /// Closes every group, returning results and sinks in request-slot
    /// order.
    fn finish(self) -> Vec<(PassResult, S)> {
        let mut out: Vec<Option<(PassResult, S)>> = (0..self.total).map(|_| None).collect();
        for group in self.groups {
            for (slot, result, sink) in group.finish() {
                out[slot] = Some((result, sink));
            }
        }
        out.into_iter()
            .map(|result| result.expect("every requested slot has a lane"))
            .collect()
    }
}

/// The threading rule of [`LaneScheduler::run`]: one thread per lane
/// group when more than one thread is allowed (`threads`, `0` for one per
/// available core) and there is more than one of the `groups` to feed.
pub(crate) fn runs_threaded(threads: usize, groups: usize) -> bool {
    let allowed = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    allowed > 1 && groups > 1
}

/// Waits for a group thread, re-raising its panic on this thread.
fn join(thread: ScopedJoinHandle<'_, ()>) {
    if let Err(panic) = thread.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Events per inline feed piece: 16 bytes of prepared event data per
/// entry (a 13-byte [`EventMeta`] padded to its 4-byte alignment) keeps
/// a 256 KiB piece L2-resident, so when the CD and non-CD groups walk it
/// back to back the second walk reads warm cache — the whole request
/// still makes a single pass over trace-sized memory.
const FEED_CHUNK: usize = 1 << 14;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{TraceMeta, EV_VP_STRIDE};
    use clfp_cfg::StaticInfo;
    use clfp_isa::assemble;
    use clfp_vm::{Vm, VmOptions};

    /// A procedure-heavy program exercising calls, recursion-free CD
    /// inheritance, loops, and memory traffic.
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

    /// One walk of `events` through a `LaneScheduler` of sink `S`, for
    /// `config`'s machines at one unroll setting under its modes.
    fn walk<S: GroupSink>(
        pcs: &ProgramMeta,
        tm: &TraceMeta,
        config: &AnalysisConfig,
        unrolling: bool,
    ) -> Vec<(PassResult, S)> {
        let mode = [(config.disambiguation, config.value_prediction)];
        let keys = tm.distinct_mem_keys as usize;
        let scheduler = LaneScheduler::<S>::new(pcs, config, &mode, &[unrolling], keys);
        let walked = scheduler.run(pcs, 0, |emit| {
            emit(&tm.events[..]);
            Ok::<(), ()>(())
        });
        walked.unwrap()
    }

    /// A recording walk schedules what a throughput walk of the same
    /// request schedules, and its metrics re-derive the pass results.
    #[test]
    fn recording_sink_does_not_perturb_results() {
        let program = assemble(SOURCE).unwrap();
        let info = StaticInfo::analyze(&program);
        let config = AnalysisConfig::quick();
        let pcs = ProgramMeta::build(&program, &info, &config);
        let mut vm = Vm::new(
            &program,
            VmOptions {
                mem_words: config.mem_words,
            },
        );
        let trace = vm.trace(config.max_instrs).unwrap();
        let tm = TraceMeta::build(&program, &info, &pcs, &config, &trace);
        for unrolling in [false, true] {
            let plain = walk::<NullSink>(&pcs, &tm, &config, unrolling);
            let observed = walk::<MetricsCollector>(&pcs, &tm, &config, unrolling);
            assert_eq!(observed.len(), config.machines.len());
            for ((&kind, (plain, NullSink)), (observed, collector)) in
                config.machines.iter().zip(plain).zip(observed)
            {
                assert_eq!(observed, plain, "{kind}");
                let metrics = collector.finish();
                // The distilled metrics re-derive the pass result exactly.
                assert_eq!(metrics.cycles, plain.cycles, "{kind}");
                assert_eq!(metrics.instrs, plain.count, "{kind}");
                assert_eq!(metrics.flow.total(), plain.count, "{kind}");
                // Unit latencies, renaming on and no fetch limit: every
                // hop adds one cycle to a chain that starts at cycle 1.
                let attribution = metrics.attribution;
                assert_eq!(attribution.chain_len, plain.cycles, "{kind}");
                assert_eq!(attribution.terminators, 1, "{kind}");
                let total: f64 = EdgeKind::ALL.iter().map(|&k| attribution.percent(k)).sum();
                if attribution.classified() > 0 {
                    assert!((total - 100.0).abs() < 1e-9, "{kind}: {total}");
                }
                // ORACLE has no control constraint of any kind.
                if kind == MachineKind::Oracle {
                    assert_eq!(metrics.flow.control_bound(), 0);
                }
                // Multiple-flow machines never pay the merge ordering.
                if kind.multiple_flows() || !kind.uses_control_deps() {
                    assert_eq!(
                        metrics.flow.by_kind[3], 0,
                        "{kind} should have no mf-merge edges"
                    );
                }
            }
        }
    }

    /// One prepared trace for the twin-build test: qsort, whose loads,
    /// stores, calls, mispredictions and value-predictor hits all occur.
    struct TwinInput {
        pcs: ProgramMeta,
        tm: TraceMeta,
    }

    /// Feeds `input` in uneven chunks through twin groups of sink `S`:
    /// one by the portable body, one by `feed`, which on this host
    /// dispatches to the AVX-512 wrapper. Their results, and the whole
    /// state of their sinks, must be equal.
    fn assert_twins_agree<
        const L: usize,
        const CD: bool,
        const RENAME: bool,
        const FETCH: bool,
        S: GroupSink + std::fmt::Debug,
    >(
        input: &TwinInput,
        lanes: &[LaneSlot],
        config: &AnalysisConfig,
        disambiguation: MemDisambiguation,
    ) {
        assert!(
            runs_avx512::<L>(),
            "feed must dispatch width {L} to AVX-512"
        );
        assert_eq!(config.rename, RENAME);
        assert_eq!(config.fetch_bandwidth.is_some(), FETCH);
        let group = || {
            let keys = input.tm.distinct_mem_keys as usize;
            let args = (lanes, &input.pcs, config, keys, disambiguation);
            GroupCursor::<L, CD, RENAME, FETCH, S>::new(args)
        };
        let (mut portable, mut avx512) = (group(), group());
        for chunk in input.tm.events.chunks(4093) {
            portable.feed_events(&input.pcs, chunk);
            avx512.feed(&input.pcs, chunk);
        }
        let outcome = |group: GroupCursor<L, CD, RENAME, FETCH, S>| -> Vec<_> {
            let finished = Box::new(group).finish().into_iter();
            finished
                .map(|(slot, pass, sink)| (slot, pass, format!("{sink:?}")))
                .collect()
        };
        let (portable, avx512) = (outcome(portable), outcome(avx512));
        assert_eq!(portable.len(), lanes.len());
        assert_eq!(
            portable,
            avx512,
            "L={L} CD={CD} rename={RENAME} fetch={FETCH} {disambiguation:?} recording={}",
            S::ENABLED
        );
    }

    /// Every twin configuration of sink `S` at width `L` over the CD
    /// lanes `cd` and the non-CD lanes `plain` (each cut to `L`): under
    /// the default configuration and under renaming off with a fetch
    /// bandwidth of 4, for every disambiguation mode.
    fn twins_at_width<const L: usize, S: GroupSink + std::fmt::Debug>(
        input: &TwinInput,
        config: &AnalysisConfig,
        cd: &[MachineKind],
        plain: &[MachineKind],
    ) {
        let stressed = AnalysisConfig {
            rename: false,
            fetch_bandwidth: Some(4),
            ..config.clone()
        };
        // Alternate unroll settings and value-prediction modes across
        // lanes; a pool shorter than `L` leaves padding lanes.
        let lanes = |kinds: &[MachineKind]| -> Vec<LaneSlot> {
            kinds
                .iter()
                .take(L)
                .enumerate()
                .map(|(slot, &kind)| LaneSlot {
                    slot,
                    kind,
                    unrolling: slot % 2 == 0,
                    vp_flag: vp_flag(ValuePrediction::ALL[slot % 4]),
                })
                .collect()
        };
        let (cd, plain) = (lanes(cd), lanes(plain));
        for mode in MemDisambiguation::ALL {
            assert_twins_agree::<L, true, true, false, S>(input, &cd, config, mode);
            assert_twins_agree::<L, true, false, true, S>(input, &cd, &stressed, mode);
            assert_twins_agree::<L, false, true, false, S>(input, &plain, config, mode);
            assert_twins_agree::<L, false, false, true, S>(input, &plain, &stressed, mode);
        }
    }

    /// A lane group that schedules nothing and panics on its second
    /// chunk, when `panics` is set.
    struct FakeGroup {
        panics: bool,
        chunks: usize,
    }

    impl GroupFeed for FakeGroup {
        fn feed(&mut self, _: &ProgramMeta, _: &[EventMeta]) {
            self.chunks += 1;
            if self.panics && self.chunks == 2 {
                panic!("fake group: second chunk");
            }
        }

        fn finish(self: Box<Self>) -> Vec<(usize, PassResult, NullSink)> {
            Vec::new()
        }
    }

    /// A group's panic reaches the caller of `LaneScheduler::run` with its
    /// own payload, whether the groups walk inline or on threads of their
    /// own, and whether the producer emits borrowed slices or shared
    /// buffers.
    #[test]
    fn run_reraises_a_group_panic_on_the_calling_thread() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        let pcs = ProgramMeta {
            pcs: Vec::new(),
            num_classes: 0,
        };
        let event = EventMeta {
            pc: 0,
            mem_key: 0,
            cd: CD_NONE,
            flags: 0,
        };
        let events = vec![event; 3];
        let shared = Arc::new(events.clone());
        let scheduler = || LaneScheduler::<NullSink> {
            groups: vec![
                Box::new(FakeGroup {
                    panics: true,
                    chunks: 0,
                }),
                Box::new(FakeGroup {
                    panics: false,
                    chunks: 0,
                }),
            ],
            total: 0,
        };
        for threads in [1, 2] {
            assert_eq!(runs_threaded(threads, 2), threads > 1);
            let borrowed = catch_unwind(AssertUnwindSafe(|| {
                scheduler().run(&pcs, threads, |emit| {
                    (0..3).for_each(|_| emit(&events[..]));
                    Ok::<(), ()>(())
                })
            }));
            let arced = catch_unwind(AssertUnwindSafe(|| {
                scheduler().run(&pcs, threads, |emit| {
                    (0..3).for_each(|_| emit(Arc::clone(&shared)));
                    Ok::<(), ()>(())
                })
            }));
            for (producer, walked) in [("borrowed", borrowed), ("arc", arced)] {
                let payload = walked.expect_err("the group's panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"fake group: second chunk"),
                    "threads={threads} {producer}"
                );
            }
        }
    }

    /// The AVX-512 and portable builds of the kernel are one source
    /// compiled twice; this pins them against each other, since on an
    /// AVX-512 host every other test exercises only the AVX-512 build.
    #[test]
    fn avx512_build_matches_portable_build() {
        if !avx512_available() {
            eprintln!("skipped: this CPU lacks avx512f/avx512vl; only the portable build runs");
            return;
        }
        let program = clfp_workloads::by_name("qsort").unwrap().compile().unwrap();
        let info = StaticInfo::analyze(&program);
        let config = AnalysisConfig::quick().with_max_instrs(40_000);
        let pcs = ProgramMeta::build(&program, &info, &config);
        let mut vm = Vm::new(
            &program,
            VmOptions {
                mem_words: config.mem_words,
            },
        );
        let trace = vm.trace(config.max_instrs).unwrap();
        let tm = TraceMeta::build(&program, &info, &pcs, &config, &trace);
        assert!(tm.events.iter().any(|e| e.flags & EV_VP_STRIDE != 0));
        let input = TwinInput { pcs, tm };
        use MachineKind::*;
        // Throughput groups: a 6-machine pool fills a width-8 group with
        // two padding lanes.
        let cd = [Cd, CdMf, SpCd, SpCdMf, Cd, CdMf, SpCd, SpCdMf];
        let plain = [Base, Sp, Oracle, Base, Sp, Oracle];
        twins_at_width::<2, NullSink>(&input, &config, &cd, &plain);
        twins_at_width::<4, NullSink>(&input, &config, &cd, &plain);
        twins_at_width::<6, NullSink>(&input, &config, &cd, &plain);
        twins_at_width::<8, NullSink>(&input, &config, &cd, &plain);
        // Recording groups at every width with an AVX-512 build that a
        // recording request opens: the seven machines at one unroll
        // setting are four CD lanes and three non-CD lanes.
        let (cd, plain) = ([Cd, CdMf, SpCd, SpCdMf], [Base, Sp, Oracle]);
        twins_at_width::<2, MetricsCollector>(&input, &config, &cd, &plain);
        twins_at_width::<4, MetricsCollector>(&input, &config, &cd, &plain);
    }
}
