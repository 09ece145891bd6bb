//! Observability layer for the clfp limit study.
//!
//! The machine passes in `clfp-limits` answer *how much* parallelism each
//! abstract machine finds; this crate answers *why*. It provides:
//!
//! * [`MetricsSink`] — a zero-cost instrumentation hook for the
//!   scheduling kernel. The trait carries a `const ENABLED` flag so that the
//!   [`NullSink`] path monomorphizes to exactly the uninstrumented hot
//!   loop (every `if S::ENABLED` block is statically eliminated).
//! * [`MetricsCollector`] / [`MachineMetrics`] — the enabled sink, one
//!   per machine. It folds each scheduled instruction as it arrives and
//!   keeps nothing per event: per-cycle issue counts for the
//!   cycle-occupancy histogram ([`OccupancyHistogram`]), the whole-run
//!   flow-break counters ([`FlowCounters`]) and the [`HopSummary`] of
//!   the chain head, which is the critical-path attribution
//!   ([`CriticalPathAttribution`]).
//! * [`RunManifest`] — provenance for generated artifacts: git describe,
//!   a hash of the analysis configuration, trace cap, unroll setting,
//!   wall-clock timestamp and host parallelism, embedded as a comment
//!   header in every `results/*.md` file and as a field in the JSON
//!   artifacts so results can be traced back to the run that produced them.
//!
//! Binding edges (the dependence that determined an instruction's issue
//! cycle) are classified with [`EdgeKind`]: register data dependence,
//! memory data dependence, the machine's own control constraint, or the
//! single-flow merge ordering that only exists on non-MF machines. See
//! `docs/OBSERVABILITY.md` for the full semantics and a worked
//! read-through of an attribution table.
//!
//! The [`trace`] module adds the wall-clock counterpart: span/counter
//! recording over the whole pipeline with Chrome trace-event / Perfetto
//! export (`regen --trace`), off by default and zero-cost when off. The
//! [`json`] module is the workspace's one JSON writer: every JSON file
//! `regen` and `clfp` write is built as a [`json::Value`] and rendered by
//! [`json::render`].

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

pub mod json;
pub mod trace;

use json::Value;

/// Classification of the dependence edge that bound a dynamic
/// instruction's issue cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// True (or, with renaming off, anti/output) register dependence.
    RegData,
    /// Memory dependence through the disambiguated last-write table.
    MemData,
    /// The machine's own control constraint: BASE waits on the last
    /// preceding conditional branch, CD machines on the resolved
    /// control-dependence source, SP machines on the last misprediction.
    Control,
    /// The extra branch-ordering constraint that exists only on
    /// single-flow machines: CD serializes all branches, SP-CD serializes
    /// mispredicted branches. Vanishes on the -MF machines — this edge is
    /// exactly what "multiple flows of control" removes.
    MfMerge,
}

impl EdgeKind {
    /// All kinds, in report order.
    pub const ALL: [EdgeKind; 4] = [
        EdgeKind::RegData,
        EdgeKind::MemData,
        EdgeKind::Control,
        EdgeKind::MfMerge,
    ];

    /// Short human-readable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::RegData => "reg-data",
            EdgeKind::MemData => "mem-data",
            EdgeKind::Control => "control",
            EdgeKind::MfMerge => "mf-merge",
        }
    }

    /// Position in [`EdgeKind::ALL`] order.
    const fn index(self) -> usize {
        match self {
            EdgeKind::RegData => 0,
            EdgeKind::MemData => 1,
            EdgeKind::Control => 2,
            EdgeKind::MfMerge => 3,
        }
    }
}

/// The top bit of a [`HopSummary`]'s last word: the chain starts at a
/// head.
const HEAD_FLAG: u32 = 1 << 31;

/// The hop summary of a dependence chain: how many hops of each
/// [`EdgeKind`] lead back from its last instruction to where it starts,
/// and whether it starts at a *head*, an instruction nothing bound. A
/// chain that starts at an anti-dependence hop (renaming off) has no head:
/// the binding reader is not tracked, so the hop has no producer.
///
/// The scheduling kernel keeps one beside every time it stores, the
/// summary of the chain that produced that time, and carries it forward:
/// an instruction's summary is its binding producer's plus one hop of
/// the binding edge's kind, so the critical path's attribution is the
/// summary of the instruction that completes last.
///
/// 16 bytes: four `u32` hop counts in [`EdgeKind::ALL`] order, the head
/// flag in the top bit of the last. A chain has at most one hop per
/// scheduled event, so the fields are exact for runs of fewer than 2³¹
/// scheduled events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopSummary([u32; 4]);

impl HopSummary {
    /// No chain: the summary beside a time nothing has written, and what
    /// an anti-dependence hop, which has no producer, extends.
    pub const EMPTY: HopSummary = HopSummary([0; 4]);

    /// A chain of one head: an instruction ready at cycle 0 or bound only
    /// by the fetch limit.
    pub const HEAD: HopSummary = HopSummary([0, 0, 0, HEAD_FLAG]);

    /// One hop of `kind` with no head.
    pub const fn hop(kind: EdgeKind) -> HopSummary {
        let mut hops = [0; 4];
        hops[kind.index()] = 1;
        HopSummary(hops)
    }

    /// The critical-path attribution of a chain with this summary.
    pub fn attribution(self) -> CriticalPathAttribution {
        let [reg, mem, control, last] = self.0;
        let counts = [reg, mem, control, last & !HEAD_FLAG].map(u64::from);
        let terminators = u64::from(last >> 31);
        CriticalPathAttribution {
            counts,
            terminators,
            chain_len: counts.iter().sum::<u64>() + terminators,
        }
    }
}

/// Chain concatenation: `self` continued by `rest`, a chain without a
/// head of its own (such as [`HopSummary::hop`]).
impl std::ops::Add for HopSummary {
    type Output = HopSummary;

    #[inline(always)]
    fn add(self, rest: HopSummary) -> HopSummary {
        let (a, b) = (self.0, rest.0);
        HopSummary([
            a[0].wrapping_add(b[0]),
            a[1].wrapping_add(b[1]),
            a[2].wrapping_add(b[2]),
            a[3].wrapping_add(b[3]),
        ])
    }
}

/// Instrumentation hook for the machine passes of the scheduling kernel.
///
/// The scheduler is generic over `S: MetricsSink` and guards every
/// metrics-only computation with `if S::ENABLED { ... }`. Because
/// `ENABLED` is an associated *constant*, the [`NullSink`] instantiation
/// compiles to the bare hot loop — the instrumented and uninstrumented
/// pipelines are the same source, not two copies that can drift.
pub trait MetricsSink {
    /// Statically known on/off switch; `false` removes all metrics code.
    const ENABLED: bool;

    /// Called once per scheduled instruction of one machine, in trace
    /// order; instructions the machine ignores (deleted by the
    /// inline/unroll masks) are not reported. `exec` is the issue cycle
    /// (≥ 1) and `done` the completion cycle; `edge` is the kind of the
    /// binding edge, `None` for a head (ready at cycle 0 or bound by the
    /// fetch-width term); `chain` is the [`HopSummary`] of the longest
    /// dependence chain that ends at the instruction.
    fn on_schedule(&mut self, exec: u64, done: u64, edge: Option<EdgeKind>, chain: HopSummary);
}

/// The metrics-off sink: every hook is a statically eliminated no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_schedule(&mut self, _exec: u64, _done: u64, _edge: Option<EdgeKind>, _chain: HopSummary) {
    }
}

/// The metrics-on sink for one machine pass.
///
/// Keeps nothing per event: it folds each scheduled instruction as it
/// arrives into per-cycle issue counts, the instruction and flow-break
/// counters, the critical-path length and the hop summary of the chain
/// head. [`finish`](MetricsCollector::finish) buckets the per-cycle
/// counts into [`MachineMetrics`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    /// Instructions issued per cycle, indexed by issue cycle (index 0 stays
    /// 0). `u32` suffices: a run holds fewer than `u32::MAX` events.
    per_cycle: Vec<u32>,
    instrs: u64,
    /// Latest completion cycle so far.
    cycles: u64,
    flow: FlowCounters,
    /// The chain of the last scheduled instruction to complete at
    /// `cycles`: the critical path.
    head: HopSummary,
}

impl MetricsCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Distill the recorded schedule into summary metrics.
    pub fn finish(self) -> MachineMetrics {
        MachineMetrics {
            instrs: self.instrs,
            cycles: self.cycles,
            occupancy: OccupancyHistogram::from_per_cycle(&self.per_cycle, self.cycles),
            attribution: self.head.attribution(),
            flow: self.flow,
        }
    }
}

impl MetricsSink for MetricsCollector {
    const ENABLED: bool = true;

    #[inline]
    fn on_schedule(&mut self, exec: u64, done: u64, edge: Option<EdgeKind>, chain: HopSummary) {
        debug_assert!(
            exec >= 1,
            "scheduled instructions issue at cycle 1 or later"
        );
        let cycle = exec as usize;
        if cycle >= self.per_cycle.len() {
            self.per_cycle.resize(cycle + 1, 0);
        }
        self.per_cycle[cycle] += 1;
        self.instrs += 1;
        match edge {
            Some(kind) => self.flow.by_kind[kind.index()] += 1,
            None => self.flow.unconstrained += 1,
        }
        // Later wins a tie, mirroring the scheduler's tie-breaking.
        if done >= self.cycles {
            self.cycles = done;
            self.head = chain;
        }
    }
}

/// Everything one machine pass learned about one workload.
#[derive(Clone, Debug)]
pub struct MachineMetrics {
    /// Scheduled (non-ignored) dynamic instructions.
    pub instrs: u64,
    /// Critical-path length in cycles (max completion time).
    pub cycles: u64,
    pub occupancy: OccupancyHistogram,
    pub attribution: CriticalPathAttribution,
    pub flow: FlowCounters,
}

impl MachineMetrics {
    /// Instructions per cycle over the whole run — the paper's
    /// "parallelism" metric, recomputed from the recorded schedule.
    pub fn parallelism(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// One geometric bucket of the cycle-occupancy histogram: cycles that
/// issued between `width_low` and `2 * width_low - 1` instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OccupancyBucket {
    pub width_low: u64,
    /// Number of cycles with an occupancy in this bucket.
    pub cycles: u64,
    /// Instructions issued across those cycles.
    pub instrs: u64,
}

/// How many instructions issue per cycle: the shape behind the mean.
///
/// A parallelism of 100 can be a steady 100-wide stream or millisecond
/// bursts of thousands separated by serial crawls; the histogram (and
/// [`fraction_in_wide_cycles`](OccupancyHistogram::fraction_in_wide_cycles))
/// distinguishes the two.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    /// Geometric buckets by occupancy width, ascending, only non-empty ones.
    pub buckets: Vec<OccupancyBucket>,
    /// Critical-path cycles (max completion time).
    pub cycles: u64,
    /// Cycles in which at least one instruction issued.
    pub busy_cycles: u64,
    /// Total instructions issued.
    pub instrs: u64,
    /// Widest single cycle.
    pub peak: u64,
}

impl OccupancyHistogram {
    /// Build from per-event issue cycles (`exec == 0` marks ignored events)
    /// and completion cycles.
    pub fn from_exec_cycles(exec: &[u64], done: &[u64]) -> Self {
        let cycles = done.iter().copied().max().unwrap_or(0);
        let max_exec = exec.iter().copied().max().unwrap_or(0);
        let mut per_cycle = vec![0u32; max_exec as usize + 1];
        for &e in exec.iter().filter(|&&e| e != 0) {
            per_cycle[e as usize] += 1;
        }
        Self::from_per_cycle(&per_cycle, cycles)
    }

    /// Bucket per-cycle issue counts (`per_cycle[c]` instructions issued
    /// at cycle `c`) over a run of `cycles` critical-path cycles.
    fn from_per_cycle(per_cycle: &[u32], cycles: u64) -> Self {
        // (cycles, instrs) per bucket, indexed by log2 of the bucket's width.
        let mut by_log = [(0u64, 0u64); u32::BITS as usize];
        let mut peak = 0;
        for &width in per_cycle.iter().filter(|&&w| w != 0) {
            let bucket = &mut by_log[width.ilog2() as usize];
            bucket.0 += 1;
            bucket.1 += u64::from(width);
            peak = peak.max(width);
        }
        OccupancyHistogram {
            buckets: by_log
                .iter()
                .enumerate()
                .filter(|(_, &(cycles, _))| cycles != 0)
                .map(|(log, &(cycles, instrs))| OccupancyBucket {
                    width_low: 1 << log,
                    cycles,
                    instrs,
                })
                .collect(),
            cycles,
            busy_cycles: by_log.iter().map(|b| b.0).sum(),
            instrs: by_log.iter().map(|b| b.1).sum(),
            peak: u64::from(peak),
        }
    }

    /// Mean occupancy over critical-path cycles = parallelism.
    pub fn mean(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Fraction of all instructions issued in cycles at least `width` wide.
    pub fn fraction_in_wide_cycles(&self, width: u64) -> f64 {
        if self.instrs == 0 {
            return 0.0;
        }
        let wide: u64 = self
            .buckets
            .iter()
            // A geometric bucket straddling `width` undercounts slightly;
            // callers pass power-of-two thresholds where this is exact.
            .filter(|b| b.width_low >= width)
            .map(|b| b.instrs)
            .sum();
        wide as f64 / self.instrs as f64
    }
}

/// Edge-kind breakdown of the critical path: for each instruction on the
/// longest dependence chain, which kind of edge bound it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathAttribution {
    /// Hops per [`EdgeKind`], indexed in [`EdgeKind::ALL`] order.
    pub counts: [u64; 4],
    /// Chain heads: instructions ready at cycle 0 or bound only by the
    /// fetch-width term (which has no single producer event).
    pub terminators: u64,
    /// Instructions on the reconstructed chain.
    pub chain_len: u64,
}

impl CriticalPathAttribution {
    /// Total classified hops (excludes chain heads).
    pub fn classified(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentage of classified critical-path hops bound by `kind`.
    pub fn percent(&self, kind: EdgeKind) -> f64 {
        let total = self.classified();
        if total == 0 {
            0.0
        } else {
            self.counts[kind.index()] as f64 * 100.0 / total as f64
        }
    }
}

/// Whole-run binding-edge counters: how many instructions were bound by
/// each kind of dependence (not just those on the critical path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Instructions whose binding edge had each [`EdgeKind`], indexed in
    /// [`EdgeKind::ALL`] order.
    pub by_kind: [u64; 4],
    /// Instructions ready at cycle 0 or bound by fetch bandwidth.
    pub unconstrained: u64,
}

impl FlowCounters {
    /// Instructions stalled by a control-flow constraint of either kind —
    /// the run's "flow break" count.
    pub fn control_bound(&self) -> u64 {
        self.by_kind[EdgeKind::Control.index()] + self.by_kind[EdgeKind::MfMerge.index()]
    }

    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum::<u64>() + self.unconstrained
    }
}

/// 64-bit FNV-1a over a byte string; stable across runs and platforms.
/// Used to fingerprint the analysis configuration in [`RunManifest`].
pub fn fnv1a64(data: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Provenance record for a generated artifact: enough to tell whether two
/// results files were produced under the same configuration, by which
/// build, and when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Generator crate version (`CARGO_PKG_VERSION` of `clfp-metrics`;
    /// the workspace shares one version).
    pub version: String,
    /// `git describe --always --dirty`, or `"unknown"` outside a checkout.
    pub git: String,
    /// FNV-1a hash (hex) of the canonical analysis-config fingerprint.
    pub config_hash: String,
    /// Trace cap in dynamic instructions.
    pub max_instrs: u64,
    /// Whether perfect unrolling was enabled.
    pub unrolling: bool,
    /// Wall-clock at generation, UTC, `YYYY-MM-DDTHH:MM:SSZ`.
    pub generated_utc: String,
    /// Same instant as seconds since the Unix epoch.
    pub unix_secs: u64,
    /// `std::thread::available_parallelism` on the generating host.
    pub host_threads: usize,
    /// Worker-pool size the suite actually fanned out over (the host
    /// parallelism capped at the workload count), when the generator
    /// recorded it ([`RunManifest::with_pool_threads`]).
    pub pool_threads: Option<usize>,
    /// Trace-cache state of the run — `"off"`, `"cold"`, or `"warm"` —
    /// when the generator recorded it ([`RunManifest::with_cache`]).
    pub cache: Option<String>,
    /// Build of the scheduling kernel the multi-lane walks ran —
    /// `"avx512"` or `"portable"` (`clfp_limits::kernel_isa`) — when the
    /// generator recorded it ([`RunManifest::with_kernel`]). Walls
    /// measured under the two builds are not comparable.
    pub kernel: Option<String>,
}

impl RunManifest {
    /// Capture the current environment plus the given config fingerprint
    /// (see `AnalysisConfig::fingerprint` in `clfp-limits`).
    pub fn capture(config_fingerprint: &str, max_instrs: u64, unrolling: bool) -> Self {
        let unix_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunManifest {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git: git_describe(),
            config_hash: format!("{:016x}", fnv1a64(config_fingerprint)),
            max_instrs,
            unrolling,
            generated_utc: format_utc(unix_secs),
            unix_secs,
            host_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            pool_threads: None,
            cache: None,
            kernel: None,
        }
    }

    /// Records the worker-pool size the suite actually used.
    #[must_use]
    pub fn with_pool_threads(mut self, pool_threads: usize) -> Self {
        self.pool_threads = Some(pool_threads);
        self
    }

    /// Records the trace-cache state of the run (`"off"`, `"cold"`, or
    /// `"warm"`).
    #[must_use]
    pub fn with_cache(mut self, cache: &str) -> Self {
        self.cache = Some(cache.to_string());
        self
    }

    /// Records which build of the scheduling kernel ran (`"avx512"` or
    /// `"portable"`).
    #[must_use]
    pub fn with_kernel(mut self, kernel: &str) -> Self {
        self.kernel = Some(kernel.to_string());
        self
    }

    /// The HTML-comment header prepended to every `results/*.md` artifact.
    /// Invisible in rendered markdown; greppable in the raw file.
    pub fn to_markdown_header(&self) -> String {
        let mut extra = String::new();
        if let Some(pool) = self.pool_threads {
            extra.push_str(&format!("  pool_threads: {pool}\n"));
        }
        if let Some(cache) = &self.cache {
            extra.push_str(&format!("  cache: {cache}\n"));
        }
        if let Some(kernel) = &self.kernel {
            extra.push_str(&format!("  kernel: {kernel}\n"));
        }
        format!(
            "<!-- clfp-manifest v1\n  generator: clfp {} (git {})\n  config_hash: {}\n  max_instrs: {}  unrolling: {}\n  generated: {} (unix {})\n  host_threads: {}\n{extra}-->\n",
            self.version,
            self.git,
            self.config_hash,
            self.max_instrs,
            if self.unrolling { "on" } else { "off" },
            self.generated_utc,
            self.unix_secs,
            self.host_threads,
        )
    }

    /// The manifest as a JSON object, the `"manifest"` member of every
    /// JSON record.
    pub fn to_json(&self) -> Value {
        let mut json = Value::object()
            .with("version", self.version.as_str())
            .with("git", self.git.as_str())
            .with("config_hash", self.config_hash.as_str())
            .with("max_instrs", self.max_instrs)
            .with("unrolling", self.unrolling)
            .with("generated_utc", self.generated_utc.as_str())
            .with("unix_secs", self.unix_secs)
            .with("host_threads", self.host_threads);
        if let Some(pool) = self.pool_threads {
            json = json.with("pool_threads", pool);
        }
        if let Some(cache) = &self.cache {
            json = json.with("cache", cache.as_str());
        }
        if let Some(kernel) = &self.kernel {
            json = json.with("kernel", kernel.as_str());
        }
        json
    }

    /// Extract the `config_hash` from a file that carries a
    /// `clfp-manifest` — a markdown header or a JSON `"manifest"` object,
    /// wherever its line breaks fall. Returns `None` for pre-manifest
    /// files, which callers treat as "unknown provenance, refuse to
    /// overwrite without --force".
    pub fn config_hash_of(contents: &str) -> Option<String> {
        let (_, rest) = contents.split_once("config_hash")?;
        let value = rest
            .trim_start_matches('"')
            .trim_start()
            .strip_prefix(':')?
            .trim_start()
            .trim_start_matches('"');
        let hash: String = value
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        (!hash.is_empty()).then_some(hash)
    }
}

fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Unix seconds → `YYYY-MM-DDTHH:MM:SSZ` (proleptic Gregorian, UTC).
fn format_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs_of_day = unix_secs % 86_400;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60
    )
}

/// Render a proportional ASCII bar of at most `width` characters.
/// Shared by the profiling examples so they don't each hand-roll one.
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.clamp(1, width))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collector fed `schedule`: per scheduled instruction its issue
    /// and completion cycles, binding-edge kind and chain summary.
    fn collect(schedule: &[(u64, u64, Option<EdgeKind>, HopSummary)]) -> MetricsCollector {
        let mut sink = MetricsCollector::new();
        for &(exec, done, edge, chain) in schedule {
            sink.on_schedule(exec, done, edge, chain);
        }
        sink
    }

    #[test]
    fn occupancy_histogram_buckets_by_power_of_two() {
        // Cycle 1: three instrs, one of latency 4 that completes last, at
        // cycle 4; cycle 3: one instr. Occupancy counts issue cycles,
        // while the run lasts until the last completion.
        let head = HopSummary::HEAD;
        let schedule = [
            (1, 1, None, head),
            (1, 1, None, head),
            (1, 4, None, head),
            (3, 3, None, head),
        ];
        let m = collect(&schedule).finish();
        assert_eq!(m.instrs, 4);
        assert_eq!(m.cycles, 4);
        assert_eq!(m.occupancy.cycles, 4);
        assert_eq!(m.occupancy.instrs, 4);
        assert_eq!(m.occupancy.peak, 3);
        assert_eq!(m.occupancy.busy_cycles, 2);
        // Width 3 lands in the [2,4) bucket, width 1 in [1,2).
        assert_eq!(
            m.occupancy.buckets,
            vec![
                OccupancyBucket {
                    width_low: 1,
                    cycles: 1,
                    instrs: 1
                },
                OccupancyBucket {
                    width_low: 2,
                    cycles: 1,
                    instrs: 3
                },
            ]
        );
        assert!((m.occupancy.mean() - 1.0).abs() < 1e-12);
        assert!((m.occupancy.fraction_in_wide_cycles(2) - 0.75).abs() < 1e-12);
        // The per-event fold agrees with the histogram built from whole
        // per-event cycle arrays, where an ignored event reads 0.
        let exec = [1, 1, 1, 3, 0];
        let done = [1, 1, 4, 3, 0];
        assert_eq!(
            m.occupancy,
            OccupancyHistogram::from_exec_cycles(&exec, &done)
        );
    }

    #[test]
    fn hop_summaries_carry_the_chain_forward() {
        use EdgeKind::*;
        // Chain: 3 <-control- 2 <-reg- 1 <-mem- 0 (head, no edge).
        let c0 = HopSummary::HEAD;
        let c1 = c0 + HopSummary::hop(MemData);
        let c2 = c1 + HopSummary::hop(RegData);
        let c3 = c2 + HopSummary::hop(Control);
        let sink = collect(&[
            (1, 1, None, c0),
            (2, 2, Some(MemData), c1),
            (3, 3, Some(RegData), c2),
            (4, 4, Some(Control), c3),
            (1, 1, None, HopSummary::HEAD), // off-chain
        ]);
        let attr = sink.finish().attribution;
        assert_eq!(attr.chain_len, 4);
        assert_eq!(attr.terminators, 1);
        assert_eq!(attr.counts, [1, 1, 1, 0]);
        let total: f64 = EdgeKind::ALL.iter().map(|&k| attr.percent(k)).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(std::mem::size_of::<HopSummary>(), 16);
    }

    #[test]
    fn critical_path_tie_goes_to_the_later_finisher() {
        use EdgeKind::*;
        // Events 1 and 2 both complete at cycle 3 (2 has latency 2); the
        // later one heads the chain, as in the scheduler's max-fold.
        let head = HopSummary::HEAD;
        let m = collect(&[
            (1, 1, None, head),
            (3, 3, Some(RegData), head + HopSummary::hop(RegData)),
            (2, 3, Some(MemData), head + HopSummary::hop(MemData)),
            (1, 1, None, head),
        ])
        .finish();
        assert_eq!(m.cycles, 3);
        assert_eq!(m.attribution.chain_len, 2);
        assert_eq!(m.attribution.counts, [0, 1, 0, 0]);
        assert_eq!(m.attribution.terminators, 1);
    }

    #[test]
    fn empty_schedule_records_nothing() {
        let m = collect(&[]).finish();
        assert_eq!((m.instrs, m.cycles), (0, 0));
        assert!(m.occupancy.buckets.is_empty());
        assert_eq!((m.occupancy.busy_cycles, m.occupancy.peak), (0, 0));
        assert_eq!(m.attribution, CriticalPathAttribution::default());
        assert_eq!(m.flow.total(), 0);
        assert_eq!(m.parallelism(), 0.0);
    }

    #[test]
    fn anti_dependence_hop_starts_a_chain_without_a_head() {
        use EdgeKind::*;
        let anti = HopSummary::EMPTY + HopSummary::hop(RegData);
        let sink = collect(&[(1, 1, None, HopSummary::HEAD), (2, 2, Some(RegData), anti)]);
        let attr = sink.finish().attribution;
        assert_eq!(attr.chain_len, 1);
        assert_eq!(attr.counts, [1, 0, 0, 0]);
        assert_eq!(attr.terminators, 0);
    }

    #[test]
    fn flow_counters_cover_all_scheduled_instructions() {
        use EdgeKind::*;
        let head = HopSummary::HEAD;
        let mf = head + HopSummary::hop(MfMerge);
        let sink = collect(&[
            (1, 1, None, head),
            (2, 2, Some(MfMerge), mf),
            (2, 2, Some(MfMerge), mf),
            (3, 3, Some(MemData), mf + HopSummary::hop(MemData)),
        ]);
        let m = sink.finish();
        assert_eq!(m.flow.unconstrained, 1);
        assert_eq!(m.flow.by_kind, [0, 1, 0, 2]);
        assert_eq!(m.flow.control_bound(), 2);
        assert_eq!(m.flow.total(), m.instrs);
    }

    #[test]
    fn fnv1a64_is_stable() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64("config a"), fnv1a64("config b"));
    }

    #[test]
    fn manifest_header_roundtrips_config_hash() {
        let manifest = RunManifest {
            version: "0.1.0".into(),
            git: "abc1234-dirty".into(),
            config_hash: format!("{:016x}", fnv1a64("fingerprint")),
            max_instrs: 2_000_000,
            unrolling: true,
            generated_utc: format_utc(1_754_438_400),
            unix_secs: 1_754_438_400,
            host_threads: 1,
            pool_threads: None,
            cache: None,
            kernel: None,
        };
        let header = manifest.to_markdown_header();
        assert!(header.starts_with("<!-- clfp-manifest v1\n"));
        assert!(header.ends_with("-->\n"));
        assert_eq!(
            RunManifest::config_hash_of(&header).as_deref(),
            Some(manifest.config_hash.as_str())
        );
        let json = json::render(&manifest.to_json());
        assert_eq!(
            RunManifest::config_hash_of(&json).as_deref(),
            Some(manifest.config_hash.as_str())
        );
        assert!(json.contains("\"max_instrs\": 2000000"));
        assert_eq!(RunManifest::config_hash_of("# plain results file"), None);

        assert!(!header.contains("kernel"));
        let stamped = manifest
            .with_pool_threads(8)
            .with_cache("warm")
            .with_kernel("avx512");
        let header = stamped.to_markdown_header();
        assert!(header.contains("pool_threads: 8"));
        assert!(header.contains("cache: warm"));
        assert!(header.contains("kernel: avx512"));
        assert!(header.ends_with("-->\n"));
        let json = json::render(&stamped.to_json());
        assert!(json.contains("\"pool_threads\": 8"));
        assert!(json.contains("\"cache\": \"warm\""));
        assert!(json.contains("\"kernel\": \"avx512\""));
        assert_eq!(
            RunManifest::config_hash_of(&json).as_deref(),
            Some(stamped.config_hash.as_str())
        );
    }

    #[test]
    fn config_hash_is_found_wherever_the_manifest_breaks_lines() {
        let hash = Some("8a2727fd126b3ef5");
        // A record's one-line manifest member.
        let one_line = r#"  "manifest": {"version": "0.1.0", "config_hash": "8a2727fd126b3ef5"},"#;
        assert_eq!(RunManifest::config_hash_of(one_line).as_deref(), hash);
        // Records written before the one JSON writer: one manifest member
        // per line.
        let one_per_line = r#"  "manifest": {
    "version": "0.1.0",
    "config_hash": "8a2727fd126b3ef5",
    "max_instrs": 2000000
  },"#;
        assert_eq!(RunManifest::config_hash_of(one_per_line).as_deref(), hash);
        assert_eq!(
            RunManifest::config_hash_of("config_hash without a value"),
            None
        );
        assert_eq!(RunManifest::config_hash_of("\"config_hash\": \"\""), None);
    }

    #[test]
    fn utc_formatting_handles_known_instants() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(951_826_562), "2000-02-29T12:16:02Z");
        assert_eq!(format_utc(1_754_438_400), "2025-08-06T00:00:00Z");
    }

    #[test]
    fn ascii_bar_is_proportional_and_clamped() {
        assert_eq!(ascii_bar(0.0, 10.0, 40), "");
        assert_eq!(ascii_bar(10.0, 10.0, 4), "####");
        assert_eq!(ascii_bar(0.01, 10.0, 40), "#");
        assert_eq!(ascii_bar(5.0, 10.0, 40).len(), 20);
    }
}
