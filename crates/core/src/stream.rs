//! Two-pass streaming analysis over a [`TraceSource`]: the one analysis
//! pipeline behind [`Analyzer::run`], `clfp analyze` and the suites that
//! walk a trace once.
//!
//! Materializing the whole trace (16 bytes/event) plus per-event
//! metadata (a 16-byte `EventMeta`, 13 bytes of fields padded; the
//! ignore flags are per pc) before any machine runs costs about 320 MB
//! per 10M instructions. The paper measured 100M-instruction traces.
//! This module reaches that scale with O(chunk) trace memory by
//! exploiting the VM's determinism:
//!
//! * **Pass 1** streams the execution once through [`Pass1`] to build
//!   what the preparation walk needs *ahead of* the events: the
//!   branch-outcome profile (the paper's profile predictor is trained on
//!   the measured run itself) and the distinct memory-key count that
//!   sizes the last-write tables.
//! * **Pass 2** re-streams the identical execution. Each chunk flows
//!   through a [`MetaBuilder`] (classification, operand decode, dynamic
//!   memory keys, value-predictor training, dynamic control-dependence
//!   resolution — all carried state lives in the builder) into a
//!   per-chunk `EventMeta` buffer, which is then fed to the scheduling
//!   kernel ([`lane`](crate::lane)). As in memory, the builder
//!   is mode-free and the lane groups apply the configured
//!   disambiguation and value-prediction modes. The groups carry the
//!   scheduling state across chunks, so the resulting reports are
//!   bit-identical to a preparation in memory — both are the same builders
//!   and the same kernel, fed different chunk sizes (asserted across chunk
//!   sizes by the `stream_equivalence` and `lane_equivalence` suites).
//!
//! Pass 2 feeds at most two lane *groups* (control-dependence-using
//! machines and the rest), each scheduling all its machine × unroll lanes
//! in one walk over the chunk, through the one lane driver,
//! [`LaneScheduler::run`], which the in-memory walk uses too. When cores
//! are available each group walks on its own thread and the producer
//! (the preparation walk, on the calling thread) runs at most two chunks
//! ahead of the slowest group, so three shared buffers refilled in turn
//! are enough. Otherwise the groups walk each chunk inline.

use std::sync::Arc;

use clfp_vm::{ProgramSource, TraceSource, VmOptions};

use crate::analyzer::{assemble_report, Analyzer, Report};
use crate::lane::{runs_threaded, LaneScheduler};
use crate::meta::{branches_under, EventMeta, MetaBuilder, Pass1};
use crate::pass::PassResult;
use crate::AnalyzeError;

/// Tuning knobs for the streaming pipeline.
#[derive(Copy, Clone, Debug, Default)]
pub struct StreamOptions {
    /// Events per chunk; `0` (the default) picks a size from the
    /// program's text size that keeps a chunk and the lane state it
    /// touches cache-resident, halved when pass 2 is threaded.
    pub chunk_events: usize,
    /// Threads allowed for the machine passes; `0` (the default) allows
    /// one per available core. Pass 2 runs one thread per lane group when
    /// more than one thread is allowed and there is more than one group;
    /// `1` forces the sequential in-line path.
    pub machine_threads: usize,
}

impl StreamOptions {
    /// The chunk size this configuration resolves to for a program with
    /// `text_len` static instructions: `chunk_events` when non-zero,
    /// otherwise the adaptive heuristic.
    ///
    /// The heuristic targets chunk-resident data (a 16-byte raw
    /// `TraceEvent` and a 16-byte decoded `EventMeta` row per event,
    /// budgeted at the ~30 bytes/event the sizes were tuned with) at half
    /// a nominal 1 MiB L2, so the second lane group's walk over a chunk
    /// and the next chunk's fill read warm cache. The budget
    /// shrinks with the per-PC lane state the groups keep hot (the
    /// CD group's `branch_time`/`branch_ceiling` vectors, ~128 bytes per
    /// text instruction at full lane width), halves again when pass 2 is
    /// `threaded` (the producer fills one chunk while the groups walk
    /// another), and is clamped to [2¹², 2¹⁶] events, rounded down to a
    /// power of two.
    fn resolved_chunk_events(&self, text_len: usize, threaded: bool) -> usize {
        if self.chunk_events > 0 {
            return self.chunk_events;
        }
        const CACHE_BUDGET: usize = 512 << 10;
        const EVENT_BYTES: usize = 30;
        let state_bytes = text_len * 128;
        let budget = CACHE_BUDGET.saturating_sub(state_bytes).max(64 << 10);
        let buffers = if threaded { 2 } else { 1 };
        let events = budget / (EVENT_BYTES * buffers);
        // Round down to a power of two.
        let rounded = (events / 2 + 1).next_power_of_two();
        rounded.clamp(1 << 12, 1 << 16)
    }
}

/// Everything one streamed analysis produces: the full report for both
/// unroll settings (they share the preparation walk, exactly like the
/// in-memory [`PreparedTrace`](crate::PreparedTrace)).
#[derive(Clone, Debug)]
pub struct StreamedReports {
    /// Report with perfect loop unrolling (Table 4 "with unrolling").
    pub unrolled: Report,
    /// Report without unrolling (inlining only).
    pub rolled: Report,
}

impl StreamedReports {
    /// The report for one unroll setting.
    pub fn report(&self, unrolling: bool) -> &Report {
        if unrolling {
            &self.unrolled
        } else {
            &self.rolled
        }
    }
}

impl<'a> Analyzer<'a> {
    /// Streams the configured execution through the two-pass chunked
    /// pipeline at O(chunk) trace memory, for both unroll settings, with
    /// the machine passes fanned out over one thread per lane group when
    /// cores are available. [`Analyzer::run`] is this call's report for
    /// the configured unroll setting.
    ///
    /// # Example
    ///
    /// ```
    /// use clfp_lang::compile;
    /// use clfp_limits::{AnalysisConfig, Analyzer, MachineKind, StreamOptions};
    ///
    /// let program = compile(
    ///     "fn main() -> int {
    ///          var s: int = 0;
    ///          for (var i: int = 0; i < 50; i = i + 1) { s = s + i; }
    ///          return s;
    ///      }",
    /// )?;
    /// let analyzer = Analyzer::new(&program, AnalysisConfig::quick())?;
    /// let streamed = analyzer.run_streamed(StreamOptions::default())?;
    /// // Both unroll settings come back from the same two streaming passes.
    /// let oracle = streamed.unrolled.parallelism(MachineKind::Oracle);
    /// assert!(oracle >= streamed.rolled.parallelism(MachineKind::Base));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the measured execution faults (either
    /// pass — the deterministic VM faults identically or not at all).
    pub fn run_streamed(&self, options: StreamOptions) -> Result<StreamedReports, AnalyzeError> {
        let source = ProgramSource::new(
            self.program,
            VmOptions {
                mem_words: self.config.mem_words,
            },
            self.config.max_instrs,
        );
        self.run_streamed_on(&source, options)
    }

    /// [`Analyzer::run_streamed`] over an arbitrary [`TraceSource`] — an
    /// in-memory [`Trace`](clfp_vm::Trace), a trace file
    /// ([`FileTraceSource`](clfp_vm::FileTraceSource)), a replayed
    /// [`ProgramSource`], or a [repeated](ProgramSource::repeated)
    /// paper-scale stream.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if producing the stream faults.
    pub fn run_streamed_on(
        &self,
        source: &dyn TraceSource,
        options: StreamOptions,
    ) -> Result<StreamedReports, AnalyzeError> {
        let config = &self.config;
        let lane_groups = LaneScheduler::group_count(&config.machines, 2);
        let threaded = runs_threaded(options.machine_threads, lane_groups);
        let chunk_events = options
            .resolved_chunk_events(self.program.text.len(), threaded)
            .max(1);
        let pcs = &self.meta;

        // Pass 1: branch profile (when the profile predictor is selected)
        // and the distinct memory-key count, which sizes the lane kernel's
        // last-write tables in pass 2.
        let mut pass1 = Pass1::new(pcs, config);
        let pass1_span = clfp_metrics::trace::span("stream.pass1", "stream")
            .arg("chunk_events", chunk_events as u64)
            .arg("profile", pass1.profile_branches);
        source.stream(chunk_events, &mut |chunk| pass1.push_chunk(chunk))?;
        drop(pass1_span.arg("events", pass1.events));
        let mem_capacity = pass1.distinct_mem_keys.min(1 << 28) as usize;

        // Pass 2: preparation walk feeding every machine × unroll slot
        // through the lane kernel, under the configured modes.
        let mut builder = MetaBuilder::new(self.program, &self.info, pcs, config, &pass1.profile);
        let mode = (config.disambiguation, config.value_prediction);
        let sched = LaneScheduler::new(pcs, config, &[mode], &[true, false], mem_capacity);
        let workers = if threaded { lane_groups } else { 1 };
        let pass2_span = clfp_metrics::trace::span("stream.pass2", "stream")
            .arg("workers", workers as u64)
            .arg("slots", 2 * config.machines.len() as u64)
            .arg("events", pass1.events);
        // While a group walks chunk n, chunk n+1 may wait in its channel
        // and the producer fills n+2: three buffers, refilled in turn, are
        // enough, and steady-state pass 2 allocates nothing.
        let mut buffers: [Arc<Vec<EventMeta>>; 3] = Default::default();
        let mut next = 0;
        let mut passes = sched.run(pcs, options.machine_threads, |emit| {
            source.stream(chunk_events, &mut |chunk| {
                let shared = &mut buffers[next % 3];
                next += 1;
                // Emitting chunk n-1 waited until every group had taken
                // chunk n-2 and so dropped n-3, this buffer's previous chunk.
                let buf =
                    Arc::get_mut(shared).expect("every group dropped the buffer's last chunk");
                buf.clear();
                builder.push_chunk(chunk, buf);
                emit(Arc::clone(shared));
            })
        })?;
        drop(pass2_span);

        let branches = branches_under(
            builder.branches(),
            &builder.vp_hits(),
            config.value_prediction,
        );
        let rolled_passes = passes.split_off(config.machines.len());
        let report = |unrolling: bool, passes: Vec<PassResult>| {
            assemble_report(
                &config.machines,
                passes,
                builder.not_ignored(unrolling),
                builder.raw_instrs(),
                branches,
            )
        };
        Ok(StreamedReports {
            unrolled: report(true, passes),
            rolled: report(false, rolled_passes),
        })
    }
}
