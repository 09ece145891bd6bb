//! Two-pass streaming analysis over a [`TraceSource`].
//!
//! The in-memory pipeline materializes the whole trace (16 bytes/event)
//! plus per-event metadata (a 16-byte `EventMeta`, 13 bytes of fields
//! padded; the ignore flags are per pc) before any machine runs — about
//! 320 MB per 10M instructions, and the reason the committed suite
//! stopped at 2M. The paper measured 100M-instruction
//! traces. This module reaches that scale with O(chunk) trace memory by
//! exploiting the VM's determinism:
//!
//! * **Pass 1** streams the execution once to build what the preparation
//!   walk needs *ahead of* the events: the branch-outcome profile (the
//!   paper's profile predictor is trained on the measured run itself) and
//!   the trace summary.
//! * **Pass 2** re-streams the identical execution. Each chunk flows
//!   through a [`MetaBuilder`] (classification, operand decode, dynamic
//!   memory keys, value-predictor training, dynamic control-dependence
//!   resolution — all carried state lives in the builder) into a
//!   per-chunk `EventMeta` buffer, which is then fed to the scheduling
//!   kernel ([`lane`](crate::lane)). As in memory, the builder
//!   is mode-free and the lane groups apply the configured
//!   disambiguation and value-prediction modes. The groups carry the
//!   scheduling state across chunks, so the resulting reports are
//!   bit-identical to the in-memory path — both are the same builders and
//!   the same kernel, fed different chunk sizes (asserted across chunk
//!   sizes by the `stream_equivalence` and `lane_equivalence` suites).
//!
//! Within pass 2 every chunk is fed to at most two lane *groups*
//! (control-dependence-using machines and the rest), each scheduling all
//! its machine × unroll lanes in one walk over the chunk.
//! When cores are available the groups run concurrently, in the shape
//! the in-memory `run_scheduler` uses: one scoped thread per group. The
//! producer (the preparation walk, on the calling thread) sends every
//! prepared chunk to each group through a bounded channel that holds one
//! chunk, so it runs at most two chunks ahead of the slowest group and
//! refills three shared buffers in turn. With one core,
//! `machine_threads = 1`, or a single lane group, the same groups are fed
//! inline, sequentially: the rule `run_scheduler` follows in memory.

use std::sync::{mpsc, Arc};
use std::thread::ScopedJoinHandle;

use clfp_metrics::NullSink;
use clfp_predict::BranchProfile;
use clfp_vm::{ProgramSource, SummaryBuilder, TraceSource, TraceSummary, VmError, VmOptions};

use crate::analyzer::{assemble_report, Analyzer, Report};
use crate::lane::{GroupFeed, LaneScheduler};
use crate::meta::{branches_under, EventMeta, MetaBuilder, ProgramMeta, PC_COND_BRANCH};
use crate::pass::PassResult;
use crate::{AnalyzeError, PredictorChoice};

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
    /// Whether pass 2 runs one thread per lane group: more than one thread
    /// allowed, and more than one of the `lane_groups` to feed.
    fn threaded(&self, lane_groups: usize) -> bool {
        let allowed = match self.machine_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        allowed > 1 && lane_groups > 1
    }

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
/// in-memory [`PreparedTrace`](crate::PreparedTrace)) plus the trace
/// summary, gathered during pass 1 at no extra cost.
#[derive(Clone, Debug)]
pub struct StreamedReports {
    /// Report with perfect loop unrolling (Table 4 "with unrolling").
    pub unrolled: Report,
    /// Report without unrolling (inlining only).
    pub rolled: Report,
    /// Dynamic instruction-mix summary of the streamed trace.
    pub summary: TraceSummary,
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
    /// pipeline: [`Analyzer::run`] at O(chunk) trace memory, for both
    /// unroll settings, with the machine passes fanned out over worker
    /// threads when cores are available. Bit-identical to the in-memory
    /// path for every machine and unroll setting.
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
    /// in-memory [`Trace`](clfp_vm::Trace), a replayed
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
        let threaded = options.threaded(lane_groups);
        let chunk_events = options
            .resolved_chunk_events(self.program.text.len(), threaded)
            .max(1);
        let pcs = &self.meta;

        // Pass 1: branch profile (when the profile predictor is selected)
        // and trace summary. `PC_COND_BRANCH` is set exactly when
        // `BranchProfile::from_trace` would record the event, so the
        // streamed profile matches the in-memory one bit for bit.
        let mut profile = BranchProfile::new();
        let want_profile = matches!(config.predictor, PredictorChoice::Profile);
        let mut summary = SummaryBuilder::new(self.program);
        let pass1_span = clfp_metrics::trace::span("stream.pass1", "stream")
            .arg("chunk_events", chunk_events as u64)
            .arg("profile", want_profile);
        source.stream(chunk_events, &mut |chunk| {
            summary.push_chunk(chunk);
            if want_profile {
                for event in chunk {
                    if pcs.pcs[event.pc as usize].is(PC_COND_BRANCH) {
                        profile.record(event.pc, event.taken);
                    }
                }
            }
        })?;

        // The summary closes here so pass 2 can size the lane kernel's
        // last-write tables from the measured distinct-word count instead
        // of a fixed default.
        let summary = summary.finish();
        drop(pass1_span.arg("events", summary.total));
        let mem_capacity = summary.distinct_mem_words.min(1 << 28) as usize;

        // Pass 2: preparation walk feeding every machine × unroll slot
        // through the lane kernel, under the configured modes.
        let mut builder = MetaBuilder::new(self.program, &self.info, pcs, config, &profile);
        let mode = (config.disambiguation, config.value_prediction);
        let mut sched = LaneScheduler::new(pcs, config, &[mode], &[true, false], mem_capacity);
        debug_assert_eq!(sched.groups.len(), lane_groups);
        let slots = 2 * config.machines.len();
        let workers = if threaded { lane_groups } else { 1 };

        let pass2_span = clfp_metrics::trace::span("stream.pass2", "stream")
            .arg("workers", workers as u64)
            .arg("slots", slots as u64)
            .arg("events", summary.total);
        if threaded {
            feed_threaded(source, chunk_events, &mut builder, pcs, &mut sched.groups)?;
        } else {
            let mut buf = Vec::with_capacity(chunk_events);
            source.stream(chunk_events, &mut |chunk| {
                buf.clear();
                builder.push_chunk(chunk, &mut buf);
                sched.feed(pcs, &buf);
            })?;
        }
        let mut passes = sched.finish();
        drop(pass2_span);

        let branches = branches_under(
            builder.branches(),
            &builder.vp_hits(),
            config.value_prediction,
        );
        let rolled_passes = passes.split_off(config.machines.len());
        let report = |unrolling: bool, passes: Vec<PassResult>| {
            let not_ignored = builder.not_ignored(unrolling);
            assemble_report(
                &config.machines,
                passes,
                not_ignored,
                builder.raw_instrs(),
                branches,
            )
        };
        Ok(StreamedReports {
            unrolled: report(true, passes),
            rolled: report(false, rolled_passes),
            summary,
        })
    }
}

/// The threaded pass 2. The calling thread runs the preparation walk (the
/// branch predictor need not be `Send`) and hands every prepared chunk to
/// one scoped thread per lane group through a channel that holds one
/// chunk: while the slowest group walks chunk *n*, chunk *n+1* waits in
/// its channel and the producer fills *n+2*. So three buffers, refilled in
/// turn, are enough, and steady-state pass 2 allocates nothing. A group
/// thread that panics ends the walk with its panic.
fn feed_threaded(
    source: &dyn TraceSource,
    chunk_events: usize,
    builder: &mut MetaBuilder<'_>,
    pcs: &ProgramMeta,
    groups: &mut [Box<dyn GroupFeed>],
) -> Result<(), VmError> {
    std::thread::scope(|scope| {
        let mut feeds: Vec<_> = groups
            .iter_mut()
            .enumerate()
            .map(|(index, group)| {
                let (send, chunks) = mpsc::sync_channel::<Arc<Vec<EventMeta>>>(1);
                let thread = scope.spawn(move || {
                    // Thread-lifetime span: the gap between this and the
                    // group's lane.group busy time is waiting for chunks.
                    let _worker_span = clfp_metrics::trace::span("stream.worker", "stream")
                        .arg("worker", index as u64)
                        .arg("groups", 1u64);
                    for chunk in chunks {
                        group.feed(pcs, &chunk, &mut NullSink);
                    }
                });
                (send, thread)
            })
            .collect();
        let mut buffers: [Arc<Vec<EventMeta>>; 3] = Default::default();
        let mut next = 0;
        let produced = source.stream(chunk_events, &mut |chunk| {
            let shared = &mut buffers[next % 3];
            next += 1;
            // Sending chunk n-1 waited until every group had taken chunk
            // n-2 and so dropped n-3, this buffer's previous chunk.
            let buf = Arc::get_mut(shared).expect("every group dropped the buffer's last chunk");
            buf.clear();
            builder.push_chunk(chunk, buf);
            // A group's channel closes early only when its thread panicked.
            if let Some(closed) = feeds
                .iter()
                .position(|(send, _)| send.send(Arc::clone(shared)).is_err())
            {
                join(feeds.swap_remove(closed).1);
            }
        });
        for (send, thread) in feeds {
            drop(send);
            join(thread);
        }
        produced
    })
}

/// Waits for a group thread, re-raising its panic on this thread.
fn join(thread: ScopedJoinHandle<'_, ()>) {
    if let Err(panic) = thread.join() {
        std::panic::resume_unwind(panic);
    }
}
