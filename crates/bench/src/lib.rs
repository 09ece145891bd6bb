//! # clfp-bench
//!
//! The experiment harness: runs the full workload suite through the limit
//! analyzer and regenerates **every table and figure** of the paper's
//! evaluation section as text/markdown, via the `regen` binary:
//!
//! ```text
//! cargo run --release -p clfp-bench --bin regen            # everything
//! cargo run --release -p clfp-bench --bin regen -- --table 3
//! cargo run --release -p clfp-bench --bin regen -- --figure 6 --max-instr 500000
//! ```
//!
//! `regen --timing` times every pipeline stage (compile, trace,
//! preparation, machine passes) for both the lane-kernel analyzer and the
//! seed-equivalent reference pipeline, writing the comparison to
//! `BENCH_suite.json` — the suite's perf record.
//! `regen --scaling` streams repeated workload executions through the
//! chunked pipeline at increasing trace lengths (2M to 100M dynamic
//! instructions), recording wall time and peak RSS per point to
//! `BENCH_scaling.json` — the record that paper-scale runs complete in
//! O(chunk) trace memory.
//! `regen --lint` gates the suite on the `clfp-verify` checks,
//! `regen --alias` sweeps the memory-disambiguation axis (perfect vs
//! static alias classes vs none) across the suite and writes
//! `results/disambiguation.md` gated on the dynamic alias-soundness
//! check ([`run_alias_suite`]),
//! `regen --valuepred` sweeps the value-prediction axis (off vs
//! last-value vs stride vs a perfect value oracle) and writes
//! `results/value_prediction.md` gated on the `clfp-verify`
//! monotonicity check ([`run_valuepred_suite`]), and
//! `regen --metrics` re-runs it with the `clfp-metrics` recording sink
//! ([`run_metrics_suite`]), writing cycle-occupancy histograms and
//! critical-path attribution (`results/metrics_suite.json`,
//! `results/attribution.md`; see `docs/OBSERVABILITY.md`).
//!
//! Every artifact is stamped with a [`RunManifest`] ([`suite_manifest`]),
//! and `regen` refuses to overwrite results whose recorded config hash
//! differs from the current run's unless `--force` is given.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use clfp_limits::{
    harmonic_mean, AnalysisConfig, Analyzer, AnalyzeError, EdgeKind, MachineKind, MachineMetrics,
    MemDisambiguation, MispredictionStats, Report, StreamOptions, ValuePrediction,
};
use clfp_metrics::RunManifest;
use clfp_predict::BranchProfile;
use clfp_vm::{ProgramSource, Trace, TraceCache, TraceSummary};
use clfp_verify::{
    check_valuepred_monotonicity, lint_program, Diagnostic, DiagnosticKind, Severity, TraceChecks,
};
use clfp_workloads::{suite, Workload, WorkloadClass};

/// Process-wide trace cache used by every suite runner's trace
/// acquisition. `None` (the default) executes the VM directly — library
/// callers and unit tests see unchanged behavior; `regen` installs the
/// default cache at startup unless `--no-cache` is given.
static TRACE_CACHE: OnceLock<Option<TraceCache>> = OnceLock::new();

/// Installs (or explicitly disables, with `None`) the process-wide trace
/// cache every suite runner routes trace acquisition through. The first
/// call wins — the cache choice must not change while suites are running —
/// and later calls are ignored, returning `false`.
pub fn set_trace_cache(cache: Option<TraceCache>) -> bool {
    TRACE_CACHE.set(cache).is_ok()
}

/// The installed trace cache, if any.
fn trace_cache() -> Option<&'static TraceCache> {
    TRACE_CACHE.get().and_then(|cache| cache.as_ref())
}

/// The measured trace for `program` under `config`, through the process
/// trace cache when one is installed ([`set_trace_cache`]). The boolean is
/// `true` when the events came back from a warm cache file instead of a VM
/// execution.
fn measured_trace(
    program: &clfp_isa::Program,
    config: &AnalysisConfig,
) -> Result<(Trace, bool), AnalyzeError> {
    let options = clfp_vm::VmOptions {
        mem_words: config.mem_words,
    };
    if let Some(cache) = trace_cache() {
        let (trace, warm) = cache.ensure(program, options, config.max_instrs)?;
        Ok((trace, warm))
    } else {
        let mut vm = clfp_vm::Vm::new(program, options);
        Ok((vm.trace(config.max_instrs)?, false))
    }
}

/// The worker-pool size [`par_map_suite`] actually fans out over: the
/// host's available parallelism capped at the workload count. Recorded in
/// every suite manifest (`pool_threads`).
pub fn suite_pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(suite().len())
}

/// Analysis results for one workload, with and without perfect unrolling.
pub struct WorkloadReport {
    /// The workload.
    pub workload: Workload,
    /// Report with perfect unrolling (the paper's headline setting).
    pub unrolled: Report,
    /// Report without perfect unrolling (Table 4's baseline).
    pub rolled: Report,
}

/// Runs `map` over every suite workload, fanning out over a worker pool
/// bounded by the host's available parallelism — workloads are
/// independent, but oversubscribing the cores just makes their multi-MB
/// trace working sets thrash each other's caches. Results come back in
/// suite order; the first error wins.
///
/// # Errors
///
/// Propagates the first `map` error (by suite order).
pub fn par_map_suite<T, F>(map: F) -> Result<Vec<T>, AnalyzeError>
where
    T: Send,
    F: Fn(Workload) -> Result<T, AnalyzeError> + Sync,
{
    let workloads = suite();
    let workers = suite_pool_threads().min(workloads.len());
    if workers <= 1 {
        return workloads.into_iter().map(map).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<T, AnalyzeError>>>> =
        Mutex::new((0..workloads.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= workloads.len() {
                    break;
                }
                let result = map(workloads[i]);
                results.lock().unwrap()[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|result| result.expect("every workload index was claimed"))
        .collect()
}

/// Runs the whole suite under `config`, producing both unrolling settings
/// from a single trace and a single preparation walk per workload.
/// Workloads fan out over a worker pool sized to the host's cores.
///
/// # Errors
///
/// Propagates the first analyzer error (a faulting workload would be a
/// bug).
pub fn run_suite(config: &AnalysisConfig) -> Result<Vec<WorkloadReport>, AnalyzeError> {
    par_map_suite(|workload| analyze_workload(workload, config))
}

fn analyze_workload(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<WorkloadReport, AnalyzeError> {
    let program = workload
        .compile()
        .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))?;
    let analyzer = Analyzer::new(&program, config.clone())?;
    let (trace, _warm) = measured_trace(&program, config)?;
    let prepared = analyzer.prepare(&trace);
    // Both unroll settings in a single lane-kernel walk over the trace.
    let (unrolled, rolled) = prepared.report_both();

    Ok(WorkloadReport {
        workload,
        unrolled,
        rolled,
    })
}

/// Per-workload wall times for each pipeline stage, in milliseconds.
#[derive(Clone, Debug)]
pub struct WorkloadTiming {
    /// Workload name.
    pub name: &'static str,
    /// MiniC compilation.
    pub compile_ms: f64,
    /// The two profiling executions the seed pipeline ran (eliminated by
    /// deriving the profile from the measured trace).
    pub profiling_ms: f64,
    /// The measured trace execution (shared by both pipelines).
    pub trace_ms: f64,
    /// The shared machine-independent preparation walk
    /// (`Analyzer::prepare`: classification, memory keys, CD resolution).
    pub prepare_ms: f64,
    /// All 14 machine × unroll slots through the lane-parallel kernel —
    /// one walk over the prepared trace (the `run_suite` production
    /// path).
    pub lane_machines_ms: f64,
    /// Reference analysis: one-machine-at-a-time passes, both unroll
    /// settings.
    pub reference_analysis_ms: f64,
    /// Streaming chunked analysis over the same trace (two-pass, all 14
    /// machine slots, sequential — `machine_threads: 1`).
    pub stream_ms: f64,
    /// Streaming chunked analysis with the parallel machine broadcast
    /// (`machine_threads: 0`, i.e. the host's available parallelism,
    /// subject to the short-stream sequential fallback).
    pub stream_par_ms: f64,
    /// Whether the measured trace came from a warm cache file (in which
    /// case `trace_ms` is the file load and `profiling_ms` is zero — the
    /// profiling executions only exist to re-execute the program).
    pub cache_hit: bool,
    /// Raw dynamic instructions in the measured trace.
    pub raw_instrs: u64,
}

/// Wall-time comparison of the lane-kernel suite against the
/// seed-equivalent reference pipeline, as produced by [`run_suite_timed`].
#[derive(Clone, Debug)]
pub struct SuiteTiming {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Worker threads available on the host.
    pub threads: usize,
    /// Worker-pool size [`par_map_suite`] actually fanned out over (host
    /// parallelism capped at the workload count).
    pub pool_threads: usize,
    /// Trace-cache state of this run: `"off"` when no cache is installed,
    /// `"warm"` when every workload's trace was already cached before the
    /// first suite ran, `"cold"` otherwise.
    pub cache: &'static str,
    /// Lane-kernel pipeline wall (the [`run_suite`] production path):
    /// the sum over workloads of `compile + trace + prepare +
    /// lane_machines` stage times, all measured once in the single
    /// instrumented suite walk.
    pub lane_wall_ms: f64,
    /// Seed-equivalent reference pipeline wall: the sum over workloads
    /// of `compile + trace + profiling + reference_analysis` stage times
    /// (profiling belongs to this pipeline only — the lane pipeline
    /// derives its branch profile from the measured trace).
    pub reference_wall_ms: f64,
    /// `reference_wall_ms / lane_wall_ms`.
    pub speedup: f64,
    /// Whether the production and reference pipelines produced identical
    /// Tables 2-4.
    pub reports_match: bool,
    /// Chunk size (events) used by the streaming comparison runs
    /// (`0` = adaptive per workload, the default).
    pub chunk_events: usize,
    /// Whether the streaming chunked pipeline reproduced the in-memory
    /// reports bit for bit on every workload, both unroll settings.
    pub stream_matches: bool,
    /// Whether the lane kernel reproduced the reference pass's reports
    /// bit for bit on every workload, both unroll settings.
    pub lane_matches: bool,
    /// Whether the lane kernel and the reference pass also agree bit for
    /// bit under `Static` memory disambiguation (alias-class keys), both
    /// unroll settings. The reference pass reruns the whole analysis per
    /// mode, so this gate runs on the first workload only.
    pub alias_matches: bool,
    /// Whether the lane kernel and the reference pass also agree bit for
    /// bit under `Stride` value prediction (the strongest realistic
    /// mode), both unroll settings, on the first workload only.
    pub valuepred_matches: bool,
    /// Whether every workload's trace survives a cache-file roundtrip bit
    /// for bit: the stored events reload identically and streaming the
    /// cache file through the chunked pipeline reproduces the in-memory
    /// reports exactly.
    pub cache_matches: bool,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload, per-stage breakdown (measured sequentially).
    pub workloads: Vec<WorkloadTiming>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Start timestamp for a synthesized `suite.*` stage span. Returns 0 when
/// tracing is off, which makes the matching [`stage_span`] a no-op — the
/// untraced timed suite pays one relaxed load per stage and nothing else.
fn stage_start() -> u64 {
    if clfp_metrics::trace::tracing_enabled() {
        clfp_metrics::trace::now_monotonic_us().max(1)
    } else {
        0
    }
}

/// Close a synthesized suite-stage span opened by [`stage_start`]. The
/// stage timings double as the span durations, so the pipeline profile's
/// attribution sums the exact numbers `--timing` reports.
fn stage_span(name: &'static str, workload: &'static str, start_us: u64) {
    if start_us == 0 {
        return;
    }
    let dur_us = clfp_metrics::trace::now_monotonic_us().saturating_sub(start_us);
    clfp_metrics::trace::record_span(
        name,
        "suite",
        start_us,
        dur_us,
        vec![("workload", workload.into())],
    );
}

/// Whether `(unrolled, rolled)` reports equal, bit for bit, the
/// reference pass rerun from scratch on `trace` under `mode` — the one
/// pipeline that shares no scheduling code with the lane kernel. Used by
/// the mode gates of the timed, alias and value-prediction suites.
///
/// # Errors
///
/// Propagates analyzer construction failures.
fn matches_reference(
    unrolled: &Report,
    rolled: &Report,
    program: &clfp_isa::Program,
    trace: &Trace,
    mode: &AnalysisConfig,
) -> Result<bool, AnalyzeError> {
    let reference = |unrolling: bool| {
        Analyzer::new(program, mode.clone().with_unrolling(unrolling))
            .map(|analyzer| analyzer.run_on_trace_reference(trace))
    };
    Ok(reports_equal(unrolled, &reference(true)?) && reports_equal(rolled, &reference(false)?))
}

/// Exact (bit-for-bit) equality of two analysis reports: counts, branch
/// statistics, misprediction histograms, and every machine's cycle count
/// and parallelism. Used to gate every pipeline against the reference
/// pass and the streaming pipeline against the in-memory one.
pub fn reports_equal(a: &Report, b: &Report) -> bool {
    a.seq_instrs == b.seq_instrs
        && a.raw_instrs == b.raw_instrs
        && a.branches == b.branches
        && a.mispred_stats == b.mispred_stats
        && a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|(x, y)| {
            x.kind == y.kind
                && x.cycles == y.cycles
                && x.parallelism.to_bits() == y.parallelism.to_bits()
        })
}

/// Times the full-suite regeneration, lane kernel vs the seed-equivalent
/// reference pipeline, in one instrumented walk over the suite: every
/// stage of every pipeline runs and is timed exactly once per workload,
/// pipeline walls are sums of their stages, and the same walk feeds the
/// bit-identity gates (lane vs reference, streaming, static alias, value
/// prediction, cache roundtrip) and cross-checks that both pipelines emit
/// identical tables.
///
/// # Errors
///
/// Propagates the first analyzer error from either pipeline.
pub fn run_suite_timed(config: &AnalysisConfig) -> Result<SuiteTiming, AnalyzeError> {
    // Classify the run before anything executes: warm only if every
    // workload's trace is already cached. The probe is a header
    // validation per workload, not a trace read.
    let _suite_span = clfp_metrics::trace::span("suite.total", "suite")
        .arg("max_instrs", config.max_instrs);
    let probe_t0 = stage_start();
    let cache_state = match trace_cache() {
        None => "off",
        Some(cache) => {
            let mut warm = true;
            for workload in suite() {
                let program = workload.compile().map_err(|err| {
                    AnalyzeError::BadProgram(format!("{}: {err}", workload.name))
                })?;
                warm &= cache.lookup(&program, config.max_instrs).is_some();
            }
            if warm {
                "warm"
            } else {
                "cold"
            }
        }
    };
    stage_span("suite.cache_probe", "suite", probe_t0);
    // The cache-roundtrip gate needs a directory to write through: the
    // installed cache's when one is on, a scratch directory otherwise
    // (removed at the end — a cache-off run must leave nothing behind).
    let (verify_cache, scratch_dir) = match trace_cache() {
        Some(active) => (TraceCache::new(active.dir()), None),
        None => {
            let dir = std::env::temp_dir().join(format!("clfp-cache-gate-{}", std::process::id()));
            (TraceCache::new(&dir), Some(dir))
        }
    };

    // One instrumented pass over the suite, sequential by design: every
    // stage of every pipeline runs and is timed exactly once per workload,
    // and the pipeline walls are sums of those stage times (see the
    // `SuiteTiming` wall fields for the exact compositions). The previous
    // shape — three end-to-end suite passes followed by a per-workload
    // re-run of every stage — paid the entire analysis twice per
    // `--timing` invocation just to report the same numbers.
    let chunk_events = StreamOptions::default().chunk_events;
    let mut stream_matches = true;
    let mut lane_matches = true;
    let mut alias_matches = true;
    let mut valuepred_matches = true;
    let mut cache_matches = true;
    let mut lane_reports = Vec::new();
    let mut reference_reports = Vec::new();
    let mut workloads = Vec::new();
    for (index, workload) in suite().into_iter().enumerate() {
        let options = clfp_vm::VmOptions {
            mem_words: config.mem_words,
        };
        let t0 = stage_start();
        let start = Instant::now();
        let program = workload
            .compile()
            .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))?;
        let compile_ms = ms(start);
        stage_span("suite.compile", workload.name, t0);

        // On a warm run the front end collapses: the trace stage is a
        // cache-file load and the seed's profiling executions — which
        // only exist to re-execute the program — are skipped outright.
        // A cold run keeps the honest VM costs even though the earlier
        // suite walls already populated the cache.
        let t0 = stage_start();
        let start = Instant::now();
        let (trace, cache_hit) = if cache_state == "warm" {
            measured_trace(&program, config)?
        } else {
            let mut vm = clfp_vm::Vm::new(&program, options);
            (vm.trace(config.max_instrs)?, false)
        };
        let trace_ms = ms(start);
        stage_span("suite.trace", workload.name, t0);

        let profiling_ms = if cache_hit {
            0.0
        } else {
            let t0 = stage_start();
            let start = Instant::now();
            let _p1 = BranchProfile::collect_with(&program, config.max_instrs, options)?;
            let _p2 = BranchProfile::collect_with(&program, config.max_instrs, options)?;
            let elapsed = ms(start);
            stage_span("suite.profiling", workload.name, t0);
            elapsed
        };

        let unrolled_config = AnalysisConfig {
            unrolling: true,
            ..config.clone()
        };
        let rolled_config = AnalysisConfig {
            unrolling: false,
            ..config.clone()
        };
        let t0 = stage_start();
        let unrolled = Analyzer::new(&program, unrolled_config)?;
        let rolled = Analyzer::new(&program, rolled_config)?;
        stage_span("suite.analyzers", workload.name, t0);

        // Multimode: trains the realistic value predictors alongside the
        // normal walk so the Static / Stride gates below can run as cheap
        // slices of this one preparation instead of full re-preparations.
        let t0 = stage_start();
        let start = Instant::now();
        let prepared = unrolled.prepare_multimode(&trace);
        let prepare_ms = ms(start);
        stage_span("suite.prepare", workload.name, t0);

        let t0 = stage_start();
        let start = Instant::now();
        let (lane_unrolled, lane_rolled) = prepared.report_both();
        let lane_machines_ms = ms(start);
        stage_span("suite.machines.lane", workload.name, t0);

        let t0 = stage_start();
        let start = Instant::now();
        let reference_unrolled = unrolled.run_on_trace_reference(&trace);
        let reference_rolled = rolled.run_on_trace_reference(&trace);
        let reference_analysis_ms = ms(start);
        stage_span("suite.reference", workload.name, t0);
        lane_matches &= reports_equal(&lane_unrolled, &reference_unrolled)
            && reports_equal(&lane_rolled, &reference_rolled);

        // Static memory disambiguation flows through the mem_key seam,
        // value prediction through the EV_VALPRED flag. The lane walk
        // over a slice of the shared preparation must agree with the
        // reference pass rerun from scratch under each mode. That rerun
        // prices a whole reference analysis per mode, so these gates run
        // on the first workload only; the alias and value-prediction
        // suites pin the slices on every workload.
        if index == 0 {
            let static_mode = config.clone().with_disambiguation(MemDisambiguation::Static);
            let stride_mode = config.clone().with_value_prediction(ValuePrediction::Stride);
            for (name, mode, matches) in [
                ("suite.gate.static", static_mode, &mut alias_matches),
                ("suite.gate.valuepred", stride_mode, &mut valuepred_matches),
            ] {
                let t0 = stage_start();
                let sliced = prepared.slice_modes(mode.disambiguation, mode.value_prediction);
                let (sliced_unrolled, sliced_rolled) = sliced.report_both();
                *matches =
                    matches_reference(&sliced_unrolled, &sliced_rolled, &program, &trace, &mode)?;
                stage_span(name, workload.name, t0);
            }
        }

        // The streaming chunked pipeline over the same trace: two
        // re-streams (profile + machines) in O(chunk) working memory,
        // first sequential, then with the parallel machine broadcast.
        let t0 = stage_start();
        let start = Instant::now();
        let streamed = unrolled.run_streamed_on(
            &trace,
            StreamOptions {
                chunk_events,
                machine_threads: 1,
                par_threshold_events: 0,
            },
        )?;
        let stream_ms = ms(start);
        stage_span("suite.stream", workload.name, t0);
        let t0 = stage_start();
        let start = Instant::now();
        let _ = unrolled.run_streamed_on(
            &trace,
            StreamOptions {
                chunk_events,
                machine_threads: 0,
                par_threshold_events: 0,
            },
        )?;
        let stream_par_ms = ms(start);
        stage_span("suite.stream_par", workload.name, t0);
        stream_matches &= reports_equal(&streamed.unrolled, &lane_unrolled)
            && reports_equal(&streamed.rolled, &lane_rolled);

        // Cache roundtrip gate: every workload's trace is stored and
        // reloaded eagerly — the events must compare equal bit for bit.
        // The full streamed-from-file analysis (which additionally pins
        // the `FileTraceSource` chunked walk against the in-memory
        // reports) runs on the first workload only: it re-prices an
        // entire streaming pass, and the event-equality check already
        // covers the serialization seam on the other nine.
        let t0 = stage_start();
        cache_matches &= match verify_cache.store(&program, config.max_instrs, &trace) {
            Ok(file) => {
                let reloaded = file
                    .load_trace()
                    .map(|t| t.events() == trace.events())
                    .unwrap_or(false);
                let file_stream_ok = if index == 0 {
                    let from_file = unrolled.run_streamed_on(
                        &file,
                        StreamOptions {
                            chunk_events,
                            machine_threads: 1,
                            par_threshold_events: 0,
                        },
                    )?;
                    reports_equal(&from_file.unrolled, &lane_unrolled)
                        && reports_equal(&from_file.rolled, &lane_rolled)
                } else {
                    true
                };
                reloaded && file_stream_ok
            }
            Err(_) => false,
        };
        stage_span("suite.gate.cache", workload.name, t0);

        workloads.push(WorkloadTiming {
            name: workload.name,
            compile_ms,
            profiling_ms,
            trace_ms,
            prepare_ms,
            lane_machines_ms,
            reference_analysis_ms,
            stream_ms,
            stream_par_ms,
            cache_hit,
            raw_instrs: trace.len() as u64,
        });
        lane_reports.push(WorkloadReport {
            workload,
            unrolled: lane_unrolled,
            rolled: lane_rolled,
        });
        reference_reports.push(WorkloadReport {
            workload,
            unrolled: reference_unrolled,
            rolled: reference_rolled,
        });
    }

    if let Some(dir) = scratch_dir {
        verify_cache.clear().ok();
        std::fs::remove_dir(&dir).ok();
    }

    let reports_match = table2(&lane_reports) == table2(&reference_reports)
        && table3(&lane_reports) == table3(&reference_reports)
        && table4(&lane_reports) == table4(&reference_reports);

    // Pipeline walls as sums of the measured stages: each pipeline pays
    // the shared front end (compile + trace acquisition) plus its own
    // analysis. Profiling belongs to the reference pipeline only — the
    // lane pipeline derives the branch profile from the measured trace.
    let lane_wall_ms: f64 = workloads
        .iter()
        .map(|w| w.compile_ms + w.trace_ms + w.prepare_ms + w.lane_machines_ms)
        .sum();
    let reference_wall_ms: f64 = workloads
        .iter()
        .map(|w| w.compile_ms + w.trace_ms + w.profiling_ms + w.reference_analysis_ms)
        .sum();

    let pool_threads = suite_pool_threads();
    Ok(SuiteTiming {
        max_instrs: config.max_instrs,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_threads,
        cache: cache_state,
        lane_wall_ms,
        reference_wall_ms,
        speedup: reference_wall_ms / lane_wall_ms.max(f64::MIN_POSITIVE),
        reports_match,
        chunk_events,
        stream_matches,
        lane_matches,
        alias_matches,
        valuepred_matches,
        cache_matches,
        manifest: suite_manifest(config)
            .with_pool_threads(pool_threads)
            .with_cache(cache_state)
            .with_kernel(clfp_limits::kernel_isa()),
        workloads,
    })
}

/// The provenance manifest for a suite run under `config` (see
/// [`RunManifest`]): config hash, git describe, timestamp, host
/// parallelism. Embedded in every generated artifact.
pub fn suite_manifest(config: &AnalysisConfig) -> RunManifest {
    RunManifest::capture(&config.fingerprint(), config.max_instrs, config.unrolling)
}

impl SuiteTiming {
    /// Serializes the comparison as JSON (`BENCH_suite.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"suite\": \"full-suite regen, lane kernel vs reference pipeline\",\n");
        out.push_str(&format!("  \"max_instrs\": {},\n", self.max_instrs));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"pool_threads\": {},\n", self.pool_threads));
        out.push_str(&format!("  \"cache\": \"{}\",\n", self.cache));
        out.push_str(&format!("  \"lane_wall_ms\": {:.1},\n", self.lane_wall_ms));
        out.push_str(&format!(
            "  \"reference_wall_ms\": {:.1},\n",
            self.reference_wall_ms
        ));
        out.push_str(&format!("  \"speedup\": {:.2},\n", self.speedup));
        out.push_str(&format!("  \"reports_match\": {},\n", self.reports_match));
        out.push_str(&format!("  \"chunk_events\": {},\n", self.chunk_events));
        out.push_str(&format!(
            "  \"stream_matches\": {},\n",
            self.stream_matches
        ));
        out.push_str(&format!("  \"lane_matches\": {},\n", self.lane_matches));
        out.push_str(&format!("  \"alias_matches\": {},\n", self.alias_matches));
        out.push_str(&format!(
            "  \"valuepred_matches\": {},\n",
            self.valuepred_matches
        ));
        out.push_str(&format!("  \"cache_matches\": {},\n", self.cache_matches));
        out.push_str(&format!(
            "  \"manifest\": {},\n",
            self.manifest.to_json_object("  ")
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"raw_instrs\": {}, \"compile_ms\": {:.1}, \
                 \"profiling_ms\": {:.1}, \"trace_ms\": {:.1}, \
                 \"prepare_ms\": {:.1}, \"lane_machines_ms\": {:.1}, \
                 \"reference_analysis_ms\": {:.1}, \
                 \"stream_ms\": {:.1}, \"stream_par_ms\": {:.1}, \"cache_hit\": {}}}{}\n",
                w.name,
                w.raw_instrs,
                w.compile_ms,
                w.profiling_ms,
                w.trace_ms,
                w.prepare_ms,
                w.lane_machines_ms,
                w.reference_analysis_ms,
                w.stream_ms,
                w.stream_par_ms,
                w.cache_hit,
                if i + 1 == self.workloads.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "## Suite Timing: lane kernel vs reference pipeline\n\n\
             | workload | raw instrs | compile | profiling (ref only) | trace | prepare | lane passes | reference analysis | stream (1t) | stream (par) |\n\
             |----------|------------|---------|----------------------|-------|---------|-------------|--------------------|-------------|--------------|\n",
        );
        for w in &self.workloads {
            out.push_str(&format!(
                "| {} | {} | {:.0} ms | {:.0} ms | {:.0} ms | {:.0} ms | {:.0} ms | {:.0} ms | {:.0} ms | {:.0} ms |\n",
                w.name,
                w.raw_instrs,
                w.compile_ms,
                w.profiling_ms,
                w.trace_ms,
                w.prepare_ms,
                w.lane_machines_ms,
                w.reference_analysis_ms,
                w.stream_ms,
                w.stream_par_ms,
            ));
        }
        // The reference analysis runs its own preparation walk, so the
        // lane side of the comparison is preparation plus machine passes.
        let lane_total: f64 = self
            .workloads
            .iter()
            .map(|w| w.prepare_ms + w.lane_machines_ms)
            .sum();
        let reference_total: f64 = self.workloads.iter().map(|w| w.reference_analysis_ms).sum();
        out.push_str(&format!(
            "\nfull-suite wall time: lane {:.2}s vs reference {:.2}s -> {:.2}x speedup; \
             analysis: reference {:.0} ms vs lane {:.0} ms -> {:.2}x\n\
             (tables identical: {}; streaming bit-identical: {}; lane bit-identical: {}; \
             static-alias bit-identical: {}; value-pred bit-identical: {}; \
             cache roundtrip bit-identical: {}; cache {}; pool {} thread(s); kernel {}; {})\n",
            self.lane_wall_ms / 1e3,
            self.reference_wall_ms / 1e3,
            self.speedup,
            reference_total,
            lane_total,
            reference_total / lane_total.max(f64::MIN_POSITIVE),
            self.reports_match,
            self.stream_matches,
            self.lane_matches,
            self.alias_matches,
            self.valuepred_matches,
            self.cache_matches,
            self.cache,
            self.pool_threads,
            self.manifest.kernel.as_deref().unwrap_or("portable"),
            if self.chunk_events == 0 {
                "adaptive chunks".to_string()
            } else {
                format!("chunk {} events", self.chunk_events)
            },
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Pipeline profile and perf-regression gate
// ---------------------------------------------------------------------------

/// Renders `results/pipeline_profile.md` from one traced
/// [`run_suite_timed`] walk: the drained span log attributed to named
/// pipeline stages, the per-lane-group machine-walk table, and the cache
/// counter totals. The stage table's denominator is the `suite.total`
/// span, so the quoted coverage is of the instrumented suite wall itself,
/// not of whatever the caller did around it.
pub fn pipeline_profile_md(timing: &SuiteTiming, log: &clfp_metrics::trace::TraceLog) -> String {
    use clfp_metrics::trace::{aggregate_spans, ArgValue};

    let total_us = log.span_total_us("suite.total").max(1);
    let stages: Vec<_> = aggregate_spans(log)
        .into_iter()
        .filter(|s| s.name.starts_with("suite.") && s.name != "suite.total")
        .collect();
    let attributed_us: u64 = stages.iter().map(|s| s.total_us).sum();

    let mut out = String::from("# Pipeline profile\n\n");
    out.push_str(&format!(
        "One instrumented `run_suite_timed` walk over the {}-workload suite \
         (trace cap {}, cache {}), recorded by the span tracer and exported \
         by `regen --trace`. Stage spans are synthesized from the same \
         timings `--timing` reports, so the two artifacts agree by \
         construction.\n\n",
        timing.workloads.len(),
        timing.max_instrs,
        timing.cache,
    ));

    out.push_str("## Stage attribution\n\n");
    out.push_str("| stage | spans | total ms | share of suite wall |\n");
    out.push_str("|-------|------:|---------:|--------------------:|\n");
    for s in &stages {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.1}% |\n",
            s.name,
            s.count,
            s.total_us as f64 / 1e3,
            s.total_us as f64 * 100.0 / total_us as f64,
        ));
    }
    out.push_str(&format!(
        "\nAttributed {:.1} ms of the {:.1} ms instrumented suite wall \
         (`suite.total`) to named stages: **{:.1}% coverage**.\n\n",
        attributed_us as f64 / 1e3,
        total_us as f64 / 1e3,
        attributed_us as f64 * 100.0 / total_us as f64,
    ));

    // Per-machine lane attribution: every `lane.group` span is one
    // scheduler group's walk; identical slot signatures (same machines,
    // same width, same key mode) aggregate across workloads and calls.
    struct GroupRow {
        cd: bool,
        width: u64,
        isa: String,
        key_mode: String,
        slots: String,
        walks: u64,
        events: u64,
        chunks: u64,
        busy_us: u64,
    }
    let arg_u64 = |span: &clfp_metrics::trace::SpanEvent, key: &str| match span.arg(key) {
        Some(ArgValue::U64(v)) => *v,
        _ => 0,
    };
    let arg_str = |span: &clfp_metrics::trace::SpanEvent, key: &str| match span.arg(key) {
        Some(ArgValue::Str(v)) => v.clone(),
        _ => String::new(),
    };
    let mut groups: Vec<GroupRow> = Vec::new();
    for span in log.spans().filter(|s| s.name == "lane.group") {
        let cd = matches!(span.arg("cd"), Some(ArgValue::Bool(true)));
        let width = arg_u64(span, "width");
        let isa = arg_str(span, "isa");
        let key_mode = arg_str(span, "key_mode");
        let slots = arg_str(span, "slots");
        let row = groups.iter_mut().find(|g| {
            g.cd == cd
                && g.width == width
                && g.isa == isa
                && g.key_mode == key_mode
                && g.slots == slots
        });
        let row = match row {
            Some(row) => row,
            None => {
                groups.push(GroupRow {
                    cd,
                    width,
                    isa,
                    key_mode,
                    slots,
                    walks: 0,
                    events: 0,
                    chunks: 0,
                    busy_us: 0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        row.walks += 1;
        row.events += arg_u64(span, "events");
        row.chunks += arg_u64(span, "chunks");
        row.busy_us += span.dur_us;
    }
    groups.sort_by_key(|g| std::cmp::Reverse(g.busy_us));

    out.push_str("## Lane-group machine walks\n\n");
    out.push_str(
        "One row per distinct scheduler group (machine slots sharing one \
         kernel walk); `slot` is `index:machine{+u|-u}[*vp]`; `isa` is the \
         kernel build the group ran (multi-lane groups run the AVX-512 build \
         where the CPU has it). Busy time is the group's accumulated feed \
         time, so interleaved groups do not double-count each other.\n\n",
    );
    out.push_str(
        "| slots | cd | width | isa | key mode | walks | events fed | chunks | busy ms |\n",
    );
    out.push_str(
        "|-------|----|------:|-----|----------|------:|-----------:|-------:|--------:|\n",
    );
    for g in &groups {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} | {:.1} |\n",
            g.slots,
            if g.cd { "yes" } else { "no" },
            g.width,
            g.isa,
            g.key_mode,
            g.walks,
            g.events,
            g.chunks,
            g.busy_us as f64 / 1e3,
        ));
    }

    // Counter samples carry the running total at sample time, so the
    // per-name maximum is the total for the traced run.
    let mut counters: Vec<(String, u64)> = Vec::new();
    for record in &log.records {
        if let clfp_metrics::trace::TraceRecord::Counter(c) = record {
            match counters.iter_mut().find(|(name, _)| *name == c.name) {
                Some((_, v)) => *v = (*v).max(c.value),
                None => counters.push((c.name.clone(), c.value)),
            }
        }
    }
    counters.sort();
    if !counters.is_empty() {
        out.push_str("\n## Counters\n\n| counter | total |\n|---------|------:|\n");
        for (name, value) in &counters {
            out.push_str(&format!("| {name} | {value} |\n"));
        }
    }
    out
}

/// Outcome of [`check_perf`]: the per-wall comparison lines (always
/// populated) and the regressions found (empty when the gate passes).
#[derive(Clone, Debug)]
pub struct PerfCheck {
    /// One human-readable line per compared quantity.
    pub lines: Vec<String>,
    /// One line per regression; empty means the gate passed.
    pub regressions: Vec<String>,
}

impl PerfCheck {
    /// Whether the current run is within tolerance of the baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// The first JSON number following `"key":` in `json`, if any. Top-level
/// wall keys appear exactly once in `BENCH_suite.json`, so a line scan is
/// enough — no JSON parser, no dependency.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The first JSON string following `"key":` in `json`, if any.
fn json_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The perf-regression gate behind `regen --check-perf`: compares a fresh
/// [`run_suite_timed`] result against a committed `BENCH_suite.json`
/// baseline. Each pipeline wall (lane, reference) regresses when
/// the current time exceeds baseline × (1 + `tolerance_pct`/100); the
/// current run's bit-identity gates must also all hold. Wall times on a
/// shared host are noisy, so the default tolerance is generous — the gate
/// exists to catch order-of-magnitude pessimizations, not 5% jitter.
///
/// # Errors
///
/// Returns a message (not a regression) when the baseline is unusable:
/// missing wall keys, or produced under a different config hash or
/// kernel build ([`clfp_limits::kernel_isa`]) than the current run —
/// cross-config and cross-build wall times are not comparable. A baseline
/// without a `kernel` field predates the AVX-512 build and ran the
/// portable one.
pub fn check_perf(
    current: &SuiteTiming,
    baseline_json: &str,
    tolerance_pct: f64,
) -> Result<PerfCheck, String> {
    let baseline_hash = json_string(baseline_json, "config_hash")
        .ok_or("baseline has no \"config_hash\" — not a BENCH_suite.json?")?;
    if baseline_hash != current.manifest.config_hash {
        return Err(format!(
            "baseline config hash {baseline_hash} != current {} — \
             regenerate the baseline (or match --max-instrs) before gating",
            current.manifest.config_hash
        ));
    }
    let baseline_kernel = json_string(baseline_json, "kernel");
    let baseline_kernel = baseline_kernel.as_deref().unwrap_or("portable");
    let current_kernel = current.manifest.kernel.as_deref().unwrap_or("portable");
    if baseline_kernel != current_kernel {
        return Err(format!(
            "baseline ran the {baseline_kernel} kernel build, this host runs \
             {current_kernel} — walls differ by about 2x across builds; \
             regenerate the baseline on a host of this kind before gating"
        ));
    }
    let mut check = PerfCheck {
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    for (key, now) in [
        ("lane_wall_ms", current.lane_wall_ms),
        ("reference_wall_ms", current.reference_wall_ms),
    ] {
        let base = json_number(baseline_json, key)
            .ok_or_else(|| format!("baseline has no \"{key}\""))?;
        let limit = base * (1.0 + tolerance_pct / 100.0);
        let verdict = if now <= limit { "ok" } else { "REGRESSED" };
        check.lines.push(format!(
            "{key}: {now:.1} ms vs baseline {base:.1} ms (limit {limit:.1} ms at \
             +{tolerance_pct:.0}%) -- {verdict}"
        ));
        if now > limit {
            check
                .regressions
                .push(format!("{key} {now:.1} ms > limit {limit:.1} ms"));
        }
    }
    for (name, ok) in [
        ("reports_match", current.reports_match),
        ("stream_matches", current.stream_matches),
        ("lane_matches", current.lane_matches),
        ("alias_matches", current.alias_matches),
        ("valuepred_matches", current.valuepred_matches),
        ("cache_matches", current.cache_matches),
    ] {
        if !ok {
            check
                .regressions
                .push(format!("bit-identity gate {name} failed in the current run"));
        }
    }
    Ok(check)
}

// ---------------------------------------------------------------------------
// Streaming scaling suite
// ---------------------------------------------------------------------------

/// One point of the streaming scaling curve: a single workload streamed to
/// `max_instrs` dynamic instructions through the chunked pipeline.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Workload name.
    pub workload: &'static str,
    /// Instruction cap the source was streamed to.
    pub max_instrs: u64,
    /// Raw dynamic instructions actually analyzed (equals `max_instrs`
    /// for a repeated source).
    pub raw_instrs: u64,
    /// End-to-end wall time of the two-pass streamed analysis, in ms.
    pub wall_ms: f64,
    /// Analysis throughput: `raw_instrs / wall seconds`.
    pub events_per_sec: f64,
    /// Peak resident set size of the whole process so far, in MiB
    /// (`VmHWM` from `/proc/self/status`; 0 when unavailable). The
    /// high-water mark is monotone, so points must be visited in
    /// increasing size order for per-point attribution to be meaningful.
    pub peak_rss_mb: f64,
    /// For the smallest point only: whether a plain (non-repeated)
    /// streamed run reproduced the in-memory analysis bit for bit.
    pub matches_inmemory: Option<bool>,
}

/// Results of [`run_scaling_suite`] (`BENCH_scaling.json`): wall time and
/// peak RSS of the streaming chunked pipeline at increasing trace lengths,
/// demonstrating paper-scale (100M-instruction) runs in O(chunk) trace
/// memory.
#[derive(Clone, Debug)]
pub struct ScalingSuite {
    /// Chunk size (events) requested; 0 means the adaptive per-workload
    /// default ([`StreamOptions::resolved_chunk_events`]).
    pub chunk_events: usize,
    /// Worker threads the machine broadcast ran with (resolved).
    pub machine_threads: usize,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Points in increasing `max_instrs` order, workloads interleaved.
    pub points: Vec<ScalingPoint>,
}

/// The process's peak resident set size in MiB, read from the `VmHWM`
/// line of `/proc/self/status`. Returns 0.0 when unavailable (non-Linux).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Streams each named workload to every instruction cap in `points`
/// through the chunked pipeline, synthesizing arbitrarily long traces by
/// repeating the program's deterministic execution
/// ([`ProgramSource::repeated`]). Points are visited in increasing order
/// (across all workloads) because the RSS high-water mark only grows. At
/// the smallest point each workload is additionally cross-checked: a
/// plain single-execution stream must reproduce the in-memory analysis
/// bit for bit.
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures and unknown workload names.
pub fn run_scaling_suite(
    config: &AnalysisConfig,
    workloads: &[&str],
    points: &[u64],
    options: StreamOptions,
) -> Result<ScalingSuite, AnalyzeError> {
    let mut caps: Vec<u64> = points.to_vec();
    caps.sort_unstable();
    let options_vm = clfp_vm::VmOptions {
        mem_words: config.mem_words,
    };
    let mut compiled = Vec::new();
    for &name in workloads {
        let workload = clfp_workloads::by_name(name)
            .map_err(|err| AnalyzeError::BadProgram(format!("unknown workload `{name}`: {err}")))?;
        let program = workload
            .compile()
            .map_err(|err| AnalyzeError::BadProgram(format!("{name}: {err}")))?;
        compiled.push((workload.name, program));
    }

    let mut results = Vec::new();
    for (pi, &limit) in caps.iter().enumerate() {
        for (name, program) in &compiled {
            let analyzer = Analyzer::new(program, config.clone())?;
            let source = ProgramSource::new(program, options_vm, limit).repeated();
            let start = Instant::now();
            let streamed = analyzer.run_streamed_on(&source, options)?;
            let wall_ms = ms(start);
            let raw_instrs = streamed.unrolled.raw_instrs;

            let matches_inmemory = if pi == 0 {
                let mut vm = clfp_vm::Vm::new(program, options_vm);
                let trace = vm.trace(limit)?;
                let prepared = analyzer.prepare(&trace);
                let plain = ProgramSource::new(program, options_vm, limit);
                let check = analyzer.run_streamed_on(&plain, options)?;
                Some(
                    reports_equal(&check.unrolled, &prepared.report_with_unrolling(true))
                        && reports_equal(&check.rolled, &prepared.report_with_unrolling(false))
                        && check.summary == trace.summarize(program),
                )
            } else {
                None
            };

            results.push(ScalingPoint {
                workload: name,
                max_instrs: limit,
                raw_instrs,
                wall_ms,
                events_per_sec: raw_instrs as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE),
                peak_rss_mb: peak_rss_mb(),
                matches_inmemory,
            });
        }
    }

    let machine_threads = if options.machine_threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        options.machine_threads
    };
    Ok(ScalingSuite {
        chunk_events: options.chunk_events,
        machine_threads,
        manifest: suite_manifest(config).with_kernel(clfp_limits::kernel_isa()),
        points: results,
    })
}

impl ScalingSuite {
    /// Serializes the curve as JSON (`BENCH_scaling.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"suite\": \"streaming scaling: wall time and peak RSS vs trace length\",\n",
        );
        out.push_str(&format!("  \"chunk_events\": {},\n", self.chunk_events));
        out.push_str(&format!(
            "  \"machine_threads\": {},\n",
            self.machine_threads
        ));
        out.push_str(&format!(
            "  \"manifest\": {},\n",
            self.manifest.to_json_object("  ")
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"max_instrs\": {}, \"raw_instrs\": {}, \
                 \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}, \"peak_rss_mb\": {:.1}, \
                 \"matches_inmemory\": {}}}{}\n",
                p.workload,
                p.max_instrs,
                p.raw_instrs,
                p.wall_ms,
                p.events_per_sec,
                p.peak_rss_mb,
                p.matches_inmemory
                    .map_or("null".to_string(), |m| m.to_string()),
                if i + 1 == self.points.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "## Streaming Scaling: wall time and peak RSS vs trace length\n\n\
             | workload | instrs | wall | Minstrs/s | peak RSS | in-memory match |\n\
             |----------|--------|------|-----------|----------|-----------------|\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "| {} | {} | {:.1} s | {:.1} | {:.0} MiB | {} |\n",
                p.workload,
                p.max_instrs,
                p.wall_ms / 1e3,
                p.events_per_sec / 1e6,
                p.peak_rss_mb,
                p.matches_inmemory
                    .map_or("-".to_string(), |m| m.to_string()),
            ));
        }
        let chunks = if self.chunk_events == 0 {
            "adaptive chunks".to_string()
        } else {
            format!("chunk {} events", self.chunk_events)
        };
        out.push_str(&format!(
            "\n{chunks}, {} machine worker(s); RSS is the process \
             high-water mark (monotone across points)\n",
            self.machine_threads,
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Lint & cross-check suite
// ---------------------------------------------------------------------------

/// Accepts all diagnostics of one kind, optionally scoped to one workload.
///
/// Waivers exist for code-quality findings about the *measured programs*
/// (the MiniC workloads) that are understood and do not affect the limit
/// analysis. [`Severity::Error`] diagnostics can never be waived: they mean
/// the static model and the dynamic behavior disagree.
#[derive(Clone, Copy, Debug)]
pub struct Waiver {
    /// Workload name, or `None` to match every workload.
    pub workload: Option<&'static str>,
    /// The diagnostic kind being accepted.
    pub kind: DiagnosticKind,
    /// Why this finding is acceptable.
    pub reason: &'static str,
}

/// The standing waivers for the benchmark suite, with reasons.
///
/// Re-audited when the alias-region lints landed: the whole suite is
/// clean under `never-stored-region-load` and `region-dead-store` (every
/// workload initializes the regions it reads and reads the regions it
/// writes — results are reduced into `v0`, not stored and abandoned), so
/// neither kind needs a waiver. The two waivers below remain the only
/// accepted findings, and `alias-soundness-violation` joins the
/// error-severity kinds that can never be waived.
pub const SUITE_WAIVERS: &[Waiver] = &[
    Waiver {
        workload: None,
        kind: DiagnosticKind::DeadStore,
        reason: "MiniC codegen is deliberately naive (no DCE): every \
                 expression result is materialized into a register even \
                 when nothing reads it, e.g. a call used as a statement; \
                 harmless extra work in the measured program",
    },
    Waiver {
        workload: None,
        kind: DiagnosticKind::UnreachableBlock,
        reason: "MiniC emits a fallback `return 0` (li v0, 0) after every \
                 function body; when all paths already returned, the \
                 fallback block is jumped over, dead by construction, and \
                 never traced",
    },
];

/// Looks up a waiver for a diagnostic. Errors are never waived.
pub fn waiver_for(workload: &str, diagnostic: &Diagnostic) -> Option<&'static str> {
    if diagnostic.severity() == Severity::Error {
        return None;
    }
    SUITE_WAIVERS
        .iter()
        .find(|w| w.kind == diagnostic.kind && w.workload.is_none_or(|name| name == workload))
        .map(|w| w.reason)
}

/// One diagnostic plus its waiver status.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// The finding itself.
    pub diagnostic: Diagnostic,
    /// The standing waiver covering it, if any.
    pub waived_reason: Option<&'static str>,
}

/// Lint and cross-check results for one workload.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Workload name.
    pub name: &'static str,
    /// Raw dynamic instructions in the checked trace.
    pub raw_instrs: u64,
    /// Sequential instructions with perfect unrolling.
    pub seq_unrolled: u64,
    /// Sequential instructions without unrolling.
    pub seq_rolled: u64,
    /// Every diagnostic, static and dynamic, with waiver status.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Findings not covered by a waiver.
    pub fn outstanding(&self) -> impl Iterator<Item = &LintFinding> {
        self.findings.iter().filter(|f| f.waived_reason.is_none())
    }

    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.diagnostic.severity() == severity)
            .count()
    }
}

/// Results of [`run_lint_suite`]: every workload linted statically and
/// cross-checked dynamically for both unroll settings.
#[derive(Clone, Debug)]
pub struct LintSuite {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<LintReport>,
}

/// Lints one workload and cross-checks its trace against the static model.
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures (not diagnostics).
pub fn lint_workload(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<LintReport, AnalyzeError> {
    let program = workload
        .compile()
        .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))?;
    // Only the sequential counts are needed from the machine passes, and
    // they are machine-independent: analyze the cheapest model.
    let lint_config = AnalysisConfig {
        machines: vec![MachineKind::Base],
        ..config.clone()
    };
    let analyzer = Analyzer::new(&program, lint_config)?;
    let info = analyzer.static_info();

    let mut diagnostics = lint_program(&program, info);

    let (trace, _warm) = measured_trace(&program, config)?;
    let prepared = analyzer.prepare(&trace);
    let checks = TraceChecks::new(&program, info);
    diagnostics.extend(checks.check_edges(&trace));
    diagnostics.extend(checks.check_cd_sources(&trace, prepared.cd_sources()));
    diagnostics.extend(checks.check_unroll_masks(&trace));
    diagnostics.extend(checks.check_alias_soundness(&trace));
    let unrolled = prepared.report_with_unrolling(true);
    let rolled = prepared.report_with_unrolling(false);
    diagnostics.extend(checks.check_seq_count(&trace, true, unrolled.seq_instrs));
    diagnostics.extend(checks.check_seq_count(&trace, false, rolled.seq_instrs));

    Ok(LintReport {
        name: workload.name,
        raw_instrs: trace.len() as u64,
        seq_unrolled: unrolled.seq_instrs,
        seq_rolled: rolled.seq_instrs,
        findings: diagnostics
            .into_iter()
            .map(|diagnostic| LintFinding {
                waived_reason: waiver_for(workload.name, &diagnostic),
                diagnostic,
            })
            .collect(),
    })
}

/// Lints every suite workload and cross-checks its trace for both unroll
/// settings, fanning out over [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure. Diagnostics are data,
/// not errors; inspect [`LintSuite::is_clean`].
pub fn run_lint_suite(config: &AnalysisConfig) -> Result<LintSuite, AnalyzeError> {
    Ok(LintSuite {
        max_instrs: config.max_instrs,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| lint_workload(workload, config))?,
    })
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<char>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl LintSuite {
    /// Whether every diagnostic across the suite is either absent or
    /// covered by a standing waiver. The lint gate passes only when true.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.outstanding().next().is_none())
    }

    /// Serializes the results as JSON (`results/lint_suite.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"suite\": \"static lint + static/dynamic cross-check\",\n");
        out.push_str(&format!("  \"max_instrs\": {},\n", self.max_instrs));
        out.push_str("  \"unroll_settings\": [false, true],\n");
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str(&format!(
            "  \"manifest\": {},\n",
            self.manifest.to_json_object("  ")
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, report) in self.reports.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"raw_instrs\": {}, \
                 \"seq_instrs_unrolled\": {}, \"seq_instrs_rolled\": {}, \
                 \"errors\": {}, \"warnings\": {}, \"infos\": {},\n",
                report.name,
                report.raw_instrs,
                report.seq_unrolled,
                report.seq_rolled,
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Info),
            ));
            out.push_str("     \"diagnostics\": [");
            for (j, finding) in report.findings.iter().enumerate() {
                let d = &finding.diagnostic;
                out.push_str(&format!(
                    "\n       {{\"kind\": \"{}\", \"severity\": \"{}\", \"pc\": {}, \
                     \"message\": \"{}\", \"waived\": {}, \"waiver_reason\": {}}}{}",
                    d.kind,
                    d.severity(),
                    d.pc.map_or("null".to_string(), |pc| pc.to_string()),
                    json_escape(&d.message),
                    finding.waived_reason.is_some(),
                    finding
                        .waived_reason
                        .map_or("null".to_string(), |r| format!("\"{}\"", json_escape(r))),
                    if j + 1 == report.findings.len() { "\n     " } else { "," },
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 == self.reports.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "## Lint & Cross-Check Suite\n\n\
             | workload | raw instrs | seq (unrolled) | errors | warnings | infos | waived | status |\n\
             |----------|------------|----------------|--------|----------|-------|--------|--------|\n",
        );
        for report in &self.reports {
            let waived = report
                .findings
                .iter()
                .filter(|f| f.waived_reason.is_some())
                .count();
            let outstanding = report.outstanding().count();
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                report.name,
                report.raw_instrs,
                report.seq_unrolled,
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Info),
                waived,
                if outstanding == 0 { "clean" } else { "FAIL" },
            ));
        }
        let mut outstanding: Vec<(&str, &LintFinding)> = Vec::new();
        for report in &self.reports {
            outstanding.extend(report.outstanding().map(|f| (report.name, f)));
        }
        if outstanding.is_empty() {
            out.push_str(
                "\nall diagnostics clean or covered by standing waivers \
                 (see SUITE_WAIVERS)\n",
            );
        } else {
            out.push_str("\noutstanding diagnostics:\n");
            for (name, finding) in outstanding {
                out.push_str(&format!("  {name}: {}\n", finding.diagnostic));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Memory-disambiguation suite
// ---------------------------------------------------------------------------

/// Results for one workload across the memory-disambiguation axis:
/// the same measured trace scheduled under perfect (by-address), static
/// (alias-class), and no disambiguation, plus the soundness and
/// pipeline-agreement gates for the static mode.
#[derive(Clone, Debug)]
pub struct AliasWorkloadReport {
    /// The workload.
    pub workload: Workload,
    /// Raw dynamic instructions in the measured trace.
    pub raw_instrs: u64,
    /// Scheduler classes the alias analysis partitioned memory into.
    pub num_classes: u32,
    /// Unrolled report per mode, in [`MemDisambiguation::ALL`] order.
    pub reports: Vec<(MemDisambiguation, Report)>,
    /// Dynamic alias-soundness check over the in-memory trace: no
    /// observed address conflict fell on a statically no-alias pair.
    pub sound_inmemory: bool,
    /// The same check through the chunked streaming walker.
    pub sound_streamed: bool,
    /// Whether the one-walk matrix lanes, the static-mode slice, and (on
    /// the first workload) the reference pass and the streaming pipeline
    /// produced bit-identical reports under `Static` disambiguation.
    pub pipelines_agree: bool,
}

impl AliasWorkloadReport {
    /// The unrolled report for `mode`.
    pub fn report_for(&self, mode: MemDisambiguation) -> &Report {
        &self
            .reports
            .iter()
            .find(|(m, _)| *m == mode)
            .expect("every mode was run")
            .1
    }
}

/// Results of [`run_alias_suite`] (`results/disambiguation.md`): every
/// workload scheduled under all three memory-disambiguation modes, with
/// the dynamic soundness gate and the static-mode pipeline-agreement
/// gate.
#[derive(Clone, Debug)]
pub struct AliasSuite {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Chunk size (events) used by the streamed soundness check.
    pub chunk_events: usize,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<AliasWorkloadReport>,
}

/// Chunk size the streamed alias-soundness gate re-walks each trace with.
const ALIAS_GATE_CHUNK_EVENTS: usize = 4096;

/// Analyzes one workload under all three disambiguation modes from a
/// single measured trace, a single preparation walk, and a single
/// multi-config scheduling walk
/// ([`PreparedTrace::report_mode_matrix`](clfp_limits::PreparedTrace::report_mode_matrix)),
/// and runs the soundness + pipeline gates.
///
/// On every workload the matrix's static lanes, which remap memory keys
/// per group, must equal a one-walk report over the static-mode slice of
/// the same preparation. `full_oracle` additionally prices the reference
/// pass rerun from scratch under static disambiguation (the independent
/// oracle) and a small-chunk streamed pass; [`run_alias_suite`] enables
/// it on the first workload (`slice_modes` itself is pinned
/// bit-identical to a dedicated preparation by
/// `mode_slices_match_dedicated_preparation`).
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures.
pub fn alias_workload(
    workload: Workload,
    config: &AnalysisConfig,
    full_oracle: bool,
) -> Result<AliasWorkloadReport, AnalyzeError> {
    let program = workload
        .compile()
        .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))?;
    let (trace, _warm) = measured_trace(&program, config)?;

    // One preparation under the perfect-disambiguation base; the coarser
    // modes become extra lanes of the same scheduling walk
    // (`report_mode_matrix`), replacing the three per-mode preparations
    // this suite used to run.
    let analyzer = Analyzer::new(
        &program,
        config
            .clone()
            .with_disambiguation(MemDisambiguation::Perfect),
    )?;
    let prepared = analyzer.prepare(&trace);

    // The alias analysis and the dynamic soundness gate are
    // mode-independent; run them once.
    let info = analyzer.static_info();
    let num_classes = info.alias.num_classes();
    let checks = TraceChecks::new(&program, info);
    let sound_inmemory = checks.check_alias_soundness(&trace).is_empty();
    let sound_streamed = checks
        .check_alias_soundness_source(&trace, ALIAS_GATE_CHUNK_EVENTS)?
        .is_empty();

    let modes: Vec<(MemDisambiguation, ValuePrediction)> = MemDisambiguation::ALL
        .iter()
        .map(|&mode| (mode, config.value_prediction))
        .collect();
    let matrix = prepared.report_mode_matrix(&modes);

    let mut reports = Vec::new();
    let mut pipelines_agree = true;
    for (&mode, (unrolled, rolled)) in MemDisambiguation::ALL.iter().zip(matrix) {
        if mode == MemDisambiguation::Static {
            // Every workload: the matrix lanes (memory keys remapped per
            // group) against a walk over the static-mode slice of the
            // same preparation (memory keys rewritten per event).
            let (sliced_unrolled, sliced_rolled) = prepared
                .slice_modes(mode, config.value_prediction)
                .report_both();
            pipelines_agree = reports_equal(&unrolled, &sliced_unrolled)
                && reports_equal(&rolled, &sliced_rolled);
            if full_oracle {
                // First workload: the reference pass, which derives its
                // own alias-class keys from the raw trace, and the
                // small-chunk streaming pipeline over a from-scratch
                // static-mode preparation. All must serialize the same
                // alias classes.
                let static_config = config.clone().with_disambiguation(mode);
                let streamed = Analyzer::new(&program, static_config.clone())?.run_streamed_on(
                    &trace,
                    StreamOptions {
                        chunk_events: ALIAS_GATE_CHUNK_EVENTS,
                        machine_threads: 1,
                        par_threshold_events: 0,
                    },
                )?;
                pipelines_agree = pipelines_agree
                    && matches_reference(&unrolled, &rolled, &program, &trace, &static_config)?
                    && reports_equal(&streamed.unrolled, &unrolled)
                    && reports_equal(&streamed.rolled, &rolled);
            }
        }
        reports.push((mode, unrolled));
    }

    Ok(AliasWorkloadReport {
        workload,
        raw_instrs: trace.len() as u64,
        num_classes,
        reports,
        sound_inmemory,
        sound_streamed,
        pipelines_agree,
    })
}

/// Runs the whole suite across the disambiguation axis, fanning out over
/// [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure.
pub fn run_alias_suite(config: &AnalysisConfig) -> Result<AliasSuite, AnalyzeError> {
    let oracle_on = suite().first().map(|w| w.name);
    Ok(AliasSuite {
        max_instrs: config.max_instrs,
        chunk_events: ALIAS_GATE_CHUNK_EVENTS,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| {
            alias_workload(workload, config, Some(workload.name) == oracle_on)
        })?,
    })
}

impl AliasSuite {
    /// Whether the dynamic soundness gate passed on every workload,
    /// through both the in-memory and the streamed walker.
    pub fn is_sound(&self) -> bool {
        self.reports
            .iter()
            .all(|r| r.sound_inmemory && r.sound_streamed)
    }

    /// Whether the static-mode pipelines agreed bit for bit everywhere.
    pub fn pipelines_agree(&self) -> bool {
        self.reports.iter().all(|r| r.pipelines_agree)
    }

    fn mode_table(&self, mode: MemDisambiguation) -> String {
        let mut out = String::from(
            "| program | BASE | CD | CD-MF | SP | SP-CD | SP-CD-MF | ORACLE |\n\
             |---------|------|----|-------|----|-------|----------|--------|\n",
        );
        for r in &self.reports {
            let report = r.report_for(mode);
            let mut line = format!("| {} |", r.workload.name);
            for kind in MachineKind::ALL {
                line.push_str(&format!(" {} |", fmt_parallelism(report.parallelism(kind))));
            }
            line.push('\n');
            out.push_str(&line);
        }
        let mut line = String::from("| **harmonic mean** |");
        for kind in MachineKind::ALL {
            let hm = harmonic_mean(
                self.reports
                    .iter()
                    .map(|r| r.report_for(mode).parallelism(kind)),
            );
            line.push_str(&format!(" {} |", fmt_parallelism(hm)));
        }
        line.push('\n');
        out.push_str(&line);
        out
    }

    /// The disambiguation-axis report (`results/disambiguation.md`):
    /// parallelism per machine under each mode, per-workload retention
    /// relative to perfect disambiguation, and the gate results.
    pub fn disambiguation_md(&self) -> String {
        let mut out = String::from(
            "## Memory Disambiguation: Perfect vs Static vs None\n\n\
             The paper assumes *perfect* memory disambiguation: a load\n\
             depends on a store only when they touched the same dynamic\n\
             address. `static` replaces the oracle with the interprocedural\n\
             alias analysis — accesses are keyed by their static alias\n\
             class, so any may-aliased pair serializes. `none` keys every\n\
             access to one location: all of memory is a single dependence\n\
             chain. Parallelism below is with perfect unrolling, harmonic\n\
             mean over all programs.\n",
        );
        for (mode, blurb) in [
            (
                MemDisambiguation::Perfect,
                "oracle, by dynamic address (the paper's model)",
            ),
            (
                MemDisambiguation::Static,
                "alias classes from the interprocedural analysis",
            ),
            (MemDisambiguation::None, "memory as a single location"),
        ] {
            out.push_str(&format!("\n### `{}`: {}\n\n", mode.name(), blurb));
            out.push_str(&self.mode_table(mode));
        }

        out.push_str(
            "\n### Retention on SP-CD-MF\n\n\
             How much of the perfect-disambiguation parallelism each\n\
             weaker mode keeps, on the machine where memory dependences\n\
             bind tightest. `classes` is the number of scheduler classes\n\
             the analysis partitioned the program's memory into. Under\n\
             the coarse modes a load waits for *every* earlier\n\
             may-aliasing store (the table accumulates a running max),\n\
             so the modes are strictly ordered: refining the key\n\
             partition can only remove constraints, and\n\
             `perfect >= static >= none` holds pointwise.\n\n\
             | program | classes | perfect | static | static/perfect | none | none/perfect |\n\
             |---------|---------|---------|--------|----------------|------|--------------|\n",
        );
        for r in &self.reports {
            let kind = MachineKind::SpCdMf;
            let perfect = r.report_for(MemDisambiguation::Perfect).parallelism(kind);
            let stat = r.report_for(MemDisambiguation::Static).parallelism(kind);
            let none = r.report_for(MemDisambiguation::None).parallelism(kind);
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.0}% | {} | {:.0}% |\n",
                r.workload.name,
                r.num_classes,
                fmt_parallelism(perfect),
                fmt_parallelism(stat),
                100.0 * stat / perfect,
                fmt_parallelism(none),
                100.0 * none / perfect,
            ));
        }

        out.push_str(&format!(
            "\n### Gates\n\n\
             - alias soundness, in-memory walker: **{}**\n\
             - alias soundness, streamed walker (chunk {} events): **{}**\n\
             - static-mode pipelines bit-identical (one-walk matrix vs \
             static slice on every workload; reference pass and streamed \
             pipeline on the first): **{}**\n",
            if self.reports.iter().all(|r| r.sound_inmemory) {
                "pass"
            } else {
                "FAIL"
            },
            self.chunk_events,
            if self.reports.iter().all(|r| r.sound_streamed) {
                "pass"
            } else {
                "FAIL"
            },
            if self.pipelines_agree() { "pass" } else { "FAIL" },
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Value-prediction suite
// ---------------------------------------------------------------------------

/// Results for one workload across the value-prediction axis: the same
/// measured trace scheduled with value speculation off, under the
/// realistic last-value and stride predictors, and with a perfect value
/// oracle, plus the monotonicity and pipeline-agreement gates.
#[derive(Clone, Debug)]
pub struct ValuePredWorkloadReport {
    /// The workload.
    pub workload: Workload,
    /// Raw dynamic instructions in the measured trace.
    pub raw_instrs: u64,
    /// Unrolled report per mode, in [`ValuePrediction::ALL`] order.
    pub reports: Vec<(ValuePrediction, Report)>,
    /// Whether the `clfp-verify` monotonicity check passed over both
    /// unroll settings: a stronger mode never produced a longer critical
    /// path on any machine.
    pub monotone: bool,
    /// Whether the one-walk matrix lanes, the stride-mode slice, and (on
    /// the first workload) the reference pass and the streaming pipeline
    /// produced bit-identical reports under `Stride` value prediction.
    pub pipelines_agree: bool,
}

impl ValuePredWorkloadReport {
    /// The unrolled report for `mode`.
    pub fn report_for(&self, mode: ValuePrediction) -> &Report {
        &self
            .reports
            .iter()
            .find(|(m, _)| *m == mode)
            .expect("every mode was run")
            .1
    }

    /// The predictor hit rate measured for `mode` during the
    /// preparation walk, as a percentage of def-producing events
    /// (100% for `Perfect`, 0% for `Off`).
    pub fn hit_rate(&self, mode: ValuePrediction) -> f64 {
        self.report_for(mode).branches.value_prediction_rate()
    }
}

/// Results of [`run_valuepred_suite`] (`results/value_prediction.md`):
/// every workload scheduled under all four value-prediction modes, with
/// the monotonicity gate and the stride-mode pipeline-agreement gate.
#[derive(Clone, Debug)]
pub struct ValuePredSuite {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Chunk size (events) used by the streamed agreement gate.
    pub chunk_events: usize,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<ValuePredWorkloadReport>,
}

/// Chunk size the streamed value-prediction agreement gate re-runs each
/// trace with.
const VALUEPRED_GATE_CHUNK_EVENTS: usize = 4096;

/// Analyzes one workload under all four value-prediction modes from a
/// single measured trace, a single preparation walk, and a single
/// multi-config scheduling walk
/// ([`PreparedTrace::report_mode_matrix`](clfp_limits::PreparedTrace::report_mode_matrix)),
/// and runs the monotonicity + pipeline gates.
///
/// On every workload the matrix's stride lanes, which mask a per-lane
/// hit bit, must equal a one-walk report over the stride-mode slice of
/// the same preparation. `full_oracle` additionally prices the reference
/// pass rerun from scratch under stride prediction (it replays the
/// predictor independently) and a small-chunk streamed pass;
/// [`run_valuepred_suite`] enables it on the first workload
/// (`slice_modes` itself is pinned bit-identical to a dedicated
/// preparation by `mode_slices_match_dedicated_preparation`).
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures.
pub fn valuepred_workload(
    workload: Workload,
    config: &AnalysisConfig,
    full_oracle: bool,
) -> Result<ValuePredWorkloadReport, AnalyzeError> {
    let program = workload
        .compile()
        .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))?;
    let (trace, _warm) = measured_trace(&program, config)?;

    // One preparation under the perfect-disambiguation base trains every
    // realistic predictor on the trace; the four prediction modes then
    // run as extra lanes of one scheduling walk (`report_mode_matrix`),
    // replacing the four per-mode preparations this suite used to run.
    let analyzer = Analyzer::new(
        &program,
        config
            .clone()
            .with_disambiguation(MemDisambiguation::Perfect),
    )?;
    let prepared = analyzer.prepare_multimode(&trace);
    let modes: Vec<(MemDisambiguation, ValuePrediction)> = ValuePrediction::ALL
        .iter()
        .map(|&mode| (config.disambiguation, mode))
        .collect();
    let matrix = prepared.report_mode_matrix(&modes);

    let mut unrolled_reports = Vec::new();
    let mut rolled_reports = Vec::new();
    let mut pipelines_agree = true;
    for (&mode, (unrolled, rolled)) in ValuePrediction::ALL.iter().zip(matrix) {
        if mode == ValuePrediction::Stride {
            // Every workload: the matrix lanes (a per-lane hit bit)
            // against a walk over the stride-mode slice of the same
            // preparation (the configured mode's hit bit).
            let (sliced_unrolled, sliced_rolled) = prepared
                .slice_modes(config.disambiguation, mode)
                .report_both();
            pipelines_agree = reports_equal(&unrolled, &sliced_unrolled)
                && reports_equal(&rolled, &sliced_rolled);
            if full_oracle {
                // First workload: the reference pass, which replays the
                // predictor independently, and the small-chunk streaming
                // pipeline over a from-scratch stride-mode preparation
                // (its own predictor tables) must land on the same
                // schedules.
                let vp_config = config.clone().with_value_prediction(mode);
                let streamed = Analyzer::new(&program, vp_config.clone())?.run_streamed_on(
                    &trace,
                    StreamOptions {
                        chunk_events: VALUEPRED_GATE_CHUNK_EVENTS,
                        machine_threads: 1,
                        par_threshold_events: 0,
                    },
                )?;
                pipelines_agree = pipelines_agree
                    && matches_reference(&unrolled, &rolled, &program, &trace, &vp_config)?
                    && reports_equal(&streamed.unrolled, &unrolled)
                    && reports_equal(&streamed.rolled, &rolled);
            }
        }
        unrolled_reports.push((mode, unrolled));
        rolled_reports.push(rolled);
    }

    let unrolled_refs: Vec<(ValuePrediction, &Report)> = unrolled_reports
        .iter()
        .map(|(mode, report)| (*mode, report))
        .collect();
    let rolled_refs: Vec<(ValuePrediction, &Report)> = ValuePrediction::ALL
        .iter()
        .copied()
        .zip(rolled_reports.iter())
        .collect();
    let monotone = check_valuepred_monotonicity(&unrolled_refs).is_empty()
        && check_valuepred_monotonicity(&rolled_refs).is_empty();

    Ok(ValuePredWorkloadReport {
        workload,
        raw_instrs: trace.len() as u64,
        reports: unrolled_reports,
        monotone,
        pipelines_agree,
    })
}

/// Runs the whole suite across the value-prediction axis, fanning out
/// over [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure.
pub fn run_valuepred_suite(config: &AnalysisConfig) -> Result<ValuePredSuite, AnalyzeError> {
    let oracle_on = suite().first().map(|w| w.name);
    Ok(ValuePredSuite {
        max_instrs: config.max_instrs,
        chunk_events: VALUEPRED_GATE_CHUNK_EVENTS,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| {
            valuepred_workload(workload, config, Some(workload.name) == oracle_on)
        })?,
    })
}

impl ValuePredSuite {
    /// Whether the monotonicity gate passed on every workload: a
    /// stronger mode never lengthened any machine's critical path.
    pub fn is_monotone(&self) -> bool {
        self.reports.iter().all(|r| r.monotone)
    }

    /// Whether the stride-mode pipelines agreed bit for bit everywhere.
    pub fn pipelines_agree(&self) -> bool {
        self.reports.iter().all(|r| r.pipelines_agree)
    }

    fn mode_table(&self, mode: ValuePrediction) -> String {
        let mut out = String::from(
            "| program | BASE | CD | CD-MF | SP | SP-CD | SP-CD-MF | ORACLE |\n\
             |---------|------|----|-------|----|-------|----------|--------|\n",
        );
        for r in &self.reports {
            let report = r.report_for(mode);
            let mut line = format!("| {} |", r.workload.name);
            for kind in MachineKind::ALL {
                line.push_str(&format!(" {} |", fmt_parallelism(report.parallelism(kind))));
            }
            line.push('\n');
            out.push_str(&line);
        }
        let mut line = String::from("| **harmonic mean** |");
        for kind in MachineKind::ALL {
            let hm = harmonic_mean(
                self.reports
                    .iter()
                    .map(|r| r.report_for(mode).parallelism(kind)),
            );
            line.push_str(&format!(" {} |", fmt_parallelism(hm)));
        }
        line.push('\n');
        out.push_str(&line);
        out
    }

    /// The value-prediction-axis report (`results/value_prediction.md`):
    /// parallelism per machine under each mode, per-workload retention
    /// relative to the perfect value oracle, and the gate results.
    pub fn value_prediction_md(&self) -> String {
        let mut out = String::from(
            "## Value Prediction: Off vs Last-Value vs Stride vs Perfect\n\n\
             The paper's machines never speculate on *data*: a consumer\n\
             always waits for its producer's result. This axis relaxes\n\
             that. A correctly predicted register definition publishes\n\
             availability 0 — consumers proceed as if the value were\n\
             known at fetch — while a mispredicted one publishes its\n\
             real completion time, charging verification at resolve time\n\
             exactly like a mispredicted branch charges the sequential\n\
             machines. `last-value` and `stride` are trained on the\n\
             measured trace during the shared preparation walk;\n\
             `perfect` is the oracle upper bound. Parallelism below is\n\
             with perfect unrolling, harmonic mean over all programs.\n",
        );
        for (mode, blurb) in [
            (
                ValuePrediction::Off,
                "no value speculation (the paper's model)",
            ),
            (
                ValuePrediction::LastValue,
                "per-pc last-value predictor, trained on the trace",
            ),
            (
                ValuePrediction::Stride,
                "hybrid last-value + stride predictor (its correct set \
                 contains last-value's)",
            ),
            (ValuePrediction::Perfect, "oracle, every definition predicted"),
        ] {
            out.push_str(&format!("\n### `{}`: {}\n\n", mode.name(), blurb));
            out.push_str(&self.mode_table(mode));
        }

        out.push_str(
            "\n### Retention on SP-CD-MF\n\n\
             How much of the perfect-value-oracle parallelism each mode\n\
             reaches, on the machine where data dependences are the\n\
             binding constraint. `hit` is the predictor's measured hit\n\
             rate over the trace's register definitions. The modes'\n\
             correct sets nest (off ⊆ last-value ⊆ stride ⊆ perfect),\n\
             so every column is pointwise ordered.\n\n\
             | program | off | off/perfect | last-value | hit | stride | hit | stride/perfect | perfect |\n\
             |---------|-----|-------------|------------|-----|--------|-----|----------------|---------|\n",
        );
        for r in &self.reports {
            let kind = MachineKind::SpCdMf;
            let off = r.report_for(ValuePrediction::Off).parallelism(kind);
            let last = r.report_for(ValuePrediction::LastValue).parallelism(kind);
            let stride = r.report_for(ValuePrediction::Stride).parallelism(kind);
            let perfect = r.report_for(ValuePrediction::Perfect).parallelism(kind);
            out.push_str(&format!(
                "| {} | {} | {:.0}% | {} | {:.0}% | {} | {:.0}% | {:.0}% | {} |\n",
                r.workload.name,
                fmt_parallelism(off),
                100.0 * off / perfect,
                fmt_parallelism(last),
                r.hit_rate(ValuePrediction::LastValue),
                fmt_parallelism(stride),
                r.hit_rate(ValuePrediction::Stride),
                100.0 * stride / perfect,
                fmt_parallelism(perfect),
            ));
        }

        out.push_str(&format!(
            "\n### Gates\n\n\
             - monotonicity (perfect >= stride >= last-value >= off, \
             pointwise, both unroll settings): **{}**\n\
             - stride-mode pipelines bit-identical (one-walk matrix vs \
             stride slice on every workload; reference pass and streamed \
             chunk {} events on the first): **{}**\n",
            if self.is_monotone() { "pass" } else { "FAIL" },
            self.chunk_events,
            if self.pipelines_agree() { "pass" } else { "FAIL" },
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Execution-metrics suite
// ---------------------------------------------------------------------------

/// Per-machine execution metrics for one workload: the instruction mix of
/// its measured trace plus, for every machine model, the recorded-schedule
/// metrics from `clfp-metrics` (occupancy, critical-path attribution,
/// binding-edge counters).
#[derive(Clone, Debug)]
pub struct WorkloadMetrics {
    /// Workload name.
    pub name: &'static str,
    /// Raw dynamic instructions in the measured trace.
    pub raw_instrs: u64,
    /// Scheduled instructions after inlining/unrolling removal.
    pub seq_instrs: u64,
    /// Instruction-mix summary of the measured trace.
    pub trace: TraceSummary,
    /// Per-machine metrics, in `MachineKind::ALL` order.
    pub machines: Vec<(MachineKind, MachineMetrics)>,
}

/// Results of [`run_metrics_suite`]: every workload re-analyzed with the
/// recording metrics sink (`results/metrics_suite.json` and
/// `results/attribution.md`).
#[derive(Clone, Debug)]
pub struct MetricsSuite {
    /// Trace cap used.
    pub max_instrs: u64,
    /// Unroll setting the metrics were collected under.
    pub unrolling: bool,
    /// Provenance of this run (config hash, git describe, timestamp).
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub reports: Vec<WorkloadMetrics>,
}

/// Collects execution metrics for one workload: one trace, one
/// preparation walk, then every configured machine with the recording
/// sink.
///
/// # Errors
///
/// Propagates compile/VM/analyzer failures.
pub fn metrics_workload(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<WorkloadMetrics, AnalyzeError> {
    let program = workload
        .compile()
        .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))?;
    let analyzer = Analyzer::new(&program, config.clone())?;
    let (trace, _warm) = measured_trace(&program, config)?;
    let summary = trace.summarize(&program);
    let machines = analyzer.prepare(&trace).machine_metrics();
    let seq_instrs = machines.first().map_or(0, |(_, m)| m.instrs);
    Ok(WorkloadMetrics {
        name: workload.name,
        raw_instrs: trace.len() as u64,
        seq_instrs,
        trace: summary,
        machines,
    })
}

/// Runs the whole suite with the recording metrics sink, fanning out over
/// [`par_map_suite`].
///
/// # Errors
///
/// Propagates the first compile/VM/analyzer failure.
pub fn run_metrics_suite(config: &AnalysisConfig) -> Result<MetricsSuite, AnalyzeError> {
    Ok(MetricsSuite {
        max_instrs: config.max_instrs,
        unrolling: config.unrolling,
        manifest: suite_manifest(config),
        reports: par_map_suite(|workload| metrics_workload(workload, config))?,
    })
}

impl MetricsSuite {
    /// Serializes the results as JSON (`results/metrics_suite.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"suite\": \"per-machine execution metrics\",\n");
        out.push_str(&format!("  \"max_instrs\": {},\n", self.max_instrs));
        out.push_str(&format!("  \"unrolling\": {},\n", self.unrolling));
        out.push_str(&format!(
            "  \"manifest\": {},\n",
            self.manifest.to_json_object("  ")
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.reports.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"raw_instrs\": {}, \"seq_instrs\": {},\n",
                w.name, w.raw_instrs, w.seq_instrs
            ));
            let t = &w.trace;
            out.push_str(&format!(
                "     \"trace\": {{\"cond_branches\": {}, \"taken_branches\": {}, \
                 \"loads\": {}, \"stores\": {}, \"calls\": {}, \"returns\": {}, \
                 \"max_call_depth\": {}, \"distinct_mem_words\": {}}},\n",
                t.cond_branches,
                t.taken_branches,
                t.loads,
                t.stores,
                t.calls,
                t.returns,
                t.max_call_depth,
                t.distinct_mem_words,
            ));
            out.push_str("     \"machines\": [\n");
            for (j, (kind, m)) in w.machines.iter().enumerate() {
                let attr = &m.attribution;
                out.push_str(&format!(
                    "       {{\"machine\": \"{}\", \"cycles\": {}, \"instrs\": {}, \
                     \"parallelism\": {:.2},\n",
                    kind.name(),
                    m.cycles,
                    m.instrs,
                    m.parallelism(),
                ));
                out.push_str(&format!(
                    "        \"occupancy\": {{\"peak\": {}, \"busy_cycles\": {}, \
                     \"frac_instrs_ge_4\": {:.3}, \"frac_instrs_ge_64\": {:.3}}},\n",
                    m.occupancy.peak,
                    m.occupancy.busy_cycles,
                    m.occupancy.fraction_in_wide_cycles(4),
                    m.occupancy.fraction_in_wide_cycles(64),
                ));
                out.push_str(&format!(
                    "        \"critical_path\": {{\"chain_instrs\": {}, \"heads\": {}, \
                     \"reg_data\": {}, \"mem_data\": {}, \"control\": {}, \"mf_merge\": {}}},\n",
                    attr.chain_len,
                    attr.terminators,
                    attr.counts[0],
                    attr.counts[1],
                    attr.counts[2],
                    attr.counts[3],
                ));
                out.push_str(&format!(
                    "        \"binding\": {{\"reg_data\": {}, \"mem_data\": {}, \
                     \"control\": {}, \"mf_merge\": {}, \"unconstrained\": {}}}}}{}\n",
                    m.flow.by_kind[0],
                    m.flow.by_kind[1],
                    m.flow.by_kind[2],
                    m.flow.by_kind[3],
                    m.flow.unconstrained,
                    if j + 1 == w.machines.len() { "" } else { "," },
                ));
            }
            out.push_str(&format!(
                "     ]}}{}\n",
                if i + 1 == self.reports.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The critical-path attribution and cycle-occupancy report
    /// (`results/attribution.md`): *why* each machine's parallelism limit
    /// is what it is, per program.
    pub fn attribution_md(&self) -> String {
        let mut out = String::from(
            "## Critical-Path Attribution\n\n\
             For every machine, walk the longest dependence chain of each\n\
             program and classify the edge that bound each instruction on it:\n\
             register data dependence, memory data dependence, the machine's\n\
             own control constraint, or the single-flow merge ordering\n\
             (`mf-merge` — the constraint that following multiple flows of\n\
             control removes). Percentages are over classified chain edges;\n\
             `chain` is the number of instructions on the chain.\n",
        );
        for (index, &kind) in MachineKind::ALL.iter().enumerate() {
            out.push_str(&format!(
                "\n### {}\n\n\
                 | program | chain | reg-data % | mem-data % | control % | mf-merge % |\n\
                 |---------|-------|------------|------------|-----------|------------|\n",
                kind.name()
            ));
            for w in &self.reports {
                let Some((_, m)) = w.machines.get(index).filter(|(k, _)| *k == kind) else {
                    continue;
                };
                let attr = &m.attribution;
                out.push_str(&format!(
                    "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                    w.name,
                    attr.chain_len,
                    attr.percent(EdgeKind::RegData),
                    attr.percent(EdgeKind::MemData),
                    attr.percent(EdgeKind::Control),
                    attr.percent(EdgeKind::MfMerge),
                ));
            }
        }
        out.push_str(
            "\n## Cycle Occupancy\n\n\
             How the parallelism is shaped in time: the widest single cycle\n\
             and the fraction of all instructions issued in cycles at least\n\
             64 wide (burst share). Large limits are burst-shaped, not\n\
             steady streams.\n\n### Peak instructions in one cycle\n\n",
        );
        out.push_str(&self.occupancy_table(|m| format!("{}", m.occupancy.peak)));
        out.push_str("\n### Fraction of instructions issued in cycles ≥ 64 wide\n\n");
        out.push_str(&self.occupancy_table(|m| {
            format!("{:.2}", m.occupancy.fraction_in_wide_cycles(64))
        }));
        out
    }

    fn occupancy_table(&self, cell: impl Fn(&MachineMetrics) -> String) -> String {
        let mut out = String::from(
            "| program | BASE | CD | CD-MF | SP | SP-CD | SP-CD-MF | ORACLE |\n\
             |---------|------|----|-------|----|-------|----------|--------|\n",
        );
        for w in &self.reports {
            let mut line = format!("| {} |", w.name);
            for (_, m) in &w.machines {
                line.push_str(&format!(" {} |", cell(m)));
            }
            line.push('\n');
            out.push_str(&line);
        }
        out
    }
}

fn fmt_parallelism(p: f64) -> String {
    if p >= 1000.0 {
        format!("{p:.0}")
    } else if p >= 100.0 {
        format!("{p:.1}")
    } else {
        format!("{p:.2}")
    }
}

/// Static inventory of the suite: text size, basic blocks, procedures,
/// natural loops, and how many instructions the trace transformations
/// delete. Not a paper table, but the reviewer's first question.
pub fn static_inventory() -> String {
    let mut out = String::from(
        "## Static Inventory\n\n\
         | program | instrs | blocks | procs | loops | induction-marked | inline-marked |\n\
         |---------|--------|--------|-------|-------|------------------|---------------|\n",
    );
    for w in suite() {
        let program = w.compile().expect("suite compiles");
        let info = clfp_cfg::StaticInfo::analyze(&program);
        let unroll = (0..program.text.len() as u32)
            .filter(|&pc| info.masks.unroll_ignored(pc))
            .count();
        let inline = (0..program.text.len() as u32)
            .filter(|&pc| info.masks.inline_ignored(pc))
            .count();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            w.name,
            program.text.len(),
            info.cfg.blocks().len(),
            info.cfg.procs().len(),
            info.loops.loops().len(),
            unroll,
            inline,
        ));
    }
    out
}

/// Table 1: the benchmark suite.
pub fn table1() -> String {
    let mut out = String::from(
        "## Table 1: Benchmark Programs\n\n\
         | program | paper analogue | class | description |\n\
         |---------|----------------|-------|-------------|\n",
    );
    for w in suite() {
        let class = match w.class {
            WorkloadClass::NonNumeric => "non-numeric",
            WorkloadClass::Numeric => "numeric",
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            w.name, w.paper_analog, class, w.description
        ));
    }
    out
}

/// Table 2: branch statistics (prediction rate, instructions between
/// branches).
pub fn table2(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Table 2: Branch Statistics\n\n\
         | program | prediction rate (%) | dynamic instrs between branches |\n\
         |---------|---------------------|--------------------------------|\n",
    );
    for r in reports {
        out.push_str(&format!(
            "| {} | {:.2} | {:.1} |\n",
            r.workload.name,
            r.unrolled.branches.prediction_rate(),
            r.unrolled.branches.instrs_between_branches()
        ));
    }
    out
}

/// Table 3: parallelism for every machine model, harmonic mean over the
/// non-numeric group.
pub fn table3(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Table 3: Parallelism for each Machine Model\n\n\
         | program | BASE | CD | CD-MF | SP | SP-CD | SP-CD-MF | ORACLE |\n\
         |---------|------|----|-------|----|-------|----------|--------|\n",
    );
    let row = |name: &str, report: &Report| {
        let mut line = format!("| {name} |");
        for kind in MachineKind::ALL {
            line.push_str(&format!(" {} |", fmt_parallelism(report.parallelism(kind))));
        }
        line.push('\n');
        line
    };
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        out.push_str(&row(r.workload.name, &r.unrolled));
    }
    // Harmonic mean over the non-numeric group, like the paper.
    let mut line = String::from("| **harmonic mean** |");
    for kind in MachineKind::ALL {
        let hm = harmonic_mean(
            reports
                .iter()
                .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
                .map(|r| r.unrolled.parallelism(kind)),
        );
        line.push_str(&format!(" {} |", fmt_parallelism(hm)));
    }
    line.push('\n');
    out.push_str(&line);
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::Numeric)
    {
        out.push_str(&row(r.workload.name, &r.unrolled));
    }
    out
}

/// Table 4: percent change in parallelism due to perfect unrolling.
pub fn table4(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Table 4: Percent Change in Parallelism due to Perfect Loop Unrolling\n\n\
         | program | BASE | CD | CD-MF | SP | SP-CD | SP-CD-MF | ORACLE |\n\
         |---------|------|----|-------|----|-------|----------|--------|\n",
    );
    for r in reports {
        let mut line = format!("| {} |", r.workload.name);
        for kind in MachineKind::ALL {
            let with = r.unrolled.parallelism(kind);
            let without = r.rolled.parallelism(kind);
            let change = 100.0 * (with - without) / without;
            line.push_str(&format!(" {change:.0} |"));
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

/// Figure 4: parallelism with control dependence analysis (CD vs BASE and
/// CD-MF vs CD), as a data series.
pub fn figure4(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Figure 4: Parallelism with Control Dependence Analysis\n\n\
         | program | BASE | CD | CD-MF | CD/BASE | CD-MF/CD |\n\
         |---------|------|----|-------|---------|----------|\n",
    );
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        let base = r.unrolled.parallelism(MachineKind::Base);
        let cd = r.unrolled.parallelism(MachineKind::Cd);
        let cdmf = r.unrolled.parallelism(MachineKind::CdMf);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2}x | {:.2}x |\n",
            r.workload.name,
            fmt_parallelism(base),
            fmt_parallelism(cd),
            fmt_parallelism(cdmf),
            cd / base,
            cdmf / cd
        ));
    }
    out
}

/// Figure 5: parallelism with speculative execution (SP family), as a data
/// series.
pub fn figure5(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Figure 5: Parallelism with Speculative Execution\n\n\
         | program | BASE | SP | SP-CD | SP-CD-MF | SP/BASE | SP-CD/SP | SP-CD-MF/SP-CD |\n\
         |---------|------|----|-------|----------|---------|----------|----------------|\n",
    );
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        let base = r.unrolled.parallelism(MachineKind::Base);
        let sp = r.unrolled.parallelism(MachineKind::Sp);
        let spcd = r.unrolled.parallelism(MachineKind::SpCd);
        let spcdmf = r.unrolled.parallelism(MachineKind::SpCdMf);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.2}x | {:.2}x | {:.2}x |\n",
            r.workload.name,
            fmt_parallelism(base),
            fmt_parallelism(sp),
            fmt_parallelism(spcd),
            fmt_parallelism(spcdmf),
            sp / base,
            spcd / sp,
            spcdmf / spcd
        ));
    }
    out
}

/// Figure 6: cumulative distribution of misprediction distances.
pub fn figure6(reports: &[WorkloadReport]) -> String {
    let mut out = String::from(
        "## Figure 6: Cumulative Distribution of Misprediction Distances\n\n\
         Fraction of mispredictions within N instructions:\n\n\
         | program | ≤10 | ≤30 | ≤100 | ≤300 | ≤1000 | ≤10000 |\n\
         |---------|-----|-----|------|------|-------|--------|\n",
    );
    for r in reports
        .iter()
        .filter(|r| r.workload.class == WorkloadClass::NonNumeric)
    {
        let Some(stats) = &r.unrolled.mispred_stats else {
            continue;
        };
        let mut line = format!("| {} |", r.workload.name);
        for d in [10, 30, 100, 300, 1000, 10000] {
            line.push_str(&format!(" {:.2} |", stats.fraction_within(d)));
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

/// Figure 7: harmonic-mean parallelism per misprediction distance, all
/// benchmarks combined.
pub fn figure7(reports: &[WorkloadReport]) -> String {
    let mut combined = MispredictionStats::new();
    for r in reports {
        if let Some(stats) = &r.unrolled.mispred_stats {
            combined.merge(stats);
        }
    }
    let mut out = String::from(
        "## Figure 7: Parallelism vs. Misprediction Distance (all programs combined)\n\n\
         | distance bucket | harmonic mean parallelism | segments |\n\
         |-----------------|---------------------------|----------|\n",
    );
    for (bucket, hmean, count) in combined.parallelism_by_distance() {
        out.push_str(&format!("| {bucket}+ | {hmean:.2} | {count} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AnalysisConfig {
        AnalysisConfig {
            max_instrs: 30_000,
            mem_words: 4 << 20,
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn static_inventory_covers_suite() {
        let inventory = static_inventory();
        for w in suite() {
            assert!(inventory.contains(w.name));
        }
        // Inline-marked instructions exist everywhere (every program
        // calls); induction-marked exist in the loop-heavy programs.
        assert!(inventory.lines().count() > 12);
    }

    #[test]
    fn table1_lists_everything() {
        let table = table1();
        for w in suite() {
            assert!(table.contains(w.name));
            assert!(table.contains(w.paper_analog));
        }
    }

    #[test]
    fn timed_suite_compares_pipelines() {
        let config = AnalysisConfig {
            max_instrs: 8_000,
            ..tiny_config()
        };
        let timing = run_suite_timed(&config).unwrap();
        assert_eq!(timing.workloads.len(), 10);
        assert!(timing.reports_match, "pipelines diverged");
        assert!(timing.stream_matches, "streaming pipeline diverged");
        assert!(timing.lane_matches, "lane kernel diverged from reference");
        assert!(timing.alias_matches, "static-alias pipelines diverged");
        assert!(timing.valuepred_matches, "value-prediction pipelines diverged");
        assert!(timing.cache_matches, "cache roundtrip diverged");
        assert_eq!(timing.cache, "off", "tests install no process cache");
        assert_eq!(timing.pool_threads, suite_pool_threads());
        assert!(timing.workloads.iter().all(|w| !w.cache_hit));
        assert!(timing.lane_wall_ms > 0.0);
        assert!(timing.reference_wall_ms > 0.0);
        let json = timing.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"reports_match\": true"));
        assert!(json.contains("\"stream_matches\": true"));
        assert!(json.contains("\"lane_matches\": true"));
        assert!(json.contains("\"alias_matches\": true"));
        assert!(json.contains("\"valuepred_matches\": true"));
        assert!(json.contains("\"cache_matches\": true"));
        assert!(json.contains("\"cache\": \"off\""));
        assert!(json.contains("\"pool_threads\""));
        assert!(json.contains("\"cache_hit\": false"));
        assert!(json.contains("\"lane_wall_ms\""));
        assert!(json.contains("\"chunk_events\""));
        assert!(json.contains("\"manifest\""));
        assert!(json.contains("\"config_hash\""));
        assert!(json.contains("\"prepare_ms\""));
        assert!(json.contains("\"lane_machines_ms\""));
        assert!(json.contains("\"stream_ms\""));
        assert!(json.contains("\"stream_par_ms\""));
        assert!(json.trim_end().ends_with('}'));
        let summary = timing.summary();
        assert!(summary.contains("speedup"));
        assert!(summary.contains("scan"));
        assert!(summary.contains("streaming bit-identical: true"));
        assert!(summary.contains("lane bit-identical: true"));
        assert!(summary.contains("static-alias bit-identical: true"));
        assert!(summary.contains("value-pred bit-identical: true"));
        assert!(summary.contains("cache roundtrip bit-identical: true"));
        assert!(summary.contains("cache off"));
    }

    /// A hand-built [`SuiteTiming`] with known walls, for exercising the
    /// perf gate without paying for a suite run.
    fn synthetic_timing() -> SuiteTiming {
        let config = tiny_config();
        SuiteTiming {
            max_instrs: config.max_instrs,
            threads: 1,
            pool_threads: 1,
            cache: "off",
            lane_wall_ms: 80.0,
            reference_wall_ms: 300.0,
            speedup: 3.0,
            reports_match: true,
            chunk_events: 0,
            stream_matches: true,
            lane_matches: true,
            alias_matches: true,
            valuepred_matches: true,
            cache_matches: true,
            manifest: suite_manifest(&config),
            workloads: Vec::new(),
        }
    }

    #[test]
    fn perf_gate_passes_against_own_baseline() {
        let timing = synthetic_timing();
        let check = check_perf(&timing, &timing.to_json(), 50.0).unwrap();
        assert!(check.passed(), "regressions: {:?}", check.regressions);
        assert_eq!(check.lines.len(), 2);
        assert!(check.lines.iter().all(|l| l.contains("-- ok")));
    }

    #[test]
    fn perf_gate_fails_on_injected_slowdown() {
        // Shrink every baseline wall 10x: the unchanged current run now
        // reads as a 10x slowdown, far beyond any sane tolerance.
        let timing = synthetic_timing();
        let mut baseline = timing.to_json();
        for (key, shrunk) in [
            ("\"lane_wall_ms\": 80.0", "\"lane_wall_ms\": 8.0"),
            ("\"reference_wall_ms\": 300.0", "\"reference_wall_ms\": 30.0"),
        ] {
            assert!(baseline.contains(key), "fixture drifted: {key}");
            baseline = baseline.replace(key, shrunk);
        }
        let check = check_perf(&timing, &baseline, 50.0).unwrap();
        assert_eq!(check.regressions.len(), 2, "both walls regressed");
        assert!(!check.passed());
        // A huge tolerance waives the walls again.
        assert!(check_perf(&timing, &baseline, 2000.0).unwrap().passed());
    }

    #[test]
    fn perf_gate_flags_failed_identity_gates() {
        let mut timing = synthetic_timing();
        let baseline = timing.to_json();
        timing.lane_matches = false;
        let check = check_perf(&timing, &baseline, 50.0).unwrap();
        assert!(!check.passed());
        assert!(check.regressions.iter().any(|r| r.contains("lane_matches")));
    }

    #[test]
    fn perf_gate_rejects_cross_config_baselines() {
        let timing = synthetic_timing();
        let other = AnalysisConfig {
            max_instrs: timing.max_instrs + 1,
            ..tiny_config()
        };
        let mut mismatched = synthetic_timing();
        mismatched.manifest = suite_manifest(&other);
        let err = check_perf(&timing, &mismatched.to_json(), 50.0).unwrap_err();
        assert!(err.contains("config hash"), "{err}");
        assert!(check_perf(&timing, "{}", 50.0).is_err(), "no hash at all");
    }

    #[test]
    fn perf_gate_rejects_cross_kernel_baselines() {
        let mut timing = synthetic_timing();
        timing.manifest = timing.manifest.with_kernel("avx512");
        let mut portable = synthetic_timing();
        portable.manifest = portable.manifest.with_kernel("portable");
        let err = check_perf(&timing, &portable.to_json(), 50.0).unwrap_err();
        assert!(err.contains("portable kernel build"), "{err}");
        // A baseline that names no kernel ran the portable build.
        let unnamed = synthetic_timing().to_json();
        assert!(!unnamed.contains("\"kernel\""));
        assert!(check_perf(&timing, &unnamed, 50.0).is_err());
        assert!(check_perf(&portable, &unnamed, 50.0).unwrap().passed());
        let own = check_perf(&timing, &timing.to_json(), 50.0).unwrap();
        assert!(own.passed());
    }

    #[test]
    fn pipeline_profile_renders_stages_groups_and_counters() {
        use clfp_metrics::trace::{ArgValue, CounterEvent, SpanEvent, TraceLog, TraceRecord};
        let span = |name: &str, ts_us: u64, dur_us: u64, args: Vec<(&'static str, ArgValue)>| {
            TraceRecord::Span(SpanEvent {
                name: name.to_string(),
                cat: "suite",
                ts_us,
                dur_us,
                tid: 0,
                args,
            })
        };
        let log = TraceLog {
            records: vec![
                span("suite.total", 0, 1000, vec![]),
                span("suite.compile", 0, 100, vec![("workload", "scan".into())]),
                span("suite.machines.lane", 100, 860, vec![("workload", "scan".into())]),
                span(
                    "lane.group",
                    120,
                    700,
                    vec![
                        ("group", ArgValue::U64(0)),
                        ("cd", ArgValue::Bool(true)),
                        ("lanes", ArgValue::U64(2)),
                        ("width", ArgValue::U64(2)),
                        ("key_mode", ArgValue::Str("event".into())),
                        ("slots", ArgValue::Str("0:CD+u,1:CD-MF+u".into())),
                        ("events", ArgValue::U64(5000)),
                        ("chunks", ArgValue::U64(3)),
                    ],
                ),
                TraceRecord::Counter(CounterEvent {
                    name: "cache.hit".to_string(),
                    cat: "cache",
                    ts_us: 10,
                    tid: 0,
                    value: 7,
                }),
            ],
            thread_names: vec![(0, "main".to_string())],
        };
        let md = pipeline_profile_md(&synthetic_timing(), &log);
        assert!(md.contains("## Stage attribution"));
        assert!(md.contains("| suite.machines.lane | 1 | 0.9 | 86.0% |"));
        assert!(md.contains("**96.0% coverage**"), "{md}");
        assert!(md.contains("`0:CD+u,1:CD-MF+u`"));
        assert!(md.contains("| 5000 | 3 |"));
        assert!(md.contains("| cache.hit | 7 |"));
        assert!(!md.contains("| suite.total |"), "total is the denominator");
    }

    /// End-to-end warm-cache equivalence without touching the process
    /// global: a cold `ensure` captures and stores, a warm `ensure`
    /// reloads, and the analysis of both — plus the chunked pipeline
    /// streaming straight from the cache file — is bit-identical.
    #[test]
    fn warm_cache_rerun_is_bit_identical() {
        let config = tiny_config();
        let dir = std::env::temp_dir().join(format!("clfp-bench-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = TraceCache::new(&dir);
        let options = clfp_vm::VmOptions {
            mem_words: config.mem_words,
        };
        for workload in suite().into_iter().take(2) {
            let program = workload.compile().unwrap();
            let (cold, warm) = cache.ensure(&program, options, config.max_instrs).unwrap();
            assert!(!warm, "{}: first run must execute", workload.name);
            let (reloaded, warm) = cache.ensure(&program, options, config.max_instrs).unwrap();
            assert!(warm, "{}: second run must hit", workload.name);

            let analyzer = Analyzer::new(&program, config.clone()).unwrap();
            let (cold_unrolled, cold_rolled) = analyzer.prepare(&cold).report_both();
            let (warm_unrolled, warm_rolled) = analyzer.prepare(&reloaded).report_both();
            assert!(reports_equal(&cold_unrolled, &warm_unrolled), "{}", workload.name);
            assert!(reports_equal(&cold_rolled, &warm_rolled), "{}", workload.name);

            let file = cache.lookup(&program, config.max_instrs).unwrap();
            let streamed = analyzer
                .run_streamed_on(
                    &file,
                    StreamOptions {
                        chunk_events: 4096,
                        machine_threads: 1,
                        par_threshold_events: 0,
                    },
                )
                .unwrap();
            assert!(reports_equal(&streamed.unrolled, &cold_unrolled), "{}", workload.name);
            assert!(reports_equal(&streamed.rolled, &cold_rolled), "{}", workload.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alias_suite_sweeps_modes_and_passes_gates() {
        let suite = run_alias_suite(&tiny_config()).unwrap();
        assert_eq!(suite.reports.len(), 10);
        assert!(suite.is_sound(), "dynamic conflict on a no-alias pair");
        assert!(suite.pipelines_agree(), "static-mode pipelines diverged");
        let mut static_differs = false;
        let mut none_differs = false;
        for r in &suite.reports {
            assert!(r.num_classes >= 1, "{}", r.workload.name);
            for kind in MachineKind::ALL {
                let perfect = r.report_for(MemDisambiguation::Perfect).parallelism(kind);
                let stat = r.report_for(MemDisambiguation::Static).parallelism(kind);
                let none = r.report_for(MemDisambiguation::None).parallelism(kind);
                for p in [perfect, stat, none] {
                    assert!(p.is_finite() && p >= 1.0, "{} {kind:?}: {p}", r.workload.name);
                }
                // Coarse modes accumulate the store max, so weakening
                // the analysis never helps — pointwise, every machine.
                assert!(
                    stat <= perfect + 1e-9,
                    "{} {kind:?}: static {stat} beat perfect {perfect}",
                    r.workload.name
                );
                assert!(
                    none <= stat + 1e-9,
                    "{} {kind:?}: none {none} beat static {stat}",
                    r.workload.name
                );
                static_differs |= stat != perfect;
                none_differs |= none != stat;
            }
            // Every mode schedules the same instructions.
            let seq = r.report_for(MemDisambiguation::Perfect).seq_instrs;
            assert_eq!(r.report_for(MemDisambiguation::Static).seq_instrs, seq);
            assert_eq!(r.report_for(MemDisambiguation::None).seq_instrs, seq);
        }
        // And the axis is live: each weakening changes some schedule.
        assert!(static_differs, "static mode never changed a schedule");
        assert!(none_differs, "none mode never changed a schedule");
        let md = suite.disambiguation_md();
        assert!(md.contains("## Memory Disambiguation"));
        assert!(md.contains("### `perfect`"));
        assert!(md.contains("### `static`"));
        assert!(md.contains("### `none`"));
        assert!(md.contains("### Retention on SP-CD-MF"));
        assert!(md.contains("harmonic mean"));
        assert!(md.contains("- alias soundness, in-memory walker: **pass**"));
        assert!(md.contains("streamed walker (chunk 4096 events): **pass**"));
        assert!(md.contains("static-mode pipelines bit-identical"));
        assert!(md.contains("reference pass and streamed pipeline on the first): **pass**"));
        assert!(md.contains("scan"));
    }

    #[test]
    fn valuepred_suite_sweeps_modes_and_passes_gates() {
        let suite = run_valuepred_suite(&tiny_config()).unwrap();
        assert_eq!(suite.reports.len(), 10);
        assert!(suite.is_monotone(), "a stronger mode lengthened a schedule");
        assert!(suite.pipelines_agree(), "stride-mode pipelines diverged");
        let mut last_differs = false;
        let mut stride_differs = false;
        let mut perfect_differs = false;
        for r in &suite.reports {
            // Hit rates nest with the correct sets.
            assert_eq!(r.hit_rate(ValuePrediction::Off), 0.0, "{}", r.workload.name);
            assert_eq!(
                r.hit_rate(ValuePrediction::Perfect),
                100.0,
                "{}",
                r.workload.name
            );
            let lv_rate = r.hit_rate(ValuePrediction::LastValue);
            let stride_rate = r.hit_rate(ValuePrediction::Stride);
            assert!(
                (0.0..=100.0).contains(&lv_rate) && lv_rate <= stride_rate + 1e-9,
                "{}: last-value hit {lv_rate}% beat stride {stride_rate}%",
                r.workload.name
            );
            for kind in MachineKind::ALL {
                let off = r.report_for(ValuePrediction::Off).parallelism(kind);
                let last = r.report_for(ValuePrediction::LastValue).parallelism(kind);
                let stride = r.report_for(ValuePrediction::Stride).parallelism(kind);
                let perfect = r.report_for(ValuePrediction::Perfect).parallelism(kind);
                for p in [off, last, stride, perfect] {
                    assert!(p.is_finite() && p >= 1.0, "{} {kind:?}: {p}", r.workload.name);
                }
                // Nested correct sets: strengthening the predictor never
                // hurts — pointwise, every machine.
                assert!(
                    off <= last + 1e-9,
                    "{} {kind:?}: off {off} beat last-value {last}",
                    r.workload.name
                );
                assert!(
                    last <= stride + 1e-9,
                    "{} {kind:?}: last-value {last} beat stride {stride}",
                    r.workload.name
                );
                assert!(
                    stride <= perfect + 1e-9,
                    "{} {kind:?}: stride {stride} beat perfect {perfect}",
                    r.workload.name
                );
                last_differs |= last != off;
                stride_differs |= stride != last;
                perfect_differs |= perfect != stride;
            }
            // Every mode schedules the same instructions.
            let seq = r.report_for(ValuePrediction::Off).seq_instrs;
            for mode in ValuePrediction::ALL {
                assert_eq!(r.report_for(mode).seq_instrs, seq, "{}", r.workload.name);
            }
        }
        // And the axis is live: each strengthening changes some schedule.
        assert!(last_differs, "last-value mode never changed a schedule");
        assert!(stride_differs, "stride mode never changed a schedule");
        assert!(perfect_differs, "perfect mode never changed a schedule");
        let md = suite.value_prediction_md();
        assert!(md.contains("## Value Prediction"));
        assert!(md.contains("### `off`"));
        assert!(md.contains("### `last-value`"));
        assert!(md.contains("### `stride`"));
        assert!(md.contains("### `perfect`"));
        assert!(md.contains("### Retention on SP-CD-MF"));
        assert!(md.contains("harmonic mean"));
        assert!(md.contains("- monotonicity"));
        assert!(md.contains("pointwise, both unroll settings): **pass**"));
        assert!(md.contains("stride-mode pipelines bit-identical"));
        assert!(md.contains("chunk 4096 events on the first): **pass**"));
        assert!(md.contains("scan"));
    }

    #[test]
    fn scaling_suite_streams_repeated_sources() {
        let suite = run_scaling_suite(
            &tiny_config(),
            &["qsort", "stencil"],
            &[60_000, 20_000],
            StreamOptions {
                chunk_events: 4096,
                machine_threads: 1,
                par_threshold_events: 0,
            },
        )
        .unwrap();
        assert_eq!(suite.points.len(), 4);
        assert_eq!(suite.chunk_events, 4096);
        assert_eq!(suite.machine_threads, 1);
        // Points are visited in increasing size order regardless of the
        // order they were requested in.
        assert_eq!(suite.points[0].max_instrs, 20_000);
        assert_eq!(suite.points[2].max_instrs, 60_000);
        for p in &suite.points {
            // The repeated source tiles execution to exactly the cap.
            assert_eq!(p.raw_instrs, p.max_instrs, "{}", p.workload);
            assert!(p.events_per_sec > 0.0);
        }
        // Smallest point carries the in-memory cross-check, larger do not.
        assert_eq!(suite.points[0].matches_inmemory, Some(true));
        assert_eq!(suite.points[1].matches_inmemory, Some(true));
        assert_eq!(suite.points[2].matches_inmemory, None);
        // VmHWM is available on this platform and monotone.
        assert!(suite.points[0].peak_rss_mb > 0.0);
        assert!(suite.points[3].peak_rss_mb >= suite.points[0].peak_rss_mb);
        let json = suite.to_json();
        assert!(json.contains("\"peak_rss_mb\""));
        assert!(json.contains("\"matches_inmemory\": true"));
        assert!(json.contains("\"matches_inmemory\": null"));
        assert!(json.contains("\"manifest\""));
        assert!(json.trim_end().ends_with('}'));
        let summary = suite.summary();
        assert!(summary.contains("qsort"));
        assert!(summary.contains("stencil"));
        assert!(summary.contains("MiB"));
    }

    #[test]
    fn lint_suite_is_clean() {
        let lint = run_lint_suite(&tiny_config()).unwrap();
        assert_eq!(lint.reports.len(), 10);
        assert!(lint.is_clean(), "{}", lint.summary());
        // Errors can never hide behind a waiver.
        for report in &lint.reports {
            assert_eq!(report.count(Severity::Error), 0, "{}", report.name);
        }
        let json = lint.to_json();
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"seq_instrs_unrolled\""));
        assert!(json.contains("\"manifest\""));
        assert!(json.trim_end().ends_with('}'));
        let summary = lint.summary();
        assert!(summary.contains("scan"));
        assert!(summary.contains("clean"));
    }

    #[test]
    fn metrics_suite_attributes_every_machine() {
        let suite = run_metrics_suite(&tiny_config()).unwrap();
        assert_eq!(suite.reports.len(), 10);
        for w in &suite.reports {
            assert_eq!(w.machines.len(), MachineKind::ALL.len());
            assert!(w.seq_instrs > 0, "{}", w.name);
            for (kind, m) in &w.machines {
                assert_eq!(m.instrs, w.seq_instrs, "{} {}", w.name, kind.name());
                assert!(m.cycles > 0 && m.cycles <= m.instrs);
                assert_eq!(m.flow.total(), m.instrs);
                assert_eq!(m.occupancy.instrs, m.instrs);
                assert!(m.occupancy.peak <= m.instrs);
                let attr = &m.attribution;
                if attr.classified() > 0 {
                    let sum: f64 = EdgeKind::ALL.iter().map(|&k| attr.percent(k)).sum();
                    assert!((sum - 100.0).abs() < 1e-6, "{} {}", w.name, kind.name());
                }
                if *kind == MachineKind::Oracle {
                    // The oracle has no control constraint at all.
                    assert_eq!(m.flow.control_bound(), 0, "{}", w.name);
                    assert_eq!(attr.counts[2] + attr.counts[3], 0, "{}", w.name);
                }
                if kind.multiple_flows() {
                    // Following multiple flows removes exactly the merge
                    // ordering — no mf-merge edges can remain.
                    assert_eq!(m.flow.by_kind[3], 0, "{} {}", w.name, kind.name());
                }
            }
        }
        let json = suite.to_json();
        assert!(json.contains("\"critical_path\""));
        assert!(json.contains("\"binding\""));
        assert!(json.contains("\"config_hash\""));
        assert!(json.trim_end().ends_with('}'));
        let md = suite.attribution_md();
        assert!(md.contains("### ORACLE"));
        assert!(md.contains("mf-merge"));
        assert!(md.contains("## Cycle Occupancy"));
        assert!(md.contains("scan"));
    }

    #[test]
    fn suite_runs_and_formats() {
        let reports = run_suite(&tiny_config()).unwrap();
        assert_eq!(reports.len(), 10);
        let t2 = table2(&reports);
        let t3 = table3(&reports);
        let t4 = table4(&reports);
        assert!(t2.contains("scan"));
        assert!(t3.contains("harmonic mean"));
        assert!(t4.contains("matmul"));
        let f4 = figure4(&reports);
        let f5 = figure5(&reports);
        let f6 = figure6(&reports);
        let f7 = figure7(&reports);
        assert!(f4.contains("CD-MF/CD"));
        assert!(f5.contains("SP-CD-MF"));
        assert!(f6.contains("qsort"));
        assert!(f7.contains("harmonic"));
    }
}
