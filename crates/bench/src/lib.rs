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
//! `BENCH_suite.json` — the suite's perf record, which nothing reads
//! back. `regen --check-perf` judges the run it measures instead: the
//! reference analysis wall over each of the preparation, lane-walk and
//! inline streamed walls must reach that stage's floor ([`stage_floors`],
//! [`SuiteTiming::missed_floors`]).
//! `regen --scaling` streams repeated workload executions through the
//! chunked pipeline at increasing trace lengths (2M to 100M dynamic
//! instructions), recording wall time and peak RSS per point to
//! `BENCH_scaling.json` — the record that paper-scale runs complete in
//! O(chunk) trace memory.
//! `regen --lint` gates the suite on the `clfp-verify` checks
//! ([`run_lint_suite`]). `regen --alias` and `regen --valuepred` sweep a
//! relaxation axis — memory disambiguation (perfect vs static alias
//! classes vs none) or value prediction (off vs last-value vs stride vs a
//! perfect value oracle) — through one driver, [`run_axis_sweep`], into
//! `results/disambiguation.md` or `results/value_prediction.md`, each
//! gated on the `clfp-verify` monotonicity check and pipeline agreement
//! (the disambiguation axis adds the dynamic alias-soundness check).
//! `regen --metrics` re-runs the suite with the `clfp-metrics` recording
//! sink ([`run_metrics_suite`]), writing cycle-occupancy histograms and
//! critical-path attribution (`results/metrics_suite.json`,
//! `results/attribution.md`; see `docs/OBSERVABILITY.md`).
//!
//! ## Layout
//!
//! This module holds what the suite runners share: the trace cache, the
//! per-workload front end (compile, then the measured trace), the suite
//! worker pool, [`run_suite`], and the bit-identity helpers. Each suite
//! lives in its own module and is re-exported here: `tables` (the paper's
//! tables and figures, and the one program × machine table renderer),
//! `timing` (`--timing`, `--trace`, `--check-perf`), `scaling`, `lint`,
//! `axis` (the axis descriptions and their driver) and `metrics`.
//!
//! Every artifact is stamped with a [`RunManifest`] ([`suite_manifest`]),
//! and `regen` refuses to overwrite results whose recorded config hash
//! differs from the current run's unless `--force` is given.

mod axis;
mod lint;
mod metrics;
mod scaling;
mod tables;
mod timing;

pub use axis::{
    run_axis_sweep, AxisMode, AxisSuite, AxisSweep, AxisWorkload, Setting, DISAMBIGUATION,
    VALUE_PREDICTION,
};
pub use lint::{
    lint_workload, run_lint_suite, waiver_for, LintFinding, LintReport, LintSuite, Waiver,
    SUITE_WAIVERS,
};
pub use metrics::{metrics_workload, run_metrics_suite, MetricsSuite, WorkloadMetrics};
pub use scaling::{peak_rss_mb, run_scaling_suite, ScalingPoint, ScalingSuite};
pub use tables::{
    figure4, figure5, figure6, figure7, static_inventory, table1, table2, table3, table4,
};
pub use timing::{
    pipeline_profile_md, run_suite_timed, stage_floors, Gate, SuiteTiming, WorkloadTiming,
};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use clfp_isa::Program;
use clfp_limits::{AnalysisConfig, AnalyzeError, Analyzer, Report};
use clfp_metrics::RunManifest;
use clfp_vm::{Trace, TraceCache};
use clfp_workloads::{suite, Workload};

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
pub(crate) fn trace_cache() -> Option<&'static TraceCache> {
    TRACE_CACHE.get().and_then(|cache| cache.as_ref())
}

/// The measured trace for `program` under `config`, through the process
/// trace cache when one is installed ([`set_trace_cache`]). The boolean is
/// `true` when the events came back from a warm cache file instead of a VM
/// execution.
pub(crate) fn measured_trace(
    program: &Program,
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

/// Compiles a suite workload, naming it in the error.
pub(crate) fn compile(workload: Workload) -> Result<Program, AnalyzeError> {
    workload
        .compile()
        .map_err(|err| AnalyzeError::BadProgram(format!("{}: {err}", workload.name)))
}

/// The per-workload front end of the table, lint, axis and metrics
/// runners: the compiled program and its measured trace
/// ([`measured_trace`]). The timed suite runs the same two stages apart,
/// to time each.
pub(crate) fn front_end(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<(Program, Trace), AnalyzeError> {
    let program = compile(workload)?;
    let (trace, _warm) = measured_trace(&program, config)?;
    Ok((program, trace))
}

fn analyze_workload(
    workload: Workload,
    config: &AnalysisConfig,
) -> Result<WorkloadReport, AnalyzeError> {
    let (program, trace) = front_end(workload, config)?;
    let analyzer = Analyzer::new(&program, config.clone())?;
    let prepared = analyzer.prepare(&trace);
    // Both unroll settings in a single lane-kernel walk over the trace.
    let (unrolled, rolled) = prepared.report_both();

    Ok(WorkloadReport {
        workload,
        unrolled,
        rolled,
    })
}

pub(crate) fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Whether `(unrolled, rolled)` reports equal, bit for bit, the
/// reference pass rerun from scratch on `trace` under `mode` — the one
/// pipeline that shares no scheduling code with the lane kernel. Used by
/// the mode gates of the timed suite and the axis sweeps.
///
/// # Errors
///
/// Propagates analyzer construction failures.
pub(crate) fn matches_reference(
    unrolled: &Report,
    rolled: &Report,
    program: &Program,
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

/// The provenance manifest for a suite run under `config` (see
/// [`RunManifest`]): config hash, git describe, timestamp, host
/// parallelism. Embedded in every generated artifact.
pub fn suite_manifest(config: &AnalysisConfig) -> RunManifest {
    RunManifest::capture(&config.fingerprint(), config.max_instrs, config.unrolling)
}

#[cfg(test)]
pub(crate) fn tiny_config() -> AnalysisConfig {
    AnalysisConfig {
        max_instrs: 30_000,
        mem_words: 4 << 20,
        ..AnalysisConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_limits::StreamOptions;

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
                    },
                )
                .unwrap();
            assert!(reports_equal(&streamed.unrolled, &cold_unrolled), "{}", workload.name);
            assert!(reports_equal(&streamed.rolled, &cold_rolled), "{}", workload.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
