//! `regen --timing`, `--trace` and `--check-perf`: the instrumented suite
//! walk that times the lane kernel against the reference pipeline, the
//! pipeline profile rendered from its span log, and the perf gate, which
//! holds each lane stage to a floor against the reference pass timed in
//! the same walk.

use std::time::Instant;

use clfp_limits::{
    AnalysisConfig, AnalyzeError, Analyzer, MemDisambiguation, StreamOptions, ValuePrediction,
};
use clfp_metrics::json::Value;
use clfp_metrics::RunManifest;
use clfp_predict::BranchProfile;
use clfp_vm::TraceCache;
use clfp_workloads::suite;

use crate::tables::{table2, table3, table4};
use crate::{
    compile, matches_reference, measured_trace, ms, reports_equal, suite_manifest,
    suite_pool_threads, trace_cache, WorkloadReport,
};

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
    /// machine slots, lane groups fed inline — `machine_threads: 1`).
    pub stream_ms: f64,
    /// The same streamed analysis with each lane group on its own thread
    /// (`machine_threads: 2`).
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
    /// Worker-pool size [`par_map_suite`](crate::par_map_suite) actually fanned out over (host
    /// parallelism capped at the workload count).
    pub pool_threads: usize,
    /// Trace-cache state of this run: `"off"` when no cache is installed,
    /// `"warm"` when every workload's trace was already cached before the
    /// first suite ran, `"cold"` otherwise.
    pub cache: &'static str,
    /// Lane-kernel pipeline wall (the [`run_suite`](crate::run_suite) production path):
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
                let program = compile(workload)?;
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
        let program = compile(workload)?;
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

        // The preparation is mode-free, so the Static / Stride gates below
        // run as slices of this one preparation.
        let t0 = stage_start();
        let start = Instant::now();
        let prepared = unrolled.prepare(&trace);
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

        // The lane groups apply static memory disambiguation and stride
        // value prediction. The lane walk over a slice of the shared
        // preparation must agree with the reference pass rerun from
        // scratch under each mode. That rerun prices a whole reference
        // analysis per mode, so these gates run on the first workload
        // only; the alias and value-prediction suites pin the slices on
        // every workload.
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
        // first inline, then with one thread per lane group (two threads
        // asked for outright, so the stage times the threaded pass on a
        // host of any size).
        let t0 = stage_start();
        let start = Instant::now();
        let streamed = unrolled.run_streamed_on(
            &trace,
            StreamOptions {
                chunk_events,
                machine_threads: 1,
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
                machine_threads: 2,
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

/// One bit-identity gate of a [`SuiteTiming`].
#[derive(Copy, Clone, Debug)]
pub struct Gate {
    /// The gate's key in `BENCH_suite.json`.
    pub key: &'static str,
    /// How the terminal summary names it.
    pub label: &'static str,
    /// Whether the compared pipelines agreed bit for bit.
    pub held: bool,
}

impl SuiteTiming {
    /// The six bit-identity gates, in report order. The JSON, the
    /// summary and `regen` all read them from here.
    pub fn gates(&self) -> [Gate; 6] {
        [
            ("reports_match", "tables identical", self.reports_match),
            ("stream_matches", "streaming bit-identical", self.stream_matches),
            ("lane_matches", "lane bit-identical", self.lane_matches),
            ("alias_matches", "static-alias bit-identical", self.alias_matches),
            ("valuepred_matches", "value-pred bit-identical", self.valuepred_matches),
            ("cache_matches", "cache roundtrip bit-identical", self.cache_matches),
        ]
        .map(|(key, label, held)| Gate { key, label, held })
    }

    /// The keys of the gates that read `false`; any one fails the run.
    pub fn failed_gates(&self) -> Vec<&'static str> {
        self.gates()
            .iter()
            .filter(|gate| !gate.held)
            .map(|gate| gate.key)
            .collect()
    }

    /// The comparison as JSON (`BENCH_suite.json`).
    pub fn to_json(&self) -> Value {
        let workloads = self.workloads.iter().map(|w| {
            Value::object()
                .with("name", w.name)
                .with("raw_instrs", w.raw_instrs)
                .with("compile_ms", Value::Fixed(w.compile_ms, 1))
                .with("profiling_ms", Value::Fixed(w.profiling_ms, 1))
                .with("trace_ms", Value::Fixed(w.trace_ms, 1))
                .with("prepare_ms", Value::Fixed(w.prepare_ms, 1))
                .with("lane_machines_ms", Value::Fixed(w.lane_machines_ms, 1))
                .with(
                    "reference_analysis_ms",
                    Value::Fixed(w.reference_analysis_ms, 1),
                )
                .with("stream_ms", Value::Fixed(w.stream_ms, 1))
                .with("stream_par_ms", Value::Fixed(w.stream_par_ms, 1))
                .with("cache_hit", w.cache_hit)
        });
        let mut json = Value::object()
            .with(
                "suite",
                "full-suite regen, lane kernel vs reference pipeline",
            )
            .with("max_instrs", self.max_instrs)
            .with("threads", self.threads)
            .with("pool_threads", self.pool_threads)
            .with("cache", self.cache)
            .with("lane_wall_ms", Value::Fixed(self.lane_wall_ms, 1))
            .with("reference_wall_ms", Value::Fixed(self.reference_wall_ms, 1))
            .with("speedup", Value::Fixed(self.speedup, 2))
            .with("chunk_events", self.chunk_events);
        for gate in self.gates() {
            json = json.with(gate.key, gate.held);
        }
        json.with("manifest", self.manifest.to_json())
            .with("workloads", Value::Array(workloads.collect()))
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "## Suite Timing: lane kernel vs reference pipeline\n\n\
             | workload | raw instrs | compile | profiling (ref only) | trace | prepare | lane passes | reference analysis | stream (inline) | stream (2 threads) |\n\
             |----------|------------|---------|----------------------|-------|---------|-------------|--------------------|-----------------|--------------------|\n",
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
        // The reference analysis classifies and counts the events itself,
        // so the lane side of the comparison is preparation plus machine
        // passes.
        let lane_total: f64 = self
            .workloads
            .iter()
            .map(|w| w.prepare_ms + w.lane_machines_ms)
            .sum();
        let reference_total: f64 = self.workloads.iter().map(|w| w.reference_analysis_ms).sum();
        let gates: Vec<String> = self
            .gates()
            .iter()
            .map(|gate| format!("{}: {}", gate.label, gate.held))
            .collect();
        let kernel = self.manifest.kernel.as_deref().unwrap_or("portable");
        let floors = stage_floors(self.max_instrs, kernel).ok();
        let ratios: Vec<String> = self
            .stage_ratios()
            .iter()
            .enumerate()
            .map(|(i, (key, ratio))| match floors {
                Some(floors) => format!("{key} {ratio:.1}x (floor {:.1}x)", floors[i]),
                None => format!("{key} {ratio:.1}x (no floor)"),
            })
            .collect();
        out.push_str(&format!(
            "\nfull-suite wall time: lane {:.2}s vs reference {:.2}s -> {:.2}x speedup; \
             analysis: reference {:.0} ms vs lane {:.0} ms -> {:.2}x\n\
             reference analysis / stage: {}\n\
             ({}; cache {}; pool {} thread(s); kernel {}; {})\n",
            self.lane_wall_ms / 1e3,
            self.reference_wall_ms / 1e3,
            self.speedup,
            reference_total,
            lane_total,
            reference_total / lane_total.max(f64::MIN_POSITIVE),
            ratios.join(", "),
            gates.join("; "),
            self.cache,
            self.pool_threads,
            kernel,
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
// Perf gate
// ---------------------------------------------------------------------------

/// The trace cap the stage floors were calibrated at (`regen`'s default).
/// A ratio moves with trace length, so `--check-perf` gates no other cap.
const PERF_GATE_CAP: u64 = 2_000_000;

/// One stage's wall in one workload's timing.
type StageWall = fn(&WorkloadTiming) -> f64;

/// The stages `--check-perf` gates: each one's `BENCH_suite.json` key and
/// wall. The threaded streamed pass (`stream_par_ms`) is not gated: it
/// depends on whether the host's second core is free.
const GATED_STAGES: [(&str, StageWall); 3] = [
    ("prepare_ms", |w| w.prepare_ms),
    ("lane_machines_ms", |w| w.lane_machines_ms),
    ("stream_ms", |w| w.stream_ms),
];

/// Each gated stage's floor, in [`GATED_STAGES`] order, per kernel build
/// ([`clfp_limits::kernel_isa`]): a run's ratio of the suite-wide
/// reference analysis wall to the stage's suite-wide wall must reach it.
/// Calibrated at `PERF_GATE_CAP` on a two-thread AVX-512 host, from 23
/// alternating warm runs of unchanged code (`prepare_ms` 15.2–21.9,
/// `lane_machines_ms` 12.6–19.3, `stream_ms` 6.9–8.8) and 17–23 runs of
/// copies that each do one stage's work twice (7.6–10.2, 6.8–10.0,
/// 3.5–4.3). The lane walk runs on two threads, so its ratio spreads the
/// widest: its lowest unchanged reading is 14% over its floor, and the
/// floor 10% over its highest planted one, where the other two stages
/// keep 22% or more on both sides.
/// The reference pass is the yardstick, so a change to its speed moves
/// every ratio and must recalibrate these floors. The portable build has
/// no floors: on a host with AVX-512 every multi-lane walk runs the
/// AVX-512 build, so its ratios cannot be measured there.
const STAGE_FLOORS: [(&str, [f64; 3]); 1] = [("avx512", [12.5, 11.0, 5.3])];

/// The floors `--check-perf` holds a run at `max_instrs` under the
/// `kernel` build to, in gated-stage order.
///
/// # Errors
///
/// Returns why no floors apply: a cap other than the default 2M
/// instructions, or a kernel build with no calibrated floors.
pub fn stage_floors(max_instrs: u64, kernel: &str) -> Result<[f64; 3], String> {
    if max_instrs != PERF_GATE_CAP {
        return Err(format!(
            "--check-perf gates at the cap its floors were calibrated at \
             ({PERF_GATE_CAP} instrs), not at {max_instrs}"
        ));
    }
    STAGE_FLOORS
        .iter()
        .find(|(build, _)| *build == kernel)
        .map(|&(_, floors)| floors)
        .ok_or_else(|| format!("--check-perf has no floors for the {kernel} kernel build"))
}

impl SuiteTiming {
    /// Each gated stage's key and ratio: the suite-wide reference analysis
    /// wall over the stage's suite-wide wall, both timed in this run.
    fn stage_ratios(&self) -> [(&'static str, f64); 3] {
        let reference: f64 = self.workloads.iter().map(|w| w.reference_analysis_ms).sum();
        GATED_STAGES.map(|(key, stage)| {
            let wall: f64 = self.workloads.iter().map(stage).sum();
            (key, reference / wall.max(f64::MIN_POSITIVE))
        })
    }

    /// The perf gate behind `regen --check-perf`: one line per gated stage
    /// whose ratio falls below its floor ([`stage_floors`]), naming the
    /// stage. Empty means the gate passed.
    pub fn missed_floors(&self, floors: &[f64; 3]) -> Vec<String> {
        self.stage_ratios()
            .iter()
            .zip(floors)
            .filter(|((_, ratio), floor)| ratio < floor)
            .map(|((key, ratio), floor)| {
                format!("{key} at {ratio:.1}x the reference analysis, below its floor {floor:.1}x")
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Pipeline profile
// ---------------------------------------------------------------------------

/// Renders `results/pipeline_profile.md` from one traced
/// [`run_suite_timed`] walk: the drained span log attributed to named
/// pipeline stages, the per-lane-group machine-walk table, and the cache
/// counter totals. The stage table's denominator is the `suite.total`
/// span, so the quoted coverage is of the instrumented suite wall itself,
/// not of whatever the caller did around it.
pub fn pipeline_profile_md(timing: &SuiteTiming, log: &clfp_metrics::trace::TraceLog) -> String {
    use clfp_metrics::trace::aggregate_spans;

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
        Some(Value::U64(v)) => *v,
        _ => 0,
    };
    let arg_str = |span: &clfp_metrics::trace::SpanEvent, key: &str| match span.arg(key) {
        Some(Value::Str(v)) => v.clone(),
        _ => String::new(),
    };
    let mut groups: Vec<GroupRow> = Vec::new();
    for span in log.spans().filter(|s| s.name == "lane.group") {
        let cd = matches!(span.arg("cd"), Some(Value::Bool(true)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite_pool_threads, tiny_config};

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
        let json = clfp_metrics::json::render(&timing.to_json());
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

    /// A hand-built [`SuiteTiming`] at the gate's cap with known stage
    /// walls, for exercising the perf gate without paying for a suite
    /// run. Its ratios are 16.7x (prepare), 14.3x (lane machines) and
    /// 7.7x (stream): each clears its AVX-512 floor, and each falls below
    /// it when its stage takes twice as long.
    fn synthetic_timing() -> SuiteTiming {
        let config = AnalysisConfig {
            max_instrs: PERF_GATE_CAP,
            ..tiny_config()
        };
        let workload = |name, scale: f64| WorkloadTiming {
            name,
            compile_ms: 1.0,
            profiling_ms: 0.0,
            trace_ms: 5.0,
            prepare_ms: 30.0 * scale,
            lane_machines_ms: 35.0 * scale,
            reference_analysis_ms: 500.0 * scale,
            stream_ms: 65.0 * scale,
            stream_par_ms: 60.0 * scale,
            cache_hit: true,
            raw_instrs: 1000,
        };
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
            workloads: vec![workload("scan", 1.0), workload("qsort", 3.0)],
        }
    }

    fn avx512_floors() -> [f64; 3] {
        stage_floors(PERF_GATE_CAP, "avx512").unwrap()
    }

    #[test]
    fn perf_gate_passes_healthy_ratios() {
        let timing = synthetic_timing();
        assert!(timing.missed_floors(&avx512_floors()).is_empty());
        let ratios = timing
            .stage_ratios()
            .map(|(key, ratio)| (key, (ratio * 10.0).round()));
        assert_eq!(
            ratios,
            [
                ("prepare_ms", 167.0),
                ("lane_machines_ms", 143.0),
                ("stream_ms", 77.0)
            ]
        );
    }

    #[test]
    fn perf_gate_names_only_the_doubled_stage() {
        type Double = fn(&mut WorkloadTiming);
        let doublings: [(&str, Double); 3] = [
            ("prepare_ms", |w| w.prepare_ms *= 2.0),
            ("lane_machines_ms", |w| w.lane_machines_ms *= 2.0),
            ("stream_ms", |w| w.stream_ms *= 2.0),
        ];
        for (key, double) in doublings {
            let mut timing = synthetic_timing();
            timing.workloads.iter_mut().for_each(double);
            let missed = timing.missed_floors(&avx512_floors());
            assert_eq!(missed.len(), 1, "{key}: {missed:?}");
            assert!(missed[0].starts_with(&format!("{key} at ")), "{missed:?}");
        }
        // The threaded streamed pass is printed but not gated.
        let mut timing = synthetic_timing();
        timing
            .workloads
            .iter_mut()
            .for_each(|w| w.stream_par_ms *= 10.0);
        assert!(timing.missed_floors(&avx512_floors()).is_empty());
    }

    #[test]
    fn perf_gate_refuses_other_caps_and_unfloored_builds() {
        let err = stage_floors(300_000, "avx512").unwrap_err();
        assert!(err.contains("not at 300000"), "{err}");
        let err = stage_floors(PERF_GATE_CAP, "portable").unwrap_err();
        assert!(
            err.contains("no floors for the portable kernel build"),
            "{err}"
        );
        // The summary prints each ratio next to its floor, or says there
        // is none.
        let mut timing = synthetic_timing();
        timing.manifest = timing.manifest.with_kernel("avx512");
        let summary = timing.summary();
        assert!(
            summary.contains("prepare_ms 16.7x (floor 12.5x)"),
            "{summary}"
        );
        assert!(summary.contains("stream_ms 7.7x (floor 5.3x)"), "{summary}");
        timing.manifest = timing.manifest.with_kernel("portable");
        let summary = timing.summary();
        assert!(
            summary.contains("lane_machines_ms 14.3x (no floor)"),
            "{summary}"
        );
    }

    #[test]
    fn one_false_gate_is_named_by_every_reader() {
        let mut timing = synthetic_timing();
        assert!(timing.failed_gates().is_empty());
        timing.cache_matches = false;
        assert_eq!(timing.failed_gates(), ["cache_matches"]);
        let summary = timing.summary();
        assert!(summary.contains("cache roundtrip bit-identical: false"), "{summary}");
        assert!(summary.contains("tables identical: true; streaming bit-identical: true"));
        let json = clfp_metrics::json::render(&timing.to_json());
        assert!(json.contains("\"cache_matches\": false"), "{json}");
        assert!(json.contains("\"lane_matches\": true"), "{json}");
    }

    #[test]
    fn pipeline_profile_renders_stages_groups_and_counters() {
        use clfp_metrics::trace::{CounterEvent, SpanEvent, TraceLog, TraceRecord};
        let span = |name: &str, ts_us: u64, dur_us: u64, args: Vec<(&'static str, Value)>| {
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
                        ("group", Value::U64(0)),
                        ("cd", Value::Bool(true)),
                        ("lanes", Value::U64(2)),
                        ("width", Value::U64(2)),
                        ("key_mode", Value::Str("perfect".into())),
                        ("slots", Value::Str("0:CD+u,1:CD-MF+u".into())),
                        ("events", Value::U64(5000)),
                        ("chunks", Value::U64(3)),
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
}
