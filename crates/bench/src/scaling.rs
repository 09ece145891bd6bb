//! `regen --scaling`: streams repeated workload executions through the
//! chunked pipeline at increasing trace lengths (`BENCH_scaling.json`).

use std::time::Instant;

use clfp_limits::{AnalysisConfig, AnalyzeError, Analyzer, StreamOptions};
use clfp_metrics::json::Value;
use clfp_metrics::RunManifest;
use clfp_vm::ProgramSource;

use crate::{compile, ms, reports_equal, suite_manifest};

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
    /// Peak resident set size of the whole process so far, in MiB: the
    /// largest `VmHWM` read from `/proc/self/status` up to this point (0
    /// when unavailable). The kernel's reading is approximate and can
    /// fall back by a few hundred KiB between reads, so the suite keeps
    /// the running maximum. Points must be visited in increasing size
    /// order for per-point attribution to be meaningful.
    pub peak_rss_mb: f64,
    /// For the smallest point only: whether a plain (non-repeated)
    /// streamed run reproduced the reports of an in-memory preparation
    /// bit for bit.
    pub matches_inmemory: Option<bool>,
}

/// Results of [`run_scaling_suite`] (`BENCH_scaling.json`): wall time and
/// peak RSS of the streaming chunked pipeline at increasing trace lengths,
/// demonstrating paper-scale (100M-instruction) runs in O(chunk) trace
/// memory.
#[derive(Clone, Debug)]
pub struct ScalingSuite {
    /// Chunk size (events) requested; 0 means the adaptive per-workload
    /// default ([`StreamOptions::chunk_events`]).
    pub chunk_events: usize,
    /// The worker-thread setting pass 2 ran with (`machine_threads`,
    /// with `0` resolved to the host's available parallelism).
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
/// plain single-execution stream must reproduce the reports of an
/// in-memory preparation bit for bit.
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
        compiled.push((workload.name, compile(workload)?));
    }

    let mut results = Vec::new();
    let mut peak_rss = 0.0f64;
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
                let (unrolled, rolled) = prepared.report_both();
                Some(
                    reports_equal(&check.unrolled, &unrolled)
                        && reports_equal(&check.rolled, &rolled),
                )
            } else {
                None
            };

            peak_rss = peak_rss.max(peak_rss_mb());
            results.push(ScalingPoint {
                workload: name,
                max_instrs: limit,
                raw_instrs,
                wall_ms,
                events_per_sec: raw_instrs as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE),
                peak_rss_mb: peak_rss,
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
    /// The curve as JSON (`BENCH_scaling.json`).
    pub fn to_json(&self) -> Value {
        let points = self.points.iter().map(|p| {
            Value::object()
                .with("workload", p.workload)
                .with("max_instrs", p.max_instrs)
                .with("raw_instrs", p.raw_instrs)
                .with("wall_ms", Value::Fixed(p.wall_ms, 1))
                .with("events_per_sec", Value::Fixed(p.events_per_sec, 0))
                .with("peak_rss_mb", Value::Fixed(p.peak_rss_mb, 1))
                .with("matches_inmemory", p.matches_inmemory)
        });
        Value::object()
            .with(
                "suite",
                "streaming scaling: wall time and peak RSS vs trace length",
            )
            .with("chunk_events", self.chunk_events)
            .with("machine_threads", self.machine_threads)
            .with("manifest", self.manifest.to_json())
            .with("points", Value::Array(points.collect()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_config;

    #[test]
    fn scaling_suite_streams_repeated_sources() {
        let suite = run_scaling_suite(
            &tiny_config(),
            &["qsort", "stencil"],
            &[60_000, 20_000],
            StreamOptions {
                chunk_events: 4096,
                machine_threads: 1,
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
        let json = clfp_metrics::json::render(&suite.to_json());
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
}
