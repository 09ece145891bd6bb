//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! regen                      # all tables and figures, default trace cap
//! regen --table 3            # only Table 3 (tables are 1-4)
//! regen --figure 6           # only Figure 6 (figures are 4-7)
//! regen --max-instr 500000   # cap traces at 500k instructions
//! regen --out results/       # also write each section as markdown
//! regen --timing             # time the lane-kernel vs reference
//!                            # pipelines, write BENCH_suite.json
//! regen --scaling            # stream qsort+stencil at 2M..100M instrs,
//!                            # write BENCH_scaling.json (wall + peak RSS)
//! regen --lint               # lint + cross-check the suite, write
//!                            # results/lint_suite.json, fail on findings
//! regen --alias              # sweep memory disambiguation (perfect vs
//!                            # static vs none), write
//!                            # results/disambiguation.md, fail unless the
//!                            # alias-soundness, monotonicity and
//!                            # pipeline gates pass
//! regen --valuepred          # sweep value prediction (off / last-value /
//!                            # stride / perfect), write
//!                            # results/value_prediction.md, fail unless
//!                            # the monotonicity and pipeline gates pass
//! regen --metrics            # per-machine execution metrics, write
//!                            # results/metrics_suite.json + attribution.md
//! regen --trace trace.json   # run the timed suite with span tracing on,
//!                            # write a Perfetto/chrome://tracing JSON plus
//!                            # results/pipeline_profile.md
//! regen --check-perf         # run the timed suite and hold each lane
//!                            # stage to a floor against the reference
//!                            # pass of the same run; exit 4 naming a
//!                            # stage that misses its floor
//! regen --no-cache           # skip the on-disk trace cache, always re-execute
//! regen --force              # overwrite results from a different config
//! ```
//!
//! Each run does one thing. Two modes (`--timing`, `--trace` and
//! `--check-perf` together count as one), a table outside 1-4, a figure
//! outside 4-7, or `--check-perf` where it has no floors (another trace
//! cap, or a kernel build with none) exit 1 with a message before any
//! suite runs. The timed modes exit 1, naming every false bit-identity
//! gate, before they write any artifact.
//!
//! By default regen installs the on-disk trace cache
//! (`$CLFP_CACHE_DIR` or `target/clfp-cache`): the first run of a
//! workload at a given trace cap executes the VM and stores the raw
//! trace; later runs — including every suite in the same invocation and
//! every future invocation — load it back from disk, skipping VM
//! execution and branch profiling entirely. Cache files are keyed by
//! program fingerprint, trace cap, and trace-format version, and are
//! re-validated on every read, so a stale or corrupt file is rebuilt
//! rather than trusted. `--no-cache` restores the always-re-execute
//! behaviour (the reference cost baseline never reads the cache either
//! way).
//!
//! Every artifact regen writes is stamped with a [`RunManifest`] recording
//! the exact configuration, git revision, and host that produced it, and
//! goes through one write path: overwriting a result that carries a
//! *different* config hash (or none at all) is refused unless `--force` is
//! given, so stale or mixed-provenance results cannot silently accumulate
//! in `results/`. The timed artifacts (`BENCH_suite.json`,
//! `BENCH_scaling.json`, `pipeline_profile.md`) also name the kernel build
//! that ran (`kernel: avx512` or `portable`, see
//! `clfp_limits::kernel_isa`), and `--check-perf` reads its floors for
//! that build. It reads no file: `BENCH_suite.json` is an output only.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use clfp_bench::{
    figure4, figure5, figure6, figure7, pipeline_profile_md, run_axis_sweep, run_lint_suite,
    run_metrics_suite, run_scaling_suite, run_suite, run_suite_timed, stage_floors,
    static_inventory, suite_manifest, table1, table2, table3, table4, AxisSweep, WorkloadReport,
    DISAMBIGUATION, VALUE_PREDICTION,
};
use clfp_limits::{AnalysisConfig, StreamOptions};
use clfp_metrics::json::render;
use clfp_metrics::RunManifest;
use clfp_vm::TraceCache;

const USAGE: &str = "\
usage: regen [--table N] [--figure N] [--max-instrs M] [--out DIR]
             [--timing] [--scaling] [--lint] [--alias] [--valuepred]
             [--metrics] [--trace FILE] [--check-perf]
             [--no-cache] [--force]
Regenerates the paper's tables (1-4) and figures (4-7); with
--out, also writes each as a markdown file under DIR, and
--max-instrs M caps every measured trace at M dynamic
instructions (default 2000000). Each run does one thing: the
flags below select another mode instead, and two modes exit 1
(--timing, --trace and --check-perf together count as one).
With --timing, times the full-suite regeneration (lane-kernel
analyzer vs the reference pipeline vs the streaming chunked
pipeline, per-stage wall times) and
writes BENCH_suite.json to DIR (or the current directory).
With --scaling, streams qsort and stencil through the
chunked pipeline at 2M/10M/50M/100M dynamic instructions
(repeating each deterministic execution to length), records
wall time and peak RSS per point, and writes
BENCH_scaling.json to DIR (or the current directory).
With --lint, lints + cross-checks the suite, writes
lint_suite.json to DIR (default results/), and fails on any
unwaived diagnostic. With --alias, analyzes every
workload under all three memory-disambiguation modes
(perfect / static alias classes / none), writes
disambiguation.md to DIR (default results/), and fails if
any dynamic conflict lands on a statically no-alias pair, a
weaker mode beats a stronger one, or the static-mode
pipelines diverge. With --valuepred, analyzes every workload
under all four value-prediction modes (off / last-value /
stride / perfect oracle), writes value_prediction.md to DIR
(default results/), and fails if a stronger mode lengthens
any schedule or the stride-mode pipelines diverge. With
--metrics, collects per-machine execution metrics (cycle
occupancy, critical-path attribution, binding-edge counters)
and writes metrics_suite.json + attribution.md to DIR
(default results/).
With --trace FILE, runs the timed suite with span tracing on
and writes FILE as Chrome trace-event JSON (load it in
ui.perfetto.dev) plus pipeline_profile.md to DIR (default
results/): per-stage and per-lane-group wall-time attribution.
With --check-perf, runs the timed suite and divides its
reference analysis wall by each of three lane stages
(prepare_ms, lane_machines_ms, stream_ms); a ratio below that
stage's floor exits with status 4, naming the stage. The
floors hold at the default cap on a host that runs the
AVX-512 kernel build; another cap or build exits 1.
--timing, --trace and --check-perf print the timed suite's six
bit-identity gates and exit 1, naming every false one, before
they write anything.
Raw traces are cached on disk under $CLFP_CACHE_DIR (default
target/clfp-cache) keyed by program, trace cap, and format
version, so reruns skip VM execution and branch profiling;
--no-cache always re-executes instead (manage the cache with
`clfp cache`).
Every artifact carries a run manifest; regen refuses to
overwrite a result produced under a different configuration
unless --force is given.";

/// What one regen run does.
enum Mode {
    /// Tables 1-4 and Figures 4-7, or the one table or figure selected.
    Tables {
        table: Option<u32>,
        figure: Option<u32>,
    },
    /// The instrumented suite walk: `--timing`, `--trace`, and
    /// `--check-perf` with its stage floors.
    Timed {
        timing: bool,
        trace: Option<PathBuf>,
        floors: Option<[f64; 3]>,
    },
    Scaling,
    Lint,
    Sweep(&'static AxisSweep),
    Metrics,
}

struct Args {
    mode: Mode,
    max_instrs: u64,
    out: Option<PathBuf>,
    no_cache: bool,
    force: bool,
}

/// Records that `flag` selects the mode `group`; a flag of a different
/// group than the first mode flag is an error.
fn select(
    chosen: &mut Option<(&'static str, String)>,
    group: &'static str,
    flag: &str,
) -> Result<(), String> {
    match chosen {
        Some((first_group, first_flag)) if *first_group != group => Err(format!(
            "{first_flag} and {flag} select different modes; run them one at a time"
        )),
        Some(_) => Ok(()),
        None => {
            *chosen = Some((group, flag.to_string()));
            Ok(())
        }
    }
}

/// Parses the command line; `None` means `--help` was printed.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut chosen = None;
    let (mut table, mut figure, mut trace) = (None, None, None);
    let (mut timing, mut check_perf) = (false, false);
    let mut args = Args {
        mode: Mode::Tables {
            table: None,
            figure: None,
        },
        max_instrs: 2_000_000,
        out: None,
        no_cache: false,
        force: false,
    };
    let mut iter = argv.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| iter.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--table" => {
                let value = value("a number")?;
                table = Some(value.parse().map_err(|_| format!("bad table `{value}`"))?);
                select(&mut chosen, "tables", &arg)?;
            }
            "--figure" => {
                let value = value("a number")?;
                figure = Some(value.parse().map_err(|_| format!("bad figure `{value}`"))?);
                select(&mut chosen, "tables", &arg)?;
            }
            "--max-instr" | "--max-instrs" => {
                let value = value("a number")?;
                args.max_instrs = value
                    .parse()
                    .map_err(|_| format!("bad instruction cap `{value}`"))?;
            }
            "--out" => args.out = Some(value("a directory")?.into()),
            "--timing" => {
                timing = true;
                select(&mut chosen, "timed", &arg)?;
            }
            "--trace" => {
                trace = Some(PathBuf::from(value("an output file")?));
                select(&mut chosen, "timed", &arg)?;
            }
            "--check-perf" => {
                check_perf = true;
                select(&mut chosen, "timed", &arg)?;
            }
            "--scaling" => {
                args.mode = Mode::Scaling;
                select(&mut chosen, "scaling", &arg)?;
            }
            "--lint" => {
                args.mode = Mode::Lint;
                select(&mut chosen, "lint", &arg)?;
            }
            "--alias" => {
                args.mode = Mode::Sweep(&DISAMBIGUATION);
                select(&mut chosen, "alias", &arg)?;
            }
            "--valuepred" => {
                args.mode = Mode::Sweep(&VALUE_PREDICTION);
                select(&mut chosen, "valuepred", &arg)?;
            }
            "--metrics" => {
                args.mode = Mode::Metrics;
                select(&mut chosen, "metrics", &arg)?;
            }
            "--no-cache" => args.no_cache = true,
            "--force" => args.force = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(n) = table.filter(|n| !(1..=4).contains(n)) {
        return Err(format!("no table {n}: the tables are 1-4"));
    }
    if let Some(n) = figure.filter(|n| !(4..=7).contains(n)) {
        return Err(format!("no figure {n}: the figures are 4-7"));
    }
    let floors = if check_perf {
        Some(stage_floors(args.max_instrs, clfp_limits::kernel_isa())?)
    } else {
        None
    };
    match chosen.as_ref().map(|(group, _)| *group) {
        Some("tables") => args.mode = Mode::Tables { table, figure },
        Some("timed") => {
            args.mode = Mode::Timed {
                timing,
                trace,
                floors,
            }
        }
        _ => {}
    }
    Ok(Some(args))
}

/// Why a run failed: printed as `regen: {message}`, exiting with `status`.
struct Failure {
    status: u8,
    message: String,
}

fn fail(message: impl Into<String>) -> Failure {
    Failure {
        status: 1,
        message: message.into(),
    }
}

/// Fails with `what` unless `passed`.
fn gate(passed: bool, what: &str) -> Result<(), Failure> {
    if passed {
        Ok(())
    } else {
        Err(fail(what))
    }
}

/// `body` behind the run manifest's markdown header.
fn stamped(manifest: &RunManifest, body: &str) -> String {
    format!("{}\n{body}", manifest.to_markdown_header())
}

/// The one write path for every artifact regen produces.
struct Writer {
    config_hash: String,
    force: bool,
    out: Option<PathBuf>,
}

impl Writer {
    /// `--out`, or `default` when it was not given.
    fn dir(&self, default: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from(default))
    }

    /// Writes `contents` to `dir/file`, creating `dir`, unless an existing
    /// file there was produced under a different (or unknown)
    /// configuration and `--force` is off.
    fn write(&self, dir: &Path, file: &str, contents: &str) -> Result<(), Failure> {
        std::fs::create_dir_all(dir)
            .map_err(|err| fail(format!("cannot create {}: {err}", dir.display())))?;
        let path = dir.join(file);
        if !self.force {
            if let Ok(existing) = std::fs::read_to_string(&path) {
                match RunManifest::config_hash_of(&existing) {
                    Some(hash) if hash == self.config_hash => {}
                    Some(hash) => {
                        return Err(fail(format!(
                            "refusing to overwrite {} (existing config hash {hash}, this run \
                             is {}; pass --force to override)",
                            path.display(),
                            self.config_hash
                        )))
                    }
                    None => {
                        return Err(fail(format!(
                            "refusing to overwrite {} (no run manifest — unknown provenance; \
                             pass --force to override)",
                            path.display()
                        )))
                    }
                }
            }
        }
        std::fs::write(&path, contents)
            .map_err(|err| fail(format!("cannot write {}: {err}", path.display())))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("regen: {message}");
            return ExitCode::FAILURE;
        }
    };
    clfp_bench::set_trace_cache(if args.no_cache {
        None
    } else {
        Some(TraceCache::new(TraceCache::default_dir()))
    });
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("regen: {}", failure.message);
            ExitCode::from(failure.status)
        }
    }
}

fn run(args: &Args) -> Result<(), Failure> {
    let config = AnalysisConfig {
        max_instrs: args.max_instrs,
        ..AnalysisConfig::default()
    };
    let cap = args.max_instrs;
    let manifest = suite_manifest(&config);
    let writer = Writer {
        config_hash: manifest.config_hash.clone(),
        force: args.force,
        out: args.out.clone(),
    };
    match &args.mode {
        Mode::Tables { table, figure } => tables(*table, *figure, &config, &manifest, &writer),
        Mode::Timed {
            timing,
            trace,
            floors,
        } => timed(*timing, trace.as_deref(), floors.as_ref(), &config, &writer),
        Mode::Scaling => {
            const WORKLOADS: [&str; 2] = ["qsort", "stencil"];
            const POINTS: [u64; 4] = [2_000_000, 10_000_000, 50_000_000, 100_000_000];
            eprintln!(
                "streaming scaling: {WORKLOADS:?} at {POINTS:?} dynamic instrs \
                 (repeated executions, chunked pipeline)..."
            );
            let suite = run_scaling_suite(&config, &WORKLOADS, &POINTS, StreamOptions::default())
                .map_err(|err| fail(format!("scaling suite failed: {err}")))?;
            println!("{}", suite.summary());
            let record = render(&suite.to_json());
            writer.write(&writer.dir("."), "BENCH_scaling.json", &record)?;
            gate(
                suite
                    .points
                    .iter()
                    .all(|p| p.matches_inmemory != Some(false)),
                "streaming diverged from the in-memory pipeline",
            )
        }
        Mode::Lint => {
            eprintln!("linting 10 workloads x 2 unroll settings (trace cap {cap})...");
            let suite =
                run_lint_suite(&config).map_err(|err| fail(format!("lint suite failed: {err}")))?;
            println!("{}", suite.summary());
            let record = render(&suite.to_json());
            writer.write(&writer.dir("results"), "lint_suite.json", &record)?;
            gate(suite.is_clean(), "outstanding lint diagnostics")
        }
        Mode::Sweep(axis) => {
            eprintln!(
                "sweeping {}: 10 workloads x 7 machines x {} modes (trace cap {cap})...",
                axis.name,
                axis.modes.len()
            );
            let suite = run_axis_sweep(axis, &config)
                .map_err(|err| fail(format!("{} sweep failed: {err}", axis.name)))?;
            let page = suite.markdown();
            println!("{page}");
            writer.write(
                &writer.dir("results"),
                axis.file,
                &stamped(&suite.manifest, &page),
            )?;
            gate(suite.passed(), &format!("a {} gate failed", axis.name))
        }
        Mode::Metrics => {
            eprintln!(
                "collecting metrics: 10 workloads x 7 machines, recording sink (trace cap {cap})..."
            );
            let suite = run_metrics_suite(&config)
                .map_err(|err| fail(format!("metrics suite failed: {err}")))?;
            let attribution = suite.attribution_md();
            println!("{attribution}");
            let dir = writer.dir("results");
            writer.write(&dir, "metrics_suite.json", &render(&suite.to_json()))?;
            writer.write(
                &dir,
                "attribution.md",
                &stamped(&suite.manifest, &attribution),
            )
        }
    }
}

/// Renders one section from the suite run's reports.
type Render = fn(&[WorkloadReport]) -> String;

/// Sections rendered from the suite run, by selector and number.
const RUN_SECTIONS: [(&str, u32, Render); 7] = [
    ("table", 2, table2),
    ("table", 3, table3),
    ("table", 4, table4),
    ("figure", 4, figure4),
    ("figure", 5, figure5),
    ("figure", 6, figure6),
    ("figure", 7, figure7),
];

fn tables(
    table: Option<u32>,
    figure: Option<u32>,
    config: &AnalysisConfig,
    manifest: &RunManifest,
    writer: &Writer,
) -> Result<(), Failure> {
    let wants = |kind: &str, n: u32| match (kind, table, figure) {
        (_, None, None) => true,
        ("table", Some(t), _) => t == n,
        ("figure", _, Some(f)) => f == n,
        _ => false,
    };
    // Prints a section and, when `--out` is set, writes it under DIR.
    let emit = |name: String, content: String| {
        println!("{content}");
        match &writer.out {
            Some(dir) => writer.write(dir, &format!("{name}.md"), &stamped(manifest, &content)),
            None => Ok(()),
        }
    };
    if wants("table", 1) {
        emit("table1".to_string(), table1())?;
        emit("inventory".to_string(), static_inventory())?;
    }
    if !RUN_SECTIONS.iter().any(|&(kind, n, _)| wants(kind, n)) {
        return Ok(());
    }

    eprintln!(
        "running 10 workloads x 7 machines x 2 unroll settings (trace cap {})...",
        config.max_instrs
    );
    let start = std::time::Instant::now();
    let reports = run_suite(config).map_err(|err| fail(format!("suite failed: {err}")))?;
    eprintln!("suite analyzed in {:.1}s", start.elapsed().as_secs_f64());
    eprintln!();
    for r in &reports {
        eprintln!(
            "  {:10} raw trace {:>9} instrs, {:>9} after inlining/unrolling",
            r.workload.name, r.unrolled.raw_instrs, r.unrolled.seq_instrs
        );
    }
    eprintln!();
    for (kind, n, render) in RUN_SECTIONS {
        if wants(kind, n) {
            emit(format!("{kind}{n}"), render(&reports))?;
        }
    }
    Ok(())
}

/// `--timing`, `--trace FILE` and `--check-perf`: one instrumented suite
/// walk, then its artifacts. `floors` is set under `--check-perf`.
fn timed(
    timing: bool,
    trace: Option<&Path>,
    floors: Option<&[f64; 3]>,
    config: &AnalysisConfig,
    writer: &Writer,
) -> Result<(), Failure> {
    eprintln!(
        "timing full-suite regen, lane kernel vs reference pipeline (trace cap {})...",
        config.max_instrs
    );
    // --trace turns the span recorder on for exactly the suite run it
    // exports; the drained log feeds both the Perfetto JSON and the
    // pipeline-profile attribution table.
    clfp_metrics::trace::set_tracing(trace.is_some());
    let result = run_suite_timed(config);
    clfp_metrics::trace::set_tracing(false);
    let timing_run = result.map_err(|err| fail(format!("timing suite failed: {err}")))?;
    println!("{}", timing_run.summary());
    // A false gate means a fast path computed different numbers: no
    // artifact of the run is written, whatever its timings.
    let failed = timing_run.failed_gates();
    if !failed.is_empty() {
        return Err(fail(format!(
            "bit-identity gate(s) false: {}",
            failed.join(", ")
        )));
    }

    if let Some(trace_path) = trace {
        let log = clfp_metrics::trace::drain();
        // The trace export goes to the path the user named; it carries
        // no manifest, so it is not a guarded artifact.
        std::fs::write(trace_path, render(&log.to_json()))
            .map_err(|err| fail(format!("cannot write {}: {err}", trace_path.display())))?;
        eprintln!(
            "wrote {} ({} spans; open in ui.perfetto.dev or chrome://tracing)",
            trace_path.display(),
            log.spans().count()
        );
        let profile = pipeline_profile_md(&timing_run, &log);
        writer.write(
            &writer.dir("results"),
            "pipeline_profile.md",
            &stamped(&timing_run.manifest, &profile),
        )?;
    }

    // Gate before the record is written: a regressed run writes no
    // BENCH_suite.json.
    if let Some(floors) = floors {
        let missed = timing_run.missed_floors(floors);
        if !missed.is_empty() {
            return Err(Failure {
                status: 4,
                message: format!("perf regression: {}", missed.join("; ")),
            });
        }
        eprintln!("perf gate passed: every gated stage cleared its floor");
    }

    if timing {
        let record = render(&timing_run.to_json());
        writer.write(&writer.dir("."), "BENCH_suite.json", &record)?;
    }
    Ok(())
}
