//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! regen                      # all tables and figures, default trace cap
//! regen --table 3            # only Table 3
//! regen --figure 6           # only Figure 6
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
//!                            # results/disambiguation.md, fail if the
//!                            # alias soundness gate trips
//! regen --valuepred          # sweep value prediction (off / last-value /
//!                            # stride / perfect), write
//!                            # results/value_prediction.md, fail if the
//!                            # monotonicity gate trips
//! regen --metrics            # per-machine execution metrics, write
//!                            # results/metrics_suite.json + attribution.md
//! regen --trace trace.json   # run the timed suite with span tracing on,
//!                            # write a Perfetto/chrome://tracing JSON plus
//!                            # results/pipeline_profile.md
//! regen --check-perf         # run the timed suite and gate its lane and
//!                            # reference walls against the committed
//!                            # BENCH_suite.json
//!                            # (--perf-tolerance PCT, default 50); exit 4
//!                            # on regression
//! regen --no-cache           # skip the on-disk trace cache, always re-execute
//! regen --force              # overwrite results from a different config
//! ```
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
//! the exact configuration, git revision, and host that produced it.
//! Overwriting a result that carries a *different* config hash (or none at
//! all) is refused unless `--force` is given, so stale or mixed-provenance
//! results cannot silently accumulate in `results/`. The timed artifacts
//! (`BENCH_suite.json`, `BENCH_scaling.json`, `pipeline_profile.md`) also
//! name the kernel build that ran (`kernel: avx512` or `portable`, see
//! `clfp_limits::kernel_isa`), and `--check-perf` refuses a baseline
//! recorded under a different build.

use std::process::ExitCode;

use clfp_bench::{
    check_perf, figure4, figure5, figure6, figure7, pipeline_profile_md, run_alias_suite,
    run_lint_suite, run_metrics_suite, run_scaling_suite, run_suite, run_suite_timed,
    run_valuepred_suite, static_inventory, suite_manifest, table1, table2, table3, table4,
};
use clfp_limits::{AnalysisConfig, StreamOptions};
use clfp_metrics::RunManifest;
use clfp_vm::TraceCache;

struct Args {
    table: Option<u32>,
    figure: Option<u32>,
    max_instrs: u64,
    out: Option<std::path::PathBuf>,
    timing: bool,
    scaling: bool,
    lint: bool,
    alias: bool,
    valuepred: bool,
    metrics: bool,
    no_cache: bool,
    force: bool,
    trace: Option<std::path::PathBuf>,
    check_perf: bool,
    perf_tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        table: None,
        figure: None,
        max_instrs: 2_000_000,
        out: None,
        timing: false,
        scaling: false,
        lint: false,
        alias: false,
        valuepred: false,
        metrics: false,
        no_cache: false,
        force: false,
        trace: None,
        check_perf: false,
        perf_tolerance: 50.0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--table" => {
                let value = iter.next().ok_or("--table needs a number")?;
                args.table = Some(value.parse().map_err(|_| format!("bad table `{value}`"))?);
            }
            "--figure" => {
                let value = iter.next().ok_or("--figure needs a number")?;
                args.figure = Some(value.parse().map_err(|_| format!("bad figure `{value}`"))?);
            }
            "--max-instr" | "--max-instrs" => {
                let value = iter.next().ok_or("--max-instr needs a number")?;
                args.max_instrs = value
                    .parse()
                    .map_err(|_| format!("bad instruction cap `{value}`"))?;
            }
            "--out" => {
                let value = iter.next().ok_or("--out needs a directory")?;
                args.out = Some(value.into());
            }
            "--timing" => {
                args.timing = true;
            }
            "--scaling" => {
                args.scaling = true;
            }
            "--lint" => {
                args.lint = true;
            }
            "--alias" => {
                args.alias = true;
            }
            "--valuepred" => {
                args.valuepred = true;
            }
            "--metrics" => {
                args.metrics = true;
            }
            "--no-cache" => {
                args.no_cache = true;
            }
            "--force" => {
                args.force = true;
            }
            "--trace" => {
                let value = iter.next().ok_or("--trace needs an output file")?;
                args.trace = Some(value.into());
            }
            "--check-perf" => {
                args.check_perf = true;
            }
            "--perf-tolerance" => {
                let value = iter.next().ok_or("--perf-tolerance needs a percentage")?;
                args.perf_tolerance = value
                    .parse()
                    .map_err(|_| format!("bad tolerance `{value}`"))?;
                if args.perf_tolerance < 0.0 || args.perf_tolerance.is_nan() {
                    return Err(format!("bad tolerance `{value}`"));
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: regen [--table N] [--figure N] [--max-instrs M] [--out DIR]\n\
                     \x20            [--timing] [--scaling] [--lint] [--alias] [--valuepred]\n\
                     \x20            [--metrics] [--trace FILE] [--check-perf]\n\
                     \x20            [--perf-tolerance PCT] [--no-cache] [--force]\n\
                     Regenerates the paper's tables (1-4) and figures (4-7); with\n\
                     --out, also writes each as a markdown file under DIR, and\n\
                     --max-instrs M caps every measured trace at M dynamic\n\
                     instructions (default 2000000). With\n\
                     --timing, instead times the full-suite regeneration (lane-kernel\n\
                     analyzer vs the reference pipeline vs the streaming chunked\n\
                     pipeline, per-stage wall times) and\n\
                     writes BENCH_suite.json to DIR (or the current directory).\n\
                     With --scaling, instead streams qsort and stencil through the\n\
                     chunked pipeline at 2M/10M/50M/100M dynamic instructions\n\
                     (repeating each deterministic execution to length), records\n\
                     wall time and peak RSS per point, and writes\n\
                     BENCH_scaling.json to DIR (or the current directory).\n\
                     With --lint, instead lints + cross-checks the suite, writes\n\
                     lint_suite.json to DIR (default results/), and fails on any\n\
                     unwaived diagnostic. With --alias, instead analyzes every\n\
                     workload under all three memory-disambiguation modes\n\
                     (perfect / static alias classes / none), writes\n\
                     disambiguation.md to DIR (default results/), and fails if\n\
                     any dynamic conflict lands on a statically no-alias pair or\n\
                     the static-mode pipelines diverge. With --valuepred, instead\n\
                     analyzes every workload under all four value-prediction modes\n\
                     (off / last-value / stride / perfect oracle), writes\n\
                     value_prediction.md to DIR (default results/), and fails if a\n\
                     stronger mode lengthens any schedule or the stride-mode\n\
                     pipelines diverge. With --metrics, instead collects\n\
                     per-machine execution metrics (cycle occupancy, critical-path\n\
                     attribution, binding-edge counters) and writes\n\
                     metrics_suite.json + attribution.md to DIR (default results/).\n\
                     With --trace FILE, runs the timed suite with span tracing on\n\
                     and writes FILE as Chrome trace-event JSON (load it in\n\
                     ui.perfetto.dev) plus pipeline_profile.md to DIR (default\n\
                     results/): per-stage and per-lane-group wall-time attribution.\n\
                     With --check-perf, runs the timed suite and compares its\n\
                     lane and reference pipeline walls (lane_wall_ms,\n\
                     reference_wall_ms) against the BENCH_suite.json in DIR (default\n\
                     the current directory); a wall more than --perf-tolerance\n\
                     percent (default 50) over the baseline, or any failed\n\
                     bit-identity gate, exits with status 4.\n\
                     Raw traces are cached on disk under $CLFP_CACHE_DIR (default\n\
                     target/clfp-cache) keyed by program, trace cap, and format\n\
                     version, so reruns skip VM execution and branch profiling;\n\
                     --no-cache always re-executes instead (manage the cache with\n\
                     `clfp cache`).\n\
                     Every artifact carries a run manifest; regen refuses to\n\
                     overwrite a result produced under a different configuration\n\
                     unless --force is given."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Writes `contents` to `path` unless an existing file there was produced
/// under a different (or unknown) configuration and `force` is off.
/// Returns false when the write was refused or failed.
fn write_guarded(
    path: &std::path::Path,
    contents: &str,
    current_hash: &str,
    force: bool,
) -> bool {
    if !force {
        if let Ok(existing) = std::fs::read_to_string(path) {
            match RunManifest::config_hash_of(&existing) {
                Some(hash) if hash == current_hash => {}
                Some(hash) => {
                    eprintln!(
                        "regen: refusing to overwrite {} (existing config hash {hash}, \
                         this run is {current_hash}; pass --force to override)",
                        path.display()
                    );
                    return false;
                }
                None => {
                    eprintln!(
                        "regen: refusing to overwrite {} (no run manifest — unknown \
                         provenance; pass --force to override)",
                        path.display()
                    );
                    return false;
                }
            }
        }
    }
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("regen: cannot write {}: {err}", path.display());
        return false;
    }
    true
}

/// Prints a section and, when `--out` is set, writes it — stamped with the
/// run manifest — under DIR. Returns false if the write was refused/failed.
fn emit(args: &Args, manifest: &RunManifest, name: &str, content: &str) -> bool {
    println!("{content}");
    let Some(dir) = &args.out else { return true };
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("regen: cannot create {}: {err}", dir.display());
        return false;
    }
    let stamped = format!("{}\n{content}", manifest.to_markdown_header());
    write_guarded(
        &dir.join(format!("{name}.md")),
        &stamped,
        &manifest.config_hash,
        args.force,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
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

    let config = AnalysisConfig {
        max_instrs: args.max_instrs,
        ..AnalysisConfig::default()
    };
    let manifest = suite_manifest(&config);

    if args.metrics {
        eprintln!(
            "collecting metrics: 10 workloads x 7 machines, recording sink (trace cap {})...",
            args.max_instrs
        );
        let suite = match run_metrics_suite(&config) {
            Ok(suite) => suite,
            Err(err) => {
                eprintln!("regen: metrics suite failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let dir = args
            .out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("results"));
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("regen: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
        let attribution = format!(
            "{}\n{}",
            suite.manifest.to_markdown_header(),
            suite.attribution_md()
        );
        println!("{}", suite.attribution_md());
        let mut ok = true;
        for (file, contents) in [
            ("metrics_suite.json", suite.to_json()),
            ("attribution.md", attribution),
        ] {
            let path = dir.join(file);
            if write_guarded(&path, &contents, &manifest.config_hash, args.force) {
                eprintln!("wrote {}", path.display());
            } else {
                ok = false;
            }
        }
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if args.lint {
        eprintln!(
            "linting 10 workloads x 2 unroll settings (trace cap {})...",
            args.max_instrs
        );
        let suite = match run_lint_suite(&config) {
            Ok(suite) => suite,
            Err(err) => {
                eprintln!("regen: lint suite failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", suite.summary());
        let dir = args
            .out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("results"));
        let path = dir.join("lint_suite.json");
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("regen: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
        if !write_guarded(&path, &suite.to_json(), &manifest.config_hash, args.force) {
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return if suite.is_clean() {
            ExitCode::SUCCESS
        } else {
            eprintln!("regen: outstanding lint diagnostics");
            ExitCode::FAILURE
        };
    }

    if args.alias {
        eprintln!(
            "sweeping memory disambiguation: 10 workloads x 7 machines x 3 modes \
             (trace cap {})...",
            args.max_instrs
        );
        let suite = match run_alias_suite(&config) {
            Ok(suite) => suite,
            Err(err) => {
                eprintln!("regen: alias suite failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", suite.disambiguation_md());
        let dir = args
            .out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("results"));
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("regen: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("disambiguation.md");
        let stamped = format!(
            "{}\n{}",
            suite.manifest.to_markdown_header(),
            suite.disambiguation_md()
        );
        if !write_guarded(&path, &stamped, &manifest.config_hash, args.force) {
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return if suite.is_sound() && suite.pipelines_agree() {
            ExitCode::SUCCESS
        } else {
            eprintln!("regen: alias soundness or pipeline-agreement gate failed");
            ExitCode::FAILURE
        };
    }

    if args.valuepred {
        eprintln!(
            "sweeping value prediction: 10 workloads x 7 machines x 4 modes \
             (trace cap {})...",
            args.max_instrs
        );
        let suite = match run_valuepred_suite(&config) {
            Ok(suite) => suite,
            Err(err) => {
                eprintln!("regen: value-prediction suite failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", suite.value_prediction_md());
        let dir = args
            .out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("results"));
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("regen: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("value_prediction.md");
        let stamped = format!(
            "{}\n{}",
            suite.manifest.to_markdown_header(),
            suite.value_prediction_md()
        );
        if !write_guarded(&path, &stamped, &manifest.config_hash, args.force) {
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return if suite.is_monotone() && suite.pipelines_agree() {
            ExitCode::SUCCESS
        } else {
            eprintln!("regen: value-prediction monotonicity or pipeline-agreement gate failed");
            ExitCode::FAILURE
        };
    }

    if args.scaling {
        const WORKLOADS: [&str; 2] = ["qsort", "stencil"];
        const POINTS: [u64; 4] = [2_000_000, 10_000_000, 50_000_000, 100_000_000];
        eprintln!(
            "streaming scaling: {WORKLOADS:?} at {POINTS:?} dynamic instrs \
             (repeated executions, chunked pipeline)..."
        );
        let suite = match run_scaling_suite(&config, &WORKLOADS, &POINTS, StreamOptions::default())
        {
            Ok(suite) => suite,
            Err(err) => {
                eprintln!("regen: scaling suite failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", suite.summary());
        let path = args
            .out
            .as_deref()
            .unwrap_or(std::path::Path::new("."))
            .join("BENCH_scaling.json");
        if let Some(dir) = args.out.as_deref() {
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!("regen: cannot create {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if !write_guarded(&path, &suite.to_json(), &manifest.config_hash, args.force) {
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        let clean = suite
            .points
            .iter()
            .all(|p| p.matches_inmemory != Some(false));
        return if clean {
            ExitCode::SUCCESS
        } else {
            eprintln!("regen: streaming diverged from the in-memory pipeline");
            ExitCode::FAILURE
        };
    }

    if args.timing || args.trace.is_some() || args.check_perf {
        eprintln!(
            "timing full-suite regen, lane kernel vs reference pipeline (trace cap {})...",
            args.max_instrs
        );
        // --trace turns the span recorder on for exactly the suite run it
        // exports; the drained log feeds both the Perfetto JSON and the
        // pipeline-profile attribution table.
        if args.trace.is_some() {
            clfp_metrics::trace::set_tracing(true);
        }
        let timing = match run_suite_timed(&config) {
            Ok(timing) => timing,
            Err(err) => {
                clfp_metrics::trace::set_tracing(false);
                eprintln!("regen: timing suite failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let log = args.trace.is_some().then(|| {
            clfp_metrics::trace::set_tracing(false);
            clfp_metrics::trace::drain()
        });
        println!("{}", timing.summary());
        let mut ok = true;

        if let (Some(trace_path), Some(log)) = (args.trace.as_deref(), log.as_ref()) {
            if let Err(err) =
                std::fs::write(trace_path, clfp_metrics::trace::chrome_trace_json(log))
            {
                eprintln!("regen: cannot write {}: {err}", trace_path.display());
                ok = false;
            } else {
                eprintln!(
                    "wrote {} ({} spans; open in ui.perfetto.dev or chrome://tracing)",
                    trace_path.display(),
                    log.spans().count()
                );
            }
            let dir = args
                .out
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("results"));
            if let Err(err) = std::fs::create_dir_all(&dir) {
                eprintln!("regen: cannot create {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
            let profile_path = dir.join("pipeline_profile.md");
            let stamped = format!(
                "{}\n{}",
                timing.manifest.to_markdown_header(),
                pipeline_profile_md(&timing, log)
            );
            if write_guarded(&profile_path, &stamped, &manifest.config_hash, args.force) {
                eprintln!("wrote {}", profile_path.display());
            } else {
                ok = false;
            }
        }

        // Gate before any baseline write: a regressed run must never
        // replace the baseline it just failed against.
        if args.check_perf {
            let baseline_path = args
                .out
                .as_deref()
                .unwrap_or(std::path::Path::new("."))
                .join("BENCH_suite.json");
            let baseline = match std::fs::read_to_string(&baseline_path) {
                Ok(contents) => contents,
                Err(err) => {
                    eprintln!(
                        "regen: cannot read baseline {}: {err}",
                        baseline_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            match check_perf(&timing, &baseline, args.perf_tolerance) {
                Ok(check) => {
                    for line in &check.lines {
                        eprintln!("perf: {line}");
                    }
                    if !check.passed() {
                        for regression in &check.regressions {
                            eprintln!("regen: perf regression: {regression}");
                        }
                        return ExitCode::from(4);
                    }
                    eprintln!(
                        "perf gate passed against {} (tolerance +{:.0}%)",
                        baseline_path.display(),
                        args.perf_tolerance
                    );
                }
                Err(message) => {
                    eprintln!("regen: perf baseline unusable: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }

        if args.timing {
            let path = args
                .out
                .as_deref()
                .unwrap_or(std::path::Path::new("."))
                .join("BENCH_suite.json");
            if let Some(dir) = args.out.as_deref() {
                if let Err(err) = std::fs::create_dir_all(dir) {
                    eprintln!("regen: cannot create {}: {err}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
            if !write_guarded(&path, &timing.to_json(), &manifest.config_hash, args.force) {
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let wants = |kind: &str, n: u32| -> bool {
        match (kind, args.table, args.figure) {
            (_, None, None) => true,
            ("table", Some(t), _) => t == n,
            ("figure", _, Some(f)) => f == n,
            _ => false,
        }
    };

    let mut ok = true;
    if wants("table", 1) {
        ok &= emit(&args, &manifest, "table1", &table1());
        ok &= emit(&args, &manifest, "inventory", &static_inventory());
    }

    let needs_runs = wants("table", 2)
        || wants("table", 3)
        || wants("table", 4)
        || wants("figure", 4)
        || wants("figure", 5)
        || wants("figure", 6)
        || wants("figure", 7);
    if !needs_runs {
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    eprintln!(
        "running 10 workloads x 7 machines x 2 unroll settings (trace cap {})...",
        args.max_instrs
    );
    let start = std::time::Instant::now();
    let reports = match run_suite(&config) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("regen: suite failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("suite analyzed in {:.1}s", start.elapsed().as_secs_f64());
    eprintln!();

    for r in &reports {
        eprintln!(
            "  {:10} raw trace {:>9} instrs, {:>9} after inlining/unrolling",
            r.workload.name, r.unrolled.raw_instrs, r.unrolled.seq_instrs
        );
    }
    eprintln!();

    if wants("table", 2) {
        ok &= emit(&args, &manifest, "table2", &table2(&reports));
    }
    if wants("table", 3) {
        ok &= emit(&args, &manifest, "table3", &table3(&reports));
    }
    if wants("table", 4) {
        ok &= emit(&args, &manifest, "table4", &table4(&reports));
    }
    if wants("figure", 4) {
        ok &= emit(&args, &manifest, "figure4", &figure4(&reports));
    }
    if wants("figure", 5) {
        ok &= emit(&args, &manifest, "figure5", &figure5(&reports));
    }
    if wants("figure", 6) {
        ok &= emit(&args, &manifest, "figure6", &figure6(&reports));
    }
    if wants("figure", 7) {
        ok &= emit(&args, &manifest, "figure7", &figure7(&reports));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
