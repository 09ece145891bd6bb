//! The `clfp` command-line tool: compile, run, disassemble, and analyze
//! MiniC programs or clfp assembly with the limit analyzer.
//!
//! ```text
//! clfp compile prog.mc            # print generated assembly
//! clfp disasm prog.mc             # print linked disassembly
//! clfp run prog.mc                # execute, print main's result
//! clfp analyze prog.mc            # parallelism for all 7 machines
//! clfp analyze --workload qsort --max-instrs 100000000
//!                                 # paper scale, in O(chunk) trace memory
//! clfp analyze prog.s --no-unroll --predictor bimodal --fetch 8
//! clfp trace prog.mc -o prog.trc  # capture a trace file
//! clfp analyze prog.mc --trace prog.trc
//!                                 # stream it back from disk
//! clfp analyze --workload qsort --valuepred stride
//!                                 # schedule with value speculation
//! clfp lint prog.mc               # lint + static/dynamic cross-check
//! clfp lint --workload qsort --json
//! clfp workloads                  # list the benchmark suite
//! clfp cache                      # list the on-disk trace cache + suite
//!                                 # hit/miss probe (cache list --json for
//!                                 # machine-readable output)
//! clfp cache clear                # delete every cached trace
//! clfp analyze --workload qsort --trace-json spans.json
//!                                 # export pipeline spans for Perfetto
//! ```
//!
//! Files ending in `.mc` are treated as MiniC; anything else is assembled
//! as clfp assembly.
//!
//! `clfp analyze` streams the measured execution (or the `--trace` file)
//! through the two-pass chunked pipeline, so its trace memory is
//! O(chunk) at any trace length.

use std::process::ExitCode;

use clfp::isa::{Program, Reg};
use clfp::lang::CodegenOptions;
use clfp::limits::{
    AnalysisConfig, Analyzer, MachineKind, PredictorChoice, StreamOptions, ValuePrediction,
};
use clfp::metrics::json::{render, Value};
use clfp::vm::{FileTraceSource, Vm, VmOptions};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("clfp: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match command.as_str() {
        "compile" => compile_cmd(rest),
        "disasm" => disasm_cmd(rest),
        "run" => run_cmd(rest),
        "trace" => trace_cmd(rest),
        "analyze" => analyze_cmd(rest),
        "lint" => lint_cmd(rest),
        "cache" => cache_cmd(rest),
        "workloads" => {
            if let Some(arg) = Args::parse("workloads", rest, &[], &[])?.positional {
                return Err(format!("unexpected argument `{arg}` for `clfp workloads`"));
            }
            for w in clfp::workloads::suite() {
                println!(
                    "{:10} ({}; {})",
                    w.name, w.paper_analog, w.description
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `clfp help`")),
    }
}

fn print_usage() {
    println!(
        "usage: clfp <command> [options]\n\n\
         commands:\n\
         \u{20} compile <file.mc> [--if-convert] [--optimize]\n\
         \u{20}                                    print generated assembly\n\
         \u{20} disasm  <file>                     print linked disassembly\n\
         \u{20} run     <file> [--max-instr N]     execute and print the result\n\
         \u{20} trace   <file> -o out.trc          capture a trace to a file\n\
         \u{20} analyze <file | --workload NAME>   parallelism limits (all machines)\n\
         \u{20}         [--max-instrs N] [--no-unroll] [--no-inline]\n\
         \u{20}         [--predictor profile|btfn|taken|bimodal|gshare|two-level]\n\
         \u{20}         [--valuepred off|last-value|stride|perfect]\n\
         \u{20}         [--fetch W] [--if-convert]\n\
         \u{20}         [--trace file.trc]         analyze a captured trace whole\n\
         \u{20}                                    (not with --max-instrs)\n\
         \u{20}         [--trace-json out.json]    record pipeline spans and export\n\
         \u{20}         Chrome trace-event JSON (load in ui.perfetto.dev)\n\
         \u{20} lint    <file | --workload NAME>   lint + cross-check one program\n\
         \u{20}         [--max-instrs N] [--static-only] [--json]\n\
         \u{20}         exits nonzero on any error-severity finding\n\
         \u{20} workloads                          list the benchmark suite\n\
         \u{20} cache [list] [clear] [--dir DIR]   list (or wipe) the on-disk trace\n\
         \u{20}         cache used by regen; default $CLFP_CACHE_DIR or\n\
         \u{20}         target/clfp-cache; list probes the suite at\n\
         \u{20}         [--max-instrs N] and reports cache hits/misses,\n\
         \u{20}         with --json as machine-readable JSON\n\n\
         Files ending in .mc are MiniC; anything else is clfp assembly."
    );
}

fn load_program(path: &str, options: CodegenOptions) -> Result<Program, String> {
    let source =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
    if path.ends_with(".mc") {
        clfp::lang::compile_with_options(&source, options).map_err(|err| err.to_string())
    } else {
        clfp::isa::assemble(&source).map_err(|err| err.to_string())
    }
}

/// One subcommand's command line, checked against the flags it accepts:
/// an unknown flag, a flag that takes a value given none, or a second
/// positional argument is an error rather than silently ignored.
struct Args<'a> {
    positional: Option<&'a str>,
    /// Every accepted flag in command-line order, with its value if it
    /// takes one. The first occurrence of a repeated flag wins.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Parses `args` for `clfp command`: `switches` stand alone, `valued`
    /// flags take the next argument as their value.
    fn parse(
        command: &str,
        args: &'a [String],
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            positional: None,
            flags: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if switches.contains(&arg) {
                parsed.flags.push((arg, None));
            } else if valued.contains(&arg) {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.flags.push((arg, Some(value)));
                    }
                    _ => return Err(format!("`{arg}` needs a value")),
                }
            } else if arg.starts_with('-') {
                return Err(format!(
                    "unknown flag `{arg}` for `clfp {command}`; try `clfp help`"
                ));
            } else if parsed.positional.is_none() {
                parsed.positional = Some(arg);
            } else {
                return Err(format!("unexpected argument `{arg}` for `clfp {command}`"));
            }
        }
        Ok(parsed)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| *value)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The trace cap, spelled `--max-instr` or `--max-instrs`.
    fn max_instrs(&self) -> Result<Option<u64>, String> {
        self.value("--max-instr")
            .or_else(|| self.value("--max-instrs"))
            .map(|v| v.parse().map_err(|_| format!("bad --max-instrs `{v}`")))
            .transpose()
    }

    fn codegen_options(&self) -> CodegenOptions {
        CodegenOptions {
            if_conversion: self.has("--if-convert"),
            optimize: self.has("--optimize"),
        }
    }
}

/// The switches every subcommand that compiles MiniC accepts.
const CODEGEN_SWITCHES: [&str; 2] = ["--if-convert", "--optimize"];
const MAX_INSTRS: [&str; 2] = ["--max-instr", "--max-instrs"];

fn compile_cmd(args: &[String]) -> Result<(), String> {
    let args = Args::parse("compile", args, &CODEGEN_SWITCHES, &[])?;
    let path = args.positional.ok_or("compile needs a .mc file")?;
    if !path.ends_with(".mc") {
        return Err("compile takes a MiniC (.mc) file".into());
    }
    let source =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
    let options = args.codegen_options();
    let mut module = clfp::lang::parse(&source).map_err(|err| err.to_string())?;
    clfp::lang::check(&module).map_err(|err| err.to_string())?;
    if options.optimize {
        module = clfp::lang::optimize(&module);
    }
    let listing =
        clfp::lang::generate_asm_with(&module, options).map_err(|err| err.to_string())?;
    print!("{listing}");
    Ok(())
}

fn disasm_cmd(args: &[String]) -> Result<(), String> {
    let args = Args::parse("disasm", args, &CODEGEN_SWITCHES, &[])?;
    let path = args.positional.ok_or("disasm needs a file")?;
    let program = load_program(path, args.codegen_options())?;
    print!("{}", program.disassemble());
    Ok(())
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let args = Args::parse("run", args, &CODEGEN_SWITCHES, &MAX_INSTRS)?;
    let path = args.positional.ok_or("run needs a file")?;
    let limit: u64 = args.max_instrs()?.unwrap_or(1_000_000_000);
    let program = load_program(path, args.codegen_options())?;
    let mut vm = Vm::new(&program, VmOptions::default());
    let outcome = vm.run(limit).map_err(|err| err.to_string())?;
    println!(
        "{outcome:?} after {} instructions; result (v0) = {}",
        vm.executed(),
        vm.reg(Reg::V0)
    );
    Ok(())
}

fn trace_cmd(args: &[String]) -> Result<(), String> {
    let valued = ["-o", "--max-instr", "--max-instrs"];
    let args = Args::parse("trace", args, &CODEGEN_SWITCHES, &valued)?;
    let path = args.positional.ok_or("trace needs a file")?;
    let out = args.value("-o").ok_or("trace needs `-o output.trc`")?;
    let limit: u64 = args.max_instrs()?.unwrap_or(2_000_000);
    let program = load_program(path, args.codegen_options())?;
    let mut vm = Vm::new(&program, VmOptions::default());
    let trace = vm.trace(limit).map_err(|err| err.to_string())?;
    trace
        .save(&program, out)
        .map_err(|err| format!("cannot write `{out}`: {err}"))?;
    println!("wrote {} events to {out}", trace.len());
    Ok(())
}

fn lint_cmd(args: &[String]) -> Result<(), String> {
    use clfp::verify::{lint_program, Diagnostic, Severity, TraceChecks};

    let switches = ["--if-convert", "--optimize", "--static-only", "--json"];
    let valued = ["--workload", "--max-instr", "--max-instrs"];
    let args = Args::parse("lint", args, &switches, &valued)?;
    let program = if let Some(name) = args.value("--workload") {
        let workload = clfp::workloads::by_name(name).map_err(|err| err.to_string())?;
        workload
            .compile_with(args.codegen_options())
            .map_err(|err| err.to_string())?
    } else {
        let path = args
            .positional
            .ok_or("lint needs a file or --workload NAME")?;
        load_program(path, args.codegen_options())?
    };

    // Only the machine-independent model is needed for the cross-checks;
    // analyze the cheapest machine.
    let mut config = AnalysisConfig {
        machines: vec![MachineKind::Base],
        ..AnalysisConfig::default()
    };
    if let Some(limit) = args.max_instrs()? {
        config.max_instrs = limit;
    }
    let max_instrs = config.max_instrs;
    let analyzer = Analyzer::new(&program, config).map_err(|err| err.to_string())?;
    let info = analyzer.static_info();
    let mut diagnostics = lint_program(&program, info);

    // Cross-check a measured trace against the static model: CFG edges,
    // CD resolution, unroll masks, alias soundness, sequential counts.
    if !args.has("--static-only") {
        let mut vm = Vm::new(&program, VmOptions::default());
        let trace = vm.trace(max_instrs).map_err(|err| err.to_string())?;
        let prepared = analyzer.prepare(&trace);
        let (unrolled, rolled) = prepared.report_both();
        let checks = TraceChecks::new(&program, info);
        diagnostics.extend(checks.check_dynamic(&trace, &prepared, &unrolled, &rolled));
    }

    let count_of = |severity: Severity| {
        diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    };
    let errors = count_of(Severity::Error);
    if args.has("--json") {
        let list = Value::Array(diagnostics.iter().map(Diagnostic::to_json).collect());
        print!("{}", render(&list));
    } else {
        for diagnostic in &diagnostics {
            println!("{diagnostic}");
        }
        println!(
            "{} error(s), {} warning(s), {} info(s)",
            errors,
            count_of(Severity::Warning),
            count_of(Severity::Info),
        );
    }
    if errors > 0 {
        return Err(format!(
            "{errors} error-severity finding(s): the static model and the \
             program disagree"
        ));
    }
    Ok(())
}

/// `clfp cache [list [--json]] [clear] [--dir DIR]`: inspect or wipe the
/// on-disk trace cache that `regen` populates (see
/// [`clfp::vm::TraceCache`]). Listing also probes the benchmark suite at
/// `--max-instrs` (default 2000000) through the real lookup path, so the
/// hit/miss line reports exactly what a `regen` at that cap would find.
fn cache_cmd(args: &[String]) -> Result<(), String> {
    use clfp::vm::{CacheEntry, TraceCache};

    let valued = ["--dir", "--max-instr", "--max-instrs"];
    let args = Args::parse("cache", args, &["--json"], &valued)?;
    let cache = match args.value("--dir") {
        Some(dir) => TraceCache::new(dir),
        None => TraceCache::new(TraceCache::default_dir()),
    };
    match args.positional {
        None | Some("list") => {
            let entries = cache
                .entries()
                .map_err(|err| format!("cannot read {}: {err}", cache.dir().display()))?;
            // The lookup path tallies the `cache.hit` / `cache.miss` trace
            // counters whether or not a trace session is active; read the
            // totals back instead of re-deriving the classification here.
            let max_instrs = args.max_instrs()?.unwrap_or(2_000_000);
            for workload in clfp::workloads::suite() {
                let program = workload.compile().map_err(|err| err.to_string())?;
                let _ = cache.lookup(&program, max_instrs);
            }
            let hits = clfp::metrics::trace::counter_total("cache.hit");
            let misses = clfp::metrics::trace::counter_total("cache.miss");
            let total_bytes: u64 = entries.iter().map(|entry| entry.bytes).sum();
            let file_name = |entry: &CacheEntry| {
                entry
                    .path
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
            };
            if args.has("--json") {
                let files = entries.iter().map(|entry| {
                    Value::object()
                        .with("fingerprint", format!("{:016x}", entry.fingerprint))
                        .with("max_instrs", entry.max_instrs)
                        .with("events", entry.events)
                        .with("bytes", entry.bytes)
                        .with("file", file_name(entry))
                });
                let probe = Value::object()
                    .with("max_instrs", max_instrs)
                    .with("hits", hits)
                    .with("misses", misses);
                let json = Value::object()
                    .with("dir", cache.dir().display().to_string())
                    .with("entries", Value::Array(files.collect()))
                    .with("total_bytes", total_bytes)
                    .with("probe", probe);
                print!("{}", render(&json));
                return Ok(());
            }
            if entries.is_empty() {
                println!("trace cache {} is empty", cache.dir().display());
            } else {
                println!("trace cache {}:", cache.dir().display());
                println!(
                    "{:16} {:>12} {:>12} {:>12}  file",
                    "fingerprint", "max_instrs", "events", "bytes"
                );
                for entry in &entries {
                    println!(
                        "{:016x} {:>12} {:>12} {:>12}  {}",
                        entry.fingerprint,
                        entry.max_instrs,
                        entry.events,
                        entry.bytes,
                        file_name(entry),
                    );
                }
                println!("{} trace(s), {} bytes total", entries.len(), total_bytes);
            }
            println!(
                "suite probe at cap {max_instrs}: {hits} hit(s), {misses} miss(es)"
            );
            Ok(())
        }
        Some("clear") => {
            let removed = cache
                .clear()
                .map_err(|err| format!("cannot clear {}: {err}", cache.dir().display()))?;
            println!(
                "removed {removed} cached trace(s) from {}",
                cache.dir().display()
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown cache action `{other}`; try `clfp cache` or `clfp cache clear`")),
    }
}

fn analyze_cmd(args: &[String]) -> Result<(), String> {
    let switches = ["--if-convert", "--optimize", "--no-unroll", "--no-inline"];
    let valued = [
        "--workload",
        "--max-instr",
        "--max-instrs",
        "--fetch",
        "--predictor",
        "--valuepred",
        "--trace",
        "--trace-json",
    ];
    let args = Args::parse("analyze", args, &switches, &valued)?;
    // `--trace-json OUT` records pipeline spans for exactly this analysis
    // and exports them as Chrome trace-event JSON (distinct from `--trace
    // file.trc`, which *loads* a captured execution trace as input).
    let trace_json = args.value("--trace-json");
    if trace_json.is_some() {
        clfp::metrics::trace::set_tracing(true);
    }
    let result = analyze_inner(&args);
    if let Some(out) = trace_json {
        clfp::metrics::trace::set_tracing(false);
        let log = clfp::metrics::trace::drain();
        std::fs::write(out, render(&log.to_json()))
            .map_err(|err| format!("cannot write `{out}`: {err}"))?;
        println!(
            "wrote {} spans to {out} (open in ui.perfetto.dev or chrome://tracing)",
            log.spans().count()
        );
    }
    result
}

fn analyze_inner(args: &Args) -> Result<(), String> {
    if args.has("--trace") && args.max_instrs()?.is_some() {
        return Err(
            "`--max-instrs` cannot be combined with `--trace`: the cap applies \
                    to a VM run, and a trace file is analyzed whole"
                .into(),
        );
    }
    let program = if let Some(name) = args.value("--workload") {
        let workload = clfp::workloads::by_name(name).map_err(|err| err.to_string())?;
        workload
            .compile_with(args.codegen_options())
            .map_err(|err| err.to_string())?
    } else {
        let path = args
            .positional
            .ok_or("analyze needs a file or --workload NAME")?;
        load_program(path, args.codegen_options())?
    };

    let mut config = AnalysisConfig::default();
    if let Some(limit) = args.max_instrs()? {
        config.max_instrs = limit;
    }
    if args.has("--no-unroll") {
        config.unrolling = false;
    }
    if args.has("--no-inline") {
        config.inlining = false;
    }
    if let Some(v) = args.value("--fetch") {
        config.fetch_bandwidth = Some(v.parse().map_err(|_| format!("bad --fetch `{v}`"))?);
    }
    if let Some(v) = args.value("--predictor") {
        config.predictor = match v {
            "profile" => PredictorChoice::Profile,
            "btfn" => PredictorChoice::Btfn,
            "taken" | "always-taken" => PredictorChoice::AlwaysTaken,
            "bimodal" => PredictorChoice::Bimodal { entries: 4096 },
            "gshare" => PredictorChoice::Gshare {
                entries: 4096,
                history_bits: 8,
            },
            "two-level" | "twolevel" | "pag" => PredictorChoice::TwoLevel {
                entries: 4096,
                history_bits: 10,
            },
            other => return Err(format!("unknown predictor `{other}`")),
        };
    }
    if let Some(v) = args.value("--valuepred") {
        config.value_prediction = match v {
            "off" => ValuePrediction::Off,
            "last-value" | "lastvalue" => ValuePrediction::LastValue,
            "stride" => ValuePrediction::Stride,
            "perfect" => ValuePrediction::Perfect,
            other => return Err(format!("unknown value-prediction mode `{other}`")),
        };
    }

    let unrolling = config.unrolling;
    let value_prediction = config.value_prediction;
    let analyzer = Analyzer::new(&program, config).map_err(|err| err.to_string())?;
    let streamed = match args.value("--trace") {
        Some(path) => {
            let file = FileTraceSource::open(&program, path)
                .map_err(|err| format!("cannot load `{path}`: {err}"))?;
            analyzer.run_streamed_on(&file, StreamOptions::default())
        }
        None => analyzer.run_streamed(StreamOptions::default()),
    }
    .map_err(|err| err.to_string())?;
    let report = streamed.report(unrolling);

    println!(
        "trace: {} instructions ({} after inlining/unrolling)",
        report.raw_instrs, report.seq_instrs
    );
    println!(
        "branches: {} conditional ({:.2}% predicted), {} computed jumps",
        report.branches.cond_branches,
        report.branches.prediction_rate(),
        report.branches.computed_jumps
    );
    if value_prediction != ValuePrediction::Off {
        println!(
            "value prediction ({}): {:.2}% of register definitions predicted",
            value_prediction.name(),
            report.branches.value_prediction_rate()
        );
    }
    println!();
    println!("{:10} {:>12} {:>12}", "machine", "cycles", "parallelism");
    for kind in MachineKind::ALL {
        if let Some(result) = report.result(kind) {
            println!(
                "{:10} {:>12} {:>12.2}",
                kind.name(),
                result.cycles,
                result.parallelism
            );
        }
    }
    if let Some(stats) = &report.mispred_stats {
        println!(
            "\nmispredictions: {} segments, {:.0}% within 100 instructions",
            stats.total_segments(),
            stats.fraction_within(100) * 100.0
        );
    }
    Ok(())
}
