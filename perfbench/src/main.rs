//! Times the clfp limit analyzer on seeded programs of its benchmark suite.
//!
//! ```text
//! perfbench --workload tables|attribution --seed N --seconds S --trace 0|1 --cache-dir DIR
//! ```
//!
//! Every workload starts from the same set-up, the work of a cold
//! `regen`: take the measured suite programs with their data salted by
//! the seed (see `programs`), compile them, build one analyzer per
//! program (the static front end), capture each trace with the VM and
//! store it in a trace cache under `--cache-dir`. One operation then
//! analyzes every program from the warm cache along one user path:
//!
//! * `tables` — load the trace from the cache, one preparation walk, the
//!   lane kernel over both unroll settings (Tables 3-4), the lane kernel
//!   again over a static-disambiguation slice of the same preparation
//!   (the disambiguation table), and the two-pass streamed pipeline of
//!   `clfp analyze --stream`, fed from the cache file instead of the VM,
//!   its machine walks on two broadcast workers.
//! * `attribution` — `regen --metrics` (load, prepare, the recording
//!   metrics sink over every machine of the perfect preparation), plus
//!   the static-mode slice that `mode_matrix_metrics` walks with the
//!   same sink.
//!
//! Set-up runs several times and reports its median. Operations repeat
//! for the requested seconds after a first, untimed one. Each operation
//! times every stage of every program on its own (load, prepare, slice,
//! each machine walk, the streamed pass), and the latency reported is the
//! sum over programs and stages of each stage's fastest time in the run.
//! The host is shared, and other tenants' load only ever adds time: it
//! switches between a fast state and one in which the machine walks take
//! up to twice as long, for spells of a few to tens of seconds. The
//! fastest time of a stage of 3-500 ms needs only one of the run's
//! samples of that stage to fall in a fast spell, where the fastest whole
//! operation (1-2 s) needs all its stages to.
//!
//! Every result is checked: each program's return value against the
//! reference interpreter's, the first operation's tables against passes
//! that share no scheduling code with the timed ones, and every
//! operation against the first. With `--trace 1` the program's span
//! recorder is on during operations, and the output holds per-layer
//! times instead of end-to-end ones.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod programs;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clfp::isa::{Program, Reg};
use clfp::limits::{
    AnalysisConfig, Analyzer, MachineKind, MemDisambiguation, Report, StreamOptions,
    ValuePrediction,
};
use clfp::metrics::{trace, MachineMetrics};
use clfp::vm::{Trace, TraceCache, Vm, VmOptions};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Operations measured at least, however short `--seconds` is.
const MIN_OPS: usize = 5;
/// Broadcast workers of the streamed pipeline. Set explicitly, so the
/// broadcast runs whatever the host's core count and trace length.
const STREAM_WORKERS: usize = 2;
/// The modes the preparation is sliced to: static disambiguation, no
/// value prediction.
const SLICE: (MemDisambiguation, ValuePrediction) =
    (MemDisambiguation::Static, ValuePrediction::Off);

#[derive(Copy, Clone, PartialEq, Eq)]
enum Workload {
    Tables,
    Attribution,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cache_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cache_dir = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "tables" => Workload::Tables,
                    "attribution" => Workload::Attribution,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds `{value}` out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace flag `{other}`")),
                })
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cache_dir: cache_dir.ok_or("--cache-dir is required")?,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compiles every input. Fails on a compile error.
fn compile(inputs: &[programs::Input]) -> Result<Vec<Program>, String> {
    inputs
        .iter()
        .map(|input| {
            clfp::lang::compile(&input.source).map_err(|err| format!("{}: {err}", input.name))
        })
        .collect()
}

/// One program's analyzer: the static front end and per-PC decode.
fn analyzer(program: &Program, config: AnalysisConfig) -> Result<Analyzer<'_>, String> {
    Analyzer::new(program, config).map_err(|err| err.to_string())
}

fn analyzers<'a>(
    programs: &'a [Program],
    config: &AnalysisConfig,
) -> Result<Vec<Analyzer<'a>>, String> {
    programs.iter().map(|p| analyzer(p, config.clone())).collect()
}

/// Captures one program's trace and checks the value `main` returned.
fn capture(
    input: &programs::Input,
    program: &Program,
    config: &AnalysisConfig,
) -> Result<Trace, String> {
    let mut vm = Vm::new(
        program,
        VmOptions {
            mem_words: config.mem_words,
        },
    );
    let trace = vm
        .trace(config.max_instrs)
        .map_err(|err| format!("{}: {err}", input.name))?;
    if vm.executed() >= config.max_instrs {
        return Err(format!("{}: did not halt within the trace cap", input.name));
    }
    let result = vm.reg(Reg::V0);
    if result != input.expected {
        return Err(format!(
            "{}: main returned {result}, the reference interpreter {}",
            input.name, input.expected
        ));
    }
    Ok(trace)
}

/// Loads one program's trace from the cache.
fn load(cache: &TraceCache, program: &Program, config: &AnalysisConfig) -> Result<Trace, String> {
    cache
        .lookup(program, config.max_instrs)
        .ok_or("a stored trace is missing from the cache")?
        .load_trace()
        .map_err(|err| format!("loading a cached trace: {err}"))
}

/// Per-layer set-up times of each repetition, in milliseconds.
#[derive(Default)]
struct SetupTimes {
    compile: Vec<f64>,
    analyzers: Vec<f64>,
    vm: Vec<f64>,
    store: Vec<f64>,
}

/// One set-up: compile, build the analyzers, capture every trace and
/// store it in the cache. The operations read the cache this leaves.
fn setup_once(
    inputs: &[programs::Input],
    config: &AnalysisConfig,
    cache: &TraceCache,
    times: &mut SetupTimes,
) -> Result<(), String> {
    let start = Instant::now();
    let programs = compile(inputs)?;
    let compiled = Instant::now();
    let analyzers = analyzers(&programs, config)?;
    std::hint::black_box(&analyzers);
    let analyzed = Instant::now();
    let (mut vm, mut store) = (Duration::ZERO, Duration::ZERO);
    for (input, program) in inputs.iter().zip(&programs) {
        let start = Instant::now();
        let trace = capture(input, program, config)?;
        let captured = Instant::now();
        cache
            .store(program, config.max_instrs, &trace)
            .map_err(|err| format!("{}: storing the trace: {err}", input.name))?;
        vm += captured - start;
        store += captured.elapsed();
    }
    times.compile.push(ms(compiled - start));
    times.analyzers.push(ms(analyzed - compiled));
    times.vm.push(ms(vm));
    times.store.push(ms(store));
    Ok(())
}

/// The numbers one machine-scheduling pass yields for one program at one
/// setting: the sequential instruction count and every machine's cycles,
/// in `MachineKind::ALL` order.
#[derive(Clone, PartialEq, Eq)]
struct Table {
    seq_instrs: u64,
    cycles: Vec<u64>,
}

impl Table {
    fn of(report: &Report) -> Table {
        Table {
            seq_instrs: report.seq_instrs,
            cycles: report.results.iter().map(|r| r.cycles).collect(),
        }
    }

    /// The table the recording sink's replay re-derives.
    fn of_metrics(metrics: &[(MachineKind, MachineMetrics)]) -> Table {
        Table {
            seq_instrs: metrics.first().map_or(0, |(_, m)| m.instrs),
            cycles: metrics.iter().map(|(_, m)| m.cycles).collect(),
        }
    }

    /// The paper's machine ordering: a machine that relaxes a constraint
    /// never needs more cycles than one that keeps it (BASE >= CD >= CD-MF
    /// >= ORACLE and BASE >= SP >= SP-CD >= SP-CD-MF >= ORACLE).
    fn ordered(&self) -> bool {
        // Indices into `MachineKind::ALL`.
        const CHAINS: [&[usize]; 2] = [&[0, 1, 2, 6], &[0, 3, 4, 5, 6]];
        self.cycles.len() == MachineKind::ALL.len()
            && CHAINS.iter().all(|chain| {
                chain
                    .windows(2)
                    .all(|w| self.cycles[w[0]] >= self.cycles[w[1]])
            })
    }

    /// Whether this table, under coarser disambiguation, is never faster
    /// than `finer` on any machine (a pointwise theorem of the analyzer).
    fn no_faster_than(&self, finer: &Table) -> bool {
        self.seq_instrs == finer.seq_instrs
            && self.cycles.len() == finer.cycles.len()
            && self.cycles.iter().zip(&finer.cycles).all(|(c, f)| c >= f)
    }
}

/// One program's (unrolled, rolled) tables under perfect disambiguation
/// and under the static slice. Attribution computes the unrolled setting
/// only and leaves the rolled tables `None`.
struct Tables {
    perfect: (Table, Option<Table>),
    sliced: (Table, Option<Table>),
}

/// The tables one program's checks compare against: the reference pass
/// (one machine at a time over the raw trace) under perfect
/// disambiguation, and the scalar fused cursor over a static-mode
/// preparation made from scratch, both at both unroll settings.
struct Expected {
    perfect: (Table, Table),
    sliced: (Table, Table),
}

impl Expected {
    /// Whether an operation's tables match, where it computed them.
    fn matches(&self, tables: &Tables) -> bool {
        let pair = |(u, r): &(Table, Option<Table>), (eu, er): &(Table, Table)| {
            u == eu && r.as_ref().is_none_or(|r| r == er)
        };
        pair(&tables.perfect, &self.perfect) && pair(&tables.sliced, &self.sliced)
    }

    /// The machine ordering, and static disambiguation never beating
    /// perfect disambiguation.
    fn consistent(&self) -> bool {
        [&self.perfect.0, &self.perfect.1, &self.sliced.0, &self.sliced.1]
            .iter()
            .all(|t| t.ordered())
            && self.sliced.0.no_faster_than(&self.perfect.0)
            && self.sliced.1.no_faster_than(&self.perfect.1)
    }
}

/// Computes every program's expected tables from a fresh VM capture,
/// and checks the cached trace holds the same events.
fn expected_tables(
    inputs: &[programs::Input],
    programs: &[Program],
    config: &AnalysisConfig,
    cache: &TraceCache,
) -> Result<Vec<Expected>, String> {
    let sliced_config = config
        .clone()
        .with_disambiguation(SLICE.0)
        .with_value_prediction(SLICE.1);
    inputs
        .iter()
        .zip(programs)
        .map(|(input, program)| {
            let trace = capture(input, program, config)?;
            if load(cache, program, config)?.events() != trace.events() {
                return Err(format!("{}: the cached trace differs", input.name));
            }
            eprintln!("perfbench: {} traces {} events", input.name, trace.len());
            let unrolled = analyzer(program, config.clone())?;
            let rolled = analyzer(program, config.clone().with_unrolling(false))?;
            let sliced_analyzer = analyzer(program, sliced_config.clone())?;
            let sliced = sliced_analyzer.prepare(&trace);
            Ok(Expected {
                perfect: (
                    Table::of(&unrolled.run_on_trace_reference(&trace)),
                    Table::of(&rolled.run_on_trace_reference(&trace)),
                ),
                sliced: (
                    Table::of(&sliced.report_with_unrolling_scalar(true)),
                    Table::of(&sliced.report_with_unrolling_scalar(false)),
                ),
            })
        })
        .collect()
}

/// What one operation produced.
struct OpResult {
    /// Per program, the tables the operation computed.
    tables: Vec<Tables>,
    /// Every number the operation computed, compared exactly against the
    /// first operation's.
    digest: Vec<u64>,
    /// Whether the operation's own checks held: the streamed tables equal
    /// the in-memory ones, and every critical path is non-empty.
    ok: bool,
    /// The wall time of every stage, program by program in stage order;
    /// every operation of a workload times the same stages in the same
    /// order.
    stages: Vec<(Stage, Duration)>,
}

/// The stages one operation times, per program.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Stage {
    /// Cache lookup and trace load.
    Load,
    /// The preparation walk.
    Prepare,
    /// `slice_modes` to the static slice.
    Slice,
    /// Machine scheduling over a preparation in memory.
    Walk,
    /// The streamed pipeline over the cache file.
    Stream,
}

impl OpResult {
    fn push(&mut self, table: &Table) {
        self.digest.push(table.seq_instrs);
        self.digest.extend(&table.cycles);
    }

    /// Runs `work` as one stage and records its wall time.
    fn time<T>(&mut self, stage: Stage, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = work();
        self.stages.push((stage, start.elapsed()));
        result
    }

    /// The operation's total time in `stage`, in milliseconds.
    fn stage_ms(&self, stage: Stage) -> f64 {
        self.stages
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, d)| ms(*d))
            .sum()
    }
}

fn run_op(
    workload: Workload,
    programs: &[Program],
    analyzers: &[Analyzer<'_>],
    config: &AnalysisConfig,
    cache: &TraceCache,
) -> Result<OpResult, String> {
    let mut op = OpResult {
        tables: Vec::with_capacity(programs.len()),
        digest: Vec::new(),
        ok: true,
        stages: Vec::new(),
    };
    for (program, analyzer) in programs.iter().zip(analyzers) {
        let trace = op.time(Stage::Load, || load(cache, program, config))?;
        let prepared = op.time(Stage::Prepare, || analyzer.prepare(&trace));
        let sliced = op.time(Stage::Slice, || prepared.slice_modes(SLICE.0, SLICE.1));
        let tables = match workload {
            Workload::Tables => {
                let (unrolled, rolled) = op.time(Stage::Walk, || prepared.report_both());
                let (sliced_unrolled, sliced_rolled) =
                    op.time(Stage::Walk, || sliced.report_both());
                drop((sliced, prepared, trace));
                let options = StreamOptions {
                    machine_threads: STREAM_WORKERS,
                    ..StreamOptions::default()
                };
                let streamed = op.time(Stage::Stream, || {
                    let source = cache
                        .lookup(program, config.max_instrs)
                        .ok_or("a stored trace is missing from the cache")?;
                    analyzer
                        .run_streamed_on(&source, options)
                        .map_err(|err| format!("streaming a cached trace: {err}"))
                })?;
                let perfect = (Table::of(&unrolled), Table::of(&rolled));
                op.ok &= Table::of(&streamed.unrolled) == perfect.0
                    && Table::of(&streamed.rolled) == perfect.1;
                Tables {
                    perfect: (perfect.0, Some(perfect.1)),
                    sliced: (Table::of(&sliced_unrolled), Some(Table::of(&sliced_rolled))),
                }
            }
            Workload::Attribution => {
                let perfect = op.time(Stage::Walk, || prepared.machine_metrics());
                let static_ = op.time(Stage::Walk, || sliced.machine_metrics());
                for (_, m) in perfect.iter().chain(&static_) {
                    op.digest.push(m.attribution.chain_len);
                    op.digest.extend(m.attribution.counts);
                    op.digest.extend(m.flow.by_kind);
                    op.ok &= m.attribution.chain_len > 0 && m.instrs == perfect[0].1.instrs;
                }
                Tables {
                    perfect: (Table::of_metrics(&perfect), None),
                    sliced: (Table::of_metrics(&static_), None),
                }
            }
        };
        for (unrolled, rolled) in [&tables.perfect, &tables.sliced] {
            op.push(unrolled);
            if let Some(rolled) = rolled {
                op.push(rolled);
            }
        }
        op.tables.push(tables);
    }
    Ok(op)
}

/// Per-layer times of one traced operation, in milliseconds.
struct Layers {
    load: f64,
    prepare: f64,
    slice: f64,
    walk: f64,
}

fn run(args: &Args) -> Result<String, String> {
    let inputs = programs::suite(args.seed)?;
    let config = AnalysisConfig::default();
    let cache = TraceCache::new(args.cache_dir.clone());

    let mut times = SetupTimes::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        setup_once(&inputs, &config, &cache, &mut times)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let programs = compile(&inputs)?;
    let analyzers = analyzers(&programs, &config)?;
    let expected = expected_tables(&inputs, &programs, &config, &cache)?;

    // A first operation warms the allocator and the page cache; its
    // outputs are what every measured operation must reproduce.
    let first = run_op(args.workload, &programs, &analyzers, &config, &cache)?;
    // Every operation reproduces the first one's numbers, so a wrong first
    // operation makes every operation wrong.
    let first_ok = first.ok
        && first.tables.len() == expected.len()
        && expected
            .iter()
            .zip(&first.tables)
            .all(|(e, t)| e.consistent() && e.matches(t));
    if !first_ok {
        eprintln!("perfbench: the first operation failed its checks");
    }

    trace::set_tracing(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut failed = 0u64;
    let mut walls = Vec::new();
    let mut fastest = vec![f64::INFINITY; first.stages.len()];
    let mut layers = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_OPS || started.elapsed() < budget {
        let start = Instant::now();
        let op = run_op(args.workload, &programs, &analyzers, &config, &cache)?;
        walls.push(ms(start.elapsed()));
        for (best, (_, wall)) in fastest.iter_mut().zip(&op.stages) {
            *best = best.min(ms(*wall));
        }
        if !first_ok || !op.ok || op.digest != first.digest {
            failed += 1;
        }
        let log = trace::drain();
        layers.push(Layers {
            load: op.stage_ms(Stage::Load),
            prepare: log.span_total_us("prepare.chunk") as f64 / 1e3,
            slice: op.stage_ms(Stage::Slice),
            walk: match args.workload {
                Workload::Tables => log.span_total_us("lane.group") as f64 / 1e3,
                Workload::Attribution => op.stage_ms(Stage::Walk),
            },
        });
    }
    trace::set_tracing(false);

    let layer = |pick: fn(&Layers) -> f64| {
        let mut values: Vec<f64> = layers.iter().map(pick).collect();
        median(&mut values)
    };
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        vec![
            ("compile_ms", median(&mut times.compile), "ms"),
            ("static_ms", median(&mut times.analyzers), "ms"),
            ("vm_ms", median(&mut times.vm), "ms"),
            ("store_ms", median(&mut times.store), "ms"),
            ("load_ms", layer(|l| l.load), "ms"),
            ("prepare_ms", layer(|l| l.prepare), "ms"),
            ("slice_ms", layer(|l| l.slice), "ms"),
            ("walk_ms", layer(|l| l.walk), "ms"),
        ]
    } else {
        vec![
            ("min_latency_ms", fastest.iter().sum(), "ms"),
            ("setup_s", median(&mut setup_s), "s"),
        ]
    };
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    let ops = walls.len();
    let fastest_op = walls.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "perfbench: {ops} ops, median wall {:.3} ms, fastest {fastest_op:.3} ms, fastest stages {fastest:.1?} ms",
        median(&mut walls)
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
