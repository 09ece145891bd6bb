//! Shared test support: a SplitMix64 generator, random — but always
//! terminating and well-formed — MiniC programs, a case driver that
//! shrinks a failing program before reporting it, and bit-exact report
//! comparison.
//!
//! The generated programs exercise scalars, a global array, a global
//! scalar, arithmetic/logical/comparison operators, nested `if`/`for`/
//! `while`, helper calls, and bounded recursion. Array indices are always
//! masked to the array size, loops always have fixed small bounds, and
//! recursion depth is capped, so every generated program halts on both the
//! VM and the reference interpreter.
//!
//! Every case is drawn from a fixed seed, so a failure report alone
//! reproduces it: [`random_program`] rebuilds the program from the
//! printed case seed, and the printed (shrunk) source can be pasted into
//! a test as a fixed input.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use clfp::limits::Report;

/// Minimal SplitMix64 PRNG — deterministic, dependency-free.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The seed of case `case` in a run seeded by `seed`.
pub fn case_seed(seed: u64, case: usize) -> u64 {
    Rng::new(seed ^ (case as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next()
}

/// Runs `check` on `count` values drawn by `generate` from the cases of
/// `seed`. On the first failure — an `Err` or a panic — panics with the
/// case seed and the failing value's `Debug` form.
pub fn check_cases<T: Debug>(
    seed: u64,
    count: usize,
    generate: impl Fn(&mut Rng) -> T,
    check: impl Fn(&T) -> Result<(), String>,
) {
    for case in 0..count {
        let case_seed = case_seed(seed, case);
        let value = generate(&mut Rng::new(case_seed));
        if let Err(message) = run_check(&|| check(&value)) {
            panic!("case {case} (seed {case_seed:#018x}) failed: {message}\non input: {value:#?}");
        }
    }
}

/// Runs `check` on `count` random programs from the cases of `seed`, on
/// two threads. On the first failing case — an `Err` or a panic — shrinks
/// the program by deleting whole statements while it still compiles and
/// still fails, then panics with the case seed, the shrunk program and its
/// failure.
pub fn check_programs(seed: u64, count: usize, check: impl Fn(&str) -> Result<(), String> + Sync) {
    // Cases are taken in order, so every case below the lowest failure is
    // checked whatever the thread timing.
    let next = AtomicUsize::new(0);
    let lowest_failure = AtomicUsize::new(count);
    let worker = || loop {
        let case = next.fetch_add(1, Ordering::Relaxed);
        if case >= lowest_failure.load(Ordering::Relaxed) {
            break;
        }
        let source = random_program(case_seed(seed, case));
        if run_check(&|| check(&source)).is_err() {
            lowest_failure.fetch_min(case, Ordering::Relaxed);
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(worker);
        worker();
    });
    let case = lowest_failure.into_inner();
    if case < count {
        let case_seed = case_seed(seed, case);
        let source = random_program(case_seed);
        let shrunk = shrink(&source, &check);
        let message = run_check(&|| check(&shrunk)).expect_err("shrinking keeps the failure");
        panic!(
            "case {case} (seed {case_seed:#018x}) failed; shrunk from {} to {} lines:\n\
             {shrunk}\nfailure: {message}",
            source.lines().count(),
            shrunk.lines().count(),
        );
    }
}

/// Runs one check, turning a panic into an `Err` with its message.
fn run_check(check: &dyn Fn() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(check)).unwrap_or_else(|payload| {
        Err(match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .unwrap_or(&"panic")
                .to_string(),
        })
    })
}

/// At most this many candidate programs are checked while shrinking.
const SHRINK_ATTEMPTS: usize = 400;

/// Deletes statements of `main` — brace-balanced line ranges, outermost
/// first — while the program still compiles and `check` still fails.
fn shrink(source: &str, check: &dyn Fn(&str) -> Result<(), String>) -> String {
    let mut lines: Vec<&str> = source.lines().collect();
    let mut attempts = 0;
    let mut progress = true;
    while progress && attempts < SHRINK_ATTEMPTS {
        progress = false;
        let mut at = PROLOGUE.lines().count();
        while at < lines.len() - EPILOGUE.lines().count() && attempts < SHRINK_ATTEMPTS {
            let Some(end) = statement_end(&lines, at) else {
                at += 1;
                continue;
            };
            let candidate: Vec<&str> = lines[..at].iter().chain(&lines[end..]).copied().collect();
            let candidate_source = candidate.join("\n") + "\n";
            attempts += 1;
            if clfp::lang::compile(&candidate_source).is_ok()
                && run_check(&|| check(&candidate_source)).is_err()
            {
                lines = candidate;
                progress = true;
            } else {
                at += 1;
            }
        }
    }
    lines.join("\n") + "\n"
}

/// The end (exclusive) of the statement starting at line `at`: the
/// shortest brace-balanced range whose running balance never dips below
/// zero. `None` when `at` closes a block.
fn statement_end(lines: &[&str], at: usize) -> Option<usize> {
    if lines[at].trim_start().starts_with('}') {
        return None;
    }
    let mut balance = 0i64;
    for (offset, line) in lines[at..].iter().enumerate() {
        balance += line.matches('{').count() as i64 - line.matches('}').count() as i64;
        if balance <= 0 {
            return (balance == 0).then_some(at + offset + 1);
        }
    }
    None
}

/// Binary operators the generator emits.
const BIN_OPS: [&str; 15] = [
    "+", "-", "*", "/", "%", "<<", ">>", "<", "<=", ">", ">=", "==", "!=", "&", "|",
];

/// Everything before the generated statements: the globals, the helpers,
/// and `main`'s six scalars `v0..v5`.
const PROLOGUE: &str = "\
var gs: int = 5;
var g0: int[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
fn h1(x: int) -> int { return x * 3 - 7; }
fn h2(x: int, y: int) -> int {
    if (x > y) { return x - y; }
    return y - x + g0[(x ^ y) & 15];
}
fn rec(n: int) -> int {
    if (n <= 0) { return 1; }
    return rec(n - 1) + n;
}
fn main() -> int {
    var v0: int = 1;
    var v1: int = 2;
    var v2: int = 3;
    var v3: int = 4;
    var v4: int = 5;
    var v5: int = 6;
";

/// Everything after the generated statements: `main` folds every scalar
/// and array word into its result, so a wrong value anywhere shows.
const EPILOGUE: &str = "    var acc: int = v0 + v1 * 3 + v2 * 5 + v3 * 7 + v4 * 11 + v5 * 13 + gs;
    for (var k: int = 0; k < 16; k = k + 1) { acc = acc + g0[k] * (k + 1); }
    return acc;
}
";

/// The generator's program around `body`, the statements of `main`.
pub fn program_with(body: &str) -> String {
    format!("{PROLOGUE}{body}{EPILOGUE}")
}

/// The random MiniC program of case seed `seed`: one to seven
/// statements, nested at most three deep.
pub fn random_program(seed: u64) -> String {
    let mut gen = ProgramGen {
        rng: Rng::new(seed),
        out: String::new(),
        fresh: 0,
    };
    for _ in 0..1 + gen.rng.below(7) {
        gen.stmt(3, 1);
    }
    program_with(&gen.out)
}

struct ProgramGen {
    rng: Rng,
    out: String,
    /// Next loop-counter suffix: every loop gets its own variable.
    fresh: u32,
}

impl ProgramGen {
    /// One expression, at most `depth` operators deep: `open e close`, or
    /// `open e mid e close` for the two-operand forms.
    fn expr(&mut self, depth: u32) {
        if depth == 0 || self.rng.below(3) == 0 {
            let leaf = match self.rng.below(3) {
                0 => match self.rng.range(-20, 100) {
                    v if v < 0 => format!("(0 - {})", -v),
                    v => v.to_string(),
                },
                1 => format!("v{}", self.rng.below(6)),
                _ => "gs".to_string(),
            };
            self.out.push_str(&leaf);
            return;
        }
        let (open, mid, close) = match self.rng.below(8) {
            0 => ("g0[(", None, ") & 15]"),
            1 => match *self.rng.pick(&BIN_OPS) {
                // Mask shift amounts so both the VM (`& 31`) and a strict
                // reading agree.
                op @ ("<<" | ">>") => ("(", Some(format!(" {op} (")), ") & 15)"),
                op => ("(", Some(format!(" {op} ")), ")"),
            },
            2 => ("(0 - (", None, "))"),
            3 => ("(!(", None, "))"),
            4 => ("h1(", None, ")"),
            5 => ("h2(", Some(", ".to_string()), ")"),
            6 => ("rec((", None, ") & 7)"),
            _ => (
                "(",
                Some([" && ", " || "][self.rng.below(2)].to_string()),
                ")",
            ),
        };
        self.out.push_str(open);
        self.expr(depth - 1);
        if let Some(mid) = mid {
            self.out.push_str(&mid);
            self.expr(depth - 1);
        }
        self.out.push_str(close);
    }

    /// One statement at `indent`, compound statements nesting at most
    /// `depth` deep. A `while` puts its counter's declaration and
    /// decrement on its header line, so deleting whole lines can never
    /// leave a loop that does not terminate.
    fn stmt(&mut self, depth: u32, indent: usize) {
        let pad = "    ".repeat(indent);
        self.out.push_str(&pad);
        if depth == 0 || self.rng.below(2) == 0 {
            match self.rng.below(3) {
                0 => {
                    let v = self.rng.below(6);
                    self.out.push_str(&format!("v{v}"));
                }
                1 => {
                    self.out.push_str("g0[(");
                    self.expr(3);
                    self.out.push_str(") & 15]");
                }
                _ => self.out.push_str("gs"),
            }
            self.out.push_str(" = ");
            self.expr(3);
            self.out.push_str(";\n");
            return;
        }
        match self.rng.below(3) {
            0 => {
                self.out.push_str("if (");
                self.expr(3);
                self.out.push_str(") {\n");
                self.body(depth - 1, indent + 1);
                let others = self.rng.below(3);
                if others > 0 {
                    self.out.push_str(&format!("{pad}}} else {{\n"));
                    for _ in 0..others {
                        self.stmt(depth - 1, indent + 1);
                    }
                }
            }
            kind => {
                let (n, bound) = (self.fresh, 1 + self.rng.below(5));
                self.fresh += 1;
                self.out.push_str(&if kind == 1 {
                    format!("for (var L{n}: int = 0; L{n} < {bound}; L{n} = L{n} + 1) {{\n")
                } else {
                    format!("var W{n}: int = {bound}; while (W{n} > 0) {{ W{n} = W{n} - 1;\n")
                });
                self.body(depth - 1, indent + 1);
            }
        }
        self.out.push_str(&format!("{pad}}}\n"));
    }

    /// A loop or `then` body: one to three statements.
    fn body(&mut self, depth: u32, indent: usize) {
        for _ in 0..1 + self.rng.below(3) {
            self.stmt(depth, indent);
        }
    }
}

/// Bit-exact report equality: parallelism is compared by bit pattern, not
/// tolerance — the kernel must run the same arithmetic, not similar
/// arithmetic. The error names the first field that differs, with both
/// values.
pub fn same_report(got: &Report, want: &Report, tag: &str) -> Result<(), String> {
    let differs = |what: &str, got: &dyn Debug, want: &dyn Debug| {
        Err(format!("{tag}: {what} {got:?}, want {want:?}"))
    };
    let counts = |r: &Report| (r.seq_instrs, r.raw_instrs);
    if counts(got) != counts(want) {
        return differs("(seq, raw) instrs", &counts(got), &counts(want));
    }
    if got.branches != want.branches {
        return differs("branches", &got.branches, &want.branches);
    }
    if got.mispred_stats != want.mispred_stats {
        return differs("mispredictions", &got.mispred_stats, &want.mispred_stats);
    }
    let cycles = |r: &Report| -> Vec<_> { r.results.iter().map(|m| (m.kind, m.cycles)).collect() };
    if cycles(got) != cycles(want) {
        return differs("(machine, cycles)", &cycles(got), &cycles(want));
    }
    let parallelism = |r: &Report| -> Vec<_> { r.results.iter().map(|m| m.parallelism).collect() };
    let bits = |r: &Report| -> Vec<_> { parallelism(r).iter().map(|p| p.to_bits()).collect() };
    if bits(got) != bits(want) {
        return differs("parallelism", &parallelism(got), &parallelism(want));
    }
    Ok(())
}
