//! Untrusted input yields an error, never a panic. Every case is drawn
//! from a fixed seed:
//!
//! - **Assembler and MiniC front end.** Arbitrary text, token soup from
//!   each language's own vocabulary, and randomly mutated valid programs.
//!   Input that assembles must validate, input that parses and checks
//!   must compile, and every error carries a plausible line number.
//! - **Trace files** (`.trc`, as `Trace::save` writes them). Every header
//!   bit flipped, a fixed sample of payload bits flipped, and every
//!   truncation: a damaged header or a wrong length is an error, and a
//!   damaged record either is an error or reads back at the same length
//!   (the records carry no checksum).
//! - **Trace-cache files**, the same format under the cache's key. The
//!   contract documented in `clfp-vm`'s `cache` module: a flipped header
//!   bit or a truncation ends in a rebuild (`ensure` reports a cold run and
//!   returns the freshly captured events), and a flipped payload bit
//!   either rebuilds or reads back at the same length.

mod common;

use clfp::isa::{assemble, Program};
use clfp::lang::{check, compile, generate_asm, parse, Lexer};
use clfp::vm::{Trace, TraceCache, TraceFileError, Vm, VmOptions};
use common::{check_cases, random_program, Rng};

/// Inputs per front end and kind of input.
const TEXT_CASES: usize = 512;

/// Every this many payload bits of a trace or cache file is flipped.
const PAYLOAD_BIT_STRIDE: usize = 7;

/// Runs `check` on `TEXT_CASES` inputs each of three kinds, seeded
/// `seed`, `seed + 1` and `seed + 2`: random text (printable ASCII,
/// whitespace, a few multi-byte and control characters), up to 60 tokens
/// of `vocabulary` (space-separated words), and `valid` sources after one
/// to four random edits.
fn check_inputs(
    seed: u64,
    vocabulary: &str,
    valid: impl Fn(&mut Rng) -> String,
    check: impl Fn(&str) -> Result<(), String>,
) {
    const ODD: [char; 6] = ['\n', '\t', '\0', 'é', 'λ', '😀'];
    let words: Vec<&str> = vocabulary.split(' ').collect();
    let text = |rng: &mut Rng| -> String {
        let char = |rng: &mut Rng| match rng.below(8) {
            0 => *rng.pick(&ODD),
            _ => (b' ' + rng.below(95) as u8) as char,
        };
        (0..rng.below(200)).map(|_| char(rng)).collect()
    };
    let soup = |rng: &mut Rng| {
        let count = rng.below(60);
        (0..count)
            .map(|_| *rng.pick(&words))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mutated = |rng: &mut Rng| {
        let source = valid(rng);
        mutate(rng, &source, &words)
    };
    let check = |source: &String| check(source);
    check_cases(seed, TEXT_CASES, text, check);
    check_cases(seed + 1, TEXT_CASES, soup, check);
    check_cases(seed + 2, TEXT_CASES, mutated, check);
}

/// `source` after one to four random edits: a deleted run of up to eight
/// characters, an inserted word, a duplicated line, or a swapped pair.
fn mutate(rng: &mut Rng, source: &str, words: &[&str]) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(chars.len() + 1);
        match rng.below(4) {
            0 => {
                let end = (at + 1 + rng.below(8)).min(chars.len());
                chars.drain(at..end);
            }
            1 => {
                let word = format!(" {} ", rng.pick(words));
                chars.splice(at..at, word.chars());
            }
            2 => {
                let start = chars[..at]
                    .iter()
                    .rposition(|&c| c == '\n')
                    .map_or(0, |i| i + 1);
                let line: Vec<char> = chars[start..at].to_vec();
                chars.splice(start..start, line);
            }
            _ => {
                if let Some(last) = chars.len().checked_sub(1) {
                    let other = rng.below(chars.len());
                    chars.swap(at.min(last), other);
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// An error's line must fall inside the input, or one past its end.
fn plausible_line(line: usize, source: &str) -> Result<(), String> {
    let lines = source.lines().count();
    if line <= lines + 1 {
        Ok(())
    } else {
        Err(format!("error on line {line} of a {lines}-line input"))
    }
}

/// The assembler either builds a program that validates or reports an
/// error on a plausible line.
#[test]
fn assembler_never_panics() {
    let vocabulary = "add addi lw sw beq j jr call ret halt li mv cmovn .text .data .word \
                      .space r0 r31 r99 sp label: label 0x10 -5 7, ( ) (sp) 4(sp) , \n \
                      #comment\n ;c\n main:";
    let listing = |rng: &mut Rng| {
        let module = parse(&random_program(rng.next())).expect("generated programs parse");
        generate_asm(&module).expect("generated programs compile")
    };
    check_inputs(
        0x1992_0519_0000_0030,
        vocabulary,
        listing,
        |source| match assemble(source) {
            Ok(program) => program
                .validate()
                .map_err(|pc| format!("assembled program has a bad target at pc {pc}")),
            Err(err) => plausible_line(err.line(), source),
        },
    );
}

/// The MiniC front end either compiles the source or reports an error on
/// a plausible line; source that parses and checks always compiles.
#[test]
fn front_end_never_panics() {
    let vocabulary = "fn var int if else while for return break continue main x y ( ) { } \
                      [ ] : ; , = + - * / % < > == != && || & ! -> 0 1 42 'a' 0xFF \n";
    let program = |rng: &mut Rng| random_program(rng.next());
    check_inputs(0x1992_0519_0000_0033, vocabulary, program, |source| {
        let _ = Lexer::tokenize(source);
        let module = match parse(source) {
            Ok(module) => module,
            Err(err) => return plausible_line(err.line(), source),
        };
        match check(&module) {
            Err(err) => plausible_line(err.line(), source),
            Ok(()) => compile(source)
                .map(|_| ())
                .map_err(|err| format!("a checked program failed to compile: {err}")),
        }
    });
}

/// A loop of about a hundred events touching memory, and its trace.
fn sample() -> (Program, Trace) {
    let program = assemble(
        ".text\nmain: li r8, 28\nloop: addi r8, r8, -1\n lw r9, 0x1000(r0)\n sw r8, 0x1004(r0)\n bgt r8, r0, loop\n halt",
    )
    .unwrap();
    let trace = Vm::new(&program, VmOptions::default()).trace(10_000);
    (program, trace.unwrap())
}

fn flip(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut flipped = bytes.to_vec();
    flipped[bit / 8] ^= 1 << (bit % 8);
    flipped
}

#[test]
fn trace_file_damage_is_an_error_or_a_same_length_trace() {
    const HEADER_BYTES: usize = 44;
    let (program, trace) = sample();
    let dir = std::env::temp_dir().join(format!("clfp-no-panic-trc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.trc");
    trace.save(&program, &path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let read = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        Trace::load(&program, &path)
    };
    for bit in 0..HEADER_BYTES * 8 {
        assert!(read(&flip(&clean, bit)).is_err(), "header bit {bit}");
    }
    for bit in (HEADER_BYTES * 8..clean.len() * 8).step_by(PAYLOAD_BIT_STRIDE) {
        match read(&flip(&clean, bit)) {
            Ok(loaded) => assert_eq!(loaded.len(), trace.len(), "payload bit {bit}"),
            Err(err) => assert!(matches!(err, TraceFileError::BadPc { .. }), "{err}"),
        }
    }
    for len in 0..clean.len() {
        assert!(read(&clean[..len]).is_err(), "truncated to {len} bytes");
    }
    assert_eq!(read(&clean).unwrap().events(), trace.events());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cache_file_damage_rebuilds_or_reads_back_at_length() {
    const HEADER_BYTES: usize = 44;
    const MAX_INSTRS: u64 = 10_000;
    let (program, trace) = sample();
    let dir = std::env::temp_dir().join(format!("clfp-no-panic-{}", std::process::id()));
    let cache = TraceCache::new(&dir);
    let path = cache
        .store(&program, MAX_INSTRS, &trace)
        .unwrap()
        .path()
        .to_owned();
    let clean = std::fs::read(&path).unwrap();
    // Writes `bytes` over the entry and asks the cache for the trace: a
    // rebuild must equal the capture, a warm read its length.
    let ensure = |bytes: &[u8], must_rebuild: bool, what: String| {
        std::fs::write(&path, bytes).unwrap();
        let (loaded, warm) = cache
            .ensure(&program, VmOptions::default(), MAX_INSTRS)
            .unwrap();
        assert!(!(warm && must_rebuild), "{what} was trusted");
        assert_eq!(loaded.len(), trace.len(), "{what}");
        assert!(
            warm || loaded.events() == trace.events(),
            "{what}: rebuild differs"
        );
    };
    for bit in 0..HEADER_BYTES * 8 {
        ensure(&flip(&clean, bit), true, format!("header bit {bit}"));
    }
    for len in 0..clean.len() {
        ensure(&clean[..len], true, format!("truncation to {len} bytes"));
    }
    for bit in (HEADER_BYTES * 8..clean.len() * 8).step_by(PAYLOAD_BIT_STRIDE) {
        ensure(&flip(&clean, bit), false, format!("payload bit {bit}"));
    }
    std::fs::write(&path, &clean).unwrap();
    let (loaded, warm) = cache
        .ensure(&program, VmOptions::default(), MAX_INSTRS)
        .unwrap();
    assert!(warm && loaded.events() == trace.events());
    std::fs::remove_dir_all(dir).ok();
}
