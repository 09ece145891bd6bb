//! Integration tests for the `clfp` command-line binary.

use std::io::Write as _;
use std::process::Command;

fn clfp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clfp"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clfp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path).unwrap();
    file.write_all(content.as_bytes()).unwrap();
    path
}

const PROGRAM: &str = r#"
fn main() -> int {
    var s: int = 0;
    for (var i: int = 0; i < 100; i = i + 1) {
        if (i % 3 == 0) { s = s + i; }
    }
    return s;
}
"#;

#[test]
fn help_lists_commands() {
    let output = clfp().arg("help").output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    for command in ["compile", "disasm", "run", "trace", "analyze", "lint", "workloads"] {
        assert!(text.contains(command), "help missing `{command}`");
    }
}

#[test]
fn lint_reports_and_exits_by_severity() {
    // The toy program is clean of errors but trips the MiniC codegen
    // lints (unreachable fallback return): exit 0, findings printed.
    let path = write_temp("lint.mc", PROGRAM);
    let output = clfp()
        .arg("lint")
        .arg(&path)
        .args(["--max-instr", "50000"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("0 error(s)"), "{text}");

    // JSON mode emits one object per diagnostic.
    let output = clfp()
        .args(["lint", "--workload", "qsort", "--max-instr", "30000", "--json"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.trim_start().starts_with('['), "{text}");
    assert!(text.contains("\"kind\""), "{text}");
    assert!(text.contains("\"severity\""), "{text}");
    assert!(!text.contains("\"severity\": \"error\""), "{text}");

    // --static-only skips the trace cross-checks but still lints.
    let output = clfp()
        .args(["lint", "--workload", "scan", "--static-only"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
}

#[test]
fn run_prints_result() {
    let path = write_temp("run.mc", PROGRAM);
    let output = clfp().arg("run").arg(&path).output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    // sum of multiples of 3 below 100 = 1683.
    assert!(text.contains("result (v0) = 1683"), "{text}");
    assert!(text.contains("Halted"));
}

#[test]
fn compile_emits_assembly() {
    let path = write_temp("compile.mc", PROGRAM);
    let output = clfp().arg("compile").arg(&path).output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("mc_main:"));
    assert!(text.contains("addi sp, sp, -"));
}

#[test]
fn compile_with_if_conversion_emits_cmov() {
    let path = write_temp("ifc.mc", PROGRAM);
    let output = clfp()
        .args(["compile", "--if-convert"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("cmovn"), "expected guarded move in:\n{text}");
}

#[test]
fn analyze_reports_all_machines() {
    let path = write_temp("analyze.mc", PROGRAM);
    let output = clfp()
        .args(["analyze"])
        .arg(&path)
        .args(["--max-instr", "50000"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    for machine in ["BASE", "CD-MF", "SP-CD-MF", "ORACLE"] {
        assert!(text.contains(machine), "missing {machine} in:\n{text}");
    }
    assert!(text.contains("mispredictions"));
}

#[test]
fn analyze_by_workload_name() {
    let output = clfp()
        .args(["analyze", "--workload", "qsort", "--max-instr", "30000"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("ORACLE"));
}

#[test]
fn trace_roundtrip_via_files() {
    let path = write_temp("trace.mc", PROGRAM);
    let trc = path.with_extension("trc");
    let output = clfp()
        .arg("trace")
        .arg(&path)
        .arg("-o")
        .arg(&trc)
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("wrote"), "{text}");

    let output = clfp().arg("analyze").arg(&path).output().unwrap();
    assert!(output.status.success(), "{output:?}");
    // Streamed from the file, the same table as from the VM.
    let from_file = clfp()
        .arg("analyze")
        .arg(&path)
        .arg("--trace")
        .arg(&trc)
        .output()
        .unwrap();
    assert!(from_file.status.success(), "{from_file:?}");
    assert_eq!(
        String::from_utf8(from_file.stdout).unwrap(),
        String::from_utf8(output.stdout).unwrap()
    );

    // A different program must reject the trace.
    let other = write_temp("other.mc", "fn main() -> int { return 1; }");
    let output = clfp()
        .arg("analyze")
        .arg(&other)
        .arg("--trace")
        .arg(&trc)
        .output()
        .unwrap();
    assert!(!output.status.success());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("different program"), "{text}");
}

#[test]
fn cache_lists_and_clears_a_directory() {
    // A tab in the directory's name and a quote in a cache file's name
    // must reach the JSON listing escaped.
    let dir = std::env::temp_dir()
        .join(format!("clfp-cli-test-{}", std::process::id()))
        .join("cache\tdir");
    std::fs::create_dir_all(&dir).unwrap();
    let path = write_temp("cached.mc", PROGRAM);
    let stored = dir.join("stored.trc");
    let output = clfp()
        .arg("trace")
        .arg(&path)
        .arg("-o")
        .arg(&stored)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    std::fs::rename(&stored, dir.join("a\"b.clfpc")).unwrap();

    let cache = |args: &[&str]| {
        let output = clfp()
            .arg("cache")
            .args(args)
            .arg("--dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(output.status.success(), "{args:?}: {output:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    let text = cache(&["list", "--max-instrs", "1000"]);
    assert!(text.contains("a\"b.clfpc"), "{text}");
    assert!(text.contains("1 trace(s)"), "{text}");
    assert!(text.contains("0 hit(s), 10 miss(es)"), "{text}");

    let json = cache(&["list", "--max-instrs", "1000", "--json"]);
    assert!(json.contains(r#""file": "a\"b.clfpc""#), "{json}");
    assert!(json.contains(r#"cache\tdir","#), "{json}");
    assert!(
        json.contains(r#""probe": {"max_instrs": 1000, "hits": 0, "misses": 10}"#),
        "{json}"
    );
    assert!(
        !json.chars().any(|c| c.is_control() && c != '\n'),
        "raw control character in {json:?}"
    );

    let text = cache(&["clear"]);
    assert!(text.contains("removed 1 cached trace(s)"), "{text}");
    let json = cache(&["list", "--max-instrs", "1000", "--json"]);
    assert!(json.contains("\"entries\": [],"), "{json}");
    assert!(json.contains("\"total_bytes\": 0,"), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn workloads_lists_the_suite() {
    let output = clfp().arg("workloads").output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    for name in ["scan", "qsort", "stencil"] {
        assert!(text.contains(name));
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let output = clfp().arg("analyze").arg("/nonexistent.mc").output().unwrap();
    assert!(!output.status.success());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("cannot read"));

    let bad = write_temp("bad.mc", "fn main( { return 0; }");
    let output = clfp().arg("compile").arg(&bad).output().unwrap();
    assert!(!output.status.success());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("minic error"), "{text}");

    let output = clfp().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());

    // A zero fetch width would divide by zero in every scheduler.
    let output = clfp()
        .args([
            "analyze",
            "--workload",
            "qsort",
            "--fetch",
            "0",
            "--max-instr",
            "20000",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("fetch bandwidth"), "{text}");

    // A misspelled or removed flag, a value flag with no value, or a cap
    // on a trace file would otherwise analyze silently with the defaults.
    let rejected: [(&[&str], &str); 11] = [
        (
            &["analyze", "--valuepredd", "stride"],
            "unknown flag `--valuepredd`",
        ),
        (&["analyze", "--stream"], "unknown flag `--stream`"),
        (&["analyze", "--chunk", "4096"], "unknown flag `--chunk`"),
        (&["analyze", "--max-instr"], "`--max-instr` needs a value"),
        (&["analyze", "--valuepred"], "`--valuepred` needs a value"),
        (
            &["analyze", "--no-unroll", "--fetch"],
            "`--fetch` needs a value",
        ),
        (&["analyze", "--predictor"], "`--predictor` needs a value"),
        (&["analyze", "--trace-json"], "`--trace-json` needs a value"),
        (
            &["analyze", "--max-instr", "--no-unroll"],
            "`--max-instr` needs a value",
        ),
        (
            &["analyze", "--trace", "qsort.trc", "--max-instrs", "1000"],
            "`--max-instrs` cannot be combined with `--trace`",
        ),
        (&["lint", "--jsn"], "unknown flag `--jsn`"),
    ];
    for (args, message) in rejected {
        let (command, flags) = args.split_first().unwrap();
        let output = clfp()
            .args([command, "--workload", "qsort"])
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?} analyzed anyway");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(text.contains(message), "{args:?}: {text}");
    }

    // A trace file whose first event's pc has a high bit flipped names an
    // instruction the program does not have: the stream reports it as the
    // VM's bad-pc error, naming the pc.
    let path = write_temp("flipped.mc", PROGRAM);
    let trc = path.with_extension("trc");
    let output = clfp()
        .arg("trace")
        .arg(&path)
        .arg("-o")
        .arg(&trc)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let mut bytes = std::fs::read(&trc).unwrap();
    bytes[44 + 3] ^= 0x40; // the pc's top byte: header is 44 bytes
    std::fs::write(&trc, &bytes).unwrap();
    let output = clfp()
        .arg("analyze")
        .arg(&path)
        .arg("--trace")
        .arg(&trc)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    let pc = u32::from_le_bytes(bytes[44..48].try_into().unwrap());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(
        text.contains(&format!("program counter {pc} outside text segment")),
        "{text}"
    );
}

#[test]
fn disasm_shows_labels() {
    let path = write_temp("disasm.mc", PROGRAM);
    let output = clfp().arg("disasm").arg(&path).output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("__start:"));
    assert!(text.contains("mc_main:"));
}
