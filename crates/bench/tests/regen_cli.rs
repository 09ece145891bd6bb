//! `regen` rejects what it will not do: two modes in one run, a table or
//! figure the paper does not have, an unknown flag, and a perf gate at a
//! cap it has no floors for. Every case fails while parsing, so no suite
//! runs and nothing is printed to stdout.

use std::process::Command;

/// Runs `regen` with `args`; returns its exit code, stdout and stderr.
fn regen(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_regen"))
        .args(args)
        .output()
        .expect("regen runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], message: &str) {
    let (code, stdout, stderr) = regen(args);
    assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
    assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
    assert!(
        stderr.starts_with("regen: ") && stderr.contains(message),
        "{args:?}: expected `{message}` in {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn two_modes_are_rejected() {
    for (args, message) in [
        (
            &["--alias", "--valuepred"][..],
            "--alias and --valuepred select different modes",
        ),
        (
            &["--metrics", "--lint"],
            "--metrics and --lint select different modes",
        ),
        (
            &["--alias", "--table", "3"],
            "--alias and --table select different modes",
        ),
        (
            &["--figure", "6", "--scaling"],
            "--figure and --scaling select different modes",
        ),
        (
            &["--timing", "--metrics"],
            "--timing and --metrics select different modes",
        ),
        (
            &["--lint", "--check-perf"],
            "--lint and --check-perf select different modes",
        ),
    ] {
        assert_rejected(args, message);
    }
}

#[test]
fn timed_flags_count_as_one_mode() {
    // The timed flags combine; the run is refused only for the cap that
    // follows them, which proves they did not conflict.
    assert_rejected(
        &[
            "--timing",
            "--trace",
            "t.json",
            "--check-perf",
            "--max-instr",
            "x",
        ],
        "bad instruction cap `x`",
    );
}

#[test]
fn perf_gate_needs_the_calibrated_cap() {
    assert_rejected(
        &["--check-perf", "--max-instr", "300000"],
        "--check-perf gates at the cap its floors were calibrated at",
    );
}

#[test]
fn sections_outside_the_paper_are_rejected() {
    for (args, message) in [
        (&["--table", "9"][..], "no table 9: the tables are 1-4"),
        (&["--table", "0"], "no table 0: the tables are 1-4"),
        (&["--figure", "3"], "no figure 3: the figures are 4-7"),
        (&["--figure", "8"], "no figure 8: the figures are 4-7"),
        (&["--table", "x"], "bad table `x`"),
    ] {
        assert_rejected(args, message);
    }
}

#[test]
fn malformed_flags_are_rejected() {
    assert_rejected(&["--tables", "3"], "unknown argument `--tables`");
    assert_rejected(
        &["--perf-tolerance", "5"],
        "unknown argument `--perf-tolerance`",
    );
    assert_rejected(&["--max-instr"], "--max-instr needs a number");
    assert_rejected(&["--trace"], "--trace needs an output file");
}

#[test]
fn help_exits_zero() {
    let (code, stdout, _) = regen(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("usage: regen"), "{stdout}");
}
