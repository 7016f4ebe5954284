//! The `ats` command line fails cleanly: an unknown flag, a malformed
//! value or a missing value exits 2 naming it, an output path that cannot
//! be written exits 1 naming the path, and nothing panics. A bad command
//! line fails while it is checked, before any simulation, server or
//! flood starts. Under `--metrics`, a command counts the trace bytes it
//! wrote and read.

use std::process::{Command, Output};

fn ats(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ats"))
        .args(args)
        .output()
        .expect("ats runs")
}

/// `ats args` exits `code` with `needle` on stderr, and does not panic.
fn fails(args: &[&str], code: i32, needle: &str) {
    let out = ats(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "ats {args:?}: {err}");
    assert!(
        err.contains(needle),
        "ats {args:?} does not name {needle:?}: {err}"
    );
    assert!(!err.contains("panicked"), "ats {args:?} panicked: {err}");
}

#[test]
fn malformed_values_are_usage_errors() {
    fails(&["figure", "32", "eight"], 2, "bad nprocs `eight`");
    fails(
        &["bench", "serve", "--workers", "abc"],
        2,
        "bad --workers `abc`",
    );
    fails(&["bench", "obs", "x"], 2, "bad reps `x`");
    fails(&["fuzz", "5", "0xZZ", "1"], 2, "bad seed `0xZZ`");
    fails(&["sweep", "positive", "--cache", "bogus"], 2, "bogus");
    fails(&["run", "no_such_property"], 2, "no_such_property");
}

#[test]
fn unknown_flags_and_arguments_are_usage_errors() {
    fails(&["figure", "33", "--svgdir", "/tmp/x", "8"], 2, "--svgdir");
    fails(&["sweep", "negative", "--jobs", "2"], 2, "--jobs");
    // Gate bounds are constants, not flags.
    fails(&["bench", "sched", "--min-ratio", "1"], 2, "--min-ratio");
    fails(&["bench", "serve", "--min-rps", "1"], 2, "--min-rps");
    // Figures and fuzz campaigns never read the result cache, so they
    // take no cache flags.
    fails(&["figure", "33", "--cache", "rw"], 2, "--cache");
    fails(&["fuzz", "5", "--cache-dir", "d"], 2, "--cache-dir");
    // The scheduler's carrier follows the platform, so no command takes
    // a backend.
    fails(
        &["figure", "34", "--backend", "bogus"],
        2,
        "unknown flag --backend",
    );
    fails(
        &["run", "late_sender", "--backend", "thread"],
        2,
        "--backend",
    );
    fails(&["sweep", "positive", "--backend", "event"], 2, "--backend");
    fails(&["fuzz", "5", "--backend", "thread"], 2, "--backend");
    fails(&["figure", "32", "8", "16"], 2, "unexpected argument `16`");
    fails(&["figure", "36"], 2, "unknown command `figure 36`");
    fails(&[], 2, "usage: ats COMMAND");
    // A boolean flag does not swallow the next word, so `8` is a surplus
    // positional here rather than the value of `--realistic`.
    fails(&["serve", "--realistic", "8"], 2, "unexpected argument `8`");
}

#[test]
fn missing_values_are_usage_errors() {
    fails(&["figure", "34", "--svg"], 2, "--svg needs a value");
    fails(&["generate"], 2, "missing DIR");
    fails(&["trace", "gen"], 2, "missing OUT.atsb");
}

#[test]
fn unwritable_outputs_fail_naming_the_path() {
    let dir = ats_testutil::TempDir::new("ats-cli-unwritable");
    let missing = dir.path().join("no").join("such").join("dir");
    let missing = missing.to_str().unwrap();
    fails(&["figure", "33", "4", "--svg", missing], 1, missing);
    std::fs::write(dir.file("plain"), "a file, not a directory").unwrap();
    let under_file = format!("{}/x", dir.file("plain").display());
    fails(&["generate", &under_file], 1, &under_file);
    let out = format!("{missing}/t.atsb");
    fails(&["trace", "gen", &out, "--mb", "1"], 1, &out);
}

#[test]
fn deeply_nested_asl_fails_naming_the_property() {
    let dir = ats_testutil::TempDir::new("ats-cli-asl");
    let parens = format!("{}recv_posted{}", "(".repeat(100_000), ")".repeat(100_000));
    let chain = format!("recv_completion - recv_posted{}", " + 0".repeat(100_000));
    for (name, wait) in [("parens.asl", parens), ("chain.asl", chain)] {
        let path = dir.file(name);
        let set = format!("PROPERTY Deep OVER p2p_pair {{ WAIT {wait}; LOCATE receiver; }}");
        std::fs::write(&path, set).unwrap();
        let path = path.to_str().unwrap();
        fails(
            &["asl", path, "late_sender"],
            1,
            "Deep: expression nests deeper than 128 levels",
        );
    }
}

#[test]
fn help_prints_the_command_usage() {
    let out = ats(&["bench", "serve", "--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("ats bench serve [clients] [rounds]"),
        "{text}"
    );
}

/// The value of the Prometheus sample `name` in `text`.
fn sample(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn metrics_count_the_trace_bytes_written_and_read() {
    let dir = ats_testutil::TempDir::new("ats-cli-metrics");
    let file = dir.file("late_sender.atsb");
    let file = file.to_str().unwrap();
    let run = ats(&[
        "run",
        "late_sender",
        "--procs",
        "4",
        "--save",
        file,
        "--metrics",
        "-",
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let size = std::fs::metadata(file).unwrap().len();
    let written = String::from_utf8_lossy(&run.stdout);
    assert_eq!(
        sample(&written, "ats_trace_binary_bytes_encoded_total"),
        Some(size)
    );
    let analyze = ats(&["analyze", file, "--metrics", "-"]);
    assert!(analyze.status.success());
    let read = String::from_utf8_lossy(&analyze.stdout);
    assert_eq!(
        sample(&read, "ats_analyzer_bytes_ingested_total"),
        Some(size)
    );
}
