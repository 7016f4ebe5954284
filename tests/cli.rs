//! The `ats` command line fails cleanly: an unknown flag, a malformed
//! value, a missing value, a rank count outside 1 to 8192, a stress-trace
//! size past 1,000,000 MB or a zero repetition count exits 2 naming it,
//! an output path that cannot be written exits 1 naming the path, and
//! nothing panics. A bad command line fails while it is checked, before
//! any simulation, server or flood starts. Under `--metrics`, a command
//! counts the trace bytes it wrote and read.

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
fn parameters_outside_their_range_are_usage_errors() {
    // A team of zero threads used to panic inside the simulator.
    fails(
        &["run", "imbalance_at_omp_barrier", "nthreads=0"],
        2,
        "`nthreads` is outside its range [1, 16]",
    );
    fails(
        &["run", "late_sender", "r=65"],
        2,
        "`r` is outside its range [1, 64]",
    );
    // A distribution's seconds values obey the seconds range.
    fails(
        &[
            "run",
            "imbalance_at_mpi_barrier",
            "df=linear:low=0,high=2e10",
            "r=1",
        ],
        2,
        "`df` is outside its range [0, 1]",
    );
    // The distribution parser's own reason survives.
    fails(
        &["run", "imbalance_at_mpi_barrier", "df=cyclic2:low=1"],
        2,
        "`cyclic2` requires `high`",
    );
    fails(
        &["run", "late_broadcast", "root=9", "--procs", "4"],
        2,
        "`root` = 9 is outside the communicator of 4 ranks",
    );
}

/// A reader that hangs up ends the command without a panic. The pipe's
/// read end is closed before `ats` starts: a reader that took one line
/// first would leave room in the pipe buffer for the whole listing.
#[test]
fn rank_counts_are_checked_before_anything_runs() {
    // At zero ranks each of these panicked inside a run, or wrote a file
    // of another size than the one asked for; 8193 is one rank more than
    // the widest world, and the two-communicator programs need two halves
    // of two ranks.
    let dir = ats_testutil::TempDir::new("ats-cli-ranks");
    let out = dir.file("t.atsb");
    let out = out.to_str().unwrap();
    for (args, arg, min) in [
        (&["trace", "gen", out, "--ranks", "0"][..], "--ranks `0`", 2),
        (
            &["bench", "trace", "--stress-ranks", "0"],
            "--stress-ranks `0`",
            2,
        ),
        (
            &["run", "late_sender", "--procs", "0"][..],
            "--procs `0`",
            1,
        ),
        (&["figure", "32", "0"], "nprocs `0`", 1),
        (&["figure", "35", "0"], "nprocs `0`", 4),
        (&["sweep", "positive", "0"], "nprocs `0`", 1),
        (&["validate", "0"], "nprocs `0`", 1),
        (&["fuzz", "1", "1", "1", "--nprocs", "0"], "--nprocs `0`", 2),
        (&["bench", "trace", "0"], "nprocs `0`", 4),
        (&["bench", "store", "0"], "nprocs `0`", 1),
        (&["bench", "obs", "1", "0"], "nprocs `0`", 4),
        (
            &["run", "late_sender", "--procs", "8193"],
            "--procs `8193`",
            1,
        ),
        (&["figure", "34", "3"], "nprocs `3`", 4),
    ] {
        let bound = format!("a rank count is at least {min} and at most 8192");
        fails(args, 2, &format!("bad {arg}: {bound}"));
    }
    // A stress trace's size is checked the same way.
    for flag in ["--mb", "--inner"] {
        fails(
            &["trace", "gen", out, flag, "0"],
            2,
            &format!("bad {flag} `0`"),
        );
    }
    assert!(!dir.file("t.atsb").exists(), "no trace was written");
}

#[test]
fn sizes_and_counts_are_checked_not_wrapped_or_raised() {
    let dir = ats_testutil::TempDir::new("ats-cli-sizes");
    let out = dir.file("t.atsb");
    let out = out.to_str().unwrap();
    // One megabyte past `u64::MAX` bytes: the byte count used to wrap, so
    // `trace gen` wrote a 0.4 MB file and exited 0.
    let past = "18446744073710";
    fails(
        &["trace", "gen", out, "--mb", past],
        2,
        &format!("bad --mb `{past}`: a stress trace takes 1 to 1000000 MB"),
    );
    fails(
        &["bench", "trace", "--stress-mb", past],
        2,
        &format!("bad --stress-mb `{past}`: a stress trace takes 0 to 1000000 MB"),
    );
    assert!(!dir.file("t.atsb").exists(), "no trace was written");
    // A count of zero used to be raised to one without a word.
    fails(&["bench", "trace", "4", "0"], 2, "bad reps `0`");
    fails(&["bench", "obs", "0"], 2, "bad reps `0`");
    fails(&["bench", "serve", "10", "0"], 2, "bad rounds `0`");
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ats"))
        .arg("catalog")
        .stdout(writer)
        .output()
        .expect("ats runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
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
fn asl_compile_and_evaluation_errors_name_the_property() {
    let dir = ats_testutil::TempDir::new("ats-cli-asl-errors");
    let path = dir.file("bad.asl");
    for (body, reason) in [
        ("WAIT nonsense;", "unknown variable `nonsense`"),
        ("WAIT recv_posted * send_post;", "`*` of two times"),
        (
            "WAIT recv_exit * 1000000000000000000000;",
            "arithmetic overflow",
        ),
    ] {
        let set = format!("PROPERTY Bad OVER p2p_pair {{ {body} LOCATE receiver; }}");
        std::fs::write(&path, set).unwrap();
        let args = ["asl", path.to_str().unwrap(), "late_sender"];
        fails(&args, 1, &format!("Bad: {reason}"));
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
fn a_malformed_trace_fails_to_read() {
    use ats::trace::binfmt::BlockWriter;
    use ats::trace::{Event, EventKind, LocationId, LocationTrace, RegionId, RegionMeta};
    let dir = ats_testutil::TempDir::new("ats-cli-malformed");
    let file = dir.file("exit_first.atsb");
    let region = RegionMeta {
        name: "main".into(),
        kind: ats::trace::RegionKind::User,
    };
    let out = std::fs::File::create(&file).unwrap();
    let mut w = BlockWriter::new(out, &[region], &[], 1).unwrap();
    let exit = EventKind::Exit {
        region: RegionId(0),
    };
    w.write_location(&LocationTrace {
        location: LocationId::rank(0),
        events: vec![Event::new(ats::runtime::VTime(1), exit)],
    })
    .unwrap();
    w.finish().unwrap();
    let file = file.to_str().unwrap();
    fails(
        &["analyze", file],
        1,
        &format!(
            "cannot read {file}: trace format error: \
             location 0: event 0 exits an unopened region"
        ),
    );
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
