//! Every committed file under `artifacts/` that an `ats` command writes
//! regenerates byte for byte. Each command runs in a fresh directory with
//! an `artifacts/` subdirectory, so `--svg artifacts` prints the same
//! `wrote artifacts/…` lines the committed text holds. `overhead.txt`
//! ends in a wall-clock measurement; everything before that line is
//! compared. (`applications.txt` is the `applications` example's output.)

use std::path::Path;
use std::process::Command;

fn committed(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Run `ats args` in a fresh directory; returns its stdout and the
/// directory.
fn ats(args: &[&str]) -> (Vec<u8>, ats_testutil::TempDir) {
    let dir = ats_testutil::TempDir::new("ats-artifacts");
    std::fs::create_dir(dir.file("artifacts")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ats"))
        .args(args)
        .current_dir(dir.path())
        .output()
        .expect("ats runs");
    assert!(
        out.status.success(),
        "ats {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, dir)
}

/// Assert `got` equals `want` (the committed `name`), naming the first
/// line that differs.
fn same(name: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(want));
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or(got.lines().count().min(want.lines().count()));
    panic!(
        "{name} differs at line {}:\n  committed: {:?}\n  generated: {:?}",
        line + 1,
        want.lines().nth(line),
        got.lines().nth(line)
    );
}

/// `ats args` prints the committed `txt` and writes the committed `svgs`.
fn regenerates(args: &[&str], txt: &str, svgs: &[&str]) {
    let (stdout, dir) = ats(args);
    same(txt, &stdout, &committed(txt));
    for svg in svgs {
        let path = dir.file("artifacts").join(svg);
        same(svg, &std::fs::read(&path).unwrap(), &committed(svg));
    }
}

#[test]
fn catalog() {
    regenerates(&["catalog"], "catalog.txt", &[]);
}

#[test]
fn figure32() {
    regenerates(
        &["figure", "32", "8", "--svg", "artifacts"],
        "figure32.txt",
        &["figure32_run1.svg", "figure32_run2.svg"],
    );
}

#[test]
fn figure33() {
    regenerates(
        &["figure", "33", "8", "--svg", "artifacts"],
        "figure33.txt",
        &["figure33.svg"],
    );
}

#[test]
fn figure34() {
    regenerates(
        &["figure", "34", "16", "--svg", "artifacts"],
        "figure34.txt",
        &["figure34.svg"],
    );
}

#[test]
fn figure35() {
    regenerates(&["figure", "35", "16"], "figure35.txt", &[]);
}

#[test]
fn ablation() {
    regenerates(&["ablation"], "ablation.txt", &[]);
}

#[test]
fn scaling() {
    regenerates(&["sweep", "scaling"], "scaling.txt", &[]);
}

#[test]
fn sweep_positive() {
    regenerates(&["sweep", "positive", "8"], "sweep_positive.txt", &[]);
}

#[test]
fn sweep_negative() {
    regenerates(&["sweep", "negative"], "sweep_negative.txt", &[]);
}

#[test]
fn overhead_up_to_the_measured_slowdown() {
    let (stdout, _dir) = ats(&["validate", "4"]);
    // Everything before the last line, and the last line.
    let split = |text: &[u8]| {
        let end = text.len() - 1;
        let cut = text[..end].iter().rposition(|b| *b == b'\n').unwrap() + 1;
        (text[..cut].to_vec(), text[cut..].to_vec())
    };
    let (got, measured) = split(&stdout);
    let (want, _) = split(&committed("overhead.txt"));
    same("overhead.txt", &got, &want);
    assert!(measured.starts_with(b"  uninstrumented "));
}
