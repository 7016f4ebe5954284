//! The `ats-report/1` wire schema cannot drift silently.
//!
//! Two guards: a round-trip (export → parse → re-render is a byte-level
//! fixed point) and a golden file (the exact bytes of a fixed
//! deterministic run, checked into the tree). Any change to field names,
//! ordering, or number formatting fails the golden comparison and forces
//! a deliberate schema bump.

use ats_analyzer::{analyze, AnalyzerConfig, ReportDoc, REPORT_SCHEMA};
use ats_core::{properties::mpi_p2p, BaseComm};
use ats_mpi::SimConfig;
use ats_runtime::{MachineModel, VDur};

/// The fixed scenario the golden file was generated from. Virtual-time
/// simulation makes the trace — and therefore the report bytes —
/// deterministic on every host and at any worker count.
fn golden_report_json() -> String {
    let cfg = SimConfig {
        nprocs: 2,
        model: MachineModel::zero(),
        init_time: VDur::ZERO,
        finalize_time: VDur::ZERO,
        ..Default::default()
    };
    let trace = ats_mpi::run(cfg, |p| {
        let world = p.comm_world();
        mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.050, 2, &world);
    });
    analyze(&trace, &AnalyzerConfig::default()).to_json()
}

#[test]
fn report_bytes_match_golden_file() {
    let got = golden_report_json();
    let want = include_str!("golden/report_v1.json");
    assert_eq!(
        got, want,
        "ats-report/1 bytes drifted from tests/golden/report_v1.json — \
         if the change is deliberate, bump the schema tag and regenerate"
    );
}

#[test]
fn report_round_trips_byte_identically() {
    let json = golden_report_json();
    let doc = ReportDoc::parse(&json).expect("canonical bytes parse");
    assert_eq!(doc.schema, REPORT_SCHEMA);
    assert_eq!(doc.render(), json, "parse → render is a fixed point");
    assert_eq!(doc.findings[0].property, "LateSender");
    assert_eq!(doc.findings_for("LateSender").len(), doc.findings.len());
    assert!(doc.total_wait() > VDur::ZERO);
}

#[test]
fn golden_file_itself_parses_as_v1() {
    let doc = ReportDoc::parse(include_str!("golden/report_v1.json")).unwrap();
    assert_eq!(doc.schema, REPORT_SCHEMA);
    assert!(!doc.findings.is_empty());
    assert!(doc.threshold > 0.0);
}

#[test]
fn every_prefix_and_bit_flip_of_a_report_parses_or_fails() {
    let json = golden_report_json();
    let bytes = json.as_bytes();
    // A body that is not UTF-8 never reaches the parser.
    let parse = |b: &[u8]| std::str::from_utf8(b).map(|text| ReportDoc::parse(text).is_ok());
    // Only the prefixes that keep the closing brace are whole.
    let whole = json.rfind('}').unwrap() + 1;
    for end in 0..=bytes.len() {
        let want = Ok(end >= whole);
        assert_eq!(parse(&bytes[..end]), want, "{end}-byte prefix");
    }
    let mut parsed = 0;
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            parsed += usize::from(parse(&flipped).is_ok());
        }
    }
    // Seven of each ASCII byte's eight flips stay UTF-8.
    assert!(parsed > 6 * bytes.len(), "{parsed} parsed");
}
