//! The streaming-ingest contract: analyzing a trace by streaming its
//! ATSB column blocks — one location at a time, reused buffers, never
//! materializing the whole trace — must produce a report identical to
//! materializing and analyzing in memory. Checked differentially over the
//! full positive catalog, to the byte of the `ats-report/1` document.

use ats::analyzer::{analyze, analyze_stream, AnalyzerConfig};
use ats::harness::{run_single, ParamValue, ParamValues, RunOpts};
use ats::trace::binfmt;

/// Positive catalog entries: every spec with a localized expected
/// property — the traces whose findings the analyzer must reproduce
/// exactly through the streaming path.
fn positives() -> impl Iterator<Item = &'static ats::core::PropertySpec> {
    ats::core::CATALOG
        .iter()
        .filter(|s| s.expected_property.is_some())
}

#[test]
fn streaming_matches_materializing_across_the_positive_catalog() {
    let config = AnalyzerConfig::default();
    let opts = RunOpts::default().procs(4);
    let mut legs = 0usize;
    for spec in positives() {
        let mut params = ParamValues::defaults(spec);
        params.set("r", ParamValue::Count(2));
        let trace =
            run_single(spec.name, &params, &opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let direct = analyze(&trace, &config);

        let ctx = format!("{} atsb", spec.name);
        let mut atsb = Vec::new();
        binfmt::write_binary(&trace, &mut atsb).unwrap();
        let (streamed, stats) =
            analyze_stream(atsb.as_slice(), &config).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(
            direct.to_json(),
            streamed.to_json(),
            "{ctx}: report diverged"
        );
        assert_eq!(stats.events as usize, trace.num_events(), "{ctx}");
        assert_eq!(stats.locations as usize, trace.locations.len(), "{ctx}");
        assert_eq!(stats.bytes as usize, atsb.len(), "{ctx}: bytes consumed");
        legs += 1;
    }
    assert!(
        legs >= 20,
        "positive catalog unexpectedly small: {legs} legs"
    );
}
