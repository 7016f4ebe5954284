//! `ats bench trace`: size and encode/decode throughput of the ATSB
//! columnar format on the Figure 3.4 composite trace, plus a
//! streaming-analysis stress section that generates a large synthetic
//! ATSB file and compares the streaming ingest path against the
//! materializing one (best-of-`reps` events/second, and peak RSS). Writes
//! `BENCH_trace.json`. Gates: the codec round-trips losslessly, the
//! streaming and materializing reports are identical, and streaming
//! analysis holds [`EPS_FLOOR`] events/s and [`MIN_SPEEDUP`] ×
//! materializing. `--stress-mb 0` skips the stress section.

use super::best_of;
use crate::analyzer::{analyze_path, analyze_path_streaming, AnalyzerConfig};
use crate::cli::{cannot_write, failed, write_bench_doc, CliError, CommonArgs};
use crate::core::composite::TWO_COMMUNICATOR_RANKS;
use crate::core::json::Json;
use crate::trace::binfmt;
use ats_bench::stress::{peak_rss_bytes, write_stress, StressConfig};
use std::num::NonZeroUsize;
use std::time::Instant;

/// The gate: streaming analysis events per second.
pub(crate) const EPS_FLOOR: f64 = 1e6;
/// The gate: streaming over materializing events per second.
pub(crate) const MIN_SPEEDUP: f64 = 2.0;

struct StressDoc {
    ranks: u32,
    events: u64,
    file_bytes: u64,
    generate_secs: f64,
    streaming_secs: f64,
    streaming_events_per_sec: f64,
    /// Peak RSS sampled after the streaming passes (which run first).
    streaming_peak_rss_bytes: Option<u64>,
    materializing_secs: f64,
    materializing_events_per_sec: f64,
    /// Peak RSS sampled after the materializing passes (process-wide high
    /// water, so it subsumes the streaming peak).
    materializing_peak_rss_bytes: Option<u64>,
    /// `streaming_events_per_sec / materializing_events_per_sec`.
    streaming_speedup: f64,
    /// Do the two paths produce identical findings?
    reports_identical: bool,
}

impl StressDoc {
    fn to_json(&self) -> Json {
        let rss = |b: Option<u64>| b.map_or(Json::Null, Json::from);
        Json::obj()
            .with("ranks", self.ranks)
            .with("events", self.events)
            .with("file_bytes", self.file_bytes)
            .with("generate_secs", self.generate_secs)
            .with("streaming_secs", self.streaming_secs)
            .with("streaming_events_per_sec", self.streaming_events_per_sec)
            .with(
                "streaming_peak_rss_bytes",
                rss(self.streaming_peak_rss_bytes),
            )
            .with("materializing_secs", self.materializing_secs)
            .with(
                "materializing_events_per_sec",
                self.materializing_events_per_sec,
            )
            .with(
                "materializing_peak_rss_bytes",
                rss(self.materializing_peak_rss_bytes),
            )
            .with("streaming_speedup", self.streaming_speedup)
            .with("reports_identical", self.reports_identical)
    }
}

fn mb_per_sec(bytes: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / 1e6 / secs
    } else {
        0.0
    }
}

fn run_stress(ranks: u32, mb: u64, reps: usize) -> Result<StressDoc, CliError> {
    let cfg = StressConfig::sized_mb(ranks, mb);
    let path = std::env::temp_dir().join(format!(
        "ats-trace-bench-stress-{}.atsb",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).map_err(|e| cannot_write(&path, e))?;
    let start = Instant::now();
    let file_bytes =
        write_stress(&cfg, std::io::BufWriter::new(file)).map_err(|e| cannot_write(&path, e))?;
    let generate_secs = start.elapsed().as_secs_f64();

    // Each pass is timed best-of-`reps`, like the codec. Streaming first:
    // VmHWM is a process-wide high water, so sampling in ascending-cost
    // order attributes each phase's peak correctly.
    let analyzer_cfg = AnalyzerConfig::default();
    let (streaming_secs, streamed) = best_of(reps, || analyze_path_streaming(&path, &analyzer_cfg));
    let streaming_peak_rss_bytes = peak_rss_bytes();

    let (materializing_secs, materialized) = best_of(reps, || analyze_path(&path, &analyzer_cfg));
    let materializing_peak_rss_bytes = peak_rss_bytes();
    let _ = std::fs::remove_file(&path);
    let (streamed, stats) = streamed.map_err(|e| failed(format!("streaming analysis: {e}")))?;
    let (trace, materialized) =
        materialized.map_err(|e| failed(format!("materializing analysis: {e}")))?;
    let reports_identical =
        stats.events == trace.num_events() as u64 && streamed.to_json() == materialized.to_json();

    let eps = |secs: f64| stats.events as f64 / secs.max(1e-9);
    Ok(StressDoc {
        ranks: cfg.ranks,
        events: stats.events,
        file_bytes,
        generate_secs,
        streaming_secs,
        streaming_events_per_sec: eps(streaming_secs),
        streaming_peak_rss_bytes,
        materializing_secs,
        materializing_events_per_sec: eps(materializing_secs),
        materializing_peak_rss_bytes,
        streaming_speedup: eps(streaming_secs) / eps(materializing_secs),
        reports_identical,
    })
}

/// `ats bench trace [nprocs] [reps] [--stress-ranks N] [--stress-mb N]`
/// (defaults: 16 ranks, 5 reps, 64 stress ranks, 8 MB stress trace).
pub(crate) fn run(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs = args.ranks("nprocs", 16, TWO_COMMUNICATOR_RANKS)?;
    let reps = args.pos_or(1, NonZeroUsize::new(5).unwrap())?.get();
    let stress_ranks = args.ranks("--stress-ranks", 64, 2)? as u32;
    let stress_mb = args.megabytes("stress-mb", 8, 0)?;
    outln!("=== trace codec: ATSB on the figure-3.4 composite ===\n");
    let trace = crate::figures::figure34_trace(&crate::figures::paper_session(nprocs).build());
    let events = trace.num_events();

    let (encode_secs, binary) = best_of(reps, || binfmt::encode(&trace));
    let (decode_secs, from_binary) = best_of(reps, || binfmt::decode(&binary));
    let lossless = from_binary.is_ok_and(|t| {
        t.regions == trace.regions && t.comms == trace.comms && t.locations == trace.locations
    });
    // Throughput over the encoded byte volume, best-of-`reps`.
    let encode_mb_per_sec = mb_per_sec(binary.len(), encode_secs);
    let decode_mb_per_sec = mb_per_sec(binary.len(), decode_secs);

    let stress = match stress_mb {
        0 => None,
        mb => Some(run_stress(stress_ranks, mb, reps)?),
    };

    outln!(
        "{nprocs} ranks, {events} events: {} B ({:.2} B/event)",
        binary.len(),
        binary.len() as f64 / events.max(1) as f64
    );
    outln!(
        "encode: {:.3} ms ({encode_mb_per_sec:.0} MB/s)",
        encode_secs * 1e3
    );
    outln!(
        "decode: {:.3} ms ({decode_mb_per_sec:.0} MB/s)",
        decode_secs * 1e3
    );
    outln!("round-trip lossless: {lossless}");
    if let Some(s) = &stress {
        let gb = |b: Option<u64>| {
            b.map(|b| format!("{:.0} MB", b as f64 / 1e6))
                .unwrap_or_else(|| "n/a".to_owned())
        };
        outln!(
            "\nstress: {} ranks, {} events, {:.1} MB file (generated in {:.2} s)",
            s.ranks,
            s.events,
            s.file_bytes as f64 / 1e6,
            s.generate_secs
        );
        outln!(
            "streaming:     {:.3} s, {:.2}M events/s, peak RSS {}",
            s.streaming_secs,
            s.streaming_events_per_sec / 1e6,
            gb(s.streaming_peak_rss_bytes)
        );
        outln!(
            "materializing: {:.3} s, {:.2}M events/s, peak RSS {}",
            s.materializing_secs,
            s.materializing_events_per_sec / 1e6,
            gb(s.materializing_peak_rss_bytes)
        );
        outln!(
            "streaming speedup: {:.2}x, reports identical: {}",
            s.streaming_speedup,
            s.reports_identical
        );
    }

    let doc = Json::obj()
        .with("experiment", "trace-codec")
        .with("nprocs", nprocs)
        .with("events", events)
        .with("reps", reps)
        .with("binary_bytes", binary.len())
        .with("binary_encode_secs", encode_secs)
        .with("binary_decode_secs", decode_secs)
        .with("binary_encode_mb_per_sec", encode_mb_per_sec)
        .with("binary_decode_mb_per_sec", decode_mb_per_sec)
        .with("lossless", lossless)
        .with(
            "stress",
            stress.as_ref().map_or(Json::Null, StressDoc::to_json),
        );
    write_bench_doc("trace", &doc)?;

    // Losslessness, report identity, and the streaming throughput floors
    // are structural gates; raw wall-clock numbers are reported but only
    // gated as ratios/floors loose enough for noisy CI machines.
    let mut ok = lossless;
    if !ok {
        errln!("FAIL: the ATSB round trip is lossy");
    }
    if let Some(s) = &stress {
        if !s.reports_identical {
            errln!("FAIL: streaming and materializing reports diverge");
            ok = false;
        }
        if s.streaming_events_per_sec < EPS_FLOOR {
            errln!(
                "FAIL: streaming analysis {:.0} events/s below floor {EPS_FLOOR:.0}",
                s.streaming_events_per_sec
            );
            ok = false;
        }
        if s.streaming_speedup < MIN_SPEEDUP {
            errln!(
                "FAIL: streaming speedup {:.2}x below required {MIN_SPEEDUP:.2}x",
                s.streaming_speedup
            );
            ok = false;
        }
    }
    Ok(super::verdict("trace", ok))
}
