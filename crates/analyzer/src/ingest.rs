//! Trace ingestion: on-disk trace → [`AnalysisReport`].
//!
//! Two paths lead from bytes to a report:
//!
//! * **Materializing** ([`analyze_path`]): decode the whole trace into a
//!   [`Trace`] first, then [`analyze`](crate::analyze) it. Peak memory
//!   is the full event-vector set — fine for experiment-sized traces, and
//!   the caller keeps the `Trace` for rendering.
//! * **Streaming** ([`analyze_path_streaming`] / [`analyze_stream`]): feed
//!   per-location ATSB column blocks straight into the extractor as they
//!   decode, so peak memory is one location's events plus the extracted
//!   operation records. Given the same trace bytes, the two paths produce
//!   byte-identical reports — the materializing path doubles as the
//!   streaming path's differential oracle.
//!
//! Both reject an Exit that closes a region other than the innermost open
//! one, and both time the decode apart from extraction.

use crate::analyzer::{detect_and_report, extract_pass, timed};
use crate::extract::StreamExtractor;
use crate::{AnalysisReport, AnalyzerConfig};
use ats_runtime::VDur;
use ats_trace::binfmt::{read_binary, BlockReader};
use ats_trace::io::TraceIoError;
use ats_trace::{LocationId, Trace};
use std::io::{BufRead, Read};
use std::path::Path;
use std::time::{Duration, Instant};

/// Pass-through reader counting the bytes actually consumed, so ingestion
/// metrics reflect what was read — not what a pre-read `stat` promised.
struct CountRead<R> {
    inner: R,
    read: u64,
}

impl<R: Read> Read for CountRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

/// Read the ATSB trace at `path` and analyze it, returning both the trace
/// and the report (rendering a report needs the trace). An Exit that
/// closes a region other than the innermost open one is a
/// [`TraceIoError::Format`] naming the location and event.
pub fn analyze_path(
    path: impl AsRef<Path>,
    config: &AnalyzerConfig,
) -> Result<(Trace, AnalysisReport), TraceIoError> {
    let file = std::fs::File::open(path.as_ref())?;
    let mut counted = CountRead {
        inner: file,
        read: 0,
    };
    let decode_time = config.obs.as_ref().map(|o| &o.trace.decode_time);
    let trace = timed(decode_time, "trace.decode", || {
        read_binary(std::io::BufReader::new(&mut counted))
    })?;
    if let Some(obs) = &config.obs {
        obs.analyzer.bytes_ingested.add(counted.read);
    }
    let sx = extract_pass(&trace, config);
    wellformed(&sx)?;
    let report = detect_and_report(sx.finish(), &trace, trace.total_alloc_time(), config);
    Ok((trace, report))
}

/// The first malformed Exit the extractor skipped, as a format error.
fn wellformed(sx: &StreamExtractor) -> Result<(), TraceIoError> {
    match sx.malformed() {
        Some(e) => Err(TraceIoError::Format(e.to_string())),
        None => Ok(()),
    }
}

/// Run `f`, adding its duration to `total` when there is one.
fn clocked<T>(total: &mut Option<Duration>, f: impl FnOnce() -> T) -> T {
    let Some(total) = total else { return f() };
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// Counters from one streaming analysis pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Events scanned.
    pub events: u64,
    /// Location streams scanned.
    pub locations: u64,
    /// Bytes consumed from the source.
    pub bytes: u64,
}

/// Reject out-of-order or duplicate location streams.
fn check_sorted(last: &mut Option<LocationId>, loc: LocationId) -> Result<(), TraceIoError> {
    if let Some(prev) = *last {
        if loc <= prev {
            return Err(TraceIoError::Format(format!(
                "streaming analysis requires location streams sorted by (rank, thread) \
                 with no duplicates; location {loc} follows {prev}"
            )));
        }
    }
    *last = Some(loc);
    Ok(())
}

/// Analyze an ATSB trace from `r` without materializing it: location
/// blocks decode one at a time into a reused buffer and feed the
/// extractor directly. The report is byte-identical to
/// `analyze(&read_binary(r)?, config)` over the same bytes.
///
/// Requires location streams sorted by `(rank, thread)` with no
/// duplicates — the invariant every writer in this workspace maintains —
/// and fails with [`TraceIoError::Format`] otherwise (an unsorted file
/// would silently change call-path interning order).
pub fn analyze_stream<R: BufRead>(
    r: R,
    config: &AnalyzerConfig,
) -> Result<(AnalysisReport, StreamStats), TraceIoError> {
    let obs = config.obs.as_ref();
    if let Some(obs) = obs {
        obs.analyzer.analyses.inc();
    }
    // Decode and extraction interleave block by block: with metrics on,
    // each adds up its own time, recorded once per analysis below.
    let zero = obs.map(|_| Duration::ZERO);
    let (mut decode, mut extract) = (zero, zero);
    let mut br = clocked(&mut decode, || BlockReader::new(r))?;
    // The location count is an untrusted hint here — it only sizes
    // collective member vectors, so clamp it.
    let hint = br.n_locations().min(1 << 16) as usize;
    let mut sx = StreamExtractor::new(br.regions(), hint);
    let mut stats = StreamStats::default();
    let mut total_alloc = VDur::ZERO;
    let mut last: Option<LocationId> = None;
    while let Some(block) = clocked(&mut decode, || br.next_block())? {
        let loc = block.location();
        check_sorted(&mut last, loc)?;
        stats.events += block.len() as u64;
        stats.locations += 1;
        if let (Some(s), Some(e)) = (block.start_time(), block.end_time()) {
            total_alloc += e - s;
        }
        clocked(&mut extract, || sx.scan_events(loc, block.events()));
        wellformed(&sx)?;
    }
    let (regions, comms) = br.take_tables();
    stats.bytes = clocked(&mut decode, || br.finish())?;
    if let Some(obs) = obs {
        obs.trace.decode_time.observe(decode.unwrap_or_default());
        obs.analyzer
            .extract_time
            .observe(extract.unwrap_or_default());
        obs.analyzer.events_ingested.add(stats.events);
    }
    // A locationless shell trace supplies the tables detection needs
    // (call-path names, communicator membership) — `total_alloc` was
    // accumulated per block above, exactly as `Trace::total_alloc_time`
    // would have summed it.
    let shell = Trace::with_comms(regions, comms, vec![]);
    let report = detect_and_report(sx.finish(), &shell, total_alloc, config);
    Ok((report, stats))
}

/// [`analyze_stream`] for a file path.
pub fn analyze_path_streaming(
    path: impl AsRef<Path>,
    config: &AnalyzerConfig,
) -> Result<(AnalysisReport, StreamStats), TraceIoError> {
    let file = std::fs::File::open(path.as_ref())?;
    let (report, stats) = analyze_stream(std::io::BufReader::new(file), config)?;
    if let Some(obs) = &config.obs {
        obs.analyzer.bytes_ingested.add(stats.bytes);
    }
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use ats_core::{properties::mpi_coll, properties::mpi_p2p, BaseComm, Distr};
    use ats_mpi::SimConfig;
    use ats_runtime::VTime;
    use ats_trace::binfmt::{write_binary, BlockWriter};
    use ats_trace::{Event, EventKind, LocationTrace, RegionId, RegionKind, RegionMeta};

    fn late_sender_trace() -> Trace {
        ats_mpi::run(SimConfig::with_procs(2), |p| {
            let world = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.002, 0.02, 2, &world);
        })
    }

    fn composite_trace() -> Trace {
        ats_mpi::run(SimConfig::with_procs(4), |p| {
            let world = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.002, 0.02, 2, &world);
            mpi_coll::imbalance_at_mpi_barrier(p, &Distr::linear(0.001, 0.01), 2, &world);
            mpi_coll::late_broadcast(p, &BaseComm::default(), 0.002, 0.02, 1, 2, &world);
        })
    }

    #[test]
    fn analyze_path_matches_in_memory_analysis() {
        let trace = late_sender_trace();
        let direct = analyze(&trace, &AnalyzerConfig::default());
        let dir = ats_testutil::TempDir::new("ats-ingest-path");
        let path = dir.path().join("bin.atsb");
        write_binary(&trace, std::fs::File::create(&path).unwrap()).unwrap();
        let (loaded, report) = analyze_path(&path, &AnalyzerConfig::default()).unwrap();
        assert_eq!(loaded.locations, trace.locations);
        assert_eq!(
            report.to_json(),
            direct.to_json(),
            "findings diverge from in-memory analysis"
        );
    }

    #[test]
    fn streaming_report_matches_materializing() {
        let trace = composite_trace();
        let direct = analyze(&trace, &AnalyzerConfig::default());
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        let (streamed, stats) = analyze_stream(buf.as_slice(), &AnalyzerConfig::default()).unwrap();
        assert_eq!(streamed.to_json(), direct.to_json());
        assert_eq!(
            streamed.cube.total_alloc(),
            trace.total_alloc_time(),
            "total allocation time diverges"
        );
        assert_eq!(stats.events, trace.num_events() as u64);
        assert_eq!(stats.locations, trace.num_locations() as u64);
        assert_eq!(stats.bytes, buf.len() as u64);
    }

    #[test]
    fn streaming_path_analysis_from_disk() {
        let trace = composite_trace();
        let direct = analyze(&trace, &AnalyzerConfig::default());
        let dir = ats_testutil::TempDir::new("ats-ingest-stream");
        let path = dir.path().join("composite.atsb");
        write_binary(&trace, std::fs::File::create(&path).unwrap()).unwrap();
        let (report, stats) = analyze_path_streaming(&path, &AnalyzerConfig::default()).unwrap();
        assert_eq!(report.to_json(), direct.to_json());
        assert_eq!(
            stats.bytes,
            std::fs::metadata(&path).unwrap().len(),
            "streaming consumed the whole file"
        );
    }

    #[test]
    fn streaming_rejects_unsorted_locations() {
        // Hand-build a binary trace with location blocks out of order;
        // the streaming path must refuse rather than silently intern
        // call paths in a different order.
        let trace = late_sender_trace();
        assert!(trace.locations.len() >= 2);
        let mut buf = Vec::new();
        let mut w = ats_trace::binfmt::BlockWriter::new(
            &mut buf,
            &trace.regions,
            &trace.comms,
            trace.locations.len() as u64,
        )
        .unwrap();
        for lt in trace.locations.iter().rev() {
            w.write_location(lt).unwrap();
        }
        w.finish().unwrap();
        let err = analyze_stream(buf.as_slice(), &AnalyzerConfig::default()).unwrap_err();
        assert!(
            err.to_string().contains("sorted"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err =
            analyze_path("/nonexistent/ats-trace.atsb", &AnalyzerConfig::default()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn a_malformed_exit_is_a_format_error_on_both_paths() {
        let (main, work) = (RegionId(0), RegionId(1));
        let enter = |t, region| Event::new(VTime(t), EventKind::Enter { region });
        let exit = |t, region| Event::new(VTime(t), EventKind::Exit { region });
        let regions = ["main", "work"].map(|name| RegionMeta {
            name: name.into(),
            kind: RegionKind::User,
        });
        let dir = ats_testutil::TempDir::new("ats-ingest-malformed");
        let path = dir.path().join("malformed.atsb");
        for (rank_1, error) in [
            (
                vec![exit(1, work)],
                "location 1: event 0 exits an unopened region",
            ),
            (
                vec![enter(1, main), enter(2, work), exit(3, main), exit(4, work)],
                "location 1: event 2 exits an unopened region",
            ),
        ] {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = BlockWriter::new(file, &regions, &[], 2).unwrap();
            for (rank, events) in [vec![enter(1, main), exit(2, main)], rank_1]
                .into_iter()
                .enumerate()
            {
                let location = LocationId::rank(rank as u32);
                w.write_location(&LocationTrace { location, events })
                    .unwrap();
            }
            w.finish().unwrap();
            let config = AnalyzerConfig::default();
            for err in [
                analyze_path(&path, &config).map(|_| ()).unwrap_err(),
                analyze_path_streaming(&path, &config)
                    .map(|_| ())
                    .unwrap_err(),
            ] {
                assert!(matches!(err, TraceIoError::Format(_)), "{err}");
                assert_eq!(err.to_string(), format!("trace format error: {error}"));
            }
        }
    }
}
