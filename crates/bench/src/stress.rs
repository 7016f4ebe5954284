//! Closed-form stress-trace generator for the streaming analysis path.
//!
//! The figure programs exercise the analyzer at paper scale (tens of
//! ranks, thousands of events); measuring the *streaming* ingest path
//! needs traces far larger than any simulation run can produce in CI
//! time. This module fabricates an arbitrarily large composite trace
//! directly — every rank's event stream is a pure function of
//! `(config, rank)`, so blocks are generated one location at a time and
//! fed to [`BlockWriter`]: the emitted file can exceed available memory.
//!
//! The synthetic program per repetition: `inner` compute bursts
//! (`do_work` enter/exit pairs), a pairwise exchange in which even ranks
//! send late to their odd neighbor (a Late Sender per pair per rep), and
//! every eighth rep a staggered barrier (Wait at Barrier) followed by a
//! late-root broadcast (Late Broadcast). Streams are time-monotone,
//! properly nested, and emitted in ascending `(rank, thread)` order —
//! exactly what `ats_analyzer::analyze_stream` requires.

use ats_runtime::VTime;
use ats_trace::binfmt::BlockWriter;
use ats_trace::io::TraceIoError;
use ats_trace::{
    CollOp, CommDef, Event, EventKind, LocationId, LocationTrace, RegionId, RegionKind, RegionMeta,
};
use std::io::Write;
use std::num::NonZeroU64;

/// The largest trace size, in MB, that a command line may ask
/// [`StressConfig::sized_mb`] for: 1 TB.
pub const MAX_STRESS_MB: u64 = 1_000_000;

/// Shape of one generated stress trace.
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// Ranks (= locations; one thread per rank).
    pub ranks: u32,
    /// Repetitions of the compute/exchange/collective cycle.
    pub reps: u64,
    /// `do_work` enter/exit pairs per repetition.
    pub inner: u64,
}

// Virtual-time constants (ns). One repetition occupies a fixed slot so
// every timestamp is a closed-form function of (rank, rep). The planted
// waits are sized to clear the analyzer's default severity threshold
// (0.5% of allocation time) at the default 64-rank/128-burst shape.
const WORK: u64 = 1_000;
const P2P_SLOT: u64 = 30_000;
const SEND_LATENESS: u64 = 20_000;
const BARRIER_STAGGER: u64 = 2_000;
const ROOT_LATENESS: u64 = 50_000;
const START: u64 = 1_000;

impl StressConfig {
    /// A configuration sized to emit roughly `mb` megabytes of ATSB at
    /// `ranks` ranks. The estimate assumes ~4 bytes per event on disk
    /// (tag byte + small varint deltas); the actual file lands within a
    /// few tens of percent, which is all throughput measurement needs.
    /// A size whose byte count overflows `u64` saturates at `u64::MAX` bytes.
    pub fn sized_mb(ranks: u32, mb: u64) -> Self {
        let mut cfg = StressConfig {
            ranks,
            reps: 1,
            inner: 128,
        };
        let per_rep = cfg.events_total().saturating_sub(2 * ranks as u64);
        let target_events = mb.saturating_mul(1_000_000) / 4;
        cfg.reps = (target_events / per_rep.max(1)).max(1);
        cfg
    }

    /// The same shape with `inner` compute bursts per repetition and the
    /// repetitions rescaled by `self.inner / inner` (at least one), so the
    /// file keeps about its size.
    pub fn with_inner(self, inner: NonZeroU64) -> Self {
        StressConfig {
            reps: (self.reps * self.inner / inner.get()).max(1),
            inner: inner.get(),
            ..self
        }
    }

    /// Total events across all ranks.
    pub fn events_total(&self) -> u64 {
        (0..self.ranks).map(|r| self.rank_event_count(r)).sum()
    }

    fn coll_reps(&self) -> u64 {
        self.reps.div_ceil(8)
    }

    fn rank_event_count(&self, rank: u32) -> u64 {
        // main enter/exit + work pairs + p2p (3 events when paired) +
        // collective reps (3 events per barrier + 3 per bcast).
        let paired = self.ranks.is_multiple_of(2) || rank + 1 < self.ranks;
        2 + self.reps * (2 * self.inner + if paired { 3 } else { 0 }) + self.coll_reps() * 6
    }

    fn rep_slot(&self) -> u64 {
        2 * self.inner * WORK + P2P_SLOT + self.coll_slot()
    }

    fn coll_slot(&self) -> u64 {
        self.ranks as u64 * BARRIER_STAGGER + ROOT_LATENESS + 3_000
    }
}

/// The fixed region table of every stress trace.
pub fn stress_regions() -> Vec<RegionMeta> {
    let r = |name: &str, kind| RegionMeta {
        name: name.to_owned(),
        kind,
    };
    vec![
        r("main", RegionKind::User),
        r("do_work", RegionKind::Work),
        r("MPI_Send", RegionKind::MpiP2p),
        r("MPI_Recv", RegionKind::MpiP2p),
        r("MPI_Barrier", RegionKind::MpiCollective),
        r("MPI_Bcast", RegionKind::MpiCollective),
    ]
}

const R_MAIN: RegionId = RegionId(0);
const R_WORK: RegionId = RegionId(1);
const R_SEND: RegionId = RegionId(2);
const R_RECV: RegionId = RegionId(3);
const R_BARRIER: RegionId = RegionId(4);
const R_BCAST: RegionId = RegionId(5);

/// The single world communicator of a stress trace.
pub fn stress_comms(ranks: u32) -> Vec<CommDef> {
    vec![CommDef {
        id: 0,
        members: (0..ranks).collect(),
    }]
}

/// The full event stream of one rank — a pure function of the config.
pub fn stress_location(cfg: &StressConfig, rank: u32) -> LocationTrace {
    let n = cfg.ranks;
    let mut ev = Vec::with_capacity(cfg.rank_event_count(rank) as usize);
    let t = |ns: u64| VTime(ns);
    let push = |ev: &mut Vec<Event>, ns: u64, kind: EventKind| ev.push(Event::new(t(ns), kind));

    push(&mut ev, START, EventKind::Enter { region: R_MAIN });
    let body = START + 1_000;
    for k in 0..cfg.reps {
        let rep = body + k * cfg.rep_slot();
        for j in 0..cfg.inner {
            push(
                &mut ev,
                rep + 2 * j * WORK,
                EventKind::Enter { region: R_WORK },
            );
            push(
                &mut ev,
                rep + (2 * j + 1) * WORK,
                EventKind::Exit { region: R_WORK },
            );
        }
        let p2p = rep + 2 * cfg.inner * WORK;
        let tag = (k % 1_000) as i32;
        if rank.is_multiple_of(2) && rank + 1 < n {
            // Sender: posts late relative to the neighbor's receive.
            let post = p2p + 100 + SEND_LATENESS + (rank as u64 % 4) * 500;
            push(&mut ev, p2p + 100, EventKind::Enter { region: R_SEND });
            push(
                &mut ev,
                post,
                EventKind::Send {
                    to: rank + 1,
                    comm: 0,
                    tag,
                    bytes: 1024,
                },
            );
            push(&mut ev, post + 100, EventKind::Exit { region: R_SEND });
        } else if rank % 2 == 1 {
            // Receiver: posts early, completes after the late send.
            let posted = p2p + 50;
            let sender_post = p2p + 100 + SEND_LATENESS + ((rank - 1) as u64 % 4) * 500;
            let complete = sender_post + 300;
            push(&mut ev, posted, EventKind::Enter { region: R_RECV });
            push(
                &mut ev,
                complete,
                EventKind::Recv {
                    from: rank - 1,
                    comm: 0,
                    tag,
                    bytes: 1024,
                    posted: t(posted),
                },
            );
            push(&mut ev, complete + 100, EventKind::Exit { region: R_RECV });
        }
        if k % 8 == 0 {
            let q = p2p + P2P_SLOT;
            // Staggered barrier: later ranks arrive later, all leave together.
            let arrive = q + rank as u64 * BARRIER_STAGGER;
            let done = q + (n as u64 - 1) * BARRIER_STAGGER + 500;
            push(&mut ev, arrive, EventKind::Enter { region: R_BARRIER });
            push(
                &mut ev,
                done,
                EventKind::CollEnd {
                    op: CollOp::Barrier,
                    comm: 0,
                    root: None,
                    seq: 2 * (k / 8),
                    bytes: 0,
                    entered: t(arrive),
                },
            );
            push(&mut ev, done + 100, EventKind::Exit { region: R_BARRIER });
            // Late broadcast: non-roots arrive promptly, the root arrives late.
            let x = done + 300;
            let enter = if rank == 0 { x + ROOT_LATENESS } else { x };
            let end = x + ROOT_LATENESS + 1_000;
            push(&mut ev, enter, EventKind::Enter { region: R_BCAST });
            push(
                &mut ev,
                end,
                EventKind::CollEnd {
                    op: CollOp::Bcast,
                    comm: 0,
                    root: Some(0),
                    seq: 2 * (k / 8) + 1,
                    bytes: 4096,
                    entered: t(enter),
                },
            );
            push(&mut ev, end + 100, EventKind::Exit { region: R_BCAST });
        }
    }
    let end = body + cfg.reps * cfg.rep_slot() + 1_000;
    push(&mut ev, end, EventKind::Exit { region: R_MAIN });
    LocationTrace {
        location: LocationId { rank, thread: 0 },
        events: ev,
    }
}

/// Generate the stress trace block by block and write it as ATSB to `w`.
/// Peak memory is one rank's event vector, independent of the file size.
/// Returns the bytes written.
pub fn write_stress(cfg: &StressConfig, w: impl Write) -> Result<u64, TraceIoError> {
    let regions = stress_regions();
    let comms = stress_comms(cfg.ranks);
    let mut bw = BlockWriter::new(w, &regions, &comms, cfg.ranks as u64)?;
    for rank in 0..cfg.ranks {
        bw.write_location(&stress_location(cfg, rank))?;
    }
    bw.finish()
}

/// This process's peak resident set (`VmHWM`) in bytes, if the platform
/// exposes it. Monotone over the process lifetime: to attribute a peak
/// to a phase, sample after each phase in ascending-cost order.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_trace::Trace;

    fn small() -> StressConfig {
        StressConfig {
            ranks: 5,
            reps: 9,
            inner: 4,
        }
    }

    fn materialize(cfg: &StressConfig) -> Trace {
        Trace::with_comms(
            stress_regions(),
            stress_comms(cfg.ranks),
            (0..cfg.ranks).map(|r| stress_location(cfg, r)).collect(),
        )
    }

    #[test]
    fn stress_trace_is_wellformed_and_counts_match() {
        let cfg = small();
        let trace = materialize(&cfg);
        assert!(ats_trace::check_wellformed(&trace).is_empty());
        assert_eq!(trace.num_events() as u64, cfg.events_total());
    }

    #[test]
    fn stress_file_round_trips_through_the_block_codec() {
        let cfg = small();
        let mut buf = Vec::new();
        let bytes = write_stress(&cfg, &mut buf).unwrap();
        assert_eq!(bytes, buf.len() as u64);
        let decoded = ats_trace::binfmt::decode(&buf).unwrap();
        assert_eq!(decoded.locations, materialize(&cfg).locations);
    }

    #[test]
    fn stress_trace_carries_the_planted_properties() {
        use ats_analyzer::{analyze, AnalyzerConfig};
        let trace = materialize(&StressConfig {
            ranks: 8,
            reps: 16,
            inner: 2,
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        for property in ["LateSender", "WaitAtBarrier", "LateBroadcast"] {
            assert!(
                report.severity_of(property) > 0.0,
                "missing planted {property}"
            );
        }
    }

    /// The correctness half of `ats bench trace`'s stress section: the
    /// streaming pass over a stress file reports what the materializing
    /// pass reports, over the same number of events.
    #[test]
    fn streaming_the_stress_file_matches_the_materializing_report() {
        use ats_analyzer::{analyze, analyze_stream, AnalyzerConfig};
        let mut buf = Vec::new();
        let cfg = StressConfig {
            ranks: 8,
            reps: 16,
            inner: 2,
        };
        write_stress(&cfg, &mut buf).unwrap();
        let config = AnalyzerConfig::default();
        let (streamed, stats) = analyze_stream(buf.as_slice(), &config).unwrap();
        let trace = ats_trace::binfmt::decode(&buf).unwrap();
        assert_eq!(stats.events, trace.num_events() as u64);
        assert_eq!(stats.events, cfg.events_total());
        let materialized = analyze(&trace, &config);
        assert!(!materialized.findings.is_empty(), "planted properties");
        assert_eq!(streamed.to_json(), materialized.to_json());
    }

    #[test]
    fn a_size_past_the_byte_range_saturates() {
        // One megabyte past `u64::MAX` bytes used to wrap to a 0.4 MB trace.
        let largest = u64::MAX / 1_000_000;
        let saturated = StressConfig::sized_mb(64, u64::MAX).reps;
        assert_eq!(StressConfig::sized_mb(64, largest + 1).reps, saturated);
        assert!(saturated >= StressConfig::sized_mb(64, largest).reps);
        assert!(saturated > StressConfig::sized_mb(64, MAX_STRESS_MB).reps);
    }

    #[test]
    fn sized_config_lands_near_the_requested_size() {
        let cfg = StressConfig::sized_mb(16, 2);
        let mut buf = Vec::new();
        write_stress(&cfg, &mut buf).unwrap();
        let mb = buf.len() as f64 / 1e6;
        assert!(
            (1.0..4.0).contains(&mb),
            "asked for 2 MB, got {mb:.2} MB ({cfg:?})"
        );
    }
}
