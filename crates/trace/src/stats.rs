//! Flat time profiles over traces.
//!
//! These are the "classical" profile numbers (inclusive/exclusive time per
//! region, message counts/volumes) that every performance tool derives
//! before pattern analysis. The analyzer uses them as denominators; tests
//! use them to assert that synthetic programs contain exactly the work that
//! was programmed into them.

use crate::event::{EventKind, LocationId};
use crate::region::RegionId;
use crate::trace::Trace;
use ats_runtime::VDur;
use std::collections::HashMap;

/// Per-region aggregate numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionProfile {
    /// Number of completed visits.
    pub visits: u64,
    /// Time between enter and exit, including nested regions.
    pub inclusive: VDur,
    /// Inclusive time minus time spent in nested regions.
    pub exclusive: VDur,
}

/// Message-traffic aggregates for one location.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Messages posted.
    pub sends: u64,
    /// Messages delivered.
    pub recvs: u64,
    /// Bytes posted.
    pub bytes_sent: u64,
    /// Bytes delivered.
    pub bytes_received: u64,
    /// Collective completions observed.
    pub collectives: u64,
}

/// Complete flat statistics for a trace.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// `(location, region) -> profile`.
    pub profiles: HashMap<LocationId, HashMap<RegionId, RegionProfile>>,
    /// Per-location traffic.
    pub messages: HashMap<LocationId, MessageStats>,
}

impl TraceStats {
    /// Compute statistics by a single pass over each location's stream.
    pub fn compute(trace: &Trace) -> Self {
        let mut stats = TraceStats::default();
        for loc in &trace.locations {
            let TraceStats { profiles, messages } = &mut stats;
            let profile = profiles.entry(loc.location).or_default();
            let msg = messages.entry(loc.location).or_default();
            // (region, enter time, time spent in children)
            let mut stack: Vec<(RegionId, ats_runtime::VTime, VDur)> = Vec::new();
            for ev in &loc.events {
                match ev.kind {
                    EventKind::Enter { region } => stack.push((region, ev.time, VDur::ZERO)),
                    EventKind::Exit { region } => {
                        let (r, t0, child) = stack
                            .pop()
                            .expect("profile pass hit exit without matching enter");
                        debug_assert_eq!(r, region);
                        let incl = ev.time - t0;
                        let p = profile.entry(region).or_default();
                        p.visits += 1;
                        p.inclusive += incl;
                        p.exclusive += incl.saturating_sub(child);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += incl;
                        }
                    }
                    EventKind::Send { bytes, .. } => {
                        msg.sends += 1;
                        msg.bytes_sent += bytes;
                    }
                    EventKind::Recv { bytes, .. } => {
                        msg.recvs += 1;
                        msg.bytes_received += bytes;
                    }
                    EventKind::CollEnd { .. } => msg.collectives += 1,
                }
            }
        }
        stats
    }

    /// Aggregate a region's profile across all locations.
    pub fn region_total(&self, region: RegionId) -> RegionProfile {
        let mut total = RegionProfile::default();
        for per_loc in self.profiles.values() {
            if let Some(p) = per_loc.get(&region) {
                total.visits += p.visits;
                total.inclusive += p.inclusive;
                total.exclusive += p.exclusive;
            }
        }
        total
    }

    /// Total messages sent across all locations.
    pub fn total_sends(&self) -> u64 {
        self.messages.values().map(|m| m.sends).sum()
    }

    /// Total messages received across all locations.
    pub fn total_recvs(&self) -> u64 {
        self.messages.values().map(|m| m.recvs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::region::{RegionKind, RegionMeta};
    use crate::trace::LocationTrace;
    use ats_runtime::VTime;

    fn t(ms: u64) -> VTime {
        VTime(ms * 1_000_000)
    }

    fn nested_trace() -> Trace {
        // outer [0,10] containing inner [2,5]
        let regions = vec![
            RegionMeta {
                name: "outer".into(),
                kind: RegionKind::User,
            },
            RegionMeta {
                name: "inner".into(),
                kind: RegionKind::Work,
            },
        ];
        let (o, i) = (RegionId(0), RegionId(1));
        let events = vec![
            Event::new(t(0), EventKind::Enter { region: o }),
            Event::new(t(2), EventKind::Enter { region: i }),
            Event::new(t(5), EventKind::Exit { region: i }),
            Event::new(t(10), EventKind::Exit { region: o }),
        ];
        Trace::new(
            regions,
            vec![LocationTrace {
                location: LocationId::rank(0),
                events,
            }],
        )
    }

    #[test]
    fn inclusive_exclusive_split() {
        let stats = TraceStats::compute(&nested_trace());
        let loc = LocationId::rank(0);
        let outer = stats.profiles[&loc][&RegionId(0)];
        let inner = stats.profiles[&loc][&RegionId(1)];
        assert_eq!(outer.inclusive, VDur::from_millis(10));
        assert_eq!(outer.exclusive, VDur::from_millis(7));
        assert_eq!(inner.inclusive, VDur::from_millis(3));
        assert_eq!(inner.exclusive, VDur::from_millis(3));
        assert_eq!(outer.visits, 1);
    }

    #[test]
    fn message_stats_counted() {
        let regions = vec![];
        let events = vec![
            Event::new(
                t(0),
                EventKind::Send {
                    to: 1,
                    comm: 0,
                    tag: 0,
                    bytes: 100,
                },
            ),
            Event::new(
                t(1),
                EventKind::Recv {
                    from: 1,
                    comm: 0,
                    tag: 0,
                    bytes: 200,
                    posted: t(0),
                },
            ),
        ];
        let trace = Trace::new(
            regions,
            vec![LocationTrace {
                location: LocationId::rank(0),
                events,
            }],
        );
        let stats = TraceStats::compute(&trace);
        let m = stats.messages[&LocationId::rank(0)];
        assert_eq!(m.sends, 1);
        assert_eq!(m.recvs, 1);
        assert_eq!(m.bytes_sent, 100);
        assert_eq!(m.bytes_received, 200);
        assert_eq!(stats.total_sends(), 1);
        assert_eq!(stats.total_recvs(), 1);
    }

    #[test]
    fn region_total_aggregates_locations() {
        let regions = vec![RegionMeta {
            name: "w".into(),
            kind: RegionKind::Work,
        }];
        let mk = |rank, a, b| LocationTrace {
            location: LocationId::rank(rank),
            events: vec![
                Event::new(
                    t(a),
                    EventKind::Enter {
                        region: RegionId(0),
                    },
                ),
                Event::new(
                    t(b),
                    EventKind::Exit {
                        region: RegionId(0),
                    },
                ),
            ],
        };
        let trace = Trace::new(regions, vec![mk(0, 0, 3), mk(1, 0, 5)]);
        let stats = TraceStats::compute(&trace);
        let total = stats.region_total(RegionId(0));
        assert_eq!(total.visits, 2);
        assert_eq!(total.inclusive, VDur::from_millis(8));
    }
}
