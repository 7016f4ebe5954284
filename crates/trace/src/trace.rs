//! The merged global trace.

use crate::event::{Event, EventKind, LocationId};
use crate::region::{RegionId, RegionKind, RegionMeta};
use ats_runtime::{VDur, VTime};

/// Definition record for one communicator / synchronization context: its
/// id and member locations (global ranks in communicator-rank order).
/// Real tracing systems (EPILOG, OTF) write exactly this metadata so
/// analyzers can translate communicator-local ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommDef {
    /// Run-unique communicator id (matches event `comm` fields).
    pub id: u32,
    /// Global ranks, indexed by communicator-local rank.
    pub members: Vec<u32>,
}

/// The completed event stream of one location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationTrace {
    /// Which location this stream belongs to.
    pub location: LocationId,
    /// Events in recording order (time-monotone per location).
    pub events: Vec<Event>,
}

impl LocationTrace {
    /// The last event timestamp, or zero for an empty stream.
    pub fn end_time(&self) -> VTime {
        self.events.last().map(|e| e.time).unwrap_or(VTime::ZERO)
    }

    /// The first event timestamp, or zero for an empty stream.
    pub fn start_time(&self) -> VTime {
        self.events.first().map(|e| e.time).unwrap_or(VTime::ZERO)
    }
}

/// A complete merged trace: the region table plus one event stream per
/// location, ordered by location.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Interned region metadata; `RegionId(i)` indexes this vector.
    pub regions: Vec<RegionMeta>,
    /// Communicator definitions, sorted by id.
    pub comms: Vec<CommDef>,
    /// Per-location streams, sorted by `LocationId`.
    pub locations: Vec<LocationTrace>,
}

impl Trace {
    /// Assemble a trace from per-location streams (sorts by location and
    /// merges streams that share a location, e.g. OpenMP thread ids reused
    /// across successive parallel regions).
    pub fn new(regions: Vec<RegionMeta>, locations: Vec<LocationTrace>) -> Self {
        Self::with_comms(regions, Vec::new(), locations)
    }

    /// [`Trace::new`] with communicator definitions.
    pub fn with_comms(
        regions: Vec<RegionMeta>,
        mut comms: Vec<CommDef>,
        mut locations: Vec<LocationTrace>,
    ) -> Self {
        comms.sort_by_key(|c| c.id);
        comms.dedup_by_key(|c| c.id);
        locations.sort_by_key(|l| (l.location, l.events.first().map(|e| e.time)));
        let mut merged: Vec<LocationTrace> = Vec::with_capacity(locations.len());
        for lt in locations {
            match merged.last_mut() {
                Some(prev) if prev.location == lt.location => {
                    prev.events.extend(lt.events);
                }
                _ => merged.push(lt),
            }
        }
        Trace {
            regions,
            comms,
            locations: merged,
        }
    }

    /// Members of communicator `id`, if its definition was recorded.
    pub fn comm_members(&self, id: u32) -> Option<&[u32]> {
        self.comms
            .binary_search_by_key(&id, |c| c.id)
            .ok()
            .map(|i| self.comms[i].members.as_slice())
    }

    /// The name of a region id.
    pub fn region_name(&self, id: RegionId) -> &str {
        self.regions
            .get(id.0 as usize)
            .map(|m| m.name.as_str())
            .unwrap_or("<unknown>")
    }

    /// The kind of a region id.
    pub fn region_kind(&self, id: RegionId) -> Option<RegionKind> {
        self.regions.get(id.0 as usize).map(|m| m.kind)
    }

    /// Find a region id by name.
    pub fn find_region(&self, name: &str) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|m| m.name == name)
            .map(|i| RegionId(i as u32))
    }

    /// Number of locations.
    pub fn num_locations(&self) -> usize {
        self.locations.len()
    }

    /// Total number of events across locations.
    pub fn num_events(&self) -> usize {
        self.locations.iter().map(|l| l.events.len()).sum()
    }

    /// The stream for `location`, if present.
    pub fn location(&self, location: LocationId) -> Option<&LocationTrace> {
        self.locations
            .binary_search_by_key(&location, |l| l.location)
            .ok()
            .map(|i| &self.locations[i])
    }

    /// Latest event time across all locations (the run's makespan).
    pub fn end_time(&self) -> VTime {
        self.locations
            .iter()
            .map(|l| l.end_time())
            .max()
            .unwrap_or(VTime::ZERO)
    }

    /// Earliest event time across all locations.
    pub fn start_time(&self) -> VTime {
        self.locations
            .iter()
            .map(|l| l.start_time())
            .min()
            .unwrap_or(VTime::ZERO)
    }

    /// Total allocation time: Σ over locations of (end − start). This is the
    /// denominator of the EXPERT severity model.
    pub fn total_alloc_time(&self) -> VDur {
        self.locations
            .iter()
            .map(|l| l.end_time() - l.start_time())
            .sum()
    }

    /// Remap region ids so the region table is sorted by name. Two traces
    /// of the same program then compare equal even if their threads raced
    /// while interning region names.
    pub fn canonicalize(&mut self) {
        let mut order: Vec<usize> = (0..self.regions.len()).collect();
        order.sort_by(|&a, &b| self.regions[a].name.cmp(&self.regions[b].name));
        // old id -> new id
        let mut remap = vec![RegionId(0); self.regions.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = RegionId(new as u32);
        }
        self.regions = order.iter().map(|&o| self.regions[o].clone()).collect();
        for loc in &mut self.locations {
            for ev in &mut loc.events {
                match &mut ev.kind {
                    EventKind::Enter { region } | EventKind::Exit { region } => {
                        *region = remap[region.0 as usize];
                    }
                    _ => {}
                }
            }
        }
    }

    /// All distinct communicator ids appearing in message/collective events.
    pub fn communicators(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .locations
            .iter()
            .flat_map(|l| l.events.iter())
            .filter_map(|e| match e.kind {
                EventKind::Send { comm, .. }
                | EventKind::Recv { comm, .. }
                | EventKind::CollEnd { comm, .. } => Some(comm),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn t(ms: u64) -> VTime {
        VTime(ms * 1_000_000)
    }

    fn sample() -> Trace {
        let regions = vec![RegionMeta {
            name: "work".into(),
            kind: RegionKind::Work,
        }];
        let r = RegionId(0);
        let mk = |rank: u32, t0: u64, t1: u64| LocationTrace {
            location: LocationId::rank(rank),
            events: vec![
                Event::new(t(t0), EventKind::Enter { region: r }),
                Event::new(t(t1), EventKind::Exit { region: r }),
            ],
        };
        Trace::new(regions, vec![mk(1, 2, 10), mk(0, 0, 8)])
    }

    #[test]
    fn locations_sorted_on_construction() {
        let tr = sample();
        assert_eq!(tr.locations[0].location, LocationId::rank(0));
        assert_eq!(tr.locations[1].location, LocationId::rank(1));
    }

    #[test]
    fn time_bounds_and_alloc() {
        let tr = sample();
        assert_eq!(tr.start_time(), t(0));
        assert_eq!(tr.end_time(), t(10));
        assert_eq!(tr.total_alloc_time(), VDur::from_millis(16)); // 8 + 8
    }

    #[test]
    fn lookup_by_location() {
        let tr = sample();
        assert!(tr.location(LocationId::rank(1)).is_some());
        assert!(tr.location(LocationId::rank(7)).is_none());
    }

    #[test]
    fn region_lookup_by_name() {
        let tr = sample();
        assert_eq!(tr.find_region("work"), Some(RegionId(0)));
        assert_eq!(tr.find_region("nope"), None);
        assert_eq!(tr.region_name(RegionId(0)), "work");
        assert_eq!(tr.region_name(RegionId(9)), "<unknown>");
    }

    #[test]
    fn empty_trace_defaults() {
        let tr = Trace::new(vec![], vec![]);
        assert_eq!(tr.end_time(), VTime::ZERO);
        assert_eq!(tr.total_alloc_time(), VDur::ZERO);
        assert!(tr.communicators().is_empty());
        assert_eq!(tr.num_events(), 0);
    }
}
