//! First analysis pass: scan every location's event stream once and
//! extract the typed operation records the property declarations range
//! over.

use crate::callpath::{PathId, PathTable};
use ats_runtime::{VDur, VTime};
use ats_trace::{CollOp, Event, EventKind, LocationId, RegionId, RegionMeta, Trace};
use std::collections::HashMap;

/// A completed send call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendRec {
    /// Sending location.
    pub loc: LocationId,
    /// Call path of the send call.
    pub path: PathId,
    /// Entry into the send call.
    pub enter: VTime,
    /// Exit from the send call (equals `post + overhead` for eager sends,
    /// later for blocked synchronous sends).
    pub exit: VTime,
    /// When the message was posted.
    pub post: VTime,
    /// Destination (global rank).
    pub to: u32,
    /// Communicator id.
    pub comm: u32,
    /// Tag.
    pub tag: i32,
    /// Payload bytes.
    pub bytes: u64,
}

/// A completed receive (blocking recv or irecv+wait).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvRec {
    /// Receiving location.
    pub loc: LocationId,
    /// Call path of the call in which delivery completed (`MPI_Recv` or
    /// `MPI_Wait`).
    pub path: PathId,
    /// Entry into that call.
    pub enter: VTime,
    /// Exit from that call.
    pub exit: VTime,
    /// When the receive was posted.
    pub posted: VTime,
    /// Delivery completion time.
    pub completion: VTime,
    /// Source (global rank).
    pub from: u32,
    /// Communicator id.
    pub comm: u32,
    /// Tag.
    pub tag: i32,
    /// Payload bytes.
    pub bytes: u64,
}

/// One member's record of a collective instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollMember {
    /// Member location.
    pub loc: LocationId,
    /// Call path of the collective call.
    pub path: PathId,
    /// Entry time.
    pub entered: VTime,
    /// Completion time.
    pub exit: VTime,
    /// Payload bytes contributed.
    pub bytes: u64,
}

/// A reassembled collective operation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CollInstance {
    /// Operation.
    pub op: CollOp,
    /// Communicator / team id.
    pub comm: u32,
    /// Root, communicator-local, for rooted operations.
    pub root: Option<u32>,
    /// Per-communicator sequence number.
    pub seq: u64,
    /// Member records, sorted by location.
    pub members: Vec<CollMember>,
}

impl CollInstance {
    /// The member record belonging to the root, resolved through the
    /// trace's communicator definitions.
    pub fn root_member<'a>(&'a self, trace: &Trace) -> Option<&'a CollMember> {
        let root_local = self.root? as usize;
        let members = trace.comm_members(self.comm)?;
        let root_global = *members.get(root_local)?;
        self.members
            .iter()
            .find(|m| m.loc.rank == root_global && m.loc.thread == 0)
    }
}

/// One visit to a named critical section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalVisit {
    /// Visiting location.
    pub loc: LocationId,
    /// Call path of the critical construct.
    pub path: PathId,
    /// Arrival at the construct.
    pub arrive: VTime,
    /// Acquisition (body entry).
    pub acquired: VTime,
    /// Release.
    pub released: VTime,
}

/// Time spent in MPI_Init/MPI_Finalize at one location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupRec {
    /// Location.
    pub loc: LocationId,
    /// Path of the setup call.
    pub path: PathId,
    /// Entry into the call.
    pub entered: VTime,
    /// Inclusive duration.
    pub time: VDur,
}

/// Every record the property declarations range over, extracted in one
/// pass.
#[derive(Debug, Default)]
pub struct Extract {
    /// All send calls.
    pub sends: Vec<SendRec>,
    /// All completed receives.
    pub recvs: Vec<RecvRec>,
    /// All collective instances (MPI and OpenMP pseudo-collectives).
    pub colls: Vec<CollInstance>,
    /// All critical-section visits.
    pub criticals: Vec<CriticalVisit>,
    /// All init/finalize occupations.
    pub setup: Vec<SetupRec>,
    /// The interned call paths.
    pub paths: PathTable,
}

/// Incremental extraction: feed one location's event stream at a time and
/// collect the [`Extract`] at the end. Both analysis paths are built on
/// this — [`extract`] drives it from a materialized [`Trace`], the
/// streaming ingest drives it straight from decoded column blocks — so
/// the two produce identical records (and, because locations arrive in
/// the same sorted order, identical [`PathId`] interning).
pub struct StreamExtractor {
    ex: Extract,
    coll_groups: HashMap<(u32, u64, CollOp), CollInstance>,
    r_init: Option<RegionId>,
    r_fin: Option<RegionId>,
    /// (construct region, body region) pairs sharing the visit shape:
    /// critical sections and explicit locks.
    crit_pairs: [(Option<RegionId>, Option<RegionId>); 2],
    /// Capacity hint for collective member vectors (= location count).
    n_locs: usize,
    // Per-location scratch, reused across `scan_events` calls.
    stack: Vec<(RegionId, VTime)>,
    // Mirrors `stack`'s regions contiguously so call paths intern straight
    // from a slice — no per-event Vec allocation on this hot path.
    path_stack: Vec<RegionId>,
    // Sends posted in a still-open frame, waiting for the frame's exit
    // time: (depth of owning frame, partially-filled record).
    open_sends: Vec<(usize, SendRec)>,
    // Receives completed in a still-open frame.
    open_recvs: Vec<(usize, RecvRec)>,
    // Critical visits awaiting body entry/exit.
    open_criticals: Vec<(usize, CriticalVisit)>,
}

impl StreamExtractor {
    /// Start an extraction over a trace whose region table is `regions`
    /// and which holds (about) `n_locations` locations.
    pub fn new(regions: &[RegionMeta], n_locations: usize) -> Self {
        let find = |name: &str| {
            regions
                .iter()
                .position(|m| m.name == name)
                .map(|i| RegionId(i as u32))
        };
        StreamExtractor {
            ex: Extract::default(),
            coll_groups: HashMap::new(),
            r_init: find("MPI_Init"),
            r_fin: find("MPI_Finalize"),
            crit_pairs: [
                (find("omp_critical"), find("omp_critical_body")),
                (find("omp_lock"), find("omp_lock_body")),
            ],
            n_locs: n_locations.max(1),
            stack: Vec::new(),
            path_stack: Vec::new(),
            open_sends: Vec::new(),
            open_recvs: Vec::new(),
            open_criticals: Vec::new(),
        }
    }

    /// Pre-size the record containers from known event-kind counts, so the
    /// hot scan never reallocates.
    pub fn reserve(&mut self, n_sends: usize, n_recvs: usize, n_collends: usize) {
        self.ex.sends.reserve(n_sends);
        self.ex.recvs.reserve(n_recvs);
        self.coll_groups.reserve(n_collends / self.n_locs + 1);
    }

    /// Scan one location's events (in stream order). Locations must be fed
    /// in ascending `LocationId` order for record and path-interning order
    /// to match [`extract`] over the equivalent materialized trace.
    pub fn scan_events(&mut self, loc: LocationId, events: impl IntoIterator<Item = Event>) {
        let is_crit = |pairs: &[(Option<RegionId>, Option<RegionId>); 2], r: RegionId| {
            pairs.iter().any(|(c, _)| *c == Some(r))
        };
        let is_crit_body = |pairs: &[(Option<RegionId>, Option<RegionId>); 2], r: RegionId| {
            pairs.iter().any(|(_, b)| *b == Some(r))
        };
        self.stack.clear();
        self.path_stack.clear();
        self.open_sends.clear();
        self.open_recvs.clear();
        self.open_criticals.clear();

        for ev in events {
            match ev.kind {
                EventKind::Enter { region } => {
                    self.stack.push((region, ev.time));
                    self.path_stack.push(region);
                    if is_crit_body(&self.crit_pairs, region) {
                        if let Some((_, visit)) = self.open_criticals.last_mut() {
                            visit.acquired = ev.time;
                        }
                    }
                    if is_crit(&self.crit_pairs, region) {
                        let path = self.ex.paths.intern(&self.path_stack);
                        self.open_criticals.push((
                            self.stack.len(),
                            CriticalVisit {
                                loc,
                                path,
                                arrive: ev.time,
                                acquired: ev.time,
                                released: ev.time,
                            },
                        ));
                    }
                }
                EventKind::Exit { region } => {
                    let depth = self.stack.len();
                    // Intern before popping: the current path (ending at
                    // `region`) is exactly the setup-record path below.
                    let exit_path = (self.r_init == Some(region) || self.r_fin == Some(region))
                        .then(|| self.ex.paths.intern(&self.path_stack));
                    let (top, entered) = self.stack.pop().expect("wellformed trace");
                    self.path_stack.pop();
                    debug_assert_eq!(top, region);
                    // Flush operations owned by this frame.
                    while self.open_sends.last().is_some_and(|(d, _)| *d == depth) {
                        let (_, mut s) = self.open_sends.pop().expect("just checked");
                        s.enter = entered;
                        s.exit = ev.time;
                        self.ex.sends.push(s);
                    }
                    while self.open_recvs.last().is_some_and(|(d, _)| *d == depth) {
                        let (_, mut r) = self.open_recvs.pop().expect("just checked");
                        r.enter = entered;
                        r.exit = ev.time;
                        self.ex.recvs.push(r);
                    }
                    if is_crit(&self.crit_pairs, region) {
                        if let Some((d, mut visit)) = self.open_criticals.pop() {
                            debug_assert_eq!(d, depth);
                            visit.released = ev.time;
                            self.ex.criticals.push(visit);
                        }
                    }
                    if let Some(path) = exit_path {
                        self.ex.setup.push(SetupRec {
                            loc,
                            path,
                            entered,
                            time: ev.time - entered,
                        });
                    }
                }
                EventKind::Send {
                    to,
                    comm,
                    tag,
                    bytes,
                } => {
                    let path = self.ex.paths.intern(&self.path_stack);
                    self.open_sends.push((
                        self.stack.len(),
                        SendRec {
                            loc,
                            path,
                            enter: ev.time,
                            exit: ev.time,
                            post: ev.time,
                            to,
                            comm,
                            tag,
                            bytes,
                        },
                    ));
                }
                EventKind::Recv {
                    from,
                    comm,
                    tag,
                    bytes,
                    posted,
                } => {
                    let path = self.ex.paths.intern(&self.path_stack);
                    self.open_recvs.push((
                        self.stack.len(),
                        RecvRec {
                            loc,
                            path,
                            enter: ev.time,
                            exit: ev.time,
                            posted,
                            completion: ev.time,
                            from,
                            comm,
                            tag,
                            bytes,
                        },
                    ));
                }
                EventKind::CollEnd {
                    op,
                    comm,
                    root,
                    seq,
                    bytes,
                    entered,
                } => {
                    let path = self.ex.paths.intern(&self.path_stack);
                    let n_locs = self.n_locs;
                    let inst =
                        self.coll_groups
                            .entry((comm, seq, op))
                            .or_insert_with(|| CollInstance {
                                op,
                                comm,
                                root,
                                seq,
                                members: Vec::with_capacity(n_locs),
                            });
                    inst.members.push(CollMember {
                        loc,
                        path,
                        entered,
                        exit: ev.time,
                        bytes,
                    });
                }
            }
        }
    }

    /// Finalize: canonically sort the records and hand over the
    /// [`Extract`]. Sort keys are independent of the per-location feed
    /// order, so equal record sets yield equal extracts.
    pub fn finish(self) -> Extract {
        let mut ex = self.ex;
        // Unstable sorts: cheaper than the stable ones (no temp
        // allocation), and safe because every key is a total order —
        // (comm, seq) and member locations are unique by construction, and
        // the p2p keys carry enough trailing fields that ties only occur
        // between fully identical records.
        let mut colls: Vec<CollInstance> = self.coll_groups.into_values().collect();
        for c in &mut colls {
            c.members.sort_unstable_by_key(|m| m.loc);
        }
        colls.sort_unstable_by_key(|c| (c.comm, c.seq));
        ex.colls = colls;
        ex.sends.sort_unstable_by_key(|s| {
            (s.comm, s.loc, s.to, s.tag, s.post, s.exit, s.bytes, s.path)
        });
        ex.recvs.sort_unstable_by_key(|r| {
            (
                r.comm,
                r.from,
                r.loc,
                r.tag,
                r.posted,
                r.completion,
                r.bytes,
                r.path,
            )
        });
        ex
    }
}

/// Scan the trace and build the [`Extract`].
pub fn extract(trace: &Trace) -> Extract {
    let mut sx = StreamExtractor::new(&trace.regions, trace.num_locations());
    // Pre-size the record vectors from a cheap tag-counting pass so the
    // hot loop never reallocates.
    let (mut n_sends, mut n_recvs, mut n_collends) = (0usize, 0usize, 0usize);
    for lt in &trace.locations {
        for ev in &lt.events {
            match ev.kind {
                EventKind::Send { .. } => n_sends += 1,
                EventKind::Recv { .. } => n_recvs += 1,
                EventKind::CollEnd { .. } => n_collends += 1,
                _ => {}
            }
        }
    }
    sx.reserve(n_sends, n_recvs, n_collends);
    for lt in &trace.locations {
        sx.scan_events(lt.location, lt.events.iter().copied());
    }
    sx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use ats_core::{properties::mpi_coll, properties::mpi_p2p, BaseComm, Distr};
    use ats_mpi::SimConfig;
    use ats_runtime::{MachineModel, VDur};

    fn cfg_with_setup(n: usize) -> SimConfig {
        SimConfig {
            init_time: VDur::from_millis(2),
            finalize_time: VDur::from_millis(1),
            ..cfg(n)
        }
    }

    #[test]
    fn extracts_sends_and_recvs_with_frames() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.0, 0.030, 1, &c);
        });
        let ex = extract(&trace);
        assert_eq!(ex.sends.len(), 1);
        assert_eq!(ex.recvs.len(), 1);
        let s = &ex.sends[0];
        let r = &ex.recvs[0];
        assert_eq!(s.loc.rank, 0);
        assert_eq!(r.loc.rank, 1);
        assert_eq!(s.to, 1);
        assert_eq!(r.from, 0);
        // The recv blocked from 0 to 30ms.
        assert_eq!(r.posted, VTime::ZERO);
        assert_eq!(r.completion, VTime::from_secs(0.030));
        // Paths end at the MPI call inside the property frame.
        assert_eq!(ex.paths.leaf_name(s.path, &trace), "MPI_Send");
        assert!(ex.paths.contains_region(r.path, &trace, "late_sender"));
    }

    #[test]
    fn extracts_collective_instances_grouped() {
        let df = Distr::linear(0.001, 0.004);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 3, &c);
        });
        let ex = extract(&trace);
        let barriers: Vec<_> = ex
            .colls
            .iter()
            .filter(|c| c.op == ats_trace::CollOp::Barrier)
            .collect();
        assert_eq!(barriers.len(), 3, "3 repetitions = 3 instances");
        for b in barriers {
            assert_eq!(b.members.len(), 4);
        }
    }

    #[test]
    fn root_member_resolution_uses_comm_defs() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_coll::late_broadcast(p, &BaseComm::default(), 0.001, 0.010, 2, 1, &c);
        });
        let ex = extract(&trace);
        let bcast = ex
            .colls
            .iter()
            .find(|c| c.op == ats_trace::CollOp::Bcast)
            .unwrap();
        let root = bcast.root_member(&trace).expect("root resolvable");
        assert_eq!(root.loc.rank, 2);
    }

    #[test]
    fn setup_times_extracted_per_location() {
        let trace = ats_mpi::run(cfg_with_setup(2), |p| {
            p.do_work(VDur::from_millis(1));
        });
        let ex = extract(&trace);
        // 2 ranks x (init + finalize).
        assert_eq!(ex.setup.len(), 4);
        let total: VDur = ex.setup.iter().map(|s| s.time).sum();
        assert_eq!(total, VDur::from_millis(2 * (2 + 1)));
    }

    #[test]
    fn critical_visits_extracted() {
        use ats_omp::{parallel, run_omp, OmpConfig};
        let trace = run_omp(
            OmpConfig {
                model: MachineModel::zero(),
                ..Default::default()
            },
            |m| {
                parallel(m, 3, |th| {
                    th.critical("c", |th| th.do_work(VDur::from_millis(5)));
                });
            },
        );
        let ex = extract(&trace);
        assert_eq!(ex.criticals.len(), 3);
        let total_wait: VDur = ex.criticals.iter().map(|v| v.acquired - v.arrive).sum();
        // Waits 0 + 5 + 10 = 15ms.
        assert_eq!(total_wait, VDur::from_millis(15));
        for v in &ex.criticals {
            assert!(v.released >= v.acquired);
        }
    }
}
