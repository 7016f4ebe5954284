//! Pattern detectors: from operation records to located waiting times.
//!
//! Each detector reproduces a compound-event pattern from the EXPERT /
//! ASL catalog. The output unit is a [`Located`] waiting time: property ×
//! call path × location × duration, which the severity cube aggregates.

use crate::callpath::PathId;
use crate::extract::{CollInstance, Extract, RecvRec, SendRec};
use crate::property::PropertyKind;
use ats_runtime::{VDur, VTime};
use ats_trace::{CollOp, LocationId, Trace};
use std::collections::HashMap;

/// One located waiting-time contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Located {
    /// The diagnosed property.
    pub property: PropertyKind,
    /// Where in the call tree.
    pub path: PathId,
    /// Where in the machine.
    pub loc: LocationId,
    /// How much time was lost.
    pub wait: VDur,
}

/// A matched point-to-point message pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPair {
    /// Sender-side record.
    pub send: SendRec,
    /// Receiver-side record.
    pub recv: RecvRec,
}

/// Match sends to receives with MPI semantics: FIFO per
/// `(communicator, source, destination, tag)`. Unmatched operations (none
/// arise from the substrate, but a tool must tolerate truncated traces)
/// are dropped.
pub fn match_messages(ex: &Extract) -> Vec<MatchedPair> {
    // Sends per `(comm, sender, receiver, tag)`. Each queue carries its own
    // consumption cursor, so pairing costs one hash lookup per receive
    // instead of two.
    type Channel = (u32, u32, u32, i32);
    let mut send_q: HashMap<Channel, (Vec<&SendRec>, usize)> =
        HashMap::with_capacity(ex.sends.len().min(64));
    for s in &ex.sends {
        step();
        send_q
            .entry((s.comm, s.loc.rank, s.to, s.tag))
            .or_default()
            .0
            .push(s);
    }
    // `ex.sends` is sorted by post time within each key, so each queue is
    // FIFO already; pair receives in posted order.
    let mut pairs = Vec::with_capacity(ex.recvs.len());
    for r in &ex.recvs {
        step();
        let key = (r.comm, r.from, r.loc.rank, r.tag);
        if let Some((q, taken)) = send_q.get_mut(&key) {
            if let Some(s) = q.get(*taken) {
                pairs.push(MatchedPair {
                    send: **s,
                    recv: *r,
                });
                *taken += 1;
            }
        }
    }
    pairs
}

/// *Late Sender*: the receiver blocks from its receive post until the
/// matching send starts.
///
/// EXPERT definition: the part of the receive occupancy that elapses
/// before the send is even posted — `wait = clamp(send_post, recv_posted,
/// recv_completion) − recv_posted`. Located at the receive call on the
/// receiver. (Transport time after the send starts is communication, not
/// waiting.)
pub fn late_sender(pairs: &[MatchedPair]) -> Vec<Located> {
    pairs
        .iter()
        .filter_map(|p| {
            let blocked_until = p.send.post.max(p.recv.posted).min(p.recv.completion);
            let wait = blocked_until - p.recv.posted;
            (!wait.is_zero()).then_some(Located {
                property: PropertyKind::LateSender,
                path: p.recv.path,
                loc: p.recv.loc,
                wait,
            })
        })
        .collect()
}

/// *Late Receiver*: a (synchronous/rendezvous) sender blocks from its send
/// post until the matching receive is posted — `wait = clamp(recv_posted,
/// send_post, send_exit) − send_post`. Eager sends return immediately
/// (`exit ≈ post`), so they naturally contribute nothing. Located at the
/// send call on the sender.
pub fn late_receiver(pairs: &[MatchedPair]) -> Vec<Located> {
    pairs
        .iter()
        .filter_map(|p| {
            let blocked_until = p.recv.posted.max(p.send.post).min(p.send.exit);
            let wait = blocked_until - p.send.post;
            (!wait.is_zero()).then_some(Located {
                property: PropertyKind::LateReceiver,
                path: p.send.path,
                loc: p.send.loc,
                wait,
            })
        })
        .collect()
}

/// *Messages in Wrong Order*: for a blocked receive `P`, the portion of
/// its wait during which another message — one this receiver matches only
/// *later* — was already available. Computed as the overlap of `P`'s
/// blocked interval `[P.posted, P.completion)` with every pair `Q`'s
/// "available but unread" interval `[Q.send.post, Q.recv.posted)` on the
/// same receiver, summed over `Q` and capped at `P`'s blocked time. A `Q`
/// posted no later than `P` closes its interval before `P` blocks, so the
/// sum counts exactly the messages matched later.
///
/// The sum over `Q` is `F(P.completion) − F(P.posted)` for the receiver's
/// [`Coverage`] integral `F`, so the pass costs O(n log n) in the pairs.
pub fn wrong_order(pairs: &[MatchedPair]) -> Vec<Located> {
    wrong_order_charges(pairs)
        .into_iter()
        .map(|(p, wait)| Located {
            property: PropertyKind::MessagesWrongOrder,
            path: p.recv.path,
            loc: p.recv.loc,
            wait,
        })
        .collect()
}

/// The [`wrong_order`] charge of each blocked receive that has one, with
/// its pair, in pair order (the windowed analysis needs the receive's
/// instants, not just its location).
pub(crate) fn wrong_order_charges(pairs: &[MatchedPair]) -> Vec<(&MatchedPair, VDur)> {
    let mut intervals: HashMap<LocationId, (Vec<u64>, Vec<u64>)> =
        HashMap::with_capacity(pairs.len().min(64));
    for p in pairs {
        step();
        if p.send.post < p.recv.posted {
            let (starts, ends) = intervals.entry(p.recv.loc).or_default();
            starts.push(p.send.post.0);
            ends.push(p.recv.posted.0);
        }
    }
    let coverage: HashMap<LocationId, Coverage> = intervals
        .into_iter()
        .map(|(loc, (starts, ends))| (loc, Coverage::new(starts, ends)))
        .collect();
    let mut out = Vec::new();
    for p in pairs {
        step();
        let blocked = p.recv.completion - p.recv.posted;
        if blocked.is_zero() {
            continue;
        }
        let Some(cov) = coverage.get(&p.recv.loc) else {
            continue; // nothing was ever available early on this receiver
        };
        let overlap = cov.below(p.recv.completion) - cov.below(p.recv.posted);
        if overlap != 0 {
            out.push((p, VDur(overlap.min(u128::from(blocked.0)) as u64)));
        }
    }
    out
}

/// The prefix integral `F(x)` of how many intervals `[start, end)` on one
/// receiver cover each instant before `x`. Each interval adds
/// `(x − start)⁺ − (x − end)⁺`, so `F` is the difference of two sums of
/// ramps.
struct Coverage {
    starts: Ramps,
    ends: Ramps,
}

impl Coverage {
    /// The coverage of the intervals `[starts[i], ends[i])`, each non-empty.
    fn new(starts: Vec<u64>, ends: Vec<u64>) -> Self {
        Coverage {
            starts: Ramps::new(starts),
            ends: Ramps::new(ends),
        }
    }

    /// `F(x)`, exactly: at most `n · 2⁶⁴` before the subtraction.
    fn below(&self, x: VTime) -> u128 {
        self.starts.below(x) - self.ends.below(x)
    }
}

/// `Σ (x − t)⁺` over a set of instants `t`: a binary search for how many
/// lie below `x`, then their prefix sum.
struct Ramps {
    /// The instants, ascending.
    at: Vec<u64>,
    /// `sums[k]` is the sum of `at[..k]`.
    sums: Vec<u128>,
}

impl Ramps {
    fn new(mut at: Vec<u64>) -> Self {
        at.sort_unstable();
        let mut sums = Vec::with_capacity(at.len() + 1);
        let mut sum = 0u128;
        sums.push(sum);
        for &t in &at {
            step();
            sum += u128::from(t);
            sums.push(sum);
        }
        Ramps { at, sums }
    }

    fn below(&self, x: VTime) -> u128 {
        let k = self.at.partition_point(|&t| {
            step();
            t < x.0
        });
        k as u128 * u128::from(x.0) - self.sums[k]
    }
}

/// Count one inner-loop step of a pass, for the complexity guard in this
/// module's tests; outside tests it compiles to nothing. Library sorts are
/// O(n log n) and go uncounted.
#[inline(always)]
fn step() {
    #[cfg(test)]
    tests::STEPS.with(|s| s.set(s.get() + 1));
}

/// Dispatch one collective instance to its wait-state pattern.
pub fn collective_waits(inst: &CollInstance, trace: &Trace) -> Vec<Located> {
    match inst.op {
        CollOp::Barrier => last_arriver_waits(inst, PropertyKind::WaitAtBarrier),
        CollOp::OmpBarrier => last_arriver_waits(inst, PropertyKind::OmpWaitAtBarrier),
        CollOp::Alltoall | CollOp::Alltoallv | CollOp::Allreduce | CollOp::Allgather => {
            last_arriver_waits(inst, PropertyKind::WaitAtNxN)
        }
        CollOp::Scan => prefix_waits(inst, PropertyKind::WaitAtNxN),
        CollOp::Bcast => root_gated_waits(inst, trace, PropertyKind::LateBroadcast),
        CollOp::Scatter | CollOp::Scatterv => {
            root_gated_waits(inst, trace, PropertyKind::LateScatter)
        }
        CollOp::Reduce => early_root_waits(inst, trace, PropertyKind::EarlyReduce),
        CollOp::Gather | CollOp::Gatherv => {
            early_root_waits(inst, trace, PropertyKind::EarlyGather)
        }
        CollOp::OmpJoin => join_waits(inst),
        CollOp::OmpFork => Vec::new(),
    }
}

/// Everyone waits for the last arriver: `wait_i = max_j(entry_j) − entry_i`.
fn last_arriver_waits(inst: &CollInstance, property: PropertyKind) -> Vec<Located> {
    let latest = inst.last_entry();
    inst.members
        .iter()
        .filter_map(|m| {
            let wait = latest - m.entered;
            (!wait.is_zero()).then_some(Located {
                property,
                path: m.path,
                loc: m.loc,
                wait,
            })
        })
        .collect()
}

/// Prefix synchronization (scan): member `i` waits for the latest entry
/// among communicator ranks `0..=i`.
fn prefix_waits(inst: &CollInstance, property: PropertyKind) -> Vec<Located> {
    // Members are sorted by location; communicator order for our traces is
    // ascending global rank, which matches.
    let mut latest = VTime::ZERO;
    let mut out = Vec::new();
    for m in &inst.members {
        latest = latest.max(m.entered);
        let wait = latest - m.entered;
        if !wait.is_zero() {
            out.push(Located {
                property,
                path: m.path,
                loc: m.loc,
                wait,
            });
        }
    }
    out
}

/// Root-to-members data flow (bcast/scatter): a non-root member waits if
/// the root entered later: `wait_i = max(0, entry_root − entry_i)`.
fn root_gated_waits(inst: &CollInstance, trace: &Trace, property: PropertyKind) -> Vec<Located> {
    let Some(root) = inst.root_member(trace) else {
        return Vec::new();
    };
    let root_entry = root.entered;
    let root_loc = root.loc;
    inst.members
        .iter()
        .filter_map(|m| {
            if m.loc == root_loc {
                return None;
            }
            let wait = root_entry - m.entered;
            (!wait.is_zero()).then_some(Located {
                property,
                path: m.path,
                loc: m.loc,
                wait,
            })
        })
        .collect()
}

/// Members-to-root data flow (reduce/gather): the root waits if any member
/// entered later: `wait_root = max(0, max_{i≠root}(entry_i) − entry_root)`.
fn early_root_waits(inst: &CollInstance, trace: &Trace, property: PropertyKind) -> Vec<Located> {
    let Some(root) = inst.root_member(trace) else {
        return Vec::new();
    };
    let root_loc = root.loc;
    let latest_member = inst
        .members
        .iter()
        .filter(|m| m.loc != root_loc)
        .map(|m| m.entered)
        .max()
        .unwrap_or(root.entered);
    let wait = latest_member - root.entered;
    if wait.is_zero() {
        return Vec::new();
    }
    vec![Located {
        property,
        path: root.path,
        loc: root_loc,
        wait,
    }]
}

/// Parallel-region join: each member's wait is the gap between its own end
/// of work and the team-wide join.
fn join_waits(inst: &CollInstance) -> Vec<Located> {
    inst.members
        .iter()
        .filter_map(|m| {
            let wait = m.exit - m.entered;
            (!wait.is_zero()).then_some(Located {
                property: PropertyKind::OmpImbalanceInRegion,
                path: m.path,
                loc: m.loc,
                wait,
            })
        })
        .collect()
}

/// Critical-section contention: arrival-to-acquisition gaps.
pub fn critical_waits(ex: &Extract) -> Vec<Located> {
    ex.criticals
        .iter()
        .filter_map(|v| {
            let wait = v.acquired - v.arrive;
            (!wait.is_zero()).then_some(Located {
                property: PropertyKind::OmpCriticalContention,
                path: v.path,
                loc: v.loc,
                wait,
            })
        })
        .collect()
}

/// MPI setup overhead: all time in init/finalize.
pub fn setup_overheads(ex: &Extract) -> Vec<Located> {
    ex.setup
        .iter()
        .filter_map(|s| {
            (!s.time.is_zero()).then_some(Located {
                property: PropertyKind::MpiSetupOverhead,
                path: s.path,
                loc: s.loc,
                wait: s.time,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use ats_core::{properties::mpi_coll, properties::mpi_p2p, BaseComm, Distr};
    use ats_mpi::SimConfig;
    use ats_runtime::MachineModel;

    thread_local! {
        /// Inner-loop steps counted by [`step`] on this test thread.
        pub(super) static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Run `f` and count the inner-loop steps it takes.
    fn steps<T>(f: impl FnOnce() -> T) -> (T, u64) {
        STEPS.with(|s| s.set(0));
        let out = f();
        (out, STEPS.with(|s| s.get()))
    }

    /// The quadratic scan the sweep replaced: every blocked receive against
    /// every pair on its receiver. Kept as the reference for degenerate
    /// intervals the catalog never produces.
    fn wrong_order_scan(pairs: &[MatchedPair]) -> Vec<Located> {
        let mut by_receiver: HashMap<LocationId, Vec<usize>> = HashMap::new();
        for (i, p) in pairs.iter().enumerate() {
            by_receiver.entry(p.recv.loc).or_default().push(i);
        }
        let mut out = Vec::new();
        for p in pairs {
            if p.recv.completion <= p.recv.posted {
                continue;
            }
            let mut overlap = VDur::ZERO;
            for q in by_receiver[&p.recv.loc].iter().map(|&i| &pairs[i]) {
                step();
                if (q.recv.posted, q.recv.from, q.recv.tag)
                    == (p.recv.posted, p.recv.from, p.recv.tag)
                    || q.recv.posted <= p.recv.posted
                {
                    continue;
                }
                let start = q.send.post.max(p.recv.posted);
                let end = q.recv.posted.min(p.recv.completion);
                overlap += end - start; // saturating: zero if end <= start
            }
            if !overlap.is_zero() {
                out.push(Located {
                    property: PropertyKind::MessagesWrongOrder,
                    path: p.recv.path,
                    loc: p.recv.loc,
                    wait: overlap.min(p.recv.completion - p.recv.posted),
                });
            }
        }
        out
    }

    /// A message from `from` to `to`, sent at `sent`, whose receive is
    /// posted at `posted` and completes at `done`.
    fn pair(from: u32, to: u32, tag: i32, sent: u64, posted: u64, done: u64) -> MatchedPair {
        let path = PathId(tag as u32);
        MatchedPair {
            send: SendRec {
                loc: LocationId::rank(from),
                path,
                enter: VTime(sent),
                exit: VTime(sent),
                post: VTime(sent),
                to,
                comm: 0,
                tag,
                bytes: 8,
            },
            recv: RecvRec {
                loc: LocationId::rank(to),
                path,
                enter: VTime(posted),
                exit: VTime(done),
                posted: VTime(posted),
                completion: VTime(done),
                from,
                comm: 0,
                tag,
                bytes: 8,
            },
        }
    }

    #[test]
    fn wrong_order_sweep_equals_the_quadratic_scan() {
        ats_testutil::check("wrong_order_sweep_equals_the_quadratic_scan", 300, |c| {
            let receivers = c.int(1..5) as u64;
            // A narrow clock range makes equal timestamps common.
            let span = c.sized(2..64) as u64;
            let pairs: Vec<MatchedPair> = (0..c.sized(1..160))
                .map(|_| {
                    let posted = c.below(span);
                    let done = posted + if c.coin() { 0 } else { c.below(span) };
                    // Sent before, at or after the receive is posted.
                    let sent = c.below(2 * span);
                    let from = c.below(2) as u32;
                    let to = 2 + c.below(receivers) as u32;
                    pair(from, to, c.int(0..3) as i32, sent, posted, done)
                })
                .collect();
            assert_eq!(wrong_order(&pairs), wrong_order_scan(&pairs));
        });
    }

    /// One receiver whose "available but unread" intervals all overlap,
    /// like a long trace's busiest receiver: `n` sends go out first, then
    /// `n` receives each block for `2n` ticks.
    fn overlapping(n: u64) -> Vec<MatchedPair> {
        (0..n)
            .map(|i| pair(0, 1, 0, i, n + 2 * i, 3 * n + 2 * i))
            .collect()
    }

    #[test]
    fn pass_steps_grow_at_most_n_log_n() {
        let count = |n| {
            let pairs = overlapping(n);
            let ex = Extract {
                sends: pairs.iter().map(|p| p.send).collect(),
                recvs: pairs.iter().map(|p| p.recv).collect(),
                ..Extract::default()
            };
            let (matched, matching) = steps(|| match_messages(&ex));
            assert_eq!(matched, pairs);
            let (swept, sweep) = steps(|| wrong_order(&pairs));
            let (scanned, scan) = steps(|| wrong_order_scan(&pairs));
            assert_eq!(swept, scanned);
            assert_eq!(swept.len() as u64, n - 1, "all but the last wait");
            [matching, sweep, scan]
        };
        let (short, long) = (count(1000), count(4000));
        let growth = |i: usize| long[i] as f64 / short[i] as f64;
        assert!(growth(0) <= 5.0, "match_messages steps grew {}x", growth(0));
        assert!(growth(1) <= 5.0, "wrong_order steps grew {}x", growth(1));
        // The guard has teeth: the scan it replaced grows 16x.
        assert!(growth(2) >= 15.0, "scan steps grew {}x", growth(2));
    }

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn matching_pairs_every_message() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.005, 3, &c);
        });
        let ex = extract(&trace);
        let pairs = match_messages(&ex);
        assert_eq!(pairs.len(), ex.recvs.len());
        assert_eq!(pairs.len(), 6, "2 pairs x 3 reps");
        for p in &pairs {
            assert_eq!(p.send.comm, p.recv.comm);
            assert_eq!(p.send.to, p.recv.loc.rank);
            assert_eq!(p.send.loc.rank, p.recv.from);
            assert_eq!(p.send.bytes, p.recv.bytes);
        }
    }

    #[test]
    fn late_sender_waits_equal_programmed_imbalance() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.002, 0.030, 2, &c);
        });
        let ex = extract(&trace);
        let pairs = match_messages(&ex);
        let waits = late_sender(&pairs);
        let total: VDur = waits.iter().map(|w| w.wait).sum();
        assert_eq!(total, VDur::from_millis(60), "2 reps x 30ms");
        for w in &waits {
            assert_eq!(w.loc.rank, 1, "wait sits on the receiver");
        }
        // No late receiver in this program.
        assert!(late_receiver(&pairs).is_empty());
    }

    #[test]
    fn late_receiver_waits_on_the_sender() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_receiver(p, &BaseComm::default(), 0.002, 0.025, 2, &c);
        });
        let ex = extract(&trace);
        let pairs = match_messages(&ex);
        let waits = late_receiver(&pairs);
        let total: VDur = waits.iter().map(|w| w.wait).sum();
        assert_eq!(total, VDur::from_millis(50));
        for w in &waits {
            assert_eq!(w.loc.rank, 0, "wait sits on the sender");
        }
        assert!(late_sender(&pairs).is_empty());
    }

    #[test]
    fn barrier_waits_follow_the_distribution() {
        let df = Distr::linear(0.0, 0.030);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 1, &c);
        });
        let ex = extract(&trace);
        let mut total = VDur::ZERO;
        for inst in ex.colls.iter().filter(|c| c.op == CollOp::Barrier) {
            for w in collective_waits(inst, &trace) {
                assert_eq!(w.property, PropertyKind::WaitAtBarrier);
                total += w.wait;
            }
        }
        // Waits: 30 + 20 + 10 + 0 = 60ms.
        assert_eq!(total, VDur::from_millis(60));
    }

    #[test]
    fn late_broadcast_waits_on_non_roots_only() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_coll::late_broadcast(p, &BaseComm::default(), 0.001, 0.020, 1, 1, &c);
        });
        let ex = extract(&trace);
        let bcast = ex.colls.iter().find(|c| c.op == CollOp::Bcast).unwrap();
        let waits = collective_waits(bcast, &trace);
        assert_eq!(waits.len(), 3);
        for w in &waits {
            assert_eq!(w.property, PropertyKind::LateBroadcast);
            assert_ne!(w.loc.rank, 1, "root never waits for itself");
            assert_eq!(w.wait, VDur::from_millis(20));
        }
    }

    #[test]
    fn early_reduce_wait_on_root_only() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_coll::early_reduce(p, &BaseComm::default(), 0.001, 0.015, 2, 1, &c);
        });
        let ex = extract(&trace);
        let red = ex.colls.iter().find(|c| c.op == CollOp::Reduce).unwrap();
        let waits = collective_waits(red, &trace);
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].loc.rank, 2);
        assert_eq!(waits[0].property, PropertyKind::EarlyReduce);
        assert_eq!(waits[0].wait, VDur::from_millis(15));
    }

    #[test]
    fn balanced_program_yields_no_waits() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            ats_core::properties::negative::balanced_mpi_barrier(p, 0.010, 3, &c);
            ats_core::properties::negative::balanced_mpi_p2p(p, &BaseComm::default(), 0.005, 2, &c);
        });
        let ex = extract(&trace);
        let pairs = match_messages(&ex);
        assert!(late_sender(&pairs).is_empty());
        assert!(late_receiver(&pairs).is_empty());
        for inst in &ex.colls {
            assert!(collective_waits(inst, &trace).is_empty());
        }
    }
}
