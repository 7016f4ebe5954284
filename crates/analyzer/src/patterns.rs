//! The p2p facts that take more than one record: message matching, and
//! the sweep behind each receive's `early_overlap`.
//!
//! The property definitions themselves are ASL declarations
//! ([`crate::asl::DEFAULT_PROPERTY_SET`]); this module supplies only the
//! pairs the p2p ones range over and that one fact.

use crate::extract::{Extract, RecvRec, SendRec};
use ats_runtime::VTime;
use ats_trace::LocationId;
use std::collections::HashMap;

/// A matched point-to-point message pair, borrowing its two records from
/// the [`Extract`] they were matched in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPair<'a> {
    /// Sender-side record.
    pub send: &'a SendRec,
    /// Receiver-side record.
    pub recv: &'a RecvRec,
}

/// Match sends to receives with MPI semantics: FIFO per
/// `(communicator, source, destination, tag)`. Unmatched operations (none
/// arise from the substrate, but a tool must tolerate truncated traces)
/// are dropped.
pub fn match_messages(ex: &Extract) -> Vec<MatchedPair<'_>> {
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
                pairs.push(MatchedPair { send: s, recv: r });
                *taken += 1;
            }
        }
    }
    pairs
}

/// Where messages arrived early: for each receiver, the intervals
/// `[Q.send.post, Q.recv.posted)` during which a message `Q` was
/// available but not yet read.
pub(crate) struct EarlyArrivals(HashMap<LocationId, Coverage>);

impl EarlyArrivals {
    pub(crate) fn new(pairs: &[MatchedPair<'_>]) -> Self {
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
        EarlyArrivals(
            intervals
                .into_iter()
                .map(|(loc, (starts, ends))| (loc, Coverage::new(starts, ends)))
                .collect(),
        )
    }

    /// The p2p fact `early_overlap`: the overlap of `p`'s blocked
    /// interval `[p.recv.posted, p.recv.completion)` with every early
    /// interval on its receiver, summed — only messages matched later
    /// overlap it. It is `F(completion) − F(posted)` for the receiver's
    /// [`Coverage`] integral `F`, so a pass costs O(n log n) in the pairs.
    pub(crate) fn overlap(&self, p: &MatchedPair<'_>) -> u128 {
        match self.0.get(&p.recv.loc) {
            Some(cov) if p.recv.posted < p.recv.completion => {
                cov.below(p.recv.completion) - cov.below(p.recv.posted)
            }
            _ => 0,
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asl::{default_property_set, AslFinding};
    use crate::callpath::PathId;
    use crate::cfg;
    use crate::extract::extract;
    use crate::property::PropertyKind;
    use ats_core::{properties::mpi_coll, properties::mpi_p2p, BaseComm, Distr};
    use ats_runtime::VDur;
    use ats_trace::Trace;

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

    /// The default set's findings on `trace`, of `kind` or of any.
    fn waits(trace: &Trace, kind: Option<PropertyKind>) -> Vec<AslFinding> {
        let set = default_property_set();
        let all = set.evaluate(&extract(trace), trace).unwrap();
        let of_kind = |f: &AslFinding| kind.is_none_or(|k| set.kind(f.property) == Some(k));
        all.into_iter().filter(of_kind).collect()
    }

    fn total(waits: &[AslFinding]) -> VDur {
        waits.iter().map(|w| w.wait).sum()
    }

    /// A wrong-order charge: the receive's path, location, post and wait.
    type Charge = (PathId, LocationId, VTime, VDur);

    /// One message's two records.
    type Message = (SendRec, RecvRec);

    /// The default set's `MessagesWrongOrder` findings on `pairs`.
    fn wrong_order(pairs: &[MatchedPair<'_>]) -> Vec<Charge> {
        let set = default_property_set();
        let mut out = Vec::new();
        set.each_pair_finding(pairs, &mut |f| {
            if set.kind(f.property) == Some(PropertyKind::MessagesWrongOrder) {
                out.push((f.path, f.loc, f.start, f.wait));
            }
        })
        .unwrap();
        out
    }

    /// The quadratic scan the sweep replaced: every blocked receive against
    /// every pair on its receiver. Kept as the reference for degenerate
    /// intervals the catalog never produces.
    fn wrong_order_scan(pairs: &[MatchedPair<'_>]) -> Vec<Charge> {
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
                let wait = overlap.min(p.recv.completion - p.recv.posted);
                out.push((p.recv.path, p.recv.loc, p.recv.posted, wait));
            }
        }
        out
    }

    /// A message from `from` to `to`, sent at `sent`, whose receive is
    /// posted at `posted` and completes at `done`.
    fn message(from: u32, to: u32, tag: i32, sent: u64, posted: u64, done: u64) -> Message {
        let path = PathId(tag as u32);
        (
            SendRec {
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
            RecvRec {
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
        )
    }

    /// An extract holding just `messages`' records, in order.
    fn extract_of(messages: impl IntoIterator<Item = Message>) -> Extract {
        let (sends, recvs) = messages.into_iter().unzip();
        Extract {
            sends,
            recvs,
            ..Extract::default()
        }
    }

    /// Each of `ex`'s sends paired with the receive at its index.
    fn in_order(ex: &Extract) -> Vec<MatchedPair<'_>> {
        let pairs = ex.sends.iter().zip(&ex.recvs);
        pairs
            .map(|(send, recv)| MatchedPair { send, recv })
            .collect()
    }

    #[test]
    fn wrong_order_sweep_equals_the_quadratic_scan() {
        ats_testutil::check("wrong_order_sweep_equals_the_quadratic_scan", 300, |c| {
            let receivers = c.int(1..5) as u64;
            // A narrow clock range makes equal timestamps common.
            let span = c.sized(2..64) as u64;
            let ex = extract_of((0..c.sized(1..160)).map(|_| {
                let posted = c.below(span);
                let done = posted + if c.coin() { 0 } else { c.below(span) };
                // Sent before, at or after the receive is posted.
                let sent = c.below(2 * span);
                let from = c.below(2) as u32;
                let to = 2 + c.below(receivers) as u32;
                message(from, to, c.int(0..3) as i32, sent, posted, done)
            }));
            let pairs = in_order(&ex);
            assert_eq!(wrong_order(&pairs), wrong_order_scan(&pairs));
        });
    }

    /// One receiver whose "available but unread" intervals all overlap,
    /// like a long trace's busiest receiver: `n` sends go out first, then
    /// `n` receives each block for `2n` ticks.
    fn overlapping(n: u64) -> Extract {
        extract_of((0..n).map(|i| message(0, 1, 0, i, n + 2 * i, 3 * n + 2 * i)))
    }

    #[test]
    fn pass_steps_grow_at_most_n_log_n() {
        let count = |n| {
            let ex = overlapping(n);
            let pairs = in_order(&ex);
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
        let late = waits(&trace, Some(PropertyKind::LateSender));
        assert_eq!(total(&late), VDur::from_millis(60), "2 reps x 30ms");
        for w in &late {
            assert_eq!(w.loc.rank, 1, "wait sits on the receiver");
        }
        // No late receiver in this program.
        assert!(waits(&trace, Some(PropertyKind::LateReceiver)).is_empty());
    }

    #[test]
    fn late_receiver_waits_on_the_sender() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_receiver(p, &BaseComm::default(), 0.002, 0.025, 2, &c);
        });
        let late = waits(&trace, Some(PropertyKind::LateReceiver));
        assert_eq!(total(&late), VDur::from_millis(50));
        for w in &late {
            assert_eq!(w.loc.rank, 0, "wait sits on the sender");
        }
        assert!(waits(&trace, Some(PropertyKind::LateSender)).is_empty());
    }

    #[test]
    fn barrier_waits_follow_the_distribution() {
        let df = Distr::linear(0.0, 0.030);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 1, &c);
        });
        let barrier = waits(&trace, Some(PropertyKind::WaitAtBarrier));
        assert_eq!(waits(&trace, None), barrier);
        // Waits: 30 + 20 + 10 + 0 = 60ms.
        assert_eq!(total(&barrier), VDur::from_millis(60));
    }

    #[test]
    fn late_broadcast_waits_on_non_roots_only() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_coll::late_broadcast(p, &BaseComm::default(), 0.001, 0.020, 1, 1, &c);
        });
        let late = waits(&trace, Some(PropertyKind::LateBroadcast));
        assert_eq!(late.len(), 3);
        for w in &late {
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
        let early = waits(&trace, Some(PropertyKind::EarlyReduce));
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].loc.rank, 2);
        assert_eq!(early[0].wait, VDur::from_millis(15));
    }

    #[test]
    fn balanced_program_yields_no_waits() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            ats_core::properties::negative::balanced_mpi_barrier(p, 0.010, 3, &c);
            ats_core::properties::negative::balanced_mpi_p2p(p, &BaseComm::default(), 0.005, 2, &c);
        });
        assert!(waits(&trace, None).is_empty());
    }
}
