//! Virtual-time cost models for collective operations.
//!
//! Each model maps the members' entry times (plus payload sizes and the
//! [`MachineModel`]) to per-member exit times. The models are deliberately
//! simple binomial-tree / linear-root schedules — what MPICH-era MPIs
//! actually used — because the test suite needs the *wait-state shapes*
//! that define the paper's performance properties:
//!
//! * `Barrier`/`Alltoall`: everyone leaves after the last arriver
//!   (→ *Wait at Barrier*, *Wait at N×N*);
//! * `Bcast`/`Scatter[v]`: data flows root → members, so early members wait
//!   for a late root (→ *Late Broadcast*, *Late Scatter*);
//! * `Reduce`/`Gather[v]`: data flows members → root, so an early root
//!   waits for late members (→ *Early Reduce*, *Early Gather*).
//!
//! All models are pure functions, unit-tested in isolation from the
//! scheduler.

use ats_runtime::{MachineModel, VDur, VTime};
use ats_trace::CollOp;

/// Compute per-member exit times for one collective operation.
///
/// `entries[i]` is member `i`'s virtual clock on entry (communicator-local
/// indexing); `root` must be `Some` for rooted operations; `bytes[i]` is the
/// payload size associated with member `i` (meaning depends on the
/// operation: the chunk destined to/from member `i` for scatter/gather, the
/// uniform message size for bcast/reduce-style trees).
///
/// The returned exit times are always `>=` the corresponding entry times.
pub fn exits(
    op: CollOp,
    entries: &[VTime],
    root: Option<usize>,
    bytes: &[u64],
    model: &MachineModel,
) -> Vec<VTime> {
    let p = entries.len();
    assert!(p > 0, "collective over an empty communicator");
    assert_eq!(bytes.len(), p, "one byte count per member required");
    let mut out = match op {
        CollOp::Barrier => barrier_exits(entries, model),
        CollOp::Bcast => bcast_exits(entries, req_root(op, root), max_bytes(bytes), model),
        CollOp::Scatter | CollOp::Scatterv => {
            scatter_exits(entries, req_root(op, root), bytes, model)
        }
        CollOp::Gather | CollOp::Gatherv => gather_exits(entries, req_root(op, root), bytes, model),
        CollOp::Reduce => reduce_exits(entries, req_root(op, root), max_bytes(bytes), model),
        CollOp::Allreduce => {
            let t = last(entries) + stagev(model, max_bytes(bytes), 2 * model.tree_stages(p));
            vec![t; p]
        }
        CollOp::Allgather => {
            let total: u64 = bytes.iter().sum();
            let t = last(entries) + stagev(model, total, model.tree_stages(p));
            vec![t; p]
        }
        CollOp::Alltoall | CollOp::Alltoallv => {
            let t = last(entries) + model.latency + model.transfer(max_bytes(bytes) as usize);
            vec![t; p]
        }
        CollOp::Scan => scan_exits(entries, max_bytes(bytes), model),
        CollOp::OmpBarrier | CollOp::OmpFork | CollOp::OmpJoin => {
            unreachable!("shared-memory pseudo-collectives are priced by ats-omp")
        }
    };
    for (x, e) in out.iter_mut().zip(entries) {
        *x = (*x).max(*e);
    }
    out
}

fn req_root(op: CollOp, root: Option<usize>) -> usize {
    root.unwrap_or_else(|| panic!("{op} requires a root"))
}

fn max_bytes(bytes: &[u64]) -> u64 {
    bytes.iter().copied().max().unwrap_or(0)
}

fn last(entries: &[VTime]) -> VTime {
    entries.iter().copied().max().unwrap_or(VTime::ZERO)
}

fn stagev(model: &MachineModel, bytes: u64, stages: u32) -> VDur {
    model.stage_cost(bytes as usize) * stages as u64
}

fn barrier_exits(entries: &[VTime], model: &MachineModel) -> Vec<VTime> {
    let p = entries.len();
    let t = last(entries) + stagev(model, 0, model.tree_stages(p));
    vec![t; p]
}

/// Highest power of two `<= rel` (rel >= 1).
fn msb(rel: usize) -> usize {
    1 << (usize::BITS - 1 - rel.leading_zeros())
}

fn bcast_exits(entries: &[VTime], root: usize, bytes: u64, model: &MachineModel) -> Vec<VTime> {
    let p = entries.len();
    let stage = model.stage_cost(bytes as usize);
    let abs = |rel: usize| (rel + root) % p;
    // avail[rel] = virtual time the payload is available at tree position rel.
    let mut avail = vec![VTime::ZERO; p];
    avail[0] = entries[root];
    #[allow(clippy::needless_range_loop)] // avail[rel] depends on avail[parent]
    for rel in 1..p {
        let parent = rel - msb(rel);
        // The parent forwards only once it has both entered and received.
        avail[rel] = avail[parent].max(entries[abs(parent)]) + stage;
    }
    let mut out = vec![VTime::ZERO; p];
    for (rel, &av) in avail.iter().enumerate() {
        let a = abs(rel);
        out[a] = if rel == 0 {
            // The root performs (at least) its first forwarding send.
            if p == 1 {
                entries[a]
            } else {
                entries[a] + stage
            }
        } else {
            entries[a].max(av) + model.recv_overhead
        };
    }
    out
}

fn reduce_exits(entries: &[VTime], root: usize, bytes: u64, model: &MachineModel) -> Vec<VTime> {
    let p = entries.len();
    let stage = model.stage_cost(bytes as usize);
    let abs = |rel: usize| (rel + root) % p;
    // send_time[rel] = when tree position rel has combined its subtree and
    // can send to its parent. Children have larger rel than their parent,
    // so a descending sweep sees children first.
    let mut send_time = vec![VTime::ZERO; p];
    for rel in (0..p).rev() {
        let mut ready = entries[abs(rel)];
        // children of rel: rel + 2^k for 2^k > rel, rel + 2^k < p
        let mut k = if rel == 0 { 1 } else { msb(rel) << 1 };
        while rel + k < p {
            ready = ready.max(send_time[rel + k] + stage);
            k <<= 1;
        }
        send_time[rel] = ready;
    }
    let mut out = vec![VTime::ZERO; p];
    for rel in 0..p {
        let a = abs(rel);
        out[a] = if rel == 0 {
            send_time[0]
        } else {
            send_time[rel] + model.send_overhead
        };
    }
    out
}

fn scatter_exits(
    entries: &[VTime],
    root: usize,
    bytes: &[u64],
    model: &MachineModel,
) -> Vec<VTime> {
    let p = entries.len();
    let mut out = vec![VTime::ZERO; p];
    let mut cursor = VDur::ZERO;
    for i in 0..p {
        if i == root {
            continue;
        }
        cursor += model.transfer(bytes[i] as usize);
        let arrival = entries[root] + cursor + model.latency;
        out[i] = entries[i].max(arrival) + model.recv_overhead;
    }
    out[root] = entries[root] + cursor + model.send_overhead;
    out
}

fn gather_exits(entries: &[VTime], root: usize, bytes: &[u64], model: &MachineModel) -> Vec<VTime> {
    let p = entries.len();
    let mut out = vec![VTime::ZERO; p];
    let mut latest_arrival = entries[root];
    let mut drain = VDur::ZERO;
    for i in 0..p {
        if i == root {
            continue;
        }
        out[i] = entries[i] + model.send_overhead;
        latest_arrival = latest_arrival.max(entries[i] + model.send_overhead + model.latency);
        drain += model.transfer(bytes[i] as usize);
    }
    out[root] = latest_arrival + drain;
    out
}

fn scan_exits(entries: &[VTime], bytes: u64, model: &MachineModel) -> Vec<VTime> {
    let p = entries.len();
    let stages = model.tree_stages(p);
    let mut out = vec![VTime::ZERO; p];
    let mut prefix_latest = VTime::ZERO;
    for i in 0..p {
        prefix_latest = prefix_latest.max(entries[i]);
        out[i] = prefix_latest + stagev(model, bytes, stages);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VTime {
        VTime(ms * 1_000_000)
    }

    /// Per-member wait implied by a set of entries: the time from its own
    /// entry to the latest one.
    fn imbalance_waits(entries: &[VTime]) -> Vec<VDur> {
        let latest = last(entries);
        entries.iter().map(|e| latest - *e).collect()
    }

    fn zero() -> MachineModel {
        MachineModel::zero()
    }

    #[test]
    fn barrier_releases_all_at_last_entry() {
        let entries = vec![t(1), t(5), t(3)];
        let out = exits(CollOp::Barrier, &entries, None, &[0, 0, 0], &zero());
        assert_eq!(out, vec![t(5); 3]);
    }

    #[test]
    fn barrier_waits_match_imbalance() {
        let entries = vec![t(1), t(5), t(3)];
        let waits = imbalance_waits(&entries);
        assert_eq!(
            waits,
            vec![VDur::from_millis(4), VDur::ZERO, VDur::from_millis(2)]
        );
    }

    #[test]
    fn late_broadcast_blocks_everyone_on_root() {
        // Root (rank 0) enters at 100ms; others at ~0. With a zero model,
        // everyone exits exactly at the root's entry.
        let entries = vec![t(100), t(1), t(2), t(3)];
        let out = exits(CollOp::Bcast, &entries, Some(0), &[8; 4], &zero());
        assert_eq!(out, vec![t(100); 4]);
    }

    #[test]
    fn bcast_nonzero_root_indexing() {
        let entries = vec![t(0), t(0), t(50), t(0)];
        let out = exits(CollOp::Bcast, &entries, Some(2), &[8; 4], &zero());
        assert_eq!(out, vec![t(50); 4], "all wait for the late root (rank 2)");
    }

    #[test]
    fn bcast_with_early_root_releases_members_at_their_entry() {
        // Root at 0, members enter late: no waiting (exit == entry) under a
        // zero-cost model.
        let entries = vec![t(0), t(30), t(40), t(50)];
        let out = exits(CollOp::Bcast, &entries, Some(0), &[8; 4], &zero());
        assert_eq!(out[1], t(30));
        assert_eq!(out[2], t(40));
        assert_eq!(out[3], t(50));
    }

    #[test]
    fn bcast_stage_costs_follow_binomial_depth() {
        let mut m = zero();
        m.collective_stage = VDur::from_millis(1);
        let entries = vec![t(0); 8];
        let out = exits(CollOp::Bcast, &entries, Some(0), &[0; 8], &m);
        // Each hop along the binomial parent chain (clear the highest set
        // bit) adds one stage.
        assert_eq!(out[1], t(1)); // 0 -> 1
        assert_eq!(out[2], t(1)); // 0 -> 2
        assert_eq!(out[3], t(2)); // 0 -> 1 -> 3
        assert_eq!(out[4], t(1)); // 0 -> 4
        assert_eq!(out[7], t(3)); // 0 -> 1 -> 3 -> 7
    }

    #[test]
    fn early_reduce_root_waits_for_latest_member() {
        // Root enters first; members arrive late. Root's exit tracks the
        // latest member.
        let entries = vec![t(0), t(20), t(70), t(40)];
        let out = exits(CollOp::Reduce, &entries, Some(0), &[8; 4], &zero());
        assert_eq!(out[0], t(70));
        // Non-roots leave as soon as their subtree is combined: rel 1's
        // subtree is {1, 3}, so it leaves at max(20, 40) = 40.
        assert_eq!(out[2], t(70));
        assert_eq!(out[1], t(40));
    }

    #[test]
    fn reduce_leaf_exits_at_own_entry_with_zero_model() {
        let entries = vec![t(5), t(9), t(7), t(3)];
        let out = exits(CollOp::Reduce, &entries, Some(0), &[0; 4], &zero());
        // rel 3 (abs 3) is a leaf: exits at its own entry.
        assert_eq!(out[3], t(3));
    }

    #[test]
    fn late_scatter_everyone_waits_for_root() {
        let entries = vec![t(2), t(80), t(4), t(6)];
        let out = exits(CollOp::Scatter, &entries, Some(1), &[16; 4], &zero());
        for (i, x) in out.iter().enumerate() {
            if i != 1 {
                assert_eq!(*x, t(80), "member {i} must wait for the late root");
            }
        }
        assert_eq!(out[1], t(80));
    }

    #[test]
    fn scatter_serializes_root_transfers() {
        let mut m = zero();
        m.ns_per_byte = 1000.0; // 1us per byte
        let entries = vec![t(0); 3];
        let bytes = vec![1000, 1000, 1000]; // 1ms transfer each
        let out = exits(CollOp::Scatter, &entries, Some(0), &bytes, &m);
        assert_eq!(out[1], t(1));
        assert_eq!(out[2], t(2));
        assert_eq!(out[0], t(2));
    }

    #[test]
    fn early_gather_root_waits_senders_leave_quickly() {
        let entries = vec![t(0), t(30), t(60), t(10)];
        let out = exits(CollOp::Gather, &entries, Some(0), &[8; 4], &zero());
        assert_eq!(out[0], t(60), "root waits for last sender");
        assert_eq!(out[1], t(30));
        assert_eq!(out[2], t(60));
        assert_eq!(out[3], t(10));
    }

    #[test]
    fn alltoall_is_a_full_synchronization() {
        let entries = vec![t(9), t(1), t(5)];
        let out = exits(CollOp::Alltoall, &entries, None, &[64; 3], &zero());
        assert_eq!(out, vec![t(9); 3]);
    }

    #[test]
    fn allreduce_synchronizes_all() {
        let entries = vec![t(3), t(11), t(7)];
        let out = exits(CollOp::Allreduce, &entries, None, &[8; 3], &zero());
        assert_eq!(out, vec![t(11); 3]);
    }

    #[test]
    fn scan_depends_only_on_prefix() {
        let entries = vec![t(10), t(2), t(30), t(4)];
        let out = exits(CollOp::Scan, &entries, None, &[8; 4], &zero());
        assert_eq!(out[0], t(10));
        assert_eq!(out[1], t(10), "rank 1 waits for rank 0's late entry");
        assert_eq!(out[2], t(30));
        assert_eq!(out[3], t(30), "rank 3 waits for rank 2");
    }

    #[test]
    fn exits_never_precede_entries() {
        let entries = vec![t(100), t(1), t(50), t(2)];
        for op in [
            CollOp::Barrier,
            CollOp::Bcast,
            CollOp::Scatter,
            CollOp::Gather,
            CollOp::Reduce,
            CollOp::Allreduce,
            CollOp::Allgather,
            CollOp::Alltoall,
            CollOp::Scan,
        ] {
            let root = op.is_rooted().then_some(0);
            let out = exits(op, &entries, root, &[8; 4], &MachineModel::default());
            for (x, e) in out.iter().zip(&entries) {
                assert!(x >= e, "{op}: exit {x} before entry {e}");
            }
        }
    }

    #[test]
    fn singleton_communicator_is_trivial() {
        let entries = vec![t(7)];
        for op in [CollOp::Barrier, CollOp::Bcast, CollOp::Reduce, CollOp::Scan] {
            let root = op.is_rooted().then_some(0);
            let out = exits(op, &entries, root, &[128], &zero());
            assert_eq!(out, vec![t(7)], "{op} with p=1");
        }
    }

    #[test]
    #[should_panic(expected = "requires a root")]
    fn rooted_op_without_root_panics() {
        exits(CollOp::Bcast, &[t(0)], None, &[0], &zero());
    }
}
