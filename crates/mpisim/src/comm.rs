//! Communicators and their collective rendezvous.
//!
//! A [`Comm`] is a per-process handle onto shared communicator state: the
//! member list (global ranks in communicator-rank order) and the
//! rendezvous slot through which members exchange their collective
//! contributions. `split`
//! and `dup` (implemented in [`crate::proc::Proc`]) derive new communicators
//! group-collectively, exactly like `MPI_Comm_split`/`MPI_Comm_dup` — the
//! mechanism behind the paper's Figure 3.4 experiment where the lower and
//! upper halves of `MPI_COMM_WORLD` run different property functions in
//! parallel.

use ats_runtime::exchange::ExchangeSlot;
use ats_runtime::unpoison;
use ats_runtime::VTime;
use std::sync::{Arc, Mutex};

/// One member's contribution to a collective operation.
#[derive(Debug, Clone, Default)]
pub struct Contrib {
    /// The member's virtual clock on entry.
    pub entry: VTime,
    /// Data payload (send buffer contents, or empty).
    pub data: Vec<u8>,
    /// Per-member element counts for irregular ("v") collectives; only the
    /// root's contribution needs to carry this.
    pub counts: Option<Vec<usize>>,
}

/// A single-entry memo keyed by collective round: a result that is a pure
/// function of the round's contributions is computed by the first member
/// through and shared by the rest.
#[derive(Debug)]
pub struct RoundMemo<T>(Mutex<Option<(u64, Arc<T>)>>);

impl<T> RoundMemo<T> {
    /// The value for round `seq`, running `compute` only for the round's
    /// first request.
    pub fn get(&self, seq: u64, compute: impl FnOnce() -> T) -> Arc<T> {
        let mut cache = unpoison(self.0.lock());
        match &*cache {
            Some((s, value)) if *s == seq => value.clone(),
            _ => {
                let value = Arc::new(compute());
                *cache = Some((seq, value.clone()));
                value
            }
        }
    }
}

/// Shared communicator state (one per communicator per run).
#[derive(Debug)]
pub struct CommShared {
    /// Globally unique communicator id within the run.
    pub id: u32,
    /// Global ranks of the members, indexed by communicator-local rank.
    pub members: Vec<usize>,
    /// Collective rendezvous: one `exchange` per member per collective
    /// hands every member the contributions and the round's sequence
    /// number.
    pub slot: ExchangeSlot<Contrib>,
    /// Exit-time vector per round: the LogGP stage walk runs once per
    /// collective, not once per member.
    pub exits: RoundMemo<Vec<VTime>>,
    /// Reduction result per round: combining P contributions is O(P), so
    /// recomputing it per member made reduce/allreduce O(P²) per round.
    pub combined: RoundMemo<Vec<u8>>,
}

impl CommShared {
    /// Create shared state for a communicator over `members`.
    pub fn new(id: u32, members: Vec<usize>) -> Arc<Self> {
        Arc::new(CommShared {
            id,
            slot: ExchangeSlot::new(members.len()),
            members,
            exits: RoundMemo(Mutex::new(None)),
            combined: RoundMemo(Mutex::new(None)),
        })
    }
}

/// A per-process communicator handle.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) shared: Arc<CommShared>,
    pub(crate) my_rank: usize,
}

impl Comm {
    pub(crate) fn new(shared: Arc<CommShared>, my_rank: usize) -> Self {
        debug_assert!(my_rank < shared.members.len());
        Comm { shared, my_rank }
    }

    /// This process's rank within the communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of members (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// The communicator's run-unique id.
    pub fn id(&self) -> u32 {
        self.shared.id
    }

    /// Translate a communicator-local rank to a global (world) rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.shared.members[local]
    }

    /// The member list as global ranks.
    pub fn members(&self) -> &[usize] {
        &self.shared.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_testutil::{panics_alike_on_both_carriers, run_as_tasks, CARRIERS};

    #[test]
    fn exchange_distributes_all_contributions() {
        for backend in CARRIERS {
            let comm = CommShared::new(0, vec![0, 1, 2, 3]);
            let results = run_as_tasks(backend, 4, |me| {
                let entry = VTime(me as u64 * 10);
                let c = Contrib {
                    entry,
                    data: vec![me as u8],
                    counts: None,
                };
                comm.slot.exchange(me, c, entry, "MPI collective")
            });
            assert_eq!(results.len(), 4);
            for (seq, all) in results {
                assert_eq!(seq, 0);
                assert_eq!(all.len(), 4);
                for (i, c) in all.iter().enumerate() {
                    assert_eq!(c.data, vec![i as u8]);
                    assert_eq!(c.entry, VTime(i as u64 * 10));
                }
            }
        }
    }

    #[test]
    fn sequence_numbers_advance_per_round() {
        for backend in CARRIERS {
            let comm = CommShared::new(0, vec![0, 1]);
            let results = run_as_tasks(backend, 2, |me| {
                (0..5)
                    .map(|_| {
                        let round = comm
                            .slot
                            .exchange(me, Contrib::default(), VTime::ZERO, "test");
                        round.0
                    })
                    .collect::<Vec<_>>()
            });
            assert_eq!(results, vec![vec![0, 1, 2, 3, 4]; 2]);
        }
    }

    #[test]
    #[should_panic(expected = "deadlock in the simulated program?): task 0 in MPI collective")]
    fn lone_member_times_out() {
        // A member whose peers never arrive is reported at once, with its
        // blocked site.
        panics_alike_on_both_carriers(|| {
            let comm = CommShared::new(0, vec![0, 1]);
            comm.slot
                .exchange(0, Contrib::default(), VTime::ZERO, "MPI collective");
        });
    }

    #[test]
    fn cached_exits_computes_once_per_round() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let comm = CommShared::new(0, vec![0, 1]);
        let computed = AtomicUsize::new(0);
        let compute = || {
            computed.fetch_add(1, Ordering::Relaxed);
            vec![VTime(1), VTime(2)]
        };
        let a = comm.exits.get(0, compute);
        let b = comm.exits.get(0, || unreachable!("memoised"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let c = comm.exits.get(1, || vec![VTime(9), VTime(9)]);
        assert_eq!(*c, vec![VTime(9), VTime(9)]);
    }

    #[test]
    fn comm_handle_accessors() {
        let shared = CommShared::new(3, vec![8, 9, 10]);
        let c = Comm::new(shared, 1);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(c.id(), 3);
        assert_eq!(c.global_rank(2), 10);
        assert_eq!(c.members(), &[8, 9, 10]);
    }
}
