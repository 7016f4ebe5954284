//! The all-to-all rendezvous behind every simulated collective.
//!
//! One protocol serves an MPI communicator's collectives and an OpenMP
//! team's barriers, reductions and joins: each participant deposits a
//! contribution, parks on the scheduler until the last one arrives, and
//! leaves with a shared view of every contribution plus the round number.

use crate::sched::WaitSet;
use crate::time::VTime;
use crate::unpoison;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct State<T> {
    arrived: usize,
    contribs: Vec<Option<T>>,
    /// The last completed round's contributions, built once by its last
    /// arriver and shared by every participant — O(P) per round instead of
    /// the O(P²) of per-participant cloning, which is what makes 8k-rank
    /// collectives feasible. The next round cannot complete before every
    /// participant of this one has left with its copy.
    published: Option<Arc<Vec<T>>>,
    seq: u64,
}

/// An N-party exchange: every participant deposits a `T` and receives
/// everyone's deposits plus a per-slot round number.
#[derive(Debug)]
pub struct ExchangeSlot<T> {
    state: Mutex<State<T>>,
    ws: WaitSet,
}

impl<T> ExchangeSlot<T> {
    /// Create a slot for `size` participants.
    pub fn new(size: usize) -> Self {
        ExchangeSlot {
            state: Mutex::new(State {
                arrived: 0,
                contribs: (0..size).map(|_| None).collect(),
                published: None,
                seq: 0,
            }),
            ws: WaitSet::new(),
        }
    }

    /// Rendezvous as participant `me` at virtual time `now`, depositing
    /// `contrib`; returns the round number and every participant's
    /// contribution, in participant order. A participant that waits parks
    /// under `site`, the name a deadlock report gives it.
    ///
    /// # Panics
    /// Panics if `me` deposits twice in one round (program error), or if
    /// it must wait outside a simulation task.
    pub fn exchange(
        &self,
        me: usize,
        contrib: T,
        now: VTime,
        site: &'static str,
    ) -> (u64, Arc<Vec<T>>) {
        let mut st = unpoison(self.state.lock());
        let seq = st.seq;
        assert!(
            st.contribs[me].is_none(),
            "participant {me} entered the same round twice"
        );
        st.contribs[me] = Some(contrib);
        st.arrived += 1;
        if st.arrived == st.contribs.len() {
            let all = st
                .contribs
                .iter_mut()
                .map(|c| c.take().expect("all participants deposited"))
                .collect();
            st.published = Some(Arc::new(all));
            st.arrived = 0;
            st.seq += 1;
            self.ws.notify_all(now);
        }
        while st.seq == seq {
            st = self.ws.wait(&self.state, st, now, site);
        }
        let all = st.published.clone().expect("published by the last arriver");
        (seq, all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{self, SimBackend, TaskFn, MIN_STACK_BYTES};
    use std::panic::AssertUnwindSafe;

    #[test]
    fn exchanges_values_and_rounds() {
        for backend in [SimBackend::Event, SimBackend::Thread] {
            let slot = ExchangeSlot::new(3);
            let seen = Mutex::new(Vec::new());
            let tasks: Vec<TaskFn> = (0..3)
                .map(|me| {
                    let (slot, seen) = (&slot, &seen);
                    Box::new(move || {
                        let (s0, v0) = slot.exchange(me, me * 10, VTime(me as u64), "test");
                        let (s1, v1) = slot.exchange(me, me + 100, VTime::ZERO, "test");
                        unpoison(seen.lock()).push((s0, v0, s1, v1));
                    }) as TaskFn
                })
                .collect();
            sched::run_tasks(backend, MIN_STACK_BYTES, tasks);
            let seen = unpoison(seen.into_inner());
            assert_eq!(seen.len(), 3);
            for (s0, v0, s1, v1) in seen {
                assert_eq!(s0, 0);
                assert_eq!(*v0, vec![0, 10, 20]);
                assert_eq!(s1, 1);
                assert_eq!(*v1, vec![100, 101, 102]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "deadlock in the simulated program?): task 0 in test rendezvous")]
    fn missing_participant_times_out() {
        // A participant whose peer never arrives is reported at once, with
        // its site, alike on both carriers.
        let lone = |backend| {
            let task: TaskFn = Box::new(|| {
                ExchangeSlot::new(2).exchange(0, (), VTime::ZERO, "test rendezvous");
            });
            let run = AssertUnwindSafe(|| sched::run_tasks(backend, MIN_STACK_BYTES, vec![task]));
            std::panic::catch_unwind(run).expect_err("a lone participant deadlocks")
        };
        let (thread, event) = (lone(SimBackend::Thread), lone(SimBackend::Event));
        assert_eq!(
            thread.downcast_ref::<String>(),
            event.downcast_ref::<String>()
        );
        std::panic::resume_unwind(event);
    }

    #[test]
    fn singleton_slot_is_immediate() {
        let slot = ExchangeSlot::new(1);
        let (seq, all) = slot.exchange(0, 7u32, VTime::ZERO, "test");
        assert_eq!(seq, 0);
        assert_eq!(*all, vec![7]);
    }
}
