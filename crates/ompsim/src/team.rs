//! Shared thread-team state: barriers, deterministic worksharing
//! dispensers, and virtual critical sections.
//!
//! Team members are scheduler tasks (`ats_runtime::sched`), so every wait
//! here parks a task on a [`WaitSet`] and resumes in virtual-time order;
//! no wait holds a `std::sync` guard across anything that could block,
//! because the tasks may share one OS thread.

use ats_runtime::exchange::ExchangeSlot;
use ats_runtime::sched::{self, WaitSet};
use ats_runtime::{unpoison, MachineModel, VDur, VTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Everything the members of one team share: a parallel region's team,
/// or the implicit team of one that a process's initial thread forms.
#[derive(Debug)]
pub struct TeamShared {
    /// Run-unique id of this team (see [`TeamShared::id`]).
    id: OnceLock<u32>,
    /// Number of threads.
    pub(crate) size: usize,
    /// Barrier/fork/join rendezvous carrying entry clocks.
    pub(crate) barrier: ExchangeSlot<VTime>,
    /// Reduction rendezvous carrying `(entry clock, contribution)` pairs.
    pub(crate) reduction: ExchangeSlot<(VTime, f64)>,
    /// Worksharing dispensers, keyed by the team-local construct sequence
    /// number (threads reach constructs in identical SPMD order).
    pub(crate) loops: Mutex<HashMap<u64, Arc<DynSched>>>,
    /// Cost model.
    pub(crate) model: MachineModel,
    /// Named critical sections (shared with nested teams).
    pub(crate) criticals: Arc<CriticalSpace>,
    /// Sync-id allocator shared with nested teams.
    pub(crate) sync_ids: Arc<AtomicU32>,
    /// Trace-location thread-id allocator shared with nested teams.
    pub(crate) thread_ids: Arc<AtomicU32>,
    /// RNG root seed inherited by team members.
    pub(crate) seed: u64,
}

impl TeamShared {
    fn new(
        size: usize,
        model: MachineModel,
        seed: u64,
        criticals: Arc<CriticalSpace>,
        sync_ids: Arc<AtomicU32>,
        thread_ids: Arc<AtomicU32>,
    ) -> Self {
        TeamShared {
            id: OnceLock::new(),
            size,
            barrier: ExchangeSlot::new(size),
            reduction: ExchangeSlot::new(size),
            loops: Mutex::new(HashMap::new()),
            model,
            criticals,
            sync_ids,
            thread_ids,
            seed,
        }
    }

    /// The implicit team of one that a process's initial thread forms.
    /// Every team forked from it draws its id from `sync_ids` and its
    /// members' trace locations from `thread_ids`; its named critical
    /// sections are its own. Its id is taken only when a construct on it
    /// first records one.
    pub fn implicit(
        model: MachineModel,
        seed: u64,
        sync_ids: Arc<AtomicU32>,
        thread_ids: Arc<AtomicU32>,
    ) -> Self {
        let criticals = Arc::new(CriticalSpace::new());
        TeamShared::new(1, model, seed, criticals, sync_ids, thread_ids)
    }

    /// A team of `size` forked by a member of `parent`: it inherits the
    /// parent's model, seed, critical sections and id allocators, and
    /// takes its id at once.
    pub(crate) fn forked(parent: &TeamShared, size: usize) -> Self {
        let team = TeamShared::new(
            size,
            parent.model.clone(),
            parent.seed,
            parent.criticals.clone(),
            parent.sync_ids.clone(),
            parent.thread_ids.clone(),
        );
        team.id();
        team
    }

    /// Run-unique id of this team: the `comm` field of its OpenMP
    /// pseudo-collective trace events.
    pub(crate) fn id(&self) -> u32 {
        *self
            .id
            .get_or_init(|| self.sync_ids.fetch_add(1, Ordering::Relaxed))
    }

    /// Barrier exit time given all entries: last arriver plus a
    /// log2-stage combining tree.
    pub(crate) fn barrier_exit(&self, entries: &[VTime]) -> VTime {
        let latest = entries.iter().copied().max().unwrap_or(VTime::ZERO);
        latest + self.model.barrier_stage * self.model.tree_stages(entries.len()) as u64
    }

    /// Fetch or create the dispenser for worksharing construct `seq`.
    pub(crate) fn dispenser(
        &self,
        seq: u64,
        chunks: impl FnOnce() -> Vec<(usize, usize)>,
    ) -> Arc<DynSched> {
        let mut loops = unpoison(self.loops.lock());
        loops
            .entry(seq)
            .or_insert_with(|| Arc::new(DynSched::new(self.size, chunks())))
            .clone()
    }
}

/// Deterministic dynamic/guided worksharing dispenser.
///
/// Chunks are assigned by greedy list scheduling over *virtual* time: the
/// next chunk always goes to the participating thread with the smallest
/// virtual clock (ties to the lowest thread id). To make that decidable,
/// chunk execution is serialized — harmless in virtual-work mode, and
/// documented as the cost of reproducibility in real-work mode.
#[derive(Debug)]
pub(crate) struct DynSched {
    m: Mutex<DsState>,
    ws: WaitSet,
}

#[derive(Debug)]
struct DsState {
    chunks: Vec<(usize, usize)>,
    next: usize,
    /// Clock of each thread that is waiting for a turn (`None` = not yet
    /// arrived, currently executing, or finished).
    waiting: Vec<Option<VTime>>,
    arrived: usize,
    executing: bool,
}

/// One grant from the dispenser: a chunk of iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// First iteration index.
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl DynSched {
    fn new(size: usize, chunks: Vec<(usize, usize)>) -> Self {
        DynSched {
            m: Mutex::new(DsState {
                chunks,
                next: 0,
                waiting: vec![None; size],
                arrived: 0,
                executing: false,
            }),
            ws: WaitSet::new(),
        }
    }

    /// Arrive at the loop as `tid` at virtual time `clock` and ask for the
    /// first chunk. No chunk is granted before every thread has arrived.
    /// Returns `None` when the iteration space is exhausted. After
    /// executing a granted chunk, the caller must come back through
    /// [`DynSched::finish_and_acquire`] — completion and the next request
    /// are a single atomic step, so a thread is always either *executing*
    /// (dispenser reserved) or *waiting with a current clock*; there is no
    /// window in which another thread could steal its greedy turn.
    pub(crate) fn acquire(&self, tid: usize, clock: VTime) -> Option<Chunk> {
        let mut st = unpoison(self.m.lock());
        st.arrived += 1;
        self.request(st, tid, clock)
    }

    /// Atomically report completion of the previous chunk (ending at
    /// `new_clock`) and request the next one.
    pub(crate) fn finish_and_acquire(&self, tid: usize, new_clock: VTime) -> Option<Chunk> {
        let mut st = unpoison(self.m.lock());
        debug_assert!(st.executing, "finish_and_acquire without a granted chunk");
        st.executing = false;
        self.request(st, tid, new_clock)
    }

    fn request<'a>(
        &'a self,
        mut st: MutexGuard<'a, DsState>,
        tid: usize,
        clock: VTime,
    ) -> Option<Chunk> {
        st.waiting[tid] = Some(clock);
        // The waiting set changed, so the turn may have passed to another
        // thread, or the iteration space run out.
        self.ws.notify_all(clock);
        loop {
            if st.next >= st.chunks.len() {
                st.waiting[tid] = None;
                return None;
            }
            let my_turn = st.arrived == st.waiting.len()
                && !st.executing
                && st
                    .waiting
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| c.map(|c| (c, i)))
                    .min()
                    .map(|(_, i)| i)
                    == Some(tid);
            if my_turn {
                let (start, end) = st.chunks[st.next];
                st.next += 1;
                st.executing = true;
                st.waiting[tid] = None;
                return Some(Chunk { start, end });
            }
            st = self.ws.wait(&self.m, st, clock, "omp worksharing loop");
        }
    }
}

/// Compute dynamic-schedule chunk ranges: fixed `chunk` iterations each.
pub(crate) fn dynamic_chunks(iters: usize, chunk: usize) -> Vec<(usize, usize)> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::new();
    let mut i = 0;
    while i < iters {
        out.push((i, (i + chunk).min(iters)));
        i += chunk;
    }
    out
}

/// Compute guided-schedule chunk ranges: each grant takes
/// `ceil(remaining / nthreads)` iterations, never below `min_chunk`.
pub(crate) fn guided_chunks(
    iters: usize,
    nthreads: usize,
    min_chunk: usize,
) -> Vec<(usize, usize)> {
    assert!(min_chunk > 0, "minimum chunk size must be positive");
    assert!(nthreads > 0, "need at least one thread");
    let mut out = Vec::new();
    let mut i = 0;
    while i < iters {
        let remaining = iters - i;
        let take = (remaining.div_ceil(nthreads)).max(min_chunk).min(remaining);
        out.push((i, i + take));
        i += take;
    }
    out
}

/// The named-critical-section space of one process: a virtual mutex per
/// name. Entering a critical section serializes contenders in virtual time
/// (`start = max(arrival, previous holder's release)`).
#[derive(Debug, Default)]
pub(crate) struct CriticalSpace {
    locks: Mutex<HashMap<String, Arc<VirtualMutex>>>,
}

impl CriticalSpace {
    /// Create an empty space.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fetch or create the mutex for `name`.
    pub(crate) fn named(&self, name: &str) -> Arc<VirtualMutex> {
        unpoison(self.locks.lock())
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(VirtualMutex::new()))
            .clone()
    }
}

/// A mutex whose contention is accounted in virtual time.
///
/// A contender first yields at its arrival clock, so every earlier
/// arrival has already tried; contenders are therefore granted in
/// virtual-time order of arrival (ties in scheduler order), and the
/// accounted wait is exactly the serialization the program implies.
/// While a holder's body blocks, later contenders park on a [`WaitSet`];
/// no `std::sync` guard is held across the body, so a body may block or
/// nest other critical sections.
#[derive(Debug, Default)]
pub struct VirtualMutex {
    state: Mutex<VmState>,
    ws: WaitSet,
}

#[derive(Debug, Default)]
struct VmState {
    held: bool,
    free_at: VTime,
}

/// Guard-style handle produced by [`VirtualMutex::acquire`].
pub struct VmGuard<'a> {
    mutex: &'a VirtualMutex,
    /// Virtual time at which the caller actually obtained the lock.
    pub start: VTime,
    /// Time spent waiting for earlier holders.
    pub waited: VDur,
}

impl VirtualMutex {
    /// Create a free mutex.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire at virtual `arrival`, adding `lock_overhead`. The returned
    /// guard's `start` is when the body may begin.
    ///
    /// # Panics
    /// Panics when called outside a simulation task.
    pub fn acquire(&self, arrival: VTime, lock_overhead: VDur) -> VmGuard<'_> {
        sched::yield_at(arrival);
        let mut st = unpoison(self.state.lock());
        while st.held {
            st = self.ws.wait(&self.state, st, arrival, "omp lock");
        }
        st.held = true;
        let start = arrival.max(st.free_at) + lock_overhead;
        VmGuard {
            mutex: self,
            waited: start - arrival,
            start,
        }
    }
}

impl VmGuard<'_> {
    /// Release at virtual time `end` (the clock after the critical body).
    pub fn release(self, end: VTime) {
        debug_assert!(end >= self.start, "critical body ended before it began");
        let mut st = unpoison(self.mutex.state.lock());
        st.held = false;
        st.free_at = end;
        drop(st);
        self.mutex.ws.notify_all(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_testutil::{run_as_tasks, CARRIERS};

    fn t(ms: u64) -> VTime {
        VTime(ms * 1_000_000)
    }

    #[test]
    fn dynamic_chunk_ranges() {
        assert_eq!(dynamic_chunks(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(dynamic_chunks(0, 4), vec![]);
        assert_eq!(dynamic_chunks(3, 10), vec![(0, 3)]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        dynamic_chunks(10, 0);
    }

    #[test]
    fn guided_chunks_shrink() {
        let chunks = guided_chunks(32, 4, 2);
        // 32/4=8, 24/4=6, 18/4=5(ceil 4.5), 13/4=4(ceil 3.25), ...
        assert_eq!(chunks[0], (0, 8));
        assert!(chunks
            .windows(2)
            .all(|w| (w[0].1 - w[0].0) >= (w[1].1 - w[1].0)));
        assert_eq!(chunks.last().unwrap().1, 32);
        // Full coverage without gaps.
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn guided_respects_min_chunk() {
        let chunks = guided_chunks(100, 4, 10);
        for &(a, b) in &chunks[..chunks.len() - 1] {
            assert!(b - a >= 10);
        }
    }

    #[test]
    fn dispenser_grants_to_min_clock_thread() {
        for backend in CARRIERS {
            let ds = DynSched::new(2, dynamic_chunks(3, 1));
            let grants = run_as_tasks(backend, 2, |tid| {
                // Thread 0 presents smaller clocks than thread 1 (100ms)
                // until it retires at 200ms.
                let clocks = [[t(1), t(2), t(200)], [t(100); 3]][tid];
                let mut got = Vec::new();
                let mut next = ds.acquire(tid, clocks[0]);
                while let Some(c) = next {
                    got.push(c);
                    next = ds.finish_and_acquire(tid, clocks[got.len()]);
                }
                got
            });
            let chunk = |start| Chunk {
                start,
                end: start + 1,
            };
            // The min clock wins each grant; for the last chunk thread 1
            // (100ms) outranks thread 0 (200ms).
            assert_eq!(grants, [vec![chunk(0), chunk(1)], vec![chunk(2)]]);
        }
    }

    #[test]
    fn virtual_mutex_serializes_in_virtual_time() {
        for backend in CARRIERS {
            let vm = VirtualMutex::new();
            run_as_tasks(backend, 1, |_| {
                let g1 = vm.acquire(t(0), VDur::ZERO);
                assert_eq!(g1.start, t(0));
                assert_eq!(g1.waited, VDur::ZERO);
                g1.release(t(10));
                // Second contender arrived at 3 but the lock frees at 10.
                let g2 = vm.acquire(t(3), VDur::ZERO);
                assert_eq!(g2.start, t(10));
                assert_eq!(g2.waited, VDur::from_millis(7));
                g2.release(t(12));
            });
        }
    }

    #[test]
    fn critical_space_interns_by_name() {
        let cs = CriticalSpace::new();
        let a = cs.named("x");
        let b = cs.named("x");
        let c = cs.named("y");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
