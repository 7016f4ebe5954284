//! Parallel regions and the per-thread handle.
//!
//! [`parallel`] forks a team off any [`Master`], hands each member an
//! [`OmpThread`], and joins them back with OpenMP fork/join virtual-time
//! semantics: members start at `master clock + fork_overhead`, and the
//! master resumes at `max(member end clocks) + join_overhead` — so any
//! imbalance among the members becomes master-visible idle time, which is
//! precisely the paper's *Imbalance in Parallel Region* property.
//!
//! The master runs member 0 itself; every other member is a task spawned
//! into the master's scheduler run (`ats_runtime::sched::scope`), with the
//! run's carrier and stack size, so teams — nested ones included — are
//! ordered by the same virtual-time scheduler as MPI ranks. MPI calls
//! belong in serial regions, where only the master runs — see
//! `mpi_in_omp_serial`.

use crate::master::Master;
use crate::team::{dynamic_chunks, guided_chunks, CriticalSpace, TeamShared};
use ats_runtime::exchange::ExchangeSlot;
use ats_runtime::sched;
use ats_runtime::{MachineModel, VDur, VTime, WorkEngine, WorkMode};
use ats_trace::{CollOp, LocalTrace, LocationId, RegionId, RegionKind, TraceCollector};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Where a member's events go: spawned members own their stream, the
/// master (thread 0) borrows the master's.
enum LocalSink<'t> {
    Owned(Option<LocalTrace>),
    Borrowed(&'t mut LocalTrace),
}

impl LocalSink<'_> {
    fn get(&mut self) -> &mut LocalTrace {
        match self {
            LocalSink::Owned(l) => l.as_mut().expect("owned sink already submitted"),
            LocalSink::Borrowed(l) => l,
        }
    }
}

/// Loop schedule selector, mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Chunks assigned round-robin at compile time. `None` = one
    /// contiguous block per thread.
    Static(Option<usize>),
    /// Chunks of the given size handed out greedily in virtual time.
    Dynamic(usize),
    /// Exponentially shrinking chunks with the given minimum.
    Guided(usize),
}

/// A member of a parallel-region team.
pub struct OmpThread<'t> {
    tid: usize,
    location: LocationId,
    clock: VTime,
    team: &'t TeamShared,
    local: LocalSink<'t>,
    engine: WorkEngine,
    collector: TraceCollector,
    construct_seq: u64,
    r_work: RegionId,
}

impl<'t> OmpThread<'t> {
    /// This thread's id within its team (`omp_get_thread_num`).
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// Team size (`omp_get_num_threads`).
    pub fn num_threads(&self) -> usize {
        self.team.size
    }

    /// The thread's trace location.
    pub fn location(&self) -> LocationId {
        self.location
    }

    /// Current virtual clock.
    pub fn clock(&self) -> VTime {
        self.clock
    }

    /// Advance the clock without recording work.
    pub fn advance(&mut self, d: VDur) {
        self.clock += d;
    }

    /// The thread's private RNG stream.
    pub fn rng(&mut self) -> &mut ats_runtime::SplitMix64 {
        self.engine.rng()
    }

    /// The ATS `do_work` on this thread.
    pub fn do_work(&mut self, amount: VDur) {
        if amount.is_zero() {
            return;
        }
        let r = self.r_work;
        let t0 = self.clock;
        self.local.get().enter(t0, r);
        self.engine.do_work(amount);
        self.clock += amount;
        let t1 = self.clock;
        self.local.get().exit(t1, r);
    }

    /// Open a named region at the current clock.
    pub fn enter_region(&mut self, name: &str, kind: RegionKind) {
        let id = self.collector.intern(name, kind);
        let t = self.clock;
        self.local.get().enter(t, id);
    }

    /// Close a named region at the current clock.
    pub fn exit_region(&mut self, name: &str) {
        let id = self.collector.intern(name, RegionKind::User);
        let t = self.clock;
        self.local.get().exit(t, id);
    }

    /// Explicit team barrier (`#pragma omp barrier`).
    pub fn barrier(&mut self) {
        let r = self.collector.intern("omp_barrier", RegionKind::OmpSync);
        let entry = self.clock;
        self.local.get().enter(entry, r);
        let (seq, entries) = self
            .team
            .barrier
            .exchange(self.tid, entry, entry, "omp barrier");
        let exit = self.team.barrier_exit(&entries);
        self.clock = exit;
        self.local
            .get()
            .coll_end(exit, CollOp::OmpBarrier, self.team.id, None, seq, 0, entry);
        self.local.get().exit(exit, r);
    }

    /// Team-wide reduction (the `reduction` clause): every thread
    /// contributes a value; everyone receives the combined result. Timing
    /// is barrier-like (the last arriver releases the team), recorded as an
    /// `omp_barrier` pseudo-collective so analyzers see the synchronization.
    pub fn team_reduce(&mut self, value: f64, combine: impl Fn(f64, f64) -> f64) -> f64 {
        let r = self.collector.intern("omp_reduction", RegionKind::OmpSync);
        let entry = self.clock;
        self.local.get().enter(entry, r);
        let (seq, all) =
            self.team
                .reduction
                .exchange(self.tid, (entry, value), entry, "omp reduction");
        let entries: Vec<VTime> = all.iter().map(|(e, _)| *e).collect();
        let exit = self.team.barrier_exit(&entries);
        self.clock = exit;
        self.local.get().coll_end(
            exit,
            CollOp::OmpBarrier,
            self.team.id,
            None,
            // Reduction rounds share the team id but use their own slot;
            // offset the sequence space so instances never collide with
            // plain barriers.
            seq | (1 << 62),
            8,
            entry,
        );
        self.local.get().exit(exit, r);
        all[1..]
            .iter()
            .fold(all[0].1, |acc, (_, v)| combine(acc, *v))
    }

    /// Worksharing loop (`#pragma omp for`) over `0..iters` with the given
    /// schedule, ending in the implicit barrier.
    pub fn for_loop(
        &mut self,
        iters: usize,
        schedule: Schedule,
        mut body: impl FnMut(&mut Self, usize),
    ) {
        let r = self.collector.intern("omp_for", RegionKind::OmpWorkshare);
        let t0 = self.clock;
        self.local.get().enter(t0, r);
        self.construct_seq += 1;
        match schedule {
            Schedule::Static(chunk) => {
                let n = self.team.size;
                let c = chunk.unwrap_or_else(|| iters.div_ceil(n).max(1));
                let mut chunk_index = 0;
                let mut i = 0;
                while i < iters {
                    let end = (i + c).min(iters);
                    if chunk_index % n == self.tid {
                        for it in i..end {
                            body(self, it);
                        }
                    }
                    i = end;
                    chunk_index += 1;
                }
            }
            Schedule::Dynamic(chunk) => {
                let seq = self.construct_seq;
                let ds = self.team.dispenser(seq, || dynamic_chunks(iters, chunk));
                self.run_dispensed(&ds, &mut body);
            }
            Schedule::Guided(min_chunk) => {
                let seq = self.construct_seq;
                let nthreads = self.team.size;
                let ds = self
                    .team
                    .dispenser(seq, || guided_chunks(iters, nthreads, min_chunk));
                self.run_dispensed(&ds, &mut body);
            }
        }
        self.barrier();
        let t1 = self.clock;
        self.local.get().exit(t1, r);
    }

    fn run_dispensed(
        &mut self,
        ds: &crate::team::DynSched,
        body: &mut impl FnMut(&mut Self, usize),
    ) {
        let mut next = ds.acquire(self.tid, self.clock);
        while let Some(chunk) = next {
            self.clock += self.team.model.chunk_dispatch;
            for it in chunk.start..chunk.end {
                body(self, it);
            }
            next = ds.finish_and_acquire(self.tid, self.clock);
        }
    }

    /// Worksharing sections (`#pragma omp sections`): section `i` runs on
    /// thread `i mod team_size`, with the implicit barrier at the end.
    pub fn sections(&mut self, sections: &mut [&mut dyn FnMut(&mut Self)]) {
        let r = self
            .collector
            .intern("omp_sections", RegionKind::OmpWorkshare);
        let t0 = self.clock;
        self.local.get().enter(t0, r);
        let n = self.team.size;
        for (i, section) in sections.iter_mut().enumerate() {
            if i % n == self.tid {
                section(self);
            }
        }
        self.barrier();
        let t1 = self.clock;
        self.local.get().exit(t1, r);
    }

    /// `#pragma omp single`: the construct runs on thread 0 (a fixed,
    /// reproducible choice); everyone synchronizes at the implicit barrier.
    pub fn single(&mut self, body: impl FnOnce(&mut Self)) {
        let r = self
            .collector
            .intern("omp_single", RegionKind::OmpWorkshare);
        let t0 = self.clock;
        self.local.get().enter(t0, r);
        if self.tid == 0 {
            body(self);
        }
        self.barrier();
        let t1 = self.clock;
        self.local.get().exit(t1, r);
    }

    /// `#pragma omp master`: thread 0 only, no synchronization.
    pub fn master_only(&mut self, body: impl FnOnce(&mut Self)) {
        let r = self
            .collector
            .intern("omp_master", RegionKind::OmpWorkshare);
        let t0 = self.clock;
        self.local.get().enter(t0, r);
        if self.tid == 0 {
            body(self);
        }
        let t1 = self.clock;
        self.local.get().exit(t1, r);
    }

    /// Acquire an explicit lock object (`omp_set_lock`/`omp_unset_lock`)
    /// around `body`. Same virtual-time contention semantics as
    /// [`OmpThread::critical`], but the lock is a first-class value that
    /// can be shared between teams or stored in data structures, recorded
    /// under `omp_lock`/`omp_lock_body` regions.
    pub fn with_lock(&mut self, lock: &crate::team::VirtualMutex, body: impl FnOnce(&mut Self)) {
        let r_lock = self.collector.intern("omp_lock", RegionKind::OmpSync);
        let r_body = self.collector.intern("omp_lock_body", RegionKind::OmpSync);
        let arrival = self.clock;
        self.local.get().enter(arrival, r_lock);
        let guard = lock.acquire(arrival, self.team.model.lock_overhead);
        self.clock = guard.start;
        let start = self.clock;
        self.local.get().enter(start, r_body);
        body(self);
        let end = self.clock;
        guard.release(end);
        self.local.get().exit(end, r_body);
        self.local.get().exit(end, r_lock);
    }

    /// Named critical section (`#pragma omp critical(name)`).
    ///
    /// Contenders are granted in virtual-time order of arrival and
    /// serialize in virtual time; the time between arrival and
    /// acquisition is recorded as the gap between the `omp_critical` and
    /// `omp_critical_body` region entries — the signal the analyzer's
    /// contention pattern consumes.
    pub fn critical(&mut self, name: &str, body: impl FnOnce(&mut Self)) {
        let r_crit = self.collector.intern("omp_critical", RegionKind::OmpSync);
        let r_body = self
            .collector
            .intern("omp_critical_body", RegionKind::OmpSync);
        let arrival = self.clock;
        self.local.get().enter(arrival, r_crit);
        let vm = self.team.criticals.named(name);
        let guard = vm.acquire(arrival, self.team.model.lock_overhead);
        self.clock = guard.start;
        let start = self.clock;
        self.local.get().enter(start, r_body);
        body(self);
        let end = self.clock;
        guard.release(end);
        self.local.get().exit(end, r_body);
        self.local.get().exit(end, r_crit);
    }
}

impl Master for OmpThread<'_> {
    fn rank(&self) -> u32 {
        self.location.rank
    }
    fn location(&self) -> LocationId {
        self.location
    }
    fn clock(&self) -> VTime {
        self.clock
    }
    fn set_clock(&mut self, t: VTime) {
        assert!(t >= self.clock, "clock may not move backwards");
        self.clock = t;
    }
    fn collector(&self) -> &TraceCollector {
        &self.collector
    }
    fn local_mut(&mut self) -> &mut LocalTrace {
        self.local.get()
    }
    fn model(&self) -> &MachineModel {
        &self.team.model
    }
    fn work_mode(&self) -> WorkMode {
        self.engine.mode()
    }
    fn seed(&self) -> u64 {
        self.team.seed
    }
    fn sync_ids(&self) -> Arc<AtomicU32> {
        self.team.sync_ids.clone()
    }
    fn thread_ids(&self) -> Arc<AtomicU32> {
        self.team.thread_ids.clone()
    }
    fn criticals(&self) -> Arc<CriticalSpace> {
        self.team.criticals.clone()
    }
}

/// Fork a team of `nthreads` (including the master as thread 0), run
/// `body` on every member, and join.
///
/// Spawned members receive fresh trace locations `(rank, base + k)` from
/// the master's thread-id allocator; the master keeps its own location, so
/// its in-region events nest inside its `omp_parallel` frame.
///
/// # Panics
/// Panics outside a scheduler task; a member's panic fails the whole run
/// with that member's payload.
pub fn parallel<M: Master + ?Sized>(
    m: &mut M,
    nthreads: usize,
    body: impl Fn(&mut OmpThread) + Sync,
) {
    assert!(nthreads >= 1, "a team needs at least one thread");
    let model = m.model().clone();
    let collector = m.collector().clone();
    let rank = m.rank();
    let seed = m.seed();
    let work_mode = m.work_mode();
    let master_loc = m.location();
    let r_par = collector.intern("omp_parallel", RegionKind::OmpParallel);
    let r_work = collector.intern("do_work", RegionKind::Work);

    let t0 = m.clock();
    m.local_mut().enter(t0, r_par);
    // Forked threads inherit the master's open call path (as OPARI-style
    // instrumentation does), so their waits can be localized to the
    // enclosing property frame / user phase.
    let inherited: Vec<RegionId> = m.local_mut().open_stack().to_vec();
    let start = t0 + model.fork_overhead;

    let team = TeamShared {
        id: m.alloc_sync_id(),
        size: nthreads,
        barrier: ExchangeSlot::new(nthreads),
        reduction: ExchangeSlot::new(nthreads),
        loops: Mutex::new(HashMap::new()),
        model: model.clone(),
        criticals: m.criticals(),
        sync_ids: m.sync_ids(),
        thread_ids: m.thread_ids(),
        seed,
    };
    let base = if nthreads > 1 {
        team.thread_ids
            .fetch_add(nthreads as u32 - 1, Ordering::Relaxed)
    } else {
        0
    };

    let mk_engine =
        |thread_id: u32| WorkEngine::new(work_mode, seed, ((rank as u64) << 32) | thread_id as u64);

    let join_time = sched::scope(|s| {
        for tid in 1..nthreads {
            let loc = LocationId::new(rank, base + (tid as u32) - 1);
            let collector = collector.clone();
            let (team, body, inherited) = (&team, &body, &inherited);
            let engine = mk_engine(loc.thread);
            s.spawn(start, move || {
                let mut local = collector.local(loc);
                for r in inherited {
                    local.enter(start, *r);
                }
                let mut th = OmpThread {
                    tid,
                    location: loc,
                    clock: start,
                    team,
                    local: LocalSink::Owned(Some(local)),
                    engine,
                    collector: collector.clone(),
                    construct_seq: 0,
                    r_work,
                };
                body(&mut th);
                let join = join_team(&mut th);
                for r in inherited.iter().rev() {
                    th.local.get().exit(join, *r);
                }
                if let LocalSink::Owned(l) = &mut th.local {
                    collector.submit(l.take().expect("not yet submitted"));
                }
            });
        }
        let mut th0 = OmpThread {
            tid: 0,
            location: master_loc,
            clock: start,
            team: &team,
            local: LocalSink::Borrowed(m.local_mut()),
            engine: mk_engine(master_loc.thread),
            collector: collector.clone(),
            construct_seq: 0,
            r_work,
        };
        body(&mut th0);
        join_team(&mut th0)
    });
    m.set_clock(join_time + model.join_overhead);
    let t_end = m.clock();
    m.local_mut().exit(t_end, r_par);
}

/// The implicit barrier ending a parallel region: exchange end clocks,
/// record the join pseudo-collective, and return the join time.
fn join_team(th: &mut OmpThread<'_>) -> VTime {
    let entry = th.clock;
    let (seq, ends) = th.team.barrier.exchange(th.tid, entry, entry, "omp join");
    let join = ends.iter().copied().max().unwrap_or(entry);
    th.clock = join;
    th.local
        .get()
        .coll_end(join, CollOp::OmpJoin, th.team.id, None, seq, 0, entry);
    join
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::{run_omp, OmpConfig};
    use ats_runtime::{unpoison, MachineModel};
    use ats_testutil::{panic_message, panics_alike_on_both_carriers, run_as_tasks, CARRIERS};
    use ats_trace::{check_wellformed, TraceStats};
    use std::panic::AssertUnwindSafe;

    fn zero_cfg() -> OmpConfig {
        OmpConfig {
            model: MachineModel::zero(),
            ..Default::default()
        }
    }

    fn t(ms: u64) -> VTime {
        VTime(ms * 1_000_000)
    }

    #[test]
    fn team_runs_all_threads() {
        use std::sync::atomic::AtomicUsize;
        let ran = AtomicUsize::new(0);
        run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                assert_eq!(th.num_threads(), 4);
                ran.fetch_add(1 << th.thread_num(), Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn join_waits_for_slowest_thread() {
        let trace = run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                th.do_work(VDur::from_millis(10 * (th.thread_num() as u64 + 1)));
            });
            assert_eq!(m.clock(), t(40), "master resumes at the slowest thread");
        });
        assert!(check_wellformed(&trace).is_empty());
        assert_eq!(trace.num_locations(), 4);
    }

    #[test]
    fn barrier_aligns_team() {
        run_omp(zero_cfg(), |m| {
            parallel(m, 3, |th| {
                th.do_work(VDur::from_millis(5 * (th.thread_num() as u64 + 1)));
                th.barrier();
                assert_eq!(th.clock(), t(15));
            });
        });
    }

    #[test]
    fn fork_and_join_overheads_charged() {
        let mut cfg = zero_cfg();
        cfg.model.fork_overhead = VDur::from_millis(2);
        cfg.model.join_overhead = VDur::from_millis(1);
        run_omp(cfg, |m| {
            m.do_work(VDur::from_millis(10));
            parallel(m, 2, |th| {
                assert_eq!(th.clock(), t(12), "threads start after fork overhead");
                th.do_work(VDur::from_millis(5));
            });
            assert_eq!(m.clock(), t(18), "10 + fork 2 + work 5 + join 1");
        });
    }

    #[test]
    fn static_schedule_round_robins_chunks() {
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                th.for_loop(6, Schedule::Static(Some(1)), |th, i| {
                    unpoison(seen.lock()).push((th.thread_num(), i));
                });
            });
        });
        let mut v = unpoison(seen.into_inner());
        v.sort_unstable();
        assert_eq!(v, vec![(0, 0), (0, 2), (0, 4), (1, 1), (1, 3), (1, 5)]);
    }

    #[test]
    fn static_default_blocks_are_contiguous() {
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                th.for_loop(8, Schedule::Static(None), |th, i| {
                    unpoison(seen.lock()).push((th.thread_num(), i));
                });
            });
        });
        let mut v = unpoison(seen.into_inner());
        v.sort_unstable();
        assert_eq!(
            v,
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (1, 5),
                (1, 6),
                (1, 7),
            ]
        );
    }

    #[test]
    fn dynamic_schedule_covers_all_iterations_exactly_once() {
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        run_omp(zero_cfg(), |m| {
            parallel(m, 3, |th| {
                th.for_loop(10, Schedule::Dynamic(2), |_, i| {
                    unpoison(seen.lock()).push(i);
                });
            });
        });
        let mut v = unpoison(seen.into_inner());
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_schedule_balances_virtual_time() {
        // 4 chunks of wildly different costs on 2 threads: greedy list
        // scheduling should end both threads at similar clocks.
        let costs = [40u64, 10, 10, 10];
        run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                th.for_loop(4, Schedule::Dynamic(1), |th, i| {
                    th.do_work(VDur::from_millis(costs[i]));
                });
                // Greedy: t0 takes chunk0 (40); t1 takes 10+10+10 = 30.
                // Barrier aligns at 40.
                assert_eq!(th.clock(), t(40));
            });
        });
    }

    #[test]
    fn guided_schedule_covers_all_iterations() {
        use std::sync::atomic::AtomicUsize;
        let count = AtomicUsize::new(0);
        run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                th.for_loop(100, Schedule::Guided(4), |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_runs_once_with_barrier() {
        use std::sync::atomic::AtomicUsize;
        let runs = AtomicUsize::new(0);
        run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                th.single(|th| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    th.do_work(VDur::from_millis(7));
                });
                // Implicit barrier: everyone leaves at the single's end.
                assert_eq!(th.clock(), t(7));
            });
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn master_only_does_not_synchronize() {
        run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                th.master_only(|th| th.do_work(VDur::from_millis(9)));
                if th.thread_num() == 1 {
                    assert_eq!(th.clock(), VTime::ZERO);
                }
                th.barrier();
            });
        });
    }

    #[test]
    fn sections_distribute_round_robin() {
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                let mut s0 = |th: &mut OmpThread| {
                    unpoison(seen.lock()).push((th.thread_num(), 0));
                };
                let mut s1 = |th: &mut OmpThread| {
                    unpoison(seen.lock()).push((th.thread_num(), 1));
                };
                let mut s2 = |th: &mut OmpThread| {
                    unpoison(seen.lock()).push((th.thread_num(), 2));
                };
                th.sections(&mut [&mut s0, &mut s1, &mut s2]);
            });
        });
        let mut v = unpoison(seen.into_inner());
        v.sort_unstable();
        assert_eq!(v, vec![(0, 0), (0, 2), (1, 1)]);
    }

    #[test]
    fn critical_serializes_in_virtual_time() {
        run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                th.critical("update", |th| th.do_work(VDur::from_millis(5)));
                th.barrier();
                // 4 threads x 5ms serialized: last release at 20ms.
                assert_eq!(th.clock(), t(20));
            });
        });
    }

    #[test]
    fn critical_records_wait_and_body_regions() {
        let trace = run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                th.critical("c", |th| th.do_work(VDur::from_millis(3)));
            });
        });
        let stats = TraceStats::compute(&trace);
        let crit = trace.find_region("omp_critical").unwrap();
        let body = trace.find_region("omp_critical_body").unwrap();
        // Total body time 6ms; total critical occupancy 3 + 6 = 9ms
        // (second contender waits 3ms).
        assert_eq!(stats.region_total(body).inclusive, VDur::from_millis(6));
        assert_eq!(stats.region_total(crit).inclusive, VDur::from_millis(9));
    }

    #[test]
    fn distinct_critical_names_do_not_contend() {
        run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                let name = if th.thread_num() == 0 { "a" } else { "b" };
                th.critical(name, |th| th.do_work(VDur::from_millis(5)));
                assert_eq!(th.clock(), t(5), "no cross-name contention");
                th.barrier();
            });
        });
    }

    #[test]
    fn nested_parallelism_forks_subteams() {
        use std::sync::atomic::AtomicUsize;
        let leaf_runs = AtomicUsize::new(0);
        let trace = run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| {
                let outer = th.thread_num();
                parallel(th, 2, |inner| {
                    leaf_runs.fetch_add(1, Ordering::Relaxed);
                    inner.do_work(VDur::from_millis(
                        (outer * 2 + inner.thread_num() + 1) as u64,
                    ));
                });
            });
            // Slowest leaf: outer 1, inner 1 -> 4ms.
            assert_eq!(m.clock(), t(4));
        });
        assert_eq!(leaf_runs.load(Ordering::Relaxed), 4);
        assert!(check_wellformed(&trace).is_empty());
        // 1 master + 1 outer + 2 inner spawned locations.
        assert_eq!(trace.num_locations(), 4);
    }

    #[test]
    fn sequential_regions_reuse_master_location() {
        let trace = run_omp(zero_cfg(), |m| {
            parallel(m, 2, |th| th.do_work(VDur::from_millis(1)));
            parallel(m, 2, |th| th.do_work(VDur::from_millis(1)));
        });
        assert!(check_wellformed(&trace).is_empty());
        // Master location 0 plus one spawned location per region.
        assert_eq!(trace.num_locations(), 3);
        let master = trace.location(LocationId::rank(0)).unwrap();
        let regions: Vec<_> = master
            .events
            .iter()
            .filter(|e| e.enter_region().is_some())
            .collect();
        assert!(regions.len() >= 4, "two region frames plus work frames");
    }

    #[test]
    fn omp_traces_are_deterministic() {
        let program = |m: &mut crate::master::SeqMaster| {
            parallel(m, 4, |th| {
                th.do_work(VDur::from_millis(th.thread_num() as u64 + 1));
                th.barrier();
                th.for_loop(8, Schedule::Dynamic(1), |th, i| {
                    th.do_work(VDur::from_millis((i % 3 + 1) as u64));
                });
                th.critical("c", |th| th.do_work(VDur::from_millis(1)));
                th.barrier();
            });
        };
        let a = run_omp(zero_cfg(), program);
        let b = run_omp(zero_cfg(), program);
        assert_eq!(a.regions, b.regions);
        // Every stream, critical-section acquisition order included.
        assert_eq!(a.locations, b.locations);
    }

    #[test]
    fn imbalance_at_barrier_shape() {
        // The paper's imbalance_at_omp_barrier inner loop: unequal work
        // then a barrier; the trace must show per-thread waits equal to the
        // programmed imbalance.
        let trace = run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                th.do_work(VDur::from_millis(10 * (th.thread_num() as u64 + 1)));
                th.barrier();
            });
        });
        let stats = TraceStats::compute(&trace);
        let bar = trace.find_region("omp_barrier").unwrap();
        // Thread with 10ms of work waits 30ms; total barrier occupancy =
        // 30 + 20 + 10 + 0 = 60ms.
        assert_eq!(stats.region_total(bar).inclusive, VDur::from_millis(60));
    }

    #[test]
    fn team_reduce_combines_and_synchronizes() {
        run_omp(zero_cfg(), |m| {
            parallel(m, 4, |th| {
                th.do_work(VDur::from_millis(5 * (th.thread_num() as u64 + 1)));
                let sum = th.team_reduce((th.thread_num() + 1) as f64, |a, b| a + b);
                assert_eq!(sum, 10.0);
                // Barrier-like: everyone leaves at the last arriver (20ms).
                assert_eq!(th.clock(), t(20));
                let max = th.team_reduce(th.thread_num() as f64, f64::max);
                assert_eq!(max, 3.0);
            });
        });
    }

    #[test]
    #[should_panic(expected = "kaput")]
    fn member_panic_propagates() {
        // Thread 0 heads into a barrier its peer never reaches: it is
        // unwound, and the member's own payload surfaces.
        panics_alike_on_both_carriers(|| {
            run_omp(zero_cfg(), |m| {
                parallel(m, 2, |th| {
                    if th.thread_num() == 1 {
                        panic!("kaput");
                    }
                    th.barrier();
                });
            });
        });
    }

    #[test]
    fn nested_member_panic_unwinds_children_before_their_parents() {
        struct Dropped<'a>(&'a Mutex<Vec<String>>, String);
        impl Drop for Dropped<'_> {
            fn drop(&mut self) {
                unpoison(self.0.lock()).push(std::mem::take(&mut self.1));
            }
        }
        for backend in CARRIERS {
            let log = Mutex::new(Vec::new());
            let program = |_| {
                run_omp(zero_cfg(), |m| {
                    let _master = Dropped(&log, "master".into());
                    parallel(m, 2, |outer| {
                        let o = outer.thread_num();
                        let _outer = Dropped(&log, format!("outer{o}"));
                        parallel(outer, 2, |inner| {
                            let i = inner.thread_num();
                            let _inner = Dropped(&log, format!("inner{o}.{i}"));
                            if (o, i) == (1, 1) {
                                // Let both masters reach their joins first.
                                inner.do_work(VDur::from_millis(5));
                                inner.critical("late", |_| panic!("nested member"));
                            }
                        });
                    });
                });
            };
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_as_tasks(backend, 1, program);
            }))
            .expect_err("the member panic propagates");
            assert_eq!(panic_message(&*err), "nested member", "{backend}");
            // The other bodies returned before the panic. Still live were
            // the panicking member, outer member 1 (its master, waiting at
            // the inner join) and the program's master (waiting at the outer
            // join): they unwind child first, so no frame a member borrows
            // goes away before the member does.
            let log = unpoison(log.into_inner());
            assert_eq!(log.len(), 7, "{backend}: {log:?}");
            assert_eq!(
                log[4..],
                ["inner1.1", "outer1", "master"],
                "{backend}: {log:?}"
            );
        }
    }

    #[test]
    fn nested_critical_sections_complete_across_a_team() {
        for backend in CARRIERS {
            run_as_tasks(backend, 1, |_| {
                run_omp(zero_cfg(), |m| {
                    parallel(m, 3, |th| {
                        th.critical("a", |th| {
                            th.do_work(VDur::from_millis(1));
                            th.critical("b", |th| th.do_work(VDur::from_millis(2)));
                        });
                        th.barrier();
                        // Three holders of "a" for 3ms each, back to back.
                        assert_eq!(th.clock(), t(9));
                    });
                });
            });
        }
    }
}
