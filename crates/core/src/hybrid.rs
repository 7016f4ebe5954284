//! Hybrid MPI × OpenMP glue.
//!
//! The paper's composite tests combine "performance property functions
//! from different parallel programming paradigms in the same program".
//! [`with_omp`] gives a simulated MPI rank its OpenMP initial thread, so
//! OpenMP parallel regions (and the OpenMP property functions) can run
//! *inside* an MPI rank: teams fork at the rank's virtual clock, their
//! members become tasks of the rank's own scheduler run, thread events
//! land in per-`(rank, thread)` trace locations, and the rank's clock
//! resumes at the last join.

use ats_mpi::Proc;
use ats_omp::{OmpThread, TeamShared};
use ats_trace::LocationId;

/// Run `f` on the rank's initial thread: thread 0 of an implicit team of
/// one, which records into the rank's event stream from the rank's clock
/// on. The rank's clock then moves to the thread's, past any parallel
/// regions `f` opened.
///
/// Named critical sections live for the duration of this call — two
/// regions inside one `with_omp` contend on the same names, separate
/// `with_omp` calls do not.
pub fn with_omp<R>(p: &mut Proc, f: impl FnOnce(&mut OmpThread<'_>) -> R) -> R {
    let team = TeamShared::implicit(p.model().clone(), p.seed(), p.sync_ids(), p.thread_ids());
    let location = LocationId::rank(p.rank() as u32);
    let (clock, collector, work_mode) = (p.clock(), p.collector().clone(), p.work_mode());
    let mut initial =
        OmpThread::initial(&team, location, clock, p.local_mut(), collector, work_mode);
    let out = f(&mut initial);
    let clock = initial.clock();
    p.set_clock(clock);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_mpi::SimConfig;
    use ats_omp::parallel;
    use ats_runtime::{VDur, VTime};
    use ats_trace::check_wellformed;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: ats_runtime::MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn omp_region_inside_mpi_rank_advances_rank_clock() {
        let trace = ats_mpi::run(cfg(2), |p| {
            p.do_work(VDur::from_millis(5));
            with_omp(p, |m| {
                parallel(m, 4, |th| {
                    th.do_work(VDur::from_millis((th.thread_num() as u64 + 1) * 10));
                });
            });
            assert_eq!(p.clock(), VTime::from_secs(0.045), "5 + slowest thread 40");
        });
        assert!(check_wellformed(&trace).is_empty());
        // 2 ranks x (1 master + 3 spawned threads).
        assert_eq!(trace.num_locations(), 8);
    }

    #[test]
    fn thread_locations_carry_their_rank() {
        let trace = ats_mpi::run(cfg(2), |p| {
            with_omp(p, |m| {
                parallel(m, 2, |th| th.do_work(VDur::from_millis(1)));
            });
        });
        for loc in &trace.locations {
            assert!(loc.location.rank < 2);
        }
        let spawned: Vec<_> = trace
            .locations
            .iter()
            .filter(|l| l.location.thread != 0)
            .collect();
        assert_eq!(spawned.len(), 2, "one spawned thread per rank");
    }

    #[test]
    fn mpi_after_omp_sees_advanced_clock() {
        ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            with_omp(p, |m| {
                parallel(m, 2, |th| th.do_work(VDur::from_millis(3)));
            });
            assert_eq!(p.clock(), VTime::from_secs(0.003));
            p.barrier(&c);
            assert_eq!(p.clock(), VTime::from_secs(0.003), "both ranks aligned");
        });
    }

    #[test]
    fn hybrid_barrier_after_imbalanced_region() {
        // Ranks do differently-sized OMP regions, then meet at an MPI
        // barrier: the barrier wait equals the inter-rank difference.
        ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            let rank_ms = (p.rank() as u64 + 1) * 10;
            with_omp(p, |m| {
                parallel(m, 2, |th| th.do_work(VDur::from_millis(rank_ms)));
            });
            p.barrier(&c);
            assert_eq!(p.clock(), VTime::from_secs(0.020));
        });
    }
}
