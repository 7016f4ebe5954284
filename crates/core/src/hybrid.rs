//! Hybrid MPI × OpenMP glue.
//!
//! The paper's composite tests combine "performance property functions
//! from different parallel programming paradigms in the same program".
//! [`with_omp`] adapts a simulated MPI rank into an [`ats_omp::Master`], so
//! OpenMP parallel regions (and the OpenMP property functions) can run
//! *inside* an MPI rank: the team forks at the rank's virtual clock, its
//! members become tasks of the rank's own scheduler run, thread events
//! land in per-`(rank, thread)` trace locations, and the rank's clock
//! resumes at the join.

use ats_mpi::Proc;
use ats_omp::{CriticalSpace, Master};
use ats_runtime::{MachineModel, VTime, WorkMode};
use ats_trace::{LocalTrace, LocationId, TraceCollector};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// An MPI rank acting as the master of OpenMP parallel regions.
pub struct HybridMaster<'a> {
    proc: &'a mut Proc,
    criticals: Arc<CriticalSpace>,
}

impl Master for HybridMaster<'_> {
    fn rank(&self) -> u32 {
        self.proc.rank() as u32
    }
    fn location(&self) -> LocationId {
        LocationId::rank(self.proc.rank() as u32)
    }
    fn clock(&self) -> VTime {
        self.proc.clock()
    }
    fn set_clock(&mut self, t: VTime) {
        self.proc.set_clock(t);
    }
    fn collector(&self) -> &TraceCollector {
        self.proc.collector()
    }
    fn local_mut(&mut self) -> &mut LocalTrace {
        self.proc.local_mut()
    }
    fn model(&self) -> &MachineModel {
        self.proc.model()
    }
    fn work_mode(&self) -> WorkMode {
        self.proc.work_mode()
    }
    fn seed(&self) -> u64 {
        self.proc.seed()
    }
    fn sync_ids(&self) -> Arc<AtomicU32> {
        self.proc.sync_ids()
    }
    fn thread_ids(&self) -> Arc<AtomicU32> {
        self.proc.thread_ids()
    }
    fn criticals(&self) -> Arc<CriticalSpace> {
        self.criticals.clone()
    }
}

impl<'a> HybridMaster<'a> {
    /// Direct access to the underlying rank (for MPI calls between
    /// parallel regions).
    pub fn proc(&mut self) -> &mut Proc {
        self.proc
    }
}

/// Run `f` with the rank adapted into an OpenMP master. The rank's clock
/// advances through any parallel regions `f` opens.
///
/// Named critical sections live for the duration of this call — two
/// regions inside one `with_omp` contend on the same names, separate
/// `with_omp` calls do not.
pub fn with_omp<R>(p: &mut Proc, f: impl FnOnce(&mut HybridMaster<'_>) -> R) -> R {
    let mut master = HybridMaster {
        proc: p,
        criticals: Arc::new(CriticalSpace::new()),
    };
    f(&mut master)
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
