//! Hybrid MPI × OpenMP performance properties.
//!
//! The paper extends its catalog to "a hybrid MPI/OpenMP programming
//! style, especially with the Hitachi SR-8000 in mind" [Gerndt 2002]. The
//! canonical hybrid pathologies are cross-level: imbalance *inside* a
//! rank's thread team turning into MPI wait states *between* ranks, and
//! thread idleness while the master communicates. These functions build
//! exactly those shapes from the two substrates.

use super::frame_mpi;
use crate::buffer::BaseComm;
use crate::distribution::Distr;
use crate::hybrid::with_omp;
use crate::pattern::{sendrecv, Dir, PatternMode};
use ats_mpi::{Comm, Proc};
use ats_omp::parallel;
use ats_runtime::VDur;

/// The rank-level work scale the catalog entry
/// `omp_imbalance_at_mpi_barrier` passes as `rank_df`: spreading the
/// ranks' team loads makes the thread imbalance also skew the ranks
/// against each other at the MPI barrier.
pub const CATALOG_RANK_SCALE: Distr = Distr::linear(0.5, 1.5);

/// *OpenMP Imbalance feeding an MPI Barrier*: every rank runs a thread
/// team whose load depends on the rank (`rank_df`) and thread (`thread_df`),
/// then all ranks synchronize. Detectable at two levels: imbalance at the
/// join inside each rank, and wait-at-barrier between ranks.
pub fn omp_imbalance_at_mpi_barrier(
    p: &mut Proc,
    nthreads: usize,
    rank_df: &Distr,
    thread_df: &Distr,
    r: usize,
    comm: &Comm,
) {
    frame_mpi(p, "omp_imbalance_at_mpi_barrier", |p| {
        let rank_scale = rank_df.value(comm.rank(), comm.size(), 1.0);
        for _ in 0..r {
            with_omp(p, |m| {
                parallel(m, nthreads, |th| {
                    let w = thread_df.work(th.thread_num(), th.num_threads(), rank_scale);
                    th.do_work(w);
                });
            });
            p.barrier(comm);
        }
    });
}

/// *Idle Threads during MPI*: each repetition alternates a balanced
/// parallel phase with a master-only MPI exchange — while the even/odd
/// `sendrecv` runs, the rank's worker threads do not exist (the paper's
/// "idle threads" property for master-only communication styles).
/// `commdelay` adds artificial skew so the exchange also contains a
/// late-sender component.
pub fn mpi_in_omp_serial(
    p: &mut Proc,
    base: &BaseComm,
    nthreads: usize,
    threadwork: f64,
    commdelay: f64,
    r: usize,
    comm: &Comm,
) {
    frame_mpi(p, "mpi_in_omp_serial", |p| {
        let buf = base.alloc();
        for _ in 0..r {
            with_omp(p, |m| {
                parallel(m, nthreads, |th| {
                    th.do_work(VDur::from_secs(threadwork));
                });
            });
            if comm.rank().is_multiple_of(2) {
                p.do_work(VDur::from_secs(commdelay));
            }
            sendrecv(p, &buf, Dir::Up, PatternMode::default(), comm);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_mpi::SimConfig;
    use ats_runtime::{MachineModel, VTime};
    use ats_trace::check_wellformed;

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
    fn hybrid_imbalance_aligns_at_global_max() {
        let rank_df = Distr::linear(1.0, 2.0);
        let thread_df = Distr::linear(0.005, 0.010);
        ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            omp_imbalance_at_mpi_barrier(p, 2, &rank_df, &thread_df, 1, &c);
            // Slowest: rank 1 (scale 2.0) thread 1 (10ms) = 20ms.
            assert_eq!(p.clock(), VTime::from_secs(0.020));
        });
    }

    #[test]
    fn hybrid_trace_has_both_levels() {
        let rank_df = Distr::same(1.0);
        let thread_df = Distr::cyclic2(0.002, 0.006);
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            omp_imbalance_at_mpi_barrier(p, 3, &rank_df, &thread_df, 2, &c);
        });
        assert!(trace.find_region("omp_parallel").is_some());
        assert!(trace.find_region("MPI_Barrier").is_some());
        assert!(check_wellformed(&trace).is_empty());
        // 2 ranks x (1 master + 2 spawned x 2 reps): locations merge per
        // (rank, thread) id, so at least 2 x 3.
        assert!(trace.num_locations() >= 6);
    }

    #[test]
    fn mpi_in_omp_serial_creates_late_sender() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_in_omp_serial(p, &BaseComm::default(), 2, 0.004, 0.030, 1, &c);
            assert_eq!(p.clock(), VTime::from_secs(0.034));
        });
        assert!(trace.find_region("mpi_in_omp_serial").is_some());
    }
}
