//! Negative test cases (paper §1, "Negative correctness").
//!
//! Well-tuned synthetic programs with *no* performance problem: a correct
//! analysis tool must stay silent on these. Each mirrors the code shape of
//! a positive property function with the imbalance parameter forced to
//! zero, so tools that trigger on shape rather than behaviour are caught.

use super::{frame_mpi, frame_omp};
use crate::buffer::BaseComm;
use crate::distribution::Distr;
use crate::pattern::{sendrecv, shift, Dir, PatternMode};
use crate::work::{par_do_mpi_work, par_do_omp_work};
use ats_mpi::{Comm, Datatype, Proc, ReduceOp};
use ats_omp::{parallel, OmpThread, Schedule};
use ats_runtime::VDur;

/// Balanced work + barrier: the negative twin of
/// [`crate::properties::mpi_coll::imbalance_at_mpi_barrier`].
pub fn balanced_mpi_barrier(p: &mut Proc, work: f64, r: usize, comm: &Comm) {
    frame_mpi(p, "balanced_mpi_barrier", |p| {
        let df = Distr::same(work);
        for _ in 0..r {
            par_do_mpi_work(p, &df, 1.0, comm);
            p.barrier(comm);
        }
    });
}

/// Balanced even/odd exchange: the negative twin of
/// [`crate::properties::mpi_p2p::late_sender`] — both sides do equal work,
/// so no side waits (beyond transport costs).
pub fn balanced_mpi_p2p(p: &mut Proc, base: &BaseComm, work: f64, r: usize, comm: &Comm) {
    frame_mpi(p, "balanced_mpi_p2p", |p| {
        let buf = base.alloc();
        let df = Distr::same(work);
        for _ in 0..r {
            par_do_mpi_work(p, &df, 1.0, comm);
            sendrecv(p, &buf, Dir::Up, PatternMode::default(), comm);
            par_do_mpi_work(p, &df, 1.0, comm);
            sendrecv(p, &buf, Dir::Down, PatternMode::default(), comm);
        }
    });
}

/// A balanced ring computation: shift + equal work, the shape of a
/// well-tuned stencil halo exchange.
pub fn balanced_ring(p: &mut Proc, base: &BaseComm, work: f64, r: usize, comm: &Comm) {
    frame_mpi(p, "balanced_ring", |p| {
        let sbuf = base.alloc();
        let mut rbuf = base.alloc();
        let df = Distr::same(work);
        for _ in 0..r {
            par_do_mpi_work(p, &df, 1.0, comm);
            shift(p, &sbuf, &mut rbuf, Dir::Up, PatternMode::default(), comm);
        }
    });
}

/// Balanced rooted collectives: everyone (root included) does equal work
/// before bcast and reduce, so neither late-broadcast nor early-reduce
/// waits arise.
pub fn balanced_mpi_collectives(
    p: &mut Proc,
    base: &BaseComm,
    work: f64,
    root: usize,
    r: usize,
    comm: &Comm,
) {
    frame_mpi(p, "balanced_mpi_collectives", |p| {
        let df = Distr::same(work);
        let mine = vec![0u8; base.bytes()];
        for _ in 0..r {
            par_do_mpi_work(p, &df, 1.0, comm);
            let mut buf = mine.clone();
            p.bcast(&mut buf, root, comm);
            par_do_mpi_work(p, &df, 1.0, comm);
            let _ = p.reduce(&mine, ReduceOp::Sum, Datatype::Float64, root, comm);
        }
    });
}

/// Balanced parallel region + barrier: the negative twin of the OpenMP
/// imbalance properties.
pub fn balanced_omp_region(m: &mut OmpThread<'_>, nthreads: usize, work: f64, r: usize) {
    frame_omp(m, "balanced_omp_region", |m| {
        let df = Distr::same(work);
        parallel(m, nthreads, |th| {
            for _ in 0..r {
                par_do_omp_work(th, &df, 1.0);
                th.barrier();
            }
        });
    });
}

/// A balanced statically-scheduled loop.
pub fn balanced_omp_loop(
    m: &mut OmpThread<'_>,
    nthreads: usize,
    work_per_iter: f64,
    iters_per_thread: usize,
    r: usize,
) {
    frame_omp(m, "balanced_omp_loop", |m| {
        parallel(m, nthreads, |th| {
            let iters = th.num_threads() * iters_per_thread;
            for _ in 0..r {
                th.for_loop(iters, Schedule::Static(None), |th, _| {
                    th.do_work(VDur::from_secs(work_per_iter));
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_mpi::SimConfig;
    use ats_omp::{run_omp, OmpConfig};
    use ats_runtime::{MachineModel, VTime};
    use ats_trace::{check_wellformed, EventKind};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    /// With a zero-cost machine model, a negative test case must contain
    /// *zero* waiting anywhere: every collective's exit equals the latest
    /// entry which equals every entry, and every receive completes at its
    /// post time.
    fn assert_waitless(trace: &ats_trace::Trace) {
        for loc in &trace.locations {
            for ev in &loc.events {
                match ev.kind {
                    EventKind::Recv { posted, .. } => {
                        assert_eq!(ev.time, posted, "recv waited at {}", loc.location);
                    }
                    EventKind::CollEnd { entered, .. } => {
                        assert_eq!(ev.time, entered, "collective waited at {}", loc.location);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn balanced_barrier_is_waitless() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            balanced_mpi_barrier(p, 0.010, 3, &c);
            assert_eq!(p.clock(), VTime::from_secs(0.030));
        });
        assert_waitless(&trace);
    }

    #[test]
    fn balanced_p2p_is_waitless() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            balanced_mpi_p2p(p, &BaseComm::default(), 0.005, 2, &c);
        });
        assert_waitless(&trace);
    }

    #[test]
    fn balanced_ring_is_waitless() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            balanced_ring(p, &BaseComm::default(), 0.005, 3, &c);
        });
        assert_waitless(&trace);
        assert!(check_wellformed(&trace).is_empty());
    }

    #[test]
    fn balanced_collectives_are_waitless() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            balanced_mpi_collectives(p, &BaseComm::default(), 0.004, 2, 2, &c);
        });
        assert_waitless(&trace);
    }

    #[test]
    fn balanced_omp_region_is_waitless() {
        let trace = run_omp(
            OmpConfig {
                model: MachineModel::zero(),
                ..Default::default()
            },
            |m| {
                balanced_omp_region(m, 4, 0.005, 3);
                assert_eq!(m.clock(), VTime::from_secs(0.015));
            },
        );
        assert_waitless(&trace);
    }

    #[test]
    fn balanced_omp_loop_is_waitless() {
        let trace = run_omp(
            OmpConfig {
                model: MachineModel::zero(),
                ..Default::default()
            },
            |m| {
                balanced_omp_loop(m, 4, 0.001, 4, 2);
                assert_eq!(m.clock(), VTime::from_secs(0.008));
            },
        );
        assert_waitless(&trace);
    }
}
