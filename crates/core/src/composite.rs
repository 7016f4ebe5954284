//! Composite performance property testing (paper §3.3).
//!
//! Beyond single-property programs, the paper builds composite tests by
//! invoking several property functions in one program: sequentially (its
//! Figure 3.3), or in parallel on disjoint communicators (Figures 3.4 and
//! 3.5), or across paradigms (hybrid). These builders reproduce those
//! programs with the severities under caller control.

use crate::buffer::BaseComm;
use crate::distribution::Distr;
use crate::hybrid::with_omp;
use crate::properties::{hybrid, mpi_coll, mpi_p2p, omp};
use ats_mpi::{Comm, Proc};

/// Severity knobs for the composite programs.
#[derive(Debug, Clone)]
pub struct CompositeParams {
    /// Default message shape for all property functions.
    pub base: BaseComm,
    /// Work done by every participant per phase (seconds).
    pub basework: f64,
    /// Extra work for the late/straggling side (seconds) — the severity.
    pub extrawork: f64,
    /// Repetitions per property function.
    pub reps: usize,
}

impl Default for CompositeParams {
    fn default() -> Self {
        CompositeParams {
            base: BaseComm::default(),
            basework: 0.005,
            extrawork: 0.020,
            reps: 2,
        }
    }
}

/// The paper's Figure 3.3 program: "simply calls all currently defined MPI
/// property functions with different severities and repetition factors",
/// to "quickly determine how many different performance properties can be
/// detected by a performance tool".
///
/// The severities are staggered — each successive property function gets a
/// different multiple of `extrawork` — mirroring the varied block widths
/// visible in the paper's timeline.
pub fn all_mpi_properties(p: &mut Proc, params: &CompositeParams, comm: &Comm) {
    let CompositeParams {
        base,
        basework,
        extrawork,
        reps,
    } = params.clone();
    let w = basework;
    // Staggered severities: 1.0x, 1.5x, 2.0x, ... of extrawork.
    let sev = |i: usize| extrawork * (1.0 + 0.5 * i as f64);
    mpi_p2p::late_sender(p, &base, w, sev(0), reps, comm);
    mpi_p2p::late_receiver(p, &base, w, sev(1), reps, comm);
    let df = Distr::block2(w, w + sev(2));
    mpi_coll::imbalance_at_mpi_barrier(p, &df, reps, comm);
    let df = Distr::linear(w, w + sev(3));
    mpi_coll::imbalance_at_mpi_alltoall(p, &base, &df, reps, comm);
    mpi_coll::late_broadcast(p, &base, w, sev(4), 0, reps, comm);
    mpi_coll::late_scatter(p, &base, w, sev(5), 0, reps, comm);
    mpi_coll::late_scatterv(p, &base, w, sev(6), 0, reps, comm);
    mpi_coll::early_reduce(p, &base, w, sev(7), 0, reps, comm);
    mpi_coll::early_gather(p, &base, w, sev(8), 0, reps, comm);
    mpi_coll::early_gatherv(p, &base, w, sev(9), 0, reps, comm);
}

/// The fewest ranks [`two_communicator_composite`] runs on: two halves
/// of at least two ranks each.
pub const TWO_COMMUNICATOR_RANKS: usize = 4;

/// The paper's Figure 3.4/3.5 program: after initialization, the lower and
/// upper halves of the processes form separate communicators; the lower
/// half runs the point-to-point property set while the upper half runs the
/// collective set — "two different performance properties are active at
/// the same time in parallel".
///
/// As in the paper's EXPERT experiment, `late_broadcast` runs on the upper
/// communicator with communicator-local root 1, so a correct tool must
/// localize it at `MPI_Bcast` on the *global* ranks `size/2 + 1 ..`.
/// Returns the communicator this rank belonged to.
pub fn two_communicator_composite(p: &mut Proc, params: &CompositeParams, world: &Comm) -> Comm {
    let CompositeParams {
        base,
        basework,
        extrawork,
        reps,
    } = params.clone();
    assert!(
        world.size() >= TWO_COMMUNICATOR_RANKS,
        "need at least {TWO_COMMUNICATOR_RANKS} ranks for the two-communicator test"
    );
    let half = world.size() / 2;
    let lower = p.rank() < half;
    let color = if lower { 0 } else { 1 };
    let sub = p
        .comm_split(color, p.rank() as i64, world)
        .expect("non-negative colors");
    if lower {
        // Lower half: point-to-point properties.
        mpi_p2p::late_sender(p, &base, basework, extrawork, reps, &sub);
        mpi_p2p::late_receiver(p, &base, basework, extrawork, reps, &sub);
    } else {
        // Upper half: collective properties, late_broadcast at local root 1.
        mpi_coll::late_broadcast(p, &base, basework, extrawork, 1, reps, &sub);
        mpi_coll::early_reduce(p, &base, basework, extrawork, 0, reps, &sub);
        let df = Distr::linear(basework, basework + extrawork);
        mpi_coll::imbalance_at_mpi_barrier(p, &df, reps, &sub);
    }
    sub
}

/// A hybrid composite: MPI property functions interleaved with OpenMP
/// property functions inside every rank, per the paper's closing remarks
/// on hybrid tool testing.
pub fn hybrid_composite(p: &mut Proc, nthreads: usize, params: &CompositeParams, comm: &Comm) {
    let CompositeParams {
        base,
        basework,
        extrawork,
        reps,
    } = params.clone();
    mpi_p2p::late_sender(p, &base, basework, extrawork, reps, comm);
    let df = Distr::linear(basework, basework + extrawork);
    with_omp(p, |m| {
        omp::imbalance_at_omp_barrier(m, nthreads, &df, reps);
        omp::imbalance_in_omp_pregion(m, nthreads, &df, reps);
    });
    let rank_df = Distr::same(1.0);
    hybrid::omp_imbalance_at_mpi_barrier(p, nthreads, &rank_df, &df, reps, comm);
    mpi_coll::late_broadcast(p, &base, basework, extrawork, 0, reps, comm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_mpi::SimConfig;
    use ats_runtime::{MachineModel, VDur};
    use ats_trace::{check_wellformed, TraceStats};

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
    fn figure33_program_contains_all_ten_property_frames() {
        let params = CompositeParams {
            basework: 0.001,
            extrawork: 0.002,
            reps: 1,
            ..Default::default()
        };
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            all_mpi_properties(p, &params, &c);
        });
        for name in [
            "late_sender",
            "late_receiver",
            "imbalance_at_mpi_barrier",
            "imbalance_at_mpi_alltoall",
            "late_broadcast",
            "late_scatter",
            "late_scatterv",
            "early_reduce",
            "early_gather",
            "early_gatherv",
        ] {
            assert!(trace.find_region(name).is_some(), "missing frame {name}");
        }
        assert!(check_wellformed(&trace).is_empty());
    }

    #[test]
    fn figure34_program_splits_work_across_communicators() {
        let params = CompositeParams {
            basework: 0.001,
            extrawork: 0.004,
            reps: 1,
            ..Default::default()
        };
        let trace = ats_mpi::run(cfg(8), move |p| {
            let c = p.comm_world();
            let sub = two_communicator_composite(p, &params, &c);
            assert_eq!(sub.size(), 4);
        });
        assert!(check_wellformed(&trace).is_empty());
        // The lower half never executes bcasts; the upper half never
        // executes the p2p pattern.
        let stats = TraceStats::compute(&trace);
        let bcast = trace.find_region("MPI_Bcast").unwrap();
        let p2p: Vec<_> = ["MPI_Send", "MPI_Ssend", "MPI_Recv"]
            .iter()
            .filter_map(|n| trace.find_region(n))
            .collect();
        for rank in 0..8u32 {
            let loc = ats_trace::LocationId::rank(rank);
            let has_bcast = stats.profiles[&loc].contains_key(&bcast);
            let has_p2p = p2p.iter().any(|r| stats.profiles[&loc].contains_key(r));
            if rank < 4 {
                assert!(!has_bcast, "rank {rank} must not broadcast");
                assert!(has_p2p, "rank {rank} must participate in p2p");
            } else {
                assert!(has_bcast, "rank {rank} must broadcast");
                assert!(!has_p2p, "rank {rank} must not do p2p");
            }
        }
    }

    #[test]
    fn figure34_needs_at_least_four_ranks() {
        let result = std::panic::catch_unwind(|| {
            ats_mpi::run(cfg(2), |p| {
                let c = p.comm_world();
                two_communicator_composite(p, &CompositeParams::default(), &c);
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn hybrid_composite_spans_paradigms() {
        let params = CompositeParams {
            basework: 0.001,
            extrawork: 0.002,
            reps: 1,
            ..Default::default()
        };
        let trace = ats_mpi::run(cfg(2), move |p| {
            let c = p.comm_world();
            hybrid_composite(p, 2, &params, &c);
        });
        for name in [
            "late_sender",
            "imbalance_at_omp_barrier",
            "imbalance_in_omp_pregion",
            "omp_imbalance_at_mpi_barrier",
            "late_broadcast",
            "omp_parallel",
        ] {
            assert!(trace.find_region(name).is_some(), "missing {name}");
        }
        assert!(check_wellformed(&trace).is_empty());
    }
}
