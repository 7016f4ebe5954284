//! OpenMP performance properties.
//!
//! Ports of the paper's three prototype functions:
//!
//! ```c
//! void imbalance_in_omp_pregion(distr_func_t df, distr_t* dd, int r);
//! void imbalance_at_omp_barrier(distr_func_t df, distr_t* dd, int r);
//! void imbalance_in_omp_loop(distr_func_t df, distr_t* dd, int r);
//! ```
//!
//! plus the worksharing/synchronization properties the ASL catalog lists
//! as required for a complete OpenMP suite: sections imbalance,
//! `single`/`master` serialization, and critical-section and lock
//! contention.
//!
//! All functions take the [`OmpThread`] that forks their teams — a
//! standalone program's initial thread, an MPI rank's (hybrid), or an
//! enclosing team's member (nested parallelism) — plus the team size,
//! which in the C original is implicit in `OMP_NUM_THREADS`.

use super::frame_omp;
use crate::distribution::Distr;
use crate::work::par_do_omp_work;
use ats_omp::{parallel, OmpThread, Schedule};
use ats_runtime::VDur;

/// *Imbalance in Parallel Region*: each repetition forks a team whose
/// threads perform distribution-shaped work; the join makes the imbalance
/// visible as master-side idle time.
pub fn imbalance_in_omp_pregion(m: &mut OmpThread<'_>, nthreads: usize, df: &Distr, r: usize) {
    frame_omp(m, "imbalance_in_omp_pregion", |m| {
        for _ in 0..r {
            parallel(m, nthreads, |th| {
                par_do_omp_work(th, df, 1.0);
            });
        }
    });
}

/// *Imbalance at OpenMP Barrier* (the paper's fully-listed example): one
/// parallel region; inside, `r` iterations of shaped work followed by an
/// explicit barrier.
pub fn imbalance_at_omp_barrier(m: &mut OmpThread<'_>, nthreads: usize, df: &Distr, r: usize) {
    frame_omp(m, "imbalance_at_omp_barrier", |m| {
        parallel(m, nthreads, |th| {
            for _ in 0..r {
                par_do_omp_work(th, df, 1.0);
                th.barrier();
            }
        });
    });
}

/// *Progressive Imbalance at OpenMP Barrier*: per-iteration scale factor,
/// the shared-memory twin of
/// [`crate::properties::mpi_coll::progressive_imbalance_at_mpi_barrier`].
pub fn progressive_imbalance_at_omp_barrier(
    m: &mut OmpThread<'_>,
    nthreads: usize,
    df: &Distr,
    growth: f64,
    r: usize,
) {
    frame_omp(m, "progressive_imbalance_at_omp_barrier", |m| {
        parallel(m, nthreads, |th| {
            for i in 0..r {
                par_do_omp_work(th, df, 1.0 + growth * i as f64);
                th.barrier();
            }
        });
    });
}

/// *Imbalance in OpenMP Loop*: a statically-scheduled worksharing loop
/// with one iteration per thread, where iteration `i` costs `df(i)` — the
/// implicit barrier at loop end collects the waits.
pub fn imbalance_in_omp_loop(m: &mut OmpThread<'_>, nthreads: usize, df: &Distr, r: usize) {
    frame_omp(m, "imbalance_in_omp_loop", |m| {
        parallel(m, nthreads, |th| {
            let n = th.num_threads();
            for _ in 0..r {
                th.for_loop(n, Schedule::Static(Some(1)), |th, i| {
                    th.do_work(df.work(i, n, 1.0));
                });
            }
        });
    });
}

/// *Imbalance at OpenMP Sections* — extension: one section per thread,
/// with section `i` costing `df(i)`.
pub fn imbalance_at_omp_sections(m: &mut OmpThread<'_>, nthreads: usize, df: &Distr, r: usize) {
    frame_omp(m, "imbalance_at_omp_sections", |m| {
        parallel(m, nthreads, |th| {
            let n = th.num_threads();
            for _ in 0..r {
                // One section per thread, each with its own cost.
                let costs: Vec<VDur> = (0..n).map(|i| df.work(i, n, 1.0)).collect();
                shaped_sections(th, costs);
            }
        });
    });
}

/// A boxed section body pinned to the team lifetime.
type SectionBody<'t> = Box<dyn FnMut(&mut OmpThread<'t>)>;

/// Run one fixed-cost section per team member (helper that pins the
/// section closures to the thread's team lifetime).
fn shaped_sections<'t>(th: &mut OmpThread<'t>, costs: Vec<VDur>) {
    let mut bodies: Vec<SectionBody<'t>> = costs
        .into_iter()
        .map(|c| Box::new(move |th: &mut OmpThread<'t>| th.do_work(c)) as SectionBody<'t>)
        .collect();
    let mut refs: Vec<&mut dyn FnMut(&mut OmpThread<'t>)> =
        bodies.iter_mut().map(|b| b.as_mut() as _).collect();
    th.sections(&mut refs);
}

/// *Serialization in `single`* — extension (ASL: "unparallelized code in
/// single region"): all threads idle at the implicit barrier while thread
/// 0 executes `singlework` seconds.
pub fn unparallelized_in_omp_single(
    m: &mut OmpThread<'_>,
    nthreads: usize,
    singlework: f64,
    r: usize,
) {
    frame_omp(m, "unparallelized_in_omp_single", |m| {
        parallel(m, nthreads, |th| {
            for _ in 0..r {
                th.single(|th| th.do_work(VDur::from_secs(singlework)));
            }
        });
    });
}

/// *Serialization in `master`* — extension: the master computes
/// `masterwork` while the team computes only `otherwork`; the join
/// collects the idle time.
pub fn unparallelized_in_omp_master(
    m: &mut OmpThread<'_>,
    nthreads: usize,
    masterwork: f64,
    otherwork: f64,
    r: usize,
) {
    frame_omp(m, "unparallelized_in_omp_master", |m| {
        for _ in 0..r {
            parallel(m, nthreads, |th| {
                th.master_only(|th| th.do_work(VDur::from_secs(masterwork)));
                if th.thread_num() != 0 {
                    th.do_work(VDur::from_secs(otherwork));
                }
            });
        }
    });
}

/// *Critical-Section Contention* — extension: every thread repeatedly
/// enters the same named critical section for `bodywork` seconds, with
/// `outsidework` seconds of parallel work between visits. With
/// `outsidework < (nthreads − 1) · bodywork` the lock is the bottleneck.
pub fn omp_critical_contention(
    m: &mut OmpThread<'_>,
    nthreads: usize,
    bodywork: f64,
    outsidework: f64,
    r: usize,
) {
    frame_omp(m, "omp_critical_contention", |m| {
        parallel(m, nthreads, |th| {
            for _ in 0..r {
                th.do_work(VDur::from_secs(outsidework));
                th.critical("ats_contended", |th| th.do_work(VDur::from_secs(bodywork)));
            }
        });
    });
}

/// *Lock Contention* — extension: all threads hammer one explicit lock
/// object (`omp_set_lock` style), the lock-based twin of
/// [`omp_critical_contention`].
pub fn omp_lock_contention(
    m: &mut OmpThread<'_>,
    nthreads: usize,
    bodywork: f64,
    outsidework: f64,
    r: usize,
) {
    frame_omp(m, "omp_lock_contention", |m| {
        let lock = std::sync::Arc::new(ats_omp::VirtualMutex::new());
        parallel(m, nthreads, |th| {
            for _ in 0..r {
                th.do_work(VDur::from_secs(outsidework));
                th.with_lock(&lock, |th| th.do_work(VDur::from_secs(bodywork)));
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_omp::{run_omp, OmpConfig};
    use ats_runtime::{MachineModel, VTime};
    use ats_trace::{check_wellformed, TraceStats};

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
    fn pregion_imbalance_ends_at_slowest_thread() {
        let df = Distr::linear(0.010, 0.040);
        let trace = run_omp(zero_cfg(), |m| {
            imbalance_in_omp_pregion(m, 4, &df, 2);
            assert_eq!(m.clock(), t(80));
        });
        assert!(check_wellformed(&trace).is_empty());
        assert!(trace.find_region("imbalance_in_omp_pregion").is_some());
    }

    #[test]
    fn barrier_imbalance_accumulates_over_reps() {
        let df = Distr::cyclic2(0.005, 0.020);
        run_omp(zero_cfg(), |m| {
            imbalance_at_omp_barrier(m, 4, &df, 3);
            assert_eq!(m.clock(), t(60), "3 reps x 20ms max work");
        });
    }

    #[test]
    fn loop_imbalance_static_matches_distribution() {
        let df = Distr::peak(0.002, 0.030, 1);
        run_omp(zero_cfg(), |m| {
            imbalance_in_omp_loop(m, 4, &df, 1);
            assert_eq!(m.clock(), t(30), "peak iteration dominates");
        });
    }

    #[test]
    fn sections_imbalance_runs_and_frames() {
        let df = Distr::block2(0.002, 0.010);
        let trace = run_omp(zero_cfg(), |m| {
            imbalance_at_omp_sections(m, 3, &df, 2);
        });
        assert!(trace.find_region("imbalance_at_omp_sections").is_some());
        assert!(trace.find_region("omp_sections").is_some());
        assert!(check_wellformed(&trace).is_empty());
    }

    #[test]
    fn single_serializes_the_team() {
        run_omp(zero_cfg(), |m| {
            unparallelized_in_omp_single(m, 4, 0.015, 2);
            assert_eq!(m.clock(), t(30), "2 reps x 15ms serialized");
        });
    }

    #[test]
    fn master_serialization_visible_at_join() {
        run_omp(zero_cfg(), |m| {
            unparallelized_in_omp_master(m, 4, 0.020, 0.004, 1);
            assert_eq!(m.clock(), t(20), "join waits for the master's 20ms");
        });
    }

    #[test]
    fn critical_contention_serializes() {
        run_omp(zero_cfg(), |m| {
            omp_critical_contention(m, 4, 0.010, 0.0, 1);
            // 4 threads through a 10ms critical: last leaves at 40ms.
            assert_eq!(m.clock(), t(40));
        });
    }

    #[test]
    fn critical_contention_has_waiting_time_in_trace() {
        let trace = run_omp(zero_cfg(), |m| {
            omp_critical_contention(m, 4, 0.010, 0.0, 1);
        });
        let stats = TraceStats::compute(&trace);
        let crit = trace.find_region("omp_critical").unwrap();
        let body = trace.find_region("omp_critical_body").unwrap();
        let wait = stats.region_total(crit).inclusive - stats.region_total(body).inclusive;
        // Waits: 0 + 10 + 20 + 30 = 60ms.
        assert_eq!(wait, ats_runtime::VDur::from_millis(60));
    }

    #[test]
    fn lock_contention_serializes_like_critical() {
        run_omp(zero_cfg(), |m| {
            omp_lock_contention(m, 4, 0.010, 0.0, 1);
            assert_eq!(m.clock(), t(40));
        });
    }

    #[test]
    fn balanced_distribution_produces_no_imbalance() {
        let df = Distr::same(0.010);
        run_omp(zero_cfg(), |m| {
            imbalance_at_omp_barrier(m, 4, &df, 2);
            assert_eq!(m.clock(), t(20), "no waiting, pure work");
        });
    }
}
