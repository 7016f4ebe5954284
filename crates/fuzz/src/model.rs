//! Closed-form nominal-wait models for every positive catalog property.
//!
//! Under the zero machine model in virtual-work mode every property
//! function produces an *exact*, analytically known amount of waiting
//! time (the per-property unit tests in `ats-core` pin these formulas).
//! The oracle composes them with a scenario's topology: the model takes
//! the communicator size the phase actually runs on and returns the total
//! wait the analyzer should attribute to that phase, plus a tolerance
//! band absorbing the places where the analyzer's attribution legitimately
//! differs from the programmed wait (e.g. wrong-order waits partially
//! classified as late-sender).

use ats_core::properties::hybrid::CATALOG_RANK_SCALE;
use ats_core::Distr;
use ats_harness::ParamValues;

/// Multiplicative tolerance band around the nominal wait: a measured wait
/// `w` is in band iff `lo * nominal <= w <= hi * nominal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower multiplier.
    pub lo: f64,
    /// Upper multiplier.
    pub hi: f64,
}

/// Tolerance band for `property` (catalog function name).
pub fn band(name: &str) -> Band {
    match name {
        // The analyzer may split the programmed delay between the
        // wrong-order and plain late-sender classifications, or measure
        // the wait from the MPI_Wait entry rather than the post time.
        "messages_in_wrong_order" | "late_sender_at_wait" => Band { lo: 0.1, hi: 10.0 },
        // Hybrid: thread-level imbalance adds secondary waits around the
        // modeled rank-level barrier wait.
        "omp_imbalance_at_mpi_barrier" | "mpi_in_omp_serial" => Band { lo: 0.1, hi: 10.0 },
        _ => Band { lo: 0.2, hi: 5.0 },
    }
}

/// Sum of `max - v_i` over the distribution's values — the total wait a
/// barrier-style synchronization collects from one round of shaped work.
fn imbalance_sum(df: &Distr, n: usize) -> f64 {
    let vals = df.values(n, 1.0);
    let max = vals.iter().cloned().fold(0.0, f64::max);
    vals.iter().map(|v| max - v).sum()
}

/// Sum of `max_{j<=i} v_j - v_i` — the prefix waits an `MPI_Scan`
/// collects (rank `i` waits only for ranks `j <= i`).
fn prefix_imbalance_sum(df: &Distr, n: usize) -> f64 {
    let vals = df.values(n, 1.0);
    let mut run_max = f64::MIN;
    let mut total = 0.0;
    for v in vals {
        run_max = run_max.max(v);
        total += run_max - v;
    }
    total
}

/// `sum_{i=0}^{r-1} (1 + growth * i)` — the progressive-scale series.
fn progressive_series(growth: f64, r: usize) -> f64 {
    (0..r).map(|i| 1.0 + growth * i as f64).sum()
}

/// Total wait (seconds) property `name` programs when run with `v` on a
/// communicator of `group` ranks. `None` for properties without a model
/// (the negative padding cases — they program *zero* wait by design).
///
/// OpenMP-paradigm properties run one thread team per member rank in the
/// hybrid harness mode, so their per-team wait is multiplied by `group`.
pub fn nominal_wait(name: &str, v: &ParamValues, group: usize) -> Option<f64> {
    let n = group as f64;
    let r = || v.count("r") as f64;
    Some(match name {
        // ---- MPI point-to-point -----------------------------------------
        "late_sender" | "late_receiver" => (group / 2) as f64 * v.seconds("extrawork") * r(),
        "late_sender_at_wait" => {
            (group / 2) as f64 * r() * (v.seconds("extrawork") - v.seconds("postwork")).max(0.0)
        }
        "messages_in_wrong_order" => (group / 2) as f64 * v.seconds("delay") * r(),
        // ---- MPI collective ---------------------------------------------
        "imbalance_at_mpi_barrier" | "imbalance_at_mpi_alltoall" | "imbalance_at_mpi_allreduce" => {
            r() * imbalance_sum(&v.distr("df"), group)
        }
        "imbalance_at_mpi_scan" => r() * prefix_imbalance_sum(&v.distr("df"), group),
        "progressive_imbalance_at_mpi_barrier" => {
            progressive_series(v.seconds("growth"), v.count("r"))
                * imbalance_sum(&v.distr("df"), group)
        }
        "growing_imbalance_at_mpi_barrier" => {
            // The light half (ceil(n/2) ranks) waits extrastep*(i+1) in
            // iteration i: sum over i of (i+1) = r(r+1)/2.
            let reps = v.count("r") as f64;
            group.div_ceil(2) as f64 * v.seconds("extrastep") * reps * (reps + 1.0) / 2.0
        }
        "late_broadcast" | "late_scatter" | "late_scatterv" => {
            (n - 1.0) * v.seconds("extrawork") * r()
        }
        "early_reduce" | "early_gather" | "early_gatherv" => v.seconds("baseextrawork") * r(),
        // ---- Sequential --------------------------------------------------
        "serial_initialization" => (n - 1.0) * v.seconds("extrawork"),
        "dominating_sequential_phases" => (n - 1.0) * v.seconds("extrawork") * r(),
        // ---- OpenMP (one team per member rank) ---------------------------
        "imbalance_in_omp_pregion"
        | "imbalance_at_omp_barrier"
        | "imbalance_in_omp_loop"
        | "imbalance_at_omp_sections" => {
            n * r() * imbalance_sum(&v.distr("df"), v.count("nthreads"))
        }
        "progressive_imbalance_at_omp_barrier" => {
            n * progressive_series(v.seconds("growth"), v.count("r"))
                * imbalance_sum(&v.distr("df"), v.count("nthreads"))
        }
        "unparallelized_in_omp_single" => {
            n * r() * (v.count("nthreads") as f64 - 1.0) * v.seconds("singlework")
        }
        "unparallelized_in_omp_master" => {
            n * r()
                * (v.count("nthreads") as f64 - 1.0)
                * (v.seconds("masterwork") - v.seconds("otherwork")).max(0.0)
        }
        "omp_critical_contention" | "omp_lock_contention" => {
            // Contenders are granted in arrival order: with outsidework=0
            // round 1 costs b*t(t-1)/2 and each later round b*t(t-1). The
            // generator pins outsidework to 0.
            let t = v.count("nthreads") as f64;
            n * v.seconds("bodywork") * t * (t - 1.0) * (r() - 0.5)
        }
        // ---- Hybrid ------------------------------------------------------
        "omp_imbalance_at_mpi_barrier" => {
            // Rank i's team finishes at maxv * scale_i.
            let team = v.distr("df").values(v.count("nthreads"), 1.0);
            let maxv = team.iter().cloned().fold(0.0, f64::max);
            let scales = CATALOG_RANK_SCALE.values(group, 1.0);
            let max_scale = scales.iter().cloned().fold(0.0, f64::max);
            let spread: f64 = scales.iter().map(|s| max_scale - s).sum();
            r() * maxv * spread
        }
        "mpi_in_omp_serial" => (group / 2) as f64 * v.seconds("extrawork") * r(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_core::catalog::{self, Paradigm};

    fn defaults(name: &str) -> ParamValues {
        ParamValues::defaults(catalog::find(name).expect("in catalog"))
    }

    #[test]
    fn every_positive_property_has_a_model() {
        for spec in ats_core::CATALOG {
            let v = ParamValues::defaults(spec);
            let model = nominal_wait(spec.name, &v, 8);
            if spec.paradigm == Paradigm::Negative {
                assert!(model.is_none(), "{} is padding", spec.name);
            } else {
                let w = model.unwrap_or_else(|| panic!("{} has no model", spec.name));
                assert!(w > 0.0, "{}: nominal wait {w} not positive", spec.name);
                assert!(w.is_finite(), "{}: nominal wait {w}", spec.name);
            }
        }
    }

    #[test]
    fn late_sender_model_matches_the_formula() {
        // 8 ranks -> 4 pairs, extrawork 0.04, r=3: 4 * 0.04 * 3 = 0.48.
        let w = nominal_wait("late_sender", &defaults("late_sender"), 8).unwrap();
        assert!((w - 0.48).abs() < 1e-12, "{w}");
        // Odd group: 7 ranks -> 3 pairs.
        let w = nominal_wait("late_sender", &defaults("late_sender"), 7).unwrap();
        assert!((w - 0.36).abs() < 1e-12, "{w}");
    }

    #[test]
    fn early_reduce_is_group_size_independent() {
        let v = defaults("early_reduce");
        let a = nominal_wait("early_reduce", &v, 4).unwrap();
        let b = nominal_wait("early_reduce", &v, 16).unwrap();
        assert_eq!(a, b, "only the root waits");
        assert!((a - 0.12).abs() < 1e-12, "0.04 * 3 = {a}");
    }

    #[test]
    fn scan_uses_prefix_waits() {
        // Default scan df is descending block2 (low=0.05 first half,
        // high=0.01 second half). On a descending shape every rank's
        // prefix maximum is the global maximum, so the prefix sum and the
        // full-imbalance sum agree: 4 light ranks × 0.04 × r=3.
        let mut v = defaults("imbalance_at_mpi_scan");
        let prefix = nominal_wait("imbalance_at_mpi_scan", &v, 8).unwrap();
        let full = 3.0 * imbalance_sum(&v.distr("df"), 8);
        assert!(
            (prefix - full).abs() < 1e-12,
            "prefix {prefix} vs full {full}"
        );
        assert!((prefix - 0.48).abs() < 1e-12, "{prefix}");
        // On a non-monotone shape a light rank ahead of every heavy one
        // waits for nobody in a scan, so the prefix sum is smaller.
        v.set(
            "df",
            ats_harness::ParamValue::Distr(Distr::cyclic2(0.01, 0.05)),
        );
        let prefix = nominal_wait("imbalance_at_mpi_scan", &v, 8).unwrap();
        let full = 3.0 * imbalance_sum(&v.distr("df"), 8);
        assert!(prefix < full, "prefix {prefix} vs full {full}");
        assert!((prefix - 3.0 * 3.0 * 0.04).abs() < 1e-12, "{prefix}");
    }

    #[test]
    fn omp_models_scale_with_member_count() {
        let v = defaults("imbalance_in_omp_pregion");
        let one = nominal_wait("imbalance_in_omp_pregion", &v, 1).unwrap();
        let four = nominal_wait("imbalance_in_omp_pregion", &v, 4).unwrap();
        assert!((four - 4.0 * one).abs() < 1e-12, "one team per rank");
    }

    #[test]
    fn master_model_clamps_at_zero() {
        let spec = catalog::find("unparallelized_in_omp_master").unwrap();
        let mut v = ParamValues::defaults(spec);
        v.set(
            "otherwork",
            ats_harness::ParamValue::Seconds(1.0), // more than masterwork
        );
        assert_eq!(
            nominal_wait("unparallelized_in_omp_master", &v, 4),
            Some(0.0)
        );
    }
}
