//! The sums behind the catalog records' closed-form waits.
//!
//! Under the zero machine model in virtual-work mode every property
//! function programs an exact, analytically known amount of waiting time.
//! Each [`PropertySpec`](crate::PropertySpec) states its own as `wait`;
//! the shaped-work entries build theirs from these sums.

use crate::Distr;

/// Sum of `max - v_i` over the distribution's values — the total wait a
/// barrier-style synchronization collects from one round of shaped work.
pub(crate) fn imbalance_sum(df: &Distr, n: usize) -> f64 {
    let vals = df.values(n, 1.0);
    let max = vals.iter().cloned().fold(0.0, f64::max);
    vals.iter().map(|v| max - v).sum()
}

/// Sum of `max_{j<=i} v_j - v_i` — the prefix waits an `MPI_Scan`
/// collects (rank `i` waits only for ranks `j <= i`).
pub(crate) fn prefix_imbalance_sum(df: &Distr, n: usize) -> f64 {
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
pub(crate) fn progressive_series(growth: f64, r: usize) -> f64 {
    (0..r).map(|i| 1.0 + growth * i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, Paradigm};
    use crate::params::{ParamValue, ParamValues};

    fn defaults(name: &str) -> ParamValues {
        ParamValues::defaults(catalog::find(name).expect("in catalog"))
    }

    fn wait(name: &str, v: &ParamValues, group: usize) -> f64 {
        (catalog::find(name).expect("in catalog").wait)(v, group)
    }

    #[test]
    fn every_positive_property_has_a_model() {
        for spec in crate::CATALOG {
            let w = (spec.wait)(&ParamValues::defaults(spec), 8);
            if spec.paradigm == Paradigm::Negative {
                assert_eq!(w, 0.0, "{} is padding", spec.name);
            } else {
                assert!(w > 0.0, "{}: nominal wait {w} not positive", spec.name);
                assert!(w.is_finite(), "{}: nominal wait {w}", spec.name);
            }
        }
    }

    #[test]
    fn late_sender_model_matches_the_formula() {
        // 8 ranks -> 4 pairs, extrawork 0.04, r=3: 4 * 0.04 * 3 = 0.48.
        let w = wait("late_sender", &defaults("late_sender"), 8);
        assert!((w - 0.48).abs() < 1e-12, "{w}");
        // Odd group: 7 ranks -> 3 pairs.
        let w = wait("late_sender", &defaults("late_sender"), 7);
        assert!((w - 0.36).abs() < 1e-12, "{w}");
    }

    #[test]
    fn early_reduce_is_group_size_independent() {
        let v = defaults("early_reduce");
        let a = wait("early_reduce", &v, 4);
        let b = wait("early_reduce", &v, 16);
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
        let prefix = wait("imbalance_at_mpi_scan", &v, 8);
        let full = 3.0 * imbalance_sum(&v.distr("df"), 8);
        assert!(
            (prefix - full).abs() < 1e-12,
            "prefix {prefix} vs full {full}"
        );
        assert!((prefix - 0.48).abs() < 1e-12, "{prefix}");
        // On a non-monotone shape a light rank ahead of every heavy one
        // waits for nobody in a scan, so the prefix sum is smaller.
        v.set("df", ParamValue::Distr(Distr::cyclic2(0.01, 0.05)));
        let prefix = wait("imbalance_at_mpi_scan", &v, 8);
        let full = 3.0 * imbalance_sum(&v.distr("df"), 8);
        assert!(prefix < full, "prefix {prefix} vs full {full}");
        assert!((prefix - 3.0 * 3.0 * 0.04).abs() < 1e-12, "{prefix}");
    }

    #[test]
    fn omp_models_scale_with_member_count() {
        let v = defaults("imbalance_in_omp_pregion");
        let one = wait("imbalance_in_omp_pregion", &v, 1);
        let four = wait("imbalance_in_omp_pregion", &v, 4);
        assert!((four - 4.0 * one).abs() < 1e-12, "one team per rank");
    }

    #[test]
    fn master_model_clamps_at_zero() {
        let mut v = defaults("unparallelized_in_omp_master");
        // More than masterwork.
        v.set("otherwork", ParamValue::Seconds(1.0));
        assert_eq!(wait("unparallelized_in_omp_master", &v, 4), 0.0);
    }
}
