//! Specification of distribution (paper §3.1.2).
//!
//! A distribution maps a participant's rank/id and the group size to an
//! amount of work (or data), scaled by a proportional factor. The paper
//! defines seven distribution shapes with one to three parameters; this
//! module ports all of them as one [`Distr`] enum — the enum plays both the
//! roles of the C prototype's *distribution function pointer* and its
//! *distribution descriptor* (there is no function-pointer/void* indirection
//! to reproduce in a typed language; custom shapes plug in through
//! [`Distr::Custom`]).

use crate::error::quote;
use ats_runtime::VDur;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A work/data distribution over the members of a parallel group.
///
/// All values are in abstract units — seconds when driving `do_work`,
/// elements when driving irregular-buffer allocation — and are multiplied
/// by the `scale` argument of [`Distr::value`].
#[derive(Clone)]
pub enum Distr {
    /// Everyone gets `val` (paper: `df_same`).
    Same {
        /// The common value.
        val: f64,
    },
    /// Ranks alternate `low`, `high`, `low`, ... (paper: `df_cyclic2`).
    Cyclic2 {
        /// Value for even ranks.
        low: f64,
        /// Value for odd ranks.
        high: f64,
    },
    /// First half `low`, second half `high` (paper: `df_block2`).
    Block2 {
        /// Value for the first block.
        low: f64,
        /// Value for the second block.
        high: f64,
    },
    /// Linear interpolation from `low` (rank 0) to `high` (last rank)
    /// (paper: `df_linear`).
    Linear {
        /// Value at rank 0.
        low: f64,
        /// Value at the last rank.
        high: f64,
    },
    /// Rank `n` gets `high`, everyone else `low` (paper: `df_peak`).
    Peak {
        /// Value for non-peak ranks.
        low: f64,
        /// Value for the peak rank.
        high: f64,
        /// The peak rank (clamped into the group).
        n: usize,
    },
    /// Ranks cycle `low`, `med`, `high` (paper: `df_cyclic3`).
    Cyclic3 {
        /// First value in the cycle.
        low: f64,
        /// Second value.
        med: f64,
        /// Third value.
        high: f64,
    },
    /// Three blocks of `low`, `med`, `high` (paper: `df_block3`).
    Block3 {
        /// Value for the first third.
        low: f64,
        /// Value for the middle third.
        med: f64,
        /// Value for the last third.
        high: f64,
    },
    /// A user-supplied shape, as the paper allows ("users can provide
    /// their own distribution functions"). Not serializable.
    Custom(Arc<dyn Fn(usize, usize) -> f64 + Send + Sync>),
}

impl fmt::Debug for Distr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distr::Same { val } => write!(f, "same(val={val})"),
            Distr::Cyclic2 { low, high } => write!(f, "cyclic2(low={low},high={high})"),
            Distr::Block2 { low, high } => write!(f, "block2(low={low},high={high})"),
            Distr::Linear { low, high } => write!(f, "linear(low={low},high={high})"),
            Distr::Peak { low, high, n } => write!(f, "peak(low={low},high={high},n={n})"),
            Distr::Cyclic3 { low, med, high } => {
                write!(f, "cyclic3(low={low},med={med},high={high})")
            }
            Distr::Block3 { low, med, high } => {
                write!(f, "block3(low={low},med={med},high={high})")
            }
            Distr::Custom(_) => write!(f, "custom(..)"),
        }
    }
}

impl PartialEq for Distr {
    fn eq(&self, other: &Self) -> bool {
        format!("{self:?}") == format!("{other:?}") && !matches!(self, Distr::Custom(_))
    }
}

impl Distr {
    /// Everyone gets `val`.
    pub fn same(val: f64) -> Self {
        Distr::Same { val }
    }

    /// Alternate `low`/`high`.
    pub fn cyclic2(low: f64, high: f64) -> Self {
        Distr::Cyclic2 { low, high }
    }

    /// Two blocks.
    pub fn block2(low: f64, high: f64) -> Self {
        Distr::Block2 { low, high }
    }

    /// Linear ramp.
    pub const fn linear(low: f64, high: f64) -> Self {
        Distr::Linear { low, high }
    }

    /// Single peak at rank `n`.
    pub fn peak(low: f64, high: f64, n: usize) -> Self {
        Distr::Peak { low, high, n }
    }

    /// Three-way cycle.
    pub fn cyclic3(low: f64, med: f64, high: f64) -> Self {
        Distr::Cyclic3 { low, med, high }
    }

    /// Three blocks.
    pub fn block3(low: f64, med: f64, high: f64) -> Self {
        Distr::Block3 { low, med, high }
    }

    /// The values the spec names (`val`, or `low`, `med` and `high`);
    /// none for a custom shape.
    pub fn levels(&self) -> Vec<f64> {
        match *self {
            Distr::Same { val } => vec![val],
            Distr::Cyclic2 { low, high }
            | Distr::Block2 { low, high }
            | Distr::Linear { low, high }
            | Distr::Peak { low, high, .. } => vec![low, high],
            Distr::Cyclic3 { low, med, high } | Distr::Block3 { low, med, high } => {
                vec![low, med, high]
            }
            Distr::Custom(_) => Vec::new(),
        }
    }

    /// The value assigned to participant `me` of `sz`, scaled by `scale`.
    /// This is the paper's `df(me, sz, sf, dd)`.
    pub fn value(&self, me: usize, sz: usize, scale: f64) -> f64 {
        assert!(sz > 0, "distribution over an empty group");
        assert!(me < sz, "rank {me} out of range for group of {sz}");
        let raw = match self {
            Distr::Same { val } => *val,
            Distr::Cyclic2 { low, high } => {
                if me.is_multiple_of(2) {
                    *low
                } else {
                    *high
                }
            }
            Distr::Block2 { low, high } => {
                if me < sz.div_ceil(2) {
                    *low
                } else {
                    *high
                }
            }
            Distr::Linear { low, high } => {
                if sz == 1 {
                    *low
                } else {
                    low + (high - low) * me as f64 / (sz - 1) as f64
                }
            }
            Distr::Peak { low, high, n } => {
                if me == (*n).min(sz - 1) {
                    *high
                } else {
                    *low
                }
            }
            Distr::Cyclic3 { low, med, high } => match me % 3 {
                0 => *low,
                1 => *med,
                _ => *high,
            },
            Distr::Block3 { low, med, high } => {
                let third = sz.div_ceil(3);
                if me < third {
                    *low
                } else if me < 2 * third {
                    *med
                } else {
                    *high
                }
            }
            Distr::Custom(f) => f(me, sz),
        };
        raw * scale
    }

    /// All `sz` values at once.
    pub fn values(&self, sz: usize, scale: f64) -> Vec<f64> {
        (0..sz).map(|me| self.value(me, sz, scale)).collect()
    }

    /// The value as a work duration (seconds → [`VDur`], clamped at 0).
    pub fn work(&self, me: usize, sz: usize, scale: f64) -> VDur {
        VDur::from_secs(self.value(me, sz, scale))
    }

    /// The value as an element count (rounded, clamped at 0).
    pub fn count(&self, me: usize, sz: usize, scale: f64) -> usize {
        self.value(me, sz, scale).max(0.0).round() as usize
    }

    /// Largest minus smallest assigned value: the *absolute imbalance*
    /// this distribution programs into a group of `sz`.
    pub fn imbalance(&self, sz: usize, scale: f64) -> f64 {
        let v = self.values(sz, scale);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// True if every participant receives the same value (a *negative*
    /// test-case distribution).
    pub fn is_balanced(&self, sz: usize) -> bool {
        let v = self.values(sz, 1.0);
        v.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12)
    }
}

/// Error from parsing a distribution specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDistrError(String);

impl fmt::Display for ParseDistrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution spec: {}", self.0)
    }
}

impl std::error::Error for ParseDistrError {}

impl FromStr for Distr {
    type Err = ParseDistrError;

    /// Parse `"shape:key=val,key=val"` specs, the format used by the
    /// generated single-property test programs' command lines, e.g.
    /// `"cyclic2:low=0.01,high=0.05"` or `"peak:low=0.01,high=0.2,n=3"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (shape, rest) = s.split_once(':').unwrap_or((s, ""));
        let mut low = None;
        let mut high = None;
        let mut med = None;
        let mut val = None;
        let mut n = None;
        for kv in rest.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| ParseDistrError(format!("missing '=' in {}", quote(kv))))?;
            let parse_f = || {
                v.parse::<f64>().map_err(|_| {
                    ParseDistrError(format!("bad number {} for {}", quote(v), quote(k)))
                })
            };
            match k.trim() {
                "low" => low = Some(parse_f()?),
                "high" => high = Some(parse_f()?),
                "med" => med = Some(parse_f()?),
                "val" => val = Some(parse_f()?),
                "n" => {
                    let bad = || ParseDistrError(format!("bad index {} for `n`", quote(v)));
                    n = Some(v.parse::<usize>().map_err(|_| bad())?);
                }
                other => return Err(ParseDistrError(format!("unknown key {}", quote(other)))),
            }
        }
        let req = |o: Option<f64>, k: &str| {
            o.ok_or_else(|| ParseDistrError(format!("{} requires `{k}`", quote(shape))))
        };
        match shape.trim() {
            "same" => Ok(Distr::same(req(val, "val")?)),
            "cyclic2" => Ok(Distr::cyclic2(req(low, "low")?, req(high, "high")?)),
            "block2" => Ok(Distr::block2(req(low, "low")?, req(high, "high")?)),
            "linear" => Ok(Distr::linear(req(low, "low")?, req(high, "high")?)),
            "peak" => Ok(Distr::peak(
                req(low, "low")?,
                req(high, "high")?,
                n.ok_or_else(|| ParseDistrError("peak requires `n`".into()))?,
            )),
            "cyclic3" => Ok(Distr::cyclic3(
                req(low, "low")?,
                req(med, "med")?,
                req(high, "high")?,
            )),
            "block3" => Ok(Distr::block3(
                req(low, "low")?,
                req(med, "med")?,
                req(high, "high")?,
            )),
            other => Err(ParseDistrError(format!("unknown shape {}", quote(other)))),
        }
    }
}

impl fmt::Display for Distr {
    /// Inverse of [`FromStr`]: `peak(low=1,high=2,n=0)` prints as
    /// `peak:low=1,high=2,n=0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distr::Same { val } => write!(f, "same:val={val}"),
            Distr::Cyclic2 { low, high } => write!(f, "cyclic2:low={low},high={high}"),
            Distr::Block2 { low, high } => write!(f, "block2:low={low},high={high}"),
            Distr::Linear { low, high } => write!(f, "linear:low={low},high={high}"),
            Distr::Peak { low, high, n } => write!(f, "peak:low={low},high={high},n={n}"),
            Distr::Cyclic3 { low, med, high } => {
                write!(f, "cyclic3:low={low},med={med},high={high}")
            }
            Distr::Block3 { low, med, high } => {
                write!(f, "block3:low={low},med={med},high={high}")
            }
            Distr::Custom(_) => write!(f, "custom"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_is_flat() {
        let d = Distr::same(0.5);
        assert_eq!(d.values(4, 2.0), vec![1.0; 4]);
        assert!(d.is_balanced(4));
        assert_eq!(d.imbalance(4, 1.0), 0.0);
    }

    #[test]
    fn cyclic2_alternates() {
        let d = Distr::cyclic2(1.0, 2.0);
        assert_eq!(d.values(5, 1.0), vec![1.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn block2_halves() {
        let d = Distr::block2(1.0, 2.0);
        assert_eq!(d.values(4, 1.0), vec![1.0, 1.0, 2.0, 2.0]);
        // Odd sizes: the first block gets the extra member.
        assert_eq!(d.values(5, 1.0), vec![1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn linear_ramps() {
        let d = Distr::linear(0.0, 3.0);
        assert_eq!(d.values(4, 1.0), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(d.values(1, 1.0), vec![0.0], "singleton takes low");
    }

    #[test]
    fn peak_singles_out_one_rank() {
        let d = Distr::peak(1.0, 9.0, 2);
        assert_eq!(d.values(4, 1.0), vec![1.0, 1.0, 9.0, 1.0]);
        // Peak index beyond the group clamps to the last rank.
        let d = Distr::peak(1.0, 9.0, 100);
        assert_eq!(d.values(3, 1.0), vec![1.0, 1.0, 9.0]);
    }

    #[test]
    fn cyclic3_and_block3() {
        let c = Distr::cyclic3(1.0, 2.0, 3.0);
        assert_eq!(c.values(6, 1.0), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let b = Distr::block3(1.0, 2.0, 3.0);
        assert_eq!(b.values(6, 1.0), vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        // ceil-sized blocks: 3 + 3 + 1 members.
        assert_eq!(b.values(7, 1.0), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn scale_factor_is_proportional() {
        let d = Distr::linear(1.0, 2.0);
        for me in 0..4 {
            assert!((d.value(me, 4, 3.0) - 3.0 * d.value(me, 4, 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn custom_shape() {
        let d = Distr::Custom(Arc::new(|me, sz| (me * sz) as f64));
        assert_eq!(d.values(3, 1.0), vec![0.0, 3.0, 6.0]);
    }

    #[test]
    fn work_clamps_negative_to_zero() {
        let d = Distr::linear(-1.0, 1.0);
        assert_eq!(d.work(0, 3, 1.0), VDur::ZERO);
        assert_eq!(d.work(2, 3, 1.0), VDur::from_secs(1.0));
    }

    #[test]
    fn count_rounds() {
        let d = Distr::same(2.6);
        assert_eq!(d.count(0, 1, 1.0), 3);
        assert_eq!(d.count(0, 1, 0.1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        Distr::same(1.0).value(4, 4, 1.0);
    }

    #[test]
    fn parse_roundtrip_all_shapes() {
        for spec in [
            "same:val=0.5",
            "cyclic2:low=0.01,high=0.05",
            "block2:low=1,high=2",
            "linear:low=0,high=1",
            "peak:low=0.1,high=0.9,n=3",
            "cyclic3:low=1,med=2,high=3",
            "block3:low=1,med=2,high=3",
        ] {
            let d: Distr = spec.parse().unwrap();
            let printed = d.to_string();
            let d2: Distr = printed.parse().unwrap();
            assert_eq!(d, d2, "roundtrip failed for {spec}");
        }
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!("wiggle:low=1".parse::<Distr>().is_err());
        assert!("peak:low=1,high=2".parse::<Distr>().is_err(), "missing n");
        assert!("same:".parse::<Distr>().is_err(), "missing val");
        assert!("cyclic2:low=x,high=1".parse::<Distr>().is_err());
        assert!("cyclic2:low,high=1".parse::<Distr>().is_err());
    }

    #[test]
    fn imbalance_reflects_spread() {
        assert_eq!(Distr::cyclic2(1.0, 3.0).imbalance(4, 2.0), 4.0);
        assert_eq!(Distr::peak(0.0, 5.0, 0).imbalance(8, 1.0), 5.0);
    }

    #[test]
    fn balanced_detection_edge_cases() {
        assert!(Distr::cyclic2(2.0, 2.0).is_balanced(8));
        assert!(!Distr::cyclic2(2.0, 2.1).is_balanced(8));
        assert!(Distr::linear(1.0, 2.0).is_balanced(1), "singleton is flat");
        assert!(Distr::peak(1.0, 2.0, 0).is_balanced(1));
    }
}
