//! Typed parameter values for property-function invocations.
//!
//! The paper's generated test programs "read the necessary property
//! parameters from the command line"; this module is that command line:
//! `key=value` tokens validated against the catalog's
//! [`ParamSpec`](crate::ParamSpec)s — each value's kind and declared
//! range, which for a distribution bounds every seconds value it names —
//! with defaults filled in.

use crate::error::quote;
use crate::{Distr, ParamKind, PropertySpec};
use std::collections::BTreeMap;
use std::fmt;

/// One parsed parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Work amount in seconds.
    Seconds(f64),
    /// Count (reps, root, threads, ...).
    Count(usize),
    /// A distribution.
    Distr(Distr),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Seconds(s) => write!(f, "{s}"),
            ParamValue::Count(c) => write!(f, "{c}"),
            ParamValue::Distr(d) => write!(f, "{d}"),
        }
    }
}

/// Errors from parameter parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// A token was not `key=value`.
    Malformed(String),
    /// The key is not a parameter of this property.
    UnknownKey(String),
    /// The value failed to parse under the parameter's kind; `reason`
    /// quotes it and says why.
    BadValue { key: String, reason: String },
    /// The value lies outside the parameter's declared `range`.
    OutOfRange {
        key: String,
        value: String,
        range: String,
    },
    /// A `root` rank outside the `group`-rank communicator it roots.
    RootOutsideGroup { root: usize, group: usize },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Malformed(t) => {
                write!(f, "malformed parameter {} (expected key=value)", quote(t))
            }
            ParamError::UnknownKey(k) => write!(f, "unknown parameter {}", quote(k)),
            ParamError::BadValue { key, reason } => {
                write!(f, "bad value for parameter {}: {reason}", quote(key))
            }
            ParamError::OutOfRange { key, value, range } => write!(
                f,
                "value {} for parameter {} is outside its range {range}",
                quote(value),
                quote(key)
            ),
            ParamError::RootOutsideGroup { root, group } => write!(
                f,
                "parameter `root` = {root} is outside the communicator of {group} ranks"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// A complete, validated parameter assignment for one property function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamValues {
    values: BTreeMap<String, ParamValue>,
}

impl ParamValues {
    /// Build from `key=value` tokens, validating each value's kind and
    /// declared range against `spec`, and filling unspecified parameters
    /// with their catalog defaults.
    pub fn from_args(spec: &PropertySpec, args: &[&str]) -> Result<Self, ParamError> {
        let mut values = BTreeMap::new();
        // Defaults first.
        for p in spec.params {
            values.insert(
                p.name.to_owned(),
                parse_value(p.kind, p.default).expect("catalog defaults are valid"),
            );
        }
        for token in args {
            let (k, v) = token
                .split_once('=')
                .ok_or_else(|| ParamError::Malformed((*token).to_owned()))?;
            // Distribution specs contain '=' inside; re-join for df.
            let param = spec
                .params
                .iter()
                .find(|p| p.name == k)
                .ok_or_else(|| ParamError::UnknownKey(k.to_owned()))?;
            let value = parse_value(param.kind, v).map_err(|reason| ParamError::BadValue {
                key: k.to_owned(),
                reason,
            })?;
            let (lo, hi) = param.range_f64();
            let in_range = |x: f64| lo <= x && x <= hi;
            let in_range = match &value {
                ParamValue::Seconds(x) => in_range(*x),
                ParamValue::Count(n) => in_range(*n as f64),
                ParamValue::Distr(d) => d.levels().into_iter().all(in_range),
            };
            if !in_range {
                return Err(ParamError::OutOfRange {
                    key: k.to_owned(),
                    value: v.to_owned(),
                    range: param.range_display().unwrap_or_default(),
                });
            }
            values.insert(k.to_owned(), value);
        }
        Ok(ParamValues { values })
    }

    /// Defaults only.
    pub fn defaults(spec: &PropertySpec) -> Self {
        Self::from_args(spec, &[]).expect("defaults are valid")
    }

    /// Check that the `root` parameter, if the entry has one, names a
    /// rank of the `group`-rank communicator the entry runs on. The
    /// catalog cannot declare this bound: it depends on where the entry
    /// runs.
    pub fn check_root(&self, group: usize) -> Result<(), ParamError> {
        match self.values.get("root") {
            Some(&ParamValue::Count(root)) if root >= group => {
                Err(ParamError::RootOutsideGroup { root, group })
            }
            _ => Ok(()),
        }
    }

    /// Override one parameter (used by sweeps; unchecked).
    pub fn set(&mut self, key: &str, value: ParamValue) {
        self.values.insert(key.to_owned(), value);
    }

    /// Fetch a seconds parameter.
    pub fn seconds(&self, key: &str) -> f64 {
        match self.values.get(key) {
            Some(ParamValue::Seconds(s)) => *s,
            other => panic!("parameter `{key}` is not seconds: {other:?}"),
        }
    }

    /// Fetch a count parameter.
    pub fn count(&self, key: &str) -> usize {
        match self.values.get(key) {
            Some(ParamValue::Count(c)) => *c,
            other => panic!("parameter `{key}` is not a count: {other:?}"),
        }
    }

    /// Fetch a distribution parameter.
    pub fn distr(&self, key: &str) -> Distr {
        match self.values.get(key) {
            Some(ParamValue::Distr(d)) => d.clone(),
            other => panic!("parameter `{key}` is not a distribution: {other:?}"),
        }
    }

    /// Render back to the command-line syntax (sorted by key).
    pub fn to_cli(&self) -> String {
        self.values
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Parse `s` under `kind`, or say why it does not parse.
fn parse_value(kind: ParamKind, s: &str) -> Result<ParamValue, String> {
    match kind {
        ParamKind::Seconds => s
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .map(ParamValue::Seconds)
            .ok_or_else(|| format!("{} is not a number of seconds, at least 0", quote(s))),
        ParamKind::Count => s
            .parse::<usize>()
            .map(ParamValue::Count)
            .map_err(|_| format!("{} is not a whole number", quote(s))),
        ParamKind::Distribution => s
            .parse::<Distr>()
            .map(ParamValue::Distr)
            .map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn defaults_fill_everything() {
        let spec = catalog::find("late_sender").unwrap();
        let v = ParamValues::defaults(spec);
        assert_eq!(v.seconds("basework"), 0.01);
        assert_eq!(v.seconds("extrawork"), 0.04);
        assert_eq!(v.count("r"), 3);
    }

    #[test]
    fn overrides_apply() {
        let spec = catalog::find("late_sender").unwrap();
        let v = ParamValues::from_args(spec, &["extrawork=0.1", "r=7"]).unwrap();
        assert_eq!(v.seconds("extrawork"), 0.1);
        assert_eq!(v.count("r"), 7);
        assert_eq!(v.seconds("basework"), 0.01, "untouched default");
    }

    #[test]
    fn distribution_values_parse_with_inner_equals() {
        let spec = catalog::find("imbalance_at_mpi_barrier").unwrap();
        let v = ParamValues::from_args(spec, &["df=peak:low=0.01,high=0.2,n=3"]).unwrap();
        assert_eq!(v.distr("df"), Distr::peak(0.01, 0.2, 3));
    }

    #[test]
    fn errors_are_specific() {
        let spec = catalog::find("late_sender").unwrap();
        assert!(matches!(
            ParamValues::from_args(spec, &["nonsense"]),
            Err(ParamError::Malformed(_))
        ));
        assert!(matches!(
            ParamValues::from_args(spec, &["bogus=1"]),
            Err(ParamError::UnknownKey(_))
        ));
        assert!(matches!(
            ParamValues::from_args(spec, &["r=notanumber"]),
            Err(ParamError::BadValue { .. })
        ));
        assert!(matches!(
            ParamValues::from_args(spec, &["basework=-1"]),
            Err(ParamError::BadValue { .. })
        ));
        let err = ParamValues::from_args(spec, &["r=65"]).unwrap_err();
        assert!(matches!(err, ParamError::OutOfRange { .. }), "{err:?}");
        assert!(err.to_string().contains("[1, 64]"), "{err}");
        let spec = catalog::find("imbalance_at_mpi_barrier").unwrap();
        let err = ParamValues::from_args(spec, &["df=cyclic2:low=1"]).unwrap_err();
        assert!(err.to_string().contains("requires `high`"), "{err}");
        // Each seconds value of a distribution is finite and in [0, 1].
        for df in [
            "df=linear:low=0,high=2e10",
            "df=linear:low=-1,high=0.05",
            "df=same:val=nan",
            "df=same:val=inf",
        ] {
            let err = ParamValues::from_args(spec, &[df]).unwrap_err();
            assert!(
                matches!(&err, ParamError::OutOfRange { key, range, .. }
                    if key == "df" && range == "[0, 1]"),
                "{df}: {err:?}"
            );
        }
        assert!(ParamValues::from_args(spec, &["df=peak:low=0,high=1,n=9"]).is_ok());
    }

    #[test]
    fn roots_must_lie_inside_the_group() {
        let spec = catalog::find("late_broadcast").unwrap();
        let v = ParamValues::from_args(spec, &["root=3"]).unwrap();
        assert_eq!(v.check_root(4), Ok(()));
        assert_eq!(
            v.check_root(3),
            Err(ParamError::RootOutsideGroup { root: 3, group: 3 })
        );
        let omp = ParamValues::defaults(catalog::find("imbalance_at_omp_barrier").unwrap());
        assert_eq!(omp.check_root(1), Ok(()), "an entry without a root");
    }

    #[test]
    fn cli_roundtrip() {
        let spec = catalog::find("imbalance_at_mpi_barrier").unwrap();
        let v = ParamValues::from_args(spec, &["df=linear:low=0.01,high=0.05", "r=4"]).unwrap();
        let cli = v.to_cli();
        let tokens: Vec<&str> = cli.split(' ').collect();
        let v2 = ParamValues::from_args(spec, &tokens).unwrap();
        assert_eq!(v, v2);
    }
}
