//! The frozen `ats-report/1` wire schema.
//!
//! One report layout is consumed in three places: [`AnalysisReport::to_json`]
//! (the offline export EXPERIMENTS.md scripts read), the store's
//! `report.json` artifact, and every `ats-serve` response body. This module
//! is the single definition all three share, so the schema cannot drift
//! between producers.
//!
//! The contract:
//!
//! * every document carries `"schema": "ats-report/1"` ([`REPORT_SCHEMA`]);
//! * field names are frozen — additions are allowed under a new schema
//!   tag, renames and removals never;
//! * the **normative bytes** are the canonical [`Json`] rendering
//!   ([`ReportDoc::render`]): sorted object keys, exact integers,
//!   shortest-round-trip floats, two-space pretty indentation with a
//!   trailing newline. Producing the document through any other
//!   serializer is a bug — byte identity between the offline export, the
//!   cached artifact and the service body is a CI gate.
//!
//! Waiting times cross the wire as integer nanoseconds (`wait_ns`), never
//! floats, so documents hash and compare exactly.

use crate::report::{AnalysisReport, Finding};
use ats_core::json::Json;
use ats_core::{Error, ErrorKind};
use ats_runtime::VDur;

/// The schema tag every `ats-report/1` document carries.
pub const REPORT_SCHEMA: &str = "ats-report/1";

/// One finding on the wire: a property at a call path with its severity
/// and per-location waiting times.
#[derive(Debug, Clone, PartialEq)]
pub struct FindingDoc {
    /// The diagnosed property (catalog name, e.g. `LateSender`).
    pub property: String,
    /// The call path, rendered `a/b/c`.
    pub call_path: String,
    /// Accumulated waiting time in integer nanoseconds.
    pub wait_ns: u64,
    /// Waiting time / total allocation time.
    pub severity: f64,
    /// Per-location `(location, wait_ns)` pairs, sorted by location.
    pub locations: Vec<(String, u64)>,
}

/// The complete report on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDoc {
    /// Always [`REPORT_SCHEMA`].
    pub schema: String,
    /// Total allocation time of the run, in seconds.
    pub total_alloc_secs: f64,
    /// The severity threshold the findings were filtered at.
    pub threshold: f64,
    /// Findings at or above the threshold, most severe first.
    pub findings: Vec<FindingDoc>,
}

impl FindingDoc {
    fn of(f: &Finding) -> FindingDoc {
        FindingDoc {
            property: f.property.clone(),
            call_path: f.call_path.clone(),
            wait_ns: f.wait.as_nanos(),
            severity: f.severity,
            locations: f
                .locations
                .iter()
                .map(|(loc, w)| (loc.clone(), w.as_nanos()))
                .collect(),
        }
    }

    fn to_value(&self) -> Json {
        let mut locs = Json::arr();
        for (loc, ns) in &self.locations {
            locs.push(Json::from(vec![Json::from(loc.clone()), Json::from(*ns)]));
        }
        Json::obj()
            .with("call_path", self.call_path.clone())
            .with("locations", locs)
            .with("property", self.property.clone())
            .with("severity", self.severity)
            .with("wait_ns", self.wait_ns)
    }

    fn from_value(v: &Json) -> Result<FindingDoc, Error> {
        Ok(FindingDoc {
            property: str_field(v, "property")?,
            call_path: str_field(v, "call_path")?,
            wait_ns: u64_field(v, "wait_ns")?,
            severity: f64_field(v, "severity")?,
            locations: v
                .get("locations")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("locations"))?
                .iter()
                .map(|pair| {
                    let items = pair.as_arr().filter(|a| a.len() == 2);
                    let loc = items.and_then(|a| a[0].as_str());
                    let ns = items.and_then(|a| a[1].as_u64());
                    match (loc, ns) {
                        (Some(l), Some(n)) => Ok((l.to_owned(), n)),
                        _ => Err(Error::report("malformed `locations` pair")),
                    }
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ReportDoc {
    /// The wire form of an in-memory [`AnalysisReport`].
    pub fn of(report: &AnalysisReport) -> ReportDoc {
        ReportDoc {
            schema: REPORT_SCHEMA.to_owned(),
            total_alloc_secs: report.cube.total_alloc().as_secs(),
            threshold: report.threshold,
            findings: report.findings.iter().map(FindingDoc::of).collect(),
        }
    }

    /// The canonical JSON value of this document (schema tag included).
    pub fn to_value(&self) -> Json {
        let mut findings = Json::arr();
        for f in &self.findings {
            findings.push(f.to_value());
        }
        Json::obj()
            .with("findings", findings)
            .with("schema", self.schema.clone())
            .with("threshold", self.threshold)
            .with("total_alloc_secs", self.total_alloc_secs)
    }

    /// The normative bytes: canonical pretty rendering, trailing newline.
    pub fn render(&self) -> String {
        self.to_value().render_pretty()
    }

    /// Parse a canonical value back, verifying the schema tag.
    fn from_value(v: &Json) -> Result<ReportDoc, Error> {
        let schema = str_field(v, "schema")?;
        if schema != REPORT_SCHEMA {
            return Err(Error::report(format!(
                "unsupported report schema `{schema}` (expected `{REPORT_SCHEMA}`)"
            )));
        }
        Ok(ReportDoc {
            schema,
            total_alloc_secs: f64_field(v, "total_alloc_secs")?,
            threshold: f64_field(v, "threshold")?,
            findings: v
                .get("findings")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("findings"))?
                .iter()
                .map(FindingDoc::from_value)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parse report bytes (e.g. a stored `report.json` or a serve body).
    pub fn parse(text: &str) -> Result<ReportDoc, Error> {
        let v = Json::parse(text)
            .map_err(|e| Error::new(ErrorKind::Report, format!("invalid report JSON: {e}")))?;
        ReportDoc::from_value(&v)
    }

    /// The findings diagnosing `property` (by name).
    pub fn findings_for(&self, property: &str) -> Vec<&FindingDoc> {
        self.findings
            .iter()
            .filter(|f| f.property == property)
            .collect()
    }

    /// Total waiting time across findings, as a [`VDur`].
    pub fn total_wait(&self) -> VDur {
        VDur::from_nanos(self.findings.iter().map(|f| f.wait_ns).sum())
    }
}

fn missing(field: &str) -> Error {
    Error::report(format!("report document missing field `{field}`"))
}

fn str_field(v: &Json, field: &str) -> Result<String, Error> {
    v.get(field)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| missing(field))
}

fn u64_field(v: &Json, field: &str) -> Result<u64, Error> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(field))
}

fn f64_field(v: &Json, field: &str) -> Result<f64, Error> {
    v.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| missing(field))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReportDoc {
        ReportDoc {
            schema: REPORT_SCHEMA.to_owned(),
            total_alloc_secs: 0.25,
            threshold: 0.05,
            findings: vec![FindingDoc {
                property: "LateSender".to_owned(),
                call_path: "main/late_sender".to_owned(),
                wait_ns: 40_000_000,
                severity: 0.16,
                locations: vec![("1".to_owned(), 40_000_000)],
            }],
        }
    }

    #[test]
    fn round_trips_through_canonical_bytes() {
        let doc = sample();
        let bytes = doc.render();
        let back = ReportDoc::parse(&bytes).unwrap();
        assert_eq!(back, doc);
        // Rendering is a fixed point: parse → render reproduces the bytes.
        assert_eq!(back.render(), bytes);
    }

    #[test]
    fn schema_tag_is_enforced() {
        let mut v = sample().to_value();
        v.set("schema", "ats-report/2");
        let err = ReportDoc::from_value(&v).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Report);
        assert!(err.to_string().contains("ats-report/2"), "{err}");

        let err = ReportDoc::parse("{}").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Report);
    }

    #[test]
    fn missing_fields_are_named() {
        let mut v = sample().to_value();
        v.as_obj_mut()
            .unwrap()
            .get_mut("findings")
            .unwrap()
            .as_arr_mut()
            .unwrap()[0]
            .as_obj_mut()
            .unwrap()
            .remove("wait_ns");
        let err = ReportDoc::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("wait_ns"), "{err}");
    }
}
