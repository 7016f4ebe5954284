//! Structured JSON run manifests.
//!
//! A manifest is the durable record written next to every trace or
//! experiment artifact: what ran (label + config + git describe), what it
//! did (the *deterministic* per-subsystem counters — reproducible bit for
//! bit for a fixed seed at any `jobs` value), and how it went (the
//! *runtime* section: wall/CPU time, scheduling-dependent counters,
//! gauges, latency histograms). The two sections are
//! split precisely so tests and CI can diff [`RunManifest::deterministic_json`]
//! across runs while the runtime half stays free to vary.

use crate::registry::Handle;
use ats_runtime::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "ats-run-manifest/1";

/// Snapshot of one histogram for the manifest's runtime section.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum_seconds: f64,
}

/// Scheduling- and timing-dependent observations.
#[derive(Debug, Clone)]
pub struct RuntimeSection {
    /// Wall-clock seconds for the run the manifest describes.
    pub wall_seconds: f64,
    /// Process CPU seconds (user+system) at snapshot time, if readable.
    pub cpu_seconds: Option<f64>,
    /// Non-deterministic counters (pool reuse, busy/wall time).
    pub counters: BTreeMap<&'static str, u64>,
    /// All gauges.
    pub gauges: BTreeMap<&'static str, u64>,
    /// All histograms.
    pub histograms: BTreeMap<&'static str, HistSnapshot>,
}

/// The manifest itself. Serialize with [`RunManifest::to_json_pretty`].
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Schema identifier ([`MANIFEST_SCHEMA`]).
    pub schema: &'static str,
    /// What ran — a bin name, an experiment label.
    pub label: String,
    /// `git describe --always --dirty` of the working tree, or "unknown".
    pub git_describe: String,
    /// The run's configuration (seed, procs, thresholds — *not* `jobs`,
    /// which is an execution detail that must not affect results).
    pub config: Json,
    /// Deterministic per-subsystem counters: identical for identical
    /// (config, seed) at any `jobs` value.
    pub metrics: BTreeMap<&'static str, u64>,
    /// Everything timing-dependent.
    pub runtime: RuntimeSection,
}

impl RunManifest {
    /// Pretty-printed JSON of the full manifest.
    pub fn to_json_pretty(&self) -> String {
        let rt = &self.runtime;
        let histograms = rt.histograms.iter().map(|(name, h)| {
            let doc = Json::obj()
                .with("count", h.count)
                .with("sum_seconds", h.sum_seconds);
            (name.to_string(), doc)
        });
        let runtime = Json::obj()
            .with("wall_seconds", rt.wall_seconds)
            .with("cpu_seconds", rt.cpu_seconds.map_or(Json::Null, Json::from))
            .with("counters", counts(&rt.counters))
            .with("gauges", counts(&rt.gauges))
            .with("histograms", Json::Obj(histograms.collect()));
        self.deterministic_doc()
            .with("git_describe", self.git_describe.as_str())
            .with("runtime", runtime)
            .render_pretty()
    }

    /// JSON of only the reproducible fields (schema, label, config,
    /// deterministic metrics) — the thing tests diff across runs.
    pub fn deterministic_json(&self) -> String {
        self.deterministic_doc().render_pretty()
    }

    fn deterministic_doc(&self) -> Json {
        Json::obj()
            .with("schema", self.schema)
            .with("label", self.label.as_str())
            .with("config", self.config.clone())
            .with("metrics", counts(&self.metrics))
    }

    /// Write the manifest beside an artifact: `foo.atsb` →
    /// `foo.atsb.manifest.json`. Returns the manifest path.
    pub fn write_beside(&self, artifact: &Path) -> io::Result<PathBuf> {
        let mut name = artifact.file_name().unwrap_or_default().to_os_string();
        name.push(".manifest.json");
        let path = artifact.with_file_name(name);
        std::fs::write(&path, self.to_json_pretty())?;
        Ok(path)
    }
}

fn counts(map: &BTreeMap<&'static str, u64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.to_string(), Json::from(*v)))
            .collect(),
    )
}

/// Build a manifest from a registry snapshot.
///
/// `config` should describe the workload (seed, procs, parameters,
/// thresholds) and deliberately exclude execution details like `jobs` or
/// thread budgets — those belong to the runtime section's gauges.
pub fn build_manifest(
    label: &str,
    config: Json,
    handle: &Handle,
    wall_seconds: f64,
) -> RunManifest {
    let mut metrics = BTreeMap::new();
    let mut runtime_counters = BTreeMap::new();
    for c in handle.counters() {
        if c.deterministic {
            metrics.insert(c.name, c.value);
        } else {
            runtime_counters.insert(c.name, c.value);
        }
    }
    let gauges = handle
        .gauges()
        .into_iter()
        .map(|g| (g.name, g.value))
        .collect();
    let histograms = handle
        .histograms()
        .into_iter()
        .map(|h| {
            (
                h.name,
                HistSnapshot {
                    count: h.hist.count(),
                    sum_seconds: h.hist.sum_secs(),
                },
            )
        })
        .collect();
    RunManifest {
        schema: MANIFEST_SCHEMA,
        label: label.to_owned(),
        git_describe: git_describe(),
        config,
        metrics,
        runtime: RuntimeSection {
            wall_seconds,
            cpu_seconds: process_cpu_seconds(),
            counters: runtime_counters,
            gauges,
            histograms,
        },
    }
}

/// `git describe --always --dirty`, or "unknown" outside a work tree.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// User+system CPU seconds of this process, from `/proc/self/stat`
/// (Linux only; `None` elsewhere or on parse failure).
pub fn process_cpu_seconds() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields 14/15 (utime/stime) counted after the parenthesized comm,
        // which may itself contain spaces.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        // USER_HZ is 100 on every Linux configuration we target.
        Some((utime + stime) as f64 / 100.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Handle;

    fn sample_handle() -> Handle {
        let h = Handle::new();
        h.mpi.events.add(123);
        h.store.hits.add(7); // runtime-classified
        h.analyzer.findings.add(4);
        h
    }

    #[test]
    fn deterministic_section_excludes_runtime_counters() {
        let h = sample_handle();
        let m = build_manifest("unit", Json::obj().with("seed", 1u64), &h, 0.5);
        assert_eq!(m.metrics["ats_mpisim_events_total"], 123);
        assert_eq!(m.metrics["ats_analyzer_findings_total"], 4);
        assert!(!m.metrics.contains_key("ats_store_hits_total"));
        assert_eq!(m.runtime.counters["ats_store_hits_total"], 7);
        let det = m.deterministic_json();
        assert!(det.contains("ats_mpisim_events_total"));
        assert!(!det.contains("store_hits"));
        assert!(!det.contains("wall_seconds"));
    }

    #[test]
    fn deterministic_json_is_stable_across_identical_registries() {
        let a = build_manifest(
            "unit",
            Json::obj().with("seed", 1u64),
            &sample_handle(),
            0.1,
        );
        let b = build_manifest(
            "unit",
            Json::obj().with("seed", 1u64),
            &sample_handle(),
            9.9,
        );
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn write_beside_names_the_manifest_after_the_artifact() {
        let dir = std::env::temp_dir().join("ats_obs_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("trace.atsb");
        std::fs::write(&artifact, b"x").unwrap();
        let m = build_manifest("unit", Json::obj(), &Handle::new(), 0.0);
        let path = m.write_beside(&artifact).unwrap();
        assert!(path.ends_with("trace.atsb.manifest.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(MANIFEST_SCHEMA)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cpu_seconds_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_seconds().is_some());
        }
    }
}
