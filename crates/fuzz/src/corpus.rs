//! The on-disk corpus of minimized violating scenarios.
//!
//! Every violating scenario the shrinker minimizes is persisted twice:
//! the spec as pretty JSON (`s<seed-hex>.json`, a document carrying
//! the compact text form and the violations for human triage) and the
//! executed trace in the ATSB binary format (`s<seed-hex>.atsb`). The JSON
//! spec is the replayable artifact — `replay` re-executes the scenario
//! through the oracle, which is how a fixed analyzer proves the regression
//! is gone (and CI proves it never comes back).
//!
//! Both files are written through [`ats_store::atomic`] (temp file +
//! rename), so an interrupted campaign can never leave a truncated
//! corpus entry. These files are the one record of a witness.

use crate::oracle::{self, OracleConfig, Violation, ViolationKind};
use crate::scenario::Scenario;
use ats_core::Error;
use ats_store::{atomic, Json};
use ats_trace::{binfmt, Trace};
use std::fs;
use std::path::{Path, PathBuf};

/// Default corpus directory, relative to the repository root.
pub const DEFAULT_DIR: &str = "artifacts/fuzz-corpus";

/// One loaded corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Path of the `.json` spec.
    pub path: PathBuf,
    /// The scenario.
    pub scenario: Scenario,
    /// Violations recorded at persist time.
    pub violations: Vec<Violation>,
}

/// File stem for a scenario: the seed in fixed-width hex, so corpus
/// listings sort deterministically.
fn stem(sc: &Scenario) -> String {
    format!("s{:016x}", sc.seed)
}

/// Persist a minimized scenario and its trace under `dir`, counting the
/// trace's ATSB bytes into the registry of `opts`. Returns the path of
/// the JSON spec.
pub fn persist(
    dir: &Path,
    sc: &Scenario,
    violations: &[Violation],
    trace: &Trace,
    opts: &ats_harness::RunOpts,
) -> Result<PathBuf, Error> {
    fs::create_dir_all(dir).map_err(|e| Error::corpus(format!("create {}: {e}", dir.display())))?;
    let stem = stem(sc);
    let json_path = dir.join(format!("{stem}.json"));
    let json = spec_doc(sc, violations).render_pretty();
    // Temp-file + rename for both artifacts: a reader (or a resumed
    // campaign) can never observe a half-written spec or trace.
    atomic::write_atomic(&json_path, json.as_bytes())?;
    let atsb_path = dir.join(format!("{stem}.atsb"));
    let atsb = binfmt::encode(trace);
    atomic::write_atomic(&atsb_path, &atsb)?;
    if let Some(obs) = &opts.obs {
        obs.trace.binary_bytes_encoded.add(atsb.len() as u64);
    }
    Ok(json_path)
}

/// Schema tag of a corpus spec document. Existing corpus files carry
/// this exact tag, so it must not change.
pub const SPEC_SCHEMA: &str = "ats-store-fuzz-corpus/1";

fn violation_json(v: &Violation) -> Json {
    Json::obj()
        .with("kind", v.kind.to_string())
        .with("phase", v.phase)
        .with("region", v.region.as_str())
        .with("property", v.property.as_str())
        .with("detail", v.detail.as_str())
}

fn violation_from_json(doc: &Json) -> Option<Violation> {
    let kind = match doc.get("kind").and_then(Json::as_str)? {
        "missed" => ViolationKind::Missed,
        "spurious" => ViolationKind::Spurious,
        "wait-out-of-band" => ViolationKind::WaitOutOfBand,
        _ => return None,
    };
    Some(Violation {
        kind,
        phase: doc.get("phase").and_then(Json::as_u64)? as usize,
        region: doc.get("region").and_then(Json::as_str)?.to_owned(),
        property: doc.get("property").and_then(Json::as_str)?.to_owned(),
        detail: doc.get("detail").and_then(Json::as_str)?.to_owned(),
    })
}

/// The spec document a corpus entry carries on disk: enough to
/// re-generate, grep and triage the witness without touching the binary
/// trace.
fn spec_doc(sc: &Scenario, violations: &[Violation]) -> Json {
    let mut vs = Json::arr();
    for v in violations {
        vs.push(violation_json(v));
    }
    Json::obj()
        .with("schema", SPEC_SCHEMA)
        .with("seed", sc.seed)
        .with("nprocs", sc.nprocs)
        .with("text", sc.to_string())
        .with("violations", vs)
}

/// Parse the violations back out of a spec document.
fn spec_violations(doc: &Json) -> Option<Vec<Violation>> {
    doc.get("violations")?
        .as_arr()?
        .iter()
        .map(violation_from_json)
        .collect()
}

/// Load every `.json` spec under `dir`, sorted by file name. A missing
/// directory is an empty corpus.
pub fn load(dir: &Path) -> Result<Vec<CorpusEntry>, Error> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(Error::corpus(format!("read {}: {e}", dir.display()))),
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
    };
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)
            .map_err(|e| Error::corpus(format!("read {}: {e}", path.display())))?;
        let bad = |why: String| Error::corpus(format!("{}: {why}", path.display()));
        let doc = Json::parse(&text).map_err(bad)?;
        let scenario = doc
            .get("text")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("spec has no `text`".to_owned()))?
            .parse::<Scenario>()
            .map_err(|e| bad(e.to_string()))?;
        let violations =
            spec_violations(&doc).ok_or_else(|| bad("malformed `violations`".to_owned()))?;
        out.push(CorpusEntry {
            path,
            scenario,
            violations,
        });
    }
    Ok(out)
}

/// Result of replaying one corpus entry.
#[derive(Debug)]
pub struct ReplayResult {
    /// The entry.
    pub entry: CorpusEntry,
    /// Violations under the *current* oracle configuration (empty means
    /// the defect the entry witnessed is fixed).
    pub violations: Vec<Violation>,
}

/// Re-run every corpus entry through the oracle with the given
/// configuration. With an honest analyzer this is the regression guard:
/// every entry must come back violation-free.
pub fn replay(
    dir: &Path,
    cfg: &OracleConfig,
    opts: &ats_harness::RunOpts,
) -> Result<Vec<ReplayResult>, Error> {
    load(dir)?
        .into_iter()
        .map(|entry| {
            let violations = oracle::violations_of(&entry.scenario, cfg, opts)
                .map_err(|e| Error::corpus(format!("{}: {e}", entry.path.display())))?;
            Ok(ReplayResult { entry, violations })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use ats_harness::RunOpts;

    /// Unique temp dir per test, removed on drop.
    fn tmp_dir(tag: &str) -> ats_testutil::TempDir {
        ats_testutil::TempDir::new(&format!("ats-fuzz-corpus-{tag}"))
    }

    #[test]
    fn persist_load_replay_round_trip() {
        let tmp = tmp_dir("roundtrip");
        let dir = tmp.path();
        let sc = generate(11, &GenConfig::default());
        let cfg = OracleConfig::default();
        let opts = RunOpts::default();
        let run = oracle::check(&sc, &cfg, &opts).unwrap();
        // A fabricated violation exercises the spec round trip.
        let v = Violation {
            kind: ViolationKind::Missed,
            phase: 0,
            region: "fz00".to_owned(),
            property: "late_sender".to_owned(),
            detail: "unit".to_owned(),
        };
        persist(dir, &sc, std::slice::from_ref(&v), &run.trace, &opts).unwrap();

        let entries = load(dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].scenario, sc);
        assert_eq!(entries[0].violations, vec![v]);

        // The binary trace decodes to the executed trace.
        let atsb = dir.join(format!("{}.atsb", stem(&sc)));
        let decoded = binfmt::read_binary(fs::File::open(&atsb).unwrap()).unwrap();
        assert_eq!(decoded.num_events(), run.trace.num_events());

        // Replaying under the honest oracle stays clean.
        let results = replay(dir, &cfg, &opts).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].violations.is_empty());
    }

    #[test]
    fn persist_leaves_no_temp_files() {
        let tmp = tmp_dir("atomic");
        let dir = tmp.path();
        let sc = generate(7, &GenConfig::default());
        let opts = RunOpts::default();
        let run = oracle::check(&sc, &OracleConfig::default(), &opts).unwrap();
        persist(dir, &sc, &[], &run.trace, &opts).unwrap();
        let names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "exactly spec + trace: {names:?}");
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "temp files left behind: {names:?}"
        );
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let tmp = tmp_dir("missing");
        assert!(load(&tmp.file("never-created")).unwrap().is_empty());
    }

    #[test]
    fn stems_sort_by_seed() {
        let a = generate(1, &GenConfig::default());
        let b = generate(0x100, &GenConfig::default());
        assert!(stem(&a) < stem(&b));
    }
}
