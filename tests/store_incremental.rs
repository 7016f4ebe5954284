//! The incremental campaign engine's contract (ISSUE 8): a warm re-run
//! of an unchanged campaign replays ≥ 95% of its configurations from the
//! artifact store with rows byte-identical to the cold run, and changing
//! a single parameter invalidates only the combinations that use it.

use ats::harness::cache::row_to_json;
use ats::harness::experiment::{Experiment, Sweep};
use ats::harness::{ExperimentRow, RunOpts, Session};
use ats::store::{Cache, CacheKey, CacheMode, Json};
use std::path::PathBuf;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ats-store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Canonical-JSON renders of the rows: the byte-identity evidence that
/// does not depend on an external serializer.
fn rendered(rows: &[ExperimentRow]) -> Vec<String> {
    rows.iter().map(|r| row_to_json(r).render()).collect()
}

/// The E-pos campaign shape from the parallel-engine test, now cached.
fn campaign(property: &str, dir: &PathBuf, jobs: usize) -> Experiment {
    let e = Experiment::new(property).procs_grid([2, 4]);
    let e = match property {
        "late_sender" => e.sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02, 0.04])),
        "imbalance_at_mpi_barrier" => e.sweep(Sweep::counts("r", [1, 2, 4])),
        other => panic!("no sweep shape for {other}"),
    };
    e.opts(RunOpts::default().jobs(jobs))
        .cache(Cache::open(dir, CacheMode::ReadWrite).unwrap())
}

/// Acceptance: the warm re-run of an unchanged two-property campaign
/// replays every configuration (≥ 95% required, 100% achieved) with rows
/// byte-identical to the cold run, publishing nothing new.
#[test]
fn warm_rerun_replays_byte_identical_rows() {
    let dir = store_dir("warm");
    let mut total = 0usize;
    let mut hits = 0usize;
    for property in ["late_sender", "imbalance_at_mpi_barrier"] {
        let (cold_rows, cold) = campaign(property, &dir, 1).run_with_stats().unwrap();
        assert_eq!(cold.cache_hits, 0, "{property}: a fresh store has no hits");
        assert!(cold.cache_bytes_written > 0);
        let (warm_rows, warm) = campaign(property, &dir, 1).run_with_stats().unwrap();
        assert_eq!(
            rendered(&cold_rows),
            rendered(&warm_rows),
            "{property}: replayed rows must be byte-identical"
        );
        assert_eq!(
            warm.cache_bytes_written, 0,
            "{property}: hits publish nothing"
        );
        total += warm.configs;
        hits += warm.cache_hits;
    }
    let hit_rate = hits as f64 / total as f64;
    assert!(
        hit_rate >= 0.95,
        "warm hit rate {hit_rate} below the 95% gate ({hits}/{total})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: swapping one sweep value re-executes only the combos that
/// use it — everything else still replays.
#[test]
fn single_parameter_change_invalidates_only_affected_combos() {
    let dir = store_dir("invalidate");
    let sweep = |values: [f64; 4]| {
        Experiment::new("late_sender")
            .procs_grid([2, 4])
            .sweep(Sweep::seconds("extrawork", values))
            .opts(RunOpts::default().jobs(1))
            .cache(Cache::open(&dir, CacheMode::ReadWrite).unwrap())
    };
    let (_, cold) = sweep([0.005, 0.01, 0.02, 0.04]).run_with_stats().unwrap();
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
    // One of four values changes: 2 combos (× 2 proc counts) re-execute.
    let (_, shifted) = sweep([0.005, 0.01, 0.03, 0.04]).run_with_stats().unwrap();
    assert_eq!(
        (shifted.cache_hits, shifted.cache_misses),
        (6, 2),
        "only the combos using the changed value may miss"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Analyzer-configuration changes invalidate the whole campaign: every
/// stored report was computed under the old tool, none may replay.
#[test]
fn analyzer_change_invalidates_every_combo() {
    let dir = store_dir("analyzer");
    let sweep = |threshold: f64| {
        let analyzer = ats::analyzer::AnalyzerConfig::default().threshold(threshold);
        Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01]))
            .opts(RunOpts::default().procs(2).jobs(1))
            .analyzer(analyzer)
            .cache(Cache::open(&dir, CacheMode::ReadWrite).unwrap())
    };
    let (_, cold) = sweep(0.01).run_with_stats().unwrap();
    assert_eq!(cold.cache_misses, 2);
    let (_, retuned) = sweep(0.02).run_with_stats().unwrap();
    assert_eq!(
        (retuned.cache_hits, retuned.cache_misses),
        (0, 2),
        "a retuned analyzer must re-execute everything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scheduling is not identity: a campaign executed serially replays
/// wholesale under a parallel worker pool (and vice versa).
#[test]
fn identical_inputs_hit_across_jobs_values() {
    let dir = store_dir("jobs");
    let (cold_rows, cold) = campaign("late_sender", &dir, 1).run_with_stats().unwrap();
    assert_eq!(cold.cache_hits, 0);
    let (warm_rows, warm) = campaign("late_sender", &dir, 8).run_with_stats().unwrap();
    assert!(warm.jobs > 1, "jobs=8 must run a real pool");
    assert_eq!(
        (warm.cache_hits, warm.cache_misses),
        (warm.configs, 0),
        "a different worker count must not invalidate anything"
    );
    assert_eq!(rendered(&cold_rows), rendered(&warm_rows));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions wire the same engine end to end: a cold `rw` session
/// populates the default store location, a warm `ro` session replays
/// from it without ever writing.
#[test]
fn sessions_share_the_store_across_modes() {
    let dir = store_dir("session");
    let session = |mode: CacheMode| {
        Session::builder()
            .procs(2)
            .cache(mode)
            .cache_dir(&dir)
            .build()
    };
    let (cold_rows, cold) = session(CacheMode::ReadWrite)
        .experiment("late_sender")
        .sweep(Sweep::seconds("extrawork", [0.005, 0.01]))
        .run_with_stats()
        .unwrap();
    assert_eq!((cold.cache_mode, cold.cache_misses), ("rw", 2));
    let (warm_rows, warm) = session(CacheMode::Read)
        .experiment("late_sender")
        .sweep(Sweep::seconds("extrawork", [0.005, 0.01]))
        .run_with_stats()
        .unwrap();
    assert_eq!((warm.cache_mode, warm.cache_hits), ("ro", 2));
    assert_eq!(warm.cache_bytes_written, 0, "ro never writes");
    assert_eq!(rendered(&cold_rows), rendered(&warm_rows));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engines derive a key from a rendered prefix and store the key's
/// ingredients rendered whole, through two code paths. Every entry that a
/// `rw` sweep and a serve miss write must end in ingredients that hash to
/// the key its file is named by.
#[test]
fn stored_ingredients_hash_to_their_entry_names() {
    let dir = store_dir("ingredients");
    let session = Session::builder()
        .procs(2)
        .realistic()
        .analyzer(ats::analyzer::AnalyzerConfig::default().threshold(0.02))
        .cache(CacheMode::ReadWrite)
        .cache_dir(&dir)
        .build();
    let (_, cold) = session
        .experiment("late_sender")
        .sweep(Sweep::seconds("extrawork", [0.005, 0.01]))
        .run_with_stats()
        .unwrap();
    assert_eq!(cold.cache_misses, 2);
    let server = ats::serve::start(session, ats::serve::ServeConfig::default()).unwrap();
    let out = ats::serve::Client::new(server.addr())
        .analyze("seed=7 nprocs=2 | whole g0:late_sender r=1")
        .unwrap();
    assert!(!out.cached);
    server.shutdown();

    let mut schemas = Vec::new();
    for shard in std::fs::read_dir(dir.join("objects")).unwrap() {
        for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap();
            let key = CacheKey::from_hex(name.strip_suffix(".entry").unwrap()).unwrap();
            let file = std::fs::read(&path).unwrap();
            // `schema key (name offset size checksum)… checksum\n`, the
            // artifacts, then the ingredients.
            let end = file.iter().position(|&b| b == b'\n').unwrap();
            let header: Vec<&str> = std::str::from_utf8(&file[..end])
                .unwrap()
                .split(' ')
                .collect();
            let groups = header[2..header.len() - 1].chunks(4);
            let artifacts: usize = groups.map(|g| g[2].parse::<usize>().unwrap()).sum();
            let tail = &file[end + 1 + artifacts..];
            assert_eq!(CacheKey::of_bytes(tail), key, "{}", path.display());
            let doc = Json::parse(std::str::from_utf8(tail).unwrap()).unwrap();
            let run = doc.get("run").and_then(|r| r.get("schema"));
            schemas.push(run.and_then(Json::as_str).unwrap().to_owned());
        }
    }
    schemas.sort();
    assert_eq!(
        schemas,
        ["ats-serve-key/4", "ats-store-key/4", "ats-store-key/4"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The names entries are stored under, pinned. A key that moves makes
/// every stored configuration run again without a word, so a change to
/// how keys are rendered or where their prefix comes from must leave this
/// test passing unchanged. A deliberate key change (a key schema or
/// `ANALYSIS_VERSION` bump) pins the new keys here and says so in CHANGES.
#[test]
fn keys_are_pinned() {
    const CONFIG_KEY: &str = "37823bc17027d5a6c7a8f007bf4cb75d";
    let (opts, analyzer) = (RunOpts::default(), ats::analyzer::AnalyzerConfig::default());
    let params = "basework=0.01 extrawork=0.04 r=3";
    let key = ats::harness::cache::config_key("late_sender", params, 8, &opts, &analyzer);
    assert_eq!(key.hex(), CONFIG_KEY);
    let scenario = "seed=7 nprocs=2 | whole g0:late_sender r=1"
        .parse()
        .unwrap();
    let key = ats::serve::wire::scenario_key(&scenario, &opts, &analyzer);
    assert_eq!(key.hex(), "f66a1968e72bd163819f124d7407b5a5");

    // A default session's one configuration of `late_sender` is the
    // configuration above, so its entry is named by the same key.
    let dir = store_dir("pinned");
    let session = Session::builder()
        .cache(CacheMode::ReadWrite)
        .cache_dir(&dir)
        .build();
    let (rows, stats) = session.experiment("late_sender").run_with_stats().unwrap();
    assert_eq!((stats.cache_misses, rows[0].params.as_str()), (1, params));
    let names: Vec<String> = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .flat_map(|shard| std::fs::read_dir(shard.unwrap().path()).unwrap())
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, [format!("{CONFIG_KEY}.entry")]);
    let _ = std::fs::remove_dir_all(&dir);
}
