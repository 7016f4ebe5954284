//! `ats bench store` (E-store): the cold-vs-warm incremental campaign.
//!
//! Runs the same severity-sweep campaign (every positive catalog property
//! with its severity knob, as in E-pos) twice against one artifact store:
//! a *cold* pass on a fresh store executes and publishes every
//! configuration, then a *warm* pass re-runs the identical campaign and
//! must replay it from the store. The warm pass is the incremental
//! engine's whole value proposition, so it is gated:
//!
//! * the warm hit rate reaches [`MIN_HIT_RATE`] (in practice 1.0:
//!   nothing changed);
//! * every warm row is byte-identical to its cold counterpart
//!   (canonical-JSON comparison, the determinism guarantee);
//! * the warm pass publishes zero new bytes.
//!
//! Writes `BENCH_store.json` with both phases' timing, hit/miss/byte
//! counters and the warm speedup. The store lives in `--cache-dir`
//! (default `artifacts/store-bench`) and is wiped at startup so the cold
//! pass is honestly cold.

use crate::cli::{failed, write_bench_doc, CliError, CommonArgs};
use crate::harness::cache::row_to_json;
use crate::harness::experiment::Sweep;
use crate::harness::Session;
use crate::store::{CacheMode, Json, Store};
use std::time::Instant;

/// The gate: warm hits over warm configurations.
pub(crate) const MIN_HIT_RATE: f64 = 0.95;

/// Aggregated campaign counters for one pass over the catalog.
#[derive(Debug, Default)]
struct PhaseDoc {
    phase: &'static str,
    properties: usize,
    configs: usize,
    cache_hits: usize,
    cache_misses: usize,
    cache_bytes_read: u64,
    cache_bytes_written: u64,
    wall_secs: f64,
    configs_per_sec: f64,
}

impl PhaseDoc {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("phase", self.phase)
            .with("properties", self.properties)
            .with("configs", self.configs)
            .with("cache_hits", self.cache_hits)
            .with("cache_misses", self.cache_misses)
            .with("cache_bytes_read", self.cache_bytes_read)
            .with("cache_bytes_written", self.cache_bytes_written)
            .with("wall_secs", self.wall_secs)
            .with("configs_per_sec", self.configs_per_sec)
    }
}

/// One full campaign pass: every positive property, severity knob swept.
/// Returns each row's canonical JSON (the byte-identity evidence) plus
/// the aggregated counters.
fn campaign(session: &Session, phase: &'static str) -> Result<(Vec<String>, PhaseDoc), CliError> {
    let knobs = [0.005, 0.01, 0.02];
    let started = Instant::now();
    let mut renders = Vec::new();
    let mut doc = PhaseDoc {
        phase,
        ..PhaseDoc::default()
    };
    for spec in crate::core::CATALOG {
        if spec.expected_property.is_none() {
            continue;
        }
        let mut exp = session.experiment(spec.name);
        if let Some(k) = spec.knob() {
            exp = exp.sweep(Sweep::seconds(k.name, knobs));
        }
        let (rows, stats) = exp.run_with_stats().map_err(failed)?;
        renders.extend(rows.iter().map(|r| row_to_json(r).render()));
        doc.properties += 1;
        doc.configs += stats.configs;
        doc.cache_hits += stats.cache_hits;
        doc.cache_misses += stats.cache_misses;
        doc.cache_bytes_read += stats.cache_bytes_read;
        doc.cache_bytes_written += stats.cache_bytes_written;
    }
    doc.wall_secs = started.elapsed().as_secs_f64();
    doc.configs_per_sec = if doc.wall_secs > 0.0 {
        doc.configs as f64 / doc.wall_secs
    } else {
        0.0
    };
    Ok((renders, doc))
}

/// `ats bench store [nprocs] [jobs] [--cache-dir DIR]`.
pub(crate) fn run(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs = args.ranks("nprocs", 4, 1)?;
    let jobs: usize = args.pos_or(1, 0)?;
    let dir = args.value("cache-dir").unwrap_or("artifacts/store-bench");
    // An honest cold pass starts from nothing.
    let _ = std::fs::remove_dir_all(dir);
    // One session runs both passes, so `--metrics` counts them both.
    let session = args.session(
        Session::builder()
            .procs(nprocs)
            .jobs(jobs)
            .cache(CacheMode::ReadWrite)
            .cache_dir(dir),
    )?;
    outln!("=== E-store: cold-vs-warm incremental campaign ===\n");
    outln!("--- cold pass ---");
    let (cold_rows, cold) = campaign(&session, "cold")?;
    outln!(
        "cold: {} configs, {} misses, {} bytes published, {:.2}s",
        cold.configs,
        cold.cache_misses,
        cold.cache_bytes_written,
        cold.wall_secs
    );
    outln!("--- warm pass ---");
    let (warm_rows, warm) = campaign(&session, "warm")?;
    outln!(
        "warm: {} configs, {} hits, {} bytes replayed, {:.2}s",
        warm.configs,
        warm.cache_hits,
        warm.cache_bytes_read,
        warm.wall_secs
    );

    let hit_rate = if warm.configs > 0 {
        warm.cache_hits as f64 / warm.configs as f64
    } else {
        0.0
    };
    let byte_identical = cold_rows == warm_rows;
    // Cold wall over warm wall: how much faster the unchanged campaign
    // re-runs.
    let warm_speedup = cold.wall_secs / warm.wall_secs.max(1e-9);
    let store = Store::open(dir).map_err(|e| failed(format!("cannot reopen {dir}: {e}")))?;
    let stats = store.stats();
    let gate_passed = hit_rate >= MIN_HIT_RATE && byte_identical && warm.cache_bytes_written == 0;
    let doc = Json::obj()
        .with("experiment", "E-store")
        .with("nprocs", nprocs)
        .with("phases", vec![cold.to_json(), warm.to_json()])
        .with("store_entries", stats.entries)
        .with("store_bytes", stats.bytes)
        .with("hit_rate", hit_rate)
        .with("min_hit_rate", MIN_HIT_RATE)
        .with("byte_identical", byte_identical)
        .with("warm_speedup", warm_speedup)
        .with("gate_passed", gate_passed);
    write_bench_doc("store", &doc)?;
    outln!(
        "\nstore: {} entries, {} bytes | warm hit rate {:.1}% (gate >= {:.1}%) | byte-identical: {byte_identical} | warm speedup {warm_speedup:.1}x",
        stats.entries,
        stats.bytes,
        100.0 * hit_rate,
        100.0 * MIN_HIT_RATE,
    );
    args.emit(&session, "store_bench", &[])?;
    Ok(super::verdict("incremental-campaign", gate_passed))
}
