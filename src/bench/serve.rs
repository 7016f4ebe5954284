//! `ats bench serve` (E-serve): a replay flood against a warm store.
//!
//! Starts an in-process `ats-serve` server over a read-write store, warms
//! it with a small scenario set, then fires a flood of concurrent
//! `POST /v1/analyze` requests from persistent keep-alive clients. The
//! first flood round is a *barrier round*: every client writes its
//! request, all synchronize, and only then does anyone read a response —
//! so the configured client count is provably in flight simultaneously.
//! Gates:
//!
//! * concurrency: the server's live connections at the barrier reach the
//!   client count. The warm client is gone by then, so only flood
//!   connections count, and the sample waits (up to [`ADMIT_DEADLINE`])
//!   for the acceptor to admit every connection already written to;
//! * zero dropped-then-acked requests: every request is answered `200`,
//!   nothing is shed (`ats_serve_shed_total` stays 0) and no transport
//!   errors occur;
//! * byte identity: every response body equals the offline
//!   `Report::to_json` bytes for that scenario (the `ats-report/1`
//!   freeze, end to end);
//! * p99 latency of the timed rounds is at most [`MAX_P99_MS`];
//! * sustained throughput is at least [`MIN_RPS`].
//!
//! Writes `BENCH_serve.json`.

use crate::cli::{failed, write_bench_doc, CliError, CommonArgs};
use crate::core::json::Json;
use crate::fuzz::{oracle, Scenario};
use crate::harness::Session;
use crate::obs::ObsConfig;
use crate::serve::{Client, ServeConfig, ServerHandle};
use crate::store::CacheMode;
use std::num::NonZeroUsize;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The gate: p99 latency of the timed rounds.
pub(crate) const MAX_P99_MS: f64 = 2000.0;
/// The gate: acked requests per second of flood wall time.
pub(crate) const MIN_RPS: f64 = 50.0;
/// How long the concurrency sample waits for the acceptor.
pub(crate) const ADMIT_DEADLINE: Duration = Duration::from_secs(10);

/// The warm scenario set: one template, distinct seeds, so every spec has
/// its own cache key but the same cheap execution cost.
fn spec_set(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("seed={} nprocs=2 | whole g0:late_sender r=1", 100 + i))
        .collect()
}

/// What one client thread observed across its rounds.
#[derive(Debug, Default)]
struct ClientTally {
    acked: usize,
    mismatched: usize,
    not_ok: usize,
    transport_errors: usize,
    latencies_ns: Vec<u64>,
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * p).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e6
}

fn scrape_counter(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.trim().parse().ok()
    })
}

/// Poll `handle`'s live-connection count until `done` holds or the
/// deadline passes; returns the last count read.
fn live_connections_when(handle: &ServerHandle, done: impl Fn(usize) -> bool) -> usize {
    let deadline = Instant::now() + ADMIT_DEADLINE;
    loop {
        let live = handle.live_connections();
        if done(live) || Instant::now() >= deadline {
            return live;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `ats bench serve [clients] [rounds] [--cache-dir DIR] [--workers N]`.
pub(crate) fn run(args: &CommonArgs) -> Result<bool, CliError> {
    let clients: usize = args.pos_or(0, 1000)?;
    let rounds = args.pos_or(1, NonZeroUsize::new(4).unwrap())?.get();
    let workers: usize = args.value_or("workers", 16)?;
    let dir = args.value("cache-dir").unwrap_or("artifacts/serve-bench");
    let _ = std::fs::remove_dir_all(dir);

    outln!("=== E-serve: {clients} concurrent clients x {rounds} rounds ===\n");

    // Offline ground truth: the same analysis with no service in the way.
    let specs = spec_set(8);
    let offline = Session::builder().build();
    let expected = specs
        .iter()
        .map(|s| {
            let sc = Scenario::parse_line(s).map_err(failed)?;
            let trace = oracle::execute(&sc, offline.opts()).map_err(failed)?;
            Ok(offline.analyze(&trace).to_json().into_bytes())
        })
        .collect::<Result<Vec<_>, CliError>>()?;

    let session = Session::builder()
        .obs(ObsConfig::fresh())
        .cache(CacheMode::ReadWrite)
        .cache_dir(dir)
        .build();
    let config = ServeConfig {
        workers,
        max_conns: clients + 64,
        tenant_inflight: clients,
        request_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let handle = crate::serve::start(session, config)
        .map_err(|e| failed(format!("cannot start the server: {e}")))?;
    let addr = handle.addr();
    outln!("server on {addr} ({workers} workers)");

    // Warm phase: every spec executed and published once, then replayed.
    let warm_started = Instant::now();
    let mut warm = Client::new(addr);
    let mut warm_misses = 0usize;
    for spec in &specs {
        let r = warm.analyze(spec).map_err(failed)?;
        if !r.cached {
            warm_misses += 1;
        }
    }
    let mut warm_ok = true;
    for (spec, want) in specs.iter().zip(&expected) {
        let r = warm.analyze(spec).map_err(failed)?;
        warm_ok &= r.cached && r.report == *want;
    }
    let warm_secs = warm_started.elapsed().as_secs_f64();
    outln!(
        "warm: {} specs, {warm_misses} misses, {warm_secs:.2}s",
        specs.len()
    );
    if !warm_ok {
        errln!("FAIL: a warm replay missed the store or differs from the offline bytes");
    }
    // Close the warm client's keep-alive connection and let the server
    // retire it; whatever stays open is left out of the flood's
    // concurrency sample, which counts flood connections only.
    drop(warm);
    let idle = live_connections_when(&handle, |live| live == 0);

    // Flood phase. Two barriers: `written` releases once every client has
    // its first request on the wire (main included, so it can sample the
    // server's live-connection count while all requests are provably
    // outstanding); `sampled` holds the clients until that sample is
    // taken, then everyone reads.
    let written = Arc::new(Barrier::new(clients + 1));
    let sampled = Arc::new(Barrier::new(clients + 1));
    let tallies: Arc<Mutex<Vec<ClientTally>>> = Arc::new(Mutex::new(Vec::new()));
    let specs = Arc::new(specs);
    let expected = Arc::new(expected);
    let flood_started = Instant::now();
    let mut threads = Vec::with_capacity(clients);
    for i in 0..clients {
        let written = Arc::clone(&written);
        let sampled = Arc::clone(&sampled);
        let specs = Arc::clone(&specs);
        let expected = Arc::clone(&expected);
        let tallies = Arc::clone(&tallies);
        let spawned = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut tally = ClientTally::default();
                let mut client = Client::new(addr)
                    .with_tenant(format!("t{}", i % 8))
                    .with_timeout(Duration::from_secs(120));
                let spec = &specs[i % specs.len()];
                let want = &expected[i % specs.len()];
                // Barrier round: write, synchronize, then read.
                let started = client
                    .start("POST", "/v1/analyze", Some("text/plain"), spec.as_bytes())
                    .is_ok();
                written.wait();
                sampled.wait();
                if started {
                    match client.finish() {
                        Ok(resp) if resp.status == 200 => {
                            tally.acked += 1;
                            if resp.body != *want {
                                tally.mismatched += 1;
                            }
                        }
                        Ok(_) => tally.not_ok += 1,
                        Err(_) => tally.transport_errors += 1,
                    }
                } else {
                    tally.transport_errors += 1;
                }
                // Timed rounds on the same keep-alive connection.
                for round in 1..rounds {
                    let spec = &specs[(i + round) % specs.len()];
                    let want = &expected[(i + round) % specs.len()];
                    let t0 = Instant::now();
                    match client.request("POST", "/v1/analyze", Some("text/plain"), spec.as_bytes())
                    {
                        Ok(resp) if resp.status == 200 => {
                            tally.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                            tally.acked += 1;
                            if resp.body != *want {
                                tally.mismatched += 1;
                            }
                        }
                        Ok(_) => tally.not_ok += 1,
                        Err(_) => tally.transport_errors += 1,
                    }
                }
                crate::runtime::unpoison(tallies.lock()).push(tally);
            })
            .map_err(|e| failed(format!("cannot spawn client {i}: {e}")))?;
        threads.push(spawned);
    }
    // Once every client has written (and is parked before reading), wait
    // for the server to admit all of them, sample its view of
    // concurrency, then release the reads.
    written.wait();
    let concurrent_peak =
        live_connections_when(&handle, |live| live >= clients + idle).saturating_sub(idle);
    sampled.wait();
    let mut panicked = 0usize;
    for t in threads {
        panicked += usize::from(t.join().is_err());
    }
    let flood_secs = flood_started.elapsed().as_secs_f64();

    let tallies = std::mem::take(&mut *crate::runtime::unpoison(tallies.lock()));
    let mut latencies: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let acked: usize = tallies.iter().map(|t| t.acked).sum();
    let mismatched: usize = tallies.iter().map(|t| t.mismatched).sum();
    let not_ok: usize = tallies.iter().map(|t| t.not_ok).sum();
    let transport_errors: usize = tallies.iter().map(|t| t.transport_errors).sum();
    let total = clients * rounds;
    let rps = acked as f64 / flood_secs.max(1e-9);
    let p50_ms = percentile_ms(&latencies, 0.50);
    let p99_ms = percentile_ms(&latencies, 0.99);

    let metrics = Client::new(addr).metrics().unwrap_or_default();
    let shed = scrape_counter(&metrics, "ats_serve_shed_total").unwrap_or(0);
    let served = scrape_counter(&metrics, "ats_serve_requests_total").unwrap_or(0);
    handle.shutdown();

    let gate_concurrency = concurrent_peak >= clients;
    let gate_no_drops =
        acked == total && not_ok == 0 && transport_errors == 0 && shed == 0 && panicked == 0;
    let gate_bytes = mismatched == 0 && warm_ok;
    let gate_p99 = p99_ms <= MAX_P99_MS;
    let gate_rps = rps >= MIN_RPS;
    let gate_passed = gate_concurrency && gate_no_drops && gate_bytes && gate_p99 && gate_rps;

    let doc = Json::obj()
        .with("experiment", "E-serve")
        .with("clients", clients)
        .with("rounds", rounds)
        .with("workers", workers)
        .with("spec_set", specs.len())
        .with(
            "phases",
            vec![
                Json::obj()
                    .with("phase", "warm")
                    .with("specs", specs.len())
                    .with("misses", warm_misses)
                    .with("wall_secs", warm_secs),
                Json::obj()
                    .with("phase", "flood")
                    .with("requests", total)
                    .with("acked", acked)
                    .with("not_ok", not_ok)
                    .with("transport_errors", transport_errors)
                    .with("mismatched_bodies", mismatched)
                    .with("concurrent_peak", concurrent_peak)
                    .with("shed", shed)
                    .with("served_total", served)
                    .with("wall_secs", flood_secs)
                    .with("rps", rps)
                    .with("p50_ms", p50_ms)
                    .with("p99_ms", p99_ms),
            ],
        )
        .with(
            "gates",
            Json::obj()
                .with("concurrency", gate_concurrency)
                .with("no_drops", gate_no_drops)
                .with("byte_identical", gate_bytes)
                .with("p99", gate_p99)
                .with("throughput", gate_rps),
        )
        .with("max_p99_ms", MAX_P99_MS)
        .with("min_rps", MIN_RPS)
        .with("gate_passed", gate_passed);
    write_bench_doc("serve", &doc)?;
    outln!(
        "\nflood: {acked}/{total} acked in {flood_secs:.2}s ({rps:.0} req/s) | in-flight peak {concurrent_peak} (gate >= {clients}) | p50 {p50_ms:.1}ms p99 {p99_ms:.1}ms (gate <= {MAX_P99_MS:.0}ms) | shed {shed} | byte-identical: {gate_bytes}"
    );
    Ok(super::verdict("serve", gate_passed))
}
