//! Service benchmark E-serve: replay flood against a warm store.
//!
//! Starts an in-process `ats-serve` server over a read-write store, warms
//! it with a small scenario set, then fires a flood of concurrent
//! `POST /v1/analyze` requests from persistent keep-alive clients. The
//! first flood round is a *barrier round*: every client writes its
//! request, all synchronize, and only then does anyone read a response —
//! so the configured client count is provably in flight simultaneously
//! (the main thread samples the server's live-connection count at the
//! barrier as evidence). Gates:
//!
//! * concurrency: live connections at the barrier >= the client count;
//! * zero dropped-then-acked requests: every request is answered `200`,
//!   nothing is shed (`ats_serve_shed_total` stays 0) and no transport
//!   errors occur;
//! * byte identity: every response body equals the offline
//!   `Report::to_json` bytes for that scenario (the `ats-report/1`
//!   freeze, end to end);
//! * p99 latency of the timed rounds <= `--max-p99-ms`;
//! * sustained throughput >= `--min-rps`.
//!
//! Emits `BENCH_serve.json` (override with `ATS_BENCH_JSON`). Usage:
//!
//! ```text
//! serve_bench [clients] [rounds] [--cache-dir DIR] [--workers N]
//!             [--max-p99-ms MS] [--min-rps N]
//! ```

use ats_bench::cli::CommonArgs;
use ats_core::json::Json;
use ats_fuzz::{oracle, Scenario};
use ats_harness::Session;
use ats_obs::ObsConfig;
use ats_serve::{Client, ServeConfig};
use ats_store::CacheMode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

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

fn main() {
    let args = CommonArgs::parse();
    let clients: usize = args.positional_or(0, 1000);
    let rounds: usize = args.positional_or(1, 4).max(1);
    let workers: usize = args
        .flag("workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let max_p99_ms: f64 = args
        .flag("max-p99-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000.0);
    let min_rps: f64 = args
        .flag("min-rps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);
    let dir = args.flag("cache-dir").unwrap_or("artifacts/serve-bench");
    let _ = std::fs::remove_dir_all(dir);

    println!("=== E-serve: {clients} concurrent clients x {rounds} rounds ===\n");

    // Offline ground truth: the same analysis with no service in the way.
    let specs = spec_set(8);
    let offline = Session::builder().build();
    let expected: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| {
            let sc: Scenario = Scenario::parse_line(s).expect("spec parses");
            let trace = oracle::execute(&sc, offline.opts()).expect("spec runs");
            offline.analyze(&trace).to_json().into_bytes()
        })
        .collect();

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
    let handle = ats_serve::start(session, config).expect("server starts");
    let addr = handle.addr();
    println!("server on {addr} ({workers} workers)");

    // Warm phase: every spec executed and published once, then replayed.
    let warm_started = Instant::now();
    let mut warm = Client::new(addr);
    let mut warm_misses = 0usize;
    for spec in &specs {
        let r = warm.analyze(spec).expect("warm analyze");
        if !r.cached {
            warm_misses += 1;
        }
    }
    for (spec, want) in specs.iter().zip(&expected) {
        let r = warm.analyze(spec).expect("warm replay");
        assert!(r.cached, "second pass must hit the store");
        assert_eq!(
            r.report, *want,
            "stored report bytes must equal offline bytes"
        );
    }
    let warm_secs = warm_started.elapsed().as_secs_f64();
    println!(
        "warm: {} specs, {warm_misses} misses, {warm_secs:.2}s",
        specs.len()
    );

    // Flood phase. Two barriers: `written` releases once every client has
    // its first request on the wire (main included, so it can sample the
    // server's live-connection count while all requests are provably
    // outstanding); `sampled` holds the clients until that sample is
    // taken, then everyone reads.
    let written = Arc::new(Barrier::new(clients + 1));
    let sampled = Arc::new(Barrier::new(clients + 1));
    let peak = Arc::new(AtomicUsize::new(0));
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
        threads.push(
            std::thread::Builder::new()
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
                        match client.request(
                            "POST",
                            "/v1/analyze",
                            Some("text/plain"),
                            spec.as_bytes(),
                        ) {
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
                    tallies.lock().unwrap().push(tally);
                })
                .expect("spawn client"),
        );
    }
    // Once every client has written (and is parked before reading),
    // sample the server's view of concurrency, then release the reads.
    written.wait();
    peak.store(handle.live_connections(), Ordering::SeqCst);
    sampled.wait();
    for t in threads {
        t.join().expect("client thread");
    }
    let flood_secs = flood_started.elapsed().as_secs_f64();

    let tallies = Arc::try_unwrap(tallies).unwrap().into_inner().unwrap();
    let mut latencies: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ns.clone())
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
    let concurrent_peak = peak.load(Ordering::SeqCst);

    let metrics = Client::new(addr).metrics().unwrap_or_default();
    let shed = scrape_counter(&metrics, "ats_serve_shed_total").unwrap_or(0);
    let served = scrape_counter(&metrics, "ats_serve_requests_total").unwrap_or(0);
    handle.shutdown();

    let gate_concurrency = concurrent_peak >= clients;
    let gate_no_drops = acked == total && not_ok == 0 && transport_errors == 0 && shed == 0;
    let gate_bytes = mismatched == 0;
    let gate_p99 = p99_ms <= max_p99_ms;
    let gate_rps = rps >= min_rps;
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
        .with("max_p99_ms", max_p99_ms)
        .with("min_rps", min_rps)
        .with("gate_passed", gate_passed);
    let json_path =
        std::env::var("ATS_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_owned());
    match std::fs::write(&json_path, doc.render_pretty()) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\nwarning: could not write {json_path}: {e}"),
    }

    println!(
        "\nflood: {acked}/{total} acked in {flood_secs:.2}s ({rps:.0} req/s) | in-flight peak {concurrent_peak} (gate >= {clients}) | p50 {p50_ms:.1}ms p99 {p99_ms:.1}ms (gate <= {max_p99_ms:.0}ms) | shed {shed} | byte-identical: {gate_bytes}"
    );
    println!(
        "\nserve gate: {}",
        if gate_passed { "OK" } else { "REGRESSION" }
    );
    std::process::exit(if gate_passed { 0 } else { 1 });
}
