//! `ats bench`: the CI gates that time the suite's own machinery. Each
//! prints its measurements, writes a `BENCH_<layer>.json` document, and
//! fails the command when a gate misses its bound. The bounds are
//! constants: a gate that a flag or an environment variable could move
//! would not be a gate.
//!
//! | command | gate |
//! |---------|------|
//! | `ats bench sched` | event carrier ≥ 10× the thread carrier's net events/s at 256 ranks |
//! | `ats bench trace` | lossless ATSB round trip; streaming analysis matches materializing, ≥ 1M events/s and ≥ 2× |
//! | `ats bench store` | warm campaign ≥ 95% hits, byte-identical rows, zero warm writes |
//! | `ats bench serve` | every request acked 200 with identical bytes, 0 shed, p99 ≤ 2000 ms, ≥ 50 req/s, live connections ≥ clients |
//! | `ats bench obs` | observability costs ≤ 2% on the Fig. 3.4 composite |

pub mod obs;
pub mod sched;
pub mod serve;
pub mod store;
pub mod trace;

use std::time::Instant;

/// Best-of-`reps` wall seconds of `f` (the least scheduler-noisy estimate
/// on a shared host; at least one run), plus its last result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut run = || {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        (start.elapsed().as_secs_f64(), r)
    };
    let (mut best, mut last) = run();
    for _ in 1..reps {
        let (secs, r) = run();
        best = best.min(secs);
        last = r;
    }
    (best, last)
}

/// The verdict line every gate ends with.
fn verdict(gate: &str, passed: bool) -> bool {
    println!(
        "\n{gate} gate: {}",
        if passed { "OK" } else { "REGRESSION" }
    );
    passed
}
