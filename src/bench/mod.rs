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

pub(crate) mod obs;
pub(crate) mod sched;
pub(crate) mod serve;
pub(crate) mod store;
pub(crate) mod trace;

use std::time::Instant;

/// Best-of-`reps` wall seconds of `f` (the least scheduler-noisy estimate
/// on a shared host; at least one run), plus its last result. Each result
/// is dropped before the next run starts, so every run allocates into the
/// same memory state and a run's peak RSS is not doubled by the result
/// of the run before it.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("at least one run"))
}

/// The verdict line every gate ends with.
fn verdict(gate: &str, passed: bool) -> bool {
    outln!(
        "\n{gate} gate: {}",
        if passed { "OK" } else { "REGRESSION" }
    );
    passed
}
