//! Specification of (sequential) work — the lowest module of the ATS stack.
//!
//! The paper's `do_work(double secs)` consumes a requested amount of CPU
//! time "without actually calling time measuring functions", using a loop of
//! random reads and writes over two arrays large enough to defeat the cache,
//! calibrated once at installation time (paper §3.1.1).
//!
//! ATS-RS provides both that design and a stronger one:
//!
//! * [`WorkMode::Virtual`] — `do_work(d)` simply *is* `d`: the caller's
//!   virtual clock advances by exactly the requested amount. This removes
//!   the paper's acknowledged calibration noise entirely and makes every
//!   severity programmed into a test case exact.
//! * [`WorkMode::Real`] — a faithful port of the calibrated busy loop, for
//!   wall-clock benchmarking of the suite and for overhead experiments.
//!   Each engine owns its RNG ([`crate::SplitMix64`]), reproducing the
//!   paper's lock-free-parallel-RNG fix.
//!
//! The loop's rate is the paper's installation-time calibration, taken
//! once per process: [`iters_per_sec`] measures it on first use (the
//! first real-mode `do_work`, or an explicit call before a timed run) and
//! every engine reads the same value after that.

use crate::rng::SplitMix64;
use crate::time::VDur;
use std::sync::OnceLock;
use std::time::Instant;

/// How `do_work` consumes the requested time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkMode {
    /// Advance virtual time exactly; burn no host CPU.
    Virtual,
    /// Burn host CPU with the calibrated random-access loop.
    Real,
}

/// Size (in `u64` elements) of each of the two scratch arrays used by the
/// real busy loop. 1 MiB per array — large relative to L1/L2, matching the
/// paper's "relatively large size of the arrays" requirement.
const ARRAY_WORDS: usize = 128 * 1024;

/// Iterations executed per calibration probe.
const PROBE_ITERS: u64 = 200_000;

/// A per-participant work generator.
///
/// Engines are cheap to construct in `Virtual` mode and allocate their
/// scratch arrays lazily on first real-mode use.
#[derive(Debug)]
pub struct WorkEngine {
    mode: WorkMode,
    rng: SplitMix64,
    scratch: Option<Box<Scratch>>,
    /// Total virtual work consumed through this engine.
    consumed: VDur,
}

#[derive(Debug)]
struct Scratch {
    a: Vec<u64>,
    b: Vec<u64>,
}

impl WorkEngine {
    /// Create an engine for one participant. `seed`/`stream` feed the
    /// split RNG so that participants never share random state.
    pub fn new(mode: WorkMode, seed: u64, stream: u64) -> Self {
        WorkEngine {
            mode,
            rng: SplitMix64::split(seed, stream),
            scratch: None,
            consumed: VDur::ZERO,
        }
    }

    /// The engine's mode.
    pub fn mode(&self) -> WorkMode {
        self.mode
    }

    /// Consume `amount` of work and return the duration by which the
    /// caller's virtual clock must advance (always exactly `amount`).
    ///
    /// This is the ATS `do_work`: in virtual mode it is pure accounting; in
    /// real mode the calibrated loop burns approximately the same wall time.
    pub fn do_work(&mut self, amount: VDur) -> VDur {
        self.consumed += amount;
        if self.mode == WorkMode::Real && !amount.is_zero() {
            let iters = (amount.as_secs() * iters_per_sec()).round() as u64;
            self.burn(iters);
        }
        amount
    }

    /// Total virtual work consumed so far.
    pub fn consumed(&self) -> VDur {
        self.consumed
    }

    /// Direct access to the participant's private RNG stream.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Execute `iters` iterations of the paper's random read/write loop.
    fn burn(&mut self, iters: u64) {
        let scratch = self.scratch.get_or_insert_with(|| {
            Box::new(Scratch {
                a: vec![1; ARRAY_WORDS],
                b: vec![1; ARRAY_WORDS],
            })
        });
        let mask = (ARRAY_WORDS - 1) as u64;
        let mut acc = self.rng.next_u64() | 1;
        for _ in 0..iters {
            // One random read and one random write per iteration; the
            // data dependence through `acc` defeats vectorization, the
            // random indices defeat the prefetcher — per the paper, the
            // loop's speed should not depend on cache behaviour.
            let i = (acc ^ (acc >> 17)) & mask;
            let j = acc.wrapping_mul(GOLDEN) >> 47 & mask;
            let v = scratch.a[i as usize];
            acc = acc.wrapping_add(v ^ GOLDEN).rotate_left(13);
            scratch.b[j as usize] = acc;
        }
        // Publish a data dependence on the result so the loop cannot be
        // optimized away.
        std::hint::black_box(acc);
        std::hint::black_box(&scratch.b[0]);
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The real-mode loop rate on this host, in iterations per second: the
/// ATS "configuration phase during installation", measured by the first
/// call in the process and returned unchanged by every later one.
pub fn iters_per_sec() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(calibrate)
}

/// Measure the loop rate: a handful of probes, and their median
/// iterations per second.
fn calibrate() -> f64 {
    let mut engine = WorkEngine::new(WorkMode::Real, 0xCA11_B8A7E, 0);
    // Warm up: allocate scratch and fault pages in.
    engine.burn(PROBE_ITERS / 4);
    let mut rates = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        engine.burn(PROBE_ITERS);
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        rates.push(PROBE_ITERS as f64 / dt);
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_work_is_exact_accounting() {
        let mut e = WorkEngine::new(WorkMode::Virtual, 1, 0);
        assert_eq!(e.do_work(VDur::from_millis(7)), VDur::from_millis(7));
        assert_eq!(e.do_work(VDur::from_millis(3)), VDur::from_millis(3));
        assert_eq!(e.consumed(), VDur::from_millis(10));
    }

    #[test]
    fn virtual_mode_allocates_no_scratch() {
        let mut e = WorkEngine::new(WorkMode::Virtual, 1, 0);
        e.do_work(VDur::from_secs(1000.0)); // would burn forever in real mode
        assert!(e.scratch.is_none());
    }

    #[test]
    fn zero_work_is_free_in_real_mode() {
        let mut e = WorkEngine::new(WorkMode::Real, 1, 0);
        e.do_work(VDur::ZERO);
        assert!(e.scratch.is_none(), "zero work must not touch the loop");
    }

    #[test]
    fn real_mode_burns_measurable_time() {
        let mut e = WorkEngine::new(WorkMode::Real, 1, 0);
        iters_per_sec(); // calibrate outside the timed span
        let t0 = Instant::now();
        e.do_work(VDur::from_millis(20));
        let elapsed = t0.elapsed().as_millis();
        // Calibration is approximate (as the paper says); accept 2x error.
        assert!(
            (5..=200).contains(&elapsed),
            "20ms of calibrated work took {elapsed}ms"
        );
    }

    #[test]
    fn calibration_is_positive() {
        let rate = iters_per_sec();
        assert!(rate > 1e5, "implausibly slow host: {rate} iters/s");
        assert_eq!(iters_per_sec().to_bits(), rate.to_bits());
    }

    #[test]
    fn engines_with_different_streams_have_different_rngs() {
        let mut a = WorkEngine::new(WorkMode::Virtual, 9, 0);
        let mut b = WorkEngine::new(WorkMode::Virtual, 9, 1);
        assert_ne!(a.rng().next_u64(), b.rng().next_u64());
    }
}
