//! Semantics preservation and overhead measurement (paper Chapter 2).
//!
//! "The procedure is simple: First, the test suite is executed on the
//! target system. Second, ... the validation suite is executed again, but
//! this time with instrumentation added by the performance analysis tool.
//! The result of both runs must be the same."
//!
//! External MPI validation suites are unavailable here (and would not run
//! against a simulated substrate), so ATS-RS ships a compact functional
//! validation suite of its own: numeric kernels with checkable answers,
//! each executed instrumented and uninstrumented and compared bit-exactly.
//! The same kernels, run in real-work mode, measure the tool's overhead.

use ats_mpi::datatype::{bytes_to_f64s, bytes_to_i32s, f64s_to_bytes, i32s_to_bytes};
use ats_mpi::{Datatype, Proc, ReduceOp, SimConfig};
use ats_runtime::VDur;
use std::time::Instant;

/// Outcome of one validation kernel.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Did the uninstrumented run produce the expected answer?
    pub correct_plain: bool,
    /// Did the instrumented run produce the expected answer?
    pub correct_instrumented: bool,
    /// Were both runs' outputs identical?
    pub outputs_equal: bool,
}

impl KernelResult {
    /// The tool is semantics-preserving on this kernel.
    pub fn passed(&self) -> bool {
        self.correct_plain && self.correct_instrumented && self.outputs_equal
    }
}

/// A validation kernel body: per-rank output values.
type KernelFn = fn(&mut Proc) -> Vec<i64>;
/// Its closed-form expectation: `(rank, size) -> expected output`.
type ExpectFn = fn(usize, usize) -> Vec<i64>;

/// The validation kernels: each returns per-rank output values with a
/// closed-form expectation.
fn kernels() -> Vec<(&'static str, KernelFn, ExpectFn)> {
    vec![
        ("ring_pass", ring_pass, ring_pass_expect),
        ("allreduce_sum", allreduce_sum, allreduce_sum_expect),
        ("prefix_scan", prefix_scan, prefix_scan_expect),
        ("bcast_chain", bcast_chain, bcast_chain_expect),
        ("halo_stencil", halo_stencil, halo_stencil_expect),
        (
            "gather_roundtrip",
            gather_roundtrip,
            gather_roundtrip_expect,
        ),
    ]
}

fn ring_pass(p: &mut Proc) -> Vec<i64> {
    // Pass a counter around the ring, each rank adding its rank.
    let c = p.comm_world();
    let sz = c.size();
    let me = c.rank();
    let mut value: i64;
    if me == 0 {
        value = 1;
        p.send(&value.to_le_bytes(), (me + 1) % sz, 0, &c);
        if sz > 1 {
            let (data, _) = p.recv(sz - 1, 0, &c);
            value = i64::from_le_bytes(data.try_into().unwrap());
        }
    } else {
        let (data, _) = p.recv(me - 1, 0, &c);
        value = i64::from_le_bytes(data.try_into().unwrap()) + me as i64;
        p.send(&value.to_le_bytes(), (me + 1) % sz, 0, &c);
    }
    vec![value]
}

fn ring_pass_expect(rank: usize, size: usize) -> Vec<i64> {
    if size == 1 {
        return vec![1];
    }
    if rank == 0 {
        // Full circle: 1 + sum(1..size-1).
        vec![1 + (1..size as i64).sum::<i64>()]
    } else {
        vec![1 + (1..=rank as i64).sum::<i64>()]
    }
}

fn allreduce_sum(p: &mut Proc) -> Vec<i64> {
    let c = p.comm_world();
    let mine = i32s_to_bytes(&[c.rank() as i32 + 1, 2 * c.rank() as i32]);
    let out = p.allreduce(&mine, ReduceOp::Sum, Datatype::Int32, &c);
    bytes_to_i32s(&out).into_iter().map(i64::from).collect()
}

fn allreduce_sum_expect(_rank: usize, size: usize) -> Vec<i64> {
    let a: i64 = (1..=size as i64).sum();
    let b: i64 = (0..size as i64).map(|r| 2 * r).sum();
    vec![a, b]
}

fn prefix_scan(p: &mut Proc) -> Vec<i64> {
    let c = p.comm_world();
    let mine = i32s_to_bytes(&[c.rank() as i32 + 1]);
    let out = p.scan(&mine, ReduceOp::Sum, Datatype::Int32, &c);
    bytes_to_i32s(&out).into_iter().map(i64::from).collect()
}

fn prefix_scan_expect(rank: usize, _size: usize) -> Vec<i64> {
    vec![(1..=rank as i64 + 1).sum()]
}

fn bcast_chain(p: &mut Proc) -> Vec<i64> {
    // Broadcast from every root in turn; fold the payloads.
    let c = p.comm_world();
    let mut acc = 0i64;
    for root in 0..c.size() {
        let mut buf = if c.rank() == root {
            f64s_to_bytes(&[(root as f64 + 1.0) * 1.5])
        } else {
            Vec::new()
        };
        p.bcast(&mut buf, root, &c);
        acc += (bytes_to_f64s(&buf)[0] * 2.0) as i64;
    }
    vec![acc]
}

fn bcast_chain_expect(_rank: usize, size: usize) -> Vec<i64> {
    vec![(0..size).map(|r| ((r as f64 + 1.0) * 3.0) as i64).sum()]
}

fn halo_stencil(p: &mut Proc) -> Vec<i64> {
    // One Jacobi-like halo exchange + local update on a tiny strip.
    let c = p.comm_world();
    let me = c.rank() as i64;
    let sz = c.size();
    let mut cells = [me * 10, me * 10 + 1, me * 10 + 2];
    let left = if c.rank() == 0 { sz - 1 } else { c.rank() - 1 };
    let right = (c.rank() + 1) % sz;
    let mut sreq1 = p.isend(&cells[0].to_le_bytes(), left, 1, &c);
    let mut sreq2 = p.isend(&cells[2].to_le_bytes(), right, 2, &c);
    let (from_right, _) = p.recv(right, 1, &c);
    let (from_left, _) = p.recv(left, 2, &c);
    p.wait(&mut sreq1);
    p.wait(&mut sreq2);
    let l = i64::from_le_bytes(from_left.try_into().unwrap());
    let r = i64::from_le_bytes(from_right.try_into().unwrap());
    cells[1] = (l + cells[1] + r) / 3;
    cells.to_vec()
}

fn halo_stencil_expect(rank: usize, size: usize) -> Vec<i64> {
    let me = rank as i64;
    let left = if rank == 0 { size - 1 } else { rank - 1 } as i64;
    let right = ((rank + 1) % size) as i64;
    let l = left * 10 + 2;
    let r = right * 10;
    vec![me * 10, (l + me * 10 + 1 + r) / 3, me * 10 + 2]
}

fn gather_roundtrip(p: &mut Proc) -> Vec<i64> {
    // Gather to root, transform, scatter back.
    let c = p.comm_world();
    let mine = i32s_to_bytes(&[c.rank() as i32 * 3]);
    let gathered = p.gather(&mine, 0, &c);
    let send = if c.rank() == 0 {
        let vals: Vec<i32> = bytes_to_i32s(&gathered.unwrap())
            .iter()
            .map(|v| v + 7)
            .collect();
        i32s_to_bytes(&vals)
    } else {
        Vec::new()
    };
    let back = p.scatter(&send, 0, &c);
    bytes_to_i32s(&back).into_iter().map(i64::from).collect()
}

fn gather_roundtrip_expect(rank: usize, _size: usize) -> Vec<i64> {
    vec![rank as i64 * 3 + 7]
}

/// One kernel's verdict: `body` runs with instrumentation off, then on,
/// and both outputs are compared with `expected` and with each other.
fn compare<T: PartialEq>(name: &str, expected: T, body: impl Fn(bool) -> T) -> KernelResult {
    let plain = body(false);
    let instrumented = body(true);
    KernelResult {
        name: name.to_owned(),
        correct_plain: plain == expected,
        correct_instrumented: instrumented == expected,
        outputs_equal: plain == instrumented,
    }
}

/// Run the full validation suite: every kernel, instrumented and
/// uninstrumented, outputs compared.
pub fn run_validation(nprocs: usize) -> Vec<KernelResult> {
    kernels()
        .into_iter()
        .map(|(name, kernel, expect)| {
            let expected: Vec<Vec<i64>> = (0..nprocs).map(|r| expect(r, nprocs)).collect();
            compare(name, expected, |instrumented| {
                let config = SimConfig::with_procs(nprocs);
                let config = if instrumented {
                    config
                } else {
                    config.uninstrumented()
                };
                ats_mpi::run_collect(config, kernel).1
            })
        })
        .collect()
}

/// Shared-memory validation: OpenMP-substrate kernels with closed-form
/// answers, run instrumented and uninstrumented (the OpenMP half of the
/// paper's ch. 2 procedure; it notes no OpenMP validation suites existed
/// in 2002 — this is ours).
pub fn run_omp_validation(nthreads: usize) -> Vec<KernelResult> {
    use ats_omp::{parallel, run_omp, OmpConfig, Schedule};
    use ats_runtime::unpoison;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Mutex;

    let config = |instrumented| OmpConfig {
        instrumented,
        ..Default::default()
    };
    let mut results = Vec::new();

    // Kernel 1: worksharing sum of 0..N over all schedules.
    for (label, schedule) in [
        ("omp_sum_static", Schedule::Static(None)),
        ("omp_sum_dynamic", Schedule::Dynamic(3)),
        ("omp_sum_guided", Schedule::Guided(2)),
    ] {
        let n = 100usize;
        results.push(compare(
            label,
            (n as i64 - 1) * n as i64 / 2,
            |instrumented| {
                let total = AtomicI64::new(0);
                run_omp(config(instrumented), |m| {
                    parallel(m, nthreads, |th| {
                        th.for_loop(n, schedule, |_, i| {
                            total.fetch_add(i as i64, Ordering::Relaxed);
                        });
                    });
                });
                total.into_inner()
            },
        ));
    }

    // Kernel 2: team reduction.
    let expected = (nthreads * (nthreads + 1) / 2) as i64;
    results.push(compare("omp_team_reduce", expected, |instrumented| {
        let out = Mutex::new(0i64);
        run_omp(config(instrumented), |m| {
            parallel(m, nthreads, |th| {
                let sum = th.team_reduce((th.thread_num() + 1) as f64, |a, b| a + b);
                if th.thread_num() == 0 {
                    *unpoison(out.lock()) = sum as i64;
                }
            });
        });
        unpoison(out.into_inner())
    }));

    // Kernel 3: critical-section counter (serialization correctness).
    let reps = 5usize;
    let expected = (nthreads * reps) as i64;
    results.push(compare("omp_critical_count", expected, |instrumented| {
        let counter = AtomicI64::new(0);
        run_omp(config(instrumented), |m| {
            parallel(m, nthreads, |th| {
                for _ in 0..reps {
                    th.critical("vcount", |_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        counter.into_inner()
    }));

    results
}

/// Overhead measurement: wall-clock time of a real-work kernel run
/// uninstrumented vs. instrumented (the paper's benchmark-suite-based
/// overhead procedure).
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// Wall time without tracing.
    pub plain_secs: f64,
    /// Wall time with tracing.
    pub instrumented_secs: f64,
    /// Events recorded by the instrumented run.
    pub events: usize,
}

impl OverheadResult {
    /// Relative slowdown (1.0 = free instrumentation).
    pub fn slowdown(&self) -> f64 {
        if self.plain_secs <= 0.0 {
            1.0
        } else {
            self.instrumented_secs / self.plain_secs
        }
    }
}

/// Measure instrumentation overhead with `reps` repetitions of a
/// work+barrier+exchange loop under real (calibrated busy) work.
pub fn measure_overhead(nprocs: usize, work_per_step: VDur, reps: usize) -> OverheadResult {
    let body = move |p: &mut Proc| {
        let c = p.comm_world();
        for i in 0..reps {
            p.do_work(work_per_step);
            if c.size() > 1 {
                let peer = (c.rank() + 1) % c.size();
                let from = (c.rank() + c.size() - 1) % c.size();
                let mut req = p.isend(&[i as u8], peer, 9, &c);
                let _ = p.recv(from, 9, &c);
                p.wait(&mut req);
            }
            p.barrier(&c);
        }
    };
    // Calibrate before the clock starts, so neither timed run pays for it.
    ats_runtime::work::iters_per_sec();
    let config = SimConfig::with_procs(nprocs).real_work();

    let t0 = Instant::now();
    let _ = ats_mpi::run(config.clone().uninstrumented(), body);
    let plain = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let trace = ats_mpi::run(config, body);
    let instrumented = t1.elapsed().as_secs_f64();

    OverheadResult {
        plain_secs: plain,
        instrumented_secs: instrumented,
        events: trace.num_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_suite_passes_at_several_scales() {
        for nprocs in [1, 2, 4, 7] {
            for r in run_validation(nprocs) {
                assert!(
                    r.passed(),
                    "kernel {} failed at {nprocs} procs: {r:?}",
                    r.name
                );
            }
        }
    }

    #[test]
    fn kernel_expectations_are_internally_consistent() {
        // Spot-check the closed forms at small sizes.
        assert_eq!(ring_pass_expect(0, 4), vec![1 + 1 + 2 + 3]);
        assert_eq!(ring_pass_expect(2, 4), vec![1 + 1 + 2]);
        assert_eq!(allreduce_sum_expect(0, 3), vec![6, 6]);
        assert_eq!(prefix_scan_expect(2, 4), vec![6]);
        assert_eq!(gather_roundtrip_expect(3, 4), vec![16]);
    }

    #[test]
    fn omp_validation_suite_passes() {
        for threads in [1, 2, 4] {
            for r in run_omp_validation(threads) {
                assert!(
                    r.passed(),
                    "OMP kernel {} failed at {threads} threads: {r:?}",
                    r.name
                );
            }
        }
    }

    #[test]
    fn overhead_measurement_runs_and_reports() {
        let result = measure_overhead(2, VDur::from_millis(2), 5);
        assert!(result.events > 0);
        assert!(result.plain_secs > 0.0);
        assert!(
            result.slowdown() > 0.1,
            "sane slowdown: {}",
            result.slowdown()
        );
    }
}
