//! Exact severity accounting: under the zero-cost machine model, the
//! analyzer's total waiting time per property must equal the *closed-form*
//! value implied by the program's parameters — not merely correlate with
//! it. This is the strongest form of the paper's positive-correctness
//! requirement ("the relative severity of the properties can be controlled
//! by the user").

use ats::analyzer::{analyze, AnalyzerConfig};
use ats::harness::{run_single, ParamValues, RunOpts};

fn total_wait(property: &str, trace: &ats::trace::Trace) -> f64 {
    let report = analyze(trace, &AnalyzerConfig::default().threshold(0.0));
    report
        .findings_for(property)
        .iter()
        .map(|f| f.wait.as_secs())
        .sum()
}

fn run(name: &str, args: &[&str], nprocs: usize) -> ats::trace::Trace {
    let spec = ats::core::catalog::find(name).unwrap();
    let params = ParamValues::from_args(spec, args).unwrap();
    run_single(name, &params, &RunOpts::default().procs(nprocs)).unwrap()
}

const EPS: f64 = 1e-9;

#[test]
fn late_sender_wait_is_pairs_times_reps_times_extra() {
    // P pairs, each waiting `extrawork` per repetition.
    for (nprocs, pairs) in [(2, 1.0), (4, 2.0), (6, 3.0), (7, 3.0)] {
        let trace = run(
            "late_sender",
            &["basework=0.003", "extrawork=0.025", "r=4"],
            nprocs,
        );
        let expect = pairs * 4.0 * 0.025;
        let got = total_wait("LateSender", &trace);
        assert!((got - expect).abs() < EPS, "P={nprocs}: {got} vs {expect}");
    }
}

#[test]
fn late_receiver_wait_mirrors_late_sender() {
    let trace = run(
        "late_receiver",
        &["basework=0.002", "extrawork=0.018", "r=3"],
        4,
    );
    let expect = 2.0 * 3.0 * 0.018;
    let got = total_wait("LateReceiver", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn barrier_wait_is_the_sum_of_gaps_to_the_slowest() {
    // linear(low, high) over P ranks: gap_i = (high-low) * (P-1-i)/(P-1);
    // total per repetition = (high-low) * P/2.
    let (low, high, p, r) = (0.004f64, 0.036f64, 8usize, 3usize);
    let trace = run(
        "imbalance_at_mpi_barrier",
        &[
            &format!("df=linear:low={low},high={high}"),
            &format!("r={r}"),
        ],
        p,
    );
    let expect = (high - low) * (p as f64 / 2.0) * r as f64;
    let got = total_wait("WaitAtBarrier", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn late_broadcast_wait_is_members_times_extra() {
    // Every non-root member waits exactly `extrawork` per repetition.
    let (p, r, extra) = (8usize, 2usize, 0.03f64);
    let trace = run(
        "late_broadcast",
        &[
            &format!("extrawork={extra}"),
            "basework=0.005",
            "root=3",
            &format!("r={r}"),
        ],
        p,
    );
    let expect = (p - 1) as f64 * r as f64 * extra;
    let got = total_wait("LateBroadcast", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn early_reduce_wait_is_root_only_extra() {
    // Only the root waits, exactly `baseextrawork` per repetition.
    let (p, r, extra) = (6usize, 3usize, 0.022f64);
    let trace = run(
        "early_reduce",
        &[
            &format!("baseextrawork={extra}"),
            "rootwork=0.004",
            "root=2",
            &format!("r={r}"),
        ],
        p,
    );
    let expect = r as f64 * extra;
    let got = total_wait("EarlyReduce", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn alltoall_wait_matches_peak_distribution() {
    // peak(low, high, n): everyone except the peak waits (high - low).
    let (p, r) = (5usize, 2usize);
    let trace = run(
        "imbalance_at_mpi_alltoall",
        &["df=peak:low=0.002,high=0.03,n=1", &format!("r={r}")],
        p,
    );
    let expect = (p - 1) as f64 * r as f64 * (0.03 - 0.002);
    let got = total_wait("WaitAtNxN", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn omp_barrier_wait_matches_cyclic_distribution() {
    // cyclic2(low, high) over 4 threads: threads 0 and 2 wait (high-low).
    let (threads, r) = (4usize, 3usize);
    let trace = run(
        "imbalance_at_omp_barrier",
        &[
            "df=cyclic2:low=0.005,high=0.02",
            &format!("nthreads={threads}"),
            &format!("r={r}"),
        ],
        1,
    );
    let expect = 2.0 * r as f64 * (0.02 - 0.005);
    let got = total_wait("OmpWaitAtBarrier", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn critical_contention_wait_is_the_serialization_triangle() {
    // T threads, zero outside work, contenders granted in arrival order:
    // in the first round thread k waits k*body, a triangle of
    // body*T(T-1)/2; in every later round each thread arrives as it leaves
    // and waits for the other T-1 bodies, body*T(T-1) per round. Total:
    // body*T(T-1)*(r - 1/2).
    let (threads, body) = (5usize, 0.012f64);
    for r in [1usize, 3] {
        let trace = run(
            "omp_critical_contention",
            &[
                &format!("bodywork={body}"),
                "outsidework=0.0",
                &format!("nthreads={threads}"),
                &format!("r={r}"),
            ],
            1,
        );
        let expect = body * (threads * (threads - 1)) as f64 * (r as f64 - 0.5);
        let got = total_wait("OmpCriticalContention", &trace);
        assert!((got - expect).abs() < EPS, "r={r}: {got} vs {expect}");
    }
}

#[test]
fn wrong_order_wait_equals_the_programmed_delay() {
    // The early message sits unread exactly `delay` per pair per rep.
    let (p, r, delay) = (4usize, 2usize, 0.02f64);
    let trace = run(
        "messages_in_wrong_order",
        &[
            &format!("delay={delay}"),
            "basework=0.003",
            &format!("r={r}"),
        ],
        p,
    );
    let expect = 2.0 * r as f64 * delay; // 2 pairs
    let got = total_wait("MessagesWrongOrder", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn progressive_barrier_wait_sums_the_growth_series() {
    // Iteration i scaled by (1 + g*i): total wait = base_total * sum(1+g*i).
    let (p, r, g) = (4usize, 4usize, 0.5f64);
    let (low, high) = (0.002f64, 0.014f64);
    let trace = run(
        "progressive_imbalance_at_mpi_barrier",
        &[
            &format!("df=block2:low={low},high={high}"),
            &format!("growth={g}"),
            &format!("r={r}"),
        ],
        p,
    );
    // block2 over 4 ranks: ranks 0,1 wait (high-low) each per iteration.
    let per_iter_base = 2.0 * (high - low);
    let series: f64 = (0..r).map(|i| 1.0 + g * i as f64).sum();
    let expect = per_iter_base * series;
    let got = total_wait("WaitAtBarrier", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}

#[test]
fn serial_initialization_wait_is_serialwork_per_nonroot() {
    let (p, serial) = (5usize, 0.04f64);
    let trace = run(
        "serial_initialization",
        &[&format!("extrawork={serial}"), "basework=0.005", "root=0"],
        p,
    );
    let expect = (p - 1) as f64 * serial;
    let got = total_wait("WaitAtBarrier", &trace);
    assert!((got - expect).abs() < EPS, "{got} vs {expect}");
}
