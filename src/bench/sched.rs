//! `ats bench sched` (E-sched): throughput of the scheduler's event
//! carrier (one coroutine per rank) against its thread carrier (one OS
//! thread per rank, passing a baton).
//!
//! The workload is a collective superstep — the catalog's dominant
//! pattern (imbalance at barrier, late broadcast, early reduce): every
//! round staggers per-rank virtual work, broadcasts a token, then meets
//! the world at a barrier, an allreduce, a rotating-root reduce, and a
//! closing barrier; every fourth round adds a rendezvous (`MPI_Ssend`)
//! neighbor exchange. All virtual-time, so wall clock is pure simulator
//! and scheduler cost. Collectives dominate deliberately: each one wakes
//! all P members, which is where the two carriers differ most (P OS-thread
//! handoffs vs P user-space context switches).
//!
//! Each cell also times an empty (zero-round) run of the same
//! configuration and reports *net* events/sec with that baseline
//! subtracted: world setup/teardown and trace assembly are the same code
//! on both backends, so the net figure isolates what the gate is about —
//! the per-event scheduling cost. Both raw and net rates are emitted.
//! The gated 256-rank cells take the best of five repetitions, larger
//! cells best-of-three down to one at 8192, to keep the gate off the
//! noise floor.
//!
//! Runs the event backend at 64 → 8192 ranks and the thread backend at
//! 256 ranks. The two backends produce identical traces for this
//! workload (checked), so events/sec is directly comparable.
//!
//! Writes `BENCH_sched.json`. Gate: the event backend delivers at least
//! [`MIN_RATIO`] times the thread backend's net events/sec at 256 ranks.

use crate::cli::{failed, write_bench_doc, CliError, CommonArgs};
use crate::core::json::Json;
use crate::mpi::{Proc, SimBackend, SimConfig};
use crate::runtime::VDur;
use std::time::Instant;

/// The gate: event over thread net events/sec at 256 ranks.
pub(crate) const MIN_RATIO: f64 = 10.0;

/// One timed configuration.
struct SchedRow {
    backend: &'static str,
    nprocs: usize,
    rounds: usize,
    trace_events: usize,
    sched_events: u64,
    sched_ready_depth_max: u64,
    wall_secs: f64,
    /// Wall seconds of a zero-round run of the same configuration
    /// (setup, teardown, trace assembly — backend-independent code).
    baseline_secs: f64,
    events_per_sec: f64,
    /// Events over wall-minus-baseline: the scheduling-cost rate.
    net_events_per_sec: f64,
    ranks_per_sec: f64,
}

impl SchedRow {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("backend", self.backend)
            .with("nprocs", self.nprocs)
            .with("rounds", self.rounds)
            .with("trace_events", self.trace_events)
            .with("sched_events", self.sched_events)
            .with("sched_ready_depth_max", self.sched_ready_depth_max)
            .with("wall_secs", self.wall_secs)
            .with("baseline_secs", self.baseline_secs)
            .with("events_per_sec", self.events_per_sec)
            .with("net_events_per_sec", self.net_events_per_sec)
            .with("ranks_per_sec", self.ranks_per_sec)
    }
}

/// The measured workload (see module docs).
fn body(p: &mut Proc, rounds: usize) {
    let world = p.comm_world();
    let n = world.size();
    let me = p.rank();
    for round in 0..rounds {
        p.do_work(VDur::from_micros((((me + round) % 13) * 10) as u64));
        if round % 4 == 3 {
            let dst = (me + 1) % n;
            let src = (me + n - 1) % n;
            // Odd ranks receive first so the rendezvous ring cannot
            // deadlock at any size.
            if me.is_multiple_of(2) {
                p.ssend(&[round as u8], dst, 1, &world);
                let _ = p.recv(src, 1, &world);
            } else {
                let _ = p.recv(src, 1, &world);
                p.ssend(&[round as u8], dst, 1, &world);
            }
        }
        let mut token = if me == 0 {
            vec![round as u8]
        } else {
            Vec::new()
        };
        p.bcast(&mut token, 0, &world);
        p.barrier(&world);
        let _ = p.allreduce(
            &(me as i64).to_le_bytes(),
            crate::mpi::ReduceOp::Sum,
            crate::mpi::Datatype::Int64,
            &world,
        );
        let _ = p.reduce(
            &(round as i64).to_le_bytes(),
            crate::mpi::ReduceOp::Max,
            crate::mpi::Datatype::Int64,
            round % n,
            &world,
        );
        p.barrier(&world);
    }
}

fn timed_run(
    backend: SimBackend,
    nprocs: usize,
    rounds: usize,
) -> (crate::obs::Handle, usize, f64) {
    let obs = crate::obs::Handle::new();
    let config = SimConfig::with_procs(nprocs).backend(backend);
    let config = SimConfig {
        obs: Some(obs.clone()),
        ..config
    };
    let started = Instant::now();
    let trace = crate::mpi::run(config, move |p| body(p, rounds));
    let wall = started.elapsed().as_secs_f64();
    (obs, trace.num_events(), wall)
}

/// Best-of-`reps` measurement (the least scheduler-noisy estimate):
/// minimum wall for both the workload and the baseline.
fn measure(backend: SimBackend, nprocs: usize, rounds: usize, reps: usize) -> SchedRow {
    let baseline_secs = (0..reps)
        .map(|_| timed_run(backend, nprocs, 0).2)
        .fold(f64::INFINITY, f64::min);
    let (mut obs, mut trace_events, mut wall_secs) = timed_run(backend, nprocs, rounds);
    for _ in 1..reps {
        let (o, ev, wall) = timed_run(backend, nprocs, rounds);
        if wall < wall_secs {
            (obs, trace_events, wall_secs) = (o, ev, wall);
        }
    }
    let net_secs = (wall_secs - baseline_secs).max(1e-9);
    SchedRow {
        backend: backend.effective().label(),
        nprocs,
        rounds,
        trace_events,
        sched_events: obs.mpi.sched_events.get(),
        sched_ready_depth_max: obs.mpi.sched_ready_depth_max.get(),
        wall_secs,
        baseline_secs,
        events_per_sec: trace_events as f64 / wall_secs.max(1e-9),
        net_events_per_sec: trace_events as f64 / net_secs,
        ranks_per_sec: nprocs as f64 / wall_secs.max(1e-9),
    }
}

fn print_row(row: &SchedRow) {
    outln!(
        "{:<8} {:>7} {:>12} {:>12} {:>10.3} {:>14.0} {:>14.0} {:>12.0}",
        row.backend,
        row.nprocs,
        row.trace_events,
        row.sched_events,
        row.wall_secs,
        row.events_per_sec,
        row.net_events_per_sec,
        row.ranks_per_sec
    );
}

/// `ats bench sched [rounds]`.
pub(crate) fn run(args: &CommonArgs) -> Result<bool, CliError> {
    let rounds: usize = args.pos_or(0, 12)?;
    outln!("=== E-sched: discrete-event scheduler throughput ===\n");
    outln!(
        "{:<8} {:>7} {:>12} {:>12} {:>10} {:>14} {:>14} {:>12}",
        "backend",
        "ranks",
        "trace-ev",
        "sched-ev",
        "wall-s",
        "events/sec",
        "net-ev/sec",
        "ranks/sec"
    );
    let mut rows = Vec::new();
    for nprocs in [64usize, 256, 1024, 4096, 8192] {
        // Five repetitions at the gated comparison point, three where a
        // cell is still cheap, one at the wide end.
        let reps = if nprocs <= 256 {
            5
        } else if nprocs <= 1024 {
            3
        } else {
            1
        };
        let row = measure(SimBackend::Event, nprocs, rounds, reps);
        print_row(&row);
        rows.push(row);
    }
    let thread = measure(SimBackend::Thread, 256, rounds, 5);
    print_row(&thread);
    let event_at_256 = &rows[1];
    if event_at_256.trace_events != thread.trace_events {
        return Err(failed(format!(
            "the backends' traces differ: {} events on the event carrier, {} on threads",
            event_at_256.trace_events, thread.trace_events
        )));
    }
    // Event-backend net events/sec over thread-backend net events/sec at
    // the 256-rank comparison point.
    let ratio_at_256 = event_at_256.net_events_per_sec / thread.net_events_per_sec.max(1e-9);
    // On targets without a coroutine implementation the event backend
    // falls back to threads; the ratio gate would be meaningless there.
    let gate_applies = SimBackend::event_supported();
    let gate_passed = !gate_applies || ratio_at_256 >= MIN_RATIO;
    rows.push(thread);
    let doc = Json::obj()
        .with("experiment", "E-sched")
        .with(
            "rows",
            rows.iter().map(SchedRow::to_json).collect::<Vec<_>>(),
        )
        .with("ratio_at_256", ratio_at_256)
        .with("min_ratio", MIN_RATIO)
        .with("gate_passed", gate_passed);
    outln!();
    write_bench_doc("sched", &doc)?;
    outln!(
        "event/thread net events-per-sec ratio at 256 ranks: {ratio_at_256:.1}x (gate: >= {MIN_RATIO}x)"
    );
    if !gate_applies {
        outln!("gate skipped: no coroutine backend on this target");
    }
    Ok(super::verdict("scheduler", gate_passed))
}
