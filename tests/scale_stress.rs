//! Scale smoke tests: the virtual-time substrates must stay correct and
//! fast well past the paper's 16-rank screenshots.

use ats::analyzer::{analyze, AnalyzerConfig};
use ats::core::{composite, CompositeParams};
use ats::mpi::SimConfig;
use ats::trace::check_wellformed;

#[test]
fn sixty_four_rank_two_communicator_composite() {
    let params = CompositeParams {
        basework: 0.001,
        extrawork: 0.004,
        reps: 1,
        ..Default::default()
    };
    let trace = ats::mpi::run(SimConfig::with_procs(64), move |p| {
        let world = p.comm_world();
        composite::two_communicator_composite(p, &params, &world);
    });
    assert_eq!(trace.num_locations(), 64);
    assert!(check_wellformed(&trace).is_empty());
    let report = analyze(&trace, &AnalyzerConfig::default());
    // Fig 3.5 localization at 64 ranks: upper half minus local root 1
    // (global 33).
    let blamed: Vec<u32> = report
        .locations_for("LateBroadcast")
        .iter()
        .map(|l| l.rank)
        .collect();
    let expected: Vec<u32> = (32..64).filter(|&r| r != 33).collect();
    assert_eq!(blamed, expected);
}

/// Tentpole smoke: 4096 simulated ranks in one process — a scale only
/// the coroutine carrier can host; one OS thread per rank would exhaust
/// a CI runner's thread and memory limits.
#[test]
fn four_thousand_ranks_run_in_one_process() {
    use ats::runtime::VDur;
    let trace = ats::mpi::run(SimConfig::with_procs(4096), |p| {
        let world = p.comm_world();
        let n = world.size();
        let me = p.rank();
        // Staggered work, a ring token pass, and a world barrier: p2p
        // matching, the rendezvous protocol and the collective slot all
        // at full width.
        p.do_work(VDur::from_micros(((me % 7) * 50) as u64));
        let mut req = p.isend(&[me as u8], (me + 1) % n, 9, &world);
        let (msg, status) = p.recv((me + n - 1) % n, 9, &world);
        p.wait(&mut req);
        assert_eq!(msg, vec![((me + n - 1) % n) as u8]);
        assert_eq!(status.source, (me + n - 1) % n);
        p.barrier(&world);
    });
    assert_eq!(trace.num_locations(), 4096);
    assert!(check_wellformed(&trace).is_empty());
}

#[test]
fn deep_communicator_nesting() {
    // Recursively halve the world 4 times: 16 -> 8 -> 4 -> 2, with a
    // barrier at every level; communicators and collective sequence
    // numbers must stay consistent throughout.
    let trace = ats::mpi::run(SimConfig::with_procs(16), |p| {
        let mut comm = p.comm_world();
        for _level in 0..3 {
            p.barrier(&comm);
            let half = comm.size() / 2;
            let color = (comm.rank() / half) as i64;
            comm = p.comm_split(color, comm.rank() as i64, &comm).unwrap();
        }
        assert_eq!(comm.size(), 2);
        p.barrier(&comm);
    });
    assert!(check_wellformed(&trace).is_empty());
    // world + 2 + 4 + 8 subcommunicators recorded.
    assert_eq!(trace.comms.len(), 1 + 2 + 4 + 8);
}

#[test]
fn wide_omp_team_inside_each_rank() {
    let trace = ats::mpi::run(SimConfig::with_procs(4), |p| {
        ats::core::with_omp(p, |m| {
            ats::omp::parallel(m, 16, |th| {
                th.do_work(ats::runtime::VDur::from_micros(
                    (th.thread_num() as u64 + 1) * 100,
                ));
                th.barrier();
            });
        });
    });
    assert!(check_wellformed(&trace).is_empty());
    assert_eq!(trace.num_locations(), 4 * 16);
}
