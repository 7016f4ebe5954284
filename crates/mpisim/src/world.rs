//! The run entry points: execute the user program once per simulated rank,
//! each rank a task of one scheduler run on the configured carrier, and
//! collect the merged trace.

use crate::comm::CommShared;
use crate::config::SimConfig;
use crate::mailbox::Mailbox;
use crate::proc::Proc;
use ats_runtime::{sched, unpoison, MachineModel, WorkEngine};
use ats_trace::{Trace, TraceCollector};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Shared world state: the transport and the communicator broker.
pub(crate) struct WorldShared {
    mailboxes: Vec<Mailbox>,
    pub(crate) next_comm_id: Arc<AtomicU32>,
    /// `(parent comm id, parent collective seq, color) -> child comm`:
    /// the first member to ask creates the shared state, the rest reuse it.
    broker: Mutex<HashMap<(u32, u64, i64), Arc<CommShared>>>,
    pub(crate) model: MachineModel,
    pub(crate) obs: Option<ats_obs::Handle>,
    collector: TraceCollector,
}

impl WorldShared {
    pub(crate) fn mailbox(&self, global_rank: usize) -> &Mailbox {
        &self.mailboxes[global_rank]
    }

    pub(crate) fn comm_for_group(
        &self,
        parent: u32,
        seq: u64,
        color: i64,
        members: &[usize],
    ) -> Arc<CommShared> {
        let mut broker = unpoison(self.broker.lock());
        let entry = broker
            .entry((parent, seq, color))
            .or_insert_with(|| {
                let id = self.next_comm_id.fetch_add(1, Ordering::Relaxed);
                self.collector
                    .register_comm(id, members.iter().map(|&m| m as u32).collect());
                CommShared::new(id, members.to_vec())
            })
            .clone();
        debug_assert_eq!(
            entry.members, members,
            "inconsistent group computation across members"
        );
        entry
    }
}

/// Run `f` on `config.nprocs` simulated ranks and return the merged trace.
///
/// The closure is executed once per rank — as a scheduler task on
/// `config.backend`'s carrier — receiving that rank's [`Proc`] handle,
/// exactly like an SPMD `main` between `MPI_Init` and `MPI_Finalize`.
/// Recorded traces are byte-identical across carriers.
///
/// # Panics
/// Propagates the first panic of a rank or of an OpenMP team member it
/// forked, or the scheduler's deadlock report.
pub fn run<F>(config: SimConfig, f: F) -> Trace
where
    F: Fn(&mut Proc) + Sync,
{
    run_collect(config, |p| f(p)).0
}

/// Like [`run`], but also returns each rank's result, ordered by rank.
/// Used by the validation suite to compare instrumented vs. uninstrumented
/// program outputs.
pub fn run_collect<R, F>(config: SimConfig, f: F) -> (Trace, Vec<R>)
where
    R: Send,
    F: Fn(&mut Proc) -> R + Sync,
{
    assert!(config.nprocs > 0, "need at least one process");
    let mut collector = if config.instrumented {
        TraceCollector::new()
    } else {
        TraceCollector::disabled()
    };
    if let Some(pool) = &config.trace_pool {
        collector = collector.with_pool(pool.clone());
    }
    // Pre-intern the substrate's region names in a fixed order so region
    // ids do not depend on which rank thread first reaches which call.
    {
        use ats_trace::RegionKind::*;
        for (name, kind) in [
            ("do_work", Work),
            ("MPI_Init", MpiSetup),
            ("MPI_Finalize", MpiSetup),
            ("MPI_Send", MpiP2p),
            ("MPI_Ssend", MpiP2p),
            ("MPI_Recv", MpiP2p),
            ("MPI_Isend", MpiP2p),
            ("MPI_Irecv", MpiP2p),
            ("MPI_Wait", MpiP2p),
            ("MPI_Probe", MpiP2p),
            ("MPI_Comm_split", MpiSetup),
        ] {
            collector.intern(name, kind);
        }
        for op in [
            ats_trace::CollOp::Barrier,
            ats_trace::CollOp::Bcast,
            ats_trace::CollOp::Scatter,
            ats_trace::CollOp::Scatterv,
            ats_trace::CollOp::Gather,
            ats_trace::CollOp::Gatherv,
            ats_trace::CollOp::Reduce,
            ats_trace::CollOp::Allreduce,
            ats_trace::CollOp::Allgather,
            ats_trace::CollOp::Alltoall,
            ats_trace::CollOp::Alltoallv,
            ats_trace::CollOp::Scan,
        ] {
            collector.intern(op.region_name(), ats_trace::RegionKind::MpiCollective);
        }
    }
    if let Some(obs) = &config.obs {
        obs.mpi.runs.inc();
        obs.mpi.ranks.add(config.nprocs as u64);
    }
    let world = Arc::new(WorldShared {
        mailboxes: (0..config.nprocs)
            .map(|_| Mailbox::with_obs(config.obs.clone()))
            .collect(),
        next_comm_id: Arc::new(AtomicU32::new(1)),
        broker: Mutex::new(HashMap::new()),
        model: config.model.clone(),
        obs: config.obs.clone(),
        collector: collector.clone(),
    });
    collector.register_comm(0, (0..config.nprocs as u32).collect());
    let world_comm = CommShared::new(0, (0..config.nprocs).collect());

    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..config.nprocs).map(|_| None).collect());
    let tasks: Vec<sched::TaskFn> = (0..config.nprocs)
        .map(|rank| {
            let collector = collector.clone();
            let world = world.clone();
            let world_comm = world_comm.clone();
            let (config, results, f) = (&config, &results, &f);
            Box::new(move || {
                let result = run_rank(rank, config, collector, world, world_comm, f);
                unpoison(results.lock())[rank] = Some(result);
            }) as sched::TaskFn
        })
        .collect();
    let stats = sched::run_tasks(
        config.backend.effective(),
        sched::DEFAULT_STACK_BYTES,
        tasks,
    );
    if let Some(obs) = &config.obs {
        obs.mpi.sched_events.add(stats.events);
        obs.mpi
            .sched_ready_depth_max
            .set_max(stats.max_ready as u64);
    }
    // The world holds a collector handle (for communicator registration);
    // release it before finalizing the trace.
    drop(world);
    let results = unpoison(results.into_inner())
        .into_iter()
        .map(|r| r.expect("every rank task completed"))
        .collect();
    (collector.finish(), results)
}

/// One rank's whole life: engine setup, `MPI_Init`, user body,
/// `MPI_Finalize`, trace submission.
fn run_rank<R, F>(
    rank: usize,
    config: &SimConfig,
    collector: TraceCollector,
    world: Arc<WorldShared>,
    world_comm: Arc<CommShared>,
    f: &F,
) -> R
where
    F: Fn(&mut Proc) -> R,
{
    let engine = WorkEngine::new(config.work_mode, config.seed, rank as u64);
    let mut proc = Proc::new(
        rank,
        config.nprocs,
        engine,
        collector.clone(),
        world,
        world_comm,
        config.seed,
    );
    proc.sim_init(config.init_time);
    let result = f(&mut proc);
    proc.sim_finalize(config.finalize_time);
    let (local, _collector) = proc.into_local();
    if let Some(obs) = &config.obs {
        obs.mpi.events.add(local.len() as u64);
    }
    collector.submit(local);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{bytes_to_i32s, i32s_to_bytes, Datatype, ReduceOp};
    use ats_runtime::{SimBackend, VDur, VTime};
    use ats_trace::check_wellformed;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn ranks_and_world_comm() {
        let (_, ranks) = run_collect(cfg(4), |p| {
            let c = p.comm_world();
            assert_eq!(c.size(), 4);
            assert_eq!(c.rank(), p.rank());
            p.rank()
        });
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ping_pong_transfers_data_and_time() {
        let trace = run(cfg(2), |p| {
            let c = p.comm_world();
            if p.rank() == 0 {
                p.do_work(VDur::from_millis(10));
                p.send(b"hello", 1, 7, &c);
            } else {
                let (data, st) = p.recv(0, 7, &c);
                assert_eq!(data, b"hello");
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                // Receiver posted at 0 but message was sent at 10ms: a
                // late-sender wait of 10ms with the zero cost model.
                assert_eq!(p.clock(), VTime::from_secs(0.010));
            }
        });
        assert!(check_wellformed(&trace).is_empty());
        assert_eq!(trace.num_locations(), 2);
    }

    #[test]
    fn late_receiver_blocks_synchronous_sender() {
        run(cfg(2), |p| {
            let c = p.comm_world();
            if p.rank() == 0 {
                p.ssend(b"payload", 1, 0, &c);
                // Receiver posts at 25ms; rendezvous completes then.
                assert_eq!(p.clock(), VTime::from_secs(0.025));
            } else {
                p.do_work(VDur::from_millis(25));
                let _ = p.recv(0, 0, &c);
            }
        });
    }

    #[test]
    fn eager_send_does_not_block() {
        run(cfg(2), |p| {
            let c = p.comm_world();
            if p.rank() == 0 {
                p.send(b"x", 1, 0, &c);
                assert_eq!(p.clock(), VTime::ZERO, "eager send returns immediately");
            } else {
                p.do_work(VDur::from_millis(50));
                let _ = p.recv(0, 0, &c);
            }
        });
    }

    #[test]
    fn isend_irecv_wait_roundtrip() {
        run(cfg(2), |p| {
            let c = p.comm_world();
            if p.rank() == 0 {
                let mut req = p.isend(b"abc", 1, 3, &c);
                p.do_work(VDur::from_millis(5));
                p.wait(&mut req);
            } else {
                let mut req = p.irecv(0, 3, &c);
                p.do_work(VDur::from_millis(2));
                let (data, st) = p.wait(&mut req).expect("recv request yields data");
                assert_eq!(data, b"abc");
                assert_eq!(st.bytes, 3);
            }
        });
    }

    #[test]
    fn non_overtaking_same_source_tag() {
        run(cfg(2), |p| {
            let c = p.comm_world();
            if p.rank() == 0 {
                p.send(b"first", 1, 1, &c);
                p.send(b"second", 1, 1, &c);
            } else {
                let (a, _) = p.recv(0, 1, &c);
                let (b, _) = p.recv(0, 1, &c);
                assert_eq!(a, b"first");
                assert_eq!(b, b"second");
            }
        });
    }

    #[test]
    fn tagged_messages_match_out_of_order() {
        run(cfg(2), |p| {
            let c = p.comm_world();
            if p.rank() == 0 {
                p.send(b"tag5", 1, 5, &c);
                p.send(b"tag9", 1, 9, &c);
            } else {
                let (b9, _) = p.recv(0, 9, &c);
                let (b5, _) = p.recv(0, 5, &c);
                assert_eq!(b9, b"tag9");
                assert_eq!(b5, b"tag5");
            }
        });
    }

    #[test]
    fn wildcard_receive() {
        run(cfg(3), |p| {
            let c = p.comm_world();
            match p.rank() {
                0 => {
                    let (_, st1) = p.recv_select(None, None, &c);
                    let (_, st2) = p.recv_select(None, None, &c);
                    let mut sources = vec![st1.source, st2.source];
                    sources.sort_unstable();
                    assert_eq!(sources, vec![1, 2]);
                }
                r => p.send(&[r as u8], 0, 0, &c),
            }
        });
    }

    #[test]
    fn barrier_aligns_clocks() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            p.do_work(VDur::from_millis(10 * (p.rank() as u64 + 1)));
            p.barrier(&c);
            assert_eq!(p.clock(), VTime::from_secs(0.040));
        });
    }

    #[test]
    fn bcast_delivers_root_payload() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let mut buf = if p.rank() == 2 {
                i32s_to_bytes(&[10, 20, 30])
            } else {
                Vec::new()
            };
            p.bcast(&mut buf, 2, &c);
            assert_eq!(bytes_to_i32s(&buf), vec![10, 20, 30]);
        });
    }

    #[test]
    fn scatter_gather_roundtrip() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let send: Vec<u8> = (0..16).collect();
            let mine = p.scatter(&send, 0, &c);
            assert_eq!(
                mine,
                ((p.rank() * 4) as u8..(p.rank() * 4 + 4) as u8).collect::<Vec<_>>()
            );
            let gathered = p.gather(&mine, 0, &c);
            if p.rank() == 0 {
                assert_eq!(gathered.unwrap(), send);
            } else {
                assert!(gathered.is_none());
            }
        });
    }

    #[test]
    fn scatterv_respects_counts() {
        run(cfg(3), |p| {
            let c = p.comm_world();
            let send: Vec<u8> = (0..6).collect();
            let mine = p.scatterv(&send, &[1, 2, 3], 0, &c);
            match p.rank() {
                0 => assert_eq!(mine, vec![0]),
                1 => assert_eq!(mine, vec![1, 2]),
                2 => assert_eq!(mine, vec![3, 4, 5]),
                _ => unreachable!(),
            }
        });
    }

    #[test]
    fn reduce_and_allreduce_sum() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let mine = i32s_to_bytes(&[p.rank() as i32 + 1]);
            let total = p.reduce(&mine, ReduceOp::Sum, Datatype::Int32, 0, &c);
            if p.rank() == 0 {
                assert_eq!(bytes_to_i32s(&total.unwrap()), vec![10]);
            }
            let all = p.allreduce(&mine, ReduceOp::Max, Datatype::Int32, &c);
            assert_eq!(bytes_to_i32s(&all), vec![4]);
        });
    }

    #[test]
    fn alltoall_transposes() {
        run(cfg(3), |p| {
            let c = p.comm_world();
            // Rank r sends byte (10*r + dest) to each dest.
            let send: Vec<u8> = (0..3).map(|d| (10 * p.rank() + d) as u8).collect();
            let recv = p.alltoall(&send, &c);
            let expect: Vec<u8> = (0..3).map(|s| (10 * s + p.rank()) as u8).collect();
            assert_eq!(recv, expect);
        });
    }

    #[test]
    fn scan_prefix_sums() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let mine = i32s_to_bytes(&[1]);
            let pre = p.scan(&mine, ReduceOp::Sum, Datatype::Int32, &c);
            assert_eq!(bytes_to_i32s(&pre), vec![p.rank() as i32 + 1]);
        });
    }

    #[test]
    fn sendrecv_combined_exchanges_without_deadlock() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let right = (p.rank() + 1) % 4;
            let left = (p.rank() + 3) % 4;
            // Everyone sends right / receives from left simultaneously —
            // pure blocking sends would deadlock under rendezvous.
            let (data, st) = p.sendrecv(&[p.rank() as u8], right, 1, left, 1, &c);
            assert_eq!(data, vec![left as u8]);
            assert_eq!(st.source, left);
        });
    }

    #[test]
    fn comm_split_halves() {
        run(cfg(8), |p| {
            let c = p.comm_world();
            let color = (p.rank() / 4) as i64;
            let half = p.comm_split(color, p.rank() as i64, &c).unwrap();
            assert_eq!(half.size(), 4);
            assert_eq!(half.rank(), p.rank() % 4);
            assert_eq!(half.global_rank(0), if p.rank() < 4 { 0 } else { 4 });
            // Communication inside the halves must not cross.
            let got = p.alltoall(&[p.rank() as u8; 4], &half);
            let base = (p.rank() / 4 * 4) as u8;
            assert_eq!(got, vec![base, base + 1, base + 2, base + 3]);
        });
    }

    #[test]
    fn comm_split_undefined_color() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let color = if p.rank() == 0 { -1 } else { 0 };
            let sub = p.comm_split(color, 0, &c);
            if p.rank() == 0 {
                assert!(sub.is_none());
            } else {
                assert_eq!(sub.unwrap().size(), 3);
            }
        });
    }

    #[test]
    fn comm_dup_preserves_layout_and_isolates_traffic() {
        run(cfg(3), |p| {
            let c = p.comm_world();
            let d = p.comm_dup(&c);
            assert_eq!(d.rank(), c.rank());
            assert_eq!(d.size(), c.size());
            assert_ne!(d.id(), c.id());
            if p.rank() == 0 {
                p.send(b"on-dup", 1, 0, &d);
                p.send(b"on-world", 1, 0, &c);
            } else if p.rank() == 1 {
                // Receive world first even though dup was sent first.
                let (w, _) = p.recv(0, 0, &c);
                let (dd, _) = p.recv(0, 0, &d);
                assert_eq!(w, b"on-world");
                assert_eq!(dd, b"on-dup");
            }
        });
    }

    #[test]
    fn init_finalize_recorded_with_costs() {
        let mut config = cfg(2);
        config.init_time = VDur::from_millis(5);
        config.finalize_time = VDur::from_millis(3);
        let trace = run(config, |p| {
            p.do_work(VDur::from_millis(1));
        });
        let init = trace.find_region("MPI_Init").unwrap();
        let fin = trace.find_region("MPI_Finalize").unwrap();
        let stats = ats_trace::TraceStats::compute(&trace);
        for loc in &trace.locations {
            assert_eq!(
                stats.profiles[&loc.location][&init].inclusive,
                VDur::from_millis(5)
            );
            assert_eq!(
                stats.profiles[&loc.location][&fin].inclusive,
                VDur::from_millis(3)
            );
        }
    }

    #[test]
    fn uninstrumented_runs_produce_empty_traces_but_same_results() {
        let body = |p: &mut Proc| {
            let c = p.comm_world();
            let sum = p.allreduce(
                &i32s_to_bytes(&[p.rank() as i32]),
                ReduceOp::Sum,
                Datatype::Int32,
                &c,
            );
            bytes_to_i32s(&sum)[0]
        };
        let (t1, r1) = run_collect(cfg(4), body);
        let (t2, r2) = run_collect(cfg(4).uninstrumented(), body);
        assert_eq!(r1, r2, "instrumentation must not change program results");
        assert!(t1.num_events() > 0);
        assert_eq!(t2.num_events(), 0);
    }

    #[test]
    fn traces_are_deterministic_across_runs() {
        let body = |p: &mut Proc| {
            let c = p.comm_world();
            p.do_work(VDur::from_millis((p.rank() as u64 + 1) * 3));
            p.barrier(&c);
            if p.rank() == 0 {
                p.send(b"m", 1, 0, &c);
            } else if p.rank() == 1 {
                let _ = p.recv(0, 0, &c);
            }
            p.barrier(&c);
        };
        let a = run(cfg(4), body);
        let b = run(cfg(4), body);
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.locations, b.locations, "virtual time must be bit-stable");
    }

    #[test]
    fn all_traces_wellformed() {
        let trace = run(cfg(4), |p| {
            let c = p.comm_world();
            p.do_work(VDur::from_millis(1));
            p.barrier(&c);
            let _ = p.alltoall(&[0u8; 4], &c);
        });
        assert!(check_wellformed(&trace).is_empty());
    }

    #[test]
    fn single_process_world() {
        let trace = run(cfg(1), |p| {
            let c = p.comm_world();
            p.barrier(&c);
            let mut b = vec![1, 2, 3];
            p.bcast(&mut b, 0, &c);
            assert_eq!(b, vec![1, 2, 3]);
        });
        assert_eq!(trace.num_locations(), 1);
    }

    #[test]
    fn waitany_prefers_already_arrived_messages() {
        // Re-expressed in virtual time (was: wall-clock sleeps racing
        // loaded CI machines): rank 2 sends at t=0, rank 1 at t=30ms.
        // waitany must complete the earlier *virtual* send first even
        // though rank 1's request is listed first.
        run(cfg(3), |p| {
            let c = p.comm_world();
            match p.rank() {
                0 => {
                    let mut reqs = vec![p.irecv(1, 0, &c), p.irecv(2, 0, &c)];
                    let (idx, data) = p.waitany(&mut reqs);
                    assert_eq!(idx, 1, "the earlier virtual send completes first");
                    assert_eq!(data.unwrap().0, vec![2u8]);
                    let (idx2, data2) = p.waitany(&mut reqs);
                    assert_eq!(idx2, 0);
                    assert_eq!(data2.unwrap().0, vec![1u8]);
                }
                1 => {
                    p.do_work(VDur::from_millis(30));
                    p.send(&[1u8], 0, 0, &c);
                }
                _ => p.send(&[2u8], 0, 0, &c),
            }
        });
    }

    #[test]
    fn thread_and_event_backends_produce_identical_traces() {
        let body = |p: &mut Proc| {
            let c = p.comm_world();
            p.do_work(VDur::from_millis((p.rank() as u64 + 1) * 3));
            p.barrier(&c);
            if p.rank() == 0 {
                p.send(b"m", 1, 0, &c);
            } else if p.rank() == 1 {
                let _ = p.recv(0, 0, &c);
            }
            let _ = p.alltoall(&[p.rank() as u8; 4], &c);
        };
        let a = run(cfg(4), body);
        let b = run(cfg(4).backend(SimBackend::Thread), body);
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.locations, b.locations, "backends must agree bit-for-bit");
    }

    #[test]
    fn event_backend_hosts_many_ranks_cheaply() {
        // Far beyond what per-rank OS threads tolerate in a unit test.
        let (_, ranks) = run_collect(cfg(512), |p| {
            let c = p.comm_world();
            p.barrier(&c);
            p.rank()
        });
        assert_eq!(ranks.len(), 512);
        assert!(ranks.iter().enumerate().all(|(i, &r)| i == r));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        // The scheduler cancels the surviving ranks structurally and
        // re-raises the original panic payload.
        run(cfg(2), |p| {
            if p.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates_thread_backend() {
        // Same on the thread carrier: the surviving rank, blocked in
        // finalize, is unwound and the rank's own payload surfaces.
        run(cfg(2).backend(SimBackend::Thread), |p| {
            if p.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
