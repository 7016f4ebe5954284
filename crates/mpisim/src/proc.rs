//! The per-process handle: clocks, work, point-to-point and collective
//! operations, and communicator management.
//!
//! One [`Proc`] is handed to the user closure on each simulated rank's
//! task. Every MPI-like call (1) records an `Enter` event, (2) performs
//! the data movement through the shared-memory transport, (3) advances the
//! rank's virtual clock according to the [`ats_runtime::MachineModel`], and
//! (4) records the corresponding message/collective and `Exit` events.

use crate::collective;
use crate::comm::{Comm, CommShared, Contrib};
use crate::datatype::{Datatype, ReduceOp};
use crate::mailbox::{Envelope, Handshake, MatchSpec};
use crate::request::{ReqInner, Request, Status};
use crate::world::WorldShared;
use ats_runtime::{MachineModel, VDur, VTime, WorkEngine, WorkMode};
use ats_trace::{CollOp, LocalTrace, LocationId, RegionId, RegionKind, TraceCollector};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// Handle to one simulated MPI process. See the module docs.
pub struct Proc {
    rank: usize,
    nprocs: usize,
    clock: VTime,
    engine: WorkEngine,
    local: LocalTrace,
    collector: TraceCollector,
    world: Arc<WorldShared>,
    world_comm: Arc<CommShared>,
    r_work: RegionId,
    /// Pointer-keyed intern cache for the `&'static str` MPI region names:
    /// skips the shared table's lock + string hash on every call. Literals
    /// duplicated across codegen units at worst add a second entry — the
    /// table's ids stay consistent either way.
    interned: Vec<(usize, RegionId)>,
    seed: u64,
    thread_ids: Arc<AtomicU32>,
    omp_sync_ids: Arc<AtomicU32>,
}

impl Proc {
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        engine: WorkEngine,
        collector: TraceCollector,
        world: Arc<WorldShared>,
        world_comm: Arc<CommShared>,
        seed: u64,
    ) -> Self {
        let local = collector.local(LocationId::rank(rank as u32));
        let r_work = collector.intern("do_work", RegionKind::Work);
        Proc {
            rank,
            nprocs,
            clock: VTime::ZERO,
            engine,
            local,
            collector,
            world,
            world_comm,
            r_work,
            interned: Vec::new(),
            seed,
            thread_ids: Arc::new(AtomicU32::new(1)),
            // Per-rank OpenMP sync-id space, disjoint from MPI comm ids
            // (which stay far below 2^20) and from other ranks' spaces, so
            // team ids are deterministic regardless of rank scheduling.
            omp_sync_ids: Arc::new(AtomicU32::new((rank as u32 + 1) << 20)),
        }
    }

    // ----- identity and clock -------------------------------------------

    /// Global rank of this process.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of processes in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// A handle to `MPI_COMM_WORLD`.
    pub fn comm_world(&self) -> Comm {
        Comm::new(self.world_comm.clone(), self.rank)
    }

    /// Current virtual time on this rank.
    pub fn clock(&self) -> VTime {
        self.clock
    }

    /// Overwrite the virtual clock (used by the hybrid OpenMP glue, which
    /// forks a thread team at the rank's clock and joins it back).
    ///
    /// # Panics
    /// Panics if `t` would move the clock backwards.
    pub fn set_clock(&mut self, t: VTime) {
        assert!(t >= self.clock, "clock may not move backwards");
        self.clock = t;
    }

    /// Advance the clock without recording work (pure delay).
    pub fn advance(&mut self, d: VDur) {
        self.clock += d;
    }

    /// This rank's private RNG stream.
    pub fn rng(&mut self) -> &mut ats_runtime::SplitMix64 {
        self.engine.rng()
    }

    /// The shared trace collector (for interning regions and for the
    /// hybrid glue, which creates additional per-thread local traces).
    pub fn collector(&self) -> &TraceCollector {
        &self.collector
    }

    // ----- hybrid (MPI × OpenMP) integration surface ----------------------
    //
    // These accessors exist so `ats-core` can give a rank its OpenMP
    // initial thread (`ats_core::with_omp`) without coupling the two
    // substrate crates.

    /// The rank's event stream (hybrid glue only).
    pub fn local_mut(&mut self) -> &mut LocalTrace {
        &mut self.local
    }

    /// The run's cost model.
    pub fn model(&self) -> &MachineModel {
        &self.world.model
    }

    /// The run's work mode.
    pub fn work_mode(&self) -> WorkMode {
        self.engine.mode()
    }

    /// The run's RNG root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Synchronization-context id allocator for OpenMP teams forked from
    /// this rank. Each rank owns the disjoint range `(rank+1)·2^20 ..`, so
    /// team ids are deterministic and never collide with MPI communicator
    /// ids (allocated from 0 upward).
    pub fn sync_ids(&self) -> Arc<AtomicU32> {
        self.omp_sync_ids.clone()
    }

    /// Trace-location thread-id allocator for OpenMP teams forked from
    /// this rank.
    pub fn thread_ids(&self) -> Arc<AtomicU32> {
        self.thread_ids.clone()
    }

    // ----- instrumentation ----------------------------------------------

    /// Intern a static region name through the per-rank pointer cache
    /// (a handful of entries, so a linear scan beats hashing the string).
    fn intern_static(&mut self, name: &'static str, kind: RegionKind) -> RegionId {
        let key = name.as_ptr() as usize;
        if let Some(&(_, id)) = self.interned.iter().find(|(k, _)| *k == key) {
            return id;
        }
        let id = self.collector.intern(name, kind);
        self.interned.push((key, id));
        id
    }

    /// Open a named region at the current clock (property-function frames
    /// and user phases).
    pub fn enter_region(&mut self, name: &str, kind: RegionKind) {
        let id = self.collector.intern(name, kind);
        self.local.enter(self.clock, id);
    }

    /// Close a named region at the current clock.
    pub fn exit_region(&mut self, name: &str) {
        let id = self.collector.intern(name, RegionKind::User);
        self.local.exit(self.clock, id);
    }

    // ----- work -----------------------------------------------------------

    /// The ATS `do_work`: consume `amount` of CPU time, recorded as a
    /// `do_work` region.
    pub fn do_work(&mut self, amount: VDur) {
        if amount.is_zero() {
            return;
        }
        self.local.enter(self.clock, self.r_work);
        self.engine.do_work(amount);
        self.clock += amount;
        self.local.exit(self.clock, self.r_work);
    }

    // ----- point-to-point -------------------------------------------------

    /// Blocking standard-mode send (`MPI_Send`): eager below the model's
    /// threshold, rendezvous above it.
    pub fn send(&mut self, data: &[u8], dest: usize, tag: i32, comm: &Comm) {
        let rendezvous = !self.world.model.is_eager(data.len());
        self.send_impl("MPI_Send", data, dest, tag, comm, rendezvous);
    }

    /// Blocking synchronous-mode send (`MPI_Ssend`): always rendezvous —
    /// completion requires the matching receive. This is the mode that
    /// makes the *Late Receiver* property observable at any message size.
    pub fn ssend(&mut self, data: &[u8], dest: usize, tag: i32, comm: &Comm) {
        self.send_impl("MPI_Ssend", data, dest, tag, comm, true);
    }

    fn send_impl(
        &mut self,
        region: &'static str,
        data: &[u8],
        dest: usize,
        tag: i32,
        comm: &Comm,
        rendezvous: bool,
    ) {
        assert!(dest < comm.size(), "send destination out of range");
        let r = self.intern_static(region, RegionKind::MpiP2p);
        let post = self.clock;
        self.local.enter(post, r);
        // Events carry *global* ranks (what a measurement system records);
        // matching metadata (comm, tag) rides along.
        self.local.send(
            post,
            comm.global_rank(dest) as u32,
            comm.id(),
            tag,
            data.len() as u64,
        );
        let handshake = rendezvous.then(|| Arc::new(Handshake::default()));
        let env = Envelope {
            comm: comm.id(),
            src: comm.rank() as u32,
            tag,
            data: data.to_vec(),
            send_post: post,
            handshake: handshake.clone(),
        };
        self.world.mailbox(comm.global_rank(dest)).push(env);
        let model = &self.world.model;
        self.clock = match handshake {
            None => post + model.send_overhead,
            Some(h) => {
                let recv_post = h.await_receiver(post);
                post.max(recv_post) + model.p2p_wire(data.len())
            }
        };
        self.local.exit(self.clock, r);
    }

    /// Blocking receive (`MPI_Recv`) from a specific source and tag.
    pub fn recv(&mut self, src: usize, tag: i32, comm: &Comm) -> (Vec<u8>, Status) {
        self.recv_select(Some(src), Some(tag), comm)
    }

    /// Blocking receive with optional wildcards (`MPI_ANY_SOURCE` /
    /// `MPI_ANY_TAG` expressed as `None`).
    pub fn recv_select(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
        comm: &Comm,
    ) -> (Vec<u8>, Status) {
        let r = self.intern_static("MPI_Recv", RegionKind::MpiP2p);
        let post = self.clock;
        self.local.enter(post, r);
        let spec = MatchSpec {
            comm: comm.id(),
            src: src.map(|s| s as u32),
            tag,
        };
        let env = self
            .world
            .mailbox(comm.global_rank(comm.rank()))
            .take_match(spec, post);
        let (data, status, completion) = self.complete_recv(post, env, comm);
        self.clock = completion;
        self.local.exit(self.clock, r);
        (data, status)
    }

    /// Compute delivery time for a matched envelope and record the Recv
    /// event. Returns `(payload, status, completion_time)`.
    fn complete_recv(
        &mut self,
        post: VTime,
        env: Envelope,
        comm: &Comm,
    ) -> (Vec<u8>, Status, VTime) {
        let model = &self.world.model;
        let completion = match &env.handshake {
            None => {
                // Eager: message travels as soon as it was posted.
                (post + model.recv_overhead)
                    .max(env.send_post + model.send_overhead + model.p2p_wire(env.data.len()))
            }
            Some(h) => {
                // Rendezvous: transfer starts when both sides are ready.
                h.complete(post);
                post.max(env.send_post) + model.p2p_wire(env.data.len())
            }
        };
        let status = Status {
            source: env.src as usize,
            tag: env.tag,
            bytes: env.data.len(),
        };
        self.local.recv(
            completion,
            comm.global_rank(env.src as usize) as u32,
            env.comm,
            env.tag,
            env.data.len() as u64,
            post,
        );
        (env.data, status, completion)
    }

    /// Nonblocking standard-mode send (`MPI_Isend`).
    pub fn isend(&mut self, data: &[u8], dest: usize, tag: i32, comm: &Comm) -> Request {
        assert!(dest < comm.size(), "send destination out of range");
        let r = self.intern_static("MPI_Isend", RegionKind::MpiP2p);
        let post = self.clock;
        self.local.enter(post, r);
        self.local.send(
            post,
            comm.global_rank(dest) as u32,
            comm.id(),
            tag,
            data.len() as u64,
        );
        let rendezvous = !self.world.model.is_eager(data.len());
        let handshake = rendezvous.then(|| Arc::new(Handshake::default()));
        let env = Envelope {
            comm: comm.id(),
            src: comm.rank() as u32,
            tag,
            data: data.to_vec(),
            send_post: post,
            handshake: handshake.clone(),
        };
        self.world.mailbox(comm.global_rank(dest)).push(env);
        // Posting itself is cheap; the transfer cost is charged at wait.
        self.local.exit(self.clock, r);
        match handshake {
            None => Request(ReqInner::SendEager { post }),
            Some(h) => Request(ReqInner::SendRendezvous {
                post,
                bytes: data.len(),
                handshake: h,
            }),
        }
    }

    /// Nonblocking receive (`MPI_Irecv`). Matching happens at the wait, in
    /// wait order — sufficient for the suite's property functions, which
    /// keep at most one receive outstanding per peer.
    pub fn irecv(&mut self, src: usize, tag: i32, comm: &Comm) -> Request {
        let r = self.intern_static("MPI_Irecv", RegionKind::MpiP2p);
        let post = self.clock;
        self.local.enter(post, r);
        self.local.exit(post, r);
        Request(ReqInner::Recv {
            post,
            spec: MatchSpec {
                comm: comm.id(),
                src: Some(src as u32),
                tag: Some(tag),
            },
            comm: comm.clone(),
        })
    }

    /// Complete a nonblocking operation (`MPI_Wait`). For receives, returns
    /// the payload and status.
    pub fn wait(&mut self, req: &mut Request) -> Option<(Vec<u8>, Status)> {
        let r = self.intern_static("MPI_Wait", RegionKind::MpiP2p);
        let at = self.clock;
        self.local.enter(at, r);
        let result = match req.take() {
            ReqInner::Done => panic!("wait on an already-completed request"),
            ReqInner::SendEager { post } => {
                self.clock = at.max(post + self.world.model.send_overhead);
                None
            }
            ReqInner::SendRendezvous {
                post,
                bytes,
                handshake,
            } => {
                let recv_post = handshake.await_receiver(at);
                let done = post.max(recv_post) + self.world.model.p2p_wire(bytes);
                self.clock = at.max(done);
                None
            }
            ReqInner::Recv { post, spec, comm } => {
                let env = self
                    .world
                    .mailbox(comm.global_rank(comm.rank()))
                    .take_match(spec, at);
                let (data, status, completion) = self.complete_recv(post, env, &comm);
                self.clock = at.max(completion);
                Some((data, status))
            }
        };
        self.local.exit(self.clock, r);
        result
    }

    /// Complete exactly one request of a set (`MPI_Waitany`). Eager sends
    /// complete without blocking; otherwise the process blocks across all
    /// pending receive specs at once and completes whichever message comes
    /// first in *virtual* time — so the choice is deterministic and does
    /// not depend on request order or real-time arrival races. Returns the
    /// index completed and, for receives, the payload.
    pub fn waitany(&mut self, reqs: &mut [Request]) -> (usize, Option<(Vec<u8>, Status)>) {
        assert!(!reqs.is_empty(), "waitany on an empty request set");
        assert!(
            reqs.iter().any(|r| !r.is_done()),
            "waitany with all requests already completed"
        );
        // Eager sends are completable without blocking: finish the first.
        if let Some(i) = reqs
            .iter()
            .position(|r| matches!(r.0, ReqInner::SendEager { .. }))
        {
            return (i, self.wait(&mut reqs[i]));
        }
        // Block across *all* pending
        // receive specs at once (every Recv targets this process's single
        // mailbox); a message already queued is found by the initial scan
        // without blocking.
        let pending: Vec<(usize, MatchSpec)> = reqs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match &r.0 {
                ReqInner::Recv { spec, .. } => Some((i, *spec)),
                _ => None,
            })
            .collect();
        if pending.is_empty() {
            // Only rendezvous sends remain: complete the first live one.
            let i = reqs
                .iter()
                .position(|r| !r.is_done())
                .expect("checked above");
            return (i, self.wait(&mut reqs[i]));
        }
        let specs: Vec<MatchSpec> = pending.iter().map(|&(_, s)| s).collect();
        let at = self.clock;
        let (si, env) = self.world.mailbox(self.rank).take_match_any(&specs, at);
        let i = pending[si].0;
        let (post, comm) = match reqs[i].take() {
            ReqInner::Recv { post, comm, .. } => (post, comm),
            _ => unreachable!("pending holds receives"),
        };
        let r = self.intern_static("MPI_Wait", RegionKind::MpiP2p);
        self.local.enter(at, r);
        let (data, status, completion) = self.complete_recv(post, env, &comm);
        self.clock = at.max(completion);
        self.local.exit(self.clock, r);
        (i, Some((data, status)))
    }

    /// Complete a set of requests in order (`MPI_Waitall`).
    pub fn waitall(&mut self, reqs: &mut [Request]) -> Vec<Option<(Vec<u8>, Status)>> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    // ----- collectives ----------------------------------------------------

    /// Shared skeleton: record entry, rendezvous, price the operation,
    /// advance the clock, record completion. Returns a shared view of the
    /// gathered contributions for the data phase.
    fn coll_exchange(
        &mut self,
        op: CollOp,
        comm: &Comm,
        root: Option<usize>,
        data: Vec<u8>,
        counts: Option<Vec<usize>>,
        bytes_of: impl FnOnce(&[Contrib]) -> Vec<u64>,
    ) -> (u64, Arc<Vec<Contrib>>) {
        let r = self.intern_static(op.region_name(), RegionKind::MpiCollective);
        let entry = self.clock;
        self.local.enter(entry, r);
        let my_bytes = data.len() as u64;
        let (seq, all) = comm.shared.slot.exchange(
            comm.rank(),
            Contrib {
                entry,
                data,
                counts,
            },
            entry,
            "MPI collective",
        );
        if let Some(obs) = &self.world.obs {
            obs.mpi.collectives.inc();
            obs.mpi
                .collective_rounds
                .add(self.world.model.tree_stages(comm.size()) as u64);
        }
        // One LogGP stage walk per collective, not per member: the exit
        // vector is a pure function of the round, memoised on the communicator.
        let exits = comm.shared.exits.get(seq, || {
            let entries: Vec<VTime> = all.iter().map(|c| c.entry).collect();
            let bytes = bytes_of(&all);
            collective::exits(op, &entries, root, &bytes, &self.world.model)
        });
        let exit = exits[comm.rank()];
        self.clock = exit;
        self.local.coll_end(
            exit,
            op,
            comm.id(),
            root.map(|r| r as u32),
            seq,
            my_bytes,
            entry,
        );
        self.local.exit(exit, r);
        (seq, all)
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: &Comm) {
        let p = comm.size();
        self.coll_exchange(CollOp::Barrier, comm, None, Vec::new(), None, |_| {
            vec![0; p]
        });
    }

    /// `MPI_Bcast`: on the root, `buf` is the payload; on other ranks it is
    /// replaced by the root's data.
    pub fn bcast(&mut self, buf: &mut Vec<u8>, root: usize, comm: &Comm) {
        let data = if comm.rank() == root {
            std::mem::take(buf)
        } else {
            Vec::new()
        };
        let p = comm.size();
        let (_, all) =
            self.coll_exchange(CollOp::Bcast, comm, Some(root), data, None, move |all| {
                vec![all[root].data.len() as u64; p]
            });
        *buf = all[root].data.clone();
    }

    /// `MPI_Scatter` with equal chunks: the root's `send` buffer is split
    /// into `size` equal parts; every rank receives its part.
    pub fn scatter(&mut self, send: &[u8], root: usize, comm: &Comm) -> Vec<u8> {
        let p = comm.size();
        let data = if comm.rank() == root {
            assert_eq!(send.len() % p, 0, "scatter buffer not divisible by size");
            send.to_vec()
        } else {
            Vec::new()
        };
        let (_, all) =
            self.coll_exchange(CollOp::Scatter, comm, Some(root), data, None, move |all| {
                let chunk = (all[root].data.len() / p) as u64;
                vec![chunk; p]
            });
        let chunk = all[root].data.len() / p;
        all[root].data[comm.rank() * chunk..(comm.rank() + 1) * chunk].to_vec()
    }

    /// `MPI_Scatterv`: the root supplies per-rank byte counts.
    pub fn scatterv(&mut self, send: &[u8], counts: &[usize], root: usize, comm: &Comm) -> Vec<u8> {
        let p = comm.size();
        let (data, counts_opt) = if comm.rank() == root {
            assert_eq!(counts.len(), p, "one count per rank required");
            assert_eq!(
                counts.iter().sum::<usize>(),
                send.len(),
                "counts must cover buffer"
            );
            (send.to_vec(), Some(counts.to_vec()))
        } else {
            (Vec::new(), None)
        };
        let (_, all) = self.coll_exchange(
            CollOp::Scatterv,
            comm,
            Some(root),
            data,
            counts_opt,
            move |all| {
                let counts = all[root].counts.as_ref().expect("root supplies counts");
                counts.iter().map(|&c| c as u64).collect()
            },
        );
        let counts = all[root].counts.as_ref().expect("root supplies counts");
        let offset: usize = counts[..comm.rank()].iter().sum();
        all[root].data[offset..offset + counts[comm.rank()]].to_vec()
    }

    /// `MPI_Gather`: the root receives the concatenation of all
    /// contributions in rank order.
    pub fn gather(&mut self, mine: &[u8], root: usize, comm: &Comm) -> Option<Vec<u8>> {
        let (_, all) = self.coll_exchange(
            CollOp::Gather,
            comm,
            Some(root),
            mine.to_vec(),
            None,
            |all| all.iter().map(|c| c.data.len() as u64).collect(),
        );
        (comm.rank() == root).then(|| all.iter().flat_map(|c| c.data.iter().copied()).collect())
    }

    /// `MPI_Gatherv` — identical to [`Proc::gather`] here because each
    /// contribution already carries its own length; kept separate so traces
    /// name the irregular operation, as the paper's property list does.
    pub fn gatherv(&mut self, mine: &[u8], root: usize, comm: &Comm) -> Option<Vec<u8>> {
        let (_, all) = self.coll_exchange(
            CollOp::Gatherv,
            comm,
            Some(root),
            mine.to_vec(),
            None,
            |all| all.iter().map(|c| c.data.len() as u64).collect(),
        );
        (comm.rank() == root).then(|| all.iter().flat_map(|c| c.data.iter().copied()).collect())
    }

    /// `MPI_Reduce`: elementwise combination delivered to the root.
    pub fn reduce(
        &mut self,
        mine: &[u8],
        op: ReduceOp,
        dtype: Datatype,
        root: usize,
        comm: &Comm,
    ) -> Option<Vec<u8>> {
        let p = comm.size();
        let (seq, all) = self.coll_exchange(
            CollOp::Reduce,
            comm,
            Some(root),
            mine.to_vec(),
            None,
            move |all| vec![all.iter().map(|c| c.data.len() as u64).max().unwrap_or(0); p],
        );
        (comm.rank() == root).then(|| {
            comm.shared
                .combined
                .get(seq, || combine_all(&all, op, dtype))
                .to_vec()
        })
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &mut self,
        mine: &[u8],
        op: ReduceOp,
        dtype: Datatype,
        comm: &Comm,
    ) -> Vec<u8> {
        let p = comm.size();
        let (seq, all) = self.coll_exchange(
            CollOp::Allreduce,
            comm,
            None,
            mine.to_vec(),
            None,
            move |all| vec![all.iter().map(|c| c.data.len() as u64).max().unwrap_or(0); p],
        );
        // O(P) per member: the first one through combines, the rest share.
        comm.shared
            .combined
            .get(seq, || combine_all(&all, op, dtype))
            .to_vec()
    }

    /// `MPI_Alltoall` with equal chunks: each rank's buffer is split into
    /// `size` chunks; rank `i` receives chunk `i` of every sender,
    /// concatenated in sender order.
    pub fn alltoall(&mut self, send: &[u8], comm: &Comm) -> Vec<u8> {
        let p = comm.size();
        assert_eq!(send.len() % p, 0, "alltoall buffer not divisible by size");
        let (_, all) =
            self.coll_exchange(CollOp::Alltoall, comm, None, send.to_vec(), None, |all| {
                all.iter().map(|c| c.data.len() as u64).collect()
            });
        let me = comm.rank();
        let mut out = Vec::with_capacity(send.len());
        for c in all.iter() {
            let chunk = c.data.len() / p;
            out.extend_from_slice(&c.data[me * chunk..(me + 1) * chunk]);
        }
        out
    }

    /// `MPI_Scan`: inclusive prefix reduction over ranks `0..=me`.
    pub fn scan(&mut self, mine: &[u8], op: ReduceOp, dtype: Datatype, comm: &Comm) -> Vec<u8> {
        let p = comm.size();
        let (_, all) =
            self.coll_exchange(CollOp::Scan, comm, None, mine.to_vec(), None, move |all| {
                vec![all.iter().map(|c| c.data.len() as u64).max().unwrap_or(0); p]
            });
        combine_all(&all[..=comm.rank()], op, dtype)
    }

    /// `MPI_Sendrecv`: combined send and receive with deadlock-free
    /// internal ordering (the send is posted nonblocking first).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        send_data: &[u8],
        dest: usize,
        send_tag: i32,
        src: usize,
        recv_tag: i32,
        comm: &Comm,
    ) -> (Vec<u8>, Status) {
        let mut sreq = self.isend(send_data, dest, send_tag, comm);
        let (data, status) = self.recv(src, recv_tag, comm);
        self.wait(&mut sreq);
        (data, status)
    }

    // ----- communicator management ----------------------------------------

    /// `MPI_Comm_split`: group members by `color` (negative = do not join
    /// any new communicator, like `MPI_UNDEFINED`), ordered by `(key, old
    /// rank)`.
    pub fn comm_split(&mut self, color: i64, key: i64, comm: &Comm) -> Option<Comm> {
        let r = self
            .collector
            .intern("MPI_Comm_split", RegionKind::MpiSetup);
        let entry = self.clock;
        self.local.enter(entry, r);
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&color.to_le_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        let (seq, all) = comm.shared.slot.exchange(
            comm.rank(),
            Contrib {
                entry,
                data: payload,
                counts: None,
            },
            entry,
            "MPI_Comm_split",
        );
        // Split is synchronizing: price it like a barrier.
        let exits = comm.shared.exits.get(seq, || {
            let entries: Vec<VTime> = all.iter().map(|c| c.entry).collect();
            collective::exits(
                CollOp::Barrier,
                &entries,
                None,
                &vec![0; comm.size()],
                &self.world.model,
            )
        });
        let exit = exits[comm.rank()];
        self.clock = exit;
        self.local.exit(exit, r);

        let decoded: Vec<(i64, i64)> = all
            .iter()
            .map(|c| {
                let color = i64::from_le_bytes(c.data[0..8].try_into().unwrap());
                let key = i64::from_le_bytes(c.data[8..16].try_into().unwrap());
                (color, key)
            })
            .collect();
        if color < 0 {
            return None;
        }
        // Members of my color, ordered by (key, old local rank).
        let mut group: Vec<(i64, usize)> = decoded
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == color)
            .map(|(old, (_, k))| (*k, old))
            .collect();
        group.sort_unstable();
        let members: Vec<usize> = group
            .iter()
            .map(|&(_, old)| comm.global_rank(old))
            .collect();
        let my_new_rank = group
            .iter()
            .position(|&(_, old)| old == comm.rank())
            .expect("caller is in its own color group");
        let shared = self.world.comm_for_group(comm.id(), seq, color, &members);
        Some(Comm::new(shared, my_new_rank))
    }

    /// `MPI_Comm_dup`: a communicator with identical membership but a
    /// separate matching space.
    pub fn comm_dup(&mut self, comm: &Comm) -> Comm {
        self.comm_split(0, comm.rank() as i64, comm)
            .expect("dup color is non-negative")
    }

    // ----- lifecycle (called by the world runner) --------------------------

    pub(crate) fn sim_init(&mut self, cost: VDur) {
        let r = self.intern_static("MPI_Init", RegionKind::MpiSetup);
        self.local.enter(self.clock, r);
        self.clock += cost;
        self.local.exit(self.clock, r);
    }

    pub(crate) fn sim_finalize(&mut self, cost: VDur) {
        let r = self.intern_static("MPI_Finalize", RegionKind::MpiSetup);
        let entry = self.clock;
        self.local.enter(entry, r);
        // Finalize synchronizes all ranks, like a world barrier.
        let comm = self.comm_world();
        let (_, all) = comm.shared.slot.exchange(
            comm.rank(),
            Contrib {
                entry,
                data: Vec::new(),
                counts: None,
            },
            entry,
            "MPI_Finalize",
        );
        let latest = all.iter().map(|c| c.entry).max().unwrap_or(entry);
        self.clock = latest + cost;
        self.local.exit(self.clock, r);
    }

    pub(crate) fn into_local(self) -> (LocalTrace, TraceCollector) {
        (self.local, self.collector)
    }
}

fn combine_all(contribs: &[Contrib], op: ReduceOp, dtype: Datatype) -> Vec<u8> {
    let mut iter = contribs.iter();
    let first = iter.next().expect("at least one contribution").data.clone();
    iter.fold(first, |mut acc, c| {
        op.combine(dtype, &mut acc, &c.data);
        acc
    })
}
