//! MPI communication patterns (paper §3.1.4).
//!
//! Reusable building blocks called by all processes of a communicator,
//! "much like a collective operation", designed to work with as little
//! context as possible: any process count, any concurrent traffic.
//!
//! * [`sendrecv`] — the paper's `mpi_commpattern_sendrecv`: even/odd
//!   pairwise exchange, the skeleton of *Late Sender* / *Late Receiver*;
//! * [`shift`] — the paper's `mpi_commpattern_shift`: a cyclic ring shift
//!   where every process both sends and receives.

use crate::buffer::MpiBuf;
use ats_mpi::{Comm, Proc};

/// Transfer direction, the paper's `DIR_UP` / `DIR_DOWN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `sendrecv`: even ranks send to the next higher (odd) rank.
    /// `shift`: rank `i` sends to `(i + 1) mod size`.
    Up,
    /// `sendrecv`: odd ranks send to the next lower (even) rank.
    /// `shift`: rank `i` sends to `(i - 1) mod size`.
    Down,
}

/// Message mode flags, the paper's `use_isend` / `use_irecv` parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatternMode {
    /// Use nonblocking sends completed by `MPI_Wait`.
    pub use_isend: bool,
    /// Use nonblocking receives completed by `MPI_Wait`.
    pub use_irecv: bool,
    /// Use synchronous-mode (rendezvous) sends; required to make the
    /// *Late Receiver* property observable with eager-sized buffers.
    pub use_ssend: bool,
}

const PATTERN_TAG: i32 = 4711;

/// Even/odd pairwise exchange. With [`Dir::Up`], even ranks send to their
/// odd neighbour `rank + 1`; with [`Dir::Down`], odd ranks send to `rank -
/// 1`. With an odd number of processes the last process sits out, exactly
/// as in the paper. `dir` and `mode` must be equal on all callers.
pub fn sendrecv(p: &mut Proc, buf: &MpiBuf, dir: Dir, mode: PatternMode, comm: &Comm) {
    let me = comm.rank();
    let sz = comm.size();
    let pairs = sz / 2 * 2;
    if me >= pairs {
        return; // odd process count: the last rank does not participate
    }
    let even = me.is_multiple_of(2);
    let peer = if even { me + 1 } else { me - 1 };
    let i_send = match dir {
        Dir::Up => even,
        Dir::Down => !even,
    };
    if i_send {
        match (mode.use_isend, mode.use_ssend) {
            (true, _) => {
                let mut req = p.isend(buf.bytes(), peer, PATTERN_TAG, comm);
                p.wait(&mut req);
            }
            (false, true) => p.ssend(buf.bytes(), peer, PATTERN_TAG, comm),
            (false, false) => p.send(buf.bytes(), peer, PATTERN_TAG, comm),
        }
    } else if mode.use_irecv {
        let mut req = p.irecv(peer, PATTERN_TAG, comm);
        p.wait(&mut req);
    } else {
        let _ = p.recv(peer, PATTERN_TAG, comm);
    }
}

/// Cyclic shift: every process sends `sbuf` to its neighbour in `dir` and
/// receives into `rbuf` from the opposite neighbour. Internally the send is
/// always posted nonblocking before the receive so the ring cannot deadlock
/// at any message size, matching the paper's "should work regardless of the
/// number of processors" requirement.
pub fn shift(
    p: &mut Proc,
    sbuf: &MpiBuf,
    rbuf: &mut MpiBuf,
    dir: Dir,
    mode: PatternMode,
    comm: &Comm,
) {
    let me = comm.rank();
    let sz = comm.size();
    if sz == 1 {
        rbuf.fill_from(sbuf.bytes());
        return;
    }
    let (to, from) = match dir {
        Dir::Up => ((me + 1) % sz, (me + sz - 1) % sz),
        Dir::Down => ((me + sz - 1) % sz, (me + 1) % sz),
    };
    let mut sreq = p.isend(sbuf.bytes(), to, PATTERN_TAG, comm);
    let data = if mode.use_irecv {
        let mut rreq = p.irecv(from, PATTERN_TAG, comm);
        let (data, _) = p.wait(&mut rreq).expect("recv request yields data");
        data
    } else {
        let (data, _) = p.recv(from, PATTERN_TAG, comm);
        data
    };
    p.wait(&mut sreq);
    rbuf.fill_from(&data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::alloc_mpi_buf;
    use ats_mpi::{run, Datatype, SimConfig};
    use ats_runtime::{MachineModel, VDur, VTime};

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
    fn sendrecv_up_pairs_even_to_odd() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let mut buf = alloc_mpi_buf(Datatype::Byte, 8);
            buf.fill_from(&[p.rank() as u8; 8]);
            sendrecv(p, &buf, Dir::Up, PatternMode::default(), &c);
            // The pattern itself checks nothing about payloads (receive
            // data is pattern-internal); what matters is that it completes
            // for every mode — payload flow is covered by the substrate
            // tests. Just ensure clocks advanced consistently.
            assert_eq!(p.clock(), VTime::ZERO);
        });
    }

    #[test]
    fn sendrecv_all_modes_complete() {
        for mode in [
            PatternMode::default(),
            PatternMode {
                use_isend: true,
                ..Default::default()
            },
            PatternMode {
                use_irecv: true,
                ..Default::default()
            },
            PatternMode {
                use_isend: true,
                use_irecv: true,
                use_ssend: false,
            },
            PatternMode {
                use_ssend: true,
                ..Default::default()
            },
        ] {
            run(cfg(4), move |p| {
                let c = p.comm_world();
                let buf = alloc_mpi_buf(Datatype::Float64, 16);
                sendrecv(p, &buf, Dir::Up, mode, &c);
                sendrecv(p, &buf, Dir::Down, mode, &c);
            });
        }
    }

    #[test]
    fn sendrecv_odd_process_count_last_rank_sits_out() {
        run(cfg(5), |p| {
            let c = p.comm_world();
            let buf = alloc_mpi_buf(Datatype::Byte, 4);
            sendrecv(p, &buf, Dir::Up, PatternMode::default(), &c);
            if p.rank() == 4 {
                assert_eq!(p.clock(), VTime::ZERO, "last rank idles");
            }
        });
    }

    #[test]
    fn sendrecv_down_reverses_direction_wait_side() {
        run(cfg(2), |p| {
            let c = p.comm_world();
            let buf = alloc_mpi_buf(Datatype::Byte, 4);
            // Rank 1 (odd) sends late; rank 0 (even) receives and waits.
            if p.rank() == 1 {
                p.do_work(VDur::from_millis(20));
            }
            sendrecv(p, &buf, Dir::Down, PatternMode::default(), &c);
            if p.rank() == 0 {
                assert_eq!(p.clock(), VTime::from_secs(0.020), "late-sender wait");
            }
        });
    }

    #[test]
    fn shift_moves_data_around_the_ring() {
        run(cfg(4), |p| {
            let c = p.comm_world();
            let mut sbuf = alloc_mpi_buf(Datatype::Byte, 4);
            sbuf.fill_from(&[p.rank() as u8; 4]);
            let mut rbuf = alloc_mpi_buf(Datatype::Byte, 4);
            shift(p, &sbuf, &mut rbuf, Dir::Up, PatternMode::default(), &c);
            let expect = ((p.rank() + 3) % 4) as u8;
            assert_eq!(rbuf.bytes(), &[expect; 4], "receive from lower neighbour");
            shift(p, &sbuf, &mut rbuf, Dir::Down, PatternMode::default(), &c);
            let expect = ((p.rank() + 1) % 4) as u8;
            assert_eq!(rbuf.bytes(), &[expect; 4], "receive from upper neighbour");
        });
    }

    #[test]
    fn shift_single_process_is_a_self_copy() {
        run(cfg(1), |p| {
            let c = p.comm_world();
            let mut sbuf = alloc_mpi_buf(Datatype::Byte, 2);
            sbuf.fill_from(&[7, 8]);
            let mut rbuf = alloc_mpi_buf(Datatype::Byte, 2);
            shift(p, &sbuf, &mut rbuf, Dir::Up, PatternMode::default(), &c);
            assert_eq!(rbuf.bytes(), &[7, 8]);
        });
    }

    #[test]
    fn shift_does_not_deadlock_with_rendezvous_sizes() {
        let mut config = cfg(4);
        config.model.eager_threshold = 8; // force rendezvous
        run(config, |p| {
            let c = p.comm_world();
            let sbuf = alloc_mpi_buf(Datatype::Byte, 64);
            let mut rbuf = alloc_mpi_buf(Datatype::Byte, 64);
            shift(p, &sbuf, &mut rbuf, Dir::Up, PatternMode::default(), &c);
        });
    }

    #[test]
    fn shift_with_irecv_mode() {
        run(cfg(3), |p| {
            let c = p.comm_world();
            let mut sbuf = alloc_mpi_buf(Datatype::Byte, 1);
            sbuf.fill_from(&[p.rank() as u8]);
            let mut rbuf = alloc_mpi_buf(Datatype::Byte, 1);
            let mode = PatternMode {
                use_irecv: true,
                ..Default::default()
            };
            shift(p, &sbuf, &mut rbuf, Dir::Up, mode, &c);
            assert_eq!(rbuf.bytes()[0], ((p.rank() + 2) % 3) as u8);
        });
    }
}
