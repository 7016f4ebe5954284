//! Nonblocking communication requests.

use crate::comm::Comm;
use crate::mailbox::{Handshake, MatchSpec};
use ats_runtime::VTime;
use std::sync::Arc;

/// Completion status of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Communicator-local rank of the message source.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// An in-flight nonblocking operation, completed by
/// [`crate::proc::Proc::wait`].
///
/// Requests own everything they need (buffers are returned on completion),
/// so any number can be outstanding; dropping a request without waiting on
/// it is a program error that MPI would also punish, and is reported by the
/// `Drop` guard in debug builds.
#[derive(Debug)]
pub struct Request(pub(crate) ReqInner);

#[derive(Debug)]
pub(crate) enum ReqInner {
    /// An eager `isend`: the message is already queued at the destination;
    /// completion only charges the local send overhead.
    SendEager { post: VTime },
    /// A rendezvous (large or synchronous) `isend`: completion blocks until
    /// the matching receive posts.
    SendRendezvous {
        post: VTime,
        bytes: usize,
        handshake: Arc<Handshake>,
    },
    /// An `irecv`: matching is deferred to the wait.
    Recv {
        post: VTime,
        spec: MatchSpec,
        comm: Comm,
    },
    /// Already waited on (or constructed empty).
    Done,
}

impl Request {
    /// True once the request has been completed by a wait.
    pub fn is_done(&self) -> bool {
        matches!(self.0, ReqInner::Done)
    }

    pub(crate) fn take(&mut self) -> ReqInner {
        std::mem::replace(&mut self.0, ReqInner::Done)
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        // Stay quiet while unwinding: a deadlock panic (or the event
        // scheduler cancelling sibling ranks after one panics) legitimately
        // drops live requests mid-operation, and a second panic here would
        // abort the process before the real diagnosis surfaces.
        debug_assert!(
            self.is_done() || std::thread::panicking(),
            "a Request was dropped without being waited on; \
             every isend/irecv must be completed (as in MPI)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_request_properties() {
        let r = Request(ReqInner::Done);
        assert!(r.is_done());
    }

    #[test]
    fn send_request_reports_post_time() {
        let mut r = Request(ReqInner::SendEager { post: VTime(42) });
        assert!(!r.is_done());
        let inner = r.take();
        assert!(matches!(inner, ReqInner::SendEager { post: VTime(42) }));
        assert!(r.is_done());
    }

    #[test]
    #[should_panic(expected = "dropped without being waited")]
    #[cfg(debug_assertions)]
    fn dropping_live_request_panics_in_debug() {
        let _r = Request(ReqInner::SendEager { post: VTime(1) });
    }
}
