//! Point-to-point message transport: per-rank mailboxes with MPI matching
//! semantics.
//!
//! Every rank owns one [`Mailbox`]. A send (from any rank) pushes an
//! [`Envelope`]; a receive takes the queued envelope matching
//! `(communicator, source, tag)` — wildcards allowed — with the earliest
//! virtual send post, and blocks on a [`WaitSet`] until one appears,
//! re-entering the scheduler's virtual-time queue. Each sender pushes its
//! envelopes in program order with non-decreasing post times, and ties
//! fall back to arrival order, so this keeps MPI's non-overtaking
//! guarantee per (source, communicator, tag).

use ats_runtime::sched::WaitSet;
use ats_runtime::unpoison;
use ats_runtime::VTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Rendezvous handshake cell: the receiver deposits its post time, waking
/// the blocked (synchronous-mode) sender.
#[derive(Debug, Default)]
pub struct Handshake {
    slot: Mutex<Option<VTime>>,
    ws: WaitSet,
}

impl Handshake {
    /// Receiver side: publish the receive post time. The blocked sender
    /// resumes no earlier than `recv_post`.
    pub fn complete(&self, recv_post: VTime) {
        *unpoison(self.slot.lock()) = Some(recv_post);
        self.ws.notify_all(recv_post);
    }

    /// Sender side: block until the receiver posts, returning its post time.
    /// `now` is the sender's virtual clock at the blocking point.
    pub fn await_receiver(&self, now: VTime) -> VTime {
        let mut slot = unpoison(self.slot.lock());
        while slot.is_none() {
            slot = self.ws.wait(&self.slot, slot, now, "rendezvous send");
        }
        slot.unwrap()
    }
}

/// A message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Communicator id the message was sent on.
    pub comm: u32,
    /// Communicator-local rank of the sender.
    pub src: u32,
    /// Message tag.
    pub tag: i32,
    /// Payload.
    pub data: Vec<u8>,
    /// Sender's virtual clock when the send was posted.
    pub send_post: VTime,
    /// Present for synchronous/rendezvous sends; the receiver must call
    /// [`Handshake::complete`] when it matches this envelope.
    pub handshake: Option<Arc<Handshake>>,
}

/// Matching selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSpec {
    /// Communicator to match (exact).
    pub comm: u32,
    /// Source rank (communicator-local), or `None` for `MPI_ANY_SOURCE`.
    pub src: Option<u32>,
    /// Tag, or `None` for `MPI_ANY_TAG`.
    pub tag: Option<i32>,
}

impl MatchSpec {
    fn matches(&self, env: &Envelope) -> bool {
        env.comm == self.comm
            && self.src.is_none_or(|s| s == env.src)
            && self.tag.is_none_or(|t| t == env.tag)
    }
}

/// One rank's incoming-message queue.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    ws: WaitSet,
    obs: Option<ats_obs::Handle>,
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty mailbox that records message counts and the
    /// high-water queue depth into `obs`.
    pub fn with_obs(obs: Option<ats_obs::Handle>) -> Self {
        Mailbox {
            obs,
            ..Self::default()
        }
    }

    /// Deliver an envelope (called from the sender's thread or task). A
    /// blocked receiver resumes no earlier than the send's post time.
    pub fn push(&self, env: Envelope) {
        let at = env.send_post;
        let mut q = unpoison(self.queue.lock());
        q.push_back(env);
        if let Some(obs) = &self.obs {
            obs.mpi.messages.inc();
            obs.mpi.mailbox_depth_max.set_max(q.len() as u64);
        }
        drop(q);
        self.ws.notify_all(at);
    }

    /// Number of queued messages (diagnostics only).
    pub fn len(&self) -> usize {
        unpoison(self.queue.lock()).len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        unpoison(self.queue.lock()).is_empty()
    }

    /// Remove and return the envelope matching `spec` with the earliest
    /// virtual send post (see [`Mailbox::take_match_any`]), blocking until
    /// one arrives. `now` is the receiver's virtual clock at the blocking
    /// point.
    pub fn take_match(&self, spec: MatchSpec, now: VTime) -> Envelope {
        self.take_match_any(std::slice::from_ref(&spec), now).1
    }

    /// Remove and return the queued envelope with the earliest virtual send
    /// post that matches *any* of `specs`, blocking until one arrives.
    /// Returns the index of the spec it satisfied alongside the envelope —
    /// the matcher behind `waitany` as well as single-spec receives.
    ///
    /// The scheduler resumes a blocked receiver no earlier than the waking
    /// send's post time and pops tasks in virtual-time order, so every
    /// envelope with an earlier virtual post is already queued when this
    /// scans: wildcard matching follows virtual-time arrival order.
    pub fn take_match_any(&self, specs: &[MatchSpec], now: VTime) -> (usize, Envelope) {
        assert!(!specs.is_empty(), "take_match_any needs at least one spec");
        let mut q = unpoison(self.queue.lock());
        loop {
            // Among queued matches, prefer the earliest *virtual* send
            // (ties: lowest source, then arrival order, then spec order).
            // For exact-source receives this coincides with FIFO
            // (non-overtaking).
            let best = q
                .iter()
                .enumerate()
                .filter_map(|(i, e)| specs.iter().position(|s| s.matches(e)).map(|si| (i, si, e)))
                .min_by_key(|(i, si, e)| (e.send_post, e.src, *i, *si))
                .map(|(i, si, _)| (i, si));
            if let Some((pos, si)) = best {
                return (si, q.remove(pos).expect("position came from iteration"));
            }
            q = self.ws.wait(&self.queue, q, now, "MPI receive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_runtime::sched;
    use ats_testutil::{panics_alike_on_both_carriers, run_as_tasks, CARRIERS};

    fn env(comm: u32, src: u32, tag: i32) -> Envelope {
        Envelope {
            comm,
            src,
            tag,
            data: vec![src as u8],
            send_post: VTime(src as u64),
            handshake: None,
        }
    }

    #[test]
    fn exact_match_fifo_per_source() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5));
        mb.push(env(0, 1, 5));
        let spec = MatchSpec {
            comm: 0,
            src: Some(1),
            tag: Some(5),
        };
        let first = mb.take_match(spec, VTime::ZERO);
        assert_eq!(first.send_post, VTime(1));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn tag_mismatch_skipped() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5));
        mb.push(env(0, 1, 9));
        let got = mb.take_match(
            MatchSpec {
                comm: 0,
                src: Some(1),
                tag: Some(9),
            },
            VTime::ZERO,
        );
        assert_eq!(got.tag, 9);
        assert_eq!(mb.len(), 1, "the tag-5 message stays queued");
    }

    #[test]
    fn communicator_isolation() {
        let mb = Mailbox::new();
        mb.push(env(7, 0, 1));
        mb.push(env(8, 0, 1));
        let spec = |comm| MatchSpec {
            comm,
            src: Some(0),
            tag: Some(1),
        };
        // The comm-7 message is older, but a comm-8 receive must skip it.
        assert_eq!(mb.take_match(spec(8), VTime::ZERO).comm, 8);
        assert_eq!(mb.take_match(spec(7), VTime::ZERO).comm, 7);
        assert!(mb.is_empty());
    }

    #[test]
    fn wildcards_match_anything() {
        let mb = Mailbox::new();
        mb.push(env(0, 3, 42));
        let got = mb.take_match(
            MatchSpec {
                comm: 0,
                src: None,
                tag: None,
            },
            VTime::ZERO,
        );
        assert_eq!((got.src, got.tag), (3, 42));
    }

    #[test]
    fn blocking_receive_wakes_on_push() {
        // The receiver blocks at t=0, the sender delivers at t=50ns, and
        // the scheduler guarantees the wake-up ordering.
        for backend in CARRIERS {
            let mb = Mailbox::new();
            let got = run_as_tasks(backend, 2, |i| {
                let spec = MatchSpec {
                    comm: 0,
                    src: Some(0),
                    tag: Some(0),
                };
                if i == 0 {
                    let e = mb.take_match(spec, VTime::ZERO);
                    return Some((e.src, e.send_post));
                }
                sched::yield_at(VTime(50));
                mb.push(Envelope {
                    data: vec![9],
                    send_post: VTime(50),
                    ..env(0, 0, 0)
                });
                None
            });
            assert_eq!(got[0], Some((0, VTime(50))));
        }
    }

    #[test]
    fn take_match_any_prefers_earliest_virtual_send() {
        let mb = Mailbox::new();
        mb.push(env(0, 3, 7));
        mb.push(env(0, 1, 7));
        let specs = [
            MatchSpec {
                comm: 0,
                src: Some(3),
                tag: None,
            },
            MatchSpec {
                comm: 0,
                src: Some(1),
                tag: None,
            },
        ];
        let (idx, got) = mb.take_match_any(&specs, VTime::ZERO);
        assert_eq!(
            (idx, got.src),
            (1, 1),
            "earliest virtual send wins, whichever spec it satisfies"
        );
        assert_eq!(mb.len(), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock in the simulated program?): task 0 in MPI receive")]
    fn timeout_panics() {
        // A receive nobody sends to is reported at once, with its site.
        panics_alike_on_both_carriers(|| {
            Mailbox::new().take_match(
                MatchSpec {
                    comm: 0,
                    src: Some(0),
                    tag: Some(0),
                },
                VTime::ZERO,
            );
        });
    }

    #[test]
    fn handshake_passes_post_time() {
        for backend in CARRIERS {
            let h = Handshake::default();
            let seen = run_as_tasks(backend, 2, |i| {
                if i == 0 {
                    return Some(h.await_receiver(VTime::ZERO));
                }
                sched::yield_at(VTime(123));
                h.complete(VTime(123));
                None
            });
            assert_eq!(seen[0], Some(VTime(123)));
        }
    }

    #[test]
    #[should_panic(expected = "deadlock in the simulated program?): task 0 in rendezvous send")]
    fn handshake_timeout_panics() {
        // A synchronous send nobody receives is reported at once.
        panics_alike_on_both_carriers(|| {
            Handshake::default().await_receiver(VTime::ZERO);
        });
    }
}
