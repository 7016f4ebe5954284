//! ASL — a compact APART Specification Language for performance
//! properties.
//!
//! The ATS paper builds on APART's first-phase result: "ASL, a
//! specification language for describing performance properties was
//! developed \[7\] ... The ASL report also includes a catalog of typical
//! performance properties for MPI, OpenMP and HPF programs. These typical
//! properties can form the basis for the ATS framework."
//!
//! This module implements an executable subset of that idea, and it is
//! the analyzer's only definition of each property: performance
//! properties are *declared* as small programs over the analyzer's
//! compound-event records. A property names a context (a matched message
//! pair, a collective member, a critical-section visit, an init/finalize
//! occupation), computes a waiting time, guards it with conditions, and
//! says where to locate the finding:
//!
//! ```text
//! PROPERTY LateSender OVER p2p_pair {
//!     LET blocked = clamp(send_post, recv_posted, recv_completion);
//!     WAIT blocked - recv_posted;
//!     CONDITION wait > 0;
//!     LOCATE receiver;
//! }
//! ```
//!
//! Each context supplies these variables, all times except `bytes` and
//! `is_root`; a CONDITION may also read `wait`:
//!
//! - `p2p_pair`: `send_post`, `send_enter`, `send_exit`, `recv_posted`,
//!   `recv_enter`, `recv_exit`, `recv_completion`, `bytes`, and
//!   `early_overlap`, how long messages the receiver matches later had
//!   already arrived while this receive blocked, summed;
//! - `collective` (one member): `entered`, `exit`, `max_entry`,
//!   `prefix_entry` (the latest entry among members up to this one, in
//!   location order), `max_nonroot_entry`, `bytes`, `root_entry`,
//!   `is_root`;
//! - `critical`: `arrive`, `acquired`, `released`;
//! - `setup`: `time`.
//!
//! [`parse`] compiles a set once: each variable becomes a slot, so an
//! unknown variable is a parse error naming the property. Times are exact
//! nanoseconds. A literal next to a time is seconds, rounded to the
//! nearest nanosecond when the set compiles (`wait > 0.01`); one next to
//! a plain number stays plain (`bytes >= 1024`). `*` and `/` scale a time
//! by a plain number; multiplying two times, dividing by a time, mixing
//! the kinds anywhere else, or a WAIT that is not a time is a parse
//! error. A finding needs a positive wait and every condition nonzero;
//! conditions run in order and stop at the first that fails. A record
//! that lacks a fact a declaration reads (a collective whose root is not
//! in the trace has no `root_entry`) yields no finding. An overflow or a
//! division by zero is an [`AslError`] naming the property.
//!
//! [`DEFAULT_PROPERTY_SET`] is what `analyze`, `analyze_stream`,
//! `analyze_phases` and `ats asl` evaluate: one declaration per
//! [`PropertyKind`](crate::PropertyKind) leaf, mapped to it by name.
//! `tests/severity_accuracy.rs` checks its waits against the closed-form
//! model, which shares no code with the analyzer. Tool developers load
//! their own sets with [`parse`] and run them with
//! [`PropertySet::evaluate`].

mod ast;
mod eval;
mod parse;

use std::sync::OnceLock;

pub use ast::{AslError, Context, Expr, Locate, Property, PropertySet};
pub use eval::AslFinding;
pub use parse::parse;

/// The default ASL property set: the ASL-catalog core, and the analyzer's
/// definitions. Two declarations may share a name over disjoint records,
/// as `WaitAtNxN` does.
pub const DEFAULT_PROPERTY_SET: &str = r#"
// MPI point-to-point ---------------------------------------------------

PROPERTY LateSender OVER p2p_pair {
    LET blocked = clamp(send_post, recv_posted, recv_completion);
    WAIT blocked - recv_posted;
    CONDITION wait > 0;
    LOCATE receiver;
}

PROPERTY LateReceiver OVER p2p_pair {
    LET blocked = clamp(recv_posted, send_post, send_exit);
    WAIT blocked - send_post;
    CONDITION wait > 0;
    LOCATE sender;
}

// The part of a blocked receive during which messages it matches later
// had already arrived, at most the whole block.
PROPERTY MessagesWrongOrder OVER p2p_pair {
    WAIT min(early_overlap, recv_completion - recv_posted);
    CONDITION wait > 0;
    LOCATE receiver;
}

// MPI collectives ------------------------------------------------------

PROPERTY WaitAtBarrier OVER collective(Barrier) {
    WAIT max_entry - entered;
    CONDITION wait > 0;
    LOCATE member;
}

PROPERTY WaitAtNxN OVER collective(Alltoall, Alltoallv, Allreduce, Allgather) {
    WAIT max_entry - entered;
    CONDITION wait > 0;
    LOCATE member;
}

// A scan member waits only for the members up to it, in location order.
PROPERTY WaitAtNxN OVER collective(Scan) {
    WAIT prefix_entry - entered;
    CONDITION wait > 0;
    LOCATE member;
}

PROPERTY LateBroadcast OVER collective(Bcast) {
    WAIT root_entry - entered;
    CONDITION wait > 0;
    CONDITION is_root == 0;
    LOCATE member;
}

PROPERTY LateScatter OVER collective(Scatter, Scatterv) {
    WAIT root_entry - entered;
    CONDITION wait > 0;
    CONDITION is_root == 0;
    LOCATE member;
}

PROPERTY EarlyReduce OVER collective(Reduce) {
    WAIT max_nonroot_entry - entered;
    CONDITION is_root == 1;
    CONDITION wait > 0;
    LOCATE member;
}

PROPERTY EarlyGather OVER collective(Gather, Gatherv) {
    WAIT max_nonroot_entry - entered;
    CONDITION is_root == 1;
    CONDITION wait > 0;
    LOCATE member;
}

// OpenMP ----------------------------------------------------------------

PROPERTY OmpWaitAtBarrier OVER collective(OmpBarrier) {
    WAIT max_entry - entered;
    CONDITION wait > 0;
    LOCATE member;
}

PROPERTY OmpImbalanceInRegion OVER collective(OmpJoin) {
    WAIT exit - entered;
    CONDITION wait > 0;
    LOCATE member;
}

PROPERTY OmpCriticalContention OVER critical {
    WAIT acquired - arrive;
    CONDITION wait > 0;
    LOCATE self;
}

// Environment -----------------------------------------------------------

PROPERTY MpiSetupOverhead OVER setup {
    WAIT time;
    CONDITION wait > 0;
    LOCATE self;
}
"#;

/// [`DEFAULT_PROPERTY_SET`], compiled once per process.
pub fn default_property_set() -> &'static PropertySet {
    static SET: OnceLock<PropertySet> = OnceLock::new();
    SET.get_or_init(|| parse(DEFAULT_PROPERTY_SET).expect("the default set compiles"))
}
