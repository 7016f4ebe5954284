//! `ats-fuzz`: the seeded composite-scenario fuzzer for ATS-RS.
//!
//! The hand-written suite validates an analyzer against the catalog's
//! known property functions one at a time (plus a few fixed composites).
//! This crate generates *arbitrary* composites — random phase orders,
//! parameter values, communicator topologies, and well-tuned padding —
//! while keeping the suite's defining feature: every scenario knows its
//! own ground truth. Because the catalog records what each property
//! function must be reported as and where, and the zero machine model
//! makes programmed waits analytically exact, the expected analyzer
//! output of a *composition* of property functions is computable from the
//! scenario spec alone. That compositional oracle is what turns random
//! generation into a usable test: no human triage of fuzzer output.
//!
//! The pieces:
//!
//! * [`scenario`] — the scenario spec and its one wire form, a
//!   byte-stable single text line;
//! * [`generator`] — seeded scenario generation (same seed ⇒ the
//!   byte-identical scenario, at any worker count);
//! * [`oracle`] — execution on the simulator plus report scoring
//!   against each catalog record's closed-form wait (missed / spurious /
//!   wait-out-of-band violations);
//! * [`shrink`](mod@shrink) — greedy minimization of violating scenarios;
//! * [`corpus`] — persistence and replay of minimized witnesses;
//! * [`campaign`] — pool-parallel fuzzing runs with aggregate stats.

pub mod campaign;
pub mod corpus;
pub mod generator;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use campaign::{run_campaign, scenario_seed, CampaignResult, FuzzConfig, FuzzStats};
pub use generator::{generate, GenConfig};
pub use oracle::{check, OracleConfig, OracleRun, Violation, ViolationKind};
pub use scenario::{Phase, Scenario, Slot, Split};
pub use shrink::{shrink, ShrinkOutcome};
