//! The property catalog: one record per property function in the suite.
//!
//! A record holds what the paper's single-property test-program generator
//! extracts from the C function signatures with PDT — the name and the
//! typed parameters — plus what a correct tool must report and where, the
//! program body that runs the function, and the closed-form wait that body
//! programs. `ats-harness` runs and generates test programs, drives
//! parameter sweeps and scores analyzer output from these records, and
//! the fuzz oracle composes their waits.

use crate::buffer::BaseComm;
use crate::model::{imbalance_sum, prefix_imbalance_sum, progressive_series};
use crate::params::ParamValues;
use crate::properties::{hybrid, mpi_coll, mpi_p2p, negative, omp, sequential};
use ats_mpi::{Comm, Proc};
use ats_omp::OmpThread;

/// Which programming paradigm a property function exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// MPI point-to-point.
    MpiP2p,
    /// MPI collective.
    MpiCollective,
    /// OpenMP.
    Omp,
    /// Combined MPI × OpenMP.
    Hybrid,
    /// Single-process / serialization.
    Sequential,
    /// Well-tuned negative case.
    Negative,
}

/// Type of one property-function parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Work amount in seconds.
    Seconds,
    /// Non-negative integer (repetitions, root rank, thread count, ...).
    Count,
    /// A distribution spec (see [`crate::Distr`]'s `FromStr`).
    Distribution,
}

/// One parameter of a property function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name as it appears on generated command lines.
    pub name: &'static str,
    /// Parameter type.
    pub kind: ParamKind,
    /// Default value (in the command-line syntax).
    pub default: &'static str,
    /// Inclusive lower bound of the legal range (command-line syntax);
    /// `""` means unbounded below. A distribution's bounds hold for each
    /// seconds value it names.
    pub min: &'static str,
    /// Inclusive upper bound of the legal range; `""` means unbounded
    /// above (e.g. a root rank, bounded only by the communicator size).
    pub max: &'static str,
    /// Human-readable meaning.
    pub help: &'static str,
}

impl ParamSpec {
    /// The declared `[min, max]` range as floats, substituting `0` /
    /// `+inf` for missing bounds.
    pub fn range_f64(&self) -> (f64, f64) {
        let lo = self.min.parse::<f64>().unwrap_or(0.0);
        let hi = self.max.parse::<f64>().unwrap_or(f64::INFINITY);
        (lo, hi)
    }

    /// True if either bound is declared.
    fn has_range(&self) -> bool {
        !self.min.is_empty() || !self.max.is_empty()
    }

    /// Render the declared range as `[min, max]` (with `..` for a
    /// missing bound), or `None` when no bound is declared.
    pub fn range_display(&self) -> Option<String> {
        if !self.has_range() {
            return None;
        }
        let lo = if self.min.is_empty() { ".." } else { self.min };
        let hi = if self.max.is_empty() { ".." } else { self.max };
        Some(format!("[{lo}, {hi}]"))
    }
}

/// How a catalog entry's program body runs.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// An MPI body: every rank of the communicator calls it with the same
    /// parameters and message shape.
    Mpi(fn(&ParamValues, &BaseComm, &mut Proc, &Comm)),
    /// An OpenMP body: one initial thread calls it and forks the entry's
    /// teams.
    Omp(fn(&ParamValues, &mut OmpThread<'_>)),
}

/// One property function: its signature, its expected finding, its
/// program body and the wait that body programs.
#[derive(Debug, Clone, Copy)]
pub struct PropertySpec {
    /// Function name (also the trace region the function frames).
    pub name: &'static str,
    /// Paradigm.
    pub paradigm: Paradigm,
    /// Parameters, in call order.
    pub params: &'static [ParamSpec],
    /// What the function produces.
    pub description: &'static str,
    /// The analyzer property a correct tool must report for this function
    /// (`None` for negative cases, which must yield no finding).
    pub expected_property: Option<&'static str>,
    /// The MPI/OpenMP call region at which the property must be localized.
    pub localized_at: &'static str,
    /// Whether the function appears in the paper's prototype list
    /// (§3.1.5) or is an ATS-RS extension from the ASL catalog.
    pub in_paper_prototype: bool,
    /// The program body.
    pub runner: Runner,
    /// Total wait in seconds the body programs with these parameters on a
    /// communicator of this many ranks, under the zero machine model; zero
    /// for a negative entry. An OpenMP body run as one team per member
    /// rank waits once per member.
    pub wait: fn(&ParamValues, usize) -> f64,
}

/// The parameters that set how much an entry programs: a positive
/// entry's severity, a negative entry's balanced `work`. An entry has at
/// most one of them.
const KNOBS: &[&str] = &[
    "extrawork",
    "baseextrawork",
    "singlework",
    "masterwork",
    "bodywork",
    "delay",
    "growth",
    "extrastep",
    "work",
];

impl PropertySpec {
    /// The entry's knob: the one parameter that sets how much
    /// inefficiency it programs (`work` for a negative entry). `None`
    /// when a distribution is the entry's only knob.
    pub fn knob(&self) -> Option<&'static ParamSpec> {
        self.params.iter().find(|p| KNOBS.contains(&p.name))
    }
}

/// A seconds parameter with the range `[0, 1]`.
const fn seconds(name: &'static str, default: &'static str, help: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        kind: ParamKind::Seconds,
        default,
        min: "0",
        max: "1",
        help,
    }
}

const P_REPS: ParamSpec = ParamSpec {
    name: "r",
    kind: ParamKind::Count,
    default: "3",
    min: "1",
    max: "64",
    help: "repetitions of the property body",
};
const P_ROOT: ParamSpec = ParamSpec {
    name: "root",
    kind: ParamKind::Count,
    default: "0",
    min: "0",
    max: "",
    help: "root rank (communicator-local)",
};
const P_BASEWORK: ParamSpec = seconds("basework", "0.01", "work performed by every rank");
const P_EXTRAWORK: ParamSpec = seconds(
    "extrawork",
    "0.04",
    "additional work for the late side (the severity knob)",
);
const P_ROOTWORK: ParamSpec = seconds("rootwork", "0.005", "work performed by the root");
const P_BASEEXTRA: ParamSpec = seconds(
    "baseextrawork",
    "0.04",
    "additional work for the non-root ranks (the severity knob)",
);
const P_DISTR: ParamSpec = ParamSpec {
    name: "df",
    kind: ParamKind::Distribution,
    default: "block2:low=0.01,high=0.05",
    min: "0",
    max: "1",
    help: "work distribution over the group",
};
const P_NTHREADS: ParamSpec = ParamSpec {
    name: "nthreads",
    kind: ParamKind::Count,
    default: "4",
    min: "1",
    max: "16",
    help: "OpenMP team size",
};
const P_OUTSIDEWORK: ParamSpec = seconds("outsidework", "0.0", "parallel work between visits");
const P_WORK: ParamSpec = seconds("work", "0.01", "balanced per-participant work");

/// A closed-form wait (see [`PropertySpec::wait`]).
type Wait = fn(&ParamValues, usize) -> f64;

/// One partner of each pair waits `extrawork` per repetition.
const PAIRS_WAIT: Wait = |v, n| (n / 2) as f64 * v.seconds("extrawork") * v.count("r") as f64;
/// Every member but the late one waits `extrawork` per repetition.
const NONROOTS_WAIT: Wait = |v, n| (n as f64 - 1.0) * v.seconds("extrawork") * v.count("r") as f64;
/// The early root alone waits `baseextrawork` per repetition.
const ROOT_WAIT: Wait = |v, _| v.seconds("baseextrawork") * v.count("r") as f64;
/// Each repetition collects every member's gap to the slowest.
const BARRIER_WAIT: Wait = |v, n| v.count("r") as f64 * imbalance_sum(&v.distr("df"), n);
/// Each member rank's team collects every thread's gap to the slowest.
const TEAM_WAIT: Wait =
    |v, n| n as f64 * v.count("r") as f64 * imbalance_sum(&v.distr("df"), v.count("nthreads"));
/// Contenders are granted in arrival order: with `outsidework` 0, round
/// 1 costs `b·t(t−1)/2` and each later round `b·t(t−1)`. The fuzz
/// generator pins `outsidework` to 0.
const CONTENTION_WAIT: Wait = |v, n| {
    let t = v.count("nthreads") as f64;
    n as f64 * v.seconds("bodywork") * t * (t - 1.0) * (v.count("r") as f64 - 0.5)
};

/// The full catalog.
pub const CATALOG: &[PropertySpec] = &[
    // ---- MPI point-to-point (paper prototype) --------------------------
    PropertySpec {
        name: "late_sender",
        paradigm: Paradigm::MpiP2p,
        params: &[P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "receiver blocks in MPI_Recv because the send is posted late",
        expected_property: Some("LateSender"),
        localized_at: "MPI_Recv",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_p2p::late_sender(
                p,
                base,
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.count("r"),
                c,
            )
        }),
        wait: PAIRS_WAIT,
    },
    PropertySpec {
        name: "late_receiver",
        paradigm: Paradigm::MpiP2p,
        params: &[P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "synchronous sender blocks because the receive is posted late",
        expected_property: Some("LateReceiver"),
        localized_at: "MPI_Ssend",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_p2p::late_receiver(
                p,
                base,
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.count("r"),
                c,
            )
        }),
        wait: PAIRS_WAIT,
    },
    PropertySpec {
        name: "late_sender_at_wait",
        paradigm: Paradigm::MpiP2p,
        params: &[
            P_BASEWORK,
            P_EXTRAWORK,
            seconds(
                "postwork",
                "0.01",
                "work overlapped between MPI_Irecv and MPI_Wait",
            ),
            P_REPS,
        ],
        description: "late sender surfacing at MPI_Wait after an overlapped MPI_Irecv",
        expected_property: Some("LateSender"),
        localized_at: "MPI_Wait",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_p2p::late_sender_at_wait(
                p,
                base,
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.seconds("postwork"),
                v.count("r"),
                c,
            )
        }),
        wait: |v, n| {
            (n / 2) as f64
                * v.count("r") as f64
                * (v.seconds("extrawork") - v.seconds("postwork")).max(0.0)
        },
    },
    PropertySpec {
        name: "messages_in_wrong_order",
        paradigm: Paradigm::MpiP2p,
        params: &[
            P_BASEWORK,
            seconds(
                "delay",
                "0.04",
                "gap between the early (wrong-order) and the awaited message",
            ),
            P_REPS,
        ],
        description: "receiver blocks for one message while a later one already waits unread",
        expected_property: Some("MessagesWrongOrder"),
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_p2p::messages_in_wrong_order(
                p,
                base,
                v.seconds("basework"),
                v.seconds("delay"),
                v.count("r"),
                c,
            )
        }),
        wait: |v, n| (n / 2) as f64 * v.seconds("delay") * v.count("r") as f64,
    },
    // ---- MPI collective (paper prototype) ------------------------------
    PropertySpec {
        name: "imbalance_at_mpi_barrier",
        paradigm: Paradigm::MpiCollective,
        params: &[P_DISTR, P_REPS],
        description: "distribution-shaped work in front of MPI_Barrier",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, _, p, c| {
            mpi_coll::imbalance_at_mpi_barrier(p, &v.distr("df"), v.count("r"), c)
        }),
        wait: BARRIER_WAIT,
    },
    PropertySpec {
        name: "imbalance_at_mpi_alltoall",
        paradigm: Paradigm::MpiCollective,
        params: &[P_DISTR, P_REPS],
        description: "distribution-shaped work in front of MPI_Alltoall (wait at N×N)",
        expected_property: Some("WaitAtNxN"),
        localized_at: "MPI_Alltoall",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::imbalance_at_mpi_alltoall(p, base, &v.distr("df"), v.count("r"), c)
        }),
        wait: BARRIER_WAIT,
    },
    PropertySpec {
        name: "late_broadcast",
        paradigm: Paradigm::MpiCollective,
        params: &[P_BASEWORK, P_EXTRAWORK, P_ROOT, P_REPS],
        description: "non-root ranks wait in MPI_Bcast for a late root",
        expected_property: Some("LateBroadcast"),
        localized_at: "MPI_Bcast",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::late_broadcast(
                p,
                base,
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: NONROOTS_WAIT,
    },
    PropertySpec {
        name: "late_scatter",
        paradigm: Paradigm::MpiCollective,
        params: &[P_BASEWORK, P_EXTRAWORK, P_ROOT, P_REPS],
        description: "non-root ranks wait in MPI_Scatter for a late root",
        expected_property: Some("LateScatter"),
        localized_at: "MPI_Scatter",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::late_scatter(
                p,
                base,
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: NONROOTS_WAIT,
    },
    PropertySpec {
        name: "late_scatterv",
        paradigm: Paradigm::MpiCollective,
        params: &[P_BASEWORK, P_EXTRAWORK, P_ROOT, P_REPS],
        description: "irregular variant of late_scatter",
        expected_property: Some("LateScatter"),
        localized_at: "MPI_Scatterv",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::late_scatterv(
                p,
                base,
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: NONROOTS_WAIT,
    },
    PropertySpec {
        name: "early_reduce",
        paradigm: Paradigm::MpiCollective,
        params: &[P_ROOTWORK, P_BASEEXTRA, P_ROOT, P_REPS],
        description: "an early root waits in MPI_Reduce for delayed members",
        expected_property: Some("EarlyReduce"),
        localized_at: "MPI_Reduce",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::early_reduce(
                p,
                base,
                v.seconds("rootwork"),
                v.seconds("baseextrawork"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: ROOT_WAIT,
    },
    PropertySpec {
        name: "early_gather",
        paradigm: Paradigm::MpiCollective,
        params: &[P_ROOTWORK, P_BASEEXTRA, P_ROOT, P_REPS],
        description: "an early root waits in MPI_Gather for delayed members",
        expected_property: Some("EarlyGather"),
        localized_at: "MPI_Gather",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::early_gather(
                p,
                base,
                v.seconds("rootwork"),
                v.seconds("baseextrawork"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: ROOT_WAIT,
    },
    PropertySpec {
        name: "early_gatherv",
        paradigm: Paradigm::MpiCollective,
        params: &[P_ROOTWORK, P_BASEEXTRA, P_ROOT, P_REPS],
        description: "irregular variant of early_gather",
        expected_property: Some("EarlyGather"),
        localized_at: "MPI_Gatherv",
        in_paper_prototype: true,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::early_gatherv(
                p,
                base,
                v.seconds("rootwork"),
                v.seconds("baseextrawork"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: ROOT_WAIT,
    },
    PropertySpec {
        name: "imbalance_at_mpi_allreduce",
        paradigm: Paradigm::MpiCollective,
        params: &[P_DISTR, P_REPS],
        description: "distribution-shaped work in front of MPI_Allreduce",
        expected_property: Some("WaitAtNxN"),
        localized_at: "MPI_Allreduce",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::imbalance_at_mpi_allreduce(p, base, &v.distr("df"), v.count("r"), c)
        }),
        wait: BARRIER_WAIT,
    },
    PropertySpec {
        name: "imbalance_at_mpi_scan",
        paradigm: Paradigm::MpiCollective,
        // Descending by default: a scan only produces prefix waits when
        // *lower* ranks arrive later.
        params: &[
            ParamSpec {
                name: "df",
                kind: ParamKind::Distribution,
                default: "block2:low=0.05,high=0.01",
                min: "0",
                max: "1",
                help: "work distribution (descending shapes produce prefix waits)",
            },
            P_REPS,
        ],
        description: "distribution-shaped work in front of MPI_Scan",
        expected_property: Some("WaitAtNxN"),
        localized_at: "MPI_Scan",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            mpi_coll::imbalance_at_mpi_scan(p, base, &v.distr("df"), v.count("r"), c)
        }),
        wait: |v, n| v.count("r") as f64 * prefix_imbalance_sum(&v.distr("df"), n),
    },
    PropertySpec {
        name: "progressive_imbalance_at_mpi_barrier",
        paradigm: Paradigm::MpiCollective,
        params: &[
            P_DISTR,
            ParamSpec {
                max: "4",
                ..seconds(
                    "growth",
                    "0.5",
                    "per-iteration scale growth (iteration i runs at 1 + growth*i)",
                )
            },
            P_REPS,
        ],
        description: "barrier imbalance whose severity grows with the iteration number \
                      (the paper's scale-factor remark)",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, _, p, c| {
            mpi_coll::progressive_imbalance_at_mpi_barrier(
                p,
                &v.distr("df"),
                v.seconds("growth"),
                v.count("r"),
                c,
            )
        }),
        wait: |v, n| {
            progressive_series(v.seconds("growth"), v.count("r")) * imbalance_sum(&v.distr("df"), n)
        },
    },
    PropertySpec {
        name: "growing_imbalance_at_mpi_barrier",
        paradigm: Paradigm::MpiCollective,
        params: &[
            P_BASEWORK,
            seconds(
                "extrastep",
                "0.01",
                "per-iteration increase of the heavy half's extra work",
            ),
            P_REPS,
        ],
        description: "barrier imbalance whose waiting *fraction* grows over the run",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, _, p, c| {
            mpi_coll::growing_imbalance_at_mpi_barrier(
                p,
                v.seconds("basework"),
                v.seconds("extrastep"),
                v.count("r"),
                c,
            )
        }),
        wait: |v, n| {
            // The light half (ceil(n/2) ranks) waits extrastep*(i+1) in
            // iteration i: sum over i of (i+1) = r(r+1)/2.
            let reps = v.count("r") as f64;
            n.div_ceil(2) as f64 * v.seconds("extrastep") * reps * (reps + 1.0) / 2.0
        },
    },
    // ---- OpenMP (paper prototype) ---------------------------------------
    PropertySpec {
        name: "imbalance_in_omp_pregion",
        paradigm: Paradigm::Omp,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "thread-level load imbalance visible at the region join",
        expected_property: Some("OmpImbalanceInRegion"),
        localized_at: "omp_parallel",
        in_paper_prototype: true,
        runner: Runner::Omp(|v, m| {
            omp::imbalance_in_omp_pregion(m, v.count("nthreads"), &v.distr("df"), v.count("r"))
        }),
        wait: TEAM_WAIT,
    },
    PropertySpec {
        name: "imbalance_at_omp_barrier",
        paradigm: Paradigm::Omp,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "thread-level load imbalance in front of an explicit barrier",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_barrier",
        in_paper_prototype: true,
        runner: Runner::Omp(|v, m| {
            omp::imbalance_at_omp_barrier(m, v.count("nthreads"), &v.distr("df"), v.count("r"))
        }),
        wait: TEAM_WAIT,
    },
    PropertySpec {
        name: "imbalance_in_omp_loop",
        paradigm: Paradigm::Omp,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "statically-scheduled loop with shaped iteration costs",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_for",
        in_paper_prototype: true,
        runner: Runner::Omp(|v, m| {
            omp::imbalance_in_omp_loop(m, v.count("nthreads"), &v.distr("df"), v.count("r"))
        }),
        wait: TEAM_WAIT,
    },
    // ---- OpenMP extensions ----------------------------------------------
    PropertySpec {
        name: "imbalance_at_omp_sections",
        paradigm: Paradigm::Omp,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "sections of unequal cost",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_sections",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            omp::imbalance_at_omp_sections(m, v.count("nthreads"), &v.distr("df"), v.count("r"))
        }),
        wait: TEAM_WAIT,
    },
    PropertySpec {
        name: "unparallelized_in_omp_single",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            seconds(
                "singlework",
                "0.02",
                "serialized work inside the single construct",
            ),
            P_REPS,
        ],
        description: "the team idles while one thread executes a single construct",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_single",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            omp::unparallelized_in_omp_single(
                m,
                v.count("nthreads"),
                v.seconds("singlework"),
                v.count("r"),
            )
        }),
        wait: |v, n| {
            n as f64
                * v.count("r") as f64
                * (v.count("nthreads") as f64 - 1.0)
                * v.seconds("singlework")
        },
    },
    PropertySpec {
        name: "unparallelized_in_omp_master",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            seconds("masterwork", "0.02", "serialized work on the master thread"),
            seconds("otherwork", "0.002", "work on the non-master threads"),
            P_REPS,
        ],
        description: "master-only work leaving the team idle until the join",
        expected_property: Some("OmpImbalanceInRegion"),
        localized_at: "omp_parallel",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            omp::unparallelized_in_omp_master(
                m,
                v.count("nthreads"),
                v.seconds("masterwork"),
                v.seconds("otherwork"),
                v.count("r"),
            )
        }),
        wait: |v, n| {
            n as f64
                * v.count("r") as f64
                * (v.count("nthreads") as f64 - 1.0)
                * (v.seconds("masterwork") - v.seconds("otherwork")).max(0.0)
        },
    },
    PropertySpec {
        name: "omp_critical_contention",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            seconds(
                "bodywork",
                "0.01",
                "time inside the critical section per visit",
            ),
            P_OUTSIDEWORK,
            P_REPS,
        ],
        description: "all threads contend on one named critical section",
        expected_property: Some("OmpCriticalContention"),
        localized_at: "omp_critical",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            omp::omp_critical_contention(
                m,
                v.count("nthreads"),
                v.seconds("bodywork"),
                v.seconds("outsidework"),
                v.count("r"),
            )
        }),
        wait: CONTENTION_WAIT,
    },
    PropertySpec {
        name: "progressive_imbalance_at_omp_barrier",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            P_DISTR,
            ParamSpec {
                max: "4",
                ..seconds("growth", "0.5", "per-iteration scale growth")
            },
            P_REPS,
        ],
        description: "OpenMP barrier imbalance ramping with the iteration number",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_barrier",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            omp::progressive_imbalance_at_omp_barrier(
                m,
                v.count("nthreads"),
                &v.distr("df"),
                v.seconds("growth"),
                v.count("r"),
            )
        }),
        wait: |v, n| {
            n as f64
                * progressive_series(v.seconds("growth"), v.count("r"))
                * imbalance_sum(&v.distr("df"), v.count("nthreads"))
        },
    },
    PropertySpec {
        name: "omp_lock_contention",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            seconds("bodywork", "0.01", "time holding the lock per visit"),
            P_OUTSIDEWORK,
            P_REPS,
        ],
        description: "all threads contend on one explicit lock object",
        expected_property: Some("OmpCriticalContention"),
        localized_at: "omp_lock",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            omp::omp_lock_contention(
                m,
                v.count("nthreads"),
                v.seconds("bodywork"),
                v.seconds("outsidework"),
                v.count("r"),
            )
        }),
        wait: CONTENTION_WAIT,
    },
    // ---- Hybrid ----------------------------------------------------------
    PropertySpec {
        name: "omp_imbalance_at_mpi_barrier",
        paradigm: Paradigm::Hybrid,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "per-rank thread imbalance feeding an MPI barrier",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, _, p, c| {
            hybrid::omp_imbalance_at_mpi_barrier(
                p,
                v.count("nthreads"),
                &hybrid::CATALOG_RANK_SCALE,
                &v.distr("df"),
                v.count("r"),
                c,
            )
        }),
        wait: |v, n| {
            // Rank i's team finishes at maxv * scale_i.
            let team = v.distr("df").values(v.count("nthreads"), 1.0);
            let maxv = team.iter().cloned().fold(0.0, f64::max);
            v.count("r") as f64 * maxv * imbalance_sum(&hybrid::CATALOG_RANK_SCALE, n)
        },
    },
    PropertySpec {
        name: "mpi_in_omp_serial",
        paradigm: Paradigm::Hybrid,
        params: &[P_NTHREADS, P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "master-only MPI exchange between parallel phases",
        expected_property: Some("LateSender"),
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            hybrid::mpi_in_omp_serial(
                p,
                base,
                v.count("nthreads"),
                v.seconds("basework"),
                v.seconds("extrawork"),
                v.count("r"),
                c,
            )
        }),
        wait: PAIRS_WAIT,
    },
    // ---- Sequential -------------------------------------------------------
    PropertySpec {
        name: "serial_initialization",
        paradigm: Paradigm::Sequential,
        params: &[P_ROOT, P_BASEWORK, P_EXTRAWORK],
        description: "one rank's long sequential phase delays everyone",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, _, p, c| {
            sequential::serial_initialization(
                p,
                v.count("root"),
                v.seconds("extrawork"),
                v.seconds("basework"),
                c,
            )
        }),
        wait: |v, n| (n as f64 - 1.0) * v.seconds("extrawork"),
    },
    PropertySpec {
        name: "dominating_sequential_phases",
        paradigm: Paradigm::Sequential,
        params: &[P_ROOT, P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "alternating parallel and root-only sequential phases",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, _, p, c| {
            sequential::dominating_sequential_phases(
                p,
                v.count("root"),
                v.seconds("extrawork"),
                v.seconds("basework"),
                v.count("r"),
                c,
            )
        }),
        wait: NONROOTS_WAIT,
    },
    // ---- Negative ----------------------------------------------------------
    PropertySpec {
        name: "balanced_mpi_barrier",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_REPS],
        description: "balanced work + barrier; no property present",
        expected_property: None,
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, _, p, c| {
            negative::balanced_mpi_barrier(p, v.seconds("work"), v.count("r"), c)
        }),
        wait: |_, _| 0.0,
    },
    PropertySpec {
        name: "balanced_mpi_p2p",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_REPS],
        description: "balanced even/odd exchange; no property present",
        expected_property: None,
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            negative::balanced_mpi_p2p(p, base, v.seconds("work"), v.count("r"), c)
        }),
        wait: |_, _| 0.0,
    },
    PropertySpec {
        name: "balanced_ring",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_REPS],
        description: "balanced ring shift; no property present",
        expected_property: None,
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            negative::balanced_ring(p, base, v.seconds("work"), v.count("r"), c)
        }),
        wait: |_, _| 0.0,
    },
    PropertySpec {
        name: "balanced_mpi_collectives",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_ROOT, P_REPS],
        description: "balanced bcast + reduce; no property present",
        expected_property: None,
        localized_at: "MPI_Bcast",
        in_paper_prototype: false,
        runner: Runner::Mpi(|v, base, p, c| {
            negative::balanced_mpi_collectives(
                p,
                base,
                v.seconds("work"),
                v.count("root"),
                v.count("r"),
                c,
            )
        }),
        wait: |_, _| 0.0,
    },
    PropertySpec {
        name: "balanced_omp_region",
        paradigm: Paradigm::Negative,
        params: &[P_NTHREADS, P_WORK, P_REPS],
        description: "balanced parallel region; no property present",
        expected_property: None,
        localized_at: "omp_parallel",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            negative::balanced_omp_region(m, v.count("nthreads"), v.seconds("work"), v.count("r"))
        }),
        wait: |_, _| 0.0,
    },
    PropertySpec {
        name: "balanced_omp_loop",
        paradigm: Paradigm::Negative,
        params: &[P_NTHREADS, P_WORK, P_REPS],
        description: "balanced static worksharing loop; no property present",
        expected_property: None,
        localized_at: "omp_for",
        in_paper_prototype: false,
        runner: Runner::Omp(|v, m| {
            negative::balanced_omp_loop(m, v.count("nthreads"), v.seconds("work"), 4, v.count("r"))
        }),
        wait: |_, _| 0.0,
    },
];

/// Look up a property by name.
pub fn find(name: &str) -> Option<&'static PropertySpec> {
    CATALOG.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_has_exactly_thirteen_functions() {
        // 2 p2p + 8 collective + 3 OpenMP, as listed in §3.1.5.
        let prototype = CATALOG.iter().filter(|p| p.in_paper_prototype);
        assert_eq!(prototype.count(), 13);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = CATALOG.iter().map(|p| p.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn negative_cases_expect_nothing() {
        for p in CATALOG.iter().filter(|p| p.paradigm == Paradigm::Negative) {
            assert!(p.expected_property.is_none(), "{}", p.name);
        }
    }

    #[test]
    fn positive_cases_expect_something() {
        for p in CATALOG.iter().filter(|p| p.paradigm != Paradigm::Negative) {
            assert!(p.expected_property.is_some(), "{}", p.name);
        }
    }

    #[test]
    fn every_entry_has_at_most_one_knob() {
        for spec in CATALOG {
            let knobs: Vec<_> = spec
                .params
                .iter()
                .filter(|p| KNOBS.contains(&p.name))
                .collect();
            assert!(knobs.len() <= 1, "{}: knobs {knobs:?}", spec.name);
            assert!(knobs.iter().all(|p| p.kind == ParamKind::Seconds));
            assert_eq!(spec.knob(), knobs.first().copied());
        }
        let named = |name| find(name).unwrap().knob().map(|p| p.name);
        assert_eq!(named("growing_imbalance_at_mpi_barrier"), Some("extrastep"));
        assert_eq!(named("balanced_ring"), Some("work"));
        assert_eq!(named("imbalance_at_mpi_barrier"), None);
        let swept = CATALOG
            .iter()
            .filter(|p| p.expected_property.is_some() && p.knob().is_some());
        assert_eq!(swept.count(), 20);
    }

    #[test]
    fn find_works() {
        assert!(find("late_sender").is_some());
        assert!(find("nonexistent").is_none());
        assert_eq!(find("late_broadcast").unwrap().localized_at, "MPI_Bcast");
    }

    #[test]
    fn every_numeric_param_declares_a_range_containing_its_default() {
        for p in CATALOG {
            for param in p.params {
                assert!(
                    param.has_range(),
                    "{}.{} has no range metadata",
                    p.name,
                    param.name
                );
                let (lo, hi) = param.range_f64();
                let defaults = match param.kind {
                    ParamKind::Seconds | ParamKind::Count => vec![param.default.parse().unwrap()],
                    ParamKind::Distribution => {
                        // A distribution holds seconds: the range of every
                        // seconds parameter.
                        assert_eq!((lo, hi), (0.0, 1.0), "{}.{}", p.name, param.name);
                        let d: crate::distribution::Distr = param.default.parse().unwrap();
                        d.levels()
                    }
                };
                for d in defaults {
                    assert!(
                        lo <= d && d <= hi,
                        "{}.{}: default {d} outside [{lo}, {hi}]",
                        p.name,
                        param.name
                    );
                }
            }
        }
    }

    #[test]
    fn range_display_renders_bounds() {
        assert_eq!(P_REPS.range_display().unwrap(), "[1, 64]");
        assert_eq!(P_ROOT.range_display().unwrap(), "[0, ..]");
        assert_eq!(P_DISTR.range_display().unwrap(), "[0, 1]");
    }

    #[test]
    fn defaults_parse_under_their_kind() {
        for p in CATALOG {
            for param in p.params {
                match param.kind {
                    ParamKind::Seconds => {
                        param
                            .default
                            .parse::<f64>()
                            .unwrap_or_else(|_| panic!("{}.{} default", p.name, param.name));
                    }
                    ParamKind::Count => {
                        param
                            .default
                            .parse::<usize>()
                            .unwrap_or_else(|_| panic!("{}.{} default", p.name, param.name));
                    }
                    ParamKind::Distribution => {
                        param
                            .default
                            .parse::<crate::distribution::Distr>()
                            .unwrap_or_else(|_| panic!("{}.{} default", p.name, param.name));
                    }
                }
            }
        }
    }
}
