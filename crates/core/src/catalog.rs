//! The property catalog: machine-readable metadata about every property
//! function in the suite.
//!
//! This is the information the paper's single-property test-program
//! generator extracts from the C function signatures with PDT; here it is
//! first-class data, consumed by `ats-harness` to generate runnable test
//! programs, drive parameter sweeps, and score analyzer output against the
//! *expected* finding and its location.

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
    /// `""` means unbounded below. Distribution parameters leave both
    /// bounds empty.
    pub min: &'static str,
    /// Inclusive upper bound of the legal range; `""` means unbounded
    /// above (e.g. a root rank, bounded only by the communicator size).
    pub max: &'static str,
    /// Human-readable meaning.
    pub help: &'static str,
}

impl ParamSpec {
    /// The declared `[min, max]` range as floats, substituting `0` /
    /// `+inf` for missing bounds. Meaningful for `Seconds` and `Count`
    /// parameters; `Distribution` parameters report the full range.
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

/// Metadata for one property function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
const P_BASEWORK: ParamSpec = ParamSpec {
    name: "basework",
    kind: ParamKind::Seconds,
    default: "0.01",
    min: "0",
    max: "1",
    help: "work performed by every rank",
};
const P_EXTRAWORK: ParamSpec = ParamSpec {
    name: "extrawork",
    kind: ParamKind::Seconds,
    default: "0.04",
    min: "0",
    max: "1",
    help: "additional work for the late side (the severity knob)",
};
const P_ROOTWORK: ParamSpec = ParamSpec {
    name: "rootwork",
    kind: ParamKind::Seconds,
    default: "0.005",
    min: "0",
    max: "1",
    help: "work performed by the root",
};
const P_BASEEXTRA: ParamSpec = ParamSpec {
    name: "baseextrawork",
    kind: ParamKind::Seconds,
    default: "0.04",
    min: "0",
    max: "1",
    help: "additional work for the non-root ranks (the severity knob)",
};
const P_DISTR: ParamSpec = ParamSpec {
    name: "df",
    kind: ParamKind::Distribution,
    default: "block2:low=0.01,high=0.05",
    min: "",
    max: "",
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
const P_WORK: ParamSpec = ParamSpec {
    name: "work",
    kind: ParamKind::Seconds,
    default: "0.01",
    min: "0",
    max: "1",
    help: "balanced per-participant work",
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
    },
    PropertySpec {
        name: "late_receiver",
        paradigm: Paradigm::MpiP2p,
        params: &[P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "synchronous sender blocks because the receive is posted late",
        expected_property: Some("LateReceiver"),
        localized_at: "MPI_Ssend",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "late_sender_at_wait",
        paradigm: Paradigm::MpiP2p,
        params: &[
            P_BASEWORK,
            P_EXTRAWORK,
            ParamSpec {
                name: "postwork",
                kind: ParamKind::Seconds,
                default: "0.01",
                min: "0",
                max: "1",
                help: "work overlapped between MPI_Irecv and MPI_Wait",
            },
            P_REPS,
        ],
        description: "late sender surfacing at MPI_Wait after an overlapped MPI_Irecv",
        expected_property: Some("LateSender"),
        localized_at: "MPI_Wait",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "messages_in_wrong_order",
        paradigm: Paradigm::MpiP2p,
        params: &[
            P_BASEWORK,
            ParamSpec {
                name: "delay",
                kind: ParamKind::Seconds,
                default: "0.04",
                min: "0",
                max: "1",
                help: "gap between the early (wrong-order) and the awaited message",
            },
            P_REPS,
        ],
        description: "receiver blocks for one message while a later one already waits unread",
        expected_property: Some("MessagesWrongOrder"),
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
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
    },
    PropertySpec {
        name: "imbalance_at_mpi_alltoall",
        paradigm: Paradigm::MpiCollective,
        params: &[P_DISTR, P_REPS],
        description: "distribution-shaped work in front of MPI_Alltoall (wait at N×N)",
        expected_property: Some("WaitAtNxN"),
        localized_at: "MPI_Alltoall",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "late_broadcast",
        paradigm: Paradigm::MpiCollective,
        params: &[P_BASEWORK, P_EXTRAWORK, P_ROOT, P_REPS],
        description: "non-root ranks wait in MPI_Bcast for a late root",
        expected_property: Some("LateBroadcast"),
        localized_at: "MPI_Bcast",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "late_scatter",
        paradigm: Paradigm::MpiCollective,
        params: &[P_BASEWORK, P_EXTRAWORK, P_ROOT, P_REPS],
        description: "non-root ranks wait in MPI_Scatter for a late root",
        expected_property: Some("LateScatter"),
        localized_at: "MPI_Scatter",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "late_scatterv",
        paradigm: Paradigm::MpiCollective,
        params: &[P_BASEWORK, P_EXTRAWORK, P_ROOT, P_REPS],
        description: "irregular variant of late_scatter",
        expected_property: Some("LateScatter"),
        localized_at: "MPI_Scatterv",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "early_reduce",
        paradigm: Paradigm::MpiCollective,
        params: &[P_ROOTWORK, P_BASEEXTRA, P_ROOT, P_REPS],
        description: "an early root waits in MPI_Reduce for delayed members",
        expected_property: Some("EarlyReduce"),
        localized_at: "MPI_Reduce",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "early_gather",
        paradigm: Paradigm::MpiCollective,
        params: &[P_ROOTWORK, P_BASEEXTRA, P_ROOT, P_REPS],
        description: "an early root waits in MPI_Gather for delayed members",
        expected_property: Some("EarlyGather"),
        localized_at: "MPI_Gather",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "early_gatherv",
        paradigm: Paradigm::MpiCollective,
        params: &[P_ROOTWORK, P_BASEEXTRA, P_ROOT, P_REPS],
        description: "irregular variant of early_gather",
        expected_property: Some("EarlyGather"),
        localized_at: "MPI_Gatherv",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "imbalance_at_mpi_allreduce",
        paradigm: Paradigm::MpiCollective,
        params: &[P_DISTR, P_REPS],
        description: "distribution-shaped work in front of MPI_Allreduce",
        expected_property: Some("WaitAtNxN"),
        localized_at: "MPI_Allreduce",
        in_paper_prototype: false,
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
                min: "",
                max: "",
                help: "work distribution (descending shapes produce prefix waits)",
            },
            P_REPS,
        ],
        description: "distribution-shaped work in front of MPI_Scan",
        expected_property: Some("WaitAtNxN"),
        localized_at: "MPI_Scan",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "progressive_imbalance_at_mpi_barrier",
        paradigm: Paradigm::MpiCollective,
        params: &[
            P_DISTR,
            ParamSpec {
                name: "growth",
                kind: ParamKind::Seconds,
                default: "0.5",
                min: "0",
                max: "4",
                help: "per-iteration scale growth (iteration i runs at 1 + growth*i)",
            },
            P_REPS,
        ],
        description: "barrier imbalance whose severity grows with the iteration number \
                      (the paper's scale-factor remark)",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "growing_imbalance_at_mpi_barrier",
        paradigm: Paradigm::MpiCollective,
        params: &[
            P_BASEWORK,
            ParamSpec {
                name: "extrastep",
                kind: ParamKind::Seconds,
                default: "0.01",
                min: "0",
                max: "1",
                help: "per-iteration increase of the heavy half's extra work",
            },
            P_REPS,
        ],
        description: "barrier imbalance whose waiting *fraction* grows over the run",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
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
    },
    PropertySpec {
        name: "imbalance_at_omp_barrier",
        paradigm: Paradigm::Omp,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "thread-level load imbalance in front of an explicit barrier",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_barrier",
        in_paper_prototype: true,
    },
    PropertySpec {
        name: "imbalance_in_omp_loop",
        paradigm: Paradigm::Omp,
        params: &[P_NTHREADS, P_DISTR, P_REPS],
        description: "statically-scheduled loop with shaped iteration costs",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_for",
        in_paper_prototype: true,
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
    },
    PropertySpec {
        name: "unparallelized_in_omp_single",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            ParamSpec {
                name: "singlework",
                kind: ParamKind::Seconds,
                default: "0.02",
                min: "0",
                max: "1",
                help: "serialized work inside the single construct",
            },
            P_REPS,
        ],
        description: "the team idles while one thread executes a single construct",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_single",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "unparallelized_in_omp_master",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            ParamSpec {
                name: "masterwork",
                kind: ParamKind::Seconds,
                default: "0.02",
                min: "0",
                max: "1",
                help: "serialized work on the master thread",
            },
            ParamSpec {
                name: "otherwork",
                kind: ParamKind::Seconds,
                default: "0.002",
                min: "0",
                max: "1",
                help: "work on the non-master threads",
            },
            P_REPS,
        ],
        description: "master-only work leaving the team idle until the join",
        expected_property: Some("OmpImbalanceInRegion"),
        localized_at: "omp_parallel",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "omp_critical_contention",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            ParamSpec {
                name: "bodywork",
                kind: ParamKind::Seconds,
                default: "0.01",
                min: "0",
                max: "1",
                help: "time inside the critical section per visit",
            },
            ParamSpec {
                name: "outsidework",
                kind: ParamKind::Seconds,
                default: "0.0",
                min: "0",
                max: "1",
                help: "parallel work between visits",
            },
            P_REPS,
        ],
        description: "all threads contend on one named critical section",
        expected_property: Some("OmpCriticalContention"),
        localized_at: "omp_critical",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "progressive_imbalance_at_omp_barrier",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            P_DISTR,
            ParamSpec {
                name: "growth",
                kind: ParamKind::Seconds,
                default: "0.5",
                min: "0",
                max: "4",
                help: "per-iteration scale growth",
            },
            P_REPS,
        ],
        description: "OpenMP barrier imbalance ramping with the iteration number",
        expected_property: Some("OmpWaitAtBarrier"),
        localized_at: "omp_barrier",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "omp_lock_contention",
        paradigm: Paradigm::Omp,
        params: &[
            P_NTHREADS,
            ParamSpec {
                name: "bodywork",
                kind: ParamKind::Seconds,
                default: "0.01",
                min: "0",
                max: "1",
                help: "time holding the lock per visit",
            },
            ParamSpec {
                name: "outsidework",
                kind: ParamKind::Seconds,
                default: "0.0",
                min: "0",
                max: "1",
                help: "parallel work between visits",
            },
            P_REPS,
        ],
        description: "all threads contend on one explicit lock object",
        expected_property: Some("OmpCriticalContention"),
        localized_at: "omp_lock",
        in_paper_prototype: false,
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
    },
    PropertySpec {
        name: "mpi_in_omp_serial",
        paradigm: Paradigm::Hybrid,
        params: &[P_NTHREADS, P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "master-only MPI exchange between parallel phases",
        expected_property: Some("LateSender"),
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
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
    },
    PropertySpec {
        name: "dominating_sequential_phases",
        paradigm: Paradigm::Sequential,
        params: &[P_ROOT, P_BASEWORK, P_EXTRAWORK, P_REPS],
        description: "alternating parallel and root-only sequential phases",
        expected_property: Some("WaitAtBarrier"),
        localized_at: "MPI_Barrier",
        in_paper_prototype: false,
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
    },
    PropertySpec {
        name: "balanced_mpi_p2p",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_REPS],
        description: "balanced even/odd exchange; no property present",
        expected_property: None,
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "balanced_ring",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_REPS],
        description: "balanced ring shift; no property present",
        expected_property: None,
        localized_at: "MPI_Recv",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "balanced_mpi_collectives",
        paradigm: Paradigm::Negative,
        params: &[P_WORK, P_ROOT, P_REPS],
        description: "balanced bcast + reduce; no property present",
        expected_property: None,
        localized_at: "MPI_Bcast",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "balanced_omp_region",
        paradigm: Paradigm::Negative,
        params: &[P_NTHREADS, P_WORK, P_REPS],
        description: "balanced parallel region; no property present",
        expected_property: None,
        localized_at: "omp_parallel",
        in_paper_prototype: false,
    },
    PropertySpec {
        name: "balanced_omp_loop",
        paradigm: Paradigm::Negative,
        params: &[P_NTHREADS, P_WORK, P_REPS],
        description: "balanced static worksharing loop; no property present",
        expected_property: None,
        localized_at: "omp_for",
        in_paper_prototype: false,
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
                match param.kind {
                    ParamKind::Seconds | ParamKind::Count => {
                        assert!(
                            param.has_range(),
                            "{}.{} has no range metadata",
                            p.name,
                            param.name
                        );
                        let (lo, hi) = param.range_f64();
                        let d: f64 = param.default.parse().unwrap();
                        assert!(
                            lo <= d && d <= hi,
                            "{}.{}: default {d} outside [{lo}, {hi}]",
                            p.name,
                            param.name
                        );
                    }
                    ParamKind::Distribution => {
                        assert!(
                            !param.has_range(),
                            "{}.{}: distributions take no numeric range",
                            p.name,
                            param.name
                        );
                        assert_eq!(param.range_f64(), (0.0, f64::INFINITY));
                    }
                }
            }
        }
    }

    #[test]
    fn range_display_renders_bounds() {
        assert_eq!(P_REPS.range_display().unwrap(), "[1, 64]");
        assert_eq!(P_ROOT.range_display().unwrap(), "[0, ..]");
        assert!(P_DISTR.range_display().is_none());
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
