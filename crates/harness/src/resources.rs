//! The validation/benchmark-suite resource collection (paper Chapter 2).
//!
//! The paper's semantics-preservation strategy leans on *existing*
//! validation and benchmark suites, and commits to publishing "a WWW
//! collection of resources and links" on the APART site. This module is
//! that collection as structured data: every suite the paper lists, with
//! its category and role, plus the applications chapter's starting points.
//! (`ats-harness::validation` provides the executable substitute that runs
//! against the simulated substrates; this catalog documents what a port to
//! a real MPI/OpenMP stack would plug in.)

/// What a resource is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Correctness validation suite (run with/without instrumentation).
    Validation,
    /// Benchmark suite (overhead estimation; some also self-check).
    Benchmark,
    /// Full application / procurement benchmark collection (ch. 4 tier).
    Application,
}

/// Which programming paradigm a resource covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// Message passing (MPI).
    Mpi,
    /// PVM.
    Pvm,
    /// OpenMP.
    OpenMp,
    /// Hybrid MPI × threads.
    Hybrid,
    /// Whole applications (any paradigm).
    Applications,
}

/// One catalog entry, as the paper lists it.
#[derive(Debug, Clone, Copy)]
pub struct Resource {
    /// Suite name.
    pub name: &'static str,
    /// Maintainer/origin, as named in the paper.
    pub origin: &'static str,
    /// URL from the paper (2002-era; kept for provenance).
    pub url: &'static str,
    /// Role in tool testing.
    pub kind: ResourceKind,
    /// Paradigm covered.
    pub paradigm: Paradigm,
}

/// The paper's §2 + ch. 4 collection.
pub const RESOURCES: &[Resource] = &[
    // §2.1 MPI validation suites
    Resource {
        name: "MPICH test suite",
        origin: "Argonne National Laboratory",
        url: "ftp://ftp.mcs.anl.gov/pub/mpi/mpi-test/mpich-test.tar.gz",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Mpi,
    },
    Resource {
        name: "MPI test suite",
        origin: "IBM",
        url: "http://www-unix.mcs.anl.gov/mpi/mpi-test/ibmsuite.html",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Mpi,
    },
    Resource {
        name: "MPICH version of the IBM test suite",
        origin: "Argonne and IBM",
        url: "ftp://ftp.mcs.anl.gov/pub/mpi/mpi-test/mpichibm.tar",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Mpi,
    },
    Resource {
        name: "Comprehensive test suite for MPI 1.1",
        origin: "Intel",
        url: "ftp://ftp.mcs.anl.gov/pub/mpi/mpi-test/intel-mpitest.tgz",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Mpi,
    },
    Resource {
        name: "MPICH version of the Intel test suite",
        origin: "Argonne and Intel",
        url: "ftp://ftp.mcs.anl.gov/pub/mpi/mpi-test/intel-mpitest-patched.tgz",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Mpi,
    },
    // §2.2 MPI benchmark suites
    Resource {
        name: "PARKBENCH",
        origin: "netlib",
        url: "http://www.netlib.org/parkbench/",
        kind: ResourceKind::Benchmark,
        paradigm: Paradigm::Mpi,
    },
    Resource {
        name: "PMB (Pallas MPI Benchmarks)",
        origin: "Pallas",
        url: "http://www.pallas.com/e/products/pmb/",
        kind: ResourceKind::Benchmark,
        paradigm: Paradigm::Mpi,
    },
    Resource {
        name: "SKaMPI",
        origin: "Universität Karlsruhe",
        url: "http://liinwww.ira.uka.de/~skampi/",
        kind: ResourceKind::Benchmark,
        paradigm: Paradigm::Mpi,
    },
    // §2.3 PVM
    Resource {
        name: "PVM test suite",
        origin: "Oak Ridge National Laboratory",
        url: "http://www.epm.ornl.gov/pvm/tester.html",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Pvm,
    },
    Resource {
        name: "Grindstone",
        origin: "University of Maryland",
        url: "http://www.cs.umd.edu/~hollings/papers/grindstone.html",
        kind: ResourceKind::Validation,
        paradigm: Paradigm::Pvm,
    },
    // §2.5 OpenMP benchmarks (the paper notes no OpenMP validation suites existed)
    Resource {
        name: "EPCC OpenMP Microbenchmarks",
        origin: "EPCC, University of Edinburgh",
        url: "http://www.epcc.ed.ac.uk/research/openmpbench/openmp_index.html",
        kind: ResourceKind::Benchmark,
        paradigm: Paradigm::OpenMp,
    },
    // §2.6 hybrid
    Resource {
        name: "LAMB (Los Alamos MicroBenchmarks)",
        origin: "Los Alamos National Laboratory",
        url: "http://www.c3.lanl.gov/par_arch/CODES/LAMB/lamb.html",
        kind: ResourceKind::Benchmark,
        paradigm: Paradigm::Hybrid,
    },
    // ch. 4 application starting points
    Resource {
        name: "NAS Parallel Benchmarks (NPB)",
        origin: "NASA Ames",
        url: "http://www.nas.nasa.gov/Software/NPB/",
        kind: ResourceKind::Application,
        paradigm: Paradigm::Applications,
    },
    Resource {
        name: "ASCI Purple Benchmark Codes",
        origin: "LLNL",
        url: "http://www.llnl.gov/asci/purple/benchmarks/limited/code_list.html",
        kind: ResourceKind::Application,
        paradigm: Paradigm::Applications,
    },
    Resource {
        name: "ASCI Blue Benchmark Codes",
        origin: "LLNL",
        url: "http://www.llnl.gov/asci_benchmarks/asci/asci_code_list.html",
        kind: ResourceKind::Application,
        paradigm: Paradigm::Applications,
    },
];

/// All resources of a kind.
fn by_kind(kind: ResourceKind) -> Vec<&'static Resource> {
    RESOURCES.iter().filter(|r| r.kind == kind).collect()
}

/// Render the collection as the paper's chapter-2 style listing.
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (kind, title) in [
        (ResourceKind::Validation, "Validation suites"),
        (ResourceKind::Benchmark, "Benchmark suites"),
        (ResourceKind::Application, "Application collections (ch. 4)"),
    ] {
        let _ = writeln!(out, "{title}:");
        for r in by_kind(kind) {
            let _ = writeln!(out, "  {:<42} {:<32} {}", r.name, r.origin, r.url);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_matches_the_papers_counts() {
        // 5 MPI validation (+Sun patch note omitted: not a suite), 3 MPI
        // benchmarks, 2 PVM, 1 OpenMP benchmark, 1 hybrid, 3 application
        // collections.
        assert_eq!(RESOURCES.len(), 15);
        assert_eq!(by_kind(ResourceKind::Validation).len(), 7);
        assert_eq!(by_kind(ResourceKind::Benchmark).len(), 5);
        assert_eq!(by_kind(ResourceKind::Application).len(), 3);
    }

    #[test]
    fn no_openmp_validation_suite_as_the_paper_notes() {
        // "To the best of our knowledge there are no OpenMP validation
        // suites yet" (paper §2.4).
        assert!(!by_kind(ResourceKind::Validation)
            .iter()
            .any(|r| r.paradigm == Paradigm::OpenMp));
    }

    #[test]
    fn render_lists_every_resource() {
        let text = render();
        for r in RESOURCES {
            assert!(text.contains(r.name), "missing {}", r.name);
        }
    }
}
