//! # ats-core
//!
//! The APART Test Suite framework (the paper's Chapter 3), in Rust.
//!
//! ATS constructs *synthetic parallel test programs with known,
//! parameterizable performance properties*, used to check automatic
//! performance-analysis tools for positive correctness (the tool finds
//! what the program provably contains, with a severity that tracks the
//! programmed one) and negative correctness (the tool stays silent on
//! well-tuned programs).
//!
//! Layering, bottom-up — exactly the paper's Figure 3.1:
//!
//! 1. **work** ([`work`], plus `do_work` on the substrate handles):
//!    specification of sequential and parallel work;
//! 2. **distribution** ([`distribution`]): `same` / `cyclic2` / `block2` /
//!    `linear` / `peak` / `cyclic3` / `block3` shapes with a scale factor;
//! 3. **MPI support** ([`buffer`], [`pattern`]): typed buffers, irregular
//!    buffers, and the even/odd and ring communication patterns;
//! 4. **property functions** ([`properties`]): the paper's 13 prototype
//!    functions plus the ASL-catalog extensions, each wrapped in a trace
//!    region for call-path localization;
//! 5. **test programs** ([`composite`], and per-property programs via
//!    `ats-harness`): single-property and composite executables.
//!
//! ```
//! use ats_core::{properties::mpi_coll, Distr};
//! use ats_mpi::SimConfig;
//!
//! // The paper's Fig. 3.2 experiment: imbalance in front of a barrier.
//! let df = Distr::block2(0.01, 0.05);
//! let trace = ats_mpi::run(SimConfig::with_procs(8), move |p| {
//!     let world = p.comm_world();
//!     mpi_coll::imbalance_at_mpi_barrier(p, &df, 3, &world);
//! });
//! assert!(trace.find_region("imbalance_at_mpi_barrier").is_some());
//! ```

pub mod buffer;
pub mod catalog;
pub mod composite;
pub mod distribution;
pub mod error;
pub mod hybrid;
/// The canonical JSON model, defined in `ats-runtime`.
pub use ats_runtime::json;
mod model;
pub mod params;
pub mod pattern;
pub mod properties;
pub mod work;

pub use buffer::{alloc_mpi_buf, alloc_mpi_vbuf, BaseComm, MpiBuf, MpiVBuf};
pub use catalog::{Paradigm, ParamKind, ParamSpec, PropertySpec, CATALOG};
pub use composite::CompositeParams;
pub use distribution::Distr;
pub use error::{Error, ErrorKind};
pub use hybrid::{with_omp, HybridMaster};
pub use json::Json;
pub use params::{ParamValue, ParamValues};
pub use pattern::{sendrecv, shift, Dir, PatternMode};
pub use work::{par_do_mpi_work, par_do_omp_work};
