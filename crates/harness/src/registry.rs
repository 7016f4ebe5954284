//! The property-function registry: from a (name, parameters, run options)
//! triple to an executed synthetic test program and its trace.
//!
//! This is the runtime half of the paper's single-property test-program
//! generator: where the C prototype generates a `main` per property with
//! PDT, every ATS-RS catalog record carries its own program body, so any
//! property can be executed from a command-line-style specification.

use ats_core::catalog::{self, Paradigm, PropertySpec, Runner};
use ats_core::{composite, with_omp, BaseComm, CompositeParams, Error, ParamValues};
use ats_mpi::SimConfig;
use ats_omp::OmpConfig;
use ats_runtime::{MachineModel, VDur};
use ats_trace::{Trace, TracePool};

/// How to execute a generated test program.
///
/// Every run executes on the platform's scheduler carrier (coroutines
/// where the context switch exists, OS threads elsewhere; see
/// [`crate::pool::threads_per_config`]). The carrier cannot change a
/// trace, so it is not an option here.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// MPI process count for MPI/hybrid/sequential properties.
    pub nprocs: usize,
    /// Machine model.
    pub model: MachineModel,
    /// RNG seed.
    pub seed: u64,
    /// Default message shape.
    pub base: BaseComm,
    /// `MPI_Init` cost.
    pub init_time: VDur,
    /// `MPI_Finalize` cost.
    pub finalize_time: VDur,
    /// Experiment-engine worker count: how many configurations a sweep
    /// may execute concurrently. `0` = the host's available parallelism;
    /// the pool's oversubscription guard may grant fewer (see
    /// [`crate::pool::effective_jobs`]). Single runs ([`run_single`])
    /// ignore this.
    pub jobs: usize,
    /// Event-buffer pool handed to every run launched through these
    /// options, and refilled by the experiment engine after each
    /// configuration (`None` = every run allocates fresh vectors). Pooling
    /// reuses capacity only — traces and sweep rows are byte-identical with
    /// or without it.
    pub trace_pool: Option<TracePool>,
    /// Observability registry every run launched through these options
    /// records into (`None` = no recording). Like the pool, recording
    /// never changes traces or rows.
    pub obs: Option<ats_obs::Handle>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            nprocs: 8,
            model: MachineModel::zero(),
            seed: 0xA75_5EED,
            base: BaseComm::default(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            jobs: 0,
            trace_pool: None,
            obs: None,
        }
    }
}

impl RunOpts {
    /// Builder: set the process count.
    pub fn procs(mut self, n: usize) -> Self {
        self.nprocs = n;
        self
    }

    /// Builder: set the experiment-engine worker count (`0` = auto).
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Builder: recycle event buffers through `pool` across runs.
    pub fn trace_pool(mut self, pool: TracePool) -> Self {
        self.trace_pool = Some(pool);
        self
    }

    /// Builder: record metrics into `obs` for every run.
    pub fn obs(mut self, obs: ats_obs::Handle) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builder: use the default (non-zero) machine model with init/finalize
    /// costs, as a real 2002 cluster run would look.
    pub fn realistic(mut self) -> Self {
        self.model = MachineModel::default();
        self.init_time = VDur::from_millis(30);
        self.finalize_time = VDur::from_millis(10);
        self
    }

    /// The [`SimConfig`] these options induce — public so subsystems that
    /// drive `ats_mpi::run` with their own rank closures (composite
    /// scenarios, the fuzzer) price runs identically to [`run_single`].
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            nprocs: self.nprocs,
            model: self.model.clone(),
            seed: self.seed,
            init_time: self.init_time,
            finalize_time: self.finalize_time,
            trace_pool: self.trace_pool.clone(),
            obs: self.obs.clone(),
            ..Default::default()
        }
    }

    /// The [`OmpConfig`] these options induce (see [`RunOpts::sim_config`]).
    fn omp_config(&self) -> OmpConfig {
        OmpConfig {
            model: self.model.clone(),
            seed: self.seed,
            trace_pool: self.trace_pool.clone(),
            ..Default::default()
        }
    }
}

/// Look up the catalog entry for `name`.
pub fn spec_of(name: &str) -> Result<&'static PropertySpec, Error> {
    catalog::find(name).ok_or_else(|| Error::unknown_property(name))
}

/// Execute the single-property test program for `name` with `params`,
/// returning its trace. This is exactly what a generated standalone binary
/// does after parsing its command line.
pub fn run_single(name: &str, params: &ParamValues, opts: &RunOpts) -> Result<Trace, Error> {
    let spec = spec_of(name)?;
    let base = opts.base;
    let trace = match (spec.paradigm, spec.runner) {
        // Pure shared-memory program.
        (Paradigm::Omp, Runner::Omp(body)) => {
            ats_omp::run_omp(opts.omp_config(), |m| body(params, m))
        }
        _ => ats_mpi::run(opts.sim_config(), |p| {
            let world = p.comm_world();
            run_in_comm(spec, params, &base, p, &world);
        }),
    };
    Ok(trace)
}

/// Execute catalog entry `spec` on an arbitrary communicator inside a
/// running simulated rank. This is the composition primitive: scenario
/// builders (hand-written composites, the fuzzer) split the world into
/// groups and place catalog properties on the resulting sub-communicators.
/// Every rank of `c` must call this with the same arguments; ranks outside
/// `c` must not call it. An OpenMP body runs one thread team per rank (the
/// hybrid harness mode) and uses `c` only for placement.
pub fn run_in_comm(
    spec: &PropertySpec,
    v: &ParamValues,
    base: &BaseComm,
    p: &mut ats_mpi::Proc,
    c: &ats_mpi::Comm,
) {
    match spec.runner {
        Runner::Mpi(body) => body(v, base, p, c),
        Runner::Omp(body) => with_omp(p, |m| body(v, m)),
    }
}

/// Run the paper's Figure 3.3 composite (all MPI property functions).
pub fn run_composite_all_mpi(params: &CompositeParams, opts: &RunOpts) -> Trace {
    let params = params.clone();
    ats_mpi::run(opts.sim_config(), move |p| {
        let c = p.comm_world();
        composite::all_mpi_properties(p, &params, &c);
    })
}

/// Run the paper's Figure 3.4 composite (two communicators in parallel).
pub fn run_composite_two_comms(params: &CompositeParams, opts: &RunOpts) -> Trace {
    let params = params.clone();
    ats_mpi::run(opts.sim_config(), move |p| {
        let c = p.comm_world();
        composite::two_communicator_composite(p, &params, &c);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_analyzer::{analyze, AnalyzerConfig};

    #[test]
    fn every_catalog_entry_is_runnable() {
        let opts = RunOpts::default().procs(4);
        for spec in ats_core::CATALOG {
            // Shrink work so the full sweep is fast.
            let mut params = ParamValues::defaults(spec);
            params.set("r", ats_core::ParamValue::Count(1));
            let trace = run_single(spec.name, &params, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                trace.num_events() > 0,
                "{} produced an empty trace",
                spec.name
            );
            assert!(
                ats_trace::check_wellformed(&trace).is_empty(),
                "{} produced a malformed trace",
                spec.name
            );
            assert!(
                trace.find_region(spec.name).is_some(),
                "{} has no property frame",
                spec.name
            );
        }
    }

    #[test]
    fn unknown_property_is_an_error() {
        let err = run_single(
            "flux_capacitor",
            &ParamValues::default(),
            &RunOpts::default(),
        );
        assert_eq!(
            err.unwrap_err().kind(),
            ats_core::ErrorKind::UnknownProperty
        );
    }

    #[test]
    fn config_error_displays_property_and_params() {
        let spec = spec_of("late_sender").unwrap();
        let params = ParamValues::defaults(spec);
        let err = Error::unknown_property("late_sender").in_config("late_sender", &params.to_cli());
        assert_eq!(err.kind(), ats_core::ErrorKind::Config);
        let msg = err.to_string();
        assert!(msg.contains("late_sender"), "{msg}");
        assert!(msg.contains("basework=0.01"), "{msg}");
        assert!(msg.contains("extrawork=0.04"), "{msg}");
        assert!(msg.contains("r=3"), "{msg}");
        // Attribution is idempotent: re-wrapping keeps the original config.
        let rewrapped = err.clone().in_config("other", "");
        assert_eq!(err, rewrapped);
    }

    #[test]
    fn run_in_comm_places_properties_on_split_communicators() {
        // Even ranks run late_sender, odd ranks stay balanced; both halves
        // meet at a final world barrier. The analyzer must localize the
        // finding under the even half's property frame only.
        let opts = RunOpts::default().procs(8);
        let spec = spec_of("late_sender").unwrap();
        let balanced = spec_of("balanced_mpi_barrier").unwrap();
        let pos = ParamValues::defaults(spec);
        let neg = ParamValues::defaults(balanced);
        let base = opts.base;
        let trace = ats_mpi::run(opts.sim_config(), move |p| {
            let world = p.comm_world();
            let color = (p.rank() % 2) as i64;
            let sub = p
                .comm_split(color, p.rank() as i64, &world)
                .expect("non-negative color");
            if color == 0 {
                run_in_comm(spec, &pos, &base, p, &sub);
            } else {
                run_in_comm(balanced, &neg, &base, p, &sub);
            }
            p.barrier(&world);
        });
        assert!(ats_trace::check_wellformed(&trace).is_empty());
        let report = analyze(&trace, &AnalyzerConfig::default());
        assert!(
            report
                .findings_for("LateSender")
                .iter()
                .any(|f| f.call_path.contains("late_sender/MPI_Recv")),
            "late sender not localized: {:?}",
            report.findings
        );
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.call_path.contains("balanced_mpi_barrier")),
            "balanced half produced findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn composites_run_under_registry_opts() {
        let opts = RunOpts::default().procs(8);
        let params = CompositeParams {
            basework: 0.001,
            extrawork: 0.004,
            reps: 1,
            ..Default::default()
        };
        let t1 = run_composite_all_mpi(&params, &opts);
        let t2 = run_composite_two_comms(&params, &opts);
        for t in [&t1, &t2] {
            assert!(ats_trace::check_wellformed(t).is_empty());
        }
    }
}
