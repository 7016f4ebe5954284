//! Simulation run configuration.

use ats_runtime::{MachineModel, SimBackend, VDur, WorkMode};
use ats_trace::TracePool;

/// The widest world the suite simulates (`ats bench sched`'s top row).
/// Every rank is a task with a stack of its own, so a scenario line or a
/// command line that names more ranks is rejected before any run starts.
pub const MAX_NPROCS: usize = 8192;

/// Configuration of one simulated MPI run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of MPI processes.
    pub nprocs: usize,
    /// Communication cost model.
    pub model: MachineModel,
    /// Whether `do_work` burns host CPU or only virtual time.
    pub work_mode: WorkMode,
    /// Root seed for all per-participant RNG streams.
    pub seed: u64,
    /// Simulated cost of `MPI_Init`. The paper's Fig. 3.2 remarks that the
    /// *High MPI Initialization/Finalization Overhead* property is "hard to
    /// avoid in the view of the small sizes of the test programs" — this
    /// knob reproduces it.
    pub init_time: VDur,
    /// Simulated cost of `MPI_Finalize`.
    pub finalize_time: VDur,
    /// Whether the run records a trace (instrumented) or not.
    pub instrumented: bool,
    /// Event-buffer pool the run's ranks draw from (`None` = fresh
    /// vectors). Pooling reuses capacity only; recorded traces are
    /// identical either way.
    pub trace_pool: Option<TracePool>,
    /// Observability registry the run records into (`None` = no
    /// recording). Like the pool, this never changes recorded traces.
    pub obs: Option<ats_obs::Handle>,
    /// The carrier of the run's scheduler tasks: one coroutine per task
    /// (the default, falling back to threads on targets without the
    /// context switch), or one OS thread per task passing a baton. Recorded
    /// traces are byte-identical either way, so only the scheduler bench
    /// and the carrier-parity tests choose it.
    pub backend: SimBackend,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nprocs: 4,
            model: MachineModel::default(),
            work_mode: WorkMode::Virtual,
            seed: 0x05EE_DA75,
            init_time: VDur::from_millis(1),
            finalize_time: VDur::from_millis(1),
            instrumented: true,
            trace_pool: None,
            obs: None,
            backend: SimBackend::default(),
        }
    }
}

impl SimConfig {
    /// A config with `nprocs` processes and defaults otherwise.
    pub fn with_procs(nprocs: usize) -> Self {
        SimConfig {
            nprocs,
            ..Default::default()
        }
    }

    /// Builder: set the machine model.
    pub fn model(mut self, model: MachineModel) -> Self {
        self.model = model;
        self
    }

    /// Builder: set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: run with real work: the busy loop at the rate
    /// [`ats_runtime::work::iters_per_sec`] measures once per process.
    pub fn real_work(mut self) -> Self {
        self.work_mode = WorkMode::Real;
        self
    }

    /// Builder: disable trace recording.
    pub fn uninstrumented(mut self) -> Self {
        self.instrumented = false;
        self
    }

    /// Builder: draw event buffers from `pool` instead of allocating.
    pub fn trace_pool(mut self, pool: TracePool) -> Self {
        self.trace_pool = Some(pool);
        self
    }

    /// Builder: record run/message/collective metrics into `obs`.
    pub fn obs(mut self, obs: ats_obs::Handle) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builder: select the scheduler's carrier.
    pub fn backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = SimConfig::default();
        assert_eq!(c.nprocs, 4);
        assert!(c.instrumented);
        assert_eq!(c.work_mode, WorkMode::Virtual);
        assert_eq!(c.backend, SimBackend::Event);
    }

    #[test]
    fn backend_builder() {
        let c = SimConfig::default().backend(SimBackend::Thread);
        assert_eq!(c.backend, SimBackend::Thread);
        assert_eq!(c.backend.effective(), SimBackend::Thread);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::with_procs(8).seed(7).uninstrumented();
        assert_eq!(c.nprocs, 8);
        assert_eq!(c.seed, 7);
        assert!(!c.instrumented);
    }

    #[test]
    fn real_work_builder() {
        assert_eq!(SimConfig::default().real_work().work_mode, WorkMode::Real);
    }
}
