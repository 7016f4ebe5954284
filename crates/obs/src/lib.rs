//! # ats-obs — self-observability for ATS-RS
//!
//! The suite exists to *test* performance-analysis tools; this crate makes
//! the suite observable to itself, so the hot paths the ROADMAP promises
//! to keep "fast as hardware allows" stay visible instead of regressing
//! silently between `BENCH_*.json` runs.
//!
//! Three layers:
//!
//! - [`metrics`] — atomic [`Counter`]/[`Gauge`]/[`Histogram`]; one relaxed
//!   atomic op per update, zero allocation, zero locks.
//! - [`registry`] — the statically-shaped [`Registry`] grouping all
//!   metrics per subsystem (mpisim / trace / pool / analyzer / fuzz /
//!   store / serve), shared via a cloneable [`Handle`]. Subsystem configs
//!   carry an `Option<Handle>`; `None` (the default) costs one branch.
//!   There is no process-wide registry: every metric records through the
//!   handle its caller owns, so each count belongs to the session that
//!   recorded it.
//! - [`export`] + [`manifest`] — Prometheus text exposition and the JSON
//!   run manifest written next to artifacts, with the deterministic
//!   counter snapshot split from the timing-dependent runtime section.
//!
//! [`Histogram::span`] is the RAII timer a named span records through.
//!
//! The crate depends only on `ats-runtime` (for the lock helper and the
//! canonical `Json` model that manifests render through) and sits below
//! every other ATS crate.

pub mod export;
pub mod manifest;
pub mod metrics;
pub mod registry;

pub use export::prometheus;
pub use manifest::{build_manifest, git_describe, process_cpu_seconds, RunManifest};
pub use metrics::{Counter, Gauge, Histogram, SpanGuard};
pub use registry::{Handle, Registry};

/// How a [`Handle`]-carrying session should observe itself. The default
/// is fully off: no registry, no recording, and the disabled path costs
/// a single `Option` branch at each site.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Record metrics at all, into a registry of the session's own.
    pub enabled: bool,
}

impl ObsConfig {
    /// Observability fully disabled (the default).
    pub fn off() -> Self {
        ObsConfig { enabled: false }
    }

    /// Record into a registry of the session's own.
    pub fn fresh() -> Self {
        ObsConfig { enabled: true }
    }

    /// A handle to a new, all-zero registry when enabled.
    pub fn handle(&self) -> Option<Handle> {
        self.enabled.then(Handle::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_yields_no_handle() {
        assert!(ObsConfig::off().handle().is_none());
        assert!(!ObsConfig::default().enabled);
    }

    #[test]
    fn fresh_config_yields_private_registries() {
        let a = ObsConfig::fresh().handle().unwrap();
        let b = ObsConfig::fresh().handle().unwrap();
        assert!(!a.same_registry(&b));
    }
}
