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
//!   metrics per subsystem (mpisim / trace / pool / analyzer / fuzz),
//!   shared via a cloneable [`Handle`]. Subsystem configs carry an
//!   `Option<Handle>` exactly like they carry an `Option<TracePool>`;
//!   `None` (the default) costs one branch.
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
pub use registry::{
    global, global_enabled, global_if_enabled, set_global_enabled, Handle, Registry,
};

/// How a [`crate::registry::Handle`]-carrying session should observe
/// itself. The default is fully off: no registry, no recording, and the
/// disabled path costs a single `Option` branch at each site.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Record metrics at all.
    pub enabled: bool,
    /// Use a private registry (tests, overhead measurement) instead of
    /// the process-wide [`global`] one (bins, long-lived sessions). The
    /// global registry additionally arms [`global_enabled`] so
    /// free-function call sites (trace codec) record too.
    pub fresh_registry: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

impl ObsConfig {
    /// Observability fully disabled (the default).
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            fresh_registry: false,
        }
    }

    /// Record into the process-wide registry and arm global recording.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            fresh_registry: false,
        }
    }

    /// Record into a private registry (deterministic-snapshot tests).
    pub fn fresh() -> Self {
        ObsConfig {
            enabled: true,
            fresh_registry: true,
        }
    }

    /// Materialize the handle this config asks for (and apply the side
    /// effect: arming global recording for the global registry).
    pub fn handle(&self) -> Option<Handle> {
        if !self.enabled {
            return None;
        }
        if self.fresh_registry {
            Some(Handle::new())
        } else {
            set_global_enabled(true);
            Some(global().clone())
        }
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

    #[test]
    fn on_config_arms_and_shares_the_global_registry() {
        let a = ObsConfig::on().handle().unwrap();
        assert!(global_enabled());
        assert!(a.same_registry(global()));
    }
}
