//! Per-tenant concurrency budgets.
//!
//! Tenants are identified by the `X-Ats-Tenant` request header (absent →
//! `"anon"`). Each tenant gets an independent in-flight request cap, so
//! one client hammering the service cannot starve the others: requests
//! over the cap are answered `429` immediately (connection kept alive —
//! the tenant is over budget, the server is not).
//!
//! Campaign execution reuses the [`ats_harness::pool`] budget arithmetic:
//! a tenant's sweep runs with `effective_jobs(requested, threads-per-
//! scenario, budget / active-tenants)`, so simulated-rank threads stay
//! bounded however many tenants stream campaigns concurrently.

use ats_harness::pool::{default_thread_budget, effective_jobs, threads_per_config};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Tenant name used when no `X-Ats-Tenant` header is present.
pub const DEFAULT_TENANT: &str = "anon";

#[derive(Debug, Default)]
struct State {
    /// In-flight requests per tenant (entries removed at zero).
    inflight: HashMap<String, usize>,
}

/// The shared tenant governor.
#[derive(Debug, Clone)]
pub struct TenantGov {
    max_inflight: usize,
    state: Arc<Mutex<State>>,
}

impl TenantGov {
    /// A governor allowing `max_inflight` concurrent requests per tenant.
    pub fn new(max_inflight: usize) -> TenantGov {
        TenantGov {
            max_inflight: max_inflight.max(1),
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    /// Try to admit one request for `tenant`. `None` means the tenant is
    /// over budget (answer 429); the permit releases its slot on drop.
    pub fn admit(&self, tenant: &str) -> Option<TenantPermit> {
        let mut st = self.state.lock().unwrap();
        let count = st.inflight.entry(tenant.to_owned()).or_insert(0);
        if *count >= self.max_inflight {
            if *count == 0 {
                st.inflight.remove(tenant);
            }
            return None;
        }
        *count += 1;
        Some(TenantPermit {
            tenant: tenant.to_owned(),
            state: Arc::clone(&self.state),
        })
    }

    /// Number of tenants with at least one in-flight request.
    pub fn active_tenants(&self) -> usize {
        self.state.lock().unwrap().inflight.len()
    }

    /// The worker count a campaign of `nprocs`-rank scenarios for this
    /// tenant may use right now: the session's requested jobs, clamped by
    /// the process thread budget split evenly across currently active
    /// tenants.
    pub fn campaign_jobs(&self, requested: usize, nprocs: usize) -> usize {
        let tenants = self.active_tenants().max(1);
        let budget = (default_thread_budget() / tenants).max(1);
        effective_jobs(requested, threads_per_config(nprocs), budget)
    }
}

/// One admitted request; dropping it releases the tenant slot.
#[derive(Debug)]
pub struct TenantPermit {
    tenant: String,
    state: Arc<Mutex<State>>,
}

impl Drop for TenantPermit {
    fn drop(&mut self) {
        let mut st = self.state.lock().unwrap();
        if let Some(count) = st.inflight.get_mut(&self.tenant) {
            *count -= 1;
            if *count == 0 {
                st.inflight.remove(&self.tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_caps_are_independent() {
        let gov = TenantGov::new(2);
        let a1 = gov.admit("a").unwrap();
        let _a2 = gov.admit("a").unwrap();
        assert!(gov.admit("a").is_none(), "tenant a is at its cap");
        let _b1 = gov.admit("b").unwrap();
        assert_eq!(gov.active_tenants(), 2);
        drop(a1);
        assert!(gov.admit("a").is_some(), "slot released on drop");
    }

    #[test]
    fn campaign_jobs_shrink_with_active_tenants() {
        let gov = TenantGov::new(8);
        let solo = gov.campaign_jobs(4, 8);
        let _a = gov.admit("a").unwrap();
        let _b = gov.admit("b").unwrap();
        let _c = gov.admit("c").unwrap();
        let shared = gov.campaign_jobs(4, 8);
        assert!(shared <= solo, "{shared} > {solo}");
        assert!(shared >= 1);
    }
}
