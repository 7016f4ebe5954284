//! Region (code-section) interning.
//!
//! Regions are the call-path atoms of a trace: MPI calls, OpenMP constructs,
//! work phases, and the ATS property functions themselves. Names are
//! interned once per run in a shared [`RegionTable`] so events carry a
//! compact [`RegionId`].

use ats_runtime::unpoison;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// Index into the run's region table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(pub u32);

/// Broad classification of a region, used by the analyzer to decide which
/// patterns may apply and by the timeline renderer to pick glyphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Pure computation (`do_work` and friends).
    Work,
    /// MPI point-to-point call.
    MpiP2p,
    /// MPI collective call.
    MpiCollective,
    /// MPI environment management (init/finalize).
    MpiSetup,
    /// OpenMP parallel region.
    OmpParallel,
    /// OpenMP synchronization (barrier, critical wait, lock wait).
    OmpSync,
    /// OpenMP worksharing construct (for/sections/single/master).
    OmpWorkshare,
    /// An ATS performance-property function frame.
    Property,
    /// Anything user-defined.
    User,
}

/// Metadata for one interned region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMeta {
    /// Interned name, e.g. `"MPI_Recv"` or `"late_sender"`.
    pub name: String,
    /// Classification.
    pub kind: RegionKind,
}

#[derive(Debug, Default)]
struct TableInner {
    by_name: HashMap<String, RegionId>,
    metas: Vec<RegionMeta>,
}

/// A thread-safe interning table shared by all participants of a run.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    inner: Arc<RwLock<TableInner>>,
}

impl RegionTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name` with `kind`, returning its id. Re-interning an existing
    /// name returns the original id (the first kind wins).
    pub fn intern(&self, name: &str, kind: RegionKind) -> RegionId {
        if let Some(&id) = unpoison(self.inner.read()).by_name.get(name) {
            return id;
        }
        let mut w = unpoison(self.inner.write());
        if let Some(&id) = w.by_name.get(name) {
            return id;
        }
        let id = RegionId(w.metas.len() as u32);
        w.metas.push(RegionMeta {
            name: name.to_owned(),
            kind,
        });
        w.by_name.insert(name.to_owned(), id);
        id
    }

    /// Look up an id by exact name.
    pub fn lookup(&self, name: &str) -> Option<RegionId> {
        unpoison(self.inner.read()).by_name.get(name).copied()
    }

    /// The name of `id`, or `"<unknown>"` for a foreign id.
    ///
    /// Returns a borrow instead of cloning: this lookup sits on the
    /// analyzer-report and timeline-render hot paths, where a `String`
    /// allocation per call dominated.
    pub fn name(&self, id: RegionId) -> &str {
        let guard = unpoison(self.inner.read());
        match guard.metas.get(id.0 as usize) {
            // SAFETY: extending the borrow past the read guard is sound
            // because the table is append-only: `intern` only ever pushes
            // new entries and nothing mutates or removes an existing
            // `RegionMeta`, so the `String`'s heap buffer never moves (a
            // `Vec` reallocation moves the `RegionMeta` structs, not the
            // heap data their `String`s point to). The buffer stays alive
            // for at least `&self`'s lifetime since `self` holds an `Arc`
            // on the table.
            Some(m) => unsafe { &*(m.name.as_str() as *const str) },
            None => "<unknown>",
        }
    }

    /// The kind of `id`.
    pub fn kind(&self, id: RegionId) -> Option<RegionKind> {
        unpoison(self.inner.read())
            .metas
            .get(id.0 as usize)
            .map(|m| m.kind)
    }

    /// Number of interned regions.
    pub fn len(&self) -> usize {
        unpoison(self.inner.read()).metas.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the table contents (for embedding in a [`crate::Trace`]).
    pub fn snapshot(&self) -> Vec<RegionMeta> {
        unpoison(self.inner.read()).metas.clone()
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let t = RegionTable::new();
        let a = t.intern("MPI_Send", RegionKind::MpiP2p);
        let b = t.intern("MPI_Send", RegionKind::MpiP2p);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let t = RegionTable::new();
        let a = t.intern("a", RegionKind::Work);
        let b = t.intern("b", RegionKind::Work);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.name(b), "b");
    }

    #[test]
    fn lookup_and_kind() {
        let t = RegionTable::new();
        let id = t.intern("late_sender", RegionKind::Property);
        assert_eq!(t.lookup("late_sender"), Some(id));
        assert_eq!(t.lookup("nope"), None);
        assert_eq!(t.kind(id), Some(RegionKind::Property));
    }

    #[test]
    fn unknown_id_name() {
        let t = RegionTable::new();
        assert_eq!(t.name(RegionId(99)), "<unknown>");
        assert_eq!(t.kind(RegionId(99)), None);
    }

    #[test]
    fn name_reference_survives_table_growth() {
        // `name` hands out a borrow into the table; interning hundreds more
        // regions forces the metas Vec to reallocate repeatedly, which must
        // not invalidate it (the String heap data does not move).
        let t = RegionTable::new();
        let id = t.intern("first", RegionKind::Work);
        let name = t.name(id);
        for i in 0..1000 {
            t.intern(&format!("r{i}"), RegionKind::User);
        }
        assert_eq!(name, "first");
        assert_eq!(t.name(id), "first");
    }

    #[test]
    fn snapshot_roundtrip() {
        let t = RegionTable::new();
        t.intern("x", RegionKind::Work);
        t.intern("y", RegionKind::OmpSync);
        // The collector's path: the snapshot becomes a trace's region list.
        let trace = crate::Trace::new(t.snapshot(), vec![]);
        assert_eq!(trace.find_region("x"), Some(RegionId(0)));
        assert_eq!(trace.find_region("y"), Some(RegionId(1)));
        assert_eq!(trace.region_kind(RegionId(1)), Some(RegionKind::OmpSync));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let t = RegionTable::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        t.intern(&format!("r{}", i % 10), RegionKind::User);
                    }
                });
            }
        });
        assert_eq!(t.len(), 10);
    }
}
