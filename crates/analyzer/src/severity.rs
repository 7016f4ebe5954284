//! The severity cube: property × call path × location → waiting time.
//!
//! EXPERT's result representation (paper Fig. 3.5): every cell holds the
//! accumulated waiting time for one (property, call path, location) triple;
//! the *severity* of anything is its share of the machine's total
//! allocation time. The three panes of the EXPERT GUI are the three
//! marginalizations of this cube.

use crate::callpath::PathId;
use crate::patterns::Located;
use crate::property::PropertyKind;
use ats_runtime::VDur;
use ats_trace::LocationId;
use std::collections::HashMap;

/// The cube.
#[derive(Debug, Default, Clone)]
pub struct SeverityCube {
    cells: HashMap<(PropertyKind, PathId, LocationId), VDur>,
    /// Total allocation time (the severity denominator).
    total: VDur,
}

impl SeverityCube {
    /// Create an empty cube with the run's total allocation time.
    pub fn new(total_alloc: VDur) -> Self {
        SeverityCube {
            cells: HashMap::new(),
            total: total_alloc,
        }
    }

    /// Accumulate one located waiting time.
    pub fn add(&mut self, l: Located) {
        *self.cells.entry((l.property, l.path, l.loc)).or_default() += l.wait;
    }

    /// Accumulate many.
    pub fn extend(&mut self, ls: impl IntoIterator<Item = Located>) {
        for l in ls {
            self.add(l);
        }
    }

    /// The severity denominator.
    pub fn total_alloc(&self) -> VDur {
        self.total
    }

    /// Convert a waiting time into a severity fraction of total time.
    pub fn fraction(&self, wait: VDur) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            wait.as_secs() / self.total.as_secs()
        }
    }

    /// Number of nonzero cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate raw cells.
    pub fn cells(&self) -> impl Iterator<Item = (&(PropertyKind, PathId, LocationId), &VDur)> {
        self.cells.iter()
    }

    /// Total waiting time for a property (across paths and locations).
    pub fn by_property(&self, p: PropertyKind) -> VDur {
        self.cells
            .iter()
            .filter(|((prop, _, _), _)| *prop == p)
            .map(|(_, w)| *w)
            .sum()
    }

    /// Waiting time aggregated over locations: `(property, path) -> wait`.
    pub fn by_property_path(&self) -> HashMap<(PropertyKind, PathId), VDur> {
        let mut out: HashMap<(PropertyKind, PathId), VDur> = HashMap::new();
        for ((p, path, _), w) in &self.cells {
            *out.entry((*p, *path)).or_default() += *w;
        }
        out
    }

    /// Per-location breakdown for one (property, path).
    pub fn locations_of(&self, p: PropertyKind, path: PathId) -> Vec<(LocationId, VDur)> {
        let mut v: Vec<(LocationId, VDur)> = self
            .cells
            .iter()
            .filter(|((prop, pa, _), _)| *prop == p && *pa == path)
            .map(|((_, _, loc), w)| (*loc, *w))
            .collect();
        v.sort_by_key(|(loc, _)| *loc);
        v
    }

    /// Interior-node totals: the waiting time of a property subtree. Leaf
    /// times roll up to their ancestors, except a leaf under another leaf:
    /// `MessagesWrongOrder` charges part of the `LateSender` time of the
    /// same receives, so adding it again would count one blocked
    /// nanosecond twice.
    pub fn subtree_total(&self, node: PropertyKind) -> VDur {
        PropertyKind::leaves()
            .iter()
            .filter(|leaf| leaf.parent().is_some_and(PropertyKind::is_interior))
            .filter(|leaf| leaf.is_within(node))
            .map(|leaf| self.by_property(*leaf))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(p: PropertyKind, path: u32, rank: u32, ms: u64) -> Located {
        Located {
            property: p,
            path: PathId(path),
            loc: LocationId::rank(rank),
            wait: VDur::from_millis(ms),
        }
    }

    #[test]
    fn accumulates_cells() {
        let mut cube = SeverityCube::new(VDur::from_millis(1000));
        cube.add(l(PropertyKind::LateSender, 0, 1, 10));
        cube.add(l(PropertyKind::LateSender, 0, 1, 5));
        cube.add(l(PropertyKind::LateSender, 0, 2, 7));
        assert_eq!(cube.len(), 2);
        assert_eq!(
            cube.by_property(PropertyKind::LateSender),
            VDur::from_millis(22)
        );
    }

    #[test]
    fn fraction_uses_total() {
        let cube = SeverityCube::new(VDur::from_millis(200));
        assert!((cube.fraction(VDur::from_millis(50)) - 0.25).abs() < 1e-12);
        let empty = SeverityCube::new(VDur::ZERO);
        assert_eq!(empty.fraction(VDur::from_millis(50)), 0.0);
    }

    #[test]
    fn property_path_aggregation() {
        let mut cube = SeverityCube::new(VDur::from_millis(1000));
        cube.extend([
            l(PropertyKind::WaitAtBarrier, 3, 0, 4),
            l(PropertyKind::WaitAtBarrier, 3, 1, 6),
            l(PropertyKind::WaitAtBarrier, 4, 0, 1),
        ]);
        let agg = cube.by_property_path();
        assert_eq!(
            agg[&(PropertyKind::WaitAtBarrier, PathId(3))],
            VDur::from_millis(10)
        );
        assert_eq!(
            agg[&(PropertyKind::WaitAtBarrier, PathId(4))],
            VDur::from_millis(1)
        );
        let locs = cube.locations_of(PropertyKind::WaitAtBarrier, PathId(3));
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0], (LocationId::rank(0), VDur::from_millis(4)));
    }

    #[test]
    fn subtree_rollup() {
        let mut cube = SeverityCube::new(VDur::from_millis(1000));
        cube.extend([
            l(PropertyKind::LateSender, 0, 0, 10),
            // Part of the late-sender wait of the same receive: counted once.
            l(PropertyKind::MessagesWrongOrder, 0, 0, 10),
            l(PropertyKind::LateBroadcast, 1, 1, 20),
            l(PropertyKind::OmpWaitAtBarrier, 2, 0, 5),
        ]);
        assert_eq!(
            cube.subtree_total(PropertyKind::MpiCommunication),
            VDur::from_millis(30)
        );
        assert_eq!(
            cube.subtree_total(PropertyKind::MpiTime),
            VDur::from_millis(30)
        );
        assert_eq!(
            cube.subtree_total(PropertyKind::OmpTime),
            VDur::from_millis(5)
        );
        assert_eq!(
            cube.subtree_total(PropertyKind::Time),
            VDur::from_millis(35)
        );
    }
}
