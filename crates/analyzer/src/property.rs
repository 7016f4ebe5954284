//! The performance-property hierarchy.
//!
//! Mirrors the EXPERT/ASL property tree the paper's Figure 3.5 shows in its
//! left pane: generic time properties at the top, refining into paradigm-
//! specific wait states at the leaves. Every leaf computes a *waiting time*
//! from trace evidence; severities are waiting time divided by total
//! allocation time, exactly EXPERT's model.

use std::fmt;
use std::str::FromStr;

/// A detectable performance property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PropertyKind {
    // -- interior nodes (aggregate time categories) ----------------------
    /// Root: total allocated time.
    Time,
    /// Time spent in MPI operations.
    MpiTime,
    /// Time spent in MPI communication (P2P + collective).
    MpiCommunication,
    /// Time spent in OpenMP constructs.
    OmpTime,
    // -- MPI point-to-point leaves ----------------------------------------
    /// Receiver blocked by a late send.
    LateSender,
    /// (Synchronous) sender blocked by a late receive.
    LateReceiver,
    /// Receiver blocked while a message it receives later already waits in
    /// its queue (EXPERT: "Messages in Wrong Order").
    MessagesWrongOrder,
    // -- MPI collective leaves ---------------------------------------------
    /// Waiting in front of a barrier for the last arriver.
    WaitAtBarrier,
    /// Waiting in an all-to-all style operation (alltoall, allreduce,
    /// allgather, scan) for the last arriver.
    WaitAtNxN,
    /// Non-root members waiting in a bcast for a late root.
    LateBroadcast,
    /// Non-root members waiting in a scatter\[v\] for a late root.
    LateScatter,
    /// Root waiting in a reduce for late members.
    EarlyReduce,
    /// Root waiting in a gather\[v\] for late members.
    EarlyGather,
    /// Time in MPI_Init/MPI_Finalize — the paper's "High MPI
    /// Initialization/Finalization Overhead" (visible in its Fig. 3.2).
    MpiSetupOverhead,
    // -- OpenMP leaves -------------------------------------------------------
    /// Threads idle at the parallel-region join (load imbalance).
    OmpImbalanceInRegion,
    /// Threads waiting at an explicit or worksharing barrier.
    OmpWaitAtBarrier,
    /// Threads waiting to enter a contended critical section.
    OmpCriticalContention,
}

impl PropertyKind {
    /// Every property in declaration order: the four interior nodes, then
    /// the leaves.
    const ALL: [PropertyKind; 17] = {
        use PropertyKind::*;
        [
            Time,
            MpiTime,
            MpiCommunication,
            OmpTime,
            LateSender,
            LateReceiver,
            MessagesWrongOrder,
            WaitAtBarrier,
            WaitAtNxN,
            LateBroadcast,
            LateScatter,
            EarlyReduce,
            EarlyGather,
            MpiSetupOverhead,
            OmpImbalanceInRegion,
            OmpWaitAtBarrier,
            OmpCriticalContention,
        ]
    };

    /// The parent in the property tree (`None` for the root).
    pub fn parent(self) -> Option<PropertyKind> {
        use PropertyKind::*;
        Some(match self {
            Time => return None,
            MpiTime | OmpTime => Time,
            MpiCommunication | MpiSetupOverhead => MpiTime,
            LateSender | LateReceiver | WaitAtBarrier | WaitAtNxN | LateBroadcast | LateScatter
            | EarlyReduce | EarlyGather => MpiCommunication,
            // As in EXPERT: a receive blocked while a later message already
            // waited is a late-sender wait in the wrong order, so the
            // interior totals count its time once, as its parent's.
            MessagesWrongOrder => LateSender,
            OmpImbalanceInRegion | OmpWaitAtBarrier | OmpCriticalContention => OmpTime,
        })
    }

    /// The children in the property tree, in declaration order.
    pub(crate) fn children(self) -> impl Iterator<Item = PropertyKind> {
        Self::ALL
            .into_iter()
            .filter(move |p| p.parent() == Some(self))
    }

    /// Is this an aggregate time category (`Time`, `MPI`,
    /// `Communication`, `OpenMP`) rather than a detectable wait state?
    pub(crate) fn is_interior(self) -> bool {
        !Self::leaves().contains(&self)
    }

    /// Is this `node` or a descendant of it?
    pub(crate) fn is_within(self, node: PropertyKind) -> bool {
        let mut cur = Some(self);
        while let Some(c) = cur {
            if c == node {
                return true;
            }
            cur = c.parent();
        }
        false
    }

    /// Stable name (matches `ats-core`'s catalog `expected_property`).
    pub fn name(self) -> &'static str {
        use PropertyKind::*;
        match self {
            Time => "Time",
            MpiTime => "MPI",
            MpiCommunication => "Communication",
            OmpTime => "OpenMP",
            LateSender => "LateSender",
            LateReceiver => "LateReceiver",
            MessagesWrongOrder => "MessagesWrongOrder",
            WaitAtBarrier => "WaitAtBarrier",
            WaitAtNxN => "WaitAtNxN",
            LateBroadcast => "LateBroadcast",
            LateScatter => "LateScatter",
            EarlyReduce => "EarlyReduce",
            EarlyGather => "EarlyGather",
            MpiSetupOverhead => "MpiSetupOverhead",
            OmpImbalanceInRegion => "OmpImbalanceInRegion",
            OmpWaitAtBarrier => "OmpWaitAtBarrier",
            OmpCriticalContention => "OmpCriticalContention",
        }
    }

    /// All leaf properties (the detectable wait states). A leaf may
    /// refine another: `MessagesWrongOrder` sits under `LateSender`.
    pub fn leaves() -> &'static [PropertyKind] {
        &Self::ALL[4..]
    }

    /// Depth in the tree (root = 0).
    pub fn depth(self) -> usize {
        let mut d = 0;
        let mut cur = self;
        while let Some(p) = cur.parent() {
            d += 1;
            cur = p;
        }
        d
    }
}

impl fmt::Display for PropertyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a property name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePropertyError(pub String);

impl fmt::Display for ParsePropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown property `{}`", self.0)
    }
}

impl std::error::Error for ParsePropertyError {}

impl FromStr for PropertyKind {
    type Err = ParsePropertyError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| ParsePropertyError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leaf_reaches_the_root() {
        for leaf in PropertyKind::leaves() {
            let mut cur = *leaf;
            let mut hops = 0;
            while let Some(p) = cur.parent() {
                cur = p;
                hops += 1;
                assert!(hops < 10, "cycle under {leaf}");
            }
            assert_eq!(cur, PropertyKind::Time);
        }
    }

    #[test]
    fn depths_are_consistent() {
        assert_eq!(PropertyKind::Time.depth(), 0);
        assert_eq!(PropertyKind::MpiTime.depth(), 1);
        assert_eq!(PropertyKind::LateSender.depth(), 3);
        assert_eq!(PropertyKind::MessagesWrongOrder.depth(), 4);
        assert_eq!(PropertyKind::OmpWaitAtBarrier.depth(), 2);
    }

    #[test]
    fn interior_nodes_are_the_four_time_categories() {
        let interior: Vec<_> = PropertyKind::ALL
            .into_iter()
            .filter(|p| p.is_interior())
            .collect();
        use PropertyKind::*;
        assert_eq!(interior, [Time, MpiTime, MpiCommunication, OmpTime]);
        assert!(MessagesWrongOrder.is_within(LateSender));
        assert!(!LateSender.is_within(MessagesWrongOrder));
        assert_eq!(
            LateSender.children().collect::<Vec<_>>(),
            [MessagesWrongOrder]
        );
    }

    #[test]
    fn names_roundtrip() {
        for leaf in PropertyKind::leaves() {
            let parsed: PropertyKind = leaf.name().parse().unwrap();
            assert_eq!(parsed, *leaf);
        }
        assert!("Bogus".parse::<PropertyKind>().is_err());
    }

    #[test]
    fn catalog_expected_names_parse() {
        // Keep the analyzer's vocabulary in sync with ats-core's catalog.
        for spec in ats_core::CATALOG {
            if let Some(name) = spec.expected_property {
                assert!(
                    name.parse::<PropertyKind>().is_ok(),
                    "catalog expects unknown property {name}"
                );
            }
        }
    }
}
