//! Diffusion outcomes: per-node statuses, activation times, and
//! hop-by-hop traces (the raw material for the paper's Figures 4–9).

#![expect(
    clippy::indexing_slicing,
    reason = "status/activation arrays are node_count-sized by the workspace that assembles the outcome"
)]
use lcrb_graph::NodeId;

use crate::SeedSets;

/// The status of a node during or after a two-cascade diffusion
/// (§III of the paper: infected by the rumor cascade R, protected by
/// the protector cascade P, or still inactive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Status {
    /// Not reached by either cascade.
    #[default]
    Inactive,
    /// Activated by the rumor cascade R.
    Infected,
    /// Activated by the protector cascade P.
    Protected,
}

impl Status {
    /// `true` for [`Status::Infected`].
    #[inline]
    #[must_use]
    pub fn is_infected(self) -> bool {
        self == Status::Infected
    }

    /// `true` for [`Status::Protected`].
    #[inline]
    #[must_use]
    pub fn is_protected(self) -> bool {
        self == Status::Protected
    }

    /// `true` unless the node is [`Status::Inactive`].
    #[inline]
    #[must_use]
    pub fn is_active(self) -> bool {
        self != Status::Inactive
    }
}

/// Activity counts after one diffusion hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// Hop number (0 = seed placement).
    pub hop: u32,
    /// Nodes newly infected at this hop.
    pub new_infected: usize,
    /// Nodes newly protected at this hop.
    pub new_protected: usize,
    /// Cumulative infected count after this hop.
    pub total_infected: usize,
    /// Cumulative protected count after this hop.
    pub total_protected: usize,
}

/// The complete result of one two-cascade diffusion run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffusionOutcome {
    status: Vec<Status>,
    activation_hop: Vec<Option<u32>>,
    trace: Vec<HopRecord>,
    quiescent: bool,
}

impl DiffusionOutcome {
    /// Assembles an outcome from raw per-node data and a trace.
    ///
    /// # Panics
    ///
    /// Panics if `status` and `activation_hop` have different lengths
    /// or the trace is empty.
    #[must_use]
    pub fn new(
        status: Vec<Status>,
        activation_hop: Vec<Option<u32>>,
        trace: Vec<HopRecord>,
        quiescent: bool,
    ) -> Self {
        assert_eq!(
            status.len(),
            activation_hop.len(),
            "status / activation length mismatch"
        );
        assert!(!trace.is_empty(), "trace must include the seed hop");
        DiffusionOutcome {
            status,
            activation_hop,
            trace,
            quiescent,
        }
    }

    /// Final status of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    #[must_use]
    pub fn status(&self, node: NodeId) -> Status {
        self.status[node.index()]
    }

    /// All final statuses, indexed by node.
    #[inline]
    #[must_use]
    pub fn statuses(&self) -> &[Status] {
        &self.status
    }

    /// The hop at which `node` activated (`Some(0)` for seeds), or
    /// `None` if it stayed inactive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    #[must_use]
    pub fn activation_hop(&self, node: NodeId) -> Option<u32> {
        self.activation_hop[node.index()]
    }

    /// Total number of infected nodes.
    #[must_use]
    pub fn infected_count(&self) -> usize {
        self.trace.last().map_or(0, |r| r.total_infected)
    }

    /// Total number of protected nodes.
    #[must_use]
    pub fn protected_count(&self) -> usize {
        self.trace.last().map_or(0, |r| r.total_protected)
    }

    /// Ids of all infected nodes, in increasing order.
    #[must_use]
    pub fn infected_nodes(&self) -> Vec<NodeId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_infected())
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Ids of all protected nodes, in increasing order.
    #[must_use]
    pub fn protected_nodes(&self) -> Vec<NodeId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_protected())
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// The hop-by-hop trace, starting with hop 0 (seed placement).
    #[inline]
    #[must_use]
    pub fn trace(&self) -> &[HopRecord] {
        &self.trace
    }

    /// Cumulative infected count after `hop`; if the run went
    /// quiescent earlier, the final value is carried forward.
    #[must_use]
    pub fn infected_at_hop(&self, hop: u32) -> usize {
        let idx = (hop as usize).min(self.trace.len() - 1);
        self.trace[idx].total_infected
    }

    /// `true` if the run stopped because no further activation was
    /// possible (as opposed to exhausting the hop budget).
    #[inline]
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }
}

/// Incremental state shared by all model implementations in this
/// crate. Tracks statuses, activation hops, and the trace while a
/// simulation assigns activations hop by hop.
#[derive(Clone, Debug)]
pub(crate) struct StateTracker {
    pub status: Vec<Status>,
    pub activation_hop: Vec<Option<u32>>,
    trace: Vec<HopRecord>,
    total_infected: usize,
    total_protected: usize,
}

impl StateTracker {
    /// Initializes hop 0 from the seed sets.
    pub fn from_seeds(node_count: usize, seeds: &SeedSets) -> Self {
        let mut tracker = StateTracker {
            status: vec![Status::Inactive; node_count],
            activation_hop: vec![None; node_count],
            trace: Vec::new(),
            total_infected: 0,
            total_protected: 0,
        };
        for &r in seeds.rumors() {
            tracker.status[r.index()] = Status::Infected;
            tracker.activation_hop[r.index()] = Some(0);
        }
        for &p in seeds.protectors() {
            tracker.status[p.index()] = Status::Protected;
            tracker.activation_hop[p.index()] = Some(0);
        }
        tracker.total_infected = seeds.rumors().len();
        tracker.total_protected = seeds.protectors().len();
        tracker.trace.push(HopRecord {
            hop: 0,
            new_infected: tracker.total_infected,
            new_protected: tracker.total_protected,
            total_infected: tracker.total_infected,
            total_protected: tracker.total_protected,
        });
        tracker
    }

    #[inline]
    pub fn is_inactive(&self, node: NodeId) -> bool {
        self.status[node.index()] == Status::Inactive
    }

    /// Activates a batch of nodes at `hop` and appends a trace
    /// record. Nodes must currently be inactive.
    pub fn activate_hop(
        &mut self,
        hop: u32,
        newly_protected: &[NodeId],
        newly_infected: &[NodeId],
    ) {
        for &v in newly_protected {
            debug_assert!(self.is_inactive(v));
            self.status[v.index()] = Status::Protected;
            self.activation_hop[v.index()] = Some(hop);
        }
        for &v in newly_infected {
            debug_assert!(self.is_inactive(v));
            self.status[v.index()] = Status::Infected;
            self.activation_hop[v.index()] = Some(hop);
        }
        self.total_infected += newly_infected.len();
        self.total_protected += newly_protected.len();
        self.trace.push(HopRecord {
            hop,
            new_infected: newly_infected.len(),
            new_protected: newly_protected.len(),
            total_infected: self.total_infected,
            total_protected: self.total_protected,
        });
    }

    pub fn finish(self, quiescent: bool) -> DiffusionOutcome {
        DiffusionOutcome::new(self.status, self.activation_hop, self.trace, quiescent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::DiGraph;

    fn seeds(g: &DiGraph) -> SeedSets {
        SeedSets::new(g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap()
    }

    #[test]
    fn tracker_initializes_from_seeds() {
        let g = DiGraph::with_nodes(4);
        let t = StateTracker::from_seeds(4, &seeds(&g));
        assert_eq!(t.status[0], Status::Infected);
        assert_eq!(t.status[1], Status::Protected);
        assert_eq!(t.status[2], Status::Inactive);
        assert_eq!(t.activation_hop[0], Some(0));
        let outcome = t.finish(true);
        assert_eq!(outcome.infected_count(), 1);
        assert_eq!(outcome.protected_count(), 1);
        assert!(outcome.is_quiescent());
    }

    #[test]
    fn activate_hop_updates_trace() {
        let g = DiGraph::with_nodes(5);
        let mut t = StateTracker::from_seeds(5, &seeds(&g));
        t.activate_hop(1, &[NodeId::new(2)], &[NodeId::new(3)]);
        let outcome = t.finish(false);
        assert_eq!(outcome.trace().len(), 2);
        let rec = outcome.trace()[1];
        assert_eq!(rec.hop, 1);
        assert_eq!(rec.new_infected, 1);
        assert_eq!(rec.new_protected, 1);
        assert_eq!(rec.total_infected, 2);
        assert_eq!(outcome.activation_hop(NodeId::new(3)), Some(1));
        assert_eq!(outcome.activation_hop(NodeId::new(4)), None);
        assert!(!outcome.is_quiescent());
    }

    #[test]
    fn infected_at_hop_carries_final_value_forward() {
        let g = DiGraph::with_nodes(3);
        let mut t = StateTracker::from_seeds(3, &seeds(&g));
        t.activate_hop(1, &[], &[NodeId::new(2)]);
        let outcome = t.finish(true);
        assert_eq!(outcome.infected_at_hop(0), 1);
        assert_eq!(outcome.infected_at_hop(1), 2);
        assert_eq!(outcome.infected_at_hop(30), 2);
    }

    #[test]
    fn node_lists_are_sorted_and_complete() {
        let g = DiGraph::with_nodes(6);
        let mut t = StateTracker::from_seeds(6, &seeds(&g));
        t.activate_hop(1, &[NodeId::new(5)], &[NodeId::new(3), NodeId::new(4)]);
        let o = t.finish(true);
        assert_eq!(
            o.infected_nodes(),
            vec![NodeId::new(0), NodeId::new(3), NodeId::new(4)]
        );
        assert_eq!(o.protected_nodes(), vec![NodeId::new(1), NodeId::new(5)]);
    }

    #[test]
    fn status_helpers() {
        assert!(Status::Infected.is_infected());
        assert!(!Status::Infected.is_protected());
        assert!(Status::Protected.is_active());
        assert!(!Status::Inactive.is_active());
        assert_eq!(Status::default(), Status::Inactive);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn outcome_validates_lengths() {
        let _ = DiffusionOutcome::new(
            vec![Status::Inactive; 3],
            vec![None; 2],
            vec![HopRecord {
                hop: 0,
                new_infected: 0,
                new_protected: 0,
                total_infected: 0,
                total_protected: 0,
            }],
            true,
        );
    }
}
