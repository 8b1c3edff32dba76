//! Rumor source detection — the paper's closing future-work item
//! ("another direction is looking into the problem of locating rumor
//! originators", §VII), implemented as a distance-centrality
//! estimator.
//!
//! Given a snapshot of who is infected, each candidate originator is
//! scored by how well it explains the snapshot under hop-time
//! spreading: a true originator should reach every infected node, in
//! few hops, uniformly. Candidates are ranked lexicographically by
//!
//! 1. how many infected nodes they *cannot* reach (fewer is better),
//! 2. the maximum hop distance to an infected node (the Jordan-center
//!    criterion; smaller is better),
//! 3. the total hop distance (closeness tie-break),
//!
//! which is exact on trees under deterministic spreading and a strong
//! heuristic on general graphs.

#![expect(
    clippy::indexing_slicing,
    reason = "distance arrays are node_count-sized and indexed by NodeIds of the same graph"
)]
use lcrb_graph::traversal::bfs_distances;
use lcrb_graph::{DiGraph, NodeId};

/// One scored source candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceScore {
    /// The candidate node.
    pub candidate: NodeId,
    /// Number of infected nodes unreachable from the candidate.
    pub unreachable: usize,
    /// Maximum hop distance from the candidate to a reachable
    /// infected node (0 when none are reachable).
    pub eccentricity: u32,
    /// Sum of hop distances to all reachable infected nodes.
    pub total_distance: u64,
}

impl SourceScore {
    /// The lexicographic sort key (lower is a better explanation).
    #[must_use]
    pub fn key(&self) -> (usize, u32, u64) {
        (self.unreachable, self.eccentricity, self.total_distance)
    }
}

/// A ranking of source candidates, best explanation first.
#[derive(Clone, Debug)]
pub struct SourceRanking {
    /// Scores sorted best-first (ties broken toward smaller node id).
    pub ranked: Vec<SourceScore>,
}

impl SourceRanking {
    /// The best candidate, if any were supplied.
    #[must_use]
    pub fn best(&self) -> Option<NodeId> {
        self.ranked.first().map(|s| s.candidate)
    }

    /// 0-based rank of `node` in the ranking, or `None` if it was not
    /// a candidate.
    #[must_use]
    pub fn rank_of(&self, node: NodeId) -> Option<usize> {
        self.ranked.iter().position(|s| s.candidate == node)
    }

    /// The top `k` candidates.
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<NodeId> {
        self.ranked.iter().take(k).map(|s| s.candidate).collect()
    }
}

/// Ranks `candidates` as explanations for the `infected` snapshot
/// (see the module docs for the criterion). Runs one BFS per
/// candidate; restrict the candidate set (e.g. to a suspected
/// community) for large graphs.
///
/// Candidates that are themselves outside the infected set are
/// allowed — observers may only have partial snapshots — but an
/// infected candidate at distance 0 naturally scores well.
///
/// # Panics
///
/// Panics if any candidate or infected id is out of bounds for `g`.
///
/// # Examples
///
/// ```
/// use lcrb::source::rank_sources;
/// use lcrb_graph::generators::path_graph;
/// use lcrb_graph::NodeId;
///
/// // Rumor walked 0 -> 1 -> 2 on a path: node 0 explains it best.
/// let g = path_graph(4);
/// let infected: Vec<NodeId> = (0..3).map(NodeId::new).collect();
/// let candidates: Vec<NodeId> = (0..4).map(NodeId::new).collect();
/// let ranking = rank_sources(&g, &infected, &candidates);
/// assert_eq!(ranking.best(), Some(NodeId::new(0)));
/// ```
#[must_use]
pub fn rank_sources(g: &DiGraph, infected: &[NodeId], candidates: &[NodeId]) -> SourceRanking {
    let mut ranked: Vec<SourceScore> = candidates
        .iter()
        .map(|&c| {
            let dist = bfs_distances(g, &[c]);
            let mut unreachable = 0usize;
            let mut eccentricity = 0u32;
            let mut total_distance = 0u64;
            for &v in infected {
                match dist[v.index()] {
                    Some(d) => {
                        eccentricity = eccentricity.max(d);
                        total_distance += u64::from(d);
                    }
                    None => unreachable += 1,
                }
            }
            SourceScore {
                candidate: c,
                unreachable,
                eccentricity,
                total_distance,
            }
        })
        .collect();
    ranked.sort_by_key(|s| (s.key(), s.candidate));
    SourceRanking { ranked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RumorBlockingInstance;
    use lcrb_community::Partition;
    use lcrb_diffusion::{DoamModel, OpoaoModel, SimWorkspace, TwoCascadeModel};
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn path_source_is_identified_exactly() {
        let g = generators::path_graph(6);
        let infected: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let candidates: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let ranking = rank_sources(&g, &infected, &candidates);
        assert_eq!(ranking.best(), Some(NodeId::new(0)));
        assert_eq!(ranking.rank_of(NodeId::new(0)), Some(0));
        // Nodes past the infection front cannot reach it at all.
        let last = ranking.ranked.last().unwrap();
        assert!(last.unreachable > 0);
    }

    #[test]
    fn star_center_explains_leaf_infections() {
        let g = generators::star_graph(7);
        let infected: Vec<NodeId> = (0..7).map(NodeId::new).collect();
        let candidates: Vec<NodeId> = (0..7).map(NodeId::new).collect();
        let ranking = rank_sources(&g, &infected, &candidates);
        // The hub reaches everything in 1 hop; leaves need 2.
        assert_eq!(ranking.best(), Some(NodeId::new(0)));
        let hub = &ranking.ranked[0];
        assert_eq!(hub.eccentricity, 1);
        assert_eq!(hub.unreachable, 0);
    }

    #[test]
    fn empty_inputs() {
        let g = generators::path_graph(3);
        let ranking = rank_sources(&g, &[], &[]);
        assert!(ranking.best().is_none());
        assert!(ranking.top(3).is_empty());
        // No infected nodes: every candidate is a perfect (vacuous)
        // explanation, ranked by id.
        let all: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let ranking = rank_sources(&g, &[], &all);
        assert_eq!(ranking.best(), Some(NodeId::new(0)));
        assert_eq!(ranking.ranked[2].key(), (0, 0, 0));
    }

    #[test]
    fn doam_outbreak_source_is_recovered_on_random_graphs() {
        let mut hits = 0;
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = generators::gnm_directed(120, 480, &mut rng).unwrap();
            let true_source = NodeId::new((seed as usize * 13) % 120);
            let seeds = lcrb_diffusion::SeedSets::rumors_only(&g, vec![true_source]).unwrap();
            // Truncate the broadcast to 3 hops so the snapshot still
            // carries locality information.
            let outcome = DoamModel::new(3).run_deterministic(&g, &seeds);
            let infected = outcome.infected_nodes();
            if infected.len() < 5 {
                continue;
            }
            let candidates: Vec<NodeId> = g.nodes().collect();
            let ranking = rank_sources(&g, &infected, &candidates);
            let rank = ranking.rank_of(true_source).unwrap();
            if rank < 12 {
                hits += 1; // top 10%
            }
        }
        assert!(hits >= 7, "true source in top-10% only {hits}/10 times");
    }

    #[test]
    fn community_restricted_candidates_work_with_instances() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (g, labels) =
            generators::planted_partition(&[40, 40], 0.25, 0.02, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 1, &mut rng).unwrap();
        let true_source = inst.rumor_seeds()[0];
        let seeds = inst.seed_sets(vec![]).unwrap();
        // The responder suspects the right community and ranks only
        // its members.
        let candidates = inst.rumor_community_members();

        // Deterministic 2-hop broadcast snapshot: sharp localization.
        let outcome = DoamModel::new(2).run_deterministic(inst.graph(), &seeds);
        let ranking = rank_sources(inst.graph(), &outcome.infected_nodes(), &candidates);
        let rank = ranking.rank_of(true_source).expect("source is a candidate");
        assert!(
            rank < candidates.len() / 4,
            "doam snapshot: true source ranked {rank} of {}",
            candidates.len()
        );

        // Stochastic OPOAO snapshot: noisier, so only demand better
        // than the median candidate.
        let mut ws = SimWorkspace::new();
        OpoaoModel::new(8).run_into(inst.snapshot(), &seeds, &mut ws, &mut rng);
        let ranking = rank_sources(inst.graph(), &ws.to_outcome().infected_nodes(), &candidates);
        let rank = ranking.rank_of(true_source).expect("source is a candidate");
        assert!(
            rank < candidates.len() / 2,
            "opoao snapshot: true source ranked {rank} of {}",
            candidates.len()
        );
    }
}
