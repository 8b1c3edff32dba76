//! The Set Cover Based Greedy (SCBG) algorithm for LCRB-D
//! (Algorithm 3 of the paper).
//!
//! Pipeline:
//!
//! 1. find the bridge ends `B` via RFSTs (step 3);
//! 2. for each bridge end `v`, build its Bridge-end Backward Search
//!    Tree (BBST) `Q_v`: a backward BFS from `v` whose depth is the
//!    hop distance from the nearest rumor originator to `v` —
//!    everything in `Q_v` except the rumor seeds can protect `v`
//!    under DOAM, because seeding a protector at `u ∈ Q_v` gives
//!    `d_P(v) ≤ d_R(v)` and ties favor P (step 4);
//! 3. invert the trees into the 1-hop star sets `SW_u = {v : u ∈
//!    Q_v}` (step 5);
//! 4. run greedy set cover (Algorithm 2) over the `SW_u` to cover `B`
//!    (step 6).
//!
//! Steps 2–3 are one bit-parallel kernel ([`star_sets`]): a
//! multi-source backward BFS over the CSR in-neighbours that grows 64
//! BBSTs at once, one bit per bridge end, and leaves each node with a
//! row of `⌈|B|/64⌉` words whose bit `b` is set iff the node lies in
//! `Q_b` — which *is* its star set, so no inversion pass is needed.
//! Step 4 runs the lazy greedy over those rows
//! ([`crate::setcover::BitSets`]). The meter is polled once per
//! 64-end batch of the BFS and once per cover pick.
//!
//! Because the DOAM oracle is exact (see `lcrb-diffusion::doam`),
//! every SCBG cover is a *certified* solution: all bridge ends are
//! provably protected. The approximation factor is `H(|B|) = O(ln
//! |B|)` by the set-cover reduction (Theorems 2–3).

#![expect(clippy::indexing_slicing, reason = "rows sized per snapshot node")]
use lcrb_diffusion::{StopReason, WorkMeter};
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::{CsrGraph, NodeId};

use crate::setcover::{greedy_set_cover_metered, weighted_set_cover, BitSets};
use crate::{find_bridge_ends, BridgeEndRule, BridgeEnds, RumorBlockingInstance};

/// Tuning knobs for [`scbg`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScbgConfig {
    /// How bridge ends are detected.
    pub rule: BridgeEndRule,
    /// Optional cap on BBST depth (ablation knob): `Some(d)` truncates
    /// every backward search at depth `d`, shrinking the candidate
    /// pool at the risk of a larger cover. `None` uses the paper's
    /// full depth (the distance to the nearest rumor).
    pub max_bbst_depth: Option<u32>,
}

/// The result of an SCBG run.
#[derive(Clone, Debug)]
pub struct ScbgSolution {
    /// The selected protector originators, in selection order.
    pub protectors: Vec<NodeId>,
    /// The bridge ends the cover was computed against.
    pub bridge_ends: BridgeEnds,
    /// How many bridge ends the selection covers. Equal to
    /// `bridge_ends.len()` unless a depth cap made some bridge end
    /// uncoverable.
    pub covered: usize,
    /// Size of the candidate pool `|⋃ Q_v \ S_R|` the set cover chose
    /// from.
    pub candidate_count: usize,
}

impl ScbgSolution {
    /// `true` when every bridge end is covered (always the case
    /// without a depth cap: `v ∈ Q_v`, so protecting `v` itself is
    /// always available).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.covered == self.bridge_ends.len()
    }
}

/// Runs SCBG on `instance` and returns the selected protector seed
/// set (Algorithm 3).
///
/// # Examples
///
/// ```
/// use lcrb::{scbg, RumorBlockingInstance, ScbgConfig};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Rumor community {0, 1}; escapes via 2 and 3, both one hop from
/// // the shared gateway 1 — protecting either bridge end... or
/// // better, nothing upstream exists, so SCBG protects both.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// let sol = scbg(&inst, &ScbgConfig::default());
/// assert!(sol.is_complete());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn scbg(instance: &RumorBlockingInstance, config: &ScbgConfig) -> ScbgSolution {
    #[expect(
        clippy::expect_used,
        reason = "an unlimited meter's poll never stops SCBG"
    )]
    let (solution, _) = scbg_metered(instance, config, &WorkMeter::unlimited())
        .expect("unlimited meter cannot stop SCBG");
    solution
}

/// [`scbg`] under a [`WorkMeter`]: the star-set build polls once per
/// 64-end batch and the cover loop once per pick.
///
/// A deadline stop during the *cover* keeps the selection prefix (a
/// valid partial cover, reported via `Some(reason)` and a `covered`
/// count below `bridge_ends.len()`); a stop during the *star-set
/// build* has no salvageable prefix and surfaces as an error.
/// Work-unit caps never stop SCBG — it runs no simulations and no
/// sketches, matching the deterministic-checkpoint discipline.
///
/// # Errors
///
/// The observed [`StopReason`] on cancellation anywhere, or on any
/// stop before the star sets are complete.
pub(crate) fn scbg_metered(
    instance: &RumorBlockingInstance,
    config: &ScbgConfig,
    meter: &WorkMeter,
) -> Result<(ScbgSolution, Option<StopReason>), StopReason> {
    let bridge_ends = find_bridge_ends(instance, config.rule);
    let star = star_sets_metered(instance, &bridge_ends, config.max_bbst_depth, meter)?;
    let (solution, stop) = greedy_set_cover_metered(&star.sets, meter)?;
    Ok((
        star.solution(solution.selected, solution.covered, bridge_ends),
        stop,
    ))
}

/// The star sets of Algorithm 3 (steps 4–5): the candidate
/// protectors and, for each, the bridge ends its BBSTs reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StarSets {
    /// The candidate pool `⋃ Q_v \ S_R`, in ascending id order (the
    /// order the cover breaks ties in).
    pub candidates: Vec<NodeId>,
    /// `sets.elements(i)` is `SW_u` for `u = candidates[i]`, over the
    /// universe of bridge-end indices (positions in
    /// [`BridgeEnds::nodes`]).
    pub sets: BitSets,
}

impl StarSets {
    fn solution(
        &self,
        selected: Vec<usize>,
        covered: usize,
        bridge_ends: BridgeEnds,
    ) -> ScbgSolution {
        ScbgSolution {
            protectors: selected.into_iter().map(|i| self.candidates[i]).collect(),
            covered,
            candidate_count: self.candidates.len(),
            bridge_ends,
        }
    }
}

/// Builds every BBST `Q_v` of `bridge_ends` on the instance's CSR
/// snapshot and returns them inverted into star sets `SW_u = {v : u ∈
/// Q_v}` (steps 4–5 of Algorithm 3).
///
/// `Q_v` holds the nodes within `d_R(v)` backward hops of `v` (capped
/// at `max_bbst_depth` when given), where `d_R(v)` is the hop distance
/// from the nearest rumor originator. Searches pass through rumor
/// seeds, but rumor seeds are never candidates.
///
/// The BFS is bit-parallel: 64 bridge ends per batch, one bit each,
/// so the whole build is `⌈|B|/64⌉` multi-source sweeps. Peak memory
/// is `n · ⌈|B|/64⌉` words of rows plus three `n`-word scratch arrays.
///
/// # Panics
///
/// Panics if a bridge end is not reachable from the rumor seeds —
/// never the case for bridge ends from [`find_bridge_ends`].
///
/// # Examples
///
/// ```
/// use lcrb::{find_bridge_ends, star_sets, BridgeEndRule, RumorBlockingInstance};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Gateway 1 is one hop from the rumor and reaches both bridge ends.
/// let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (1, 4)])?;
/// let p = Partition::from_labels(vec![0, 0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// let bridge_ends = find_bridge_ends(&inst, BridgeEndRule::default());
/// let star = star_sets(&inst, &bridge_ends, None);
/// assert_eq!(star.candidates, vec![NodeId::new(1), NodeId::new(3), NodeId::new(4)]);
/// assert_eq!(star.sets.elements(0).count(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn star_sets(
    instance: &RumorBlockingInstance,
    bridge_ends: &BridgeEnds,
    max_bbst_depth: Option<u32>,
) -> StarSets {
    #[expect(
        clippy::expect_used,
        reason = "an unlimited meter's poll never stops the build"
    )]
    star_sets_metered(
        instance,
        bridge_ends,
        max_bbst_depth,
        &WorkMeter::unlimited(),
    )
    .expect("unlimited meter cannot stop the star-set build")
}

/// [`star_sets`] polling `meter` once per 64-end batch; any stop
/// surfaces as an error because a partial star-set collection cannot
/// seed a meaningful cover.
pub(crate) fn star_sets_metered(
    instance: &RumorBlockingInstance,
    bridge_ends: &BridgeEnds,
    max_bbst_depth: Option<u32>,
    meter: &WorkMeter,
) -> Result<StarSets, StopReason> {
    let csr = instance.snapshot();
    let n = csr.node_count();
    // Infection times: hop distance from the nearest rumor originator
    // in the full graph.
    let mut d_r = CsrBfsScratch::new();
    d_r.run(csr, instance.rumor_seeds(), Direction::Forward, u32::MAX);
    let depths: Vec<u32> = bridge_ends
        .nodes
        .iter()
        .map(|&v| {
            #[expect(
                clippy::expect_used,
                reason = "bridge ends are discovered by forward BFS from the rumor seeds, so a distance exists"
            )]
            let depth = d_r
                .distance(v)
                .expect("bridge ends are reachable from the rumor originators by definition");
            max_bbst_depth.map_or(depth, |cap| depth.min(cap))
        })
        .collect();

    let width = bridge_ends.len().div_ceil(64);
    // Node-major rows: word `k` of node `u`'s row is `rows[u * width + k]`.
    // xtask-allow: hotpath -- the n × ⌈|B|/64⌉ row arena, allocated once per SCBG run
    let mut rows = vec![0u64; n * width];
    let mut bfs = BatchBfs::new(n);
    for (k, (ends, depths)) in bridge_ends
        .nodes
        .chunks(64)
        .zip(depths.chunks(64))
        .enumerate()
    {
        meter.poll()?;
        bfs.run(csr, ends, depths);
        for &u in &bfs.touched {
            rows[u.index() * width + k] = std::mem::take(&mut bfs.seen[u.index()]);
        }
    }

    // Keep the rows of non-seed nodes some BBST reached, compacted in
    // ascending id order.
    // xtask-allow: hotpath -- one-time seed mask per SCBG run, sized to the snapshot
    let mut is_rumor = vec![false; n];
    for &r in instance.rumor_seeds() {
        is_rumor[r.index()] = true;
    }
    // xtask-allow: hotpath -- the candidate list is the kernel's output
    let mut candidates = Vec::new();
    for (u, &rumor) in is_rumor.iter().enumerate() {
        let start = u * width;
        if !rumor && rows[start..start + width].iter().any(|&w| w != 0) {
            rows.copy_within(start..start + width, candidates.len() * width);
            candidates.push(NodeId::new(u));
        }
    }
    rows.truncate(candidates.len() * width);
    let sets = BitSets::from_rows(bridge_ends.len(), candidates.len(), rows);
    Ok(StarSets { candidates, sets })
}

/// Scratch for one 64-source batch of the bit-parallel backward BFS
/// (MS-BFS): per node, the sources that have reached it (`seen`),
/// reached it at the current level (`frontier`), and will reach it at
/// the next (`next`). All words are zero between batches except
/// `seen` on `touched`, which the caller drains.
struct BatchBfs {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Nodes with a non-zero `seen` word, in first-reached order.
    touched: Vec<NodeId>,
    frontier_nodes: Vec<NodeId>,
    next_nodes: Vec<NodeId>,
}

impl BatchBfs {
    fn new(n: usize) -> Self {
        BatchBfs {
            // xtask-allow: hotpath -- per-run scratch, reused by every batch
            seen: vec![0; n],
            // xtask-allow: hotpath -- per-run scratch, reused by every batch
            frontier: vec![0; n],
            // xtask-allow: hotpath -- per-run scratch, reused by every batch
            next: vec![0; n],
            // xtask-allow: hotpath -- per-run node list, reused by every batch
            touched: Vec::new(),
            // xtask-allow: hotpath -- per-run node list, reused by every level
            frontier_nodes: Vec::new(),
            // xtask-allow: hotpath -- per-run node list, reused by every level
            next_nodes: Vec::new(),
        }
    }

    /// Grows the BBSTs of up to 64 `ends` at once, bit `j` for
    /// `ends[j]`, each to its own depth `depths[j]`: at level `ℓ` only
    /// the bits whose depth is at least `ℓ` expand further.
    fn run(&mut self, csr: &CsrGraph, ends: &[NodeId], depths: &[u32]) {
        self.touched.clear();
        self.frontier_nodes.clear();
        for (j, &v) in ends.iter().enumerate() {
            if self.seen[v.index()] == 0 {
                self.touched.push(v);
                self.frontier_nodes.push(v);
            }
            self.seen[v.index()] |= 1 << j;
            self.frontier[v.index()] |= 1 << j;
        }
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        for level in 1..=max_depth {
            let alive = depths
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d >= level)
                .fold(0u64, |mask, (j, _)| mask | (1 << j));
            self.next_nodes.clear();
            for &x in &self.frontier_nodes {
                let bits = std::mem::take(&mut self.frontier[x.index()]) & alive;
                if bits == 0 {
                    continue;
                }
                for &w in csr.in_neighbors(x) {
                    let fresh = bits & !self.seen[w.index()];
                    if fresh != 0 {
                        if self.next[w.index()] == 0 {
                            self.next_nodes.push(w);
                        }
                        self.next[w.index()] |= fresh;
                    }
                }
            }
            for &w in &self.next_nodes {
                let fresh = std::mem::take(&mut self.next[w.index()]);
                if self.seen[w.index()] == 0 {
                    self.touched.push(w);
                }
                self.seen[w.index()] |= fresh;
                self.frontier[w.index()] = fresh;
            }
            std::mem::swap(&mut self.frontier_nodes, &mut self.next_nodes);
            if self.frontier_nodes.is_empty() {
                break;
            }
        }
        for &x in &self.frontier_nodes {
            self.frontier[x.index()] = 0;
        }
    }
}

/// Cost-aware SCBG — an extension beyond the paper: protectors have
/// per-node recruitment costs and the cover minimizes total cost via
/// the weighted greedy (ratio rule), still within the classic
/// logarithmic factor of the optimal weighted cover.
///
/// `cost(v)` must be strictly positive and finite for every node the
/// BBSTs propose as a candidate.
///
/// # Panics
///
/// Panics (inside the set-cover layer) if `cost` produces a
/// non-positive or non-finite value for a candidate.
///
/// # Examples
///
/// ```
/// use lcrb::{scbg_weighted, RumorBlockingInstance, ScbgConfig};
/// use lcrb_community::Partition;
/// use lcrb_graph::{DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1]);
/// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
/// // Uniform costs reduce to plain SCBG.
/// let sol = scbg_weighted(&inst, &ScbgConfig::default(), |_| 1.0);
/// assert!(sol.is_complete());
/// # Ok(())
/// # }
/// ```
pub fn scbg_weighted<F>(
    instance: &RumorBlockingInstance,
    config: &ScbgConfig,
    cost: F,
) -> ScbgSolution
where
    F: Fn(NodeId) -> f64,
{
    let bridge_ends = find_bridge_ends(instance, config.rule);
    let star = star_sets(instance, &bridge_ends, config.max_bbst_depth);
    let costs: Vec<f64> = star.candidates.iter().map(|&u| cost(u)).collect();
    let solution = weighted_set_cover(&star.sets, &costs);
    star.solution(solution.selected, solution.covered, bridge_ends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::Partition;
    use lcrb_diffusion::{doam_analytic, DoamModel};
    use lcrb_graph::generators;
    use lcrb_graph::DiGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn instance(g: DiGraph, labels: Vec<usize>, seeds: Vec<usize>) -> RumorBlockingInstance {
        let p = Partition::from_labels(labels);
        RumorBlockingInstance::new(g, p, 0, seeds.into_iter().map(NodeId::new).collect()).unwrap()
    }

    /// Protection check shared by the tests: simulate DOAM with the
    /// chosen protectors and assert every bridge end survives.
    fn assert_all_bridge_ends_protected(inst: &RumorBlockingInstance, sol: &ScbgSolution) {
        let seeds = inst.seed_sets(sol.protectors.clone()).unwrap();
        let outcome = DoamModel::default().run_deterministic(inst.graph(), &seeds);
        for &v in &sol.bridge_ends.nodes {
            assert!(
                !outcome.status(v).is_infected(),
                "bridge end {v} was infected"
            );
        }
    }

    #[test]
    fn single_gateway_is_covered_by_one_protector() {
        // Rumor community {0,1}: 0 -> 1; gateway 1 -> 2; 2 -> {3, 4}
        // inside the neighbor community... wait, bridge ends are
        // first-outside nodes: only node 2. One protector suffices.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 1, 1, 1], vec![0]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert_eq!(sol.bridge_ends.nodes, vec![NodeId::new(2)]);
        assert!(sol.is_complete());
        assert_eq!(sol.protectors.len(), 1);
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn shared_upstream_node_covers_multiple_bridge_ends() {
        // Two bridge ends 3, 4 both fed by gateway 1 at distance 2
        // from the rumor; protecting node 1 covers both (d_P = 1 <=
        // d_R for each).
        let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (1, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 0, 1, 1], vec![0]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert_eq!(sol.bridge_ends.len(), 2);
        assert!(sol.is_complete());
        assert_eq!(sol.protectors, vec![NodeId::new(1)]);
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn rumor_seeds_are_never_selected() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        let inst = instance(g, vec![0, 0, 1, 1], vec![0, 1]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert!(sol.is_complete());
        for p in &sol.protectors {
            assert!(!inst.is_rumor_seed(*p), "selected rumor seed {p}");
        }
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn empty_bridge_set_needs_no_protectors() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        let inst = instance(g, vec![0, 0, 1, 1], vec![0]);
        let sol = scbg(&inst, &ScbgConfig::default());
        assert!(sol.protectors.is_empty());
        assert!(sol.is_complete());
        assert_eq!(sol.candidate_count, 0);
    }

    #[test]
    fn depth_cap_still_covers_via_self_protection() {
        // Even with depth 0, Q_v = {v} and SCBG protects the bridge
        // ends directly.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (1, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 0, 1, 1], vec![0]);
        let sol = scbg(
            &inst,
            &ScbgConfig {
                max_bbst_depth: Some(0),
                ..ScbgConfig::default()
            },
        );
        assert!(sol.is_complete());
        let mut got = sol.protectors.clone();
        got.sort_unstable();
        assert_eq!(got, vec![NodeId::new(3), NodeId::new(4)]);
        assert_all_bridge_ends_protected(&inst, &sol);
    }

    #[test]
    fn depth_cap_increases_or_keeps_cover_size() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (g, labels) =
            generators::planted_partition(&[30, 30, 30], 0.25, 0.02, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 3, &mut rng).unwrap();
        let full = scbg(&inst, &ScbgConfig::default());
        let capped = scbg(
            &inst,
            &ScbgConfig {
                max_bbst_depth: Some(1),
                ..ScbgConfig::default()
            },
        );
        assert!(full.is_complete());
        assert!(capped.is_complete());
        assert!(capped.protectors.len() >= full.protectors.len());
    }

    #[test]
    fn scbg_certifies_protection_on_random_community_graphs() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (g, labels) =
                generators::planted_partition(&[25, 25, 25], 0.3, 0.03, false, &mut rng).unwrap();
            let p = Partition::from_labels(labels);
            let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
            let sol = scbg(&inst, &ScbgConfig::default());
            assert!(sol.is_complete(), "seed {seed}: incomplete cover");
            assert_all_bridge_ends_protected(&inst, &sol);
            // The analytic oracle agrees.
            let seeds = inst.seed_sets(sol.protectors.clone()).unwrap();
            let outcome = doam_analytic(inst.graph(), &seeds);
            for &v in &sol.bridge_ends.nodes {
                assert!(!outcome.status(v).is_infected());
            }
        }
    }

    #[test]
    fn weighted_scbg_avoids_expensive_nodes() {
        // Gateway 1 covers both bridge ends but costs a fortune;
        // protecting the two bridge ends directly is cheaper.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (1, 4)]).unwrap();
        let inst = instance(g, vec![0, 0, 0, 1, 1], vec![0]);
        let cheap = scbg_weighted(&inst, &ScbgConfig::default(), |v| {
            if v == NodeId::new(1) {
                100.0
            } else {
                1.0
            }
        });
        assert!(cheap.is_complete());
        let mut got = cheap.protectors.clone();
        got.sort_unstable();
        assert_eq!(got, vec![NodeId::new(3), NodeId::new(4)]);
        // With uniform costs, the shared gateway wins again.
        let uniform = scbg_weighted(&inst, &ScbgConfig::default(), |_| 1.0);
        assert_eq!(uniform.protectors, vec![NodeId::new(1)]);
        assert_all_bridge_ends_protected(&inst, &cheap);
        assert_all_bridge_ends_protected(&inst, &uniform);
    }

    #[test]
    fn weighted_scbg_with_uniform_costs_matches_plain_size() {
        let mut rng = SmallRng::seed_from_u64(40);
        let (g, labels) =
            generators::planted_partition(&[25, 25], 0.3, 0.03, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let plain = scbg(&inst, &ScbgConfig::default());
        let weighted = scbg_weighted(&inst, &ScbgConfig::default(), |_| 1.0);
        assert!(weighted.is_complete());
        assert_eq!(plain.protectors.len(), weighted.protectors.len());
    }

    #[test]
    fn deterministic_output() {
        let mut rng = SmallRng::seed_from_u64(21);
        let (g, labels) =
            generators::planted_partition(&[20, 20], 0.3, 0.05, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let a = scbg(&inst, &ScbgConfig::default());
        let b = scbg(&inst, &ScbgConfig::default());
        assert_eq!(a.protectors, b.protectors);
    }
}
