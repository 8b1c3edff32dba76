//! Calibrated synthetic stand-ins for the paper's datasets.
//!
//! The paper evaluates on two real networks (§VI-A):
//!
//! - **Enron email**: 36,692 nodes, 367,662 directed edges, average
//!   node degree 10.0, with Louvain communities including one of 80
//!   nodes (135 bridge ends) and one of 2,631 nodes (2,250 bridge
//!   ends);
//! - **Hep collaboration** (arXiv high-energy physics): 15,233 nodes,
//!   58,891 undirected edges (symmetrized to 117,782 arcs), average
//!   node degree 7.73, with a community of 308 nodes (387 bridge
//!   ends).
//!
//! The raw traces are not redistributable here, so this module
//! builds synthetic graphs matched on the statistics the algorithms
//! actually consume: node count, edge count / average degree, edge
//! symmetry, and a heavy-tailed planted community structure with
//! communities *pinned* at the sizes the paper selects as rumor
//! communities. See DESIGN.md §3 for why this substitution preserves
//! the experimental shape. Real traces dropped into `data/` can be
//! loaded instead via [`crate::load_edge_list`].

#![expect(
    clippy::indexing_slicing,
    reason = "generator-owned arrays are sized to the synthesized node count before any indexing"
)]
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

use lcrb_community::Partition;
use lcrb_graph::generators::community_gnm;
use lcrb_graph::metrics::GraphSummary;
use lcrb_graph::DiGraph;

/// Configuration for the synthetic dataset builders.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetConfig {
    /// Linear scale factor on node and edge counts, in `(0, 1]`.
    /// `1.0` reproduces the paper's sizes; smaller values build
    /// proportionally shrunken networks for quick experiments (the
    /// pinned community sizes shrink with the same factor).
    pub scale: f64,
    /// RNG seed; datasets are deterministic functions of
    /// `(scale, seed)`.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            scale: 1.0,
            seed: 0,
        }
    }
}

impl DatasetConfig {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        DatasetConfig { scale, seed }
    }
}

/// A generated synthetic dataset.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// Human-readable name ("enron-like", "hep-like").
    pub name: &'static str,
    /// The network.
    pub graph: DiGraph,
    /// The planted community structure (what the paper obtains with
    /// Louvain on the real traces).
    pub planted: Partition,
    /// Community ids of the pinned paper-experiment communities, in
    /// the order documented per dataset (e.g. enron-like pins
    /// `[|C|≈2631, |C|≈80]`).
    pub pinned_communities: Vec<usize>,
}

impl SyntheticDataset {
    /// Structural summary (for logging and calibration checks).
    #[must_use]
    pub fn summary(&self) -> GraphSummary {
        GraphSummary::of(&self.graph)
    }
}

/// Draws heavy-tailed community sizes summing exactly to `total`,
/// starting from the pinned sizes.
fn power_law_sizes<R: Rng + ?Sized>(
    total: usize,
    pinned: &[usize],
    min_size: usize,
    max_size: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut sizes: Vec<usize> = pinned.to_vec();
    let mut used: usize = sizes.iter().sum();
    assert!(used <= total, "pinned sizes exceed the node budget");
    // Pareto(γ ≈ 2.5) tail: heavy-tailed like real Louvain partitions.
    while total - used > 0 {
        let remaining = total - used;
        if remaining <= min_size * 2 {
            sizes.push(remaining);
            break;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let raw = (min_size as f64 * u.powf(-1.0 / 1.5)).floor() as usize;
        let s = raw.clamp(min_size, max_size.min(remaining));
        sizes.push(s);
        used += s;
    }
    sizes
}

/// Allocates per-community internal edge budgets proportional to
/// community size, capped by what each community can hold, and
/// returns `(intra_budgets, inter_budget)`.
fn edge_budgets(
    sizes: &[usize],
    total_edges: usize,
    mixing: f64,
    symmetric: bool,
) -> (Vec<usize>, usize) {
    let n: usize = sizes.iter().sum();
    let intra_total = ((1.0 - mixing) * total_edges as f64) as usize;
    let cap_of = |s: usize| {
        if symmetric {
            s * (s - 1) / 2
        } else {
            s * (s - 1)
        }
    };
    let mut intra: Vec<usize> = sizes
        .iter()
        .map(|&s| {
            let want = (intra_total as f64 * s as f64 / n as f64) as usize;
            want.min(cap_of(s))
        })
        .collect();
    // Small communities cap out below their proportional share;
    // redistribute the shortfall into communities with slack so the
    // global mixing parameter stays on target.
    let mut assigned: usize = intra.iter().sum();
    if assigned < intra_total {
        let mut shortfall = intra_total - assigned;
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cap_of(sizes[i]) - intra[i]));
        for i in order {
            if shortfall == 0 {
                break;
            }
            let slack = cap_of(sizes[i]) - intra[i];
            // Keep each community below ~60% internal density so the
            // redistribution does not create near-cliques.
            let headroom = (cap_of(sizes[i]) * 3 / 5).saturating_sub(intra[i]);
            let add = slack.min(headroom).min(shortfall);
            intra[i] += add;
            shortfall -= add;
        }
        assigned = intra.iter().sum();
    }
    let mut inter = total_edges.saturating_sub(assigned);
    // Keep the inter budget inside the available cross-pair space
    // (only binds for degenerate scales).
    let cross_pairs = {
        let all = if symmetric {
            n * (n - 1) / 2
        } else {
            n * (n - 1)
        };
        let intra_pairs: usize = sizes
            .iter()
            .map(|&s| {
                if symmetric {
                    s * (s - 1) / 2
                } else {
                    s * (s - 1)
                }
            })
            .sum();
        all - intra_pairs
    };
    if inter > cross_pairs {
        // Push the overflow back into the largest communities.
        let mut overflow = inter - cross_pairs;
        inter = cross_pairs;
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..sizes.len()).collect();
            idx.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
            idx
        };
        for i in order {
            if overflow == 0 {
                break;
            }
            let cap = if symmetric {
                sizes[i] * (sizes[i] - 1) / 2
            } else {
                sizes[i] * (sizes[i] - 1)
            };
            let room = cap - intra[i];
            let add = room.min(overflow);
            intra[i] += add;
            overflow -= add;
        }
    }
    (intra, inter)
}

/// How node degrees are distributed inside the synthetic blocks.
#[derive(Clone, Copy, Debug, PartialEq)]
enum DegreeModel {
    /// Near-Poisson degrees (`G(n, m)` blocks).
    Homogeneous,
    /// Heavy-tailed Chung–Lu degrees with the given Pareto exponent
    /// — produces the hubs real email/collaboration graphs have.
    HeavyTailed { exponent: f64 },
}

#[allow(clippy::too_many_arguments)]
fn build(
    name: &'static str,
    nodes: usize,
    edges: usize,
    pinned: &[usize],
    min_size: usize,
    max_size: usize,
    mixing: f64,
    symmetric: bool,
    seed: u64,
    degrees: DegreeModel,
) -> SyntheticDataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sizes = power_law_sizes(nodes, pinned, min_size, max_size, &mut rng);
    let (intra, inter) = edge_budgets(&sizes, edges, mixing, symmetric);
    #[expect(
        clippy::expect_used,
        reason = "the calibration loop only emits budgets it has already verified feasible"
    )]
    let (graph, labels) = match degrees {
        DegreeModel::Homogeneous => community_gnm(&sizes, &intra, inter, symmetric, &mut rng),
        DegreeModel::HeavyTailed { exponent } => lcrb_graph::generators::community_chung_lu(
            &sizes, &intra, inter, exponent, symmetric, &mut rng,
        ),
    }
    .expect("calibrated budgets are feasible by construction");
    let planted = Partition::from_labels(labels);
    // Pinned communities come first in `sizes`, and community_gnm
    // labels blocks in order, so their ids are 0..pinned.len().
    SyntheticDataset {
        name,
        graph,
        planted,
        pinned_communities: (0..pinned.len()).collect(),
    }
}

/// Paper statistics of the Enron email network.
pub mod enron_stats {
    /// Node count reported in §VI-A1.
    pub const NODES: usize = 36_692;
    /// Directed edge count reported in §VI-A1.
    pub const EDGES: usize = 367_662;
    /// The large rumor community used in Fig. 6/9 and Table I.
    pub const LARGE_COMMUNITY: usize = 2_631;
    /// The small rumor community used in Fig. 5/8 and Table I.
    pub const SMALL_COMMUNITY: usize = 80;
}

/// Paper statistics of the Hep collaboration network.
pub mod hep_stats {
    /// Node count reported in §VI-A2.
    pub const NODES: usize = 15_233;
    /// Undirected edge count reported in §VI-A2 (each becomes two
    /// arcs after symmetrization).
    pub const UNDIRECTED_EDGES: usize = 58_891;
    /// The rumor community used in Fig. 4/7 and Table I.
    pub const COMMUNITY: usize = 308;
}

/// Builds the Enron-like directed network: heavy-tailed communities
/// with pinned blocks near sizes 2631 and 80 (ids 0 and 1 of
/// [`SyntheticDataset::pinned_communities`]), calibrated to 36,692
/// nodes / 367,662 arcs at scale 1.
///
/// # Panics
///
/// Panics if `config.scale` is not in `(0, 1]` or so small that the
/// pinned communities degenerate (fewer than 8 nodes).
///
/// # Examples
///
/// ```
/// use lcrb_datasets::{enron_like, DatasetConfig};
///
/// let ds = enron_like(&DatasetConfig::new(0.02, 7));
/// assert_eq!(ds.name, "enron-like");
/// assert!(ds.graph.node_count() > 500);
/// ```
#[must_use]
pub fn enron_like(config: &DatasetConfig) -> SyntheticDataset {
    let scale = config.scale;
    assert!(
        scale > 0.0 && scale <= 1.0,
        "scale must be in (0, 1], got {scale}"
    );
    let nodes = (enron_stats::NODES as f64 * scale).round() as usize;
    let edges = (enron_stats::EDGES as f64 * scale).round() as usize;
    let big = (enron_stats::LARGE_COMMUNITY as f64 * scale).round() as usize;
    let small = (enron_stats::SMALL_COMMUNITY as f64 * scale)
        .round()
        .max(8.0) as usize;
    assert!(big >= 8, "scale {scale} degenerates the pinned communities");
    build(
        "enron-like",
        nodes,
        edges,
        &[big, small],
        (20.0 * scale).max(5.0) as usize,
        (4_000.0 * scale).max(50.0) as usize,
        0.20,
        false,
        config.seed,
        DegreeModel::Homogeneous,
    )
}

/// Builds the Hep-like symmetric network: pinned block near size 308
/// (id 0 of [`SyntheticDataset::pinned_communities`]), calibrated to
/// 15,233 nodes / 58,891 undirected edges at scale 1.
///
/// # Panics
///
/// Panics if `config.scale` is not in `(0, 1]` or degenerates the
/// pinned community.
///
/// # Examples
///
/// ```
/// use lcrb_datasets::{hep_like, DatasetConfig};
///
/// let ds = hep_like(&DatasetConfig::new(0.05, 3));
/// // Symmetric: every arc has its reverse.
/// assert!(ds.graph.edges().all(|(u, v)| ds.graph.has_edge(v, u)));
/// ```
#[must_use]
pub fn hep_like(config: &DatasetConfig) -> SyntheticDataset {
    let scale = config.scale;
    assert!(
        scale > 0.0 && scale <= 1.0,
        "scale must be in (0, 1], got {scale}"
    );
    let nodes = (hep_stats::NODES as f64 * scale).round() as usize;
    let pairs = (hep_stats::UNDIRECTED_EDGES as f64 * scale).round() as usize;
    let comm = (hep_stats::COMMUNITY as f64 * scale).round().max(8.0) as usize;
    build(
        "hep-like",
        nodes,
        pairs,
        &[comm],
        (15.0 * scale).max(4.0) as usize,
        (1_500.0 * scale).max(40.0) as usize,
        0.33,
        true,
        config.seed,
        DegreeModel::Homogeneous,
    )
}

/// Degree-heterogeneous variant of [`enron_like`]: identical node,
/// edge, mixing, and pinned-community calibration, but block edges
/// follow a Chung–Lu model with Pareto exponent 2.5, producing the
/// hub structure of the real Enron graph (whose top senders have
/// degrees in the hundreds). Use this variant to study how
/// degree-based heuristics (MaxDegree, PageRank) behave when hubs
/// actually exist; see the `ablation/degree_model` benchmarks.
///
/// # Panics
///
/// Same conditions as [`enron_like`].
#[must_use]
pub fn enron_like_heterogeneous(config: &DatasetConfig) -> SyntheticDataset {
    let scale = config.scale;
    assert!(
        scale > 0.0 && scale <= 1.0,
        "scale must be in (0, 1], got {scale}"
    );
    let nodes = (enron_stats::NODES as f64 * scale).round() as usize;
    let edges = (enron_stats::EDGES as f64 * scale).round() as usize;
    let big = (enron_stats::LARGE_COMMUNITY as f64 * scale).round() as usize;
    let small = (enron_stats::SMALL_COMMUNITY as f64 * scale)
        .round()
        .max(8.0) as usize;
    assert!(big >= 8, "scale {scale} degenerates the pinned communities");
    build(
        "enron-like-heterogeneous",
        nodes,
        edges,
        &[big, small],
        (20.0 * scale).max(5.0) as usize,
        (4_000.0 * scale).max(50.0) as usize,
        0.20,
        false,
        config.seed,
        DegreeModel::HeavyTailed { exponent: 2.5 },
    )
}

/// Degree-heterogeneous variant of [`hep_like`] (see
/// [`enron_like_heterogeneous`]).
///
/// # Panics
///
/// Same conditions as [`hep_like`].
#[must_use]
pub fn hep_like_heterogeneous(config: &DatasetConfig) -> SyntheticDataset {
    let scale = config.scale;
    assert!(
        scale > 0.0 && scale <= 1.0,
        "scale must be in (0, 1], got {scale}"
    );
    let nodes = (hep_stats::NODES as f64 * scale).round() as usize;
    let pairs = (hep_stats::UNDIRECTED_EDGES as f64 * scale).round() as usize;
    let comm = (hep_stats::COMMUNITY as f64 * scale).round().max(8.0) as usize;
    build(
        "hep-like-heterogeneous",
        nodes,
        pairs,
        &[comm],
        (15.0 * scale).max(4.0) as usize,
        (1_500.0 * scale).max(40.0) as usize,
        0.33,
        true,
        config.seed,
        DegreeModel::HeavyTailed { exponent: 2.5 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_community::metrics::mixing_parameter;

    #[test]
    fn power_law_sizes_sum_exactly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sizes = power_law_sizes(5_000, &[800, 50], 20, 1_000, &mut rng);
        assert_eq!(sizes.iter().sum::<usize>(), 5_000);
        assert_eq!(sizes[0], 800);
        assert_eq!(sizes[1], 50);
        assert!(sizes.len() > 10);
    }

    #[test]
    #[should_panic(expected = "exceed the node budget")]
    fn power_law_sizes_reject_oversized_pins() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = power_law_sizes(100, &[200], 10, 50, &mut rng);
    }

    #[test]
    fn edge_budgets_respect_caps_and_total() {
        let sizes = vec![50, 30, 20];
        let (intra, inter) = edge_budgets(&sizes, 900, 0.25, false);
        let assigned: usize = intra.iter().sum();
        assert_eq!(assigned + inter, 900);
        for (s, &m) in sizes.iter().zip(&intra) {
            assert!(m <= s * (s - 1));
        }
    }

    #[test]
    fn enron_like_matches_paper_statistics_at_small_scale() {
        let ds = enron_like(&DatasetConfig::new(0.05, 11));
        let s = ds.summary();
        let want_nodes = (36_692.0_f64 * 0.05).round();
        let want_edges = (367_662.0_f64 * 0.05).round();
        assert!((s.nodes as f64 - want_nodes).abs() / want_nodes < 0.02);
        assert_eq!(s.edges as f64, want_edges);
        // Average degree ≈ 10 regardless of scale.
        assert!(
            (s.average_out_degree - 10.0).abs() < 0.5,
            "{}",
            s.average_out_degree
        );
        // Pinned communities at scaled paper sizes.
        let sizes = ds.planted.community_sizes();
        assert_eq!(
            sizes[ds.pinned_communities[0]],
            (2631.0_f64 * 0.05).round() as usize
        );
        assert_eq!(sizes[ds.pinned_communities[1]], 8); // max(80 * 0.05, 8)
    }

    #[test]
    fn hep_like_is_symmetric_with_paper_degree() {
        let ds = hep_like(&DatasetConfig::new(0.05, 5));
        let s = ds.summary();
        assert_eq!(s.reciprocity, 1.0);
        // avg out-degree = 2 * pairs / nodes ≈ 7.73.
        assert!(
            (s.average_out_degree - 7.73).abs() < 0.6,
            "{}",
            s.average_out_degree
        );
        let sizes = ds.planted.community_sizes();
        assert_eq!(
            sizes[ds.pinned_communities[0]],
            (308.0_f64 * 0.05).round() as usize
        );
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = enron_like(&DatasetConfig::new(0.02, 9));
        let b = enron_like(&DatasetConfig::new(0.02, 9));
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    fn different_seeds_differ() {
        let a = enron_like(&DatasetConfig::new(0.02, 1));
        let b = enron_like(&DatasetConfig::new(0.02, 2));
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn mixing_parameter_matches_calibration() {
        let ds = enron_like(&DatasetConfig::new(0.05, 13));
        let mu = mixing_parameter(&ds.graph, &ds.planted);
        assert!((mu - 0.20).abs() < 0.05, "mixing {mu}");
        let ds = hep_like(&DatasetConfig::new(0.05, 13));
        let mu = mixing_parameter(&ds.graph, &ds.planted);
        assert!((mu - 0.33).abs() < 0.06, "mixing {mu}");
    }

    #[test]
    fn heterogeneous_variants_have_hubs_and_same_calibration() {
        let homo = enron_like(&DatasetConfig::new(0.05, 7));
        let hetero = enron_like_heterogeneous(&DatasetConfig::new(0.05, 7));
        assert_eq!(homo.graph.node_count(), hetero.graph.node_count());
        assert_eq!(homo.graph.edge_count(), hetero.graph.edge_count());
        assert_eq!(
            homo.planted.community_sizes()[0],
            hetero.planted.community_sizes()[0]
        );
        let max_homo = homo.summary().max_out_degree;
        let max_hetero = hetero.summary().max_out_degree;
        assert!(
            max_hetero as f64 > 2.0 * max_homo as f64,
            "hetero max degree {max_hetero} vs homo {max_homo}"
        );
    }

    #[test]
    fn hep_heterogeneous_is_symmetric() {
        let ds = hep_like_heterogeneous(&DatasetConfig::new(0.04, 3));
        assert_eq!(ds.summary().reciprocity, 1.0);
        assert_eq!(ds.name, "hep-like-heterogeneous");
        // Same mixing calibration as the homogeneous variant.
        let mu = lcrb_community::metrics::mixing_parameter(&ds.graph, &ds.planted);
        assert!((mu - 0.33).abs() < 0.08, "mixing {mu}");
    }

    #[test]
    fn community_sizes_respect_min_floor() {
        let ds = enron_like(&DatasetConfig::new(0.1, 21));
        let sizes = ds.planted.community_sizes();
        let min_size = (20.0_f64 * 0.1).max(5.0) as usize;
        // Every block respects the floor except possibly the final
        // remainder block (which absorbs the leftover nodes).
        let violations = sizes.iter().filter(|&&s| s < min_size).count();
        assert!(violations <= 1, "{violations} undersized communities");
    }

    #[test]
    fn heterogeneous_edge_budgets_are_exact() {
        let scale = 0.05;
        let ds = enron_like_heterogeneous(&DatasetConfig::new(scale, 3));
        assert_eq!(
            ds.graph.edge_count(),
            (super::enron_stats::EDGES as f64 * scale).round() as usize
        );
        let ds = hep_like_heterogeneous(&DatasetConfig::new(scale, 3));
        assert_eq!(
            ds.graph.edge_count(),
            2 * (super::hep_stats::UNDIRECTED_EDGES as f64 * scale).round() as usize
        );
    }

    #[test]
    fn scale_preserves_average_degree() {
        for scale in [0.03, 0.08, 0.15] {
            let ds = enron_like(&DatasetConfig::new(scale, 2));
            let avg = ds.graph.edge_count() as f64 / ds.graph.node_count() as f64;
            assert!((avg - 10.0).abs() < 0.6, "scale {scale}: avg {avg}");
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn rejects_zero_scale() {
        let _ = enron_like(&DatasetConfig {
            scale: 0.0,
            seed: 0,
        });
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn config_new_rejects_oversized_scale() {
        let _ = DatasetConfig::new(1.5, 0);
    }
}
