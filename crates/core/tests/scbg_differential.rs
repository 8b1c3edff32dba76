//! Differential tests of the bit-parallel SCBG kernels against the
//! scalar reference they replaced: one backward BFS per bridge end
//! inverted through a `BTreeMap`, and a lazy greedy cover over
//! element lists. Candidates, star sets, covers and protectors must
//! match exactly — across the 64-end batch boundaries, every BBST
//! depth cap, both bridge-end rules, rumor seeds inside the BBSTs,
//! and the Hep-like dataset.

#![allow(clippy::expect_used, clippy::indexing_slicing, reason = "test code")]
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use lcrb::setcover::{greedy_set_cover, greedy_weighted_set_cover};
use lcrb::{
    find_bridge_ends, scbg, scbg_weighted, star_sets, BridgeEndRule, RumorBlockingInstance,
    ScbgConfig,
};
use lcrb_community::Partition;
use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_graph::generators::planted_partition;
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::{DiGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The reference star sets: candidates in ascending id order, their
/// `SW_u` as ascending bridge-end indices, and how many times a rumor
/// seed was met inside a BBST (and skipped as a candidate).
struct Reference {
    candidates: Vec<NodeId>,
    sets: Vec<Vec<u32>>,
    seed_hits: usize,
}

fn reference_star_sets(
    inst: &RumorBlockingInstance,
    rule: BridgeEndRule,
    max_bbst_depth: Option<u32>,
) -> Reference {
    let csr = inst.snapshot();
    let bridge_ends = find_bridge_ends(inst, rule);
    let mut d_r = CsrBfsScratch::new();
    d_r.run(csr, inst.rumor_seeds(), Direction::Forward, u32::MAX);
    let mut sw: BTreeMap<NodeId, Vec<u32>> = BTreeMap::new();
    let mut seed_hits = 0;
    let mut back = CsrBfsScratch::new();
    for (b, &v) in bridge_ends.nodes.iter().enumerate() {
        let depth = d_r.distance(v).expect("bridge ends are reachable");
        let depth = max_bbst_depth.map_or(depth, |cap| depth.min(cap));
        back.run(csr, &[v], Direction::Backward, depth);
        for &u in back.order() {
            if inst.is_rumor_seed(u) {
                seed_hits += 1;
            } else {
                sw.entry(u).or_default().push(b as u32);
            }
        }
    }
    let (candidates, sets) = sw.into_iter().unzip();
    Reference {
        candidates,
        sets,
        seed_hits,
    }
}

/// The reference lazy greedy cover: (selected, covered).
fn reference_cover(universe: usize, sets: &[Vec<u32>]) -> (Vec<usize>, usize) {
    let mut covered = vec![false; universe];
    let mut covered_count = 0;
    let mut selected = Vec::new();
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| (s.len(), Reverse(i)))
        .collect();
    while covered_count < universe {
        let Some((claimed, Reverse(i))) = heap.pop() else {
            break;
        };
        if claimed == 0 {
            break;
        }
        let gain = sets[i].iter().filter(|&&e| !covered[e as usize]).count();
        if gain < claimed {
            if gain > 0 {
                heap.push((gain, Reverse(i)));
            }
            continue;
        }
        selected.push(i);
        for &e in &sets[i] {
            if !covered[e as usize] {
                covered[e as usize] = true;
                covered_count += 1;
            }
        }
    }
    (selected, covered_count)
}

/// The reference weighted cover (ratio rule, first minimum wins).
fn reference_weighted_cover(universe: usize, sets: &[Vec<u32>], costs: &[f64]) -> Vec<usize> {
    let mut covered = vec![false; universe];
    let mut covered_count = 0;
    let mut selected = Vec::new();
    let mut active: Vec<usize> = (0..sets.len()).collect();
    while covered_count < universe {
        let mut best: Option<(f64, usize)> = None;
        active.retain(|&i| {
            let gain = sets[i].iter().filter(|&&e| !covered[e as usize]).count();
            if gain == 0 {
                return false;
            }
            let ratio = costs[i] / gain as f64;
            if best.is_none_or(|(b, _)| ratio < b) {
                best = Some((ratio, i));
            }
            true
        });
        let Some((_, i)) = best else { break };
        selected.push(i);
        for &e in &sets[i] {
            if !covered[e as usize] {
                covered[e as usize] = true;
                covered_count += 1;
            }
        }
    }
    selected
}

/// A deterministic, id-dependent protector cost with plenty of ties.
fn cost_of(v: NodeId) -> f64 {
    1.0 + (v.index() % 4) as f64
}

/// Checks every kernel output against the reference; returns the
/// reference's rumor-seed hit count.
fn assert_matches_reference(
    inst: &RumorBlockingInstance,
    rule: BridgeEndRule,
    max_bbst_depth: Option<u32>,
) -> usize {
    let bridge_ends = find_bridge_ends(inst, rule);
    let reference = reference_star_sets(inst, rule, max_bbst_depth);
    let star = star_sets(inst, &bridge_ends, max_bbst_depth);
    assert_eq!(star.candidates, reference.candidates, "candidates");
    assert_eq!(star.sets.len(), reference.sets.len());
    assert_eq!(star.sets.universe(), bridge_ends.len());
    for (i, set) in reference.sets.iter().enumerate() {
        let got: Vec<u32> = star.sets.elements(i).collect();
        assert_eq!(&got, set, "star set of {}", reference.candidates[i]);
    }

    let config = ScbgConfig {
        rule,
        max_bbst_depth,
    };
    let (selected, covered) = reference_cover(bridge_ends.len(), &reference.sets);
    let expected: Vec<NodeId> = selected.iter().map(|&i| reference.candidates[i]).collect();
    let sol = scbg(inst, &config);
    assert_eq!(sol.protectors, expected, "protectors");
    assert_eq!(sol.covered, covered);
    assert_eq!(sol.candidate_count, reference.candidates.len());

    let costs: Vec<f64> = reference.candidates.iter().map(|&u| cost_of(u)).collect();
    let weighted = reference_weighted_cover(bridge_ends.len(), &reference.sets, &costs);
    let expected: Vec<NodeId> = weighted.iter().map(|&i| reference.candidates[i]).collect();
    assert_eq!(
        scbg_weighted(inst, &config, cost_of).protectors,
        expected,
        "weighted protectors"
    );
    reference.seed_hits
}

/// A two-community instance with exactly `bridge_ends` bridge ends:
/// a strongly connected rumor community (a cycle plus chords), one
/// arc into each bridge end from inside, and `feeders` outside nodes
/// whose random arcs run among the outside nodes and back into the
/// community — so BBSTs overlap, deepen, and pass rumor seeds.
fn exact_bridge_instance(bridge_ends: usize, feeders: usize, seed: u64) -> RumorBlockingInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let community = 12;
    let outside = bridge_ends + feeders;
    let n = community + outside;
    let mut g = DiGraph::with_nodes(n);
    let arc = |g: &mut DiGraph, u: usize, v: usize| {
        if u != v {
            let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
        }
    };
    for u in 0..community {
        arc(&mut g, u, (u + 1) % community);
        arc(&mut g, u, rng.gen_range(0..community));
    }
    for b in 0..bridge_ends {
        arc(&mut g, rng.gen_range(0..community), community + b);
    }
    for _ in 0..3 * outside {
        let u = community + rng.gen_range(0..outside);
        let v = community + rng.gen_range(0..outside);
        arc(&mut g, u, v);
    }
    for _ in 0..feeders {
        arc(
            &mut g,
            community + rng.gen_range(0..outside),
            rng.gen_range(0..community),
        );
    }
    let labels = (0..n).map(|v| usize::from(v >= community)).collect();
    let mut members: Vec<usize> = (0..community).collect();
    members.shuffle(&mut rng);
    let seeds = members[..1 + seed as usize % 3]
        .iter()
        .map(|&v| NodeId::new(v))
        .collect();
    RumorBlockingInstance::new(g, Partition::from_labels(labels), 0, seeds)
        .expect("seeds lie in community 0 by construction")
}

const DEPTHS: [Option<u32>; 4] = [None, Some(0), Some(1), Some(2)];

#[test]
fn kernels_match_reference_across_batch_boundaries() {
    for bridge_ends in [0, 1, 63, 64, 65, 130] {
        for seed in 0..3 {
            let inst = exact_bridge_instance(bridge_ends, 40, seed);
            assert_eq!(
                find_bridge_ends(&inst, BridgeEndRule::WithinCommunity).len(),
                bridge_ends
            );
            for depth in DEPTHS {
                for rule in [BridgeEndRule::WithinCommunity, BridgeEndRule::AnyPath] {
                    let seed_hits = assert_matches_reference(&inst, rule, depth);
                    if bridge_ends > 0 && depth.is_none() {
                        // The nearest rumor seed sits exactly d_R(v)
                        // hops behind every bridge end.
                        assert!(seed_hits >= bridge_ends, "seeds never met a BBST");
                    }
                }
            }
        }
    }
}

#[test]
fn kernels_match_reference_on_planted_partitions() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, labels) =
            planted_partition(&[30, 40, 50], 0.2, 0.04, seed % 2 == 0, &mut rng).unwrap();
        let inst = RumorBlockingInstance::with_random_seeds(
            g,
            Partition::from_labels(labels),
            0,
            1 + seed as usize % 4,
            &mut rng,
        )
        .unwrap();
        for depth in DEPTHS {
            assert_matches_reference(&inst, BridgeEndRule::WithinCommunity, depth);
        }
    }
}

#[test]
fn kernels_match_reference_on_hep_like() {
    let ds = hep_like(&DatasetConfig::new(0.2, 11));
    let community = ds.pinned_communities[0];
    let mut members = ds.planted.members(community);
    members.shuffle(&mut SmallRng::seed_from_u64(5));
    let base = RumorBlockingInstance::new(ds.graph, ds.planted, community, vec![members[0]])
        .expect("pinned community member");
    for fraction in [0.01, 0.05, 0.10] {
        let count = (members.len() as f64 * fraction).round().max(1.0) as usize;
        let inst = base
            .with_rumor_seeds(members[..count].to_vec())
            .expect("pinned community members");
        assert!(find_bridge_ends(&inst, BridgeEndRule::WithinCommunity).len() > 64);
        assert_matches_reference(&inst, BridgeEndRule::WithinCommunity, None);
    }
}

proptest! {
    /// On duplicate-free inputs the bitset cover picks exactly the
    /// sets, in exactly the order, of the element-list reference.
    #[test]
    fn set_cover_matches_reference(
        universe in 1usize..140,
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..140, 0..20),
            0..24,
        ),
    ) {
        let sets: Vec<Vec<u32>> = sets
            .into_iter()
            .map(|s| s.into_iter().filter(|&e| (e as usize) < universe).collect())
            .collect();
        let sol = greedy_set_cover(universe, &sets);
        let (selected, covered) = reference_cover(universe, &sets);
        prop_assert_eq!(&sol.selected, &selected);
        prop_assert_eq!(sol.covered, covered);
        let costs: Vec<f64> = (0..sets.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let weighted = greedy_weighted_set_cover(universe, &sets, &costs);
        prop_assert_eq!(weighted.selected, reference_weighted_cover(universe, &sets, &costs));
    }
}
