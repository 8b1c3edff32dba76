//! Greedy set cover (Algorithm 2 of the paper) with lazy evaluation,
//! plus a weighted variant and the `H(n)` approximation bound.
//!
//! Theorem 2/3 of the paper reduce LCRB-D to set cover: greedy gives
//! the optimal-up-to-constants `O(ln n)` factor, and no polynomial
//! algorithm does asymptotically better unless P = NP (Feige).
//!
//! Both cover loops run over [`BitSets`]: one packed `u64` row per
//! set, so a set's gain is `popcount(row & !covered)` — a few words
//! per candidate instead of a walk over its element list — and a
//! repeated element can never count twice. SCBG hands its star sets
//! over in this form directly; the `Vec<u32>` entry points pack their
//! input first.

#![expect(
    clippy::indexing_slicing,
    reason = "element and set ids are dense indices assigned by this module's own builder over one arena"
)]
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lcrb_diffusion::{StopReason, WorkMeter};

/// The result of a greedy set cover run.
#[derive(Clone, Debug, PartialEq)]
pub struct SetCoverSolution {
    /// Indices of the selected sets, in selection order.
    pub selected: Vec<usize>,
    /// Number of universe elements covered by the selection.
    pub covered: usize,
    /// Total cost of the selection (= `selected.len()` for the
    /// unweighted variant).
    pub cost: f64,
}

/// A family of sets over the universe `0..universe()`, stored as one
/// packed row of `⌈universe / 64⌉` words per set: element `e` of a set
/// is bit `e % 64` of word `e / 64` of its row. Memory is
/// `len() · ⌈universe / 64⌉` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSets {
    universe: usize,
    len: usize,
    words: Vec<u64>,
}

impl BitSets {
    /// Packs element lists into rows; repeated elements collapse.
    ///
    /// # Panics
    ///
    /// Panics if a set contains an element `>= universe`.
    pub(crate) fn from_sets(universe: usize, sets: &[Vec<u32>]) -> Self {
        let width = universe.div_ceil(64);
        let mut words = vec![0u64; sets.len() * width];
        for (i, s) in sets.iter().enumerate() {
            for &e in s {
                assert!(
                    (e as usize) < universe,
                    "set {i} contains element {e} outside universe of size {universe}"
                );
                words[i * width + e as usize / 64] |= 1 << (e % 64);
            }
        }
        BitSets {
            universe,
            len: sets.len(),
            words,
        }
    }

    /// Wraps `len` rows of `⌈universe / 64⌉` words each, laid out
    /// back to back; bits at or above `universe` must be clear.
    pub(crate) fn from_rows(universe: usize, len: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), len * universe.div_ceil(64));
        BitSets {
            universe,
            len,
            words,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the family has no sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the universe the sets draw from.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The packed row of set `i`.
    fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "set {i} out of range for {} sets", self.len);
        let width = self.universe.div_ceil(64);
        &self.words[i * width..(i + 1) * width]
    }

    /// The elements of set `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn elements(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.row(i).iter().enumerate().flat_map(|(k, &word)| {
            (0..64u32)
                .filter(move |b| (word >> b) & 1 == 1)
                .map(move |b| k as u32 * 64 + b)
        })
    }

    /// Number of elements of set `i` not yet in `covered`.
    fn gain(&self, i: usize, covered: &[u64]) -> usize {
        self.row(i)
            .iter()
            .zip(covered)
            .map(|(&r, &c)| (r & !c).count_ones() as usize)
            .sum()
    }

    /// Adds set `i` to `covered`.
    fn cover(&self, i: usize, covered: &mut [u64]) {
        for (c, &r) in covered.iter_mut().zip(self.row(i)) {
            *c |= r;
        }
    }
}

/// Classic greedy set cover: repeatedly pick the set covering the
/// most uncovered elements, until the universe is covered or no set
/// adds coverage.
///
/// Elements are integers in `0..universe_size`; `sets[i]` lists the
/// elements of set `i`. A repeated element counts once. Implemented
/// with lazy (CELF-style) evaluation: stale heap entries are
/// re-scored on pop, which is sound because coverage gain only
/// shrinks as elements get covered. Ties go to the smallest set
/// index.
///
/// If some elements appear in no set, they stay uncovered and
/// `covered < universe_size` on return.
///
/// # Panics
///
/// Panics if a set contains an element `>= universe_size`.
///
/// # Examples
///
/// ```
/// use lcrb::setcover::greedy_set_cover;
///
/// let sets = vec![vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![0, 4]];
/// let sol = greedy_set_cover(5, &sets);
/// assert_eq!(sol.covered, 5);
/// assert!(sol.selected.len() <= 3);
/// ```
#[must_use]
pub fn greedy_set_cover(universe_size: usize, sets: &[Vec<u32>]) -> SetCoverSolution {
    let sets = BitSets::from_sets(universe_size, sets);
    #[expect(
        clippy::expect_used,
        reason = "an unlimited meter's poll never stops the cover loop"
    )]
    let (solution, _) = greedy_set_cover_metered(&sets, &WorkMeter::unlimited())
        .expect("unlimited meter cannot stop the cover");
    solution
}

/// [`greedy_set_cover`] over packed rows under a [`WorkMeter`]: the
/// meter is polled once per pick (before each heap pop), so a
/// deadline stop keeps the selection prefix built so far (a valid
/// partial cover) while a cancellation aborts.
///
/// Returns `Some(reason)` alongside the (then partial) solution when
/// a deadline stopped the loop; work-unit caps do not apply to set
/// cover.
///
/// # Errors
///
/// [`StopReason::Cancelled`] when a poll observes cancellation.
pub(crate) fn greedy_set_cover_metered(
    sets: &BitSets,
    meter: &WorkMeter,
) -> Result<(SetCoverSolution, Option<StopReason>), StopReason> {
    let universe_size = sets.universe();
    let mut covered = vec![0u64; universe_size.div_ceil(64)];
    let mut covered_count = 0usize;
    let mut selected = Vec::new();
    let mut stop = None;

    // Heap of (gain, set index); gains may be stale and are re-scored
    // on pop.
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = (0..sets.len())
        .map(|i| (sets.gain(i, &covered), Reverse(i)))
        .collect();

    while covered_count < universe_size {
        match meter.poll() {
            Ok(()) => {}
            Err(StopReason::Cancelled) => return Err(StopReason::Cancelled),
            Err(reason) => {
                stop = Some(reason);
                break;
            }
        }
        let Some((claimed, Reverse(i))) = heap.pop() else {
            break;
        };
        if claimed == 0 {
            break;
        }
        let gain = sets.gain(i, &covered);
        if gain < claimed {
            if gain > 0 {
                heap.push((gain, Reverse(i)));
            }
            continue;
        }
        selected.push(i);
        sets.cover(i, &mut covered);
        covered_count += gain;
    }
    Ok((
        SetCoverSolution {
            cost: selected.len() as f64,
            selected,
            covered: covered_count,
        },
        stop,
    ))
}

/// Weighted greedy set cover: repeatedly pick the set minimizing
/// `cost / newly covered elements` (ties to the smallest set index).
/// A repeated element counts once. Provided as an extension for
/// protector-cost variants of LCRB-D.
///
/// # Panics
///
/// Panics if `sets` and `costs` differ in length, if a cost is not
/// strictly positive and finite, or if an element is outside the
/// universe.
#[must_use]
pub fn greedy_weighted_set_cover(
    universe_size: usize,
    sets: &[Vec<u32>],
    costs: &[f64],
) -> SetCoverSolution {
    weighted_set_cover(&BitSets::from_sets(universe_size, sets), costs)
}

/// [`greedy_weighted_set_cover`] over packed rows.
///
/// # Panics
///
/// Same cost conditions as [`greedy_weighted_set_cover`].
pub(crate) fn weighted_set_cover(sets: &BitSets, costs: &[f64]) -> SetCoverSolution {
    assert_eq!(sets.len(), costs.len(), "one cost per set required");
    for (i, &c) in costs.iter().enumerate() {
        assert!(
            c.is_finite() && c > 0.0,
            "cost of set {i} must be positive and finite, got {c}"
        );
    }
    let universe_size = sets.universe();
    let mut covered = vec![0u64; universe_size.div_ceil(64)];
    let mut covered_count = 0usize;
    let mut selected = Vec::new();
    let mut total_cost = 0.0;
    let mut active: Vec<usize> = (0..sets.len()).collect();

    while covered_count < universe_size {
        let mut best: Option<(f64, usize, usize)> = None;
        active.retain(|&i| {
            let gain = sets.gain(i, &covered);
            if gain == 0 {
                return false;
            }
            let ratio = costs[i] / gain as f64;
            if best.is_none_or(|(b, _, _)| ratio < b) {
                best = Some((ratio, i, gain));
            }
            true
        });
        let Some((_, i, gain)) = best else { break };
        selected.push(i);
        total_cost += costs[i];
        sets.cover(i, &mut covered);
        covered_count += gain;
    }
    SetCoverSolution {
        selected,
        covered: covered_count,
        cost: total_cost,
    }
}

/// The harmonic number `H(n) = 1 + 1/2 + ... + 1/n`, the greedy set
/// cover approximation factor (Theorem 2: greedy SCBG is an
/// `H(|B|) = O(ln |B|)` approximation).
#[must_use]
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_simple_instance() {
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let sol = greedy_set_cover(4, &sets);
        assert_eq!(sol.covered, 4);
        assert_eq!(sol.selected.len(), 2);
        assert!(sol.selected.contains(&0));
        assert!(sol.selected.contains(&2));
        assert_eq!(sol.cost, 2.0);
    }

    #[test]
    fn picks_largest_first() {
        let sets = vec![vec![0], vec![0, 1, 2, 3], vec![3, 4]];
        let sol = greedy_set_cover(5, &sets);
        assert_eq!(sol.selected[0], 1);
        assert_eq!(sol.covered, 5);
    }

    #[test]
    fn uncoverable_elements_reported() {
        let sets = vec![vec![0, 1]];
        let sol = greedy_set_cover(3, &sets);
        assert_eq!(sol.covered, 2);
        assert_eq!(sol.selected, vec![0]);
    }

    #[test]
    fn empty_inputs() {
        let sol = greedy_set_cover(0, &[]);
        assert_eq!(sol.covered, 0);
        assert!(sol.selected.is_empty());
        let sol = greedy_set_cover(3, &[]);
        assert_eq!(sol.covered, 0);
        // Empty sets are never selected.
        let sol = greedy_set_cover(2, &[vec![], vec![0, 1]]);
        assert_eq!(sol.selected, vec![1]);
    }

    #[test]
    fn duplicate_elements_in_a_set_are_harmless() {
        let sets = vec![vec![0, 0, 1, 1]];
        let sol = greedy_set_cover(2, &sets);
        assert_eq!(sol.covered, 2);
    }

    #[test]
    fn duplicate_elements_do_not_inflate_gains() {
        // Five copies of element 0 are one element: the two disjoint
        // pairs cover the universe without the padded singleton.
        let sets = vec![vec![0, 0, 0, 0, 0], vec![0, 1], vec![2, 3]];
        let sol = greedy_set_cover(4, &sets);
        assert_eq!(sol.selected, vec![1, 2]);
        assert_eq!(sol.covered, 4);
        let sol = greedy_weighted_set_cover(4, &sets, &[1.0; 3]);
        assert_eq!(sol.selected, vec![1, 2]);
        assert_eq!(sol.covered, 4);
        assert_eq!(sol.cost, 2.0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_universe_elements() {
        let _ = greedy_set_cover(2, &[vec![5]]);
    }

    #[test]
    fn greedy_respects_harmonic_bound_on_known_optimum() {
        // Universe 0..12 covered optimally by 3 disjoint sets of 4;
        // decoys force greedy to behave. Greedy <= H(12) * 3.
        let sets = vec![
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![8, 9, 10, 11],
            vec![0, 4, 8],
            vec![1, 5, 9],
            vec![3, 7, 11, 10],
        ];
        let sol = greedy_set_cover(12, &sets);
        assert_eq!(sol.covered, 12);
        let bound = (harmonic(12) * 3.0).floor() as usize;
        assert!(
            sol.selected.len() <= bound,
            "{} > {bound}",
            sol.selected.len()
        );
    }

    #[test]
    fn weighted_prefers_cheap_efficient_sets() {
        // Set 0 covers everything at cost 10; sets 1 and 2 cover it
        // in two steps at total cost 2.
        let sets = vec![vec![0, 1, 2, 3], vec![0, 1], vec![2, 3]];
        let costs = vec![10.0, 1.0, 1.0];
        let sol = greedy_weighted_set_cover(4, &sets, &costs);
        assert_eq!(sol.covered, 4);
        assert_eq!(sol.cost, 2.0);
        assert!(!sol.selected.contains(&0));
    }

    #[test]
    fn weighted_with_uniform_costs_matches_unweighted_quality() {
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]];
        let a = greedy_set_cover(4, &sets);
        let b = greedy_weighted_set_cover(4, &sets, &[1.0; 4]);
        assert_eq!(a.covered, b.covered);
        assert_eq!(a.selected.len(), b.selected.len());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn weighted_rejects_zero_cost() {
        let _ = greedy_weighted_set_cover(1, &[vec![0]], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "one cost per set")]
    fn weighted_rejects_length_mismatch() {
        let _ = greedy_weighted_set_cover(1, &[vec![0]], &[]);
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        // H(n) ~ ln n + γ.
        let n = 10_000;
        let expected = (n as f64).ln() + 0.577_215_664_9;
        assert!((harmonic(n) - expected).abs() < 1e-4);
    }
}
