//! Disjoint-set (union-find) structure.

#![expect(
    clippy::indexing_slicing,
    reason = "parent/rank arrays are sized at construction and find() only follows stored parent indices"
)]
/// A union-find structure over dense `usize` indices with union by
/// size and path halving.
///
/// Used for weakly-connected-component computation and as a general
/// substrate utility (the community crate uses it to merge
/// singleton partitions).
///
/// # Examples
///
/// ```
/// use lcrb_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// assert_eq!(uf.set_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets `{0}, {1}, ..., {n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "union-find size {n} exceeds u32");
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure has no elements.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    #[inline]
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Finds the representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` if they were previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            core::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Assigns a dense label in `0..set_count()` to every element,
    /// consistent within each set.
    pub fn labels(&mut self) -> Vec<usize> {
        let n = self.len();
        let mut label_of_root = vec![usize::MAX; n];
        let mut labels = vec![0; n];
        let mut next = 0;
        for (x, label) in labels.iter_mut().enumerate() {
            let r = self.find(x);
            if label_of_root[r] == usize::MAX {
                label_of_root[r] = next;
                next += 1;
            }
            *label = label_of_root[r];
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_at_start() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.set_size(1), 1);
        assert!(!uf.connected(0, 2));
        assert_eq!(uf.len(), 3);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.set_size(2), 3);
        assert!(uf.connected(0, 2));
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(1, 4);
        uf.union(4, 5);
        let labels = uf.labels();
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[1], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
        let max = *labels.iter().max().unwrap();
        assert_eq!(max + 1, uf.set_count());
    }

    #[test]
    fn long_chain_find_terminates() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        assert_eq!(uf.set_size(0), n);
    }

    #[test]
    fn empty_union_find() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.labels(), Vec::<usize>::new());
    }
}
