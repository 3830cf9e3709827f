//! A compact bitset over the tasks of a topology, used to represent failed
//! task sets, replication plans and MC-trees.

use super::TaskIndex;
use std::fmt;

/// Fixed-capacity bitset keyed by [`TaskIndex`].
///
/// All set operations require both operands to share the same capacity
/// (the task count of one topology); this is asserted in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskSet {
    words: Vec<u64>,
    capacity: usize,
}

impl TaskSet {
    /// Empty set over `capacity` tasks.
    pub fn empty(capacity: usize) -> Self {
        TaskSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Set containing every task.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::empty(capacity);
        for t in 0..capacity {
            s.insert(TaskIndex(t));
        }
        s
    }

    /// Builds a set from an iterator of task indices.
    pub fn from_tasks(capacity: usize, tasks: impl IntoIterator<Item = TaskIndex>) -> Self {
        let mut s = Self::empty(capacity);
        for t in tasks {
            s.insert(t);
        }
        s
    }

    pub fn insert(&mut self, t: TaskIndex) {
        debug_assert!(
            t.0 < self.capacity,
            "task {t} out of capacity {}",
            self.capacity
        );
        self.words[t.0 / 64] |= 1u64 << (t.0 % 64);
    }

    pub fn remove(&mut self, t: TaskIndex) {
        debug_assert!(t.0 < self.capacity);
        self.words[t.0 / 64] &= !(1u64 << (t.0 % 64));
    }

    pub fn contains(&self, t: TaskIndex) -> bool {
        t.0 < self.capacity && self.words[t.0 / 64] & (1u64 << (t.0 % 64)) != 0
    }

    /// Number of tasks in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The bit words, `capacity.div_ceil(64)` of them: task `t` is bit
    /// `t % 64` of word `t / 64`. At equal capacity, slice order on the
    /// words is the set's `Ord`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bit words, writable; callers leave bits past the capacity clear.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// `self ∪ other`, in place.
    pub(crate) fn union_with(&mut self, other: &TaskSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ∪ other`, new set.
    pub(crate) fn union(&self, other: &TaskSet) -> TaskSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// `self ∩ other`, new set.
    pub(crate) fn intersection(&self, other: &TaskSet) -> TaskSet {
        debug_assert_eq!(self.capacity, other.capacity);
        TaskSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            capacity: self.capacity,
        }
    }

    /// `self \ other`, new set.
    pub(crate) fn difference(&self, other: &TaskSet) -> TaskSet {
        debug_assert_eq!(self.capacity, other.capacity);
        TaskSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
            capacity: self.capacity,
        }
    }

    /// Complement within the capacity (tasks *not* in the set).
    pub(crate) fn complement(&self) -> TaskSet {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        // Mask out bits beyond capacity.
        let excess = self.words.len() * 64 - self.capacity;
        if excess > 0 {
            if let Some(last) = words.last_mut() {
                *last &= u64::MAX >> excess;
            }
        }
        TaskSet {
            words,
            capacity: self.capacity,
        }
    }

    /// Whether every task of `self` is in `other`.
    pub(crate) fn is_subset_of(&self, other: &TaskSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterator over the member task indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = TaskIndex> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(TaskIndex(wi * 64 + b))
                }
            })
        })
    }
}

impl fmt::Debug for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cap: usize, tasks: &[usize]) -> TaskSet {
        TaskSet::from_tasks(cap, tasks.iter().map(|&t| TaskIndex(t)))
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = TaskSet::empty(100);
        assert!(s.is_empty());
        s.insert(TaskIndex(0));
        s.insert(TaskIndex(63));
        s.insert(TaskIndex(64));
        s.insert(TaskIndex(99));
        assert_eq!(s.len(), 4);
        assert!(s.contains(TaskIndex(63)));
        assert!(s.contains(TaskIndex(64)));
        assert!(!s.contains(TaskIndex(65)));
        s.remove(TaskIndex(63));
        assert!(!s.contains(TaskIndex(63)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(10, &[1, 2, 3]);
        let b = set(10, &[3, 4]);
        assert_eq!(a.union(&b), set(10, &[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), set(10, &[3]));
        assert_eq!(a.difference(&b), set(10, &[1, 2]));
    }

    #[test]
    fn complement_respects_capacity() {
        let s = set(70, &[0, 69]);
        let c = s.complement();
        assert_eq!(c.len(), 68);
        assert!(!c.contains(TaskIndex(0)));
        assert!(!c.contains(TaskIndex(69)));
        assert!(c.contains(TaskIndex(68)));
        // Double complement is identity.
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn subset_relation() {
        let a = set(10, &[1, 2]);
        let b = set(10, &[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(TaskSet::empty(10).is_subset_of(&a));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = set(130, &[128, 5, 64, 0]);
        let got: Vec<usize> = s.iter().map(|t| t.0).collect();
        assert_eq!(got, vec![0, 5, 64, 128]);
    }

    #[test]
    fn full_has_all() {
        let s = TaskSet::full(65);
        assert_eq!(s.len(), 65);
        assert!(s.complement().is_empty());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", set(8, &[1, 3])), "{t1, t3}");
    }
}
