//! The four partitioning situations between neighbouring operators (§II-A).

use std::fmt;

/// How the output stream of an upstream operator with `N1` tasks is divided
/// among the `N2` tasks of a downstream operator.
///
/// * `OneToOne` — `N1 == N2`; task `i` feeds task `i`.
/// * `Split` — `N2 = k·N1` for some `k ≥ 2`; upstream task `i` feeds the
///   block of `k` downstream tasks `i·k .. (i+1)·k`.
/// * `Merge` — `N1 = k·N2` for some `k ≥ 2`; downstream task `j` is fed by
///   the block of `k` upstream tasks `j·k .. (j+1)·k`.
/// * `Full` — complete bipartite: every upstream task feeds every downstream
///   task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioning {
    OneToOne,
    Split,
    Merge,
    Full,
}

impl Partitioning {
    /// Human-readable name (used in errors and reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Partitioning::OneToOne => "one-to-one",
            Partitioning::Split => "split",
            Partitioning::Merge => "merge",
            Partitioning::Full => "full",
        }
    }

    /// Whether this scheme is legal between operators of the given
    /// parallelism, per the arity constraints of §II-A.
    pub(crate) fn is_compatible(self, upstream: usize, downstream: usize) -> bool {
        if upstream == 0 || downstream == 0 {
            return false;
        }
        match self {
            Partitioning::OneToOne => upstream == downstream,
            Partitioning::Split => downstream > upstream && downstream.is_multiple_of(upstream),
            Partitioning::Merge => upstream > downstream && upstream.is_multiple_of(downstream),
            Partitioning::Full => true,
        }
    }

    /// The downstream task indices (local to the downstream operator) that
    /// upstream task `u` (local index) sends substreams to.
    pub(crate) fn targets_of(self, u: usize, upstream: usize, downstream: usize) -> Vec<usize> {
        debug_assert!(self.is_compatible(upstream, downstream));
        debug_assert!(u < upstream);
        match self {
            Partitioning::OneToOne => vec![u],
            Partitioning::Split => {
                let fanout = downstream / upstream;
                (u * fanout..(u + 1) * fanout).collect()
            }
            Partitioning::Merge => {
                let fanin = upstream / downstream;
                vec![u / fanin]
            }
            Partitioning::Full => (0..downstream).collect(),
        }
    }

    /// The upstream task indices (local to the upstream operator) whose
    /// substreams reach downstream task `d` (local index).
    pub(crate) fn sources_of(self, d: usize, upstream: usize, downstream: usize) -> Vec<usize> {
        debug_assert!(self.is_compatible(upstream, downstream));
        debug_assert!(d < downstream);
        match self {
            Partitioning::OneToOne => vec![d],
            Partitioning::Split => {
                let fanout = downstream / upstream;
                vec![d / fanout]
            }
            Partitioning::Merge => {
                let fanin = upstream / downstream;
                (d * fanin..(d + 1) * fanin).collect()
            }
            Partitioning::Full => (0..upstream).collect(),
        }
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::Partitioning::*;

    #[test]
    fn compatibility_rules() {
        assert!(OneToOne.is_compatible(4, 4));
        assert!(!OneToOne.is_compatible(4, 2));
        assert!(Split.is_compatible(2, 6));
        assert!(!Split.is_compatible(2, 5));
        assert!(!Split.is_compatible(4, 4));
        assert!(Merge.is_compatible(8, 4));
        assert!(!Merge.is_compatible(8, 3));
        assert!(!Merge.is_compatible(4, 4));
        assert!(Full.is_compatible(3, 7));
        assert!(!Full.is_compatible(0, 7));
    }

    #[test]
    fn split_targets_form_blocks() {
        assert_eq!(Split.targets_of(0, 2, 6), vec![0, 1, 2]);
        assert_eq!(Split.targets_of(1, 2, 6), vec![3, 4, 5]);
        assert_eq!(Split.sources_of(4, 2, 6), vec![1]);
    }

    #[test]
    fn merge_sources_form_blocks() {
        assert_eq!(Merge.targets_of(5, 8, 4), vec![2]);
        assert_eq!(Merge.sources_of(2, 8, 4), vec![4, 5]);
    }

    #[test]
    fn one_to_one_is_identity() {
        assert_eq!(OneToOne.targets_of(3, 4, 4), vec![3]);
        assert_eq!(OneToOne.sources_of(3, 4, 4), vec![3]);
    }

    #[test]
    fn full_is_complete_bipartite() {
        assert_eq!(Full.targets_of(0, 2, 3), vec![0, 1, 2]);
        assert_eq!(Full.sources_of(1, 2, 3), vec![0, 1]);
    }

    #[test]
    fn targets_and_sources_are_inverse() {
        for scheme in [OneToOne, Split, Merge, Full] {
            let (n1, n2) = match scheme {
                OneToOne => (4, 4),
                Split => (3, 9),
                Merge => (9, 3),
                Full => (4, 5),
            };
            for u in 0..n1 {
                for d in scheme.targets_of(u, n1, n2) {
                    assert!(
                        scheme.sources_of(d, n1, n2).contains(&u),
                        "{scheme:?} {u}->{d} not inverted"
                    );
                }
            }
            for d in 0..n2 {
                for u in scheme.sources_of(d, n1, n2) {
                    assert!(scheme.targets_of(u, n1, n2).contains(&d));
                }
            }
        }
    }
}
