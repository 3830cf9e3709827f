//! Data items: key–value tuples (§II-A).
//!
//! The paper models a data item as a key plus an opaque value blob. We keep
//! keys as 64-bit integers (workloads hash their natural keys into them) and
//! values as a small enum covering what the evaluation workloads carry.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Weak};

/// Tuple key. The engine partitions substreams by `Key` hash.
pub(crate) type Key = u64;

/// Value payloads used by the evaluation workloads.
///
/// A `Value` is 16 bytes (a tag plus one 8-byte word), so a [`Tuple`] is 24.
/// Every chunk, output buffer, checkpoint and sink record holds
/// tuples by value, which makes this size the memory a run faults in,
/// copies and drops. Two variants are shaped to keep it; see their docs.
///
/// The tuple is not `Copy`: `Counts` owns a refcount, so every buffer of
/// tuples still walks its elements when dropped. Moving digests out of the
/// tuple would remove that walk, but `benchmark/` matches `Value::Counts`
/// (ROADMAP item 10).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Pure presence (e.g. an access-log hit).
    Empty,
    /// A counter or id.
    Int(i64),
    /// A measurement (e.g. vehicle speed).
    Float(f64),
    /// Two related integers (e.g. user id + speed). 32-bit so that both fit
    /// the one word beside the tag: Q2, the only producer, builds user ids
    /// below 100 000 and speeds below 55.
    Pair(i32, i32),
    /// A small aggregate: (key, count) pairs, e.g. a top-k digest. Behind a
    /// thin pointer (`Arc<Vec<_>>`, one word) rather than a fat `Arc<[_]>`
    /// (pointer and length, two words) so that it too fits beside the tag.
    Counts(Arc<Vec<(u64, i64)>>),
}

const _: () = assert!(size_of::<Tuple>() == 24 && size_of::<Value>() == 16);

impl Value {
    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Pair payload, if this is a `Pair`.
    pub fn as_pair(&self) -> Option<(i32, i32)> {
        match self {
            Value::Pair(a, b) => Some((*a, *b)),
            _ => None,
        }
    }

    /// Counts payload, if this is a `Counts`.
    pub fn as_counts(&self) -> Option<&[(u64, i64)]> {
        match self {
            Value::Counts(c) => Some(c),
            _ => None,
        }
    }
}

/// One data item flowing through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    pub key: Key,
    pub value: Value,
}

impl Tuple {
    pub fn new(key: Key, value: Value) -> Self {
        Tuple { key, value }
    }

    /// A key-only tuple.
    pub fn key_only(key: Key) -> Self {
        Tuple {
            key,
            value: Value::Empty,
        }
    }
}

/// A batch of tuples in flight: immutable and refcounted.
///
/// One `Chunk` is what an upstream task emits, delivers to a primary and
/// its replica, hands to the UDF and records at a sink — every hand-off is
/// a refcount bump, never a copy. A UDF whose output is exactly one of its
/// input chunks emits that same chunk (see [`Output`](crate::Output)). A
/// non-source task also buffers it until the downstream checkpoint
/// acknowledges it (§V-B); a source buffers only a weak handle, because
/// its generator can rebuild the batch from the batch id, so its output
/// lives exactly as long as a delivery, checkpoint or downstream buffer
/// holds it. A chunk is therefore **never mutated** after it is built:
/// whoever holds a clone (a UDF's state, an output buffer, a checkpoint, a
/// report) sees the same tuples for as long as it keeps it.
///
/// It dereferences to `[Tuple]` and prints exactly like the `Vec<Tuple>` it
/// is built from.
#[derive(Clone, PartialEq, Default)]
pub struct Chunk(Arc<Vec<Tuple>>);

impl Chunk {
    /// A handle that reaches this chunk's tuples while anyone else still
    /// holds them, without keeping them alive itself.
    pub(crate) fn downgrade(&self) -> WeakChunk {
        WeakChunk(Arc::downgrade(&self.0))
    }
}

/// A [`Chunk`] that does not keep its tuples alive (see
/// [`Chunk::downgrade`]). Once the last holder drops the chunk, the handle
/// keeps only the refcounted `Vec` header allocated: the tuples live in
/// the `Vec`'s own buffer, which is freed then.
#[derive(Clone)]
pub(crate) struct WeakChunk(Weak<Vec<Tuple>>);

impl WeakChunk {
    /// A handle that never reaches any tuples.
    pub(crate) fn dangling() -> WeakChunk {
        WeakChunk(Weak::new())
    }

    /// The chunk, if some holder still keeps it alive.
    pub(crate) fn upgrade(&self) -> Option<Chunk> {
        self.0.upgrade().map(Chunk)
    }
}

impl From<Vec<Tuple>> for Chunk {
    fn from(tuples: Vec<Tuple>) -> Self {
        Chunk(Arc::new(tuples))
    }
}

impl Deref for Chunk {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Chunk {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The deterministic key hash used for substream partitioning.
///
/// SplitMix64: fast, well mixed, and stable across platforms — partitioning
/// must agree between a primary and its replica and across runs.
#[inline]
pub(crate) fn hash_key(key: Key) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Index of the target that `key` routes to among `n` targets.
#[inline]
pub(crate) fn route(key: Key, n: usize) -> usize {
    debug_assert!(n > 0);
    (hash_key(key) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Chunk {
        /// Whether `a` and `b` are the same allocation (not merely equal).
        pub(crate) fn ptr_eq(a: &Chunk, b: &Chunk) -> bool {
            Arc::ptr_eq(&a.0, &b.0)
        }

        /// How many clones of this chunk are alive, this one included.
        pub(crate) fn holders(&self) -> usize {
            Arc::strong_count(&self.0)
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Tuple::new(1, Value::Int(5)).value.as_int(), Some(5));
        assert_eq!(Tuple::key_only(2).value, Value::Empty);
        assert_eq!(Value::Pair(3, 4).as_pair(), Some((3, 4)));
        let c = Value::Counts(vec![(1, 2)].into());
        assert_eq!(c.as_counts(), Some(&[(1, 2)][..]));
    }

    #[test]
    fn chunk_is_a_shared_slice_that_prints_like_its_vec() {
        let tuples = vec![
            Tuple::new(3, Value::Pair(1, 2)),
            Tuple::key_only(4),
            Tuple::new(5, Value::Counts(vec![(1, 2)].into())),
        ];
        let chunk = Chunk::from(tuples.clone());
        let shared = chunk.clone();
        assert!(Chunk::ptr_eq(&chunk, &shared));
        assert_eq!(chunk.holders(), 2);
        assert_eq!(&chunk[..], &tuples[..]);
        assert_eq!((&chunk).into_iter().count(), 3);
        assert!(!Chunk::ptr_eq(&chunk, &Chunk::from(tuples.clone())));
        assert_eq!(chunk, Chunk::from(tuples.clone()), "equality is by value");
        assert_eq!(format!("{chunk:?}"), format!("{tuples:?}"));
        assert_eq!(format!("{chunk:#?}"), format!("{tuples:#?}"));
        assert_eq!(format!("{:?}", Chunk::default()), "[]");
    }

    #[test]
    fn a_weak_chunk_reaches_the_tuples_only_while_a_holder_lives() {
        let chunk = Chunk::from(vec![Tuple::key_only(1)]);
        let weak = chunk.downgrade();
        let upgraded = weak.upgrade().expect("the chunk is alive");
        assert!(Chunk::ptr_eq(&chunk, &upgraded));
        assert_eq!(chunk.holders(), 2, "the handle itself holds nothing");
        drop((chunk, upgraded));
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let r = route(key, 7);
            assert!(r < 7);
            assert_eq!(r, route(key, 7), "routing must be deterministic");
        }
    }

    #[test]
    fn routing_spreads_keys() {
        let n = 4;
        let mut counts = vec![0usize; n];
        for key in 0..10_000u64 {
            counts[route(key, n)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 2500.0).abs() < 400.0,
                "hash routing should be roughly uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn hash_differs_from_identity() {
        // Sequential keys must not map to sequential buckets.
        let direct: Vec<usize> = (0..8u64).map(|k| (k % 4) as usize).collect();
        let hashed: Vec<usize> = (0..8u64).map(|k| route(k, 4)).collect();
        assert_ne!(direct, hashed);
    }
}
