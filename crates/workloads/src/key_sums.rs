//! Per-key sums over one batch in a table indexed by key: what Q1's and
//! Q2's aggregating operators build per batch, in place of a `BTreeMap`
//! made and dropped for every batch.

use std::ops::AddAssign;

/// Per-key sums over one batch's tuples, in a table indexed by key. A task
/// keeps its table across batches and it grows on demand, so any key is
/// exact; between batches every slot is zero. A key is an index, so keys
/// must be small: Q1's are below `n_objects` and Q2's below `n_segments`.
///
/// Each key's sum is accumulated in input order, as a map's was. The order
/// would not matter anyway: `i64` counts are exact in any order, and so
/// are `f64` sums of Q2's integer speeds (below 55), because every partial
/// sum is an integer below 2^53.
pub(crate) struct KeySums<A> {
    /// Per key: the batch's sum, and how many tuples added to it.
    slots: Vec<(A, u32)>,
    /// How many keys this batch added to.
    distinct: usize,
}

impl<A> Default for KeySums<A> {
    fn default() -> Self {
        KeySums {
            slots: Vec::new(),
            distinct: 0,
        }
    }
}

/// A clone is a fresh table: between batches a table holds nothing but its
/// allocation, so a UDF's snapshot copies no slots.
impl<A> Clone for KeySums<A> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<A: Copy + Default + AddAssign> KeySums<A> {
    /// Adds `value` to `key`'s sum.
    pub(crate) fn add(&mut self, key: u64, value: A) {
        let key = key as usize;
        if key >= self.slots.len() {
            self.slots.resize(key + 1, (A::default(), 0));
        }
        let (sum, n) = &mut self.slots[key];
        if *n == 0 {
            self.distinct += 1;
        }
        *sum += value;
        *n += 1;
    }

    /// Takes the batch's sums as `(key, sum, tuples added)`, in ascending
    /// key order, and clears them. Its size hint is exact, so an `extend`
    /// or a `collect` allocates once, at the size it needs. Consume it
    /// whole: a slot it does not reach stays set.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, A, u32)> + '_ {
        let (mut key, slots) = (0, &mut self.slots);
        std::iter::repeat_with(move || {
            while slots[key].1 == 0 {
                key += 1;
            }
            let (sum, n) = std::mem::take(&mut slots[key]);
            key += 1;
            ((key - 1) as u64, sum, n)
        })
        .take(std::mem::take(&mut self.distinct))
    }
}

/// Random input batches for checking an aggregating UDF against a map:
/// `batches` batches of one stream each, with empty chunks (a proxied
/// substream), ragged chunk lengths, key 0 and the largest key in use, and
/// a key range that grows from `max_key / 4` to `max_key` halfway through,
/// so a table grows mid-run. `tuple(key, draw)` makes a tuple from its key
/// and a uniform draw in `[0, 1)`.
#[cfg(test)]
pub(crate) fn ragged_batches(
    seed: u64,
    batches: u64,
    max_key: u64,
    tuple: impl Fn(u64, f64) -> ppa_engine::Tuple,
) -> Vec<Vec<ppa_engine::Chunk>> {
    use crate::zipf::uniform_hash;
    let draw = |b: u64, i: u64, below: u64| (uniform_hash(seed, b, i, below) * below as f64) as u64;
    (0..batches)
        .map(|b| {
            let top = if b < batches / 2 {
                max_key / 4
            } else {
                max_key
            };
            (0..draw(b, 0, 5))
                .map(|c| {
                    let len = match draw(b, 1 + c, 4) {
                        0 => 0,
                        _ => draw(b, 10 + c, 40),
                    };
                    let tuples = (0..len).map(|i| {
                        let at = 1000 * c + i;
                        let key = match draw(b, 100_000 + at, 10) {
                            0 => 0,
                            1 => top,
                            _ => draw(b, 200_000 + at, top + 1),
                        };
                        tuple(key, uniform_hash(seed ^ 0xF00D, b, at, 0))
                    });
                    tuples.collect::<Vec<_>>().into()
                })
                .collect()
        })
        .collect()
}
