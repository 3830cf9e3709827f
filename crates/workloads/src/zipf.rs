//! A small deterministic Zipf sampler (rand's distribution crates are not in
//! the dependency budget; the CDF-table approach is simple and exact).

use std::sync::Arc;

/// Guide buckets per item. With one, a draw lands in a bucket holding about
/// one CDF entry, and whether the scan steps past it is a coin toss the
/// branch predictor loses; with eight, the scan almost always stops at its
/// first entry.
const GUIDE_PER_ITEM: usize = 8;

/// Zipf distribution over `{0, 1, …, n-1}` with exponent `s`: item `i` has
/// probability proportional to `1/(i+1)^s`. Clones share the tables.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Arc<[f64]>,
    /// `guide[b]` is the first item whose CDF entry lies in [`bucket`] `b`
    /// or a later one, for the `GUIDE_PER_ITEM · n` buckets of `[0, 1)` and
    /// the bucket of 1.0: where the search for a draw in bucket `b` starts.
    guide: Arc<[u32]>,
}

/// The guide bucket of `u ∈ [0, 1]` among `m`: `⌊u·m⌋`. Monotone in `u`, so
/// every CDF entry in an earlier bucket than a draw's is below the draw.
fn bucket(u: f64, m: usize) -> usize {
    (u * m as f64) as usize
}

impl Zipf {
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(u32::try_from(n).is_ok(), "Zipf items are indexed by u32");
        assert!(s >= 0.0 && s.is_finite());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // The last entry is total / total = 1.0, in bucket `m`.
        let m = GUIDE_PER_ITEM * n;
        let mut item = 0;
        let guide = (0..=m)
            .map(|b| {
                while bucket(cdf[item], m) < b {
                    item += 1;
                }
                item as u32
            })
            .collect();
        Zipf {
            cdf: cdf.into(),
            guide,
        }
    }

    /// Maps a uniform sample `u ∈ [0,1)` to an item: the first whose CDF
    /// entry exceeds `u`. A `u` outside the range is clamped into it, and a
    /// NaN maps to item 0.
    pub(crate) fn sample_u(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        // A NaN lands in bucket 0 and is below no entry; otherwise the last
        // entry, 1.0 > u, ends the scan. For any bucket count the start
        // never passes the answer, as `bucket` is monotone; the count sets
        // only how far the scan walks: rarely a step, at eight per item.
        let mut item = self.guide[bucket(u, self.guide.len() - 1)] as usize;
        while self.cdf[item] <= u {
            item += 1;
        }
        item
    }

    /// Probability of item `i`.
    pub(crate) fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// A tiny deterministic hash-to-uniform helper: maps `(seed, a, b, c)` to a
/// uniform f64 in `[0, 1)`. All workload generators derive their randomness
/// this way so a batch's content is a pure function of its coordinates
/// (required by [`ppa_engine::SourceGen`]'s determinism contract).
pub(crate) fn uniform_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ c.wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Below 2^53, so the signed conversion, one instruction where the
    // unsigned one takes several, is exact.
    ((z >> 11) as i64) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.5);
        let sum: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 0.5);
        assert!(z.pmf(0) > z.pmf(999) * 10.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(50, 0.8);
        let n = 200_000;
        let mut counts = vec![0usize; 50];
        for k in 0..n {
            let u = uniform_hash(7, k as u64, 0, 0);
            counts[z.sample_u(u)] += 1;
        }
        for i in [0usize, 1, 10, 49] {
            let got = counts[i] as f64 / n as f64;
            let want = z.pmf(i);
            assert!(
                (got - want).abs() < 0.01 + want * 0.1,
                "item {i}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn sample_u_boundaries() {
        let z = Zipf::new(5, 1.0);
        assert_eq!(z.sample_u(0.0), 0);
        assert!(z.sample_u(0.999_999) < 5);
        assert_eq!(z.sample_u(f64::NAN), 0, "a NaN draw is item 0, not a panic");
    }

    /// The binary search over the CDF that the guide table replaced.
    fn reference_sample_u(z: &Zipf, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        match z.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(z.cdf.len() - 1),
            Err(i) => i,
        }
    }

    #[test]
    fn guided_lookup_matches_the_binary_search() {
        let shapes = [
            (1, 0.5),
            (2, 1.0),
            (7, 0.0),
            (25, 0.8),
            (100, 0.5),
            (1000, 0.5),
            (1000, 1.2),
            (5000, 0.9),
        ];
        for (n, s) in shapes {
            let z = Zipf::new(n, s);
            assert_eq!(z.guide.len(), GUIDE_PER_ITEM * n + 1);
            let draws = (0..200_000).map(|k| uniform_hash(11, k, n as u64, 0));
            // Every CDF entry and every bucket edge, with the floats next
            // to them, where the two searches could part.
            let m = (GUIDE_PER_ITEM * n) as f64;
            let bucket_edges = (1..GUIDE_PER_ITEM * n).map(|b| b as f64 / m);
            let edges = z.cdf.iter().copied().chain(bucket_edges).flat_map(|c| {
                let bits = c.to_bits();
                [bits - 1, bits, bits + 1].map(f64::from_bits)
            });
            for u in draws.chain(edges).chain([0.0, 0.5, 1.0, 2.0, -1.0]) {
                assert_eq!(
                    z.sample_u(u),
                    reference_sample_u(&z, u),
                    "n {n}, s {s}, u {u:e}"
                );
            }
        }
    }

    #[test]
    fn uniform_hash_is_uniform_and_deterministic() {
        assert_eq!(uniform_hash(1, 2, 3, 4), uniform_hash(1, 2, 3, 4));
        let n = 100_000;
        let mean: f64 = (0..n).map(|i| uniform_hash(9, i, 1, 2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        for v in (0..1000).map(|i| uniform_hash(9, i, 1, 2)) {
            assert!((0.0..1.0).contains(&v));
        }
    }
}
