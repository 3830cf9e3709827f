//! User-defined functions and source generators.
//!
//! Operators in MPSPEs are opaque user code (§III-A); the engine only needs
//! to run them batch-at-a-time, snapshot their state for checkpoints, and
//! know a state-size proxy for checkpoint/restore cost accounting.

use crate::tuple::{Chunk, Tuple};
use ppa_sim::SimTime;
use std::ops::{Deref, Range};

/// Context handed to a UDF for each batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchCtx {
    /// The batch id being processed (batch `b` covers virtual time
    /// `[b·B, (b+1)·B)`).
    pub batch: u64,
    /// Virtual time at which processing starts.
    pub now: SimTime,
    /// Local index of this task within its operator.
    pub task_local: usize,
    /// Parallelism of this operator.
    pub parallelism: usize,
}

/// One input stream's tuples for a batch, lent to the UDF in place.
///
/// `stream` is the input-stream index (one per upstream operator, in task
/// graph order). The batch is the stream's substream [`Chunk`]s exactly as
/// the upstream tasks emitted them, one per flat substream (an empty chunk
/// where a proxy punctuation closed the substream without data); nothing
/// is copied to build it.
///
/// [`iter`](InputBatch::iter) is the stream's deterministic tuple order:
/// round-robin across the substream chunks — row-major, the `i`-th tuple of
/// every chunk in chunk order before any `i+1`-th, skipping chunks that are
/// exhausted. A replica observes the identical sequence as its primary
/// (§V-B's deterministic batch processing), and order-sensitive UDFs (a
/// float sum, a last-write-wins map) may rely on it.
///
/// A UDF may keep clones of [`chunks`](InputBatch::chunks) as state — a
/// clone is a refcount bump — but chunks are shared with the sender's
/// output buffer, checkpoints and replicas and can never be mutated.
#[derive(Debug)]
pub struct InputBatch<'a> {
    pub stream: usize,
    chunks: &'a [Chunk],
}

impl<'a> InputBatch<'a> {
    /// The batch of input stream `stream` made of `chunks`, one per
    /// substream in flat substream order.
    pub fn new(stream: usize, chunks: &'a [Chunk]) -> Self {
        InputBatch { stream, chunks }
    }

    /// The substream chunks, in flat substream order.
    pub fn chunks(&self) -> &'a [Chunk] {
        self.chunks
    }

    /// Number of tuples in the batch.
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// The batch's tuples in round-robin order (see the type docs): the
    /// read path. It carries no length hint, so copy tuples out with
    /// [`copy_every`](InputBatch::copy_every), not by collecting from it.
    pub fn iter(&self) -> impl Iterator<Item = &'a Tuple> + 'a {
        let chunks = self.chunks;
        let rows = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        (0..rows).flat_map(move |i| chunks.iter().filter_map(move |c| c.get(i)))
    }

    /// Appends to `out` every `step`-th tuple of the batch's round-robin
    /// order, starting at position `first` — the tuples
    /// `iter().skip(first).step_by(step)` yields, in that order — and
    /// returns the carry-over offset: how far past this batch's end the
    /// next selected position lies (saturating). Passing it as the next
    /// input stream's `first` selects every `step`-th tuple of the
    /// streams' concatenation, so a UDF folds it over its inputs starting
    /// from 0. A batch shorter than `first` copies nothing and returns
    /// `first - len()`.
    ///
    /// This is the way to copy tuples out of a batch: `out` is reserved
    /// once and written in place, where collecting from
    /// [`iter`](InputBatch::iter) builds each clone on the stack first.
    ///
    /// When the selection is exactly one input chunk and `out` is empty,
    /// nothing is copied: `out` forwards that chunk (see [`Output`]). That
    /// holds when no chunk is empty, every chunk has the same length,
    /// `step` is the number of chunks and `first < step` — Fig. 6's
    /// fan-in-2 merge at selectivity 0.5 keeps its first input chunk.
    ///
    /// # Panics
    /// If `step` is 0.
    pub fn copy_every(&self, first: usize, step: usize, out: &mut Output) -> usize {
        assert!(step > 0, "copy_every needs a positive step");
        let len = self.len();
        if first >= len {
            return first - len;
        }
        let chunks = self.chunks;
        // Round-robin skips exhausted chunks, so empty ones never count.
        if chunks.iter().any(|c| c.is_empty()) {
            let live: Vec<&[Tuple]> = (chunks.iter())
                .filter(|c| !c.is_empty())
                .map(|c| &**c)
                .collect();
            self.copy_strided(&live, first..len, step, out.owned());
        } else if step == chunks.len()
            && first < step
            && out.is_empty()
            && chunks.iter().all(|c| c.len() == chunks[0].len())
        {
            out.forwarded = Some(chunks[first].clone());
        } else {
            self.copy_strided(chunks, first..len, step, out.owned());
        }
        let taken = (len - first).div_ceil(step);
        first.saturating_add(taken.saturating_mul(step)) - len
    }

    /// Extends `out` with every `step`-th tuple at the round-robin positions
    /// `span` of `live`, the batch's non-empty chunks.
    ///
    /// Chunks of one length (a single chunk included) are spelled as
    /// exact-size iterators, so `Vec::extend` reserves once and clones each
    /// tuple straight into its slot: position `p` is tuple `p / width` of
    /// chunk `p % width`, and a step that is a multiple of the width never
    /// leaves its chunk. Ragged chunks take [`iter`](InputBatch::iter)
    /// after an explicit reserve.
    fn copy_strided<C: Deref<Target = [Tuple]>>(
        &self,
        live: &[C],
        span: Range<usize>,
        step: usize,
        out: &mut Vec<Tuple>,
    ) {
        let width = live.len();
        let equal = live.windows(2).all(|w| w[0].len() == w[1].len());
        if equal && step.is_multiple_of(width) {
            let column = &live[span.start % width][span.start / width..];
            out.extend(column.iter().step_by(step / width).cloned());
        } else if equal {
            out.extend(
                span.step_by(step)
                    .map(|p| live[p % width][p / width].clone()),
            );
        } else {
            out.reserve(span.len().div_ceil(step));
            out.extend(self.iter().skip(span.start).step_by(step).cloned());
        }
    }
}

/// A user-defined operator function.
///
/// Implementations must be deterministic given the same input sequence —
/// active replication and checkpoint replay both rely on it.
pub trait Udf: Send {
    /// Processes one batch, appending output tuples to `out`.
    ///
    /// `inputs` holds one [`InputBatch`] per input stream, in stream order.
    /// The tuples are read in place: iterate them in the batch's
    /// round-robin order, copy them out with
    /// [`InputBatch::copy_every`], and retain input chunks by cloning them
    /// if the operator keeps raw input as state — never by mutating them.
    /// Build new tuples with [`Output::push`] or `extend`. `out` starts
    /// empty; a `copy_every` that selects one whole input chunk into it
    /// shares that chunk instead of copying it, and whatever is appended
    /// after that lands behind the shared tuples.
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output);

    /// Snapshots the full operator state (for checkpoints and replicas).
    fn snapshot(&self) -> Box<dyn Udf>;

    /// Approximate state size in tuples, used to cost checkpoints/restores.
    fn state_tuples(&self) -> usize;
}

/// What a UDF emits for one batch: tuples it built, or one of its input
/// chunks forwarded whole.
///
/// It reads like the `Vec<Tuple>` it replaces: it dereferences to
/// `[Tuple]`, and [`push`](Output::push) and `extend` append. Only
/// [`InputBatch::copy_every`] forwards, when its selection is exactly one
/// input chunk and the output is still empty; the engine then emits that
/// chunk itself, so the hop copies no tuple and holds no second copy.
/// Appending to a forwarded output first copies the forwarded tuples in
/// (copy on write), so the appended tuples land behind them as they would
/// in a `Vec`; the input chunk itself is never mutated.
#[derive(Debug, Default)]
pub struct Output {
    /// An input chunk that is the whole output, shared; `owned` is empty
    /// while it is set.
    forwarded: Option<Chunk>,
    owned: Vec<Tuple>,
}

impl Output {
    /// An empty output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one tuple.
    pub fn push(&mut self, tuple: Tuple) {
        self.owned().push(tuple);
    }

    /// The owned tuples, with a forwarded chunk copied in first.
    fn owned(&mut self) -> &mut Vec<Tuple> {
        if let Some(chunk) = self.forwarded.take() {
            self.owned.extend_from_slice(&chunk);
        }
        &mut self.owned
    }

    /// The output as the chunk the engine emits: the forwarded chunk
    /// itself, or the owned tuples moved into a new one.
    pub(crate) fn into_chunk(self) -> Chunk {
        self.forwarded.unwrap_or_else(|| self.owned.into())
    }
}

impl Extend<Tuple> for Output {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) {
        self.owned().extend(tuples);
    }
}

impl Deref for Output {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        self.forwarded.as_deref().unwrap_or(&self.owned)
    }
}

/// A source-task generator.
///
/// Generation must be a pure function of the batch id: derive any
/// randomness from `(seed, task, batch)`, and let no call depend on which
/// batches were asked for before. The engine relies on it for more than
/// source recovery and Storm-style source replay: a source's output buffer
/// keeps no tuples, only weak handles, and a re-serve whose chunk nobody
/// holds any more asks the generator for the batch again — out of order,
/// and possibly more than once. Regenerating a batch must yield the
/// identical tuples.
pub trait SourceGen: Send {
    /// The tuples this source task emits for batch `batch`.
    fn batch(&mut self, batch: u64) -> Vec<Tuple>;

    /// How many tuples [`batch`](SourceGen::batch) emits for `batch`. A
    /// muted replica charges its CPU from this alone and sends nothing, so
    /// a generator that knows its batch length without drawing the tuples
    /// should say so here; it must equal `self.batch(batch).len()`.
    fn batch_len(&mut self, batch: u64) -> usize {
        self.batch(batch).len()
    }
}

/// A stateless map UDF built from a function; handy for tests and examples.
pub struct MapUdf<F: Fn(&Tuple) -> Option<Tuple> + Clone + Send + 'static> {
    f: F,
}

impl<F: Fn(&Tuple) -> Option<Tuple> + Clone + Send + 'static> MapUdf<F> {
    pub fn new(f: F) -> Self {
        MapUdf { f }
    }
}

impl<F: Fn(&Tuple) -> Option<Tuple> + Clone + Send + 'static> Udf for MapUdf<F> {
    fn on_batch(&mut self, _ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        for input in inputs {
            for t in input.iter() {
                if let Some(o) = (self.f)(t) {
                    out.push(o);
                }
            }
        }
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(MapUdf { f: self.f.clone() })
    }

    fn state_tuples(&self) -> usize {
        0
    }
}

/// A fixed-rate source emitting `rate` key-only tuples per batch, with keys
/// below `key_space` drawn deterministically from `(seed, task, batch, i)`
/// (a `key_space` of 0 is one key: every tuple has key 0); used by tests and
/// the quickstart example.
#[derive(Debug, Clone)]
pub struct CountingSource {
    pub per_batch: usize,
    pub seed: u64,
    pub key_space: u64,
}

impl SourceGen for CountingSource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        (0..self.per_batch)
            .map(|i| {
                let h =
                    crate::tuple::hash_key(self.seed ^ batch.wrapping_mul(0x9E37_79B9) ^ i as u64);
                Tuple::key_only(h % self.key_space.max(1))
            })
            .collect()
    }

    fn batch_len(&mut self, _batch: u64) -> usize {
        self.per_batch
    }
}

/// A sliding window over raw input — the building block for windowed
/// UDFs. It keeps each batch's tuple count, not its tuples: `len_tuples`
/// reflects the real window volume (what checkpoints are priced from),
/// and the chunks die once their deliveries and buffers drop them.
#[derive(Debug, Clone, Default)]
pub struct WindowBuffer {
    batches: std::collections::VecDeque<(u64, usize)>,
    tuples: usize,
}

impl WindowBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a batch of `tuples` tuples into the window and evicts
    /// batches older than `window_batches`.
    pub fn push(&mut self, batch: u64, tuples: usize, window_batches: u64) {
        self.tuples += tuples;
        self.batches.push_back((batch, tuples));
        let min_keep = batch.saturating_sub(window_batches.saturating_sub(1));
        while let Some((_, dropped)) = self.batches.pop_front_if(|(b, _)| *b < min_keep) {
            self.tuples -= dropped;
        }
    }

    /// Number of tuples currently inside the window.
    pub fn len_tuples(&self) -> usize {
        self.tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    #[test]
    fn map_udf_filters_and_transforms() {
        let mut udf = MapUdf::new(|t: &Tuple| {
            t.key
                .is_multiple_of(2)
                .then(|| Tuple::new(t.key, Value::Int(1)))
        });
        let tuples: Vec<Tuple> = (0..6).map(Tuple::key_only).collect();
        let mut out = Output::new();
        let ctx = BatchCtx {
            batch: 0,
            now: SimTime::ZERO,
            task_local: 0,
            parallelism: 1,
        };
        udf.on_batch(&ctx, &[InputBatch::new(0, &[tuples.into()])], &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|t| t.key % 2 == 0));
    }

    #[test]
    fn counting_source_is_deterministic_per_batch() {
        let mut a = CountingSource {
            per_batch: 100,
            seed: 7,
            key_space: 50,
        };
        let mut b = CountingSource {
            per_batch: 100,
            seed: 7,
            key_space: 50,
        };
        assert_eq!(a.batch(3), b.batch(3));
        assert_ne!(
            a.batch(3),
            a.batch(4),
            "different batches yield different data"
        );
    }

    #[test]
    fn window_buffer_evicts_old_batches() {
        let mut w = WindowBuffer::new();
        for b in 0..10u64 {
            w.push(b, 5, 3);
        }
        assert_eq!(w.len_tuples(), 15, "3 batches × 5 tuples");
        let batches: Vec<u64> = w.batches.iter().map(|(b, _)| *b).collect();
        assert_eq!(batches, vec![7, 8, 9]);
    }

    #[test]
    fn window_buffer_snapshot_is_cheap_but_counts_state() {
        let chunks = [Chunk::from(vec![Tuple::key_only(1); 600]), Chunk::default()];
        let mut w = WindowBuffer::new();
        w.push(0, InputBatch::new(0, &chunks).len(), 10);
        w.push(1, 0, 10);
        assert_eq!(chunks[0].holders(), 1, "the window holds no chunk");
        let snap = w.clone();
        assert_eq!(snap.len_tuples(), 600);
        // A batch without tuples still slides the window.
        w.push(10, 0, 10);
        assert_eq!(w.len_tuples(), 0);
    }

    /// The interleave `process_batch` used to materialise per fan-in
    /// stream: row-major over the chunks, skipping exhausted ones.
    fn reference_interleave(chunks: &[Chunk]) -> Vec<Tuple> {
        let max_len = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut out = Vec::new();
        for i in 0..max_len {
            for c in chunks {
                if let Some(t) = c.get(i) {
                    out.push(t.clone());
                }
            }
        }
        out
    }

    /// One chunk set per shape: none, one chunk, equal lengths, ragged,
    /// equal lengths around empty chunks (also what a proxy-closed
    /// substream lends), ragged with empties, all empty.
    fn chunk_set(rng: &mut rand::rngs::StdRng, shape: u64, tag: usize) -> Vec<Chunk> {
        use rand::Rng;
        let lens: Vec<usize> = match shape % 7 {
            0 => vec![],
            1 => vec![rng.gen_range(1..40)],
            2 => vec![rng.gen_range(1..20); rng.gen_range(2..6)],
            3 => (0..rng.gen_range(2..6))
                .map(|_| rng.gen_range(1..40))
                .collect(),
            4 => {
                let len = rng.gen_range(1..20);
                (0..rng.gen_range(2..7))
                    .map(|c| if c % 2 == 0 { 0 } else { len })
                    .collect()
            }
            5 => (0..rng.gen_range(2..6))
                .map(|_| rng.gen_range(0..3usize) * rng.gen_range(1..20usize))
                .collect(),
            _ => vec![0; rng.gen_range(1..4)],
        };
        (lens.iter().enumerate())
            .map(|(c, &len)| {
                (0..len)
                    .map(|i| {
                        let key = (tag * 100_000 + c * 1000 + i) as u64;
                        Tuple::new(key, Value::Int(rng.gen_range(0..9)))
                    })
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect()
    }

    const STEPS: [usize; 5] = [1, 2, 3, 7, usize::MAX];

    /// An output that holds `held`, built by appending.
    fn output_holding(held: &[Tuple]) -> Output {
        let mut out = Output::new();
        out.extend(held.iter().cloned());
        out
    }

    /// `iter` against the reference interleave, and `copy_every` against
    /// `iter().skip(first).step_by(step)` appended behind `held`, the
    /// tuples the output already holds.
    fn assert_round_robin(held: &[Tuple]) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = held.len();
        for seed in 0..70u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let chunks = chunk_set(&mut rng, seed, 0);
            let batch = InputBatch::new(0, &chunks);
            let expected = reference_interleave(&chunks);
            let len = expected.len();
            assert_eq!(batch.len(), len, "seed {seed}");
            let got: Vec<Tuple> = batch.iter().cloned().collect();
            assert_eq!(got, expected, "seed {seed}");
            // The copy primitive against the formulation it replaced, and
            // its carry-over against the next selected position.
            for step in STEPS {
                for first in 0..step.min(len + 2) {
                    let what = format!("seed {seed}, step {step}, first {first}");
                    let reference: Vec<Tuple> =
                        batch.iter().skip(first).step_by(step).cloned().collect();
                    let next = first as u128 + (reference.len() as u128) * (step as u128);
                    let carry = usize::try_from(next).unwrap_or(usize::MAX) - len;
                    let mut out = output_holding(held);
                    assert_eq!(batch.copy_every(first, step, &mut out), carry, "{what}");
                    assert_eq!(out[..n], *held, "{what}: appends");
                    assert_eq!(out[n..], reference, "{what}");
                }
            }
        }
        // Folded over a UDF's input streams, the carry-over selects from
        // their concatenation.
        for seed in 0..70u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            // Two and three streams of every shape pairing; every other seed
            // the middle or last stream is shorter than the offset a step of
            // 7 carries into it.
            let mut streams: Vec<Vec<Chunk>> = (0..2 + seed % 2)
                .map(|s| chunk_set(&mut rng, seed / 2 + 3 * s, s as usize))
                .collect();
            if seed % 4 < 2 {
                let short: Vec<Tuple> = (0..rng.gen_range(0..3)).map(Tuple::key_only).collect();
                streams[1] = vec![Chunk::from(short)];
            }
            let inputs: Vec<InputBatch<'_>> = (streams.iter().enumerate())
                .map(|(s, chunks)| InputBatch::new(s, chunks))
                .collect();
            for step in STEPS {
                let reference: Vec<Tuple> = (held.iter().cloned())
                    .chain(
                        (inputs.iter())
                            .flat_map(|i| i.iter())
                            .step_by(step)
                            .cloned(),
                    )
                    .collect();
                let mut out = output_holding(held);
                (inputs.iter()).fold(0, |first, i| i.copy_every(first, step, &mut out));
                assert_eq!(out[..], reference, "seed {seed}, step {step}");
            }
        }
        // The carried offset outlives a stream it skips entirely.
        let streams = [
            vec![Chunk::from(vec![Tuple::key_only(0); 3])],
            vec![Chunk::from(vec![Tuple::key_only(1); 2]), Chunk::default()],
            vec![Chunk::from(vec![Tuple::key_only(2); 4])],
        ];
        let inputs: Vec<InputBatch<'_>> = (streams.iter().enumerate())
            .map(|(s, chunks)| InputBatch::new(s, chunks))
            .collect();
        let mut out = output_holding(held);
        assert_eq!(inputs[0].copy_every(0, 7, &mut out), 4);
        assert_eq!(inputs[1].copy_every(4, 7, &mut out), 2);
        assert_eq!(inputs[2].copy_every(2, 7, &mut out), 5);
        assert_eq!(out[..n], *held);
        assert_eq!(out[n..], [Tuple::key_only(0), Tuple::key_only(2)]);
    }

    #[test]
    fn input_batch_iter_is_the_round_robin_interleave() {
        assert_round_robin(&[]);
        // Forwarding needs an empty output: tuples already there are never
        // dropped.
        assert_round_robin(&[Tuple::key_only(u64::MAX), Tuple::key_only(u64::MAX - 1)]);
    }

    /// One chunk per entry of `lens`, keyed by chunk and position.
    fn chunks_of(lens: &[usize]) -> Vec<Chunk> {
        (lens.iter().enumerate())
            .map(|(c, &len)| {
                let keys = (0..len as u64).map(|i| Tuple::key_only(c as u64 * 1000 + i));
                keys.collect::<Vec<_>>().into()
            })
            .collect()
    }

    /// What `copy_every(first, step)` puts into an output holding `held`,
    /// and the input chunk it forwards, if any.
    fn copy_into(
        chunks: &[Chunk],
        first: usize,
        step: usize,
        held: &[Tuple],
    ) -> (Vec<Tuple>, Option<usize>) {
        let mut out = output_holding(held);
        let batch = InputBatch::new(0, chunks);
        let reference: Vec<Tuple> = (held.iter().cloned())
            .chain(batch.iter().skip(first).step_by(step).cloned())
            .collect();
        batch.copy_every(first, step, &mut out);
        assert_eq!(out[..], reference, "forwarding or not, the same tuples");
        let chunk = out.into_chunk();
        let forwarded = chunks.iter().position(|c| Chunk::ptr_eq(c, &chunk));
        (chunk.to_vec(), forwarded)
    }

    #[test]
    fn copy_every_forwards_exactly_one_whole_chunk_into_an_empty_output() {
        // All four conditions hold: the selection is chunk `first`.
        let two = chunks_of(&[4, 4]);
        assert_eq!(copy_into(&two, 0, 2, &[]), (two[0].to_vec(), Some(0)));
        assert_eq!(copy_into(&two, 1, 2, &[]), (two[1].to_vec(), Some(1)));
        let three = chunks_of(&[3, 3, 3]);
        assert_eq!(copy_into(&three, 2, 3, &[]).1, Some(2));
        assert_eq!(copy_into(&chunks_of(&[5]), 0, 1, &[]).1, Some(0));
        // One counter-case per condition, each otherwise the forwarding
        // case. The output already holds a tuple:
        let held = [Tuple::key_only(u64::MAX)];
        assert_eq!(copy_into(&two, 0, 2, &held).1, None);
        // a proxy-closed substream lent an empty chunk (without it, the
        // two live chunks would forward):
        assert_eq!(copy_into(&chunks_of(&[4, 0, 4]), 0, 2, &[]).1, None);
        // the chunks' lengths differ (the selection is still all of the
        // first chunk's tuples):
        let ragged = chunks_of(&[4, 3]);
        assert_eq!(copy_into(&ragged, 0, 2, &[]), (ragged[0].to_vec(), None));
        // the step is not the number of chunks:
        assert_eq!(copy_into(&two, 0, 4, &[]).1, None);
        assert_eq!(copy_into(&chunks_of(&[5]), 0, 2, &[]).1, None);
        // the first position is past the first row:
        assert_eq!(copy_into(&two, 2, 2, &[]).1, None);
    }

    #[test]
    fn appending_to_a_forwarded_output_lands_behind_the_forwarded_tuples() {
        let chunks = chunks_of(&[3, 3]);
        let batch = InputBatch::new(0, &chunks);
        let extra = [Tuple::key_only(7), Tuple::key_only(8)];
        let mut pushed = Output::new();
        batch.copy_every(0, 2, &mut pushed);
        assert_eq!(pushed.as_ptr(), chunks[0].as_ptr(), "forwarded");
        pushed.push(extra[0].clone());
        let mut extended = Output::new();
        batch.copy_every(0, 2, &mut extended);
        extended.extend(extra.iter().cloned());
        let behind = |n: usize| [&chunks[0][..], &extra[..n]].concat();
        assert_eq!(pushed[..], behind(1));
        assert_eq!(extended[..], behind(2));
        assert_eq!(chunks, chunks_of(&[3, 3]), "the input chunk is not mutated");
        assert!(!Chunk::ptr_eq(&extended.into_chunk(), &chunks[0]));
    }

    #[test]
    fn counting_source_with_no_key_space_emits_key_zero() {
        let mut source = CountingSource {
            per_batch: 3,
            seed: 7,
            key_space: 0,
        };
        assert_eq!(source.batch(1), vec![Tuple::key_only(0); 3]);
    }
}
