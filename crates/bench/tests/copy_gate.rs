//! The tuple-copy performance gate: `SyntheticOp::on_batch` — the inner
//! loop of every recovery-efficiency experiment — must copy its selected
//! tuples out at close to the speed of the memory it touches, at most 3x
//! what `Vec::extend_from_slice` of the same count costs per tuple, for
//! key-only tuples and for tuples carrying a payload.
//!
//! At selectivity 0.5 the operator keeps every 2nd tuple. Over one chunk
//! that is a strided copy of the chunk; over three equal chunks it is a
//! copy that crosses chunks. Over two equal chunks it is exactly the first
//! chunk, which the output forwards instead of copying (Fig. 6's merge):
//! the gate checks that it shares that chunk, and its ratio reads far
//! below 1.
//!
//! Both sides are timed in this process, back to back, so the ratio is
//! indifferent to the host's speed and core count: the gate executes on a
//! one-core container. Each call writes a fresh output, as the engine's
//! batches do. It only measures release builds (debug codegen has no
//! bearing on the claim) and skips loudly elsewhere.

use ppa_bench::Stopwatch;
use ppa_engine::{BatchCtx, Chunk, InputBatch, Output, Tuple, Udf, Value};
use ppa_sim::SimTime;
use ppa_workloads::SyntheticOp;
use std::hint::black_box;
use std::ops::Deref;

const REPS: usize = 9;
const CALLS_PER_REP: u64 = 2_000;
const CHUNK_TUPLES: u64 = 1_000;

/// Median over `REPS` of the nanoseconds one call of `copy` takes per tuple
/// it appends to a fresh output of type `O`.
fn ns_per_tuple<O: Default + Deref<Target = [Tuple]>>(mut copy: impl FnMut(u64, &mut O)) -> f64 {
    let mut reps: Vec<f64> = (0..=REPS)
        .map(|_| {
            let watch = Stopwatch::start();
            let mut copied = 0;
            for call in 0..CALLS_PER_REP {
                let mut out = O::default();
                copy(call, &mut out);
                copied += black_box(&out).len();
            }
            watch.elapsed().as_secs_f64() * 1e9 / copied as f64
        })
        .skip(1) // warm-up: cold caches
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[REPS / 2]
}

fn ctx(batch: u64) -> BatchCtx {
    BatchCtx {
        batch,
        now: SimTime::ZERO,
        task_local: 0,
        parallelism: 1,
    }
}

/// Holds `on_batch` over chunks of `tuple(key)` to 3x `extend_from_slice`.
fn gate(payload: &str, tuple: fn(u64) -> Tuple) {
    let chunk = |c: u64| -> Chunk {
        (c * CHUNK_TUPLES..(c + 1) * CHUNK_TUPLES)
            .map(tuple)
            .collect::<Vec<_>>()
            .into()
    };
    for fan_in in [1, 2, 3] {
        let chunks: Vec<Chunk> = (0..fan_in).map(chunk).collect();
        let mut op = SyntheticOp::new(1, 0.5);
        let mut out = Output::new();
        op.on_batch(&ctx(0), &[InputBatch::new(0, &chunks)], &mut out);
        assert_eq!(
            out.as_ptr() == chunks[0].as_ptr(),
            fan_in == 2,
            "{payload} tuples, fan-in {fan_in}: the output forwards the first chunk \
             exactly when the selection is that chunk"
        );
        let op_ns = ns_per_tuple(|call, out: &mut Output| {
            op.on_batch(&ctx(call), &[InputBatch::new(0, black_box(&chunks))], out);
        });
        // The same number of tuples, from one contiguous slice.
        let selected: Vec<Tuple> = (0..fan_in * CHUNK_TUPLES / 2).map(tuple).collect();
        let memcpy_ns =
            ns_per_tuple(|_, out: &mut Vec<Tuple>| out.extend_from_slice(black_box(&selected)));
        let ratio = op_ns / memcpy_ns;
        eprintln!(
            "copy gate, {payload} tuples, fan-in {fan_in}: on_batch {op_ns:.2} ns/tuple, \
             extend_from_slice {memcpy_ns:.2} ns/tuple, ratio {ratio:.2}x"
        );
        assert!(
            ratio <= 3.0,
            "SyntheticOp::on_batch on {payload} tuples at fan-in {fan_in} costs {op_ns:.2} ns \
             per output tuple, {ratio:.2}x the {memcpy_ns:.2} ns of extend_from_slice (limit 3x)"
        );
    }
}

#[test]
fn synthetic_op_copies_within_3x_of_extend_from_slice() {
    if cfg!(debug_assertions) {
        eprintln!("skipping copy gate: debug build (run with --release)");
        return;
    }
    // One test, not one per payload: concurrent tests would time each other.
    gate("key-only", Tuple::key_only);
    // Q2's location record: (user id, speed).
    gate("pair", |key| Tuple::new(key, Value::Pair(42_000, 45)));
}
