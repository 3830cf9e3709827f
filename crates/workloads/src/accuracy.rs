//! The paper's query-accuracy functions (§VI-B): compare the tentative
//! outputs of a failure run (`ST`) against the accurate outputs of a golden
//! run (`SA`): `accuracy = |ST ∩ SA| / |SA|`.
//!
//! Comparisons are windowed: only sink batches whose batch id falls in
//! `[from_batch, to_batch)` participate — the harness passes the failure
//! detection batch and the end of the measurement window.

use crate::navigation::jam_set;
use crate::worldcup::topk_set;
use ppa_engine::RunReport;
use std::collections::{BTreeMap, BTreeSet};

/// Generic set-overlap accuracy between two runs' sink outputs, with a
/// per-batch extractor mapping sink tuples to comparable items.
pub(crate) fn sink_set_accuracy<T: Ord + Clone>(
    golden: &RunReport,
    tentative: &RunReport,
    from_batch: u64,
    to_batch: u64,
    extract: impl Fn(&ppa_engine::SinkBatch) -> Vec<T>,
) -> f64 {
    let collect = |rep: &RunReport| -> BTreeSet<T> {
        rep.sink
            .iter()
            .filter(|s| (from_batch..to_batch).contains(&s.batch))
            .flat_map(|s| extract(s).into_iter())
            .collect()
    };
    let sa = collect(golden);
    let st = collect(tentative);
    if sa.is_empty() {
        // No accurate output in the window: nothing to lose.
        return 1.0;
    }
    st.intersection(&sa).count() as f64 / sa.len() as f64
}

/// Q1 accuracy: mean per-batch overlap of the tentative top-k set with the
/// accurate top-k set. Batches the tentative run never emitted count as 0
/// (the sink was down and produced nothing).
pub fn topk_accuracy(
    golden: &RunReport,
    tentative: &RunReport,
    from_batch: u64,
    to_batch: u64,
) -> f64 {
    let mut per_batch = Vec::new();
    for b in from_batch..to_batch {
        let sa: BTreeSet<u64> = golden
            .sink_batches(b)
            .flat_map(|s| topk_set(&s.tuples))
            .collect();
        if sa.is_empty() {
            continue;
        }
        let st: BTreeSet<u64> = tentative
            .sink_batches(b)
            .flat_map(|s| topk_set(&s.tuples))
            .collect();
        per_batch.push(st.intersection(&sa).count() as f64 / sa.len() as f64);
    }
    if per_batch.is_empty() {
        return 1.0;
    }
    per_batch.iter().sum::<f64>() / per_batch.len() as f64
}

/// Recovered-output fidelity of a failure run against a golden run over a
/// batch window: per batch the golden run emitted, the fraction of its sink
/// tuple volume the failure run delivered *on time* (capped at 1), averaged
/// over the window.
///
/// "On time" means within `lateness` of the golden run's emission instant
/// for the same (batch, sink task) — recovery replay eventually backfills
/// *every* batch, so without a deadline any run that recovers at all
/// scores 1.0. The deadline makes the metric measure what the paper's
/// tentative outputs are for: usable (possibly degraded) results when
/// they were due, not a perfect transcript delivered after the outage.
/// Deadlines are per sink task, so a parallel sink whose partitions
/// legitimately emit at different instants scores 1.0 against itself.
///
/// Duplicate on-time sink records from one sink task — a restored task
/// reprocessing its backlog re-emits — are collapsed by keeping that
/// task's fullest record (capped at the task's golden volume), so replay
/// never inflates fidelity; distinct sink tasks of a parallel sink
/// operator are summed, so a whole sink task's missing output is a real
/// loss, not shadowed by its busiest peer. A batch with no on-time record
/// counts as 0: the sink was down (or hopelessly behind) and its output
/// was simply missing when needed.
pub fn batch_fidelity(
    golden: &RunReport,
    run: &RunReport,
    from_batch: u64,
    to_batch: u64,
    lateness: ppa_sim::SimDuration,
) -> f64 {
    let mut per_batch = Vec::new();
    for b in from_batch..to_batch {
        // Per sink task: golden volume (fullest record) and its deadline.
        let mut golden_tasks: BTreeMap<_, (usize, ppa_sim::SimTime)> = BTreeMap::new();
        for s in golden.sink_batches(b) {
            let entry = golden_tasks
                .entry(s.task)
                .or_insert((0, ppa_sim::SimTime::MAX));
            entry.0 = entry.0.max(s.tuples.len());
            entry.1 = entry.1.min(s.at);
        }
        let golden_tuples: usize = golden_tasks.values().map(|&(v, _)| v).sum();
        if golden_tuples == 0 {
            continue;
        }
        let run_tuples: usize = golden_tasks
            .iter()
            .map(|(&task, &(golden_vol, at))| {
                let due = at + lateness;
                run.sink_batches(b)
                    .filter(|s| s.task == task && s.at <= due)
                    .map(|s| s.tuples.len().min(golden_vol))
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        per_batch.push(run_tuples as f64 / golden_tuples as f64);
    }
    if per_batch.is_empty() {
        // No accurate output in the window: nothing to lose.
        return 1.0;
    }
    per_batch.iter().sum::<f64>() / per_batch.len() as f64
}

/// Batch windows attributing output to outages: every distinct outage
/// onset across the run's per-task outage histories (the batch in flight
/// when that failure hit) opens a window, closed by the next onset; the
/// last window closes at `horizon`. `batch_interval` converts failure
/// instants to batch ids.
///
/// Before outage histories existed, a run had one undifferentiated
/// "post-failure" window, so output lost to a *second* outage (an
/// activated replica dying) was silently averaged into the first
/// outage's score. Windowing by onset lets [`batch_fidelity`] charge
/// each loss to the outage that caused it.
pub fn outage_windows(
    run: &RunReport,
    batch_interval: ppa_sim::SimDuration,
    horizon: u64,
) -> Vec<(u64, u64)> {
    let per_batch = batch_interval.as_micros().max(1);
    let onsets: BTreeSet<u64> = run
        .outages
        .iter()
        .flat_map(|o| o.records.iter())
        .map(|rec| rec.failed_at.as_micros() / per_batch)
        .filter(|&b| b < horizon)
        .collect();
    let onsets: Vec<u64> = onsets.into_iter().collect();
    onsets
        .iter()
        .enumerate()
        .map(|(i, &from)| (from, onsets.get(i + 1).copied().unwrap_or(horizon)))
        .collect()
}

/// [`batch_fidelity`] over each window of `windows` — one score per
/// outage window, so late output is attributed to the outage it belongs
/// to instead of diluting its neighbours.
pub fn outage_fidelity(
    golden: &RunReport,
    run: &RunReport,
    windows: &[(u64, u64)],
    lateness: ppa_sim::SimDuration,
) -> Vec<f64> {
    windows
        .iter()
        .map(|&(from, to)| batch_fidelity(golden, run, from, to, lateness))
        .collect()
}

/// Q2 accuracy: overlap of detected incident sets `(segment, incident)` in
/// the window — `|IT ∩ IA| / |IA|`.
pub fn incident_accuracy(
    golden: &RunReport,
    tentative: &RunReport,
    from_batch: u64,
    to_batch: u64,
) -> f64 {
    sink_set_accuracy(golden, tentative, from_batch, to_batch, |s| {
        jam_set(&s.tuples)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::TaskIndex;
    use ppa_engine::{SinkBatch, Tuple, Value};
    use ppa_sim::SimTime;
    use std::sync::Arc;

    fn report_with(batches: Vec<(u64, Vec<Tuple>)>) -> RunReport {
        let mut rep = RunReport::default();
        for (batch, tuples) in batches {
            rep.sink.push(SinkBatch {
                task: TaskIndex(0),
                batch,
                at: SimTime::from_secs(batch),
                tentative: false,
                tuples: tuples.into(),
            });
        }
        rep
    }

    fn digest(keys: &[u64]) -> Vec<Tuple> {
        let counts: Vec<(u64, i64)> = keys.iter().map(|&k| (k, 1)).collect();
        vec![Tuple::new(0, Value::Counts(Arc::new(counts)))]
    }

    #[test]
    fn topk_accuracy_full_overlap_is_one() {
        let g = report_with(vec![(5, digest(&[1, 2, 3, 4]))]);
        let t = report_with(vec![(5, digest(&[1, 2, 3, 4]))]);
        assert!((topk_accuracy(&g, &t, 5, 6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn topk_accuracy_half_overlap() {
        let g = report_with(vec![(5, digest(&[1, 2, 3, 4]))]);
        let t = report_with(vec![(5, digest(&[1, 2, 9, 8]))]);
        assert!((topk_accuracy(&g, &t, 5, 6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn topk_missing_batches_count_zero() {
        let g = report_with(vec![(5, digest(&[1, 2])), (6, digest(&[1, 2]))]);
        let t = report_with(vec![(5, digest(&[1, 2]))]); // batch 6 missing
        assert!((topk_accuracy(&g, &t, 5, 7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn incident_accuracy_uses_pair_sets() {
        let jam = |seg: u64, id: i64| Tuple::new(seg, Value::Int(id));
        let g = report_with(vec![(3, vec![jam(1, 10), jam(2, 11)])]);
        let t = report_with(vec![(3, vec![jam(1, 10)])]);
        assert!((incident_accuracy(&g, &t, 0, 10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_golden_window_is_perfect() {
        let g = report_with(vec![]);
        let t = report_with(vec![]);
        assert_eq!(incident_accuracy(&g, &t, 0, 10), 1.0);
        assert_eq!(topk_accuracy(&g, &t, 0, 10), 1.0);
    }

    #[test]
    fn batch_fidelity_averages_volume_and_collapses_duplicates() {
        let slack = ppa_sim::SimDuration::from_secs(5);
        let key = Tuple::key_only;
        let g = report_with(vec![
            (3, vec![key(1), key(2), key(3), key(4)]),
            (4, vec![key(1), key(2)]),
        ]);
        // Batch 3 delivered half; batch 4 missing; batch 3 also re-emitted
        // by a replaying task with fewer tuples — the fullest record wins.
        let t = report_with(vec![
            (3, vec![key(1), key(9)]),
            (3, vec![key(1)]), // duplicate, smaller: ignored
        ]);
        assert!((batch_fidelity(&g, &t, 0, 10, slack) - 0.25).abs() < 1e-12);
        // Identical runs are perfect; empty windows are perfect.
        assert_eq!(batch_fidelity(&g, &g, 0, 10, slack), 1.0);
        assert_eq!(batch_fidelity(&g, &t, 100, 110, slack), 1.0);
        // Over-delivery (replayed duplicates) is capped at 1 per batch.
        let over = report_with(vec![
            (3, vec![key(1); 8]),
            (4, vec![key(1), key(2), key(3)]),
        ]);
        assert_eq!(batch_fidelity(&g, &over, 0, 10, slack), 1.0);
    }

    #[test]
    fn batch_fidelity_sums_parallel_sink_tasks() {
        let key = Tuple::key_only;
        let record = |task: usize, tuples: Vec<Tuple>| SinkBatch {
            task: TaskIndex(task),
            batch: 3,
            at: SimTime::from_secs(3),
            tentative: false,
            tuples: tuples.into(),
        };
        // A parallelism-2 sink: golden volume is 60 + 40.
        let mut g = RunReport::default();
        g.sink.push(record(5, vec![key(1); 60]));
        g.sink.push(record(6, vec![key(2); 40]));
        // The failure run delivers only task 5's share (plus a smaller
        // re-emission duplicate of it): task 6's 40 tuples are missing and
        // must count as lost, not be shadowed by task 5's maximum.
        let mut t = RunReport::default();
        t.sink.push(record(5, vec![key(1); 60]));
        t.sink.push(record(5, vec![key(1); 20]));
        let slack = ppa_sim::SimDuration::from_secs(5);
        assert!((batch_fidelity(&g, &t, 0, 10, slack) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn batch_fidelity_deadlines_are_per_sink_task() {
        let key = Tuple::key_only;
        let record = |task: usize, at_secs: u64, tuples: Vec<Tuple>| SinkBatch {
            task: TaskIndex(task),
            batch: 3,
            at: SimTime::from_secs(at_secs),
            tentative: false,
            tuples: tuples.into(),
        };
        // A parallel sink whose heavier partition legitimately emits 7 s
        // after the lighter one — far more than the 5 s lateness budget.
        let mut g = RunReport::default();
        g.sink.push(record(5, 3, vec![key(1); 10]));
        g.sink.push(record(6, 10, vec![key(2); 30]));
        let slack = ppa_sim::SimDuration::from_secs(5);
        // Self-fidelity must be perfect: each task is judged against its
        // own golden deadline, not the batch's earliest record.
        assert_eq!(batch_fidelity(&g, &g, 0, 10, slack), 1.0);
        // A run where the heavy partition slips past ITS deadline loses
        // exactly that partition's share.
        let mut t = RunReport::default();
        t.sink.push(record(5, 3, vec![key(1); 10]));
        t.sink.push(record(6, 16, vec![key(2); 30]));
        assert!((batch_fidelity(&g, &t, 0, 10, slack) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn batch_fidelity_ignores_late_backfill() {
        let key = Tuple::key_only;
        // Golden emits batch 3 at t = 3 s (report_with's convention).
        let g = report_with(vec![(3, vec![key(1), key(2)])]);
        // The failure run backfills batch 3 at t = 30 s — a recovery
        // replay, far past any usable deadline.
        let mut late = RunReport::default();
        late.sink.push(SinkBatch {
            task: TaskIndex(0),
            batch: 3,
            at: SimTime::from_secs(30),
            tentative: false,
            tuples: vec![key(1), key(2)].into(),
        });
        let slack = ppa_sim::SimDuration::from_secs(5);
        assert_eq!(batch_fidelity(&g, &late, 0, 10, slack), 0.0);
        // A generous deadline admits it again.
        let generous = ppa_sim::SimDuration::from_secs(60);
        assert_eq!(batch_fidelity(&g, &late, 0, 10, generous), 1.0);
    }

    #[test]
    fn outage_windows_split_at_each_onset() {
        use ppa_engine::{OutageRecord, TaskOutages};
        let rec = |failed: u64| OutageRecord {
            via_replica: false,
            failed_at: SimTime::from_secs(failed),
            detected_at: SimTime::from_secs(failed + 5),
            recovered_at: None,
        };
        let mut run = RunReport::default();
        run.outages.push(TaskOutages {
            task: TaskIndex(1),
            records: vec![rec(40), rec(70)],
        });
        run.outages.push(TaskOutages {
            task: TaskIndex(2),
            records: vec![rec(40)], // same wave: onset deduplicated
        });
        let b = ppa_sim::SimDuration::from_secs(1);
        assert_eq!(outage_windows(&run, b, 100), vec![(40, 70), (70, 100)]);
        // Onsets at or past the horizon are dropped.
        assert_eq!(outage_windows(&run, b, 60), vec![(40, 60)]);
        // No outages, no windows.
        assert!(outage_windows(&RunReport::default(), b, 100).is_empty());
    }

    #[test]
    fn outage_fidelity_charges_each_window_separately() {
        let key = Tuple::key_only;
        let g = report_with((4..8).map(|b| (b, vec![key(1), key(2)])).collect());
        // Batches 4-5 delivered on time; 6-7 lost to a second outage.
        let t = report_with(vec![(4, vec![key(1), key(2)]), (5, vec![key(1), key(2)])]);
        let slack = ppa_sim::SimDuration::from_secs(5);
        assert_eq!(
            outage_fidelity(&g, &t, &[(4, 6), (6, 8)], slack),
            vec![1.0, 0.0],
            "the second outage's loss stays in its own window"
        );
        // One merged window blurs the same loss into an average.
        assert!((batch_fidelity(&g, &t, 4, 8, slack) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_bounds_are_respected() {
        let jam = |seg: u64, id: i64| Tuple::new(seg, Value::Int(id));
        let g = report_with(vec![(3, vec![jam(1, 10)]), (20, vec![jam(2, 11)])]);
        let t = report_with(vec![(3, vec![jam(1, 10)])]);
        // Batch 20 is outside [0, 10): full accuracy.
        assert_eq!(incident_accuracy(&g, &t, 0, 10), 1.0);
        // Including it halves nothing — tentative still finds jam(1,10) of
        // the two golden jams.
        assert!((incident_accuracy(&g, &t, 0, 30) - 0.5).abs() < 1e-12);
    }
}
