//! Shrink-on-failure: reduce a failing `(FailureTrace, ChaosSchedule)`
//! pair to a minimal one that still fails, by greedy delta debugging.
//!
//! The shrinker is generic over the failure predicate, so property tests
//! can drive it with synthetic predicates and the swarm drives it with
//! "replay the candidate against the scenario and re-check invariants".
//! Three reduction moves run to a bounded fixpoint:
//!
//! 1. drop one chaos-schedule event;
//! 2. drop one kill-trace event;
//! 3. halve one kill event's node list (keep either half).
//!
//! Every accepted move strictly shrinks `(trace events + schedule
//! events, total nodes)`, so termination is structural; the attempt cap
//! only bounds predicate cost on pathological inputs.

use crate::schedule::ChaosSchedule;
use ppa_engine::FailureTrace;

/// Ceiling on predicate evaluations per shrink. Each evaluation replays
/// a full scenario in the swarm, so the cap keeps a worst-case shrink in
/// the same cost band as a few dozen ordinary seeds.
const MAX_ATTEMPTS: usize = 256;

/// A shrunk failing scenario and how much work finding it took.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Shrunk {
    pub(crate) trace: FailureTrace,
    pub(crate) schedule: ChaosSchedule,
    /// Predicate evaluations spent.
    pub(crate) attempts: usize,
}

fn without_trace_event(trace: &FailureTrace, drop: usize) -> FailureTrace {
    let mut out = FailureTrace::new();
    for (i, e) in trace.events().iter().enumerate() {
        if i != drop {
            out.push(e.at, e.nodes.clone());
        }
    }
    out
}

fn with_nodes_halved(trace: &FailureTrace, at_idx: usize, first_half: bool) -> FailureTrace {
    let mut out = FailureTrace::new();
    for (i, e) in trace.events().iter().enumerate() {
        if i == at_idx {
            let mid = e.nodes.len() / 2;
            let kept = if first_half {
                e.nodes[..mid].to_vec()
            } else {
                e.nodes[mid..].to_vec()
            };
            out.push(e.at, kept);
        } else {
            out.push(e.at, e.nodes.clone());
        }
    }
    out
}

fn without_schedule_event(schedule: &ChaosSchedule, drop: usize) -> ChaosSchedule {
    ChaosSchedule::from_events(
        schedule
            .events()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, e)| e.clone()),
    )
}

/// Greedily shrinks a failing pair. `still_fails` must return `true` for
/// the input pair (the caller established the failure); the result is
/// the smallest pair the moves above reach that still fails.
pub(crate) fn shrink<F>(
    trace: &FailureTrace,
    schedule: &ChaosSchedule,
    mut still_fails: F,
) -> Shrunk
where
    F: FnMut(&FailureTrace, &ChaosSchedule) -> bool,
{
    let mut best_trace = trace.clone();
    let mut best_schedule = schedule.clone();
    let mut attempts = 0usize;
    let mut try_candidate = |t: &FailureTrace, s: &ChaosSchedule, attempts: &mut usize| -> bool {
        if *attempts >= MAX_ATTEMPTS {
            return false;
        }
        *attempts += 1;
        still_fails(t, s)
    };

    loop {
        let mut progressed = false;

        // Move 1: drop schedule events, highest index first so earlier
        // indices stay valid after a removal.
        let mut i = best_schedule.len();
        while i > 0 {
            i -= 1;
            let candidate = without_schedule_event(&best_schedule, i);
            if try_candidate(&best_trace, &candidate, &mut attempts) {
                best_schedule = candidate;
                progressed = true;
            }
        }

        // Move 2: drop whole kill events.
        let mut i = best_trace.len();
        while i > 0 {
            i -= 1;
            let candidate = without_trace_event(&best_trace, i);
            if try_candidate(&candidate, &best_schedule, &mut attempts) {
                best_trace = candidate;
                progressed = true;
            }
        }

        // Move 3: halve multi-node kill events.
        let mut i = best_trace.len();
        while i > 0 {
            i -= 1;
            if best_trace.events()[i].nodes.len() < 2 {
                continue;
            }
            for first_half in [true, false] {
                let candidate = with_nodes_halved(&best_trace, i, first_half);
                if try_candidate(&candidate, &best_schedule, &mut attempts) {
                    best_trace = candidate;
                    progressed = true;
                    break;
                }
            }
        }

        if !progressed || attempts >= MAX_ATTEMPTS {
            break;
        }
    }

    Shrunk {
        trace: best_trace,
        schedule: best_schedule,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_engine::{ChaosKind, ChaosSpec};
    use ppa_sim::SimTime;

    fn big_trace() -> FailureTrace {
        let mut t = FailureTrace::new();
        t.push(SimTime::from_secs(10), vec![0, 1, 2, 3]);
        t.push(SimTime::from_secs(20), vec![4, 5]);
        t.push(SimTime::from_secs(30), vec![6]);
        t
    }

    fn big_schedule() -> ChaosSchedule {
        ChaosSchedule::from_events([
            ChaosSpec {
                at: SimTime::from_secs(5),
                kind: ChaosKind::HeartbeatDuplicate,
            },
            ChaosSpec {
                at: SimTime::from_secs(15),
                kind: ChaosKind::HeartbeatDrop { scans: 2 },
            },
            ChaosSpec {
                at: SimTime::from_secs(25),
                kind: ChaosKind::RestoreVoid { task: 1 },
            },
        ])
    }

    /// The failure depends only on node 5 dying: the shrinker must strip
    /// everything else.
    #[test]
    fn shrinks_to_the_single_culprit_kill() {
        let shrunk = shrink(&big_trace(), &big_schedule(), |t, _| {
            t.events().iter().any(|e| e.nodes.contains(&5))
        });
        assert_eq!(shrunk.trace.len(), 1);
        assert_eq!(shrunk.trace.events()[0].nodes, vec![5]);
        assert!(shrunk.schedule.is_empty(), "schedule fully stripped");
        assert!(shrunk.attempts <= MAX_ATTEMPTS);
    }

    /// The failure needs the RestoreVoid *and* at least one kill: both
    /// survive, everything else goes.
    #[test]
    fn keeps_a_jointly_necessary_pair() {
        let shrunk = shrink(&big_trace(), &big_schedule(), |t, s| {
            let void = s
                .events()
                .iter()
                .any(|e| matches!(e.kind, ChaosKind::RestoreVoid { .. }));
            void && !t.is_empty()
        });
        assert_eq!(shrunk.schedule.len(), 1);
        assert!(matches!(
            shrunk.schedule.events()[0].kind,
            ChaosKind::RestoreVoid { .. }
        ));
        assert_eq!(shrunk.trace.len(), 1);
        assert_eq!(
            shrunk.trace.events()[0].nodes.len(),
            1,
            "the surviving kill is halved down to one node"
        );
    }

    /// Shrinking preserves the failure: the returned pair still fails,
    /// and is no larger than the input (the shrinker's core property).
    #[test]
    fn result_still_fails_and_never_grows() {
        let trace = big_trace();
        let schedule = big_schedule();
        let pred = |t: &FailureTrace, _: &ChaosSchedule| {
            t.events().iter().map(|e| e.nodes.len()).sum::<usize>() >= 2
        };
        let shrunk = shrink(&trace, &schedule, pred);
        assert!(pred(&shrunk.trace, &shrunk.schedule), "still fails");
        assert!(shrunk.trace.len() <= trace.len());
        assert!(shrunk.schedule.len() <= schedule.len());
        let nodes = |t: &FailureTrace| t.events().iter().map(|e| e.nodes.len()).sum::<usize>();
        assert!(nodes(&shrunk.trace) <= nodes(&trace));
        assert_eq!(nodes(&shrunk.trace), 2, "minimal under the predicate");
    }
}
