//! `FaultFeed`: the one ordered event source every kind of fault injection
//! funnels through, and the only way a failure reaches a run.
//!
//! A feed accepts three shapes — explicit [`FailureSpec`] kill sets,
//! replayable [`FailureTrace`]s and live generative [`FailureProcess`]es —
//! resolves them against the run's [`Placement`] (processes generate
//! against its fault-domain tree) and validates every event's nodes
//! centrally, yielding the one normalized [`FailureTrace`] that
//! [`crate::Simulation::drive`] schedules.

use crate::error::EngineError;
use crate::placement::Placement;
use crate::runtime::FailureSpec;
use ppa_faults::{FailureProcess, FailureTrace};
use ppa_sim::{SimDuration, SimTime};

/// One source of failure events, pre-resolution.
enum FeedEntry {
    /// An explicit node kill set at an instant.
    Spec(FailureSpec),
    /// A replayable, already-rendered trace.
    Trace(FailureTrace),
    /// A live generative process, rendered against the placement's
    /// fault-domain tree at resolution time.
    Process {
        process: Box<dyn FailureProcess>,
        start: SimTime,
        horizon: SimDuration,
        seed: u64,
    },
}

/// An ordered, heterogeneous failure scenario: explicit specs, replayable
/// traces and generative processes, resolved against a [`Placement`] into
/// one normalized [`FailureTrace`].
#[derive(Default)]
pub struct FaultFeed {
    entries: Vec<FeedEntry>,
}

impl FaultFeed {
    /// An empty feed (a failure-free run).
    pub fn new() -> Self {
        FaultFeed::default()
    }

    /// A feed replaying exactly the given trace.
    pub fn from_trace(trace: FailureTrace) -> Self {
        FaultFeed::new().with_trace(trace)
    }

    /// Adds one explicit kill event.
    pub fn with_spec(mut self, spec: FailureSpec) -> Self {
        self.entries.push(FeedEntry::Spec(spec));
        self
    }

    /// Adds a list of explicit kill events.
    pub(crate) fn with_specs(mut self, specs: Vec<FailureSpec>) -> Self {
        self.entries.extend(specs.into_iter().map(FeedEntry::Spec));
        self
    }

    /// Adds every event of a replayable trace.
    pub(crate) fn with_trace(mut self, trace: FailureTrace) -> Self {
        self.entries.push(FeedEntry::Trace(trace));
        self
    }

    /// Adds a live generative failure process covering
    /// `[start, start + horizon)`, seeded for reproducibility. The process
    /// draws from the placement's attached fault-domain tree at resolution
    /// time; a placement without one rejects the feed.
    pub fn with_process(
        mut self,
        process: Box<dyn FailureProcess>,
        start: SimTime,
        horizon: SimDuration,
        seed: u64,
    ) -> Self {
        self.entries.push(FeedEntry::Process {
            process,
            start,
            horizon,
            seed,
        });
        self
    }

    /// Resolves the feed against a placement into one normalized trace:
    /// processes generate against its fault-domain tree, and every
    /// resulting event's nodes are validated against the cluster size.
    pub fn resolve(&self, placement: &Placement) -> Result<FailureTrace, EngineError> {
        let mut trace = FailureTrace::new();
        for entry in &self.entries {
            match entry {
                FeedEntry::Spec(spec) => trace.push(spec.at, spec.nodes.clone()),
                FeedEntry::Trace(t) => {
                    for e in t.events() {
                        trace.push(e.at, e.nodes.clone());
                    }
                }
                FeedEntry::Process {
                    process,
                    start,
                    horizon,
                    seed,
                } => {
                    let tree = placement
                        .fault_domains()
                        .ok_or(crate::placement::PlacementError::NoFaultDomains)?;
                    let generated = process.generate_seeded(tree, *start, *horizon, *seed);
                    for e in generated.events() {
                        trace.push(e.at, e.nodes.clone());
                    }
                }
            }
        }
        let n_nodes = placement.n_nodes();
        for e in trace.events() {
            if let Some(&node) = e.nodes.iter().find(|&&n| n >= n_nodes) {
                return Err(EngineError::NodeOutOfRange { node, n_nodes });
            }
        }
        Ok(trace)
    }
}

/// A feed holding exactly the given failure specs.
impl From<Vec<FailureSpec>> for FaultFeed {
    fn from(specs: Vec<FailureSpec>) -> Self {
        FaultFeed::new().with_specs(specs)
    }
}

/// A feed replaying exactly the given trace.
impl From<&FailureTrace> for FaultFeed {
    fn from(trace: &FailureTrace) -> Self {
        FaultFeed::from_trace(trace.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementError;
    use ppa_core::{OperatorSpec, Partitioning, TaskGraph, TopologyBuilder};
    use ppa_faults::{DomainBurstProcess, FaultDomainTree};
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    fn graph() -> Result<TaskGraph, Box<dyn Error>> {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        b.connect(s, m, Partitioning::Merge)?;
        Ok(TaskGraph::new(b.build()?))
    }

    fn placement() -> Result<Placement, Box<dyn Error>> {
        Ok(Placement::round_robin(&graph()?, 4, 2)?
            .with_fault_domains(FaultDomainTree::racks(&[0, 1, 2, 3], 2))?)
    }

    #[test]
    fn mixed_sources_merge_into_one_normalized_trace() -> TestResult {
        let p = placement()?;
        let feed = FaultFeed::new()
            .with_spec(FailureSpec {
                at: SimTime::from_secs(50),
                nodes: vec![3],
            })
            .with_spec(FailureSpec {
                at: SimTime::from_secs(10),
                nodes: vec![1, 0, 1],
            })
            .with_trace(FailureTrace::once(SimTime::from_secs(30), vec![2]));
        let trace = feed.resolve(&p)?;
        assert_eq!(trace.len(), 3);
        // Sorted by time regardless of insertion order.
        assert_eq!(trace.events()[0].at, SimTime::from_secs(10));
        assert_eq!(trace.events()[0].nodes, vec![0, 1], "nodes normalized");
        assert_eq!(trace.killed_nodes(), vec![0, 1, 2, 3]);
        Ok(())
    }

    #[test]
    fn process_entries_generate_against_the_placement_tree() -> TestResult {
        let p = placement()?;
        let feed = FaultFeed::new().with_process(
            Box::new(DomainBurstProcess {
                level: 1,
                bursts: 1,
                fraction: 1.0,
            }),
            SimTime::from_secs(40),
            SimDuration::from_secs(60),
            7,
        );
        let a = feed.resolve(&p)?;
        let b = feed.resolve(&p)?;
        assert_eq!(a, b, "resolution is deterministic");
        assert_eq!(a.len(), 1);
        assert_eq!(a.killed_nodes().len(), 2, "one rack of 2");
        // A placement without a tree rejects the process entry.
        let bare = Placement::round_robin(&graph()?, 4, 2)?;
        assert_eq!(
            feed.resolve(&bare).unwrap_err(),
            EngineError::Placement(PlacementError::NoFaultDomains)
        );
        Ok(())
    }

    #[test]
    fn out_of_range_nodes_are_rejected_centrally() -> TestResult {
        let p = placement()?;
        let feed = FaultFeed::from(vec![FailureSpec {
            at: SimTime::from_secs(5),
            nodes: vec![0, 99],
        }]);
        assert_eq!(
            feed.resolve(&p).unwrap_err(),
            EngineError::NodeOutOfRange {
                node: 99,
                n_nodes: 6
            }
        );
        Ok(())
    }

    #[test]
    fn empty_feed_resolves_to_the_empty_trace() -> TestResult {
        assert!(FaultFeed::new().resolve(&placement()?)?.is_empty());
        Ok(())
    }
}
