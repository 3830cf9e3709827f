//! Typed engine errors.
//!
//! Malformed failure injections used to abort deep inside the event loop
//! (an out-of-range node index panicked on the `node_alive` table); they
//! now surface as [`EngineError`]s at injection time, naming exactly what
//! was wrong — the [`crate::FaultFeed`] validates every event centrally
//! before the run starts.

use crate::placement::{NodeId, PlacementError};
use ppa_sim::SimTime;
use std::fmt;

/// Why a failure injection (or a control-plane drive) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A failure event names a node the cluster does not have.
    NodeOutOfRange { node: NodeId, n_nodes: usize },
    /// A failure event is scheduled before the simulation's current
    /// virtual time — replaying it would rewrite history.
    EventInPast { at: SimTime, now: SimTime },
    /// A failure event names a node that is already dead at injection
    /// time (e.g. the node an activated replica died on). Killing it
    /// again would silently no-op at fire time; the caller almost
    /// certainly meant a different node.
    NodeAlreadyDead { node: NodeId },
    /// A failure or chaos event is scheduled past the run's declared
    /// horizon (see `Simulation::set_horizon`). Such an event would never
    /// fire; silently accepting it hides a mis-built schedule, so the
    /// injection is rejected up front instead.
    EventPastHorizon { at: SimTime, horizon: SimTime },
    /// A feed entry (a generative process) needs the
    /// placement's fault-domain mapping, or the mapping rejected it.
    Placement(PlacementError),
    /// The named configuration interval (`batch_interval`,
    /// `replica_sync_interval` or the mode's `checkpoint_interval`) is
    /// zero: the event it paces would re-arm at the same instant forever.
    ZeroInterval { field: &'static str },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NodeOutOfRange { node, n_nodes } => write!(
                f,
                "failure event names node {node} but the cluster has only {n_nodes} node(s)"
            ),
            EngineError::EventInPast { at, now } => write!(
                f,
                "failure event at {at} is before the simulation's current time {now}"
            ),
            EngineError::NodeAlreadyDead { node } => write!(
                f,
                "failure event names node {node}, which is already dead at injection time"
            ),
            EngineError::EventPastHorizon { at, horizon } => write!(
                f,
                "event at {at} is past the run horizon {horizon} and would never fire"
            ),
            EngineError::Placement(e) => write!(f, "{e}"),
            EngineError::ZeroInterval { field } => write!(
                f,
                "{field} is zero: the event it paces would re-arm at the same instant forever"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Placement(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlacementError> for EngineError {
    fn from(e: PlacementError) -> Self {
        EngineError::Placement(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_offender() {
        let e = EngineError::NodeOutOfRange {
            node: 99,
            n_nodes: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("node 99"), "{msg}");
        assert!(msg.contains("12 node(s)"), "{msg}");
        let e = EngineError::EventInPast {
            at: SimTime::from_secs(3),
            now: SimTime::from_secs(7),
        };
        assert!(e.to_string().contains("3.000s"), "{e}");
        let e = EngineError::NodeAlreadyDead { node: 7 };
        assert!(e.to_string().contains("node 7"), "{e}");
        assert!(e.to_string().contains("already dead"), "{e}");
        let e = EngineError::EventPastHorizon {
            at: SimTime::from_secs(95),
            horizon: SimTime::from_secs(90),
        };
        assert!(e.to_string().contains("95.000s"), "{e}");
        assert!(e.to_string().contains("horizon 90.000s"), "{e}");
        let e = EngineError::from(PlacementError::NoFaultDomains);
        assert!(e.to_string().contains("fault-domain"), "{e}");
        let e = EngineError::ZeroInterval {
            field: "batch_interval",
        };
        assert!(e.to_string().starts_with("batch_interval is zero"), "{e}");
    }
}
