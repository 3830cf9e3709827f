//! Error types shared across the planning crate.

use std::fmt;

/// Convenience alias used throughout `ppa-core`.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;

/// Errors produced while building topologies or planning replication.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The topology graph contains a cycle; query plans must be DAGs (§II-A).
    CyclicTopology,
    /// An operator id referenced an operator that does not exist.
    UnknownOperator(usize),
    /// An operator subscribed to itself, which the model forbids (§II-A).
    SelfEdge(usize),
    /// Duplicate edge between the same pair of operators.
    DuplicateEdge { from: usize, to: usize },
    /// A partitioning scheme is incompatible with the parallelism of the
    /// operators it connects (e.g. `OneToOne` with unequal parallelism).
    PartitioningArity {
        from: usize,
        to: usize,
        scheme: &'static str,
        upstream: usize,
        downstream: usize,
    },
    /// The topology has no source operator (no operator without inputs).
    NoSource,
    /// The topology has no sink operator (no operator without outputs).
    NoSink,
    /// An operator was declared with zero parallel tasks.
    ZeroParallelism(usize),
    /// A selectivity or rate was not a finite positive number.
    InvalidRate { operator: usize, value: f64 },
    /// A source operator is missing its source rate, or a non-source has one.
    SourceRate { operator: usize, is_source: bool },
    /// MC-tree enumeration exceeded the configured limit; the caller should
    /// fall back to a heuristic planner (the paper hits the same wall with
    /// the dynamic program on Fig. 14's random topologies).
    McTreeExplosion { limit: usize },
    /// The exact planner's search would score more plans (unions and
    /// bounds) than its limit.
    DpExplosion { limit: usize },
    /// A task → node mapping handed to the planner does not cover the task
    /// graph (fault-domain planning needs one node per task).
    TaskNodeMapLength { expected: usize, got: usize },
    /// A task weight vector had the wrong length or non-positive entries.
    InvalidWeights(usize),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CyclicTopology => write!(f, "topology is not a DAG"),
            CoreError::UnknownOperator(id) => write!(f, "unknown operator id {id}"),
            CoreError::SelfEdge(id) => write!(f, "operator {id} cannot subscribe to itself"),
            CoreError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge from operator {from} to {to}")
            }
            CoreError::PartitioningArity {
                from,
                to,
                scheme,
                upstream,
                downstream,
            } => write!(
                f,
                "{scheme} partitioning from operator {from} ({upstream} tasks) to \
                 operator {to} ({downstream} tasks) violates its arity constraint"
            ),
            CoreError::NoSource => write!(f, "topology has no source operator"),
            CoreError::NoSink => write!(f, "topology has no sink operator"),
            CoreError::ZeroParallelism(id) => {
                write!(f, "operator {id} must have at least one task")
            }
            CoreError::InvalidRate { operator, value } => {
                write!(
                    f,
                    "operator {operator} has invalid rate/selectivity {value}"
                )
            }
            CoreError::SourceRate {
                operator,
                is_source,
            } => {
                if *is_source {
                    write!(f, "source operator {operator} is missing a source rate")
                } else {
                    write!(
                        f,
                        "non-source operator {operator} must not set a source rate"
                    )
                }
            }
            CoreError::McTreeExplosion { limit } => {
                write!(f, "MC-tree enumeration exceeded the limit of {limit} trees")
            }
            CoreError::DpExplosion { limit } => write!(
                f,
                "the exact planner's search exceeded the limit of {limit} scored plans"
            ),
            CoreError::TaskNodeMapLength { expected, got } => write!(
                f,
                "task → node mapping covers {got} task(s) but the graph has {expected}"
            ),
            CoreError::InvalidWeights(id) => {
                write!(f, "operator {id} has an invalid explicit weight vector")
            }
        }
    }
}

impl std::error::Error for CoreError {}
