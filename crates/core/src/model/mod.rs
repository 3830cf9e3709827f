//! Query/topology model of §II: operators parallelized into tasks, connected
//! by partitioned streams, compiled into a task-level DAG.

mod ids;
mod operator;
mod partitioning;
mod taskgraph;
mod taskset;
mod topology;

pub use ids::{EdgeId, OperatorId, TaskIndex};
pub use operator::OperatorSpec;
pub(crate) use operator::{InputSemantics, TaskWeights};
pub use partitioning::Partitioning;
pub use taskgraph::{InputStream, OutputStream, TaskGraph};
pub use taskset::TaskSet;
pub use topology::{Edge, Topology, TopologyBuilder};
