//! Executable queries: a `ppa-core` topology plus the UDF and source
//! factories that instantiate per-task runtime logic.

use crate::udf::{SourceGen, Udf};
use ppa_core::{CoreError, Result};
use ppa_core::{OperatorId, OperatorSpec, Partitioning, Topology, TopologyBuilder};

/// Factory producing a task's source generator, given the task-local index.
///
/// `Send + Sync` so a built [`Query`] can be shared across the experiment
/// harness's worker threads.
pub(crate) type SourceFactory = Box<dyn Fn(usize) -> Box<dyn SourceGen> + Send + Sync>;
/// Factory producing a task's UDF, given the task-local index.
pub(crate) type UdfFactory = Box<dyn Fn(usize) -> Box<dyn Udf> + Send + Sync>;

/// An operator's factory: a source generates its batches, every other
/// operator runs a UDF.
enum Factory {
    Source(SourceFactory),
    Udf(UdfFactory),
}

/// One incarnation of a task: its UDF, or its generator if it is a source.
pub(crate) type Incarnation = (Option<Box<dyn Udf>>, Option<Box<dyn SourceGen>>);

/// An executable query: topology + per-operator factories.
pub struct Query {
    topology: Topology,
    factories: Vec<Factory>,
}

impl Query {
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Instantiates task `task_local` of operator `op`.
    pub(crate) fn instantiate(&self, op: OperatorId, task_local: usize) -> Incarnation {
        match &self.factories[op.0] {
            Factory::Source(f) => (None, Some(f(task_local))),
            Factory::Udf(f) => (Some(f(task_local)), None),
        }
    }
}

/// Builder mirroring [`TopologyBuilder`] with factories attached.
#[derive(Default)]
pub struct QueryBuilder {
    topology: TopologyBuilder,
    factories: Vec<Factory>,
}

impl QueryBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source operator with its generator factory.
    pub fn add_source(
        &mut self,
        spec: OperatorSpec,
        factory: impl Fn(usize) -> Box<dyn SourceGen> + Send + Sync + 'static,
    ) -> OperatorId {
        let id = self.topology.add_operator(spec);
        self.factories.push(Factory::Source(Box::new(factory)));
        id
    }

    /// Adds a processing operator with its UDF factory.
    pub fn add_operator(
        &mut self,
        spec: OperatorSpec,
        factory: impl Fn(usize) -> Box<dyn Udf> + Send + Sync + 'static,
    ) -> OperatorId {
        let id = self.topology.add_operator(spec);
        self.factories.push(Factory::Udf(Box::new(factory)));
        id
    }

    /// Connects two operators (see [`TopologyBuilder::connect`]).
    pub fn connect(
        &mut self,
        from: OperatorId,
        to: OperatorId,
        partitioning: Partitioning,
    ) -> Result<()> {
        self.topology.connect(from, to, partitioning)?;
        Ok(())
    }

    /// Validates and freezes the query.
    pub fn build(self) -> Result<Query> {
        let topology = self.topology.build()?;
        // Factories must agree with the graph's source classification.
        for (i, (op, factory)) in topology.operators().iter().zip(&self.factories).enumerate() {
            if op.is_source() != matches!(factory, Factory::Source(_)) {
                return Err(CoreError::SourceRate {
                    operator: i,
                    is_source: op.is_source(),
                });
            }
        }
        Ok(Query {
            topology,
            factories: self.factories,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::udf::{CountingSource, MapUdf};

    fn tiny_query() -> Query {
        let mut q = QueryBuilder::new();
        let s = q.add_source(OperatorSpec::source("src", 2, 100.0), |task| {
            Box::new(CountingSource {
                per_batch: 100,
                seed: task as u64,
                key_space: 64,
            })
        });
        let m = q.add_operator(OperatorSpec::map("map", 1, 1.0), |_| {
            Box::new(MapUdf::new(|t: &Tuple| Some(t.clone())))
        });
        q.connect(s, m, Partitioning::Merge).unwrap();
        q.build().unwrap()
    }

    #[test]
    fn builds_and_instantiates() {
        let q = tiny_query();
        assert_eq!(q.topology().n_operators(), 2);
        let (udf, src) = q.instantiate(OperatorId(0), 0);
        assert!(udf.is_none());
        assert_eq!(src.expect("a source").batch(0).len(), 100);
        let (udf, src) = q.instantiate(OperatorId(1), 0);
        assert!(udf.is_some() && src.is_none());
    }

    #[test]
    fn source_factories_differ_per_task() {
        let q = tiny_query();
        let batch = |task| {
            q.instantiate(OperatorId(0), task)
                .1
                .expect("a source")
                .batch(0)
        };
        assert_ne!(batch(0), batch(1), "different seeds per task");
    }
}
