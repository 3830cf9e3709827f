//! Executable queries: a `ppa-core` topology plus the UDF and source
//! factories that instantiate per-task runtime logic.

use crate::udf::{SourceGen, Udf};
use ppa_core::model::{OperatorId, OperatorSpec, Partitioning, Topology, TopologyBuilder};
use ppa_core::{CoreError, Result};

/// Factory producing a task's source generator, given the task-local index.
///
/// `Send + Sync` so a built [`Query`] can be shared across the experiment
/// harness's worker threads.
pub type SourceFactory = Box<dyn Fn(usize) -> Box<dyn SourceGen> + Send + Sync>;
/// Factory producing a task's UDF, given the task-local index.
pub type UdfFactory = Box<dyn Fn(usize) -> Box<dyn Udf> + Send + Sync>;

/// An executable query: topology + per-operator factories.
pub struct Query {
    topology: Topology,
    sources: Vec<Option<SourceFactory>>,
    udfs: Vec<Option<UdfFactory>>,
}

impl Query {
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Instantiates the source generator for a source task.
    pub fn make_source(&self, op: OperatorId, task_local: usize) -> Box<dyn SourceGen> {
        let f = self.sources[op.0]
            .as_ref()
            // ppa-lint: allow(D005, reason = "Simulation::new calls this only where is_source(op) holds, i.e. where QueryBuilder::add_source stored the factory")
            .unwrap_or_else(|| panic!("operator {op} has no source factory"));
        f(task_local)
    }

    /// Instantiates the UDF for a non-source task.
    pub fn make_udf(&self, op: OperatorId, task_local: usize) -> Box<dyn Udf> {
        let f = self.udfs[op.0]
            .as_ref()
            // ppa-lint: allow(D005, reason = "Simulation::new calls this only where is_source(op) fails, and QueryBuilder gives every operator without a source factory a UDF factory (add_operator)")
            .unwrap_or_else(|| panic!("operator {op} has no UDF factory"));
        f(task_local)
    }

    pub fn is_source(&self, op: OperatorId) -> bool {
        self.sources[op.0].is_some()
    }
}

/// Builder mirroring [`TopologyBuilder`] with factories attached.
#[derive(Default)]
pub struct QueryBuilder {
    topology: TopologyBuilder,
    sources: Vec<Option<SourceFactory>>,
    udfs: Vec<Option<UdfFactory>>,
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
        self.sources.push(Some(Box::new(factory)));
        self.udfs.push(None);
        id
    }

    /// Adds a processing operator with its UDF factory.
    pub fn add_operator(
        &mut self,
        spec: OperatorSpec,
        factory: impl Fn(usize) -> Box<dyn Udf> + Send + Sync + 'static,
    ) -> OperatorId {
        let id = self.topology.add_operator(spec);
        self.sources.push(None);
        self.udfs.push(Some(Box::new(factory)));
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
        for (i, op) in topology.operators().iter().enumerate() {
            let has_source_factory = self.sources[i].is_some();
            if op.is_source() != has_source_factory {
                return Err(CoreError::SourceRate {
                    operator: i,
                    is_source: op.is_source(),
                });
            }
        }
        Ok(Query {
            topology,
            sources: self.sources,
            udfs: self.udfs,
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
        assert!(q.is_source(OperatorId(0)));
        assert!(!q.is_source(OperatorId(1)));
        let mut src = q.make_source(OperatorId(0), 0);
        assert_eq!(src.batch(0).len(), 100);
        let _udf = q.make_udf(OperatorId(1), 0);
    }

    #[test]
    fn source_factories_differ_per_task() {
        let q = tiny_query();
        let mut a = q.make_source(OperatorId(0), 0);
        let mut b = q.make_source(OperatorId(0), 1);
        assert_ne!(a.batch(0), b.batch(0), "different seeds per task");
    }

    #[test]
    #[should_panic(expected = "no source factory")]
    fn make_source_on_non_source_panics() {
        let q = tiny_query();
        let _ = q.make_source(OperatorId(1), 0);
    }
}
