//! The task-level DAG derived from an operator topology: every operator is
//! expanded into its parallel tasks and every operator edge into the
//! substream connections implied by its partitioning scheme (§II-A).

use super::{EdgeId, OperatorId, TaskIndex, TaskSet, Topology};

/// One *input stream* of a task: the substreams received from the tasks of a
/// single upstream neighbouring operator (§II-A: "the input substreams
/// received from the tasks belonging to the same upstream neighboring
/// operator constitute an input stream").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputStream {
    /// Operator-level edge this stream comes from.
    pub edge: EdgeId,
    /// The upstream operator.
    pub(crate) from_op: OperatorId,
    /// The upstream tasks whose substreams feed this task.
    pub substreams: Vec<TaskIndex>,
}

/// One *output stream* of a task toward a single downstream operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputStream {
    /// Operator-level edge this stream goes out on.
    pub edge: EdgeId,
    /// The downstream operator.
    pub(crate) to_op: OperatorId,
    /// The downstream tasks receiving a substream from this task.
    pub targets: Vec<TaskIndex>,
}

/// The fully expanded task graph of a topology.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    topology: Topology,
    /// First global task index of each operator.
    offsets: Vec<usize>,
    n_tasks: usize,
    /// Owning operator of each task.
    task_op: Vec<OperatorId>,
    /// Input streams per task (one per incoming operator edge).
    inputs: Vec<Vec<InputStream>>,
    /// Output streams per task (one per outgoing operator edge).
    outputs: Vec<Vec<OutputStream>>,
    /// Tasks in a topological order (derived from the operator order).
    topo_tasks: Vec<TaskIndex>,
}

impl TaskGraph {
    /// Expands `topology` into its task graph.
    pub fn new(topology: Topology) -> Self {
        let n_ops = topology.n_operators();
        let mut offsets = Vec::with_capacity(n_ops);
        let mut n_tasks = 0;
        for op in topology.operators() {
            offsets.push(n_tasks);
            n_tasks += op.parallelism;
        }

        let mut task_op = vec![OperatorId(0); n_tasks];
        for (i, op) in topology.operators().iter().enumerate() {
            task_op[offsets[i]..offsets[i] + op.parallelism].fill(OperatorId(i));
        }

        let mut inputs: Vec<Vec<InputStream>> = vec![Vec::new(); n_tasks];
        let mut outputs: Vec<Vec<OutputStream>> = vec![Vec::new(); n_tasks];

        for (eid, edge) in topology.edges().iter().enumerate() {
            let eid = EdgeId(eid);
            let n1 = topology.operator(edge.from).parallelism;
            let n2 = topology.operator(edge.to).parallelism;
            let up_off = offsets[edge.from.0];
            let down_off = offsets[edge.to.0];
            for u in 0..n1 {
                let targets: Vec<TaskIndex> = edge
                    .partitioning
                    .targets_of(u, n1, n2)
                    .into_iter()
                    .map(|d| TaskIndex(down_off + d))
                    .collect();
                outputs[up_off + u].push(OutputStream {
                    edge: eid,
                    to_op: edge.to,
                    targets,
                });
            }
            for d in 0..n2 {
                let substreams: Vec<TaskIndex> = edge
                    .partitioning
                    .sources_of(d, n1, n2)
                    .into_iter()
                    .map(|u| TaskIndex(up_off + u))
                    .collect();
                inputs[down_off + d].push(InputStream {
                    edge: eid,
                    from_op: edge.from,
                    substreams,
                });
            }
        }

        let mut topo_tasks = Vec::with_capacity(n_tasks);
        for &op in topology.topo_order() {
            let off = offsets[op.0];
            for t in 0..topology.operator(op).parallelism {
                topo_tasks.push(TaskIndex(off + t));
            }
        }

        TaskGraph {
            topology,
            offsets,
            n_tasks,
            task_op,
            inputs,
            outputs,
            topo_tasks,
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Owning operator of a task.
    pub fn operator_of(&self, t: TaskIndex) -> OperatorId {
        self.task_op[t.0]
    }

    /// Local index of a task within its operator.
    pub fn local_index(&self, t: TaskIndex) -> usize {
        t.0 - self.offsets[self.operator_of(t).0]
    }

    /// Global indices of all tasks of an operator, as a range.
    pub(crate) fn op_tasks(&self, op: OperatorId) -> impl Iterator<Item = TaskIndex> + Clone {
        let off = self.offsets[op.0];
        let n = self.topology.operator(op).parallelism;
        (off..off + n).map(TaskIndex)
    }

    /// Input streams of a task (one per upstream neighbouring operator).
    pub fn inputs(&self, t: TaskIndex) -> &[InputStream] {
        &self.inputs[t.0]
    }

    /// Output streams of a task (one per downstream neighbouring operator).
    pub fn outputs(&self, t: TaskIndex) -> &[OutputStream] {
        &self.outputs[t.0]
    }

    /// Whether a task belongs to a source operator.
    pub fn is_source_task(&self, t: TaskIndex) -> bool {
        self.topology.is_source(self.operator_of(t))
    }

    /// Whether a task belongs to a sink operator.
    pub fn is_sink_task(&self, t: TaskIndex) -> bool {
        self.topology.is_sink(self.operator_of(t))
    }

    /// All tasks of all sink operators.
    pub(crate) fn sink_tasks(&self) -> Vec<TaskIndex> {
        self.topology
            .sinks()
            .into_iter()
            .flat_map(|op| self.op_tasks(op))
            .collect()
    }

    /// All tasks of all source operators.
    pub fn source_tasks(&self) -> Vec<TaskIndex> {
        self.topology
            .sources()
            .into_iter()
            .flat_map(|op| self.op_tasks(op))
            .collect()
    }

    /// Tasks in topological order (upstream before downstream).
    pub(crate) fn topo_tasks(&self) -> &[TaskIndex] {
        &self.topo_tasks
    }

    /// All upstream tasks feeding `t` across all of its input streams.
    pub fn upstream_tasks(&self, t: TaskIndex) -> Vec<TaskIndex> {
        self.inputs[t.0]
            .iter()
            .flat_map(|s| s.substreams.iter().copied())
            .collect()
    }

    /// All downstream tasks fed by `t` across all of its output streams.
    pub(crate) fn downstream_tasks(&self, t: TaskIndex) -> Vec<TaskIndex> {
        self.outputs[t.0]
            .iter()
            .flat_map(|s| s.targets.iter().copied())
            .collect()
    }

    /// `tasks` and every task with a path to one of them.
    pub fn upstream_closure(&self, tasks: &TaskSet) -> TaskSet {
        Self::closure(tasks, |t| {
            self.inputs[t.0].iter().flat_map(|s| &s.substreams)
        })
    }

    /// `tasks` and every task one of them has a path to.
    pub(crate) fn downstream_closure(&self, tasks: &TaskSet) -> TaskSet {
        Self::closure(tasks, |t| self.outputs[t.0].iter().flat_map(|s| &s.targets))
    }

    /// `tasks` and everything reachable from them through `next`.
    fn closure<'g, I>(tasks: &TaskSet, next: impl Fn(TaskIndex) -> I) -> TaskSet
    where
        I: Iterator<Item = &'g TaskIndex>,
    {
        let mut closure = tasks.clone();
        let mut stack: Vec<TaskIndex> = tasks.iter().collect();
        while let Some(t) = stack.pop() {
            for &u in next(t) {
                if !closure.contains(u) {
                    closure.insert(u);
                    stack.push(u);
                }
            }
        }
        closure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TopologyBuilder};

    /// The Fig. 2 topology of the paper: two 2-task source operators feeding
    /// a 1-task join, i.e. O1 {t11,t12} -> O3 {t31} <- O2 {t21,t22}.
    fn fig2() -> TaskGraph {
        let mut b = TopologyBuilder::new();
        let o1 = b.add_operator(OperatorSpec::source("O1", 2, 1.0));
        let o2 = b.add_operator(OperatorSpec::source("O2", 2, 2.0));
        let o3 = b.add_operator(OperatorSpec::join("O3", 1, 1.0));
        b.connect(o1, o3, Partitioning::Merge).unwrap();
        b.connect(o2, o3, Partitioning::Merge).unwrap();
        TaskGraph::new(b.build().unwrap())
    }

    #[test]
    fn task_indexing_round_trips() {
        let g = fig2();
        assert_eq!(g.n_tasks(), 5);
        for t in 0..g.n_tasks() {
            let t = TaskIndex(t);
            let op = g.operator_of(t);
            let local = g.local_index(t);
            assert_eq!(g.op_tasks(op).nth(local).unwrap(), t);
        }
    }

    #[test]
    fn input_streams_group_by_upstream_operator() {
        let g = fig2();
        let t31 = g.op_tasks(OperatorId(2)).next().unwrap();
        let ins = g.inputs(t31);
        assert_eq!(ins.len(), 2, "one input stream per upstream operator");
        assert_eq!(ins[0].from_op, OperatorId(0));
        assert_eq!(ins[0].substreams.len(), 2);
        assert_eq!(ins[1].from_op, OperatorId(1));
        assert_eq!(ins[1].substreams.len(), 2);
    }

    #[test]
    fn output_streams_reach_targets() {
        let g = fig2();
        let t11 = g.op_tasks(OperatorId(0)).next().unwrap();
        let outs = g.outputs(t11);
        assert_eq!(outs.len(), 1);
        assert_eq!(
            outs[0].targets,
            vec![g.op_tasks(OperatorId(2)).next().unwrap()]
        );
    }

    #[test]
    fn source_and_sink_classification() {
        let g = fig2();
        assert!(g.is_source_task(TaskIndex(0)));
        assert!(!g.is_sink_task(TaskIndex(0)));
        let sink = g.op_tasks(OperatorId(2)).next().unwrap();
        assert!(g.is_sink_task(sink));
        assert_eq!(g.sink_tasks(), vec![sink]);
        assert_eq!(g.source_tasks().len(), 4);
    }

    #[test]
    fn topo_tasks_respect_operator_order() {
        let g = fig2();
        let order = g.topo_tasks();
        assert_eq!(order.len(), 5);
        // The join task must come after all sources.
        let join_pos = order.iter().position(|&t| g.is_sink_task(t)).unwrap();
        assert_eq!(join_pos, 4);
    }

    #[test]
    fn split_partitioning_produces_blocks() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 1.0));
        let m = b.add_operator(OperatorSpec::map("m", 4, 1.0));
        b.connect(s, m, Partitioning::Split).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let s0 = g.op_tasks(OperatorId(0)).next().unwrap();
        assert_eq!(
            g.outputs(s0)[0].targets,
            vec![
                g.op_tasks(OperatorId(1)).next().unwrap(),
                g.op_tasks(OperatorId(1)).nth(1).unwrap()
            ]
        );
        let m3 = g.op_tasks(OperatorId(1)).nth(3).unwrap();
        assert_eq!(
            g.inputs(m3)[0].substreams,
            vec![g.op_tasks(OperatorId(0)).nth(1).unwrap()]
        );
    }

    #[test]
    fn upstream_downstream_helpers() {
        let g = fig2();
        let t31 = g.op_tasks(OperatorId(2)).next().unwrap();
        assert_eq!(g.upstream_tasks(t31).len(), 4);
        assert_eq!(g.downstream_tasks(TaskIndex(0)), vec![t31]);
    }

    #[test]
    fn closures_follow_fig2_paths_both_ways() {
        let g = fig2();
        let n = g.n_tasks();
        let set = |ts: &[usize]| TaskSet::from_tasks(n, ts.iter().map(|&t| TaskIndex(t)));
        // t11 = 0, t12 = 1, t21 = 2, t22 = 3, t31 = 4.
        assert_eq!(g.upstream_closure(&set(&[4])), set(&[0, 1, 2, 3, 4]));
        assert_eq!(g.upstream_closure(&set(&[0])), set(&[0]));
        assert_eq!(g.downstream_closure(&set(&[0])), set(&[0, 4]));
        assert_eq!(g.downstream_closure(&set(&[2, 4])), set(&[2, 4]));
        // The join's sibling branch is upstream of t11's downstream closure.
        let cone = g.upstream_closure(&g.downstream_closure(&set(&[0])));
        assert_eq!(cone, set(&[0, 1, 2, 3, 4]));
        assert!(g.upstream_closure(&set(&[])).is_empty());
    }
}
