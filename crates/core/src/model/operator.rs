//! Operator specifications: parallelism, input semantics, selectivity and
//! per-task workload weights.

/// Whether an operator computes over the *join* of its input streams or over
/// their *union* (§III-A1).
///
/// * `Correlated` — the effective input is the Cartesian product of the input
///   streams (a join); losing part of one stream degrades the usefulness of
///   the others (Eq. 2).
/// * `Independent` — the effective input is the union of the input streams;
///   losses average rate-weighted across streams (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum InputSemantics {
    Independent,
    Correlated,
}

/// How an operator's key space (and therefore workload) is distributed among
/// its parallel tasks. This is the skew knob of the Fig. 14(a) experiment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TaskWeights {
    /// All tasks receive an equal share.
    Uniform,
    /// Explicit relative weights, one per task (must be positive); a Zipf
    /// skew is its `1 / (i+1)^s` instance (see `Skew::weights`).
    Explicit(Vec<f64>),
}

impl TaskWeights {
    /// Normalized weight vector of length `parallelism` (sums to 1).
    pub(crate) fn shares(&self, parallelism: usize) -> Vec<f64> {
        assert!(parallelism > 0, "operator must have at least one task");
        let raw: Vec<f64> = match self {
            TaskWeights::Uniform => vec![1.0; parallelism],
            TaskWeights::Explicit(w) => w.clone(),
        };
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / sum).collect()
    }

    /// Whether an explicit weight vector is valid for the given parallelism.
    pub(crate) fn validate(&self, parallelism: usize) -> bool {
        match self {
            TaskWeights::Explicit(w) => {
                w.len() == parallelism && w.iter().all(|x| x.is_finite() && *x > 0.0)
            }
            TaskWeights::Uniform => true,
        }
    }
}

/// Specification of one logical operator of the query topology.
///
/// Operators are user-defined functions whose semantics are opaque to the
/// system; the model only needs the handful of fields below (§III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// Human-readable name used in reports and errors.
    pub(crate) name: String,
    /// Number of parallel tasks.
    pub parallelism: usize,
    /// Union vs join input semantics.
    pub(crate) semantics: InputSemantics,
    /// Output rate per unit of (effective) input rate.
    pub selectivity: f64,
    /// Per-task output rate for source operators (`None` for non-sources).
    /// This is the *mean* rate; per-task rates are additionally scaled by
    /// `weights` so skewed workloads skew their sources too.
    pub source_rate: Option<f64>,
    /// Relative workload of the operator's tasks.
    pub(crate) weights: TaskWeights,
}

impl OperatorSpec {
    /// A source operator emitting `rate` tuples/s per task on average.
    pub fn source(name: impl Into<String>, parallelism: usize, rate: f64) -> Self {
        OperatorSpec {
            name: name.into(),
            parallelism,
            semantics: InputSemantics::Independent,
            selectivity: 1.0,
            source_rate: Some(rate),
            weights: TaskWeights::Uniform,
        }
    }

    /// An independent-input (union semantics) operator.
    pub fn map(name: impl Into<String>, parallelism: usize, selectivity: f64) -> Self {
        OperatorSpec {
            name: name.into(),
            parallelism,
            semantics: InputSemantics::Independent,
            selectivity,
            source_rate: None,
            weights: TaskWeights::Uniform,
        }
    }

    /// A correlated-input (join semantics) operator.
    pub fn join(name: impl Into<String>, parallelism: usize, selectivity: f64) -> Self {
        OperatorSpec {
            name: name.into(),
            parallelism,
            semantics: InputSemantics::Correlated,
            selectivity,
            source_rate: None,
            weights: TaskWeights::Uniform,
        }
    }

    /// Builder-style override of the task weights.
    pub(crate) fn with_weights(mut self, weights: TaskWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Builder-style override of the input semantics.
    pub(crate) fn with_semantics(mut self, semantics: InputSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Whether this spec declares a source operator.
    pub fn is_source(&self) -> bool {
        self.source_rate.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Skew;

    #[test]
    fn uniform_shares_sum_to_one() {
        let s = TaskWeights::Uniform.shares(4);
        assert_eq!(s, vec![0.25; 4]);
    }

    #[test]
    fn zipf_shares_are_decreasing_and_normalized() {
        let s = Skew::Zipf { s: 1.0 }.weights(4).shares(4);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let s = Skew::Zipf { s: 0.0 }.weights(3).shares(3);
        for w in &s {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_shares_normalize() {
        let s = TaskWeights::Explicit(vec![1.0, 3.0]).shares(2);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn explicit_validation() {
        assert!(TaskWeights::Explicit(vec![1.0, 2.0]).validate(2));
        assert!(!TaskWeights::Explicit(vec![1.0]).validate(2));
        assert!(!TaskWeights::Explicit(vec![1.0, -2.0]).validate(2));
        assert!(!TaskWeights::Explicit(vec![1.0, f64::NAN]).validate(2));
    }

    #[test]
    fn spec_constructors() {
        let s = OperatorSpec::source("s", 4, 100.0);
        assert!(s.is_source());
        assert_eq!(s.parallelism, 4);
        let j = OperatorSpec::join("j", 2, 0.5);
        assert_eq!(j.semantics, InputSemantics::Correlated);
        assert!(!j.is_source());
    }
}
