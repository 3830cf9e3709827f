//! Generative failure processes: turn a fault-domain hierarchy plus a seed
//! into a reproducible [`FailureTrace`].
//!
//! Three generators cover the correlation spectrum the paper motivates:
//!
//! * [`IndependentProcess`] — the classical baseline: every node fails on
//!   its own Poisson clock, no correlation at all;
//! * [`DomainBurstProcess`] — a whole domain (rack, switch, power zone)
//!   fails and takes all or a fraction of its hosted nodes with it;
//! * [`CascadeProcess`] — a domain burst that propagates to sibling
//!   domains with decaying probability and a per-hop delay, modelling
//!   failures that spread along shared infrastructure.
//!
//! All randomness flows through the in-tree seeded RNG, so a `(process,
//! cluster, seed)` triple always yields the same trace — the repro
//! harness's `--jobs N` determinism extends to generated scenarios.

use crate::domain::{DomainId, FaultDomainTree, NodeId};
use crate::trace::FailureTrace;
use ppa_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generative failure process over a fault-domain hierarchy.
pub trait FailureProcess {
    /// Short name used in labels and reports.
    fn name(&self) -> &'static str;

    /// Generates the failures occurring in `[start, start + horizon)`.
    fn generate(
        &self,
        cluster: &FaultDomainTree,
        start: SimTime,
        horizon: SimDuration,
        rng: &mut StdRng,
    ) -> FailureTrace;

    /// Convenience: generate from a bare seed.
    fn generate_seeded(
        &self,
        cluster: &FaultDomainTree,
        start: SimTime,
        horizon: SimDuration,
        seed: u64,
    ) -> FailureTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        self.generate(cluster, start, horizon, &mut rng)
    }
}

/// Chooses `ceil(fraction × n)` of a domain's nodes, deterministically for
/// a given RNG state: a seeded partial Fisher–Yates over the sorted node
/// list. `fraction >= 1` short-circuits to every node.
fn sample_nodes(
    cluster: &FaultDomainTree,
    domain: DomainId,
    fraction: f64,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let mut nodes = cluster.nodes_under(domain);
    if fraction >= 1.0 || nodes.is_empty() {
        return nodes;
    }
    let keep = ((fraction.max(0.0) * nodes.len() as f64).ceil() as usize).min(nodes.len());
    for i in 0..keep {
        let j = rng.gen_range(i..nodes.len());
        nodes.swap(i, j);
    }
    nodes.truncate(keep);
    nodes.sort_unstable();
    nodes
}

/// Independent per-node failures: each node fails according to a Poisson
/// process with the given mean time between failures. The uncorrelated
/// baseline every correlated model is compared against.
#[derive(Debug, Clone)]
pub struct IndependentProcess {
    /// Mean time between failures of one node.
    pub mtbf: SimDuration,
}

impl FailureProcess for IndependentProcess {
    fn name(&self) -> &'static str {
        "independent"
    }

    fn generate(
        &self,
        cluster: &FaultDomainTree,
        start: SimTime,
        horizon: SimDuration,
        rng: &mut StdRng,
    ) -> FailureTrace {
        assert!(self.mtbf.as_micros() > 0, "mtbf must be positive");
        let mut trace = FailureTrace::new();
        let end = start + horizon;
        // Sorted node order makes the draw sequence — and the trace —
        // independent of tree construction details.
        for node in cluster.all_nodes() {
            let mut t = start;
            loop {
                // Exponential inter-arrival: -ln(1 - u) × mtbf.
                let u: f64 = rng.gen();
                let gap = self.mtbf.mul_f64(-(1.0 - u).ln());
                if gap.is_zero() {
                    continue; // u ≈ 0 rounds to zero; redraw to guarantee progress
                }
                t += gap;
                if t >= end {
                    break;
                }
                trace.push(t, vec![node]);
            }
        }
        trace
    }
}

/// Weibull-renewal per-node failures: each node fails on its own clock
/// with Weibull-distributed inter-arrival times — the classic non-
/// memoryless hazard model cluster-trace studies fit (and the bathtub
/// curve's two working regimes):
///
/// * `shape < 1` — infant mortality: the hazard rate *decreases* with
///   uptime, so failures front-load right after (re)start;
/// * `shape = 1` — the memoryless exponential; with `scale` equal to the
///   MTBF this draws the identical trace to [`IndependentProcess`]
///   (asserted in tests);
/// * `shape > 1` — wear-out: the hazard rate grows with uptime, so
///   failures cluster late in the window.
///
/// Inter-arrival gaps are drawn by inversion: `scale × (-ln(1-u))^(1/k)`.
#[derive(Debug, Clone)]
pub struct WeibullProcess {
    /// Weibull shape parameter `k` (must be positive).
    pub shape: f64,
    /// Characteristic life λ: the 63.2th-percentile inter-failure gap.
    pub scale: SimDuration,
}

impl FailureProcess for WeibullProcess {
    fn name(&self) -> &'static str {
        "weibull"
    }

    fn generate(
        &self,
        cluster: &FaultDomainTree,
        start: SimTime,
        horizon: SimDuration,
        rng: &mut StdRng,
    ) -> FailureTrace {
        assert!(
            self.shape.is_finite() && self.shape > 0.0,
            "shape must be positive"
        );
        assert!(self.scale.as_micros() > 0, "scale must be positive");
        let mut trace = FailureTrace::new();
        let end = start + horizon;
        // Sorted node order, same as IndependentProcess: the draw
        // sequence is independent of tree construction details.
        for node in cluster.all_nodes() {
            let mut t = start;
            loop {
                // Inverse-CDF draw: scale × (-ln(1-u))^(1/k).
                let u: f64 = rng.gen();
                let gap = self.scale.mul_f64((-(1.0 - u).ln()).powf(1.0 / self.shape));
                if gap.is_zero() {
                    continue; // u ≈ 0 rounds to zero; redraw to guarantee progress
                }
                t += gap;
                if t >= end {
                    break;
                }
                trace.push(t, vec![node]);
            }
        }
        trace
    }
}

/// Domain bursts: `bursts` domains at `level` fail at uniformly random
/// instants in the window, each killing `fraction` of its hosted nodes.
#[derive(Debug, Clone)]
pub struct DomainBurstProcess {
    /// Tree level the bursts strike (1 = directly under the root).
    pub level: usize,
    /// How many distinct domains burst (clamped to the level's size).
    pub bursts: usize,
    /// Fraction of each burst domain's nodes that die (`1.0` = all).
    pub fraction: f64,
}

impl FailureProcess for DomainBurstProcess {
    fn name(&self) -> &'static str {
        "domain-burst"
    }

    fn generate(
        &self,
        cluster: &FaultDomainTree,
        start: SimTime,
        horizon: SimDuration,
        rng: &mut StdRng,
    ) -> FailureTrace {
        let mut domains = cluster.domains_at_level(self.level);
        let mut trace = FailureTrace::new();
        if domains.is_empty() || horizon.is_zero() {
            return trace; // an empty window holds no failures
        }
        // Partial Fisher–Yates: the first `bursts` entries are the victims.
        let bursts = self.bursts.min(domains.len());
        for i in 0..bursts {
            let j = rng.gen_range(i..domains.len());
            domains.swap(i, j);
        }
        for &domain in domains.iter().take(bursts) {
            let at = start + horizon.mul_f64(rng.gen::<f64>());
            let nodes = sample_nodes(cluster, domain, self.fraction, rng);
            trace.push(at, nodes);
        }
        trace
    }
}

/// A cascading burst: one origin domain at `level` fails at the start of
/// the window, then the failure spreads outward to its *sibling* domains
/// (same parent — a cascade never crosses the enclosing fault domain's
/// boundary): the sibling at ring distance `d` (creation-order index
/// distance) fails with probability `spread × decay^(d-1)`, `hop_delay`
/// later per ring. Rings that would land at or past `start + horizon` are
/// not generated, so the trace honors the [`FailureProcess`] window.
///
/// `spread = 0` is a single-domain burst; on a single-level tree,
/// `spread = 1, decay = 1` reproduces the paper's §VI-A "everything dies
/// at once" (delayed per ring) correlated failure.
#[derive(Debug, Clone)]
pub struct CascadeProcess {
    /// Tree level the cascade runs along.
    pub level: usize,
    /// Probability that the failure jumps to an adjacent sibling.
    pub spread: f64,
    /// Multiplicative decay of the jump probability per ring of distance.
    pub decay: f64,
    /// Delay between successive rings of the cascade.
    pub hop_delay: SimDuration,
    /// Fraction of each failing domain's nodes that die.
    pub fraction: f64,
    /// Where the cascade starts: `None` draws the origin domain from the
    /// RNG (the default); `Some(i)` pins it to the `i`-th domain of the
    /// level (creation order; out of range is a caller bug and panics) —
    /// used by sweeps that must strike comparable infrastructure in every
    /// cell.
    pub origin: Option<usize>,
}

impl FailureProcess for CascadeProcess {
    fn name(&self) -> &'static str {
        "cascade"
    }

    fn generate(
        &self,
        cluster: &FaultDomainTree,
        start: SimTime,
        horizon: SimDuration,
        rng: &mut StdRng,
    ) -> FailureTrace {
        assert!(
            (0.0..=1.0).contains(&self.spread),
            "spread must be a probability"
        );
        assert!((0.0..=1.0).contains(&self.decay), "decay must be in [0, 1]");
        let domains = cluster.domains_at_level(self.level);
        let mut trace = FailureTrace::new();
        if domains.is_empty() || horizon.is_zero() {
            return trace; // an empty window holds no failures
        }
        let origin_domain = match self.origin {
            // Pinned origins must not consume RNG: `None` keeps the draw
            // sequence (and therefore every pre-existing seeded trace)
            // byte-identical.
            Some(i) => {
                assert!(
                    i < domains.len(),
                    "cascade origin {i} out of range: level {} has {} domain(s)",
                    self.level,
                    domains.len()
                );
                domains[i]
            }
            None => domains[rng.gen_range(0..domains.len())],
        };
        trace.push(
            start,
            sample_nodes(cluster, origin_domain, self.fraction, rng),
        );
        // The cascade is confined to the origin's enclosing domain: rings
        // run over the parent's children only, so a rack failure spreads
        // to racks of the same zone but never jumps the zone boundary.
        let family: Vec<_> = match cluster.parent_of(origin_domain) {
            None => return trace, // origin is the root: nothing to spread to
            Some(p) => cluster.children_of(p),
        };
        let Some(origin) = family.iter().position(|&d| d == origin_domain) else {
            // Unreachable — the origin is one of its parent's children by
            // construction — but an empty trace beats a panic here.
            return trace;
        };
        let end = start + horizon;
        // Spread outward ring by ring, in deterministic (distance, index)
        // order so the RNG consumption is reproducible.
        let max_d = family.len().saturating_sub(1);
        for d in 1..=max_d {
            let p = self.spread * self.decay.powi(d as i32 - 1);
            let at = start + SimDuration::from_micros(self.hop_delay.as_micros() * d as u64);
            if at >= end {
                break; // later rings are later still: the window is closed
            }
            for idx in [origin.checked_sub(d), origin.checked_add(d)] {
                let Some(idx) = idx else { continue };
                if idx >= family.len() || idx == origin {
                    continue;
                }
                if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                    trace.push(at, sample_nodes(cluster, family[idx], self.fraction, rng));
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    fn cluster() -> FaultDomainTree {
        // 16 nodes, 4 racks of 4.
        FaultDomainTree::racks(&(0..16).collect::<Vec<_>>(), 4)
    }

    const HOUR: SimDuration = SimDuration::from_secs(3600);

    #[test]
    fn independent_same_seed_identical_trace() {
        let p = IndependentProcess {
            mtbf: SimDuration::from_secs(600),
        };
        let a = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 7);
        let b = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 7);
        assert_eq!(a.to_text(), b.to_text(), "same seed → byte-identical");
        let c = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 8);
        assert_ne!(a.to_text(), c.to_text(), "different seed → different trace");
        assert!(
            !a.is_empty(),
            "an hour at 10-minute MTBF over 16 nodes fails someone"
        );
        for e in a.events() {
            assert_eq!(e.nodes.len(), 1, "independent failures are single-node");
        }
    }

    #[test]
    fn weibull_same_seed_identical_trace() {
        let p = WeibullProcess {
            shape: 0.7,
            scale: SimDuration::from_secs(600),
        };
        let a = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 7);
        let b = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 7);
        assert_eq!(a.to_text(), b.to_text(), "same seed → byte-identical");
        let c = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 8);
        assert_ne!(a.to_text(), c.to_text(), "different seed → different trace");
        assert!(!a.is_empty(), "an hour over 16 nodes fails someone");
        let end = SimTime::from_secs(40) + HOUR;
        for e in a.events() {
            assert_eq!(e.nodes.len(), 1, "per-node failures are single-node");
            assert!(e.at >= SimTime::from_secs(40) && e.at < end);
        }
    }

    #[test]
    fn weibull_shape_one_is_the_exponential_baseline() {
        // k = 1 collapses the Weibull draw to the exponential one, gap
        // for gap — the trace is byte-identical to IndependentProcess
        // with mtbf = scale under the same seed.
        let mtbf = SimDuration::from_secs(600);
        let w = WeibullProcess {
            shape: 1.0,
            scale: mtbf,
        };
        let e = IndependentProcess { mtbf };
        for seed in [1, 7, 42] {
            let a = w.generate_seeded(&cluster(), SimTime::ZERO, HOUR, seed);
            let b = e.generate_seeded(&cluster(), SimTime::ZERO, HOUR, seed);
            assert_eq!(a.to_text(), b.to_text(), "seed {seed}");
        }
    }

    #[test]
    fn weibull_shape_skews_the_failure_mass() {
        // Same scale, many seeds: infant mortality (k < 1) puts more of
        // its failures in the first tenth of the window than wear-out
        // (k > 1) does — the bathtub curve's two working regimes.
        let early_mass = |shape: f64| {
            let p = WeibullProcess {
                shape,
                scale: SimDuration::from_secs(1800),
            };
            let mut early = 0usize;
            let mut total = 0usize;
            for seed in 0..30 {
                let t = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, seed);
                for e in t.events() {
                    total += 1;
                    if e.at < SimTime::from_secs(360) {
                        early += 1;
                    }
                }
            }
            assert!(total > 0, "shape {shape} generated nothing");
            early as f64 / total as f64
        };
        let infant = early_mass(0.5);
        let wearout = early_mass(2.0);
        assert!(
            infant > wearout,
            "k=0.5 early mass {infant} must exceed k=2.0's {wearout}"
        );
    }

    #[test]
    fn burst_kills_within_one_domain() -> TestResult {
        let p = DomainBurstProcess {
            level: 1,
            bursts: 1,
            fraction: 1.0,
        };
        let t = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 3);
        assert_eq!(t.len(), 1);
        let killed = t.killed_nodes();
        assert_eq!(killed.len(), 4, "a full rack of 4");
        // All four live in the same rack: consecutive ids under racks(,4).
        assert_eq!(killed[3] - killed[0], 3);
        let first = t.first_at().ok_or("the burst trace has a first event")?;
        assert!(first >= SimTime::from_secs(40));
        Ok(())
    }

    #[test]
    fn distinct_domains_burst_disjoint_kill_sets() {
        let c = cluster();
        let p = DomainBurstProcess {
            level: 1,
            bursts: 4,
            fraction: 1.0,
        };
        let t = p.generate_seeded(&c, SimTime::ZERO, HOUR, 11);
        assert_eq!(t.len(), 4, "every rack bursts once");
        let mut seen = std::collections::BTreeSet::new();
        for e in t.events() {
            for &n in &e.nodes {
                assert!(seen.insert(n), "node {n} killed by two domain bursts");
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn burst_fraction_partial() {
        let p = DomainBurstProcess {
            level: 1,
            bursts: 1,
            fraction: 0.5,
        };
        let t = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 5);
        assert_eq!(t.killed_nodes().len(), 2, "half of a 4-node rack");
    }

    #[test]
    fn cascade_spread_zero_is_single_burst() {
        let p = CascadeProcess {
            level: 1,
            spread: 0.0,
            decay: 0.5,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: None,
        };
        let t = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.first_at(), Some(SimTime::from_secs(40)));
    }

    #[test]
    fn cascade_full_spread_takes_every_domain() -> TestResult {
        let p = CascadeProcess {
            level: 1,
            spread: 1.0,
            decay: 1.0,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: None,
        };
        let t = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 9);
        assert_eq!(t.killed_nodes().len(), 16, "everything dies");
        // Rings are delayed: at least two distinct event times.
        let last = t.events().last().ok_or("the cascade trace is non-empty")?;
        assert!(last.at > t.events()[0].at);
        Ok(())
    }

    #[test]
    fn cascade_never_crosses_the_zone_boundary() {
        // 2 zones × 4 racks, 16 nodes round-robin across the 8 racks.
        let mut c = FaultDomainTree::new();
        let zones = [c.add_domain(c.root()), c.add_domain(c.root())];
        let racks: Vec<_> = (0..8).map(|r| c.add_domain(zones[r / 4])).collect();
        for node in 0..16 {
            c.assign(racks[node % 8], node);
        }
        let p = CascadeProcess {
            level: 2,
            spread: 1.0,
            decay: 1.0,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: None,
        };
        for seed in 0..20 {
            let t = p.generate_seeded(&c, SimTime::ZERO, HOUR, seed);
            let killed = t.killed_nodes();
            let zones = c.domains_at_level(1);
            let hit: Vec<_> = zones
                .iter()
                .filter(|&&z| c.nodes_under(z).iter().any(|n| killed.contains(n)))
                .collect();
            assert_eq!(hit.len(), 1, "seed {seed}: cascade crossed a zone boundary");
            // Full spread within the zone takes all 4 of its racks.
            assert_eq!(killed.len(), 8, "seed {seed}: the whole zone dies");
        }
    }

    #[test]
    fn cascade_pinned_origin_strikes_the_named_domain_without_rng() {
        let c = cluster();
        let p = |origin| CascadeProcess {
            level: 1,
            spread: 0.0,
            decay: 0.5,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin,
        };
        // Origin 2 = the third rack (nodes 8-11), whatever the seed.
        for seed in 0..5 {
            let t = p(Some(2)).generate_seeded(&c, SimTime::ZERO, HOUR, seed);
            assert_eq!(t.killed_nodes(), vec![8, 9, 10, 11], "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "cascade origin 4 out of range")]
    fn cascade_pinned_origin_out_of_range_panics() {
        let p = CascadeProcess {
            level: 1,
            spread: 0.0,
            decay: 0.5,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: Some(4), // the cluster has racks 0..4
        };
        let _ = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 1);
    }

    #[test]
    fn cascade_respects_the_horizon() {
        let p = CascadeProcess {
            level: 1,
            spread: 1.0,
            decay: 1.0,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: None,
        };
        // Horizon of 3s admits only the origin (0s) and ring 1 (2s).
        let t = p.generate_seeded(
            &cluster(),
            SimTime::from_secs(40),
            SimDuration::from_secs(3),
            9,
        );
        let end = SimTime::from_secs(43);
        assert!(
            t.events().iter().all(|e| e.at < end),
            "events past the horizon"
        );
        assert!(
            t.killed_nodes().len() <= 12,
            "rings past the window were generated"
        );
    }

    #[test]
    fn cascade_is_deterministic_per_seed() {
        let p = CascadeProcess {
            level: 1,
            spread: 0.6,
            decay: 0.5,
            hop_delay: SimDuration::from_secs(2),
            fraction: 0.75,
            origin: None,
        };
        let a = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 21);
        let b = p.generate_seeded(&cluster(), SimTime::ZERO, HOUR, 21);
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn zero_horizon_generates_nothing() {
        let c = cluster();
        let procs: Vec<Box<dyn FailureProcess>> = vec![
            Box::new(IndependentProcess {
                mtbf: SimDuration::from_secs(1),
            }),
            Box::new(DomainBurstProcess {
                level: 1,
                bursts: 4,
                fraction: 1.0,
            }),
            Box::new(CascadeProcess {
                level: 1,
                spread: 1.0,
                decay: 1.0,
                hop_delay: SimDuration::from_secs(2),
                fraction: 1.0,
                origin: None,
            }),
        ];
        for p in &procs {
            let t = p.generate_seeded(&c, SimTime::from_secs(40), SimDuration::ZERO, 5);
            assert!(
                t.is_empty(),
                "{}: an empty window holds no failures",
                p.name()
            );
        }
    }

    #[test]
    fn generated_traces_round_trip_serialization() -> TestResult {
        let procs: Vec<Box<dyn FailureProcess>> = vec![
            Box::new(IndependentProcess {
                mtbf: SimDuration::from_secs(900),
            }),
            Box::new(DomainBurstProcess {
                level: 1,
                bursts: 2,
                fraction: 0.5,
            }),
            Box::new(CascadeProcess {
                level: 1,
                spread: 0.8,
                decay: 0.6,
                hop_delay: SimDuration::from_secs(1),
                fraction: 1.0,
                origin: None,
            }),
        ];
        for p in &procs {
            let t = p.generate_seeded(&cluster(), SimTime::from_secs(40), HOUR, 13);
            let back = FailureTrace::from_text(&t.to_text())?;
            assert_eq!(back, t, "{} trace must round-trip", p.name());
        }
        Ok(())
    }
}
