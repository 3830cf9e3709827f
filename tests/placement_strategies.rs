//! Property-style tests of the placement strategies over random
//! topologies (seeded, in-tree RNG — the build environment is offline, so
//! a deterministic case grid stands in for proptest, as in
//! `property_invariants.rs`).
//!
//! Invariants under test:
//!
//! * `DomainSpread` never co-locates a task's primary and its standby in
//!   the same rack when rack capacity allows an escape (some standby node
//!   lives outside the primary's rack);
//! * the `RoundRobin` strategy reproduces `Placement::round_robin`
//!   exactly — bit-identical node assignments — so the refactor cannot
//!   drift from the engine's historical default placement.

use ppa::core::TaskGraph;
use ppa::core::{RandomTopologySpec, Skew, TopologyStyle};
use ppa::engine::{Cluster, DomainSpread, Placement, PlacementStrategy, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Topology × cluster-shape grid: every case is (spec, seed, n_workers,
/// n_standby, rack_size).
fn cases() -> Vec<(RandomTopologySpec, u64, usize, usize, usize)> {
    let mut out = Vec::new();
    let mut case_seed: u64 = 0xC0FF_EE00_D15E_A5E5;
    for ops in [3usize, 6] {
        for join in [0.0, 0.4] {
            for style in [TopologyStyle::Structured, TopologyStyle::Full] {
                for (w, s, rack) in [(4usize, 4usize, 2usize), (6, 6, 3), (9, 3, 4), (5, 5, 5)] {
                    case_seed = case_seed
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    out.push((
                        RandomTopologySpec {
                            n_operators: (ops, ops + 2),
                            parallelism: (1, 4),
                            join_fraction: join,
                            skew: Skew::Uniform,
                            style,
                            ..RandomTopologySpec::default()
                        },
                        case_seed,
                        w,
                        s,
                        rack,
                    ));
                }
            }
        }
    }
    assert_eq!(out.len(), 32);
    out
}

#[test]
fn domain_spread_never_colocates_pairs_when_escapable() {
    for (spec, seed, w, s, rack) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let graph = TaskGraph::new(topo);
        let cluster = Cluster::racked(w, s, rack).expect("positive rack size");
        let p = DomainSpread::racks()
            .place(&graph, &cluster)
            .expect("random topology places");
        for t in 0..graph.n_tasks() {
            let primary_rack = p.domain_of(p.primary[t]);
            // Capacity allows separation iff some standby node lives
            // outside the primary's rack.
            let escapable = (w..w + s).any(|node| p.domain_of(node) != primary_rack);
            if escapable {
                assert_ne!(
                    p.domain_of(p.standby[t]),
                    primary_rack,
                    "seed {seed} (w={w} s={s} rack={rack}): task {t}'s primary \
                     and standby share a rack despite free capacity elsewhere"
                );
            }
        }
    }
}

#[test]
fn round_robin_strategy_is_bit_identical_to_legacy_round_robin() {
    for (spec, seed, w, s, rack) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let graph = TaskGraph::new(topo);
        let via_strategy = RoundRobin
            .place(
                &graph,
                &Cluster::racked(w, s, rack).expect("positive rack size"),
            )
            .expect("round robin places");
        let direct = Placement::round_robin(&graph, w, s).expect("round robin places");
        assert_eq!(via_strategy.primary, direct.primary, "seed {seed}");
        assert_eq!(via_strategy.standby, direct.standby, "seed {seed}");
        assert_eq!(via_strategy.n_workers, direct.n_workers);
        assert_eq!(via_strategy.n_standby, direct.n_standby);
    }
}

#[test]
fn domain_spread_balances_load_within_capacity() {
    for (spec, seed, w, s, rack) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let graph = TaskGraph::new(topo);
        let n = graph.n_tasks();
        let p = DomainSpread::racks()
            .place(
                &graph,
                &Cluster::racked(w, s, rack).expect("positive rack size"),
            )
            .expect("random topology places");
        // No worker exceeds the even share: anti-affinity bends placement,
        // the capacity bound caps it.
        let cap = n.div_ceil(w);
        for node in 0..w {
            let load = p.primary.iter().filter(|&&n| n == node).count();
            assert!(
                load <= cap,
                "seed {seed}: node {node} hosts {load} tasks (cap {cap})"
            );
        }
    }
}
