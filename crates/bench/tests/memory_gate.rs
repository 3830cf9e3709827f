//! The retained-memory gate: how much heap the engine keeps live while it
//! recovers from the paper's correlated failure. Fig. 6 under Active and
//! under Storm, with the 15 worker nodes killed at 70 s, each driven to
//! 160 s; each run's peak live heap over the heap live at its start must
//! stay under a ceiling.
//!
//! Output buffers keep only what nobody can rebuild: a source buffers weak
//! handles and regenerates a batch on re-serve, and a dead incarnation's
//! buffers go with its node. Each synthetic operator keeps every 2nd tuple
//! of two equal input chunks, which is its first chunk, and forwards that
//! chunk instead of copying it, so one source chunk is the output of every
//! operator down to the sink. The runs peak at about 34.7 MiB (Active) and
//! 20.0 MiB (Storm). Copying the forwarded chunk peaks them at about 66.6
//! and 31.8 MiB; buffers that keep every tuple, a dead incarnation's too,
//! peak Active at about 117 MiB; regenerating without a weak handle
//! rebuilds the same replay window once per recovering task under Storm,
//! about 59 MiB.
//!
//! The same counting allocator also counts allocation calls, and bounds
//! the planner's unit of work: scoring one plan (`PlanContext::of_plan`
//! on Fig. 6's topology) makes at most 2 allocations, the complemented
//! task set and the per-task loss vector, because the rates the loss
//! propagation reads are laid out receiver-side once per context.
//! Allocating each task's per-stream losses and rates per call, and the
//! list of sink tasks, made 34.
//!
//! It also bounds whole planner calls on Fig. 6 at budget 25 (ratio 0.8).
//! `DpPlanner::plan` makes 25 allocations, ceiling 28: its depth-first
//! search keeps the open unions and the excluded trees on stacks sized
//! once, scores 10 114 plans (unions and bounds) into the buffers of two
//! `Scorer`s, and holds no candidate set. Holding the candidates as one
//! heap `TaskSet` per union in a `BTreeSet`, cloned on retirement, made
//! 666 632; flat bit-word rows per usage level, radix-sorted (473 856
//! unions folded into 61 255 candidates), made 122 921 with a fresh
//! complement and loss vector per score, and 418 without.
//! `StructureAwarePlanner::plan` makes 2 429 (ceiling 2 700; 3 615 with
//! per-score buffers) and `GreedyPlanner::plan` 11 (ceiling 12; 36).
//!
//! The counts are of bytes and calls requested from the allocator, so
//! they are deterministic and indifferent to the host: the gate executes
//! on a one-core container, where a resident-set figure could not. This
//! file holds one test, so nothing else shares the counters.

use ppa_core::{DpPlanner, GreedyPlanner, PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{EngineConfig, FailureTrace, FtMode, Simulation};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{fig6_scenario, Fig6Config};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

// Relaxed: statistics that publish no other data, read by the thread that
// does the allocating.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls to `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct LiveCounting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for LiveCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller passes a block `alloc` returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block allocated before the old one is freed,
        // which is the most a moving realloc holds at once.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller passes a block `alloc` returned for `layout`
        // and a non-zero `new_size` that does not overflow.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveCounting = LiveCounting;

const MIB: f64 = 1024.0 * 1024.0;
/// About 10 % above the allocations each planner makes on Fig. 6 at
/// budget 25: 25 (`DpPlanner`), 2 429 (`StructureAwarePlanner`) and 11
/// (`GreedyPlanner`).
const DP_ALLOCS: usize = 28;
const SA_ALLOCS: usize = 2_700;
const GREEDY_ALLOCS: usize = 12;

#[test]
fn fig6_recovery_keeps_only_what_nobody_can_rebuild() {
    let cfg = Fig6Config {
        seed: 1,
        ..Fig6Config::default()
    };
    let scenario = fig6_scenario(&cfg);
    let n = scenario.graph().n_tasks();

    let cx = PlanContext::new(scenario.query.topology()).expect("Fig. 6 is a valid topology");
    let plan = TaskSet::full(n);
    let before = ALLOCS.load(Ordering::Relaxed);
    let of = cx.of_plan(&plan);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(of, 1.0, "the full plan loses nothing");
    println!("of_plan: {allocs} allocation(s) (ceiling 2)");
    assert!(
        allocs <= 2,
        "scoring one plan made {allocs} allocations, over the ceiling of 2"
    );
    // Enumerated before counting: the DP's own allocations are what the
    // ceiling bounds, not the context's cached MC-trees.
    cx.mc_trees()
        .expect("Fig. 6 enumerates its MC-trees within limits");
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let dp = DpPlanner::default()
        .plan(&cx, 25)
        .expect("DP plans Fig. 6 within its candidate cap");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let peak_mib = (PEAK.load(Ordering::Relaxed) - start) as f64 / MIB;
    assert!(dp.resources() <= 25);
    println!(
        "DP at budget 25: {allocs} allocation(s) (ceiling {DP_ALLOCS}), \
         peak live heap {peak_mib:.2} MiB"
    );
    assert!(
        allocs <= DP_ALLOCS,
        "DP at budget 25 made {allocs} allocations, over the ceiling of {DP_ALLOCS}"
    );
    let heuristics: [(&dyn Planner, usize); 2] = [
        (&StructureAwarePlanner, SA_ALLOCS),
        (&GreedyPlanner, GREEDY_ALLOCS),
    ];
    for (planner, ceiling) in heuristics {
        let name = planner.name();
        let before = ALLOCS.load(Ordering::Relaxed);
        let plan = planner
            .plan(&cx, 25)
            .expect("SA and Greedy plan every topology");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(plan.resources() <= 25);
        println!("{name} at budget 25: {allocs} allocation(s) (ceiling {ceiling})");
        assert!(
            allocs <= ceiling,
            "{name} at budget 25 made {allocs} allocations, over the ceiling of {ceiling}"
        );
    }
    let kill = FailureTrace::once(SimTime::from_secs(70), scenario.worker_kill_set.clone());
    // Ceilings about 10 % above what the runs peak at.
    let runs = [
        ("Active", FtMode::active(n), 38.0),
        (
            "Storm",
            FtMode::SourceReplay {
                buffer: cfg.window + SimDuration::from_secs(5),
            },
            22.0,
        ),
    ];
    for (name, mode, ceiling_mib) in runs {
        let config = EngineConfig {
            mode,
            seed: 1,
            ..EngineConfig::default()
        };
        let placement = scenario.placement.clone();
        let start = LIVE.load(Ordering::Relaxed);
        PEAK.store(start, Ordering::Relaxed);
        let report = Simulation::run(
            &scenario.query,
            placement,
            config,
            &kill,
            SimDuration::from_secs(160),
        );
        let peak_mib = (PEAK.load(Ordering::Relaxed) - start) as f64 / MIB;
        assert!(!report.sink.is_empty(), "{name}: the run produced output");
        drop(report);
        println!("{name}: peak live heap {peak_mib:.1} MiB (ceiling {ceiling_mib} MiB)");
        assert!(
            peak_mib <= ceiling_mib,
            "{name}: peak live heap {peak_mib:.1} MiB over the {ceiling_mib} MiB ceiling"
        );
    }
}
