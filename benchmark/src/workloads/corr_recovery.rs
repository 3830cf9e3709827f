//! `corr_recovery` — tuple-bound recovery with tracing off. One iteration
//! drives seven runs: the Fig. 6 query with all 15 worker nodes killed at
//! 70 s under PPA-half, Active, Storm and Approximate; the two-wave cascade
//! on a racked 12 + 12 cluster under the domain-health policy; and Q1 and
//! Q2 with every primary node killed, scored against golden runs made in
//! set-up. About 600 tuples per event over at most 31 tasks: tuple
//! hand-off, UDF work, checkpoint/restore/replay and the control plane are
//! the cost, and the scheduler is idle. Q1 and Q2 carry payload values
//! where Fig. 6 is key-only, so a hand-off change that helps one and hurts
//! the other shows.

use super::{fingerprint, mix, open_outages, run_once, whole_run, Outcome, RunInputs, Workload};
use crate::spans::{count, span};
use ppa_core::{PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{
    plan_evacuation, Cluster, ControlAction, ControlPolicy, DomainHealthPolicy, DomainSpread,
    EngineConfig, EngineEvent, FailureTrace, FaultFeed, FtMode, HealthView, PlacementStrategy,
    RoundRobin, RunReport, StaticPolicy, TraceSink, VecSink,
};
use ppa_faults::{
    CascadeProcess, DomainBurstProcess, FailureProcess, IndependentProcess, WeibullProcess,
};
use ppa_obs::{
    check_stream, render_timeline, to_chrome_trace, to_jsonl, MetricsRegistry, TimelineConfig,
};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{
    batch_fidelity, fig6_scenario, incident_accuracy, outage_fidelity, outage_windows, q1_scenario,
    q2_scenario, topk_accuracy, Fig6Config, NavigationConfig, Q1Config, Scenario,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const FAIL_AT_SECS: u64 = 70;
const HORIZON_SECS: u64 = 160;
const WAVE_GAP_SECS: u64 = 30;
/// The accuracy runs fail earlier: their windows are shorter than Fig. 6's.
const ACCURACY_FAIL_AT_SECS: u64 = 45;

/// A [`ControlPolicy`] decorator: every hook call is a span and a count.
struct TimedPolicy<P>(P);

impl<P: ControlPolicy> ControlPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn epoch_interval(&self) -> Option<SimDuration> {
        self.0.epoch_interval()
    }

    fn on_epoch(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        count("engine.control.hook_calls", 1.0);
        span("engine.control.policy", || self.0.on_epoch(view))
    }

    fn on_failure(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        count("engine.control.hook_calls", 1.0);
        span("engine.control.policy", || self.0.on_failure(view))
    }
}

/// What a [`TimedSink`] leaves behind once the simulation has dropped it.
#[derive(Default)]
struct SinkTotals {
    busy_ns: AtomicU64,
    records: AtomicU64,
    events: Mutex<Vec<(SimTime, EngineEvent)>>,
}

/// A [`TraceSink`] decorator around [`VecSink`] accumulating the time spent
/// in `record`. One span per event would cost more than the call it times,
/// so it keeps two totals instead, and hands the buffered stream over when
/// the simulation drops it.
struct TimedSink {
    inner: VecSink,
    totals: Arc<SinkTotals>,
}

impl TraceSink for TimedSink {
    fn record(&mut self, at: SimTime, event: &EngineEvent) {
        let start = Instant::now();
        self.inner.record(at, event);
        // Relaxed: statistics only, read after the run has ended.
        self.totals
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.totals.records.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for TimedSink {
    fn drop(&mut self) {
        // A poisoned lock means the probe already panicked; nothing to keep.
        if let Ok(mut events) = self.totals.events.lock() {
            *events = self.inner.take_events();
        }
    }
}

/// One accuracy query (Q1 or Q2): its scenario, the failure run's inputs,
/// and the golden run its tentative output is scored against.
struct AccuracyRun {
    scenario: Scenario,
    config: EngineConfig,
    kill_all_primaries: FailureTrace,
    golden: RunReport,
    from_batch: u64,
    to_batch: u64,
    horizon: SimTime,
    score: fn(&RunReport, &RunReport, u64, u64) -> f64,
}

impl AccuracyRun {
    /// `settle_secs` is detection plus the query's state window, so the
    /// window samples fully degraded state (as the Fig. 12 harness does).
    fn new(
        scenario: Scenario,
        seed: u64,
        settle_secs: u64,
        score: fn(&RunReport, &RunReport, u64, u64) -> f64,
    ) -> Self {
        let from_batch = ACCURACY_FAIL_AT_SECS + settle_secs;
        let to_batch = from_batch + 20;
        let horizon = SimTime::from_secs(to_batch + 5);
        let n = scenario.graph().n_tasks();
        let cx = span("core.plan_context", || {
            PlanContext::new(scenario.query.topology()).expect("the query's topology is valid")
        });
        let budget = (n as f64 * 0.4).round() as usize;
        let plan = span("core.sa_plan", || {
            StructureAwarePlanner::default()
                .plan(&cx, budget)
                .expect("SA plans every valid topology")
                .tasks
        });
        let golden_config = EngineConfig {
            mode: FtMode::checkpoint(n, SimDuration::from_secs(10_000)),
            seed,
            ..EngineConfig::default()
        };
        let golden = run_once(
            &RunInputs {
                query: &scenario.query,
                placement: &scenario.placement,
                config: &golden_config,
                failures: &FailureTrace::new(),
                phases: &whole_run(horizon),
            },
            &mut StaticPolicy,
            None,
            |d| d.report.clone(),
        );
        let config = EngineConfig {
            mode: FtMode::ppa(plan, SimDuration::from_secs(10)),
            seed,
            // Held down so the window samples the plan's steady-state
            // tentative quality, the quantity OF models.
            passive_recovery: false,
            ..EngineConfig::default()
        };
        let kill_all_primaries = FailureTrace::once(
            SimTime::from_secs(ACCURACY_FAIL_AT_SECS),
            scenario.placement.all_primary_nodes(),
        );
        AccuracyRun {
            scenario,
            config,
            kill_all_primaries,
            golden,
            from_batch,
            to_batch,
            horizon,
            score,
        }
    }

    /// Drives the failure run; returns its fingerprint and accuracy.
    fn run(&self) -> (u64, f64) {
        run_once(
            &RunInputs {
                query: &self.scenario.query,
                placement: &self.scenario.placement,
                config: &self.config,
                failures: &self.kill_all_primaries,
                phases: &whole_run(self.horizon),
            },
            &mut StaticPolicy,
            None,
            |d| {
                let accuracy = span("workloads.accuracy", || {
                    (self.score)(&self.golden, &d.report, self.from_batch, self.to_batch)
                });
                (fingerprint(&d.report), accuracy)
            },
        )
    }
}

pub struct CorrRecovery {
    fig6: Scenario,
    /// The four static-policy configurations of the Fig. 6 runs.
    fig6_configs: Vec<EngineConfig>,
    fig6_kill: FailureTrace,
    refail: Scenario,
    refail_cluster: Cluster,
    refail_config: EngineConfig,
    refail_waves: FailureTrace,
    refail_budget: usize,
    q1: AccuracyRun,
    q2: AccuracyRun,
    ops: u64,
}

/// Two cascade waves (spread 0.9): the first from the first worker rack,
/// the second, 30 s later, from the standby rack `RoundRobin` aligns with
/// it — so it kills the replicas the first wave activated.
fn two_wave_trace(cluster: &Cluster, seed: u64) -> FailureTrace {
    let tree = cluster
        .domains
        .as_ref()
        .expect("a racked cluster has a tree");
    let wave = |origin: usize, start_secs: u64, salt: u64| {
        CascadeProcess {
            level: 1,
            spread: 0.9,
            decay: 0.5,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: Some(origin),
        }
        .generate_seeded(
            tree,
            SimTime::from_secs(start_secs),
            SimDuration::from_secs(20),
            mix(seed, salt),
        )
    };
    span("faults.generate", || {
        let mut trace = wave(0, FAIL_AT_SECS, 1);
        let first_standby_rack = 12 / 4;
        for e in wave(first_standby_rack, FAIL_AT_SECS + WAVE_GAP_SECS, 2).events() {
            trace.push(e.at, e.nodes.clone());
        }
        trace
    })
}

impl Workload for CorrRecovery {
    fn setup(seed: u64) -> Self {
        let cfg = Fig6Config {
            seed,
            ..Fig6Config::default()
        };
        let fig6 = span("workloads.scenario_build", || fig6_scenario(&cfg));
        let n = fig6.graph().n_tasks();
        let cx = span("core.plan_context", || {
            PlanContext::new(fig6.query.topology()).expect("the Fig. 6 topology is valid")
        });
        let half: TaskSet = span("core.sa_plan", || {
            StructureAwarePlanner::default()
                .plan(&cx, n / 2)
                .expect("SA plans every valid topology")
                .tasks
        });
        let with_mode = |mode: FtMode| EngineConfig {
            mode,
            seed,
            ..EngineConfig::default()
        };
        let fig6_configs = vec![
            with_mode(FtMode::ppa(half, SimDuration::from_secs(15))),
            with_mode(FtMode::active(n)),
            with_mode(FtMode::SourceReplay {
                // Sources must retain at least the window for state rebuild.
                buffer: cfg.window + SimDuration::from_secs(5),
            }),
            with_mode(FtMode::approximate(n, SimDuration::from_secs(5), 8000)),
        ];
        let fig6_kill = FailureTrace::once(
            SimTime::from_secs(FAIL_AT_SECS),
            fig6.worker_kill_set.clone(),
        );

        let cluster = Cluster::racked(12, 12, 4).expect("rack size is positive");
        let refail = span("workloads.scenario_build", || {
            fig6_scenario(&cfg)
                .placed_with(&RoundRobin, &cluster)
                .expect("Fig. 6 fits the 12 + 12 cluster")
        });
        let refail_cx = span("engine.placement.plan_context", || {
            refail
                .placement
                .plan_context(refail.query.topology())
                .expect("the racked placement carries its fault domains")
        });
        let refail_plan = span("core.sa_plan", || {
            StructureAwarePlanner::default()
                .plan(&refail_cx, n / 2)
                .expect("SA plans every valid topology")
                .tasks
        });
        let refail_config = EngineConfig {
            mode: FtMode::ppa(refail_plan, SimDuration::from_secs(5)),
            seed,
            // A re-failed task comes back only through the control plane.
            passive_recovery: false,
            ..EngineConfig::default()
        };
        let refail_waves = two_wave_trace(&cluster, seed);

        let q1_cfg = Q1Config {
            seed: mix(seed, 3),
            ..Q1Config::default()
        };
        let q1_scn = span("workloads.scenario_build", || q1_scenario(&q1_cfg));
        let q1 = AccuracyRun::new(q1_scn, seed, 7 + q1_cfg.window_batches, topk_accuracy);
        let q2_cfg = NavigationConfig {
            seed: mix(seed, 4),
            ..NavigationConfig::default()
        };
        let q2_scn = span("workloads.scenario_build", || q2_scenario(&q2_cfg));
        let q2 = AccuracyRun::new(q2_scn, seed, 7 + 6, incident_accuracy);

        // One op = one source tuple the inputs define: rate × source tasks
        // × batches, over the seven runs.
        let fig6_tuples = 16 * cfg.rate as u64 * HORIZON_SECS;
        let q1_tuples =
            (q1_cfg.src_tasks * q1_cfg.rate) as u64 * q1.horizon.as_micros() / 1_000_000;
        let q2_tuples = q2_cfg.location_rate as u64 * q2.horizon.as_micros() / 1_000_000;
        let ops = 5 * fig6_tuples + q1_tuples + q2_tuples;

        CorrRecovery {
            fig6,
            fig6_configs,
            fig6_kill,
            refail,
            refail_cluster: cluster,
            refail_config,
            refail_waves,
            refail_budget: n / 2,
            q1,
            q2,
            ops,
        }
    }

    fn iterate(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let graph = self.fig6.graph();

        // The static-policy Fig. 6 runs, each driven in three resumed
        // calls so the traced run can tell steady state from recovery.
        let just_before = |secs: u64| SimTime::from_micros(secs * 1_000_000 - 1);
        let phases = [
            ("engine.drive.steady", just_before(FAIL_AT_SECS)),
            ("engine.drive.recovery", just_before(130)),
            ("engine.drive.tail", SimTime::from_secs(HORIZON_SECS)),
        ];
        let mut recovery_sum = 0.0;
        for config in &self.fig6_configs {
            let inputs = RunInputs {
                query: &self.fig6.query,
                placement: &self.fig6.placement,
                config,
                failures: &self.fig6_kill,
                phases: &phases,
            };
            let (print, all_closed, completion_s) =
                run_once(&inputs, &mut StaticPolicy, None, |d| {
                    // Detection → the last non-source task recovered.
                    let completion = d
                        .report
                        .outages
                        .iter()
                        .filter(|o| !graph.is_source_task(o.task))
                        .filter_map(|o| o.records.last())
                        .map(|r| r.latency().map_or(f64::NAN, |l| l.as_secs_f64()))
                        .fold(0.0, f64::max);
                    (
                        fingerprint(&d.report),
                        open_outages(&d.report) == 0,
                        completion,
                    )
                });
            out.fingerprint.push(print);
            out.check(all_closed);
            recovery_sum += completion_s;
        }
        out.figures.push((
            "sim_recovery_s",
            recovery_sum / self.fig6_configs.len() as f64,
        ));

        // The adaptive run: passive recovery is off, so its re-failed
        // tasks' outages stay open by design and are not checked.
        let mut policy = TimedPolicy(DomainHealthPolicy::new(Some(self.refail_budget)));
        let print = run_once(&self.refail_inputs(), &mut policy, None, |d| {
            fingerprint(&d.report)
        });
        out.fingerprint.push(print);

        let (q1_print, q1_accuracy) = self.q1.run();
        let (q2_print, q2_accuracy) = self.q2.run();
        out.fingerprint.extend([q1_print, q2_print]);
        out.figures
            .push(("sim_fidelity", (q1_accuracy + q2_accuracy) / 2.0));
        out
    }

    fn ops_per_iteration(&self) -> u64 {
        self.ops
    }

    fn probes(&mut self) {
        self.probe_feed();
        self.probe_faults();
        self.probe_placement();
        self.probe_obs();
    }
}

impl CorrRecovery {
    fn refail_inputs(&self) -> RunInputs<'_> {
        const WHOLE: [(&str, SimTime); 1] =
            [("engine.drive.whole", SimTime::from_secs(HORIZON_SECS))];
        RunInputs {
            query: &self.refail.query,
            placement: &self.refail.placement,
            config: &self.refail_config,
            failures: &self.refail_waves,
            phases: &WHOLE,
        }
    }

    /// `engine`: resolving a failure feed against a placement, the step
    /// `drive` makes itself before its first event.
    fn probe_feed(&self) {
        let runs = [
            (&self.fig6_kill, &self.fig6.placement),
            (&self.refail_waves, &self.refail.placement),
        ];
        for (failures, placement) in runs {
            let feed = FaultFeed::from_trace(failures.clone());
            span("engine.feed_resolve", || {
                feed.resolve(placement)
                    .expect("the workload's failures name nodes of its own cluster")
            });
        }
    }

    /// `ppa-faults`: the four generative processes over the refail
    /// cluster's tree, and the text form's round trip.
    fn probe_faults(&self) {
        let tree = self
            .refail
            .placement
            .fault_domains()
            .expect("the racked placement carries its fault domains");
        let seed = self.refail_config.seed;
        let start = SimTime::from_secs(FAIL_AT_SECS);
        let horizon = SimDuration::from_secs(600);
        let processes: [Box<dyn FailureProcess>; 4] = [
            Box::new(CascadeProcess {
                level: 1,
                spread: 0.9,
                decay: 0.5,
                hop_delay: SimDuration::from_secs(2),
                fraction: 1.0,
                origin: None,
            }),
            Box::new(DomainBurstProcess {
                level: 1,
                bursts: 4,
                fraction: 0.5,
            }),
            Box::new(IndependentProcess {
                mtbf: SimDuration::from_secs(60),
            }),
            Box::new(WeibullProcess {
                shape: 0.7,
                scale: SimDuration::from_secs(60),
            }),
        ];
        let mut all = FailureTrace::new();
        for (i, process) in processes.iter().enumerate() {
            let trace = span("faults.generate", || {
                process.generate_seeded(tree, start, horizon, mix(seed, 10 + i as u64))
            });
            for e in trace.events() {
                all.push(e.at, e.nodes.clone());
            }
        }
        count("faults.events", all.len() as f64);
        let back = span("faults.trace_text", || {
            FailureTrace::from_text(&all.to_text()).expect("a trace's own text form parses")
        });
        assert_eq!(back.len(), all.len(), "the text form round-trips");
    }

    /// `engine.placement`: what a `Replan` and a `MigrateTasks` call into.
    fn probe_placement(&self) {
        let placement = &self.refail.placement;
        span("engine.placement.place", || {
            DomainSpread::racks()
                .place(&self.refail.graph(), &self.refail_cluster)
                .expect("Fig. 6 fits the 12 + 12 cluster")
        });
        span("engine.placement.plan_context", || {
            placement
                .plan_context(self.refail.query.topology())
                .expect("the racked placement carries its fault domains")
        });
        let tree = placement
            .fault_domains()
            .expect("the racked placement carries its fault domains");
        let racks = tree.domains_at_level(1);
        let alive = vec![true; placement.n_nodes()];
        span("engine.placement.evacuation", || {
            for rack in &racks {
                plan_evacuation(placement, &[*rack], &alive)
                    .expect("the racked placement carries its fault domains");
            }
        });
    }

    /// `ppa-obs`: the adaptive run with a sink attached against without,
    /// the time inside `record`, and every exporter over the recorded
    /// stream.
    fn probe_obs(&self) {
        let inputs = self.refail_inputs();
        let adaptive = |sink: Option<Box<dyn TraceSink>>| {
            let mut policy = DomainHealthPolicy::new(Some(self.refail_budget));
            let start = Instant::now();
            let (report, metrics) = run_once(&inputs, &mut policy, sink, |d| {
                (d.report.clone(), d.metrics.clone())
            });
            (start.elapsed().as_secs_f64(), report, metrics)
        };
        let (off_s, _, _) = adaptive(None);
        let (on_s, _, _) = adaptive(Some(Box::new(VecSink::new())));
        count("obs.trace_off_s", off_s);
        count("obs.trace_on_s", on_s);

        let totals = Arc::new(SinkTotals::default());
        let (_, report, metrics) = adaptive(Some(Box::new(TimedSink {
            inner: VecSink::new(),
            totals: Arc::clone(&totals),
        })));
        let events = std::mem::take(
            &mut *totals
                .events
                .lock()
                .expect("the sink's drop does not panic"),
        );
        count(
            "obs.sink.record.busy_s",
            totals.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        count("obs.events", totals.records.load(Ordering::Relaxed) as f64);

        let jsonl = span("obs.to_jsonl", || to_jsonl(&events));
        count("obs.jsonl_bytes", jsonl.len() as f64);
        span("obs.to_chrome_trace", || to_chrome_trace(&events));
        span("obs.render_timeline", || {
            render_timeline(&events, &TimelineConfig::default())
        });
        let verdict = span("obs.check_stream", || check_stream(&events));
        assert!(
            verdict.ok(),
            "the adaptive run's stream breaks an invariant"
        );
        // The run's own counters, replayed into a fresh registry and read
        // back, as often as `drive` snapshots in one iteration.
        span("obs.metrics_snapshot", || {
            for _ in 0..15 {
                let mut registry = MetricsRegistry::new();
                for &(name, value) in &metrics.counters {
                    registry.add(name, value);
                }
                std::hint::black_box(registry.snapshot());
            }
        });

        // The remaining accuracy functions, over the same run.
        let golden_config = EngineConfig {
            passive_recovery: true,
            ..self.refail_config.clone()
        };
        let golden = run_once(
            &RunInputs {
                failures: &FailureTrace::new(),
                config: &golden_config,
                ..self.refail_inputs()
            },
            &mut StaticPolicy,
            None,
            |d| d.report.clone(),
        );
        span("workloads.accuracy", || {
            let windows = outage_windows(&report, self.refail_config.batch_interval, HORIZON_SECS);
            outage_fidelity(&golden, &report, &windows, SimDuration::from_secs(5));
            batch_fidelity(
                &golden,
                &report,
                FAIL_AT_SECS,
                HORIZON_SECS,
                SimDuration::from_secs(5),
            );
        });
    }
}
