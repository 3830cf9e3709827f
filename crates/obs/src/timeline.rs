//! A plain-text run timeline: per-task outage/recovery spans drawn on a
//! shared simulated-time axis, aligned with the injected failure waves.
//!
//! The renderer is a pure function of the event stream and its config,
//! so a rendered timeline is as deterministic as the trace it came from.

use crate::event::EngineEvent;
use ppa_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Rendering knobs for [`render_timeline`].
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Heading printed above the chart (blank to omit the line).
    pub(crate) title: String,
    /// Number of columns in the plot area.
    pub(crate) width: usize,
    /// Axis horizon; defaults to the last recorded instant.
    pub(crate) until: Option<SimTime>,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            title: String::new(),
            width: 64,
            until: None,
        }
    }
}

/// One task's outage as the renderer sees it.
struct Span {
    open: SimTime,
    detected: Option<SimTime>,
    close: Option<SimTime>,
}

/// Renders the event stream as one chart:
///
/// ```text
/// static policy  (0.0s .. 420.0s, 1 col ~ 6.6s)
/// waves     :     v         v
/// task    17: ....xxXXX|....xxxxXXXXXX|..
/// ```
///
/// Row legend: `.` healthy, `x` outage before detection, `X` outage
/// after detection (recovery underway), `|` the recovery instant; `v`
/// marks an injected failure wave. Tasks that never fail are omitted.
pub fn render_timeline(events: &[(SimTime, EngineEvent)], config: &TimelineConfig) -> String {
    let width = config.width.max(8);
    let t_max = config.until.unwrap_or_else(|| {
        events
            .iter()
            .map(|(at, _)| *at)
            .max()
            .unwrap_or(SimTime::ZERO)
    });
    let span_us = t_max.as_micros().max(1);
    let col = |at: SimTime| -> usize {
        ((at.as_micros().min(span_us) as u128 * (width as u128 - 1)) / span_us as u128) as usize
    };

    // Replay the stream into per-task span lists plus the wave instants.
    let mut waves: Vec<SimTime> = Vec::new();
    let mut tasks: BTreeMap<usize, Vec<Span>> = BTreeMap::new();
    for (at, event) in events {
        match event {
            EngineEvent::FailureInjected { .. } => waves.push(*at),
            EngineEvent::OutageOpened { task, .. } => {
                tasks.entry(*task).or_default().push(Span {
                    open: *at,
                    detected: None,
                    close: None,
                });
            }
            EngineEvent::RecoverySetback { task } => {
                // The open record re-armed: its earlier detection is void.
                if let Some(span) = tasks.entry(*task).or_default().last_mut() {
                    if span.close.is_none() {
                        span.detected = None;
                    }
                }
            }
            EngineEvent::OutageDetected { task } => {
                if let Some(span) = tasks.entry(*task).or_default().last_mut() {
                    if span.close.is_none() && span.detected.is_none() {
                        span.detected = Some(*at);
                    }
                }
            }
            e if e.closes_outage() => {
                if let Some(task) = e.task() {
                    if let Some(span) = tasks.entry(task).or_default().last_mut() {
                        if span.close.is_none() {
                            span.close = Some(*at);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    let mut out = String::new();
    if !config.title.is_empty() {
        let _ = writeln!(
            out,
            "{}  (0.0s .. {}, 1 col ~ {:.1}s)",
            config.title,
            t_max,
            t_max.as_secs_f64() / (width.saturating_sub(1).max(1)) as f64
        );
    }

    let mut wave_row = vec![' '; width];
    for w in &waves {
        wave_row[col(*w)] = 'v';
    }
    let _ = writeln!(out, "waves     : {}", wave_row.iter().collect::<String>());

    for (task, spans) in &tasks {
        let mut row = vec!['.'; width];
        for span in spans {
            let from = col(span.open);
            let to = span.close.map_or(width - 1, &col);
            let detect = span.detected.map(&col);
            for (c, cell) in row.iter_mut().enumerate().take(to + 1).skip(from) {
                *cell = match detect {
                    Some(d) if c >= d => 'X',
                    _ => 'x',
                };
            }
            if let Some(close) = span.close {
                row[col(close)] = '|';
            }
        }
        let _ = writeln!(out, "task {task:>5}: {}", row.iter().collect::<String>());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn renders_waves_and_outage_phases() -> TestResult {
        let events = vec![
            (
                SimTime::ZERO,
                EngineEvent::FailureInjected { nodes: vec![1] },
            ),
            (
                SimTime::ZERO,
                EngineEvent::OutageOpened {
                    task: 4,
                    refail: false,
                },
            ),
            (
                SimTime::from_secs(30),
                EngineEvent::OutageDetected { task: 4 },
            ),
            (
                SimTime::from_secs(60),
                EngineEvent::ReplicaActivated { task: 4 },
            ),
            (
                SimTime::from_secs(90),
                EngineEvent::OutageOpened {
                    task: 4,
                    refail: true,
                },
            ),
        ];
        let config = TimelineConfig {
            title: "demo".to_string(),
            width: 10,
            until: Some(SimTime::from_secs(90)),
        };
        let text = render_timeline(&events, &config);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("demo  (0.0s .. 90.000s"));
        assert_eq!(lines[1], "waves     : v         ");
        // Undetected 0..30s, detected 30..60s, recovery tick at 60s, the
        // refail at 90s still open at the horizon.
        assert_eq!(lines[2], "task     4: xxxXXX|..x");
        Ok(())
    }

    #[test]
    fn setback_voids_the_earlier_detection() -> TestResult {
        let events = vec![
            (
                SimTime::ZERO,
                EngineEvent::OutageOpened {
                    task: 0,
                    refail: false,
                },
            ),
            (
                SimTime::from_secs(10),
                EngineEvent::OutageDetected { task: 0 },
            ),
            (
                SimTime::from_secs(20),
                EngineEvent::RecoverySetback { task: 0 },
            ),
        ];
        let config = TimelineConfig {
            width: 8,
            until: Some(SimTime::from_secs(70)),
            ..TimelineConfig::default()
        };
        let text = render_timeline(&events, &config);
        // No detection survives, so the whole open span renders 'x'.
        assert!(text.contains("task     0: xxxxxxxx"));
        assert!(!text.contains('X'));
        Ok(())
    }

    #[test]
    fn empty_stream_renders_only_the_wave_axis() -> TestResult {
        let text = render_timeline(&[], &TimelineConfig::default());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("waves     :"));
        Ok(())
    }
}
