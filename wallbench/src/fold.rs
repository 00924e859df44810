//! Fold one job's flight-recorder events into the benchmark's spans: the
//! phase tiling, the three segments of every checkpoint round, and the
//! fault-to-recovery latencies.

use acr::obs::{EventKind, RecordedEvent, RunPhase};

pub const PHASES: [RunPhase; 6] = [
    RunPhase::Forward,
    RunPhase::Round,
    RunPhase::Rollback,
    RunPhase::Recovery,
    RunPhase::Ship,
    RunPhase::Restart,
];

/// One checkpoint round, `RoundStart` to `RoundVerdict`, cut at the
/// round's last `CheckpointPack` and its last `CompareOutcome`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Round {
    pub total: f64,
    /// Consensus, drain and pack: start to the last pack.
    pub decide: f64,
    /// Ship and buddy compare: last pack to the last compare outcome.
    pub ship: f64,
    /// Verdict, persist and commit: last compare outcome to the verdict.
    pub commit: f64,
}

impl Round {
    /// The three segments are non-negative, so they tile the round.
    pub fn tiled(&self) -> bool {
        self.decide >= 0.0 && self.ship >= 0.0 && self.commit >= 0.0
    }
}

/// Everything the benchmark reads from one job's event log.
#[derive(Debug, Clone, Default)]
pub struct JobSpans {
    /// Job-clock time of the first `PhaseEnter{Forward}`.
    pub setup: f64,
    /// Seconds per phase, in `PHASES` order, tiled from the first
    /// `PhaseEnter` to `JobEnd`.
    pub phases: [f64; 6],
    pub rounds: Vec<Round>,
    /// Verdicts the segments cannot tile: no pack or compare inside the
    /// round, or no open `RoundStart` of the same round before them.
    pub untiled: usize,
    /// `CheckpointPack` bytes inside the rounds in `rounds`.
    pub round_pack_bytes: u64,
    pub crashes: usize,
    pub sdcs: usize,
    pub node_deaths: usize,
    /// Crash `FaultInjected` → first `NodeDead` after it.
    pub crash_detect: Vec<f64>,
    /// Crash `FaultInjected` → first `RecoveryDone` after it.
    pub recovery: Vec<f64>,
    /// `RecoveryStart` → `RecoveryDone`.
    pub restore: Vec<f64>,
    /// SDC `FaultInjected` → first `RoundVerdict{clean: false}` after it.
    pub sdc_detect: Vec<f64>,
    /// Detected SDCs: the iteration the flip landed at and the iteration
    /// of the dirty verdict.
    pub sdc_caught: Vec<(u64, u64)>,
    /// SDCs no dirty verdict followed: the iteration the flip landed at,
    /// and the iteration of the first verdict that could hold the flip
    /// (`None` when no such verdict came).
    pub sdc_missed: Vec<(u64, Option<u64>)>,
    /// Iterations recomputed after rollbacks: a dirty verdict or a
    /// reworking recovery, back to the last clean verdict.
    pub rework_iters: u64,
    pub ship_raw_bytes: u64,
    pub ship_wire_bytes: u64,
    pub frames_sent: u64,
    pub events: usize,
}

impl JobSpans {
    pub fn forward(&self) -> f64 {
        self.phases[0]
    }
}

/// An SDC no dirty verdict has followed yet.
struct PendingSdc {
    t: f64,
    /// The iteration the flip landed at.
    iteration: u64,
    /// The victim node.
    node: u32,
    /// The victim packed after the flip inside the open round, so that
    /// round's checkpoint holds the flip. A pack before the flip at the
    /// same iteration does not.
    packed: bool,
    /// The iteration of the first verdict on a checkpoint holding the flip.
    first: Option<u64>,
}

pub fn fold(events: &[RecordedEvent]) -> JobSpans {
    let mut s = JobSpans {
        events: events.len(),
        ..JobSpans::default()
    };
    let mut phase: Option<(usize, f64)> = None;
    let mut open: Option<(u64, f64)> = None;
    let (mut last_pack, mut last_cmp) = (None::<f64>, None::<f64>);
    let mut packed = 0u64;
    let mut last_clean_iter = 0u64;
    let mut pending_crash: Vec<u64> = Vec::new();
    let mut crash_waiting_dead: Vec<f64> = Vec::new();
    let mut crash_waiting_done: Vec<f64> = Vec::new();
    let mut sdc_waiting: Vec<PendingSdc> = Vec::new();
    let mut recovery_start: Option<f64> = None;
    for ev in events {
        match &ev.kind {
            EventKind::PhaseEnter { phase: next } => {
                match phase {
                    Some((i, since)) => s.phases[i] += ev.t - since,
                    None => s.setup = ev.t,
                }
                let i = PHASES.iter().position(|p| p == next).expect("known phase");
                phase = Some((i, ev.t));
            }
            EventKind::JobEnd { .. } => {
                if let Some((i, since)) = phase.take() {
                    s.phases[i] += ev.t - since;
                }
            }
            EventKind::RoundStart { round } => {
                open = Some((*round, ev.t));
                for sdc in sdc_waiting.iter_mut() {
                    sdc.packed = false;
                }
                last_pack = None;
                last_cmp = None;
                packed = 0;
            }
            EventKind::CheckpointPack { bytes, .. } if open.is_some() => {
                for sdc in sdc_waiting.iter_mut().filter(|p| p.node == ev.node) {
                    sdc.packed = true;
                }
                last_pack = Some(ev.t);
                packed += bytes;
            }
            EventKind::CompareOutcome { .. } if open.is_some() => last_cmp = Some(ev.t),
            EventKind::RoundVerdict {
                round,
                iteration,
                clean,
            } => {
                match (open.take(), last_pack, last_cmp) {
                    (Some((r, start)), Some(p), Some(c)) if r == *round => {
                        s.rounds.push(Round {
                            total: ev.t - start,
                            decide: p - start,
                            ship: c - p,
                            commit: ev.t - c,
                        });
                        s.round_pack_bytes += packed;
                    }
                    _ => s.untiled += 1,
                }
                for sdc in sdc_waiting.iter_mut() {
                    if sdc.first.is_none() && sdc.packed {
                        sdc.first = Some(*iteration);
                    }
                }
                if *clean {
                    last_clean_iter = *iteration;
                } else {
                    s.rework_iters += iteration.saturating_sub(last_clean_iter);
                    for sdc in sdc_waiting.drain(..) {
                        s.sdc_detect.push(ev.t - sdc.t);
                        s.sdc_caught.push((sdc.iteration, *iteration));
                    }
                }
            }
            EventKind::FaultInjected { kind, iteration } => match kind.as_str() {
                "crash" => {
                    s.crashes += 1;
                    pending_crash.push(*iteration);
                    crash_waiting_dead.push(ev.t);
                    crash_waiting_done.push(ev.t);
                }
                "sdc" => {
                    s.sdcs += 1;
                    sdc_waiting.push(PendingSdc {
                        t: ev.t,
                        iteration: *iteration,
                        node: ev.node,
                        packed: false,
                        first: None,
                    });
                }
                _ => {}
            },
            EventKind::NodeDead { .. } => {
                s.node_deaths += 1;
                if !crash_waiting_dead.is_empty() {
                    let t = crash_waiting_dead.remove(0);
                    s.crash_detect.push(ev.t - t);
                }
            }
            EventKind::RecoveryStart { .. } => recovery_start = Some(ev.t),
            EventKind::RecoveryPlan { rework: true, .. } => {
                for it in pending_crash.drain(..) {
                    s.rework_iters += it.saturating_sub(last_clean_iter);
                }
            }
            EventKind::RecoveryDone { .. } => {
                pending_crash.clear();
                if let Some(t) = recovery_start.take() {
                    s.restore.push(ev.t - t);
                }
                for t in crash_waiting_done.drain(..) {
                    s.recovery.push(ev.t - t);
                }
            }
            EventKind::WireBytes {
                frames_sent,
                ship_raw_bytes,
                ship_wire_bytes,
                ..
            } => {
                s.frames_sent += frames_sent;
                s.ship_raw_bytes += ship_raw_bytes;
                s.ship_wire_bytes += ship_wire_bytes;
            }
            _ => {}
        }
    }
    s.sdc_missed = sdc_waiting
        .into_iter()
        .map(|sdc| (sdc.iteration, sdc.first))
        .collect();
    s
}

/// A counter's value in a Prometheus text snapshot (0 when absent).
pub fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let base = key.split('{').next()?;
            (base == name).then(|| value.parse().ok())?
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t: f64, kind: EventKind) -> RecordedEvent {
        RecordedEvent {
            seq,
            t,
            node: 0,
            kind,
        }
    }

    #[test]
    fn rounds_are_cut_at_the_last_pack_and_compare() {
        let pack = || EventKind::CheckpointPack {
            bytes: 8,
            chunks: 1,
            chunk_size: 8,
        };
        let cmp = || EventKind::CompareOutcome {
            iteration: 3,
            clean: true,
            diverged_bytes: 0,
            windows: 0,
        };
        let events = vec![
            ev(
                0,
                0.01,
                EventKind::PhaseEnter {
                    phase: RunPhase::Forward,
                },
            ),
            ev(
                1,
                0.10,
                EventKind::PhaseEnter {
                    phase: RunPhase::Round,
                },
            ),
            ev(2, 0.10, EventKind::RoundStart { round: 1 }),
            ev(3, 0.11, pack()),
            ev(4, 0.12, pack()),
            ev(5, 0.13, cmp()),
            ev(6, 0.15, cmp()),
            ev(
                7,
                0.16,
                EventKind::RoundVerdict {
                    round: 1,
                    iteration: 3,
                    clean: true,
                },
            ),
            ev(
                8,
                0.16,
                EventKind::PhaseEnter {
                    phase: RunPhase::Forward,
                },
            ),
            ev(9, 0.30, EventKind::JobEnd { completed: true }),
        ];
        let s = fold(&events);
        assert_eq!(s.rounds.len(), 1);
        let r = s.rounds[0];
        assert!((r.decide - 0.02).abs() < 1e-12);
        assert!((r.ship - 0.03).abs() < 1e-12);
        assert!((r.commit - 0.01).abs() < 1e-12);
        assert!((r.decide + r.ship + r.commit - r.total).abs() < 1e-12);
        assert_eq!(s.round_pack_bytes, 16);
        assert!((s.setup - 0.01).abs() < 1e-12);
        let sum: f64 = s.setup + s.phases.iter().sum::<f64>();
        assert!((sum - 0.30).abs() < 1e-12);
        assert!((s.forward() - (0.09 + 0.14)).abs() < 1e-12);
    }

    fn verdict(round: u64, iteration: u64, clean: bool) -> EventKind {
        EventKind::RoundVerdict {
            round,
            iteration,
            clean,
        }
    }

    #[test]
    fn orphan_and_mismatched_verdicts_count_as_untiled() {
        let events = vec![
            ev(0, 0.10, verdict(1, 3, true)),
            ev(1, 0.20, EventKind::RoundStart { round: 2 }),
            ev(2, 0.25, verdict(3, 6, true)),
        ];
        let s = fold(&events);
        assert!(s.rounds.is_empty());
        assert_eq!(s.untiled, 2);
    }

    #[test]
    fn an_undetected_sdc_keeps_the_first_verdict_that_could_hold_it() {
        let on = |node, seq, t, kind| RecordedEvent { seq, t, node, kind };
        let pack = || EventKind::CheckpointPack {
            bytes: 8,
            chunks: 1,
            chunk_size: 8,
        };
        // Round 1 is already open at iteration 12 when the flip lands on
        // node 1, which packed before it; node 2 packs after it. Round 2's
        // checkpoint is the first one node 1 packs after the flip.
        let events = vec![
            on(0, 0, 0.08, EventKind::RoundStart { round: 1 }),
            on(1, 1, 0.09, pack()),
            on(
                1,
                2,
                0.10,
                EventKind::FaultInjected {
                    kind: "sdc".into(),
                    iteration: 12,
                },
            ),
            on(2, 3, 0.105, pack()),
            on(0, 4, 0.11, verdict(1, 12, true)),
            on(0, 5, 0.14, EventKind::RoundStart { round: 2 }),
            on(1, 6, 0.145, pack()),
            on(0, 7, 0.15, verdict(2, 18, true)),
        ];
        let s = fold(&events);
        assert_eq!(s.sdcs, 1);
        assert!(s.sdc_detect.is_empty());
        assert_eq!(s.sdc_missed, vec![(12, Some(18))]);

        let mut caught = events.clone();
        caught.push(on(0, 8, 0.30, verdict(3, 22, false)));
        let s = fold(&caught);
        assert!(s.sdc_missed.is_empty());
        assert_eq!(s.sdc_caught, vec![(12, 22)]);
        assert!((s.sdc_detect[0] - 0.20).abs() < 1e-12);
    }

    #[test]
    fn counters_parse_from_the_exposition() {
        let text = "# HELP a x\n# TYPE a counter\nacr_store_fsyncs_total 12\n\
                    acr_obs_events_dropped_total{job=\"j\"} 3\n";
        assert_eq!(counter(text, "acr_store_fsyncs_total"), 12.0);
        assert_eq!(counter(text, "acr_obs_events_dropped_total"), 3.0);
        assert_eq!(counter(text, "missing"), 0.0);
    }
}
