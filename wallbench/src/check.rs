//! The output check: a job passes only when it completed, every replica's
//! every rank ended in exactly the reference state, every injected fault
//! was handled, no healthy node was declared dead and the recorder lost
//! nothing. `JobReport::replicas_agree` is deliberately not used: two
//! replicas that agree on a wrong (or empty) state would pass it.
//!
//! One miss is excused: an SDC with no dirty verdict whose flip the
//! reference shows had vanished, bit for bit, by the first verdict on a
//! checkpoint that could hold it. Every excuse is counted. The traced run
//! also checks the reference's fault model the other way: at the
//! iteration the runtime detected an SDC, the reference must see the flip.

use acr::runtime::JobReport;

use crate::fold::{counter, JobSpans};

/// What a job must have produced.
pub struct Expect<'a> {
    /// Packed final state per rank (one task per rank).
    pub finals: &'a [Vec<u8>],
    /// Scripted crashes and SDCs (each fires exactly once).
    pub crashes: usize,
    pub sdcs: usize,
    /// The iteration the SDC is scripted at, for jobs without events.
    pub sdc_iter: u64,
    /// `masked(at, verdict)`: whether the scripted SDC, landing at
    /// iteration `at`, left the state bit-identical to the fault-free one
    /// by iteration `verdict` (`Reference::sdc_masked`).
    pub sdc_masked: &'a dyn Fn(u64, u64) -> bool,
    /// Also check `sdc_masked` against every detected SDC.
    pub check_oracle: bool,
}

/// The verdict on one job.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Every reason the job failed; empty when it passed.
    pub failures: Vec<String>,
    /// The job reported completion with a final state that is missing or
    /// differs from the reference: a wrong answer, not just a failed run.
    pub wrong_output: bool,
    /// Undetected SDCs excused because their flip had vanished.
    pub sdc_excused: usize,
    /// Detected SDCs the reference's fault model was checked against.
    pub oracle_checks: usize,
}

impl Verdict {
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// An SDC that landed at iteration `at` and got no dirty verdict; the
    /// first verdict that could hold it is at iteration `first`.
    fn missed_sdc(&mut self, at: u64, first: Option<u64>, exp: &Expect) {
        match first {
            Some(it) if (exp.sdc_masked)(at, it) => self.sdc_excused += 1,
            Some(it) => self.failures.push(format!(
                "the SDC at iteration {at} has no dirty verdict; \
                 the flip is still in the state at the verdict of iteration {it}"
            )),
            None => self.failures.push(format!(
                "the SDC at iteration {at} has no dirty verdict, and no verdict came after it"
            )),
        }
    }
}

/// Check `report` against `exp`. `spans` is the folded event log, `None`
/// when the job ran with the recorder off; the fault checks then fall
/// back to the report's own counters and trace lines.
pub fn check(report: &JobReport, spans: Option<&JobSpans>, exp: &Expect) -> Verdict {
    let mut v = Verdict::default();
    if !report.completed {
        v.failures.push("job did not complete".into());
    }
    if let Some(e) = &report.error {
        v.failures.push(format!("job error: {e}"));
    }
    for replica in 0..2u8 {
        for (rank, want) in exp.finals.iter().enumerate() {
            let why = match report.task_state(replica, rank, 0) {
                None => "missing",
                Some(got) if got.as_ref() != want.as_slice() => "differs from the reference",
                Some(_) => continue,
            };
            v.failures.push(format!(
                "final state of replica {replica} rank {rank} {why}"
            ));
            v.wrong_output |= report.completed;
        }
    }
    match spans {
        Some(s) => {
            if s.crashes != exp.crashes {
                v.failures.push(format!(
                    "{} crashes injected, {} scripted",
                    s.crashes, exp.crashes
                ));
            }
            if s.recovery.len() < s.crashes {
                v.failures
                    .push("an injected crash has no RecoveryDone".into());
            }
            if s.sdcs != exp.sdcs {
                v.failures
                    .push(format!("{} SDCs injected, {} scripted", s.sdcs, exp.sdcs));
            }
            for &(at, first) in &s.sdc_missed {
                v.missed_sdc(at, first, exp);
            }
            for &(at, it) in s.sdc_caught.iter().filter(|_| exp.check_oracle) {
                v.oracle_checks += 1;
                if (exp.sdc_masked)(at, it) {
                    v.failures.push(format!(
                        "the runtime detected the SDC at iteration {at} in the checkpoint of \
                         iteration {it}, where the reference finds no trace of it"
                    ));
                }
            }
            if s.node_deaths > s.crashes {
                v.failures.push(format!(
                    "{} false deaths: {} nodes declared dead, {} crashes",
                    s.node_deaths - s.crashes,
                    s.node_deaths,
                    s.crashes
                ));
            }
            let dropped = counter(&report.metrics, "acr_obs_events_dropped_total");
            if dropped > 0.0 {
                v.failures
                    .push(format!("recorder dropped {dropped} events"));
            }
        }
        None => {
            if report.crashes_injected_at.len() != exp.crashes
                || report.hard_errors_recovered < exp.crashes
            {
                v.failures.push(format!(
                    "{} crashes injected, {} recovered, {} scripted",
                    report.crashes_injected_at.len(),
                    report.hard_errors_recovered,
                    exp.crashes
                ));
            }
            if report.sdc_injected_at.len() != exp.sdcs {
                v.failures.push(format!(
                    "{} SDCs injected, {} scripted",
                    report.sdc_injected_at.len(),
                    exp.sdcs
                ));
            } else if report.sdc_rounds_detected < exp.sdcs {
                v.missed_sdc(
                    exp.sdc_iter,
                    first_verdict_after_sdc(report, exp.sdc_iter),
                    exp,
                );
            }
        }
    }
    v
}

/// The iteration of the first verdict past iteration `at` that the driver
/// logged after an SDC landed, read from the report's trace lines
/// (`fault sdc landed …`, then `round N verified iter=I` or
/// `round N detected sdc iter=I`). For jobs run with the recorder off,
/// which cannot tell whether a checkpoint at iteration `at` itself was
/// packed before or after the flip, so they skip it.
fn first_verdict_after_sdc(report: &JobReport, at: u64) -> Option<u64> {
    report
        .trace
        .iter()
        .skip_while(|l| !l.contains("fault sdc landed"))
        .filter(|l| l.contains(" verified iter=") || l.contains(" detected sdc iter="))
        .filter_map(|l| l.rsplit_once("iter=")?.1.trim().parse::<u64>().ok())
        .find(|&it| it > at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold;
    use acr::obs::{EventKind, RecordedEvent, RunPhase};
    use bytes::Bytes;

    fn ev(seq: u64, t: f64, kind: EventKind) -> RecordedEvent {
        RecordedEvent {
            seq,
            t,
            node: 0,
            kind,
        }
    }

    fn finals() -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]
    }

    /// A report that passes: complete, both replicas of both ranks equal
    /// to the reference, a clean event log.
    fn good() -> JobReport {
        let mut r = JobReport {
            completed: true,
            metrics: "acr_obs_events_dropped_total 0\n".into(),
            ..JobReport::default()
        };
        for replica in 0..2u8 {
            for (rank, f) in finals().into_iter().enumerate() {
                r.final_states.insert((replica, rank), vec![Bytes::from(f)]);
            }
        }
        r.events = vec![
            ev(
                0,
                0.01,
                EventKind::PhaseEnter {
                    phase: RunPhase::Forward,
                },
            ),
            ev(1, 0.20, EventKind::JobEnd { completed: true }),
        ];
        r
    }

    fn verdict(r: &JobReport) -> Verdict {
        let f = finals();
        let exp = Expect {
            finals: &f,
            crashes: 0,
            sdcs: 0,
            sdc_iter: 0,
            sdc_masked: &|_, _| false,
            check_oracle: true,
        };
        check(r, Some(&fold(&r.events)), &exp)
    }

    #[test]
    fn a_correct_job_passes() {
        let v = verdict(&good());
        assert!(!v.failed(), "{:?}", v.failures);
    }

    #[test]
    fn empty_final_states_fail_even_though_replicas_agree() {
        let mut r = good();
        r.final_states.clear();
        assert!(
            r.replicas_agree(),
            "the check this benchmark must not rely on"
        );
        let v = verdict(&r);
        assert!(v.failed() && v.wrong_output, "{:?}", v.failures);
    }

    #[test]
    fn a_one_bit_flip_in_one_replica_fails() {
        let mut r = good();
        let mut flipped = finals()[1].clone();
        flipped[2] ^= 0x10;
        r.final_states.insert((1, 1), vec![Bytes::from(flipped)]);
        let v = verdict(&r);
        assert!(v.failed() && v.wrong_output, "{:?}", v.failures);
    }

    #[test]
    fn a_one_bit_flip_in_both_replicas_fails() {
        let mut r = good();
        let mut flipped = finals()[0].clone();
        flipped[0] ^= 1;
        for replica in 0..2u8 {
            r.final_states
                .insert((replica, 0), vec![Bytes::from(flipped.clone())]);
        }
        assert!(r.replicas_agree());
        assert!(verdict(&r).failed());
    }

    #[test]
    fn a_spurious_node_death_fails() {
        let mut r = good();
        r.events.insert(
            1,
            ev(
                5,
                0.1,
                EventKind::NodeDead {
                    dead: 1,
                    replica: 1,
                    rank: 0,
                },
            ),
        );
        let v = verdict(&r);
        assert!(v.failed() && !v.wrong_output, "{:?}", v.failures);
    }

    #[test]
    fn an_incomplete_job_fails() {
        let mut r = good();
        r.completed = false;
        r.error = Some("out of spares".into());
        let v = verdict(&r);
        assert_eq!(v.failures.len(), 2);
        assert!(!v.wrong_output);
    }

    #[test]
    fn dropped_events_fail() {
        let mut r = good();
        r.metrics = "acr_obs_events_dropped_total 2\n".into();
        assert!(verdict(&r).failed());
    }

    #[test]
    fn an_unrecovered_crash_and_an_undetected_sdc_fail() {
        let mut r = good();
        let injected = |kind: &str| EventKind::FaultInjected {
            kind: kind.into(),
            iteration: 10,
        };
        r.events.insert(1, ev(2, 0.05, injected("crash")));
        r.events.insert(2, ev(3, 0.06, injected("sdc")));
        let f = finals();
        let exp = Expect {
            finals: &f,
            crashes: 1,
            sdcs: 1,
            sdc_iter: 10,
            sdc_masked: &|_, _| true,
            check_oracle: true,
        };
        let v = check(&r, Some(&fold(&r.events)), &exp);
        assert!(v.failures.iter().any(|f| f.contains("RecoveryDone")));
        assert!(v.failures.iter().any(|f| f.contains("dirty verdict")));
        assert_eq!(v.sdc_excused, 0, "no verdict came, so nothing excuses it");
    }

    /// A good report with one SDC landing at iteration 10 inside a round
    /// whose checkpoint, at iteration 10, was packed before the flip; the
    /// next round's checkpoint, at iteration 12, holds it. Both clean.
    fn undetected_sdc() -> JobReport {
        let mut r = good();
        let tail = r.events.split_off(1);
        let pack = || EventKind::CheckpointPack {
            bytes: 8,
            chunks: 1,
            chunk_size: 8,
        };
        let verdict = |round, iteration, clean| EventKind::RoundVerdict {
            round,
            iteration,
            clean,
        };
        r.events.extend([
            ev(2, 0.04, EventKind::RoundStart { round: 1 }),
            ev(3, 0.045, pack()),
            ev(
                4,
                0.05,
                EventKind::FaultInjected {
                    kind: "sdc".into(),
                    iteration: 10,
                },
            ),
            ev(5, 0.06, verdict(1, 10, true)),
            ev(6, 0.07, EventKind::RoundStart { round: 2 }),
            ev(7, 0.075, pack()),
            ev(8, 0.08, verdict(2, 12, true)),
        ]);
        r.events.extend(tail);
        r
    }

    fn check_sdc(
        r: &JobReport,
        spans: Option<&JobSpans>,
        masked_at: Option<(u64, u64)>,
    ) -> Verdict {
        let f = finals();
        let masked = move |at, it| Some((at, it)) == masked_at;
        let exp = Expect {
            finals: &f,
            crashes: 0,
            sdcs: 1,
            sdc_iter: 10,
            sdc_masked: &masked,
            check_oracle: true,
        };
        check(r, spans, &exp)
    }

    #[test]
    fn an_undetected_sdc_still_visible_at_the_next_verdict_fails() {
        let r = undetected_sdc();
        let v = check_sdc(&r, Some(&fold(&r.events)), None);
        assert!(v.failed(), "{:?}", v.failures);
        assert!(v.failures[0].contains("iteration 12"), "{:?}", v.failures);
        assert_eq!(v.sdc_excused, 0);
    }

    #[test]
    fn an_undetected_sdc_that_vanished_by_the_next_verdict_is_excused_and_counted() {
        let r = undetected_sdc();
        let v = check_sdc(&r, Some(&fold(&r.events)), Some((10, 12)));
        assert!(!v.failed(), "{:?}", v.failures);
        assert_eq!(v.sdc_excused, 1);
        // The checkpoint packed before the flip does not count as the one
        // that could hold it.
        let v = check_sdc(&r, Some(&fold(&r.events)), Some((10, 10)));
        assert!(v.failed());
    }

    #[test]
    fn without_events_the_verdict_after_an_sdc_comes_from_the_trace() {
        let mut r = undetected_sdc();
        r.events.clear();
        r.sdc_injected_at = vec![0.05];
        r.trace = vec![
            "  0.040000 round 1 verified iter=6".into(),
            "  0.050000 fault sdc landed node=1 at=0.050000 seed=7 bits=1".into(),
            "  0.060000 round 2 verified iter=10".into(),
            "  0.080000 round 3 verified iter=12".into(),
        ];
        let v = check_sdc(&r, None, Some((10, 12)));
        assert!(!v.failed(), "{:?}", v.failures);
        assert_eq!(v.sdc_excused, 1);
        let v = check_sdc(&r, None, None);
        assert!(v.failed(), "{:?}", v.failures);
    }

    #[test]
    fn a_detected_sdc_the_reference_cannot_see_fails_the_oracle_check() {
        let mut r = undetected_sdc();
        let last = r
            .events
            .iter_mut()
            .rev()
            .find(|e| matches!(e.kind, EventKind::RoundVerdict { .. }))
            .expect("a verdict");
        last.kind = EventKind::RoundVerdict {
            round: 2,
            iteration: 12,
            clean: false,
        };
        let v = check_sdc(&r, Some(&fold(&r.events)), None);
        assert!(!v.failed(), "{:?}", v.failures);
        assert_eq!(v.oracle_checks, 1);
        let v = check_sdc(&r, Some(&fold(&r.events)), Some((10, 12)));
        assert!(v.failed() && v.failures[0].contains("reference finds no trace"));
    }
}
