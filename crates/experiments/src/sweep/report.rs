//! Structured sweep results: per-member attempt histories plus typed
//! reducers.
//!
//! Unlike a bare list of `RunOutcome`s, a [`SweepReport`] never lets a non-`Ok` member vanish silently: every
//! reducer reports `(ok, failed, timed_out, retried)` counts, and
//! [`SweepReport::stat`] refuses — with a typed [`SweepError`], not a
//! panic and not a quietly-narrowed sample — to synthesize a statistic
//! from fewer than two completed members.

use super::SweepError;
use crate::runner::Stat;
use nomc_units::Seconds;

/// The scalar summary a sweep records per completed member.
///
/// Kept deliberately small — a journal line must be cheap to write
/// after every member — and exactly round-trippable: every field
/// serializes through the in-tree codec's shortest-exact forms, which
/// is what makes a resumed report byte-identical to an uninterrupted
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberMetrics {
    /// Network-wide delivered throughput, packets per second.
    pub throughput: f64,
    /// Aggregate packet reception ratio, when any frame was sent.
    pub prr: Option<f64>,
    /// Events the engine dispatched for this member.
    pub events: u64,
    /// Measured window length (duration − warmup).
    pub measured_secs: Seconds,
}

nomc_json::json_struct!(MemberMetrics {
    throughput: f64,
    prr: Option<f64>,
    events: u64,
    measured_secs: Seconds,
});

impl MemberMetrics {
    /// Extracts the recorded metrics from a completed simulation.
    pub fn of(result: &nomc_sim::SimResult) -> Self {
        MemberMetrics {
            throughput: result.total_throughput(),
            prr: result.total_prr(),
            events: result.events,
            measured_secs: Seconds::new(result.measured.as_secs_f64()),
        }
    }
}

/// How one attempt at one member ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The simulation drained naturally inside the attempt's budget.
    Ok(MemberMetrics),
    /// The simulation panicked; the payload is the panic message.
    Failed(String),
    /// The event budget expired first; `events` were handled.
    TimedOut {
        /// Events handled before the budget cut in.
        events: u64,
    },
}

nomc_json::json_enum!(AttemptOutcome {
    Ok(m) = "Ok",
    Failed(msg) = "Failed",
    TimedOut { events } = "TimedOut",
});

/// One attempt: the deterministic event budget it ran under and how it
/// ended.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Event budget of this attempt (escalates across retries).
    pub budget: u64,
    /// The attempt's outcome.
    pub outcome: AttemptOutcome,
}

nomc_json::json_struct!(AttemptRecord {
    budget: u64,
    outcome: AttemptOutcome,
});

/// The full history of one sweep member: its slot, its content hash,
/// and every attempt in order. This is exactly what a journal line
/// stores, so a resumed member reconstructs its report verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberReport {
    /// Member slot (index into the sweep's scenario list).
    pub member: usize,
    /// Content hash of (serialized scenario, seed, base budget).
    pub hash: u64,
    /// Attempt history, oldest first; never empty once concluded.
    pub attempts: Vec<AttemptRecord>,
}

nomc_json::json_struct!(MemberReport {
    member: usize,
    hash: u64,
    attempts: Vec<AttemptRecord>,
});

impl MemberReport {
    /// The concluding attempt's outcome, if any attempt was made.
    pub fn final_outcome(&self) -> Option<&AttemptOutcome> {
        self.attempts.last().map(|a| &a.outcome)
    }

    /// The completed metrics, when the member eventually succeeded.
    pub fn metrics(&self) -> Option<&MemberMetrics> {
        match self.final_outcome() {
            Some(AttemptOutcome::Ok(m)) => Some(m),
            _ => None,
        }
    }

    /// Whether the member needed more than one attempt.
    pub fn was_retried(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// How the members of a sweep ended, in aggregate. Every member is
/// counted exactly once, by its *final* outcome; `retried` counts
/// members whose history holds more than one attempt, whatever the
/// eventual result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Members whose final attempt completed.
    pub ok: usize,
    /// Members whose final attempt panicked.
    pub failed: usize,
    /// Members whose final attempt exhausted its event budget.
    pub timed_out: usize,
    /// Members that took more than one attempt (any final outcome).
    pub retried: usize,
}

nomc_json::json_struct!(OutcomeCounts {
    ok: usize,
    failed: usize,
    timed_out: usize,
    retried: usize,
});

/// The result of a whole sweep: the sweep-level content hash plus one
/// concluded [`MemberReport`] per member, in slot order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Hash over the ordered member hashes (the journal-header key).
    pub sweep_hash: u64,
    /// Per-member histories, in slot order.
    pub members: Vec<MemberReport>,
}

nomc_json::json_struct!(SweepReport {
    sweep_hash: u64,
    members: Vec<MemberReport>,
});

impl SweepReport {
    /// Tallies every member's final outcome.
    pub fn counts(&self) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for m in &self.members {
            match m.final_outcome() {
                Some(AttemptOutcome::Ok(_)) => c.ok += 1,
                Some(AttemptOutcome::Failed(_)) => c.failed += 1,
                Some(AttemptOutcome::TimedOut { .. }) => c.timed_out += 1,
                // A concluded sweep never holds an attempt-less member;
                // count a malformed one as failed rather than hiding it.
                None => c.failed += 1,
            }
        }
        c.retried = self.members.iter().filter(|m| m.was_retried()).count();
        c
    }

    /// Reduces the completed members to a [`Stat`] of `metric`.
    ///
    /// # Errors
    ///
    /// [`SweepError::TooFewSamples`] when fewer than two members
    /// completed — a mean/σ over zero or one survivors would silently
    /// misrepresent a mostly-failed sweep.
    pub fn stat<F>(&self, metric: F) -> Result<Stat, SweepError>
    where
        F: Fn(&MemberMetrics) -> f64,
    {
        let values: Vec<f64> = self
            .members
            .iter()
            .filter_map(|m| m.metrics())
            .map(&metric)
            .collect();
        if values.len() < 2 {
            return Err(SweepError::TooFewSamples {
                completed: values.len(),
                members: self.members.len(),
            });
        }
        Ok(Stat::of(&values))
    }

    /// [`SweepReport::stat`] over delivered throughput.
    pub fn throughput_stat(&self) -> Result<Stat, SweepError> {
        self.stat(|m| m.throughput)
    }

    /// Serializes the report to pretty JSON (the `--report` payload;
    /// byte-stable across resume and thread count).
    pub fn to_json_string(&self) -> String {
        nomc_json::ToJson::to_json(self).dump_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_member(member: usize, throughput: f64, attempts_before: usize) -> MemberReport {
        let mut attempts: Vec<AttemptRecord> = (0..attempts_before)
            .map(|i| AttemptRecord {
                budget: 1000 << i,
                outcome: AttemptOutcome::TimedOut { events: 1000 << i },
            })
            .collect();
        attempts.push(AttemptRecord {
            budget: 1000 << attempts_before,
            outcome: AttemptOutcome::Ok(MemberMetrics {
                throughput,
                prr: Some(0.9),
                events: 4242,
                measured_secs: Seconds::new(15.0),
            }),
        });
        MemberReport {
            member,
            hash: 0xdead_beef,
            attempts,
        }
    }

    fn failed_member(member: usize) -> MemberReport {
        MemberReport {
            member,
            hash: 1,
            attempts: vec![AttemptRecord {
                budget: 1000,
                outcome: AttemptOutcome::Failed("boom".into()),
            }],
        }
    }

    #[test]
    fn counts_cover_every_final_outcome_and_retries() {
        let report = SweepReport {
            sweep_hash: 7,
            members: vec![
                ok_member(0, 100.0, 0),
                ok_member(1, 110.0, 2),
                failed_member(2),
                MemberReport {
                    member: 3,
                    hash: 2,
                    attempts: vec![AttemptRecord {
                        budget: 500,
                        outcome: AttemptOutcome::TimedOut { events: 500 },
                    }],
                },
            ],
        };
        assert_eq!(
            report.counts(),
            OutcomeCounts {
                ok: 2,
                failed: 1,
                timed_out: 1,
                retried: 1,
            }
        );
        let stat = report.throughput_stat().expect("two completed members");
        assert!((stat.mean - 105.0).abs() < 1e-12);
    }

    #[test]
    fn stat_refuses_fewer_than_two_completions() {
        let report = SweepReport {
            sweep_hash: 7,
            members: vec![ok_member(0, 100.0, 0), failed_member(1)],
        };
        let err = report.throughput_stat().expect_err("one survivor");
        assert_eq!(
            err,
            SweepError::TooFewSamples {
                completed: 1,
                members: 2,
            }
        );
        assert!(err.to_string().contains("1 of 2"), "{err}");
    }

    #[test]
    fn member_report_round_trips_through_json() {
        for m in [ok_member(3, 123.456789, 1), failed_member(9)] {
            let text = nomc_json::to_string(&m);
            let back: MemberReport = nomc_json::from_str(&text).expect("parses");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn attempt_outcome_json_shapes() {
        let t = AttemptOutcome::TimedOut { events: 12 };
        assert_eq!(nomc_json::to_string(&t), r#"{"TimedOut":{"events":12}}"#);
        let back: AttemptOutcome = nomc_json::from_str(r#"{"Failed":"x"}"#).expect("parses");
        assert_eq!(back, AttemptOutcome::Failed("x".into()));
        assert!(nomc_json::from_str::<AttemptOutcome>(r#"{"Nope":1}"#).is_err());
    }
}
