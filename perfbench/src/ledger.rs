//! Failure accounting. Each run is one operation, failed by a panic, a
//! digest mismatch or a teardown leak; each checkpoint round trip is one
//! more, failed by a `CheckpointError`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rep::Rep;

/// What a repetition was for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Timed, tracing off: the end-to-end metrics.
    Untraced,
    /// Timed with spans: the per-layer metrics.
    Traced,
    /// Untimed: the checkpoint round trips of a workload whose timed
    /// cell takes none, on a shorter cell.
    Probe,
}

/// One repetition's fate: its measurements, or the message it panicked with.
pub struct Attempt {
    /// What it was for.
    pub kind: Kind,
    /// The run, or its panic message.
    pub rep: Result<Rep, String>,
}

/// Run `f` as one repetition, turning a panic into a failed attempt.
pub fn attempt(kind: Kind, f: impl FnOnce() -> Rep) -> Attempt {
    let rep = catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    });
    Attempt { kind, rep }
}

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Runs plus round trips attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Why.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Account every attempt. Each timed run's digest must equal `expected`
/// when given (the recorded digest), else the first completed timed
/// run's. Probe runs are a shorter cell: each must equal the first
/// completed probe's, which the caller runs straight.
pub fn audit(attempts: &[Attempt], expected: Option<u64>) -> Ledger {
    let mut ledger = Ledger::default();
    let mut expected = expected;
    let mut expected_probe = None;
    for (i, a) in attempts.iter().enumerate() {
        ledger.attempted += 1;
        let rep = match &a.rep {
            Ok(rep) => rep,
            Err(panic) => {
                ledger.failed += 1;
                ledger.errors.push(format!("run {i} panicked: {panic}"));
                continue;
            }
        };
        ledger.attempted += (rep.roundtrips.len() + rep.roundtrip_errors.len()) as u64;
        ledger.failed += rep.roundtrip_errors.len() as u64;
        let want = match a.kind {
            Kind::Probe => &mut expected_probe,
            Kind::Untraced | Kind::Traced => &mut expected,
        };
        let want = *want.get_or_insert(rep.digest);
        if rep.digest != want || !rep.leaks.is_empty() {
            ledger.failed += 1;
        }
        if rep.digest != want {
            ledger.errors.push(format!(
                "run {i} ({:?}): digest {:016x}, expected {want:016x}",
                a.kind, rep.digest
            ));
        }
        let lines = rep.roundtrip_errors.iter().chain(&rep.leaks);
        ledger.errors.extend(lines.map(|e| format!("run {i}: {e}")));
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::{Rep, RoundTrip, SimStats};
    use std::time::Duration;

    fn rep(digest: u64) -> Rep {
        Rep {
            digest,
            wall: Duration::from_millis(1),
            build: Duration::ZERO,
            quanta: Vec::new(),
            roundtrips: Vec::new(),
            roundtrip_errors: Vec::new(),
            leaks: Vec::new(),
            sim: SimStats::default(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn clean_runs_fail_nothing_but_keep_their_base() {
        let mut with_trip = rep(7);
        with_trip.roundtrips.push(RoundTrip {
            quantum: 1,
            time: Duration::ZERO,
            bytes: 1,
        });
        let attempts = [
            attempt(Kind::Untraced, || rep(7)),
            attempt(Kind::Probe, || with_trip),
        ];
        let l = audit(&attempts, Some(7));
        assert_eq!((l.attempted, l.failed), (3, 0));
        assert_eq!(l.failed_share(), 0.0);
    }

    #[test]
    fn panics_mismatches_leaks_and_bad_round_trips_each_count() {
        let mut leaky = rep(7);
        leaky.leaks.push("3 frames leaked".into());
        let mut bad_trip = rep(7);
        bad_trip
            .roundtrip_errors
            .push("not a vulcan checkpoint".into());
        let attempts = [
            attempt(Kind::Untraced, || rep(7)),
            attempt(Kind::Traced, || panic!("boom")),
            attempt(Kind::Untraced, || rep(8)),
            attempt(Kind::Untraced, || leaky),
            attempt(Kind::Untraced, || bad_trip),
        ];
        // No recorded digest: the first completed run sets the expectation.
        let l = audit(&attempts, None);
        assert_eq!((l.attempted, l.failed), (6, 4));
        assert!(l.errors.iter().any(|e| e.contains("boom")));
        assert!(l
            .errors
            .iter()
            .any(|e| e.contains("digest 0000000000000008")));
        // A recorded digest overrides the first run's.
        assert_eq!(audit(&attempts[..1], Some(9)).failed, 1);
    }

    #[test]
    fn probes_are_checked_against_the_first_probe_only() {
        let attempts = [
            attempt(Kind::Probe, || rep(3)),
            attempt(Kind::Untraced, || rep(7)),
            attempt(Kind::Probe, || rep(3)),
            attempt(Kind::Probe, || rep(4)),
        ];
        let l = audit(&attempts, Some(7));
        assert_eq!((l.attempted, l.failed), (4, 1));
        assert!(l.errors[0].starts_with("run 3 (Probe)"));
    }
}
