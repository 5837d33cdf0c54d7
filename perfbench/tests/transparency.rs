//! The benchmark must not change what it measures: tracing and the
//! policy-timing wrapper leave every digest unchanged, and round trips
//! through checkpoint text replay the straight run exactly.

use vulcan_perfbench::cell::{Cell, Workload, DEFAULT_SEED};
use vulcan_perfbench::rep;

/// Long enough for all three arrivals (at 50 s and 110 s).
const SHORT: u64 = 120;

fn short(w: Workload, seed: u64, roundtrips_at: &'static [u64]) -> Cell {
    Cell {
        quanta: SHORT,
        roundtrips_at,
        ..w.cell(seed)
    }
}

#[test]
fn tracing_leaves_every_digest_unchanged() {
    for w in Workload::ALL {
        // Round trips (on the workload that takes them) inside the
        // shortened horizon, one of them repeated.
        let trips: &[u64] = match w.cell(DEFAULT_SEED).roundtrips_at {
            [] => &[],
            _ => &[40, 80, 80],
        };
        let cell = short(w, DEFAULT_SEED, trips);
        let plain = rep::run(&cell, false);
        let traced = rep::run(&cell, true);
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert!(plain.spans.is_empty());
        let policy_spans = traced.spans.iter().filter(|s| s.name == "policy").count();
        assert_eq!(policy_spans as u64, SHORT, "{}", w.name());
        for r in [&plain, &traced] {
            assert!(r.leaks.is_empty(), "{}: {:?}", w.name(), r.leaks);
            assert!(
                r.roundtrip_errors.is_empty(),
                "{}: {:?}",
                w.name(),
                r.roundtrip_errors
            );
        }
    }
}

#[test]
fn ckpt_3tier_round_trips_replay_the_straight_run() {
    // The recorded digest was taken with the workload's own round trips;
    // the straight run must produce it too.
    let straight = Cell {
        roundtrips_at: &[],
        ..Workload::Ckpt3Tier.cell(DEFAULT_SEED)
    };
    assert_eq!(
        rep::run(&straight, false).digest,
        Workload::Ckpt3Tier.recorded_digest()
    );

    // A denser schedule on a held-out seed, compared directly.
    let tripped = rep::run(&short(Workload::Ckpt3Tier, 7, &[30, 60, 90]), false);
    let straight = rep::run(&short(Workload::Ckpt3Tier, 7, &[]), false);
    assert_eq!(tripped.roundtrips.len(), 3);
    assert!(tripped.roundtrip_errors.is_empty());
    assert_eq!(tripped.digest, straight.digest);
}

#[test]
fn the_seed_reaches_the_simulation() {
    let run = |seed| rep::run(&short(Workload::ColoVulcan, seed, &[]), false).digest;
    assert_ne!(run(DEFAULT_SEED), run(DEFAULT_SEED + 1));
}
