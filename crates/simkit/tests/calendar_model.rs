//! Model-based property test: the slab/binary-heap calendar must agree with
//! a naive reference implementation under arbitrary interleavings of
//! schedule / cancel / pop / peek — including cancels aimed at handles that
//! already fired or were already cancelled (stale-handle no-ops).
//!
//! Two fixed tapes complement the random one: a deep run that holds more
//! than 2 000 live events (deeper than the ≈1 000 a 10³-tenant run keeps),
//! so every heap level sees pops and sift-ups, and a run at and near
//! `SimTime::MAX`, where the packed `(at, seq)` key's high bits are all set
//! and equal-time ties must still pop FIFO.

use proptest::prelude::*;
use simkit::time::{Duration, SimTime};
use simkit::Calendar;

/// The reference: a flat list scanned for the minimum `(at, seq)` live
/// entry. Obviously correct, obviously slow.
#[derive(Default)]
struct ModelCalendar {
    /// `(at, seq, cancelled, fired)` per scheduled event.
    events: Vec<(SimTime, u64, bool, bool)>,
    now: SimTime,
}

impl ModelCalendar {
    fn schedule(&mut self, at: SimTime) -> usize {
        let seq = self.events.len() as u64;
        self.events.push((at, seq, false, false));
        self.events.len() - 1
    }

    fn cancel(&mut self, idx: usize) {
        let e = &mut self.events[idx];
        if !e.2 && !e.3 {
            e.2 = true;
        }
    }

    fn next_live(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.2 && !e.3)
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let i = self.next_live()?;
        self.events[i].3 = true;
        self.now = self.events[i].0;
        Some((self.events[i].0, self.events[i].1))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.next_live().map(|i| self.events[i].0)
    }

    fn len(&self) -> usize {
        self.events.iter().filter(|e| !e.2 && !e.3).count()
    }
}

/// Regression for the front-buffer fast path: cancelling the minimum and
/// then scheduling into its freed slot must surface the new occupant — the
/// stale front entry must neither shadow it in `peek_time` nor let the old
/// handle cancel it.
#[test]
fn cancel_min_then_reuse_slot_keeps_peek_fresh() {
    let mut cal: Calendar<&str> = Calendar::new();
    let h_min = cal.schedule(SimTime(10), "min");
    cal.schedule(SimTime(50), "later");
    cal.cancel(h_min);
    // The peek drops the cancelled minimum and frees its slot.
    assert_eq!(cal.peek_time(), Some(SimTime(50)));
    assert_eq!(cal.len(), 1);
    // This reuses the freed slot and becomes the new minimum.
    let h_new = cal.schedule(SimTime(20), "reused");
    assert_eq!(cal.peek_time(), Some(SimTime(20)));
    // The stale handle aliases the slot but not the generation: a cancel
    // through it must not touch the new occupant.
    cal.cancel(h_min);
    assert_eq!(cal.len(), 2);
    assert_eq!(cal.peek_time(), Some(SimTime(20)));
    assert_eq!(cal.pop(), Some((SimTime(20), "reused")));
    assert_eq!(cal.pop(), Some((SimTime(50), "later")));
    assert_eq!(cal.pop(), None);
    // And the fresh handle is stale now too.
    cal.cancel(h_new);
    assert_eq!(cal.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive both calendars with the same random operation tape and compare
    /// every observable: pop order and times, peeks, lengths, clock.
    #[test]
    fn calendar_agrees_with_reference_model(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000), 0..400),
    ) {
        let mut cal: Calendar<u64> = Calendar::new();
        let mut model = ModelCalendar::default();
        // Handles of every event ever scheduled, fired or not — cancels are
        // aimed at arbitrary entries so stale handles get exercised.
        let mut handles = Vec::new();
        for (op, arg) in ops {
            match op {
                // Schedule (biased: half the tape), with frequent ties to
                // stress FIFO ordering.
                0..=3 => {
                    let at = model.now + Duration(arg % 40);
                    let h = cal.schedule(at, model.events.len() as u64);
                    let idx = model.schedule(at);
                    handles.push((h, idx));
                }
                4 | 5 => {
                    // Cancel an arbitrary (possibly stale) handle.
                    if !handles.is_empty() {
                        let (h, idx) = handles[arg as usize % handles.len()];
                        cal.cancel(h);
                        model.cancel(idx);
                    }
                }
                6 => {
                    let got = cal.pop();
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(cal.now(), model.now);
                }
                _ => {
                    prop_assert_eq!(cal.peek_time(), model.peek_time());
                }
            }
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(cal.is_empty(), model.len() == 0);
        }
        // Drain: the full remaining sequence must match exactly.
        loop {
            let got = cal.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}

/// Deterministic op tape: `(op, arg)` pairs from a 64-bit LCG, `op` in
/// `0..10` (schedule, cancel, pop and peek bands chosen by the caller).
fn tape(seed: u64, len: usize) -> Vec<(u8, u64)> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((x >> 33) % 10) as u8, x >> 11)
        })
        .collect()
}

/// Replay `ops` against the calendar and the reference model, comparing
/// every observable after every op, then drain both. Ops `0..=3`
/// schedule at `at(now, arg)` (which must not precede `now`), `4` cancels
/// an arbitrary (possibly stale) handle, `5..=8` pop and `9` peeks.
/// Returns the largest number of live events seen.
fn replay_against_model(
    ops: &[(u8, u64)],
    at: impl Fn(SimTime, u64) -> SimTime,
) -> usize {
    let mut cal: Calendar<u64> = Calendar::new();
    let mut model = ModelCalendar::default();
    let mut handles = Vec::new();
    let mut deepest = 0;
    for &(op, arg) in ops {
        match op {
            0..=3 => {
                let t = at(model.now, arg);
                let h = cal.schedule(t, model.events.len() as u64);
                handles.push((h, model.schedule(t)));
            }
            4 => {
                let (h, idx) = handles[arg as usize % handles.len()];
                cal.cancel(h);
                model.cancel(idx);
            }
            5..=8 => {
                assert_eq!(cal.pop(), model.pop());
                assert_eq!(cal.now(), model.now);
            }
            _ => assert_eq!(cal.peek_time(), model.peek_time()),
        }
        let live = model.len();
        assert_eq!(cal.len(), live);
        deepest = deepest.max(live);
    }
    loop {
        let got = cal.pop();
        assert_eq!(got, model.pop());
        if got.is_none() {
            return deepest;
        }
    }
}

/// Fill the calendar past 2 000 live events, then run a balanced
/// schedule/pop mix (with cancels and peeks) at that depth.
#[test]
fn deep_calendar_agrees_with_reference_model() {
    let mut ops = vec![(0u8, 0u64); 2_400];
    for (i, op) in ops.iter_mut().enumerate() {
        op.1 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    }
    // Ops 0..=3 and 5..=8 are equally likely, so the depth random-walks
    // around the fill level.
    ops.extend(tape(0xC0FF_EE00, 6_000));
    let deepest = replay_against_model(&ops, |now, arg| now + Duration(arg % 5_000));
    assert!(deepest >= 2_000, "run reached only {deepest} live events");
}

/// Timestamps at and just below `SimTime::MAX`, plus a far-apart band at
/// `2^63`, with many exact ties. Once the clock reaches `MAX` every later
/// event ties there, so the tail of the run is pure FIFO.
#[test]
fn timestamps_near_max_agree_with_reference_model() {
    let near_max = |now: SimTime, arg: u64| {
        let t = match arg % 4 {
            0 => SimTime::MAX,
            1 => SimTime(u64::MAX - arg % 3),
            2 => SimTime((1 << 63) + arg % 2),
            _ => SimTime(u64::MAX - (1 << 32) - arg % 5),
        };
        t.max(now)
    };
    let mut ops = vec![(0u8, 0u64); 300];
    for (i, op) in ops.iter_mut().enumerate() {
        op.1 = i as u64 * 7;
    }
    ops.extend(tape(0x5EED_00FF, 3_000));
    replay_against_model(&ops, near_max);
}
