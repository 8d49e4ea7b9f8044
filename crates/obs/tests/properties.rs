//! Property tests for the observability primitives: counters only ever go
//! up, and the record buffer never exceeds its bound — even under
//! concurrent writers.

use std::sync::Arc;
use std::thread;

use obs::Registry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Interleaved increments from several threads never make a counter
    /// read go backwards, and the final value is exactly the sum of all
    /// increments (no lost updates).
    #[test]
    fn prop_counters_are_monotonic_under_concurrency(
        per_thread in proptest::collection::vec(1u64..200, 2..6)
    ) {
        let reg = Arc::new(Registry::new());
        let expected: u64 = per_thread.iter().sum();
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|n| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let c = reg.counter("p", "test", "shared");
                    let mut last = c.get();
                    for _ in 0..n {
                        c.inc();
                        let now = c.get();
                        // Monotonic: a read after an increment is strictly
                        // greater than the read before it.
                        assert!(now > last, "counter went backwards: {last} -> {now}");
                        last = now;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(reg.counter_value("p", "test", "shared"), expected);
    }

    /// However many threads interleave spans and instants, the one record
    /// buffer holds at most `capacity` records, drop accounting is exact
    /// for both kinds, instants come back in strictly increasing clock
    /// order, and `spans_snapshot` holds no instant.
    #[test]
    fn prop_record_buffer_respects_bound(
        capacity in 1usize..64,
        // Per thread, per step: 0 = bare instant, 1 = span enclosing an
        // instant, 2 = bare span.
        per_thread in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..60), 1..5)
    ) {
        let reg = Arc::new(Registry::with_capacity(capacity));
        let total: u64 = per_thread.iter().flatten().map(|&k| if k == 1 { 2 } else { 1 }).sum();
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .enumerate()
            .map(|(t, steps)| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let process = format!("writer{t}");
                    for (i, kind) in steps.into_iter().enumerate() {
                        let i = i as u64;
                        let span = (kind != 0).then(|| reg.span(&process, "work", &i.to_string()));
                        let guard = span.as_ref().map(|s| s.enter());
                        if kind != 2 {
                            reg.event(&process, "tick", vec![("i".into(), i.into())]);
                        }
                        drop(guard);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = reg.spans_snapshot();
        let instants = reg.events_named("tick");
        let kept = (spans.len() + instants.len()) as u64;
        prop_assert!(kept <= capacity as u64);
        prop_assert_eq!(kept + reg.spans_dropped() + reg.events_dropped(), total);
        prop_assert!(spans.iter().all(|s| !s.instant));
        prop_assert!(instants.iter().all(|e| e.instant && e.start_clock == e.end_clock));
        prop_assert!(instants.windows(2).all(|w| w[0].start_clock < w[1].start_clock));
    }
}
