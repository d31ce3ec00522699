//! Property tests for the resilience primitives: the retry token
//! bucket never exceeds its configured rate, and CoDel admission never
//! lets a queue past its cap — over randomized arrival patterns.

use proptest::prelude::*;

use ramsis_sim::resilience::{
    backoff_delay_s, AdmissionPolicy, AdmissionVerdict, CoDelAdmission, RetryBudget, RetryPolicy,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any monotone sequence of take attempts, grants never exceed
    /// `burst + rate · elapsed` (the bucket can't mint tokens), and the
    /// token count stays within [0, burst].
    #[test]
    fn retry_budget_never_exceeds_its_rate(
        rate in 0.1f64..50.0,
        burst in 1.0f64..20.0,
        gaps in proptest::collection::vec(0.0f64..0.5, 1..200),
    ) {
        let mut budget = RetryBudget::new(rate, burst);
        let mut now = 0.0f64;
        let mut granted = 0u64;
        for gap in &gaps {
            now += gap;
            if budget.try_take(now) {
                granted += 1;
            }
            prop_assert!(budget.tokens() >= 0.0);
            prop_assert!(budget.tokens() <= burst + 1e-9);
        }
        // Initial burst plus everything refilled over the horizon, with
        // float slack for the accumulated refill arithmetic.
        let ceiling = burst + rate * now + 1e-6;
        prop_assert!(
            (granted as f64) <= ceiling.ceil(),
            "granted {} retries but the bucket only held {:.3}",
            granted,
            ceiling
        );
    }

    /// The budget is a pure function of the attempt sequence: replaying
    /// the same times yields the same grants.
    #[test]
    fn retry_budget_is_deterministic(
        rate in 0.1f64..50.0,
        burst in 1.0f64..20.0,
        gaps in proptest::collection::vec(0.0f64..0.5, 1..100),
    ) {
        let run = || {
            let mut budget = RetryBudget::new(rate, burst);
            let mut now = 0.0f64;
            gaps.iter()
                .map(|gap| {
                    now += gap;
                    budget.try_take(now)
                })
                .collect::<Vec<bool>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Simulating a queue that drains slower than it fills: admission
    /// never lets the depth past the cap, and an emptied queue resets
    /// the sojourn clock (the next arrival is always admitted).
    #[test]
    fn codel_admission_bounds_the_queue(
        cap in 1usize..32,
        arrivals in proptest::collection::vec(0u64..50_000_000, 1..300),
        drain_every in 2usize..8,
    ) {
        let policy = AdmissionPolicy {
            queue_cap: cap,
            target_sojourn_s: 0.01,
            interval_s: 0.05,
        };
        let mut adm = CoDelAdmission::default();
        // The queue holds enqueue timestamps; the head is the oldest.
        let mut queue: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut now = 0u64;
        for (i, gap) in arrivals.iter().enumerate() {
            now += gap;
            if i % drain_every == 0 {
                queue.pop_front();
            }
            let verdict = adm.offer(&policy, now, queue.len(), queue.front().copied());
            if queue.is_empty() {
                prop_assert_eq!(verdict, None, "empty queue must always admit");
            }
            if verdict.is_none() {
                queue.push_back(now);
            }
            prop_assert!(
                queue.len() <= cap,
                "admission let the queue reach {} past cap {}",
                queue.len(),
                cap
            );
        }
        // A full drain resets the control loop.
        queue.clear();
        prop_assert_eq!(adm.offer(&policy, now + 1, 0, None), None);
    }

    /// At the hard cap the verdict is `QueueFull` regardless of
    /// sojourn history.
    #[test]
    fn codel_full_queue_is_always_refused(
        cap in 1usize..64,
        now in 0u64..1_000_000_000,
    ) {
        let policy = AdmissionPolicy {
            queue_cap: cap,
            ..AdmissionPolicy::default()
        };
        let mut adm = CoDelAdmission::default();
        prop_assert_eq!(
            adm.offer(&policy, now, cap, Some(now.saturating_sub(1))),
            Some(AdmissionVerdict::QueueFull)
        );
    }

    /// Backoff delays are deterministic per (query, attempt), bounded
    /// by the cap, and never negative.
    #[test]
    fn backoff_is_deterministic_and_bounded(
        query in 0u64..u64::MAX,
        attempt in 1u32..12,
        base in 0.001f64..0.1,
        cap in 0.1f64..2.0,
    ) {
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_base_s: base,
            backoff_cap_s: cap,
            ..RetryPolicy::default()
        };
        let d1 = backoff_delay_s(&policy, attempt, query);
        let d2 = backoff_delay_s(&policy, attempt, query);
        prop_assert_eq!(d1, d2, "same (query, attempt) must give the same delay");
        prop_assert!(d1 >= 0.0);
        prop_assert!(d1 <= cap + 1e-12, "delay {} exceeds cap {}", d1, cap);
    }
}
