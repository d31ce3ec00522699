//! The solve pool: independent policy solves spread over the machine's
//! cores.
//!
//! A policy set solves one MDP per design load and a policy library one
//! set per regime; the solves share nothing but their read-only inputs.
//! [`solve_all`] runs them on scoped threads that pull the next input
//! index from a shared counter, so a slow solve never holds up a queue
//! of fast ones behind it. Results land in slots by input index, which
//! makes the output independent of the thread count and of the order
//! solves finish in.
//!
//! The pool has no knob. Its width is `available_parallelism()` capped
//! at the number of inputs, so a single input (a lazy re-solve, or a
//! library key's one-load set inside a pooled library) runs inline on
//! the calling thread, and nested use never oversubscribes.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

/// Applies `solve` to every input, in parallel, and returns the outputs
/// in input order.
///
/// Errors behave as in a sequential loop: the error returned is the one
/// of the first failing input in input order. Once a solve fails,
/// workers stop claiming new inputs; every input before the failing one
/// was claimed earlier and still finishes, so no earlier error is
/// missed. A panicking solve panics the caller with the same payload.
///
/// # Errors
///
/// The first error in input order.
pub(crate) fn solve_all<T, R, E>(
    inputs: &[T],
    solve: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
{
    solve_on(threads_for(inputs.len()), inputs, solve)
}

/// The pool width for `items` inputs.
fn threads_for(items: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED_THREADS.with(std::cell::Cell::get) {
        return forced.min(items).max(1);
    }
    thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items)
        .max(1)
}

fn solve_on<T, R, E>(
    threads: usize,
    inputs: &[T],
    solve: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
{
    if threads <= 1 {
        return inputs.iter().map(solve).collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(input) = inputs.get(i) else {
                break;
            };
            let result = solve(input);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    let mut slots: Vec<Option<Result<R, E>>> = inputs.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });
    // Inputs are claimed in index order, so every slot before the first
    // failure is filled, and collecting stops at that failure.
    slots
        .into_iter()
        .map(|slot| slot.expect("inputs before the first failure were all solved"))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Overrides the pool width for calls made on this thread.
        pub(crate) static FORCED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every pool started from this thread `threads` wide.
    pub(crate) fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let previous = FORCED_THREADS.with(|c| c.replace(Some(threads)));
        let out = f();
        FORCED_THREADS.with(|c| c.set(previous));
        out
    }

    #[test]
    fn outputs_follow_input_order_at_any_width() {
        let inputs: Vec<u64> = (0..37).collect();
        let square = |&x: &u64| -> Result<u64, ()> { Ok(x * x) };
        let expected: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 64] {
            assert_eq!(solve_on(threads, &inputs, square), Ok(expected.clone()));
        }
    }

    #[test]
    fn the_first_error_in_input_order_wins() {
        let inputs: Vec<u32> = (0..50).collect();
        // Every input from 7 on fails; later ones may fail first in
        // wall-clock time, but input 7's error is the one reported.
        let solve = |&x: &u32| if x >= 7 { Err(x) } else { Ok(x) };
        for threads in [1, 2, 4, 8] {
            assert_eq!(solve_on(threads, &inputs, solve), Err(7));
        }
    }

    #[test]
    fn one_input_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ran_on = solve_all(&[()], |_| Ok::<_, ()>(thread::current().id())).unwrap();
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn no_inputs_yield_no_outputs() {
        assert_eq!(solve_all(&[] as &[u8], |_| Ok::<u8, ()>(0)), Ok(vec![]));
    }

    #[test]
    #[should_panic(expected = "solve blew up")]
    fn a_panicking_solve_panics_the_caller() {
        let _ = solve_on(3, &[1, 2, 3, 4], |&x: &i32| -> Result<i32, ()> {
            assert!(x != 3, "solve blew up");
            Ok(x)
        });
    }
}
