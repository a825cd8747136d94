//! The indexed work queue the stack's fan-out loops share: certificate
//! obligations (`hh-proof`), example pairs and differential tests
//! (`veloct`). It lives here because the one thing every scoped worker pool
//! owes this crate — [`flush`](crate::flush) before the scope joins — is
//! easy to forget once per copy.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `step` on every index in `0..n` on up to `workers` threads (never
/// more than `n`; the caller is one of them) and returns the results in
/// index order. Workers pull indices from a shared cursor; each builds one
/// `state` for itself — a simulator, a solver context, `()` — and hands it
/// to every step it runs.
///
/// The outcome does not depend on the interleaving. Indices are handed out
/// in ascending order and a failure only stops indices *above* it from
/// starting, so every index below the lowest failing one has run to
/// completion, and that lowest failure is the error reported — the same one
/// a single worker walking the list in order stops at.
///
/// Spawned workers [`flush`](crate::flush) their trace rings before the
/// scope joins; a panicking step is resumed on the caller.
pub fn run_indexed<S, T, E>(
    n: usize,
    workers: usize,
    state: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    // Both atomics only ration work — results travel through `join` — so
    // relaxed ordering is enough: a stale `failed` costs a wasted step,
    // never a wrong answer.
    let cursor = AtomicUsize::new(0);
    let failed = AtomicUsize::new(usize::MAX);
    let worker = || {
        let mut state = state();
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n || i > failed.load(Ordering::Relaxed) {
                return done;
            }
            let result = step(&mut state, i);
            if result.is_err() {
                failed.fetch_min(i, Ordering::Relaxed);
            }
            done.push((i, result));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let done = worker();
                    // The scope join does not wait for thread-local
                    // destructors; hand the trace ring over before it.
                    crate::flush();
                    done
                })
            })
            .collect();
        let mut done = worker();
        for handle in spawned {
            match handle.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::run_indexed;
    use std::sync::mpsc;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        for workers in [0, 1, 2, 3, 8, 100] {
            let out = run_indexed(37, workers, || (), |(), i| Ok::<_, ()>(i * i)).unwrap();
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        let none = run_indexed(0, 4, || (), |(), i| Ok::<_, ()>(i)).unwrap();
        assert_eq!(none, Vec::<usize>::new());
    }

    #[test]
    fn each_worker_builds_one_state_and_keeps_it() {
        for workers in [1, 2, 4] {
            let built = Mutex::new(0usize);
            let steps = run_indexed(
                64,
                workers,
                || {
                    *built.lock().unwrap() += 1;
                    0usize
                },
                |mine, _| {
                    *mine += 1;
                    Ok::<_, ()>(*mine)
                },
            )
            .unwrap();
            let built = *built.lock().unwrap();
            assert!((1..=workers).contains(&built), "{built} states");
            // A worker's k-th step saw its own counter at k, so each worker
            // that ran anything reported exactly one `1`.
            let ones = steps.iter().filter(|&&k| k == 1).count();
            assert!((1..=built).contains(&ones), "{ones} first steps");
            assert_eq!(steps.len(), 64);
        }
    }

    #[test]
    fn the_lowest_failing_index_is_reported_whatever_the_interleaving() {
        // Index 3 fails *last*: it blocks until index 41 has failed on
        // another worker. The answer must still be 3.
        for workers in [2, 4] {
            let (tx, rx) = mpsc::channel::<()>();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let result = run_indexed(
                58,
                workers,
                || (),
                |(), i| match i {
                    3 => {
                        rx.lock().unwrap().recv().unwrap();
                        Err(3)
                    }
                    41 => {
                        tx.lock().unwrap().send(()).unwrap();
                        Err(41)
                    }
                    _ => Ok(i),
                },
            );
            assert_eq!(result, Err(3), "workers={workers}");
        }
        // One worker walks the list in order and stops at the first failure.
        let seen = Mutex::new(Vec::new());
        let result = run_indexed(
            58,
            1,
            || (),
            |(), i| {
                seen.lock().unwrap().push(i);
                if i == 3 || i == 41 {
                    Err(i)
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result, Err(3));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }
}
