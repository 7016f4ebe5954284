//! A bounded worker pool for independent, index-addressed tasks.
//!
//! The experiment engine runs the sweep configurations its store cannot
//! replay concurrently (hits are replayed on the calling thread). On a
//! target without the coroutine context switch, every configuration
//! itself parks one OS thread per task inside [`ats_mpi::run`] — each
//! rank and each OpenMP team member it forks — and naively multiplying
//! the two axes would oversubscribe the host. So the pool couples a
//! work-stealing index queue (scoped threads and an atomic cursor) with
//! a *thread budget*: `jobs × threads_per_config ≤ budget`, where
//! [`threads_per_config`] reads the platform's carrier. Results come back
//! in submission (index) order regardless of completion order, which is
//! what makes parallel sweeps byte-identical to serial ones.

use ats_runtime::SimBackend;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

/// The host's available parallelism (1 if it cannot be queried), read
/// once per process: the query reads cgroup files, and every sweep asks.
pub fn auto_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The thread budget of the oversubscription guard.
///
/// A thread-carrier configuration runs one of its threads at a time while
/// the rest wait for the scheduler's baton, so the budget is a multiple of
/// the hardware parallelism rather than equal to it; the floor keeps small
/// hosts able to run at least one wide configuration next to a few narrow
/// ones.
pub fn default_thread_budget() -> usize {
    (auto_jobs() * 8).max(32)
}

/// OS threads one `nprocs`-rank configuration occupies on this platform.
///
/// Where the coroutine carrier runs, every task is multiplexed onto the
/// worker's own thread, so a world counts as **one** slot no matter how
/// many ranks it simulates — which is what lets a sweep run 10k-rank
/// configurations at full `jobs` width. Where threads are the only
/// carrier, each task parks one OS thread, so a configuration eats
/// `nprocs` slots, plus OpenMP team members that are not counted: the
/// team size is up to the program.
pub fn threads_per_config(nprocs: usize) -> usize {
    match SimBackend::default().effective() {
        SimBackend::Event => 1,
        SimBackend::Thread => nprocs.max(1),
    }
}

/// Clamp a requested worker count so `jobs × threads_per_task` stays
/// within `budget`. `requested == 0` means "use [`auto_jobs`]".
pub fn effective_jobs(requested: usize, threads_per_task: usize, budget: usize) -> usize {
    let requested = if requested == 0 {
        auto_jobs()
    } else {
        requested
    };
    let per_task = threads_per_task.max(1);
    requested.clamp(1, (budget / per_task).max(1))
}

/// Run `f(0..n)` on up to `jobs` workers and return the results in index
/// order. Workers claim indices from a shared atomic cursor, so long tasks
/// do not convoy short ones; a `jobs <= 1` request takes a serial fast
/// path with no threads at all. Panics in `f` propagate to the caller.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(jobs, n, None, f)
}

/// [`run_indexed`], recording pool metrics into `obs` when given: task
/// count and per-task queue-wait/run-time histograms, busy vs. wall
/// nanoseconds, and the worker-count high-water gauge. Results are
/// identical to the unobserved call.
pub fn run_indexed_with<T, F>(jobs: usize, n: usize, obs: Option<ats_obs::Handle>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    let started = Instant::now();
    // Wrap the task to time it; queue wait is the gap between pool start
    // (all indices are enqueued up front) and the moment a worker claims
    // the index.
    let timed = |i: usize| {
        let claimed = Instant::now();
        let out = f(i);
        if let Some(obs) = &obs {
            obs.pool.tasks.inc();
            obs.pool.queue_wait.observe(claimed.duration_since(started));
            let run = claimed.elapsed();
            obs.pool.task_time.observe(run);
            obs.pool.busy_ns.add(run.as_nanos() as u64);
        }
        out
    };
    if let Some(obs) = &obs {
        obs.pool.jobs_occupancy.set_max(jobs as u64);
    }
    let result = if jobs == 1 {
        (0..n).map(timed).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    let timed = &timed;
                    s.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = timed(i);
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker thread panicked");
            }
        });
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, out) in rx {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index completed"))
            .collect()
    };
    if let Some(obs) = &obs {
        obs.pool.wall_ns.add(started.elapsed().as_nanos() as u64);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // Make later indices finish first by sleeping inversely.
        let out = run_indexed(4, 16, |i| {
            std::thread::sleep(std::time::Duration::from_millis(((16 - i) % 5) as u64));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel_path() {
        let serial = run_indexed(1, 9, |i| i * i);
        let parallel = run_indexed(8, 9, |i| i * i);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = run_indexed(6, 100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<usize> = run_indexed(8, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscription_guard_budgets_jobs_times_nprocs() {
        // 32-thread budget, 8 ranks per config: at most 4 workers.
        assert_eq!(effective_jobs(16, 8, 32), 4);
        // Never below one worker, even when one config exceeds the budget.
        assert_eq!(effective_jobs(16, 64, 32), 1);
        // Zero requests auto-detect but still respect the budget.
        assert!(effective_jobs(0, 1, 32) >= 1);
        // Small requests pass through untouched.
        assert_eq!(effective_jobs(2, 4, 32), 2);
    }

    #[test]
    fn event_backend_configs_occupy_one_slot() {
        if SimBackend::event_supported() {
            // The coroutine carrier multiplexes all ranks onto the worker
            // thread, so the guard does not clamp wide configs.
            assert_eq!(threads_per_config(8), 1);
            assert_eq!(threads_per_config(8192), 1);
            assert_eq!(effective_jobs(16, threads_per_config(8192), 32), 16);
        } else {
            assert_eq!(threads_per_config(8), 8);
            assert_eq!(threads_per_config(0), 1);
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate() {
        run_indexed(2, 4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
