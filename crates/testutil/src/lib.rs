//! # ats-testutil
//!
//! Shared test support for the ATS-RS workspace:
//!
//! * [`TempDir`]: a scratch directory that is unique per test (process id
//!   *and* an in-process counter, so parallel tests and parallel test
//!   binaries never collide) and removed on `Drop` — which runs during
//!   unwinding too, so a failing assertion never leaks files into the
//!   system temp directory.
//! * [`check`]: a seeded property check. Each case draws its inputs from a
//!   [`Case`] (a [`SplitMix64`] stream plus a size budget); a failing case
//!   is shrunk by halving its size and reported with the seed that
//!   replays it.
//! * [`run_as_tasks`] and [`panics_alike_on_both_carriers`]: drive code
//!   that blocks on the scheduler as tasks of one run, on either carrier.

use ats_runtime::sched::{self, SimBackend};
use ats_runtime::{unpoison, SplitMix64};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence number distinguishing temp dirs within one test
/// binary.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory removed (recursively) when dropped.
///
/// ```
/// let dir = ats_testutil::TempDir::new("doc-example");
/// let file = dir.file("data.txt");
/// std::fs::write(&file, b"hello").unwrap();
/// assert!(file.exists());
/// let kept = dir.path().to_path_buf();
/// drop(dir);
/// assert!(!kept.exists());
/// ```
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory under the system temp dir. `prefix`
    /// should name the test site (e.g. `"ats-ingest-formats"`); the full
    /// name also carries the process id and a per-process counter.
    pub fn new(prefix: &str) -> Self {
        let pid = std::process::id();
        loop {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("{prefix}-{pid}-{seq}"));
            // create_dir (not create_dir_all): refusing to adopt an
            // existing directory means a stale leftover from a recycled
            // pid can never leak foreign files into this test.
            match std::fs::create_dir(&path) {
                Ok(()) => return TempDir { path },
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("creating temp dir {}: {e}", path.display()),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Consume the guard *without* deleting the directory — for debugging
    /// a failing test's artifacts. Returns the path.
    pub fn keep(self) -> PathBuf {
        let this = std::mem::ManuallyDrop::new(self);
        this.path.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The size every case starts at; shrinking halves it down to 1.
pub const FULL_SIZE: usize = 64;

/// The generated inputs of one property case: a seeded random stream and
/// a size budget that scales the draws made with [`Case::sized`].
#[derive(Debug, Clone)]
pub struct Case {
    rng: SplitMix64,
    size: usize,
}

impl Case {
    /// The case drawn from `seed` at `size` — what [`check`] prints for a
    /// failure, so the case can be replayed by calling the property body
    /// on it.
    pub fn new(seed: u64, size: usize) -> Case {
        Case {
            rng: SplitMix64::new(seed),
            size: size.clamp(1, FULL_SIZE),
        }
    }

    /// The size budget, in `1..=FULL_SIZE`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// A uniform `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// A uniform value in `range` (non-empty), whatever the size.
    pub fn int(&mut self, range: Range<usize>) -> usize {
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// A value in `range` (non-empty) whose spread above `range.start`
    /// shrinks with the size: lengths, group sizes, repetition counts.
    pub fn sized(&mut self, range: Range<usize>) -> usize {
        let span = (range.end - range.start) * self.size / FULL_SIZE;
        range.start + self.below(span.max(1) as u64) as usize
    }

    /// A uniform `f64` in `range`.
    pub fn float(&mut self, range: Range<f64>) -> f64 {
        range.start + self.rng.next_f64() * (range.end - range.start)
    }

    /// `true` or `false` with equal odds.
    pub fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// One of `items` (non-empty), uniformly.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }
}

/// Run `prop` on `cases` seeded cases. The seeds derive from `name`, so
/// every run checks the same cases. A case fails when `prop` panics (plain
/// `assert!`s are the property's oracle); it is then rerun from the same
/// seed at half the size while it keeps failing, and the smallest failing
/// size is reported together with the seed that replays it.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Case)) {
    // FNV-1a, so each property draws its own seed sequence.
    let root = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    for i in 0..cases {
        let seed = SplitMix64::split(root, i as u64).next_u64();
        let Err(mut msg) = run_case(&prop, seed, FULL_SIZE) else {
            continue;
        };
        let mut size = FULL_SIZE;
        while size > 1 {
            match run_case(&prop, seed, size / 2) {
                Err(smaller) => {
                    size /= 2;
                    msg = smaller;
                }
                Ok(()) => break,
            }
        }
        panic!(
            "property `{name}` failed on case {i}: {msg}\n\
             replay it on ats_testutil::Case::new({seed:#x}, {size})"
        );
    }
}

fn run_case(prop: &impl Fn(&mut Case), seed: u64, size: usize) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(|| prop(&mut Case::new(seed, size)))).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_owned())
    })
}

/// Both scheduler carriers, for tests that must hold on each.
pub const CARRIERS: [SimBackend; 2] = [SimBackend::Event, SimBackend::Thread];

/// Run `task(i)` for `i` in `0..n` as the tasks of one scheduler run on
/// `backend`; returns their results in task order.
pub fn run_as_tasks<R: Send>(
    backend: SimBackend,
    n: usize,
    task: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let results: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let tasks: Vec<sched::TaskFn> = results
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let task = &task;
            Box::new(move || *unpoison(slot.lock()) = Some(task(i))) as sched::TaskFn
        })
        .collect();
    sched::run_tasks(backend, sched::DEFAULT_STACK_BYTES, tasks);
    results
        .into_iter()
        .map(|r| unpoison(r.into_inner()).expect("every task finished"))
        .collect()
}

/// The text of a panic payload (`panic!` with or without arguments).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Run `body` as the lone task of a scheduler run on each carrier. Both
/// runs must panic with the same message; the event carrier's payload is
/// then re-raised, so one `#[should_panic(expected = ...)]` checks both.
pub fn panics_alike_on_both_carriers(body: impl Fn() + Sync) -> ! {
    let run = |backend| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            sched::run_tasks(backend, sched::DEFAULT_STACK_BYTES, vec![Box::new(&body)])
        }))
        .expect_err("the task must panic")
    };
    let thread = run(SimBackend::Thread);
    let event = run(SimBackend::Event);
    assert_eq!(
        panic_message(&*thread),
        panic_message(&*event),
        "the carriers fail differently"
    );
    panic::resume_unwind(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_replay_from_their_seed() {
        let draw = |c: &mut Case| (c.u64(), c.sized(0..100), c.float(0.0..1.0));
        assert_eq!(draw(&mut Case::new(7, 32)), draw(&mut Case::new(7, 32)));
        assert_ne!(draw(&mut Case::new(7, 32)), draw(&mut Case::new(8, 32)));
    }

    #[test]
    fn sized_draws_shrink_with_the_size() {
        let mut c = Case::new(1, 1);
        assert!((0..100).all(|_| c.sized(3..40) == 3));
        let mut c = Case::new(1, FULL_SIZE / 2);
        assert!((0..1000).all(|_| c.sized(0..40) < 20));
        let mut c = Case::new(1, FULL_SIZE);
        assert!((0..1000).any(|_| c.sized(0..40) >= 20));
    }

    #[test]
    fn check_runs_every_case_with_distinct_seeds() {
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        check("distinct", 50, |c| {
            seen.lock().unwrap().insert(c.u64());
        });
        assert_eq!(seen.lock().unwrap().len(), 50);
    }

    #[test]
    fn a_failure_shrinks_by_halving_and_names_the_seed() {
        let err = panic::catch_unwind(|| {
            check("shrinks", 10, |c| {
                let n = c.sized(0..1000);
                assert!(c.size() < 8 || n == usize::MAX, "n = {n}");
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("failed on case 0"), "{msg}");
        assert!(
            msg.contains(", 8)"),
            "shrunk to the smallest failing size: {msg}"
        );
        assert!(msg.contains("Case::new(0x"), "{msg}");
    }

    #[test]
    fn unique_per_call_and_cleaned_on_drop() {
        let a = TempDir::new("ats-testutil-self");
        let b = TempDir::new("ats-testutil-self");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        std::fs::write(a.file("x"), b"1").unwrap();
        std::fs::create_dir(a.file("sub")).unwrap();
        std::fs::write(a.file("sub").join("y"), b"2").unwrap();
        let pa = a.path().to_path_buf();
        drop(a);
        assert!(!pa.exists(), "dropped dir removed recursively");
        assert!(b.path().is_dir(), "sibling untouched");
    }

    #[test]
    fn keep_suppresses_cleanup() {
        let d = TempDir::new("ats-testutil-keep");
        let p = d.keep();
        assert!(p.is_dir());
        std::fs::remove_dir_all(&p).unwrap();
    }
}
