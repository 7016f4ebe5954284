//! The task scheduler: the one place that orders simulated participants.
//!
//! Every simulated participant — an MPI rank, an OpenMP team member, the
//! master of a standalone OpenMP program — is a *task*, and a single
//! scheduler drives all tasks of a run from a binary heap keyed by
//! `(virtual clock, FIFO sequence)`. A blocked `recv`, barrier or lock is
//! a heap re-insertion, never a parked OS thread racing the others, so the
//! order in which participants observe each other is a pure function of
//! the program.
//!
//! # Carriers
//!
//! What keeps a suspended task's execution context is the *carrier*
//! ([`SimBackend`]); the scheduler core above it is the same:
//!
//! * **Event**: each task is a stackful coroutine on the caller's OS
//!   thread. A switch is a user-space register swap, so 10k+ tasks fit in
//!   one process.
//! * **Thread**: each task is an OS thread, and the threads hand a baton
//!   around so that exactly one of them (or the scheduler) runs at a time.
//!   It is the only carrier on targets without a context switch.
//!
//! Both pop the same keys in the same order, so traces are byte-identical.
//! The platform picks the carrier ([`SimBackend::effective`] of the
//! default); [`run_tasks`] takes it as an argument so that the scheduler
//! bench can measure both and the parity tests can compare them.
//!
//! # Task states and event-queue ordering
//!
//! A task is *Ready* (queued in the heap), *Running* (exactly one at a
//! time), *Blocked* (waiting on a [`WaitSet`]), or *Finished*. The heap
//! pops the minimum `(clock, seq)` key: `clock` is the task's virtual
//! resume bound and `seq` a global push counter, so equal-clock tasks run
//! in FIFO order (spawn order on the first round).
//! When a waker at virtual time `t` notifies a task blocked at time `b`,
//! the task re-enters the heap at `max(b, t)` — it can never run "before"
//! the event that released it. Re-notifying an already-Ready task with an
//! earlier bound lowers its key (lazy decrease-key: stale heap entries are
//! skipped on pop by comparing against the task's current `ready_key`).
//!
//! # Non-overtaking sketch
//!
//! Pop keys are non-decreasing over a run: every effect of a task popped at
//! key `k` happens at a virtual clock `≥ k` (work only advances clocks;
//! message completions and collective exits are `max`-based), so every
//! wake it issues carries a bound `≥ k`. Hence when a receiver resumes at
//! key `k_R`, any message a still-pending task could later send has post
//! time `≥ k_R`, and picking the minimum `(send_post, src)` among queued
//! matches reproduces virtual-time arrival order exactly. The same holds
//! for a lock contender that yields at its arrival clock before acquiring.
//!
//! # Failure
//!
//! Deadlock detection is structural and instant: an empty heap with live
//! tasks *is* a deadlock, reported with every blocked task's site. A task
//! panic likewise ends the run. Either way the scheduler unwinds every live
//! task (destructors run, stacks are reclaimed) by resuming it with a
//! cancellation flag that turns its next block into a silent panic, from
//! the newest task down: a [`scope`]'s children are always newer than the
//! task that spawned them, so no task outlives the frames it borrows. The
//! original panic payload is then re-raised from [`run_tasks`].

use crate::time::VTime;
use crate::unpoison;
use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};

/// Which carrier runs the scheduler's tasks (see the module docs).
///
/// Both run the same scheduler core and produce byte-identical traces;
/// the event carrier is one to two orders of magnitude faster and scales
/// to 10k+ ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// One OS thread per task, passing a baton so one runs at a time.
    Thread,
    /// One coroutine per task, all on the caller's OS thread.
    #[default]
    Event,
}

impl SimBackend {
    /// Is the coroutine context switch implemented for this target?
    pub fn event_supported() -> bool {
        cfg!(any(target_arch = "x86_64", target_arch = "aarch64"))
    }

    /// The backend that will actually run: falls back to [`SimBackend::Thread`]
    /// on targets without a context-switch implementation.
    pub fn effective(self) -> SimBackend {
        match self {
            SimBackend::Event if !Self::event_supported() => SimBackend::Thread,
            b => b,
        }
    }

    /// Stable lowercase name, for manifests and stats documents.
    pub fn label(self) -> &'static str {
        match self {
            SimBackend::Thread => "thread",
            SimBackend::Event => "event",
        }
    }
}

impl std::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifies a task within one [`run_tasks`] invocation (its spawn index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// A task body as [`run_tasks`] takes it.
pub type TaskFn<'a> = Box<dyn FnOnce() + Send + 'a>;

/// What one scheduler run did, for the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Number of tasks driven to completion, spawned ones included.
    pub tasks: usize,
    /// Task resumes executed (heap pops that ran a task).
    pub events: u64,
    /// Deepest the ready queue ever got (including lazily-deleted entries).
    pub max_ready: usize,
}

/// Minimum task stack; requests below this are rounded up.
pub const MIN_STACK_BYTES: usize = 32 * 1024;

/// Task stack size for runs that do not choose one.
pub const DEFAULT_STACK_BYTES: usize = 512 * 1024;

const CANARY: u64 = 0x5AFE_57AC_CA4A_B1E5;

/// `current` when no task runs, and the scheduler's place on the baton.
const SCHEDULER: usize = usize::MAX;

/// Payload used to unwind cancelled tasks; never escapes [`run_tasks`].
struct CancelToken;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Ready,
    Running,
    Blocked(&'static str),
    Finished,
}

type HeapKey = (VTime, u64);

/// Where a started task's execution context lives while it is suspended.
enum Context {
    Unstarted,
    /// Event carrier: the coroutine stack.
    Stack(Stack),
    /// Thread carrier: the task's OS thread.
    Thread(JoinHandle<()>),
}

struct Task {
    closure: Option<TaskFn<'static>>,
    context: Context,
    /// Event carrier: saved stack pointer while suspended.
    sp: *mut u8,
    state: TaskState,
    /// Virtual clock at the last `block()` / `yield_at()`.
    block_clock: VTime,
    /// Current heap key while Ready, and the key it last ran at while
    /// Running; stale heap entries fail the Ready check.
    ready_key: HeapKey,
    cancelled: bool,
}

struct SchedCore {
    backend: SimBackend,
    stack_bytes: usize,
    tasks: Vec<Task>,
    ready: BinaryHeap<Reverse<(HeapKey, usize)>>,
    /// Global push counter: FIFO tie-break among equal clocks.
    seq: u64,
    live: usize,
    current: usize,
    events: u64,
    max_ready: usize,
    /// The first task panic; once set, the run is torn down.
    failure: Option<Box<dyn Any + Send>>,
    /// Event carrier: the scheduler's saved stack pointer.
    sched_sp: *mut u8,
    /// Thread carrier: who may run.
    baton: Arc<Baton>,
}

impl SchedCore {
    fn make_ready(&mut self, id: usize, bound: VTime) {
        let key = (bound, self.seq);
        self.seq += 1;
        let t = &mut self.tasks[id];
        t.state = TaskState::Ready;
        t.ready_key = key;
        self.ready.push(Reverse((key, id)));
        self.max_ready = self.max_ready.max(self.ready.len());
    }

    fn spawn(&mut self, at: VTime, closure: TaskFn<'static>) {
        self.tasks.push(Task {
            closure: Some(closure),
            context: Context::Unstarted,
            sp: std::ptr::null_mut(),
            state: TaskState::Ready,
            block_clock: at,
            ready_key: (at, 0),
            cancelled: false,
        });
        self.live += 1;
        self.make_ready(self.tasks.len() - 1, at);
    }

    /// The virtual clock the running task was resumed at.
    fn now(&self) -> VTime {
        self.tasks
            .get(self.current)
            .map_or(VTime::ZERO, |t| t.ready_key.0)
    }
}

/// Thread carrier: the task id (or [`SCHEDULER`]) whose thread may run.
/// Passing it is a release store plus an unpark; waiting for it is an
/// acquire load plus park, so each holder sees the previous holder's
/// writes to the scheduler core.
struct Baton {
    holder: AtomicUsize,
    scheduler: Thread,
}

impl Baton {
    fn pass(&self, to: usize, thread: &Thread) {
        self.holder.store(to, Ordering::Release);
        thread.unpark();
    }

    fn wait_for(&self, me: usize) {
        while self.holder.load(Ordering::Acquire) != me {
            std::thread::park();
        }
    }
}

thread_local! {
    static ACTIVE: Cell<*mut SchedCore> = const { Cell::new(std::ptr::null_mut()) };
}

fn active() -> *mut SchedCore {
    ACTIVE.with(|a| a.get())
}

/// The scheduler core and the running task's id.
///
/// # Panics
/// Panics when called outside a simulation task.
fn running(what: &str) -> (*mut SchedCore, usize) {
    let core = active();
    assert!(!core.is_null(), "{what} called outside a simulation task");
    // SAFETY: non-null ACTIVE points at the core of the run this thread
    // serves, and this thread holds it (it is running).
    let id = unsafe { (*core).current };
    assert_ne!(id, SCHEDULER, "{what} called outside a simulation task");
    (core, id)
}

/// The id of the simulation task currently executing on this thread, or
/// `None` outside a scheduler run.
pub fn current() -> Option<TaskId> {
    let core = active();
    if core.is_null() {
        return None;
    }
    // SAFETY: as in `running`.
    let id = unsafe { (*core).current };
    (id != SCHEDULER).then_some(TaskId(id))
}

/// # Safety
/// `core`/`id` must come from `running`.
unsafe fn unwind_if_cancelled(core: *mut SchedCore, id: usize) {
    if (&(*core).tasks)[id].cancelled {
        resume_unwind(Box::new(CancelToken));
    }
}

/// Suspend the current task until [`wake`]d, recording its virtual clock
/// (the resume bound) and a human-readable site for deadlock reports.
///
/// # Panics
/// Panics (via a silent cancellation unwind) if the scheduler is tearing
/// the run down; must be called from inside a task.
fn block(clock: VTime, site: &'static str) {
    let (core, id) = running("sched::block");
    // SAFETY: this thread holds the core; no reference into it is held
    // across the switch.
    unsafe {
        unwind_if_cancelled(core, id);
        let t = &mut (&mut (*core).tasks)[id];
        t.state = TaskState::Blocked(site);
        t.block_clock = clock;
        suspend(core, id);
        unwind_if_cancelled(core, id);
    }
}

/// Re-queue the current task at virtual time `clock` and let others run —
/// a timed self-wake: every task queued below `clock` runs first.
pub fn yield_at(clock: VTime) {
    let (core, id) = running("sched::yield_at");
    // SAFETY: as in `block`.
    unsafe {
        unwind_if_cancelled(core, id);
        let c = &mut *core;
        c.tasks[id].block_clock = clock;
        c.make_ready(id, clock);
        suspend(core, id);
        unwind_if_cancelled(core, id);
    }
}

/// Make a blocked task runnable again, no earlier than virtual time `at`
/// (the waker's clock): the task re-enters the heap at
/// `max(its block clock, at)`. Waking an already-Ready task with an
/// earlier bound lowers its key; anything else is a no-op.
fn wake(id: TaskId, at: VTime) {
    let core = active();
    assert!(
        !core.is_null(),
        "sched::wake for task {id:?} outside a scheduler run"
    );
    // SAFETY: the caller holds the core; short-lived borrow.
    let c = unsafe { &mut *core };
    let Some(t) = c.tasks.get(id.0) else {
        return;
    };
    let bound = t.block_clock.max(at);
    match t.state {
        TaskState::Blocked(_) => c.make_ready(id.0, bound),
        TaskState::Ready if bound < t.ready_key.0 => c.make_ready(id.0, bound),
        _ => {}
    }
}

/// Run `closures` as tasks (task id = spawn index, all starting at virtual
/// time zero) on `backend`'s carrier until every task, spawned ones
/// included, finishes. Each task gets a `stack_bytes` stack.
///
/// If a task panics, the remaining tasks are unwound (their destructors
/// run) and the original panic is propagated. If no task is runnable while
/// some are still alive, the run is torn down the same way and a deadlock
/// panic describing every blocked task is raised.
///
/// # Panics
/// Panics if nested inside another `run_tasks`, or if `backend` is
/// [`SimBackend::Event`] on a target without a context switch (see
/// [`SimBackend::effective`]).
pub fn run_tasks<'scope>(
    backend: SimBackend,
    stack_bytes: usize,
    closures: Vec<TaskFn<'scope>>,
) -> SchedStats {
    assert!(
        active().is_null(),
        "run_tasks may not be nested inside a simulation task"
    );
    assert!(
        backend == SimBackend::Thread || SimBackend::event_supported(),
        "the event backend has no context switch for this target; \
         use SimBackend::effective() to fall back to threads"
    );
    let mut core = Box::new(SchedCore {
        backend,
        stack_bytes: stack_bytes.max(MIN_STACK_BYTES),
        tasks: Vec::with_capacity(closures.len()),
        ready: BinaryHeap::with_capacity(closures.len()),
        seq: 0,
        live: 0,
        current: SCHEDULER,
        events: 0,
        max_ready: 0,
        failure: None,
        sched_sp: std::ptr::null_mut(),
        baton: Arc::new(Baton {
            holder: AtomicUsize::new(SCHEDULER),
            scheduler: std::thread::current(),
        }),
    });
    for closure in closures {
        // SAFETY: every task is driven to completion (normal return,
        // panic, or cancellation unwind) before this function returns, so
        // no closure or borrow within it outlives `'scope`.
        core.spawn(VTime::ZERO, unsafe { erase(closure) });
    }
    let core_ptr: *mut SchedCore = &mut *core;
    ACTIVE.with(|a| a.set(core_ptr));
    // SAFETY: core_ptr outlives both calls; together they leave every task
    // Finished.
    let deadlock = unsafe { run_loop(core_ptr) };
    if core.failure.is_some() || deadlock.is_some() {
        unsafe { cancel_all(core_ptr) };
    }
    ACTIVE.with(|a| a.set(std::ptr::null_mut()));
    for task in &mut core.tasks {
        if let Context::Thread(handle) = std::mem::replace(&mut task.context, Context::Unstarted) {
            // A finished task's thread only hands the baton back and exits.
            let _ = handle.join();
        }
    }
    if let Some(payload) = core.failure.take() {
        resume_unwind(payload);
    }
    if let Some(report) = deadlock {
        panic!("{report}");
    }
    SchedStats {
        tasks: core.tasks.len(),
        events: core.events,
        max_ready: core.max_ready,
    }
}

/// # Safety
/// The caller must finish the task before anything it borrows for `'a`
/// is freed.
unsafe fn erase<'a>(closure: TaskFn<'a>) -> TaskFn<'static> {
    std::mem::transmute::<TaskFn<'a>, TaskFn<'static>>(closure)
}

/// Pop and run tasks until the heap is empty or a task panicked. Returns
/// the deadlock report if live tasks remain with nothing runnable.
///
/// # Safety
/// `core` must point at the live `SchedCore` of this thread's run; no
/// reference into it may be held across `resume`.
unsafe fn run_loop(core: *mut SchedCore) -> Option<String> {
    while (*core).failure.is_none() {
        let Some(Reverse((key, id))) = (*core).ready.pop() else {
            return ((*core).live > 0).then(|| deadlock_report(&*core));
        };
        {
            let c = &mut *core;
            let t = &mut c.tasks[id];
            // Lazily-deleted entry: the task re-blocked, finished, or had
            // its key lowered since this entry was pushed.
            if t.state != TaskState::Ready || t.ready_key != key {
                continue;
            }
            t.state = TaskState::Running;
            c.current = id;
            c.events += 1;
        }
        resume(core, id);
        let c = &mut *core;
        c.current = SCHEDULER;
        if c.tasks[id].state == TaskState::Finished {
            c.live -= 1;
        }
    }
    None
}

/// Unwind every unfinished task, newest first, so stacks, destructors and
/// borrows are cleaned up before the scheduler frame goes away. A task
/// that never ran just drops its closure.
///
/// # Safety
/// As for `run_loop`.
unsafe fn cancel_all(core: *mut SchedCore) {
    for t in (*core).tasks.iter_mut() {
        t.cancelled = true;
    }
    while let Some(id) = (*core)
        .tasks
        .iter()
        .rposition(|t| t.state != TaskState::Finished)
    {
        let c = &mut *core;
        // Tasks spawned while earlier ones unwound are cancelled too.
        c.tasks[id].cancelled = true;
        if matches!(c.tasks[id].context, Context::Unstarted) {
            let closure = c.tasks[id].closure.take();
            c.tasks[id].state = TaskState::Finished;
            drop(closure);
            continue;
        }
        c.tasks[id].state = TaskState::Running;
        c.current = id;
        resume(core, id);
        (*core).current = SCHEDULER;
    }
    (*core).live = 0;
}

/// Run task `id` until it suspends or finishes, starting its carrier
/// context on first use.
///
/// # Safety
/// As for `run_loop`; `id` must be a valid, unfinished task.
unsafe fn resume(core: *mut SchedCore, id: usize) {
    let c = &mut *core;
    match c.backend {
        SimBackend::Event => {
            if matches!(c.tasks[id].context, Context::Unstarted) {
                let stack = Stack::alloc(c.stack_bytes);
                // The crafted frame makes the first switch land in
                // `trampoline` with the task id in a callee-saved register.
                let sp = ctx::craft_stack(stack.top(), id);
                stack.arm_canary();
                let t = &mut c.tasks[id];
                t.sp = sp;
                t.context = Context::Stack(stack);
            }
            let sp = c.tasks[id].sp;
            ctx::switch(&raw mut (*core).sched_sp, sp);
            // Re-borrow: the task may have spawned others, growing `tasks`.
            if let Context::Stack(stack) = &(&(*core).tasks)[id].context {
                if !stack.canary_ok() {
                    eprintln!(
                        "fatal: simulation task {id} overflowed its {}-byte stack \
                         (raise sched::DEFAULT_STACK_BYTES)",
                        stack.size()
                    );
                    std::process::abort();
                }
            }
        }
        SimBackend::Thread => {
            if matches!(c.tasks[id].context, Context::Unstarted) {
                c.tasks[id].context = Context::Thread(spawn_carrier_thread(c, id));
            }
            if let Context::Thread(handle) = &c.tasks[id].context {
                let baton = Arc::clone(&c.baton);
                baton.pass(id, handle.thread());
                baton.wait_for(SCHEDULER);
            }
        }
    }
}

/// Hand control from the running task `id` back to the scheduler, and
/// return when the scheduler resumes it.
///
/// # Safety
/// Must be called by task `id` while it holds the core.
unsafe fn suspend(core: *mut SchedCore, id: usize) {
    let c = &mut *core;
    match c.backend {
        SimBackend::Event => ctx::switch(&raw mut c.tasks[id].sp, c.sched_sp),
        SimBackend::Thread => {
            let baton = Arc::clone(&c.baton);
            baton.pass(SCHEDULER, &baton.scheduler);
            baton.wait_for(id);
        }
    }
}

/// Run task `id`'s closure, recording a panic as the run's failure.
///
/// # Safety
/// Must be called by task `id` while it holds the core.
unsafe fn run_body(core: *mut SchedCore, id: usize) {
    let closure = (&mut (*core).tasks)[id]
        .closure
        .take()
        .expect("task entered twice");
    let outcome = catch_unwind(AssertUnwindSafe(closure));
    let c = &mut *core;
    if let Err(payload) = outcome {
        if !payload.is::<CancelToken>() && c.failure.is_none() {
            c.failure = Some(payload);
        }
    }
    c.tasks[id].state = TaskState::Finished;
}

/// Thread carrier: start task `id`'s OS thread, parked until the baton
/// reaches it.
fn spawn_carrier_thread(core: &mut SchedCore, id: usize) -> JoinHandle<()> {
    let core_addr = core as *mut SchedCore as usize;
    let baton = Arc::clone(&core.baton);
    std::thread::Builder::new()
        .name(format!("sim-task-{id}"))
        .stack_size(core.stack_bytes)
        .spawn(move || {
            let core = core_addr as *mut SchedCore;
            ACTIVE.with(|a| a.set(core));
            baton.wait_for(id);
            // SAFETY: holding the baton makes this thread the core's only
            // user; the core outlives every task (run_tasks joins them).
            unsafe { run_body(core, id) };
            baton.pass(SCHEDULER, &baton.scheduler);
        })
        .expect("spawn a thread-carrier task")
}

fn deadlock_report(core: &SchedCore) -> String {
    let blocked: Vec<String> = core
        .tasks
        .iter()
        .enumerate()
        .filter_map(|(id, t)| match t.state {
            TaskState::Blocked(site) => Some(format!("task {id} in {site} @ {:?}", t.block_clock)),
            _ => None,
        })
        .collect();
    let shown = blocked.len().min(8);
    format!(
        "scheduler deadlock: no runnable task, {} still blocked \
         (deadlock in the simulated program?): {}{}",
        blocked.len(),
        blocked[..shown].join(", "),
        if shown < blocked.len() { ", …" } else { "" }
    )
}

/// Event carrier entry point: runs the task closure, then parks forever on
/// the scheduler (a finished task is never resumed again).
unsafe extern "C" fn task_entry(id: usize) -> ! {
    let core = active();
    run_body(core, id);
    loop {
        let c = &mut *core;
        ctx::switch(&raw mut c.tasks[id].sp, c.sched_sp);
    }
}

/// Tasks spawned by a [`scope`] call, joined before it returns.
///
/// `'env` is invariant, so a spawned closure can borrow only what outlives
/// the whole `scope` call.
pub struct Scope<'env> {
    live: Mutex<usize>,
    joined: WaitSet,
    _env: PhantomData<&'env mut &'env ()>,
}

/// Marks one child of a scope finished when dropped — after the child's
/// closure returned or unwound, or with a closure that never ran.
struct ChildDone(*const Scope<'static>);

// SAFETY: the scope is Sync and outlives every child (`scope` joins them),
// and only the task holding the scheduler touches it.
unsafe impl Send for ChildDone {}

impl Drop for ChildDone {
    fn drop(&mut self) {
        // SAFETY: see the Send impl.
        let scope = unsafe { &*self.0 };
        let mut live = unpoison(scope.live.lock());
        *live -= 1;
        if *live == 0 {
            drop(live);
            // SAFETY: the dropping task (or the tearing-down scheduler)
            // holds the core.
            let now = unsafe { (*active()).now() };
            scope.joined.notify_all(now);
        }
    }
}

impl<'env> Scope<'env> {
    /// Spawn `f` as a new task of the running scheduler, first runnable at
    /// virtual time `at`, with the run's stack size.
    pub fn spawn(&self, at: VTime, f: impl FnOnce() + Send + 'env) {
        *unpoison(self.live.lock()) += 1;
        let done = ChildDone((self as *const Self).cast());
        let task: TaskFn<'env> = Box::new(move || {
            let _done = done;
            f();
        });
        let core = active();
        // SAFETY: `scope` joins this task before returning, and `'env`
        // outlives that call. The caller is a task, so it holds the core.
        unsafe { (*core).spawn(at, erase(task)) };
    }
}

/// Run `f` on the current task with a [`Scope`] to spawn child tasks
/// through, and return once `f` and every child have finished — even when
/// `f` panics, so children never outlive the frames they borrow.
///
/// A panic in `f` fails the whole run, like a panic in any task: the
/// children are unwound and the payload surfaces from [`run_tasks`].
///
/// # Panics
/// Panics when called outside a simulation task.
pub fn scope<'env, R>(f: impl for<'s> FnOnce(&'s Scope<'env>) -> R) -> R {
    let (core, _) = running("sched::scope");
    let scope = Scope {
        live: Mutex::new(0),
        joined: WaitSet::new(),
        _env: PhantomData,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&scope))).map_err(|payload| {
        if payload.is::<CancelToken>() {
            return payload;
        }
        // Fail the run with it, and unwind this task like the others.
        // SAFETY: this task holds the core.
        unsafe { (*core).failure.get_or_insert(payload) };
        Box::new(CancelToken)
    });
    // Wait for the children even when unwinding. If the run is failing,
    // the wait ends in a cancellation unwind once teardown has resumed the
    // children, which are newer and so go first.
    let mut live = unpoison(scope.live.lock());
    while *live > 0 {
        // SAFETY: as above.
        let now = unsafe { (*core).now() };
        live = scope.joined.wait(&scope.live, live, now, "task join");
    }
    drop(live);
    outcome.unwrap_or_else(|token| resume_unwind(token))
}

struct Stack {
    base: *mut u8,
    layout: std::alloc::Layout,
}

impl Stack {
    /// Allocate without initializing: untouched pages stay virtual, so
    /// 8k ranks × 512 KiB stacks cost resident memory only where used.
    fn alloc(bytes: usize) -> Stack {
        let layout = std::alloc::Layout::from_size_align(bytes, 16).expect("stack layout");
        // SAFETY: non-zero size, valid alignment.
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "coroutine stack allocation failed");
        Stack { base, layout }
    }

    fn size(&self) -> usize {
        self.layout.size()
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the allocation.
        unsafe { self.base.add(self.layout.size()) }
    }

    fn arm_canary(&self) {
        // SAFETY: base is 16-aligned and the stack is at least MIN_STACK_BYTES.
        unsafe { (self.base as *mut u64).write(CANARY) }
    }

    fn canary_ok(&self) -> bool {
        // SAFETY: as in `arm_canary`.
        unsafe { (self.base as *const u64).read() == CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: allocated in `alloc` with the same layout.
        unsafe { std::alloc::dealloc(self.base, self.layout) }
    }
}

/// The architecture-specific context switch: saves the callee-saved
/// register frame on the current stack, stores the stack pointer through
/// the first argument, installs the second argument as the new stack
/// pointer, restores its frame, and returns on the new stack.
#[cfg(target_arch = "x86_64")]
mod ctx {
    /// # Safety
    /// `save_slot` must be writable; `new_sp` must be a stack pointer
    /// previously produced by this function or by `craft_stack`.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(_save_slot: *mut *mut u8, _new_sp: *mut u8) {
        // System V x86-64: rdi = save_slot, rsi = new_sp. Frame layout,
        // low to high: r15 r14 r13 r12 rbx rbp [return address].
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First activation target: moves the task id (planted in r12 by
    /// `craft_stack`) into the argument register and calls `task_entry`.
    /// Entered via `ret` with rsp ≡ 0 (mod 16), so the `call` leaves the
    /// stack with standard System V alignment.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym super::task_entry,
        )
    }

    /// Build the initial frame `switch` will restore on first resume.
    ///
    /// # Safety
    /// `top` must be one-past-the-end of a stack at least
    /// [`super::MIN_STACK_BYTES`] long.
    pub(super) unsafe fn craft_stack(top: *mut u8, id: usize) -> *mut u8 {
        let top16 = (top as usize) & !15;
        // ret target at ≡ 8 (mod 16): after the 6 pops and the ret the
        // trampoline starts with rsp = slot+8 ≡ 0 (mod 16).
        let ret_slot = (top16 - 8) as *mut usize;
        ret_slot.write(trampoline as unsafe extern "C" fn() as usize);
        let frame = ret_slot.sub(6);
        frame.write(0); // r15
        frame.add(1).write(0); // r14
        frame.add(2).write(0); // r13
        frame.add(3).write(id); // r12: task id
        frame.add(4).write(0); // rbx
        frame.add(5).write(0); // rbp
        frame as *mut u8
    }
}

#[cfg(target_arch = "aarch64")]
mod ctx {
    /// # Safety
    /// As for the x86-64 variant.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(_save_slot: *mut *mut u8, _new_sp: *mut u8) {
        // AAPCS64: x0 = save_slot, x1 = new_sp. 160-byte frame: x19..x28,
        // fp, lr, d8..d15; `ret` returns through the restored x30.
        core::arch::naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x2, sp",
            "str x2, [x0]",
            "mov sp, x1",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "ldp x19, x20, [sp], #160",
            "ret",
        )
    }

    /// First activation target: the task id arrives in x19.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov x0, x19",
            "bl {entry}",
            "brk #0x1",
            entry = sym super::task_entry,
        )
    }

    /// # Safety
    /// As for the x86-64 variant.
    pub(super) unsafe fn craft_stack(top: *mut u8, id: usize) -> *mut u8 {
        let top16 = (top as usize) & !15;
        let frame = (top16 - 160) as *mut usize;
        for i in 0..20 {
            frame.add(i).write(0);
        }
        frame.write(id); // x19: task id
        frame
            .add(11)
            .write(trampoline as unsafe extern "C" fn() as usize); // x30: return target
        frame as *mut u8
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod ctx {
    /// # Safety
    /// Never callable: `run_tasks` rejects the event carrier here.
    pub(super) unsafe extern "C" fn switch(_save_slot: *mut *mut u8, _new_sp: *mut u8) {
        unreachable!("event backend not implemented for this target")
    }

    /// # Safety
    /// As for `switch`.
    pub(super) unsafe fn craft_stack(_top: *mut u8, _id: usize) -> *mut u8 {
        unreachable!("event backend not implemented for this target")
    }
}

/// The tasks waiting for a condition that another task will signal — how
/// mailboxes, rendezvous handshakes, collective slots, locks and joins
/// block.
#[derive(Debug, Default)]
pub struct WaitSet {
    waiters: Mutex<Vec<TaskId>>,
}

impl WaitSet {
    /// An empty wait set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Release `guard`, suspend the current task with resume bound `clock`
    /// until [`WaitSet::notify_all`], and hand back a freshly acquired
    /// guard on `mutex` (which must own `guard`). `site` names the wait in
    /// deadlock reports.
    ///
    /// # Panics
    /// Panics when called outside a simulation task.
    pub fn wait<'m, T>(
        &self,
        mutex: &'m Mutex<T>,
        guard: MutexGuard<'m, T>,
        clock: VTime,
        site: &'static str,
    ) -> MutexGuard<'m, T> {
        let id = current().expect("WaitSet::wait called outside a simulation task");
        unpoison(self.waiters.lock()).push(id);
        drop(guard);
        block(clock, site);
        unpoison(mutex.lock())
    }

    /// Wake every registered waiter no earlier than virtual time `at`.
    pub fn notify_all(&self, at: VTime) {
        let waiters = std::mem::take(&mut *unpoison(self.waiters.lock()));
        for id in waiters {
            wake(id, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> TaskFn<'a> {
        Box::new(f)
    }

    fn run(backend: SimBackend, tasks: Vec<TaskFn>) -> SchedStats {
        run_tasks(backend, MIN_STACK_BYTES, tasks)
    }

    const CARRIERS: [SimBackend; 2] = [SimBackend::Event, SimBackend::Thread];

    #[test]
    fn tasks_run_in_virtual_clock_order() {
        for backend in CARRIERS {
            let log = Mutex::new(Vec::new());
            let stats = run(
                backend,
                vec![
                    boxed(|| {
                        unpoison(log.lock()).push("a0");
                        yield_at(VTime(100));
                        unpoison(log.lock()).push("a1");
                    }),
                    boxed(|| {
                        unpoison(log.lock()).push("b0");
                        yield_at(VTime(50));
                        unpoison(log.lock()).push("b1");
                    }),
                ],
            );
            assert_eq!(unpoison(log.into_inner()), vec!["a0", "b0", "b1", "a1"]);
            assert_eq!(stats.tasks, 2);
            assert_eq!(stats.events, 4);
            assert!(stats.max_ready >= 2);
        }
    }

    #[test]
    fn equal_clocks_run_in_spawn_order() {
        for backend in CARRIERS {
            let log = Mutex::new(Vec::new());
            run(
                backend,
                (0..8)
                    .map(|i| {
                        let log = &log;
                        boxed(move || unpoison(log.lock()).push(i))
                    })
                    .collect(),
            );
            assert_eq!(unpoison(log.into_inner()), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn waitset_hands_off_between_tasks() {
        for backend in CARRIERS {
            let slot: Mutex<Option<u32>> = Mutex::new(None);
            let ws = WaitSet::new();
            let got = Mutex::new(None);
            run(
                backend,
                vec![
                    boxed(|| {
                        let mut s = unpoison(slot.lock());
                        while s.is_none() {
                            s = ws.wait(&slot, s, VTime::ZERO, "test-recv");
                        }
                        *unpoison(got.lock()) = *s;
                    }),
                    boxed(|| {
                        *unpoison(slot.lock()) = Some(42);
                        ws.notify_all(VTime(7));
                    }),
                ],
            );
            assert_eq!(unpoison(got.into_inner()), Some(42));
        }
    }

    #[test]
    fn wake_bound_is_wakers_clock() {
        // The woken task must not run before a same-clock task queued
        // earlier: its resume bound is max(block clock, waker clock).
        for backend in CARRIERS {
            let log = Mutex::new(Vec::new());
            let ws = WaitSet::new();
            let flag = Mutex::new(false);
            run(
                backend,
                vec![
                    boxed(|| {
                        let mut f = unpoison(flag.lock());
                        while !*f {
                            f = ws.wait(&flag, f, VTime::ZERO, "test-wait");
                        }
                        drop(f);
                        unpoison(log.lock()).push("waiter");
                    }),
                    boxed(|| {
                        *unpoison(flag.lock()) = true;
                        ws.notify_all(VTime(200));
                        yield_at(VTime(100));
                        unpoison(log.lock()).push("mid");
                    }),
                ],
            );
            assert_eq!(unpoison(log.into_inner()), vec!["mid", "waiter"]);
        }
    }

    #[test]
    fn panic_in_one_task_cancels_and_unwinds_the_rest() {
        struct Guard<'a>(&'a AtomicBool);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        for backend in CARRIERS {
            let dropped = AtomicBool::new(false);
            let ws = WaitSet::new();
            let lock = Mutex::new(());
            let err = catch_unwind(AssertUnwindSafe(|| {
                run(
                    backend,
                    vec![
                        boxed(|| {
                            let _g = Guard(&dropped);
                            let mut l = unpoison(lock.lock());
                            loop {
                                l = ws.wait(&lock, l, VTime::ZERO, "test-park");
                            }
                        }),
                        boxed(|| panic!("kaboom")),
                    ],
                )
            }))
            .expect_err("panic must propagate");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"kaboom"));
            assert!(
                dropped.load(Ordering::SeqCst),
                "blocked task must be unwound"
            );
        }
    }

    #[test]
    fn structural_deadlock_is_reported() {
        for backend in CARRIERS {
            let ws = WaitSet::new();
            let lock = Mutex::new(());
            let err = catch_unwind(AssertUnwindSafe(|| {
                run(
                    backend,
                    vec![boxed(|| {
                        let mut l = unpoison(lock.lock());
                        loop {
                            l = ws.wait(&lock, l, VTime(9), "test-recv");
                        }
                    })],
                )
            }))
            .expect_err("deadlock must panic");
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("deadlock"), "got: {msg}");
            assert!(msg.contains("task 0 in test-recv"), "got: {msg}");
        }
    }

    #[test]
    fn borrows_of_caller_locals_are_sound() {
        for backend in CARRIERS {
            let mut results = vec![0u64; 16];
            {
                let cells: Vec<Mutex<&mut u64>> = results.iter_mut().map(Mutex::new).collect();
                run(
                    backend,
                    (0..16)
                        .map(|i| {
                            let cells = &cells;
                            boxed(move || {
                                yield_at(VTime((16 - i) as u64));
                                **unpoison(cells[i].lock()) = i as u64 + 1;
                            })
                        })
                        .collect(),
                );
            }
            assert_eq!(results, (1..=16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scoped_children_interleave_and_join() {
        for backend in CARRIERS {
            let log = Mutex::new(Vec::new());
            let stats = run(
                backend,
                vec![boxed(|| {
                    let borrowed = String::from("env");
                    scope(|s| {
                        for i in 1..=2u64 {
                            let (log, borrowed) = (&log, &borrowed);
                            s.spawn(VTime(10 * i), move || {
                                unpoison(log.lock()).push(format!("{borrowed}{i}"));
                                yield_at(VTime(100 + i));
                                unpoison(log.lock()).push(format!("late{i}"));
                            });
                        }
                        yield_at(VTime(15));
                        unpoison(log.lock()).push("parent".to_string());
                    });
                    unpoison(log.lock()).push("joined".to_string());
                })],
            );
            assert_eq!(
                unpoison(log.into_inner()),
                ["env1", "parent", "env2", "late1", "late2", "joined"]
            );
            assert_eq!(stats.tasks, 3);
        }
    }

    #[test]
    fn backend_labels_round_trip() {
        for (b, label) in [(SimBackend::Thread, "thread"), (SimBackend::Event, "event")] {
            assert_eq!((b.label(), b.to_string()), (label, label.to_owned()));
        }
        assert_eq!(SimBackend::default(), SimBackend::Event);
        if SimBackend::event_supported() {
            assert_eq!(SimBackend::Event.effective(), SimBackend::Event);
        } else {
            assert_eq!(SimBackend::Event.effective(), SimBackend::Thread);
        }
    }

    #[test]
    fn thousands_of_tasks_fit_in_one_thread() {
        let n = 4096;
        let counter = Mutex::new(0u64);
        let stats = run(
            SimBackend::Event,
            (0..n)
                .map(|i| {
                    let counter = &counter;
                    boxed(move || {
                        yield_at(VTime(i as u64 % 97));
                        *unpoison(counter.lock()) += 1;
                    })
                })
                .collect(),
        );
        assert_eq!(unpoison(counter.into_inner()), n as u64);
        assert_eq!(stats.tasks, n);
        assert_eq!(stats.events, 2 * n as u64);
    }
}
