//! # pmstack-exec — the resident parallel-execution substrate
//!
//! GEOPM runs as a tree of concurrent per-node agents and SLURM-style
//! managers batch per-node control asynchronously; the simulation of them
//! should exploit the same concurrency. This crate provides the one
//! primitive the rest of the stack builds on: a resident worker pool behind
//! a [`par_map`] / [`par_map_indexed`] / [`par_for_each_mut`] /
//! [`par_chunks_mut`] API.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are always returned in input order, and the
//!    caller decides all randomness (per-item seeds), so a parallel run is
//!    bit-identical to a sequential one regardless of scheduling. The
//!    [`sequential_scope`] helper forces every fan-out reached from the
//!    current call stack onto one thread, which the determinism tests use
//!    to compare against.
//! 2. **No nested oversubscription.** A task running inside the pool that
//!    itself calls `par_map` runs that inner map inline: the outer fan-out
//!    already owns the hardware. This keeps the grid (90 cells, each of
//!    which evaluates jobs that would *also* like to parallelize) from
//!    fanning out quadratically.
//! 3. **Work stealing.** `par_map` block-distributes items across workers;
//!    an idle worker steals the back half of a victim's queue. Cell costs
//!    in the evaluation grid vary by policy and budget level, so static
//!    partitioning alone leaves workers idle.
//! 4. **A fan-out costs a wake, not a spawn.** The simulation's hot loop
//!    fans a 100 000-host replay out every iteration (tens of µs of work);
//!    spawning and joining threads for it cost more than it saved.
//!
//! # The resident pool and its round protocol
//!
//! The pool starts on the first fan-out and never exits: `width − 1` named
//! threads (`pmstack-exec-K`), the calling thread taking part as worker 0.
//! It grows to the widest width ever asked for (see
//! [`par_map_indexed_min_workers`]) and never shrinks. Every entry point
//! reduces to one *round*: a borrowed `&(dyn Fn(usize) + Sync)` and a
//! task count `width`; each task index is claimed exactly once, by the
//! caller or a resident, and the caller returns only after the round is
//! joined.
//!
//! One thread owns the pool per round (the lock on its resident list).
//! A thread that fans out while another thread's round runs — the daemon's
//! fleet thread beside a test, two tests at once — runs its own tasks
//! inline instead of waiting: parallel ≡ sequential, so only the timing
//! differs.
//!
//! The round word packs a generation, an *open* bit and the number of
//! residents *checked in*. The owner stores the task, resets the claim
//! counter and publishes `(generation + 1, open, 0)`; a resident checks in
//! with a compare-exchange against exactly that word, so it joins only an
//! open round of a generation it has not served. Closing clears the open
//! bit (no one checks in after it) and then waits until the check-in count
//! is back to zero. Idle residents poll the word for `SPIN` (50 µs), then park;
//! the owner unparks the residents it needs after publishing.
//!
//! **Safety.** Erasing the task's lifetime to `'static` is the pool's one
//! `unsafe`. It is sound because the task is only reachable from the
//! round slot, which is read only by a resident checked in to the open
//! round, and the owner neither returns nor publishes the next round until
//! the round is closed and every checked-in resident has checked out — a
//! guard's `Drop` does it, so even an unwind cannot skip it, and every task
//! runs under `catch_unwind` anyway. A resident that wakes late finds the
//! round closed or the generation moved on, so its compare-exchange fails
//! and it never reads a stale round or a freed closure.
//!
//! **Panics.** A panicking task is caught where it ran; the round still
//! completes, the resident survives, and the caller resumes the first
//! panic's own payload once the round is joined.
//!
//! The width is [`std::thread::available_parallelism`], overridable with
//! the `PMSTACK_THREADS` environment variable (`PMSTACK_THREADS=1` forces
//! sequential execution everywhere except an explicit `min_workers`; a value
//! that is not a number means 1, and one above 65535 means 65535).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pmstack_obs::{StaticCounter, StaticGauge};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Observability: `par_map` invocations that fanned out.
static PAR_MAP_CALLS: StaticCounter = StaticCounter::new("exec.par_map.calls");
/// Observability: `par_map` invocations that ran inline (sequential path).
static PAR_MAP_INLINE: StaticCounter = StaticCounter::new("exec.par_map.inline");
/// Observability: items (chunks, for `par_chunks_mut`) run through a
/// fan-out, the caller's share included; one add per fan-out, by the caller
/// (adds from every worker would bounce the counter's cache line).
static TASKS_EXECUTED: StaticCounter = StaticCounter::new("exec.tasks.executed");
/// Observability: tasks obtained by stealing (back-half moves + straggler
/// drains) rather than from the worker's own block.
static TASKS_STOLEN: StaticCounter = StaticCounter::new("exec.tasks.stolen");
/// Observability: rounds that ran on the resident pool (not inline because
/// another thread's round held it); one add per round.
static POOL_FANOUTS: StaticCounter = StaticCounter::new("exec.pool.fanouts");
/// Observability: width of the most recent fan-out (workers, caller
/// included).
static POOL_WORKERS: StaticGauge = StaticGauge::new("exec.pool.workers");

/// How long an idle resident polls the round word before it parks. Long
/// enough to bridge the gap between back-to-back iterations of a stepping
/// loop (a few µs), short enough that a resident spinning after the
/// daemon's 20 ms tick costs its request workers nothing measurable on a
/// 2-vCPU host.
const SPIN: Duration = Duration::from_micros(50);

thread_local! {
    /// True while the current thread is a pool worker, runs a round's task
    /// as its owner, or is inside a [`sequential_scope`]; a fan-out issued
    /// from such a thread runs inline.
    static INLINE_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// Number of workers a fan-out uses: the `PMSTACK_THREADS` environment
/// variable when set (read by `threads_from_env`), otherwise
/// [`std::thread::available_parallelism`].
///
/// Resolved once per process: `available_parallelism` re-reads the cgroup
/// quota files on every call on Linux, which is far too expensive for the
/// per-iteration call sites in the simulation hot loop.
pub fn workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| match std::env::var("PMSTACK_THREADS") {
        Ok(v) => threads_from_env(&v),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// The pool width a `PMSTACK_THREADS` value asks for: the number, clamped
/// into `1..=65535` (the widest round the round word counts), and 1 for a
/// value that is not a number.
fn threads_from_env(value: &str) -> usize {
    let asked = value.trim().parse::<usize>().unwrap_or(1);
    asked.clamp(1, CHECKED_IN as usize)
}

/// True when a `par_map` issued from the current thread would run inline
/// (inside a pool worker, inside [`sequential_scope`], or on a
/// single-hardware-thread host).
pub fn is_inline() -> bool {
    INLINE_ONLY.with(|f| f.get()) || workers() <= 1
}

/// Run `f` with every [`par_map`] reached from this call stack forced onto
/// the calling thread, in input order — the reference execution the
/// determinism property tests compare the parallel pool against.
pub fn sequential_scope<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the flag on the way out, unwinding included.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            INLINE_ONLY.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(INLINE_ONLY.with(|flag| flag.replace(true)));
    f()
}

/// One round's work: called once for every task index below the width.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// The round word: bits 0..16 count residents checked in (this mask), bit
/// 16 is the open bit, the bits from [`GENERATION`] up are the generation
/// (47 bits: never wraps).
const CHECKED_IN: u64 = (1 << 16) - 1;
const OPEN: u64 = 1 << 16;
/// Shift of the generation in the round word.
const GENERATION: u32 = 17;

/// The process-wide resident pool.
///
/// Ordering: the owner's `Release` store that opens a round pairs with a
/// resident's `Acquire` check-in, which publishes the task, width and claim
/// counter to it; a resident's `Release` check-out pairs with the owner's
/// `Acquire` join, which publishes everything its tasks wrote.
struct Pool {
    /// Handles of the resident threads. Holding this lock *is* owning the
    /// pool for one round. Residents are never joined: they live as long as
    /// the process, and every task's panic is caught before it can end one.
    residents: Mutex<Vec<Thread>>,
    /// The round word (generation | open | checked-in count).
    state: AtomicU64,
    /// The open round's task, lifetime-erased; `None` between rounds.
    task: Mutex<Option<&'static Task<'static>>>,
    /// The open round's task count.
    width: AtomicUsize,
    /// The next unclaimed task index.
    next: AtomicUsize,
    /// The round's first panic payload.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

static POOL: Pool = Pool {
    residents: Mutex::new(Vec::new()),
    state: AtomicU64::new(0),
    task: Mutex::new(None),
    width: AtomicUsize::new(0),
    next: AtomicUsize::new(0),
    panic: Mutex::new(None),
};

/// Lock `m`, ignoring poison: nothing the pool guards is left half-written
/// by a panic (tasks run under `catch_unwind`, outside every pool lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `task(k)` for every `k < width`, each exactly once, on the resident
/// pool with the calling thread as worker 0, and return once all have run.
/// Inline on the calling thread when the width is 1 or another thread's
/// round holds the pool. A panicking task is re-raised here with its own
/// payload after the round is joined.
fn fan_out(width: usize, task: &Task<'_>) {
    let inline = || sequential_scope(|| (0..width).for_each(task));
    if width <= 1 {
        return inline();
    }
    POOL_WORKERS.set(width as f64);
    let mut residents = match POOL.residents.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => return inline(),
    };
    assert!(
        width <= CHECKED_IN as usize,
        "fan-out wider than the round word"
    );
    while residents.len() + 1 < width {
        let k = residents.len() + 1;
        let handle = std::thread::Builder::new()
            .name(format!("pmstack-exec-{k}"))
            .spawn(resident)
            .expect("spawn exec worker");
        residents.push(handle.thread().clone());
    }
    POOL_FANOUTS.inc();

    // SAFETY: the `'static` task is stored only in `POOL.task`, read only by
    // a resident that checked in to this open round. `Round`'s `Drop` closes
    // the round, waits until every checked-in resident has checked out and
    // clears the slot before this frame (and the borrow of `task`) can end,
    // on return and on unwind alike; the next round is published only by
    // the next owner of `residents`, after that.
    let task: &'static Task<'static> =
        unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
    *lock(&POOL.task) = Some(task);
    POOL.width.store(width, Ordering::Relaxed);
    // Task 0 is the caller's own: a loop that fans out every iteration
    // keeps each chunk's data in the same core's cache.
    POOL.next.store(1, Ordering::Relaxed);
    let round = Round::open();
    for thread in &residents[..width - 1] {
        thread.unpark();
    }
    sequential_scope(|| {
        run_task(task, 0);
        run_claimed(task);
    });
    drop(round);
    let payload = lock(&POOL.panic).take();
    drop(residents);
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// An open round; dropping it closes and joins it.
struct Round;

impl Round {
    fn open() -> Self {
        let generation = (POOL.state.load(Ordering::Relaxed) >> GENERATION) + 1;
        POOL.state
            .store((generation << GENERATION) | OPEN, Ordering::Release);
        Round
    }
}

impl Drop for Round {
    fn drop(&mut self) {
        POOL.state.fetch_and(!OPEN, Ordering::AcqRel);
        let mut polls = 0u32;
        while POOL.state.load(Ordering::Acquire) & CHECKED_IN != 0 {
            // A checked-in resident is running a task, not parked; it is
            // only ever late by a preemption.
            if polls < 1 << 12 {
                std::hint::spin_loop();
                polls += 1;
            } else {
                std::thread::yield_now();
            }
        }
        *lock(&POOL.task) = None;
    }
}

/// Claim and run task indices until the round has none left.
fn run_claimed(task: &Task<'_>) {
    let width = POOL.width.load(Ordering::Relaxed);
    loop {
        let k = POOL.next.fetch_add(1, Ordering::Relaxed);
        if k >= width {
            return;
        }
        run_task(task, k);
    }
}

/// Run task `k`, keeping the round's first panic payload.
fn run_task(task: &Task<'_>, k: usize) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(k))) {
        lock(&POOL.panic).get_or_insert(payload);
    }
}

/// A resident worker's life: wait for a round it has not served, check in,
/// run claimed tasks, check out.
fn resident() {
    INLINE_ONLY.with(|flag| flag.set(true));
    let mut served = 0;
    loop {
        let word = next_round(served);
        if POOL
            .state
            .compare_exchange_weak(word, word + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        served = word >> GENERATION;
        let task = lock(&POOL.task).expect("an open round has a task");
        run_claimed(task);
        POOL.state.fetch_sub(1, Ordering::Release);
    }
}

/// The round word of the next open round of a generation other than
/// `served`: polled for [`SPIN`], then waited for parked.
fn next_round(served: u64) -> u64 {
    let start = Instant::now();
    let mut spinning = true;
    let mut polls = 0u32;
    loop {
        let word = POOL.state.load(Ordering::Acquire);
        if word & OPEN != 0 && word >> GENERATION != served {
            return word;
        }
        if spinning {
            // A few polls back to back, then yielding ones: a resident woken
            // onto its owner's core must hand the core back, not spin on it
            // until the owner's time slice comes round again.
            polls += 1;
            if polls < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
                spinning = start.elapsed() < SPIN;
            }
        } else {
            // The owner unparks after publishing, and an unpark that lands
            // before this park makes it return at once: no lost wake-up.
            std::thread::park();
        }
    }
}

/// Split `items` into blocks of `block_len` and run `f(block_index, block)`
/// for each block as one task of a round.
fn fan_out_blocks<T, F>(items: &mut [T], block_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let blocks: Vec<Mutex<&mut [T]>> = items.chunks_mut(block_len).map(Mutex::new).collect();
    fan_out(blocks.len(), &|k| f(k, &mut lock(&blocks[k])));
}

/// Map `f` over `items` on the work-stealing pool, returning results in
/// input order. Falls back to a plain sequential map when the pool would
/// not help (one worker, one item, or already inside the pool).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but `f` also receives the item's index — the hook the
/// stack uses to derive deterministic per-item seeds.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_min_workers(items, 1, f)
}

/// Like [`par_map_indexed`], but runs at least `min_workers` workers even
/// when the host exposes fewer hardware threads (still capped by the item
/// count, and still inline inside [`sequential_scope`] or a pool worker).
/// The resident pool grows to the widest width ever asked for.
///
/// Coarse-grained callers — the replicate sweep fans out whole simulation
/// runs of milliseconds each — use this to keep the work-stealing path (and
/// its metrics) exercised on single-core hosts, where timesharing two
/// workers costs nothing at that granularity.
pub fn par_map_indexed_min_workers<T, R, F>(items: &[T], min_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let w = workers().max(min_workers).min(n);
    // Note: not `is_inline()` — that also folds in the single-core fallback,
    // which `min_workers` exists to override. Only the thread-local flag
    // (inside a worker or a `sequential_scope`) forces the inline path.
    if w <= 1 || INLINE_ONLY.with(|flag| flag.get()) {
        PAR_MAP_INLINE.inc();
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    PAR_MAP_CALLS.inc();

    // Block-distribute item indices; worker `me` drains its own block from
    // the front and steals the back half of a victim's remaining block.
    let queues: Vec<BlockQueue> = (0..w)
        .map(|k| {
            let lo = k * n / w;
            let hi = (k + 1) * n / w;
            BlockQueue(Mutex::new((lo..hi).collect()))
        })
        .collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    fan_out(w, &|me| loop {
        // Own queue first (front: preserves block locality)…
        let mine = lock(&queues[me].0).pop_front();
        let idx = match mine {
            Some(i) => i,
            // …then steal the back half of the first non-empty victim,
            // keeping one item for the victim itself.
            None => match steal(&queues, me) {
                Some(i) => i,
                None => break,
            },
        };
        let out = f(idx, &items[idx]);
        *lock(&slots[idx]) = Some(out);
    });
    TASKS_EXECUTED.add(n as u64);

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every item mapped")
        })
        .collect()
}

/// One worker's block of item indices, alone on its cache lines: a worker
/// locks its own queue for every item, and two queues sharing a line would
/// bounce it between cores on every pop.
#[repr(align(128))]
struct BlockQueue(Mutex<VecDeque<usize>>);

/// Steal work for worker `me`: move the back half of the first non-empty
/// victim queue (scanning round-robin from `me + 1`) onto `me`'s queue and
/// return one stolen index to run immediately.
fn steal(queues: &[BlockQueue], me: usize) -> Option<usize> {
    let w = queues.len();
    for off in 1..w {
        let victim = (me + off) % w;
        let mut stolen: VecDeque<usize> = {
            let mut q = lock(&queues[victim].0);
            let keep = q.len().div_ceil(2);
            if q.len() <= keep && q.len() <= 1 {
                continue;
            }
            q.split_off(keep)
        };
        let first = stolen.pop_front();
        if first.is_some() {
            TASKS_STOLEN.add(1 + stolen.len() as u64);
        }
        if !stolen.is_empty() {
            let mut mine = lock(&queues[me].0);
            debug_assert!(mine.is_empty());
            *mine = stolen;
        }
        if first.is_some() {
            return first;
        }
    }
    // Nothing left anywhere with >1 item; drain stragglers (queues holding
    // exactly one item whose owner is busy with a long task).
    for off in 1..w {
        let victim = (me + off) % w;
        if let Some(i) = lock(&queues[victim].0).pop_back() {
            TASKS_STOLEN.inc();
            return Some(i);
        }
    }
    None
}

/// Apply `f` to each element of `items` in parallel, in place. The slice is
/// split into one contiguous block per worker (no stealing: mutable access
/// precludes moving items between workers without extra synchronization,
/// and the callers — bank segment chunks, balancer shards — arrive already
/// balanced).
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let w = workers().min(n);
    if w <= 1 || INLINE_ONLY.with(|fl| fl.get()) {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(w);
    fan_out_blocks(items, chunk, |k, block| {
        for (j, item) in block.iter_mut().enumerate() {
            f(k * chunk + j, item);
        }
    });
    TASKS_EXECUTED.add(n as u64);
}

/// Apply `f` to contiguous chunks of `items` of exactly `chunk_len` elements
/// (the final chunk may be shorter), fanned across the pool. `f` receives the
/// chunk's base index into `items` plus the mutable chunk itself.
///
/// This is the segment-aligned fan-out the controller's per-host
/// accumulators use: by fixing the chunk boundary to a caller-chosen stride
/// (the bank's segment size) instead of deriving it from the worker count,
/// per-chunk state stays congruent with per-segment state no matter how
/// many workers the host exposes. Chunks are grouped into one batch per
/// worker; within a batch chunks run in order on one thread, so elementwise
/// updates stay deterministic.
pub fn par_chunks_mut<T, F>(items: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be at least 1");
    let n = items.len();
    if n == 0 {
        return;
    }
    let chunks = n.div_ceil(chunk_len);
    let w = workers().min(chunks);
    if w <= 1 || INLINE_ONLY.with(|fl| fl.get()) {
        for (k, block) in items.chunks_mut(chunk_len).enumerate() {
            f(k * chunk_len, block);
        }
        return;
    }
    // One batch of whole chunks per worker; a batch boundary is always a
    // chunk boundary.
    let batch = chunks.div_ceil(w) * chunk_len;
    fan_out_blocks(items, batch, |b, block| {
        for (k, chunk) in block.chunks_mut(chunk_len).enumerate() {
            f(b * batch + k * chunk_len, chunk);
        }
    });
    TASKS_EXECUTED.add(chunks as u64);
}

/// Observability: jobs executed by service-pool workers.
static SERVICE_EXECUTED: StaticCounter = StaticCounter::new("exec.service.executed");
/// Observability: jobs rejected because the service queue was full.
static SERVICE_REJECTED: StaticCounter = StaticCounter::new("exec.service.rejected");
/// Observability: service jobs that panicked (caught; the worker survives).
static SERVICE_PANICS: StaticCounter = StaticCounter::new("exec.service.panics");

/// A boxed unit of service work.
pub type ServiceJob = Box<dyn FnOnce() + Send + 'static>;

/// Error of [`ServicePool::try_execute`]: the bounded queue is full (or the
/// pool is shutting down) — the caller sheds load instead of blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceFull;

impl std::fmt::Display for ServiceFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("service queue full")
    }
}

impl std::error::Error for ServiceFull {}

struct ServiceState {
    queue: VecDeque<ServiceJob>,
    open: bool,
}

struct ServiceShared {
    state: Mutex<ServiceState>,
    ready: std::sync::Condvar,
    capacity: usize,
}

/// A long-lived worker pool with a *bounded* submission queue — the serving
/// counterpart of [`par_map`]. Where `par_map` fans a known batch out and
/// joins, a `ServicePool` accepts work that arrives over time (the daemon's
/// connections) and pushes back when it cannot keep up: [`Self::try_execute`]
/// fails immediately once `capacity` jobs are queued, which the HTTP server
/// turns into a `503` instead of an unbounded backlog.
///
/// Workers run with the inline flag set, so a [`par_map`] reached from a
/// service job runs sequentially (same no-nested-oversubscription rule as
/// the batch pool). A panicking job is caught and counted; the worker
/// survives, because one bad request must not shrink the pool.
pub struct ServicePool {
    shared: std::sync::Arc<ServiceShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServicePool {
    /// A pool of `workers` threads behind a queue of at most `capacity`
    /// pending jobs (both at least 1).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        let shared = std::sync::Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                open: true,
            }),
            ready: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pmstack-svc-{k}"))
                    .spawn(move || {
                        INLINE_ONLY.with(|flag| flag.set(true));
                        loop {
                            let job = {
                                let mut st = shared.state.lock().expect("service state poisoned");
                                loop {
                                    if let Some(job) = st.queue.pop_front() {
                                        break Some(job);
                                    }
                                    if !st.open {
                                        break None;
                                    }
                                    st = shared.ready.wait(st).expect("service state poisoned");
                                }
                            };
                            let Some(job) = job else { return };
                            SERVICE_EXECUTED.inc();
                            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err()
                            {
                                SERVICE_PANICS.inc();
                            }
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (racy; diagnostics only).
    pub fn queue_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service state poisoned")
            .queue
            .len()
    }

    /// Enqueue `job` if the queue has room. Never blocks: a full (or
    /// closing) queue returns [`ServiceFull`] so the caller can shed load.
    pub fn try_execute(&self, job: ServiceJob) -> Result<(), ServiceFull> {
        let mut st = self.shared.state.lock().expect("service state poisoned");
        if !st.open || st.queue.len() >= self.shared.capacity {
            drop(st);
            SERVICE_REJECTED.inc();
            return Err(ServiceFull);
        }
        st.queue.push_back(job);
        drop(st);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Stop accepting work, run everything already queued, and join the
    /// workers. Called by `Drop` as well, so letting the pool fall out of
    /// scope is a clean shutdown.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.open = false;
        }
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_passes_true_indices() {
        let items = vec!["a"; 257];
        let out = par_map_indexed(&items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_work() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_equals_sequential_scope() {
        let items: Vec<u64> = (0..500).collect();
        // A mildly irregular cost profile so stealing actually happens on
        // multi-core hosts.
        let f = |&x: &u64| -> u64 {
            let mut acc = x;
            for _ in 0..(x % 97) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let par = par_map(&items, f);
        let seq = sequential_scope(|| par_map(&items, f));
        assert_eq!(par, seq);
    }

    #[test]
    fn nested_par_map_runs_inline() {
        let outer: Vec<usize> = (0..8).collect();
        let depth_hits = AtomicUsize::new(0);
        let out = par_map(&outer, |&i| {
            // Inside a worker (or on a 1-core host) this must not spawn.
            assert!(workers() <= 1 || is_inline());
            let inner: Vec<usize> = (0..4).collect();
            depth_hits.fetch_add(1, Ordering::Relaxed);
            par_map(&inner, |&j| i * 10 + j)
        });
        assert_eq!(depth_hits.load(Ordering::Relaxed), 8);
        assert_eq!(out[3], vec![30, 31, 32, 33]);
    }

    #[test]
    fn sequential_scope_restores_flag() {
        assert!(!INLINE_ONLY.with(|f| f.get()));
        sequential_scope(|| {
            assert!(is_inline());
        });
        assert!(!INLINE_ONLY.with(|f| f.get()));
    }

    #[test]
    fn par_for_each_mut_touches_every_item_once() {
        let mut items = vec![0u64; 1003];
        par_for_each_mut(&mut items, |i, x| *x = i as u64 + 1);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u64 + 1);
        }
    }

    #[test]
    fn steal_leaves_no_item_behind_under_imbalance() {
        // Front-loaded cost: worker 0's block is 100x the others', so on a
        // multi-core host the rest must steal to finish.
        let items: Vec<u64> = (0..256).collect();
        let out = par_map(&items, |&x| {
            let spin = if x < 32 { 20_000 } else { 200 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            x + 1
        });
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
    }

    #[test]
    fn workers_is_at_least_one() {
        assert!(workers() >= 1);
    }

    /// Outside input: zero, garbage and widths the round word cannot count
    /// all come back inside `1..=65535`, so no fan-out trips its width
    /// assertion. Pure parsing: no pool is started.
    #[test]
    fn pool_width_from_the_environment_is_clamped() {
        for (value, width) in [
            ("0", 1),
            ("1", 1),
            ("four", 1),
            (" 3 ", 3),
            ("65535", 65535),
            ("65536", 65535),
            ("1000000000", 65535),
        ] {
            assert_eq!(threads_from_env(value), width, "PMSTACK_THREADS={value:?}");
        }
        assert_eq!(CHECKED_IN as usize, 65535);
    }

    #[test]
    fn par_chunks_mut_sees_aligned_bases_and_full_coverage() {
        for (n, chunk_len) in [
            (0usize, 4usize),
            (1, 4),
            (9, 4),
            (12, 4),
            (5, 8),
            (1003, 64),
        ] {
            let mut items = vec![0u64; n];
            par_chunks_mut(&mut items, chunk_len, |base, block| {
                assert_eq!(base % chunk_len, 0, "chunk base must be stride-aligned");
                assert!(block.len() <= chunk_len);
                for (j, x) in block.iter_mut().enumerate() {
                    *x = (base + j) as u64 + 1;
                }
            });
            for (i, x) in items.iter().enumerate() {
                assert_eq!(*x, i as u64 + 1, "n={n} chunk_len={chunk_len} index {i}");
            }
        }
    }

    #[test]
    fn min_workers_spawns_pool_even_on_one_core() {
        pmstack_obs::enable();
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_indexed_min_workers(&items, 2, |i, &x| x * 2 + i as u64);
        let snap = pmstack_obs::snapshot();
        pmstack_obs::disable();
        assert_eq!(
            out,
            items.iter().map(|&x| x * 3).collect::<Vec<_>>(),
            "min-workers pool must preserve input order and indices"
        );
        assert!(snap.counter("exec.par_map.calls").unwrap_or(0) >= 1);
        assert!(snap.counter("exec.tasks.executed").unwrap_or(0) >= 64);
        // Other tests may race their own pools while the recorder is on, so
        // only assert the gauge saw a real pool (≥ the minimum we forced).
        assert!(snap.gauge("exec.pool.workers").unwrap_or(0.0) >= 2.0);
    }

    #[test]
    fn min_workers_still_inline_inside_sequential_scope() {
        let items: Vec<u64> = (0..16).collect();
        let out = sequential_scope(|| {
            assert!(is_inline());
            par_map_indexed_min_workers(&items, 4, |_, &x| x + 1)
        });
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    fn panic_message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(payload) => payload
                .downcast::<String>()
                .map_or_else(|_| String::new(), |s| *s),
        }
    }

    fn caught<R>(f: impl FnOnce() -> R) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f))
            .err()
            .expect("the task's panic must reach the caller");
        panic_message(payload)
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_pool_survives() {
        let items: Vec<u64> = (0..64).collect();
        let message = caught(|| {
            par_map_indexed_min_workers(&items, 2, |i, &x| {
                assert_ne!(i, 37, "item 37 failed");
                x
            })
        });
        assert!(message.contains("item 37 failed"), "got {message:?}");
        let mut column = items.clone();
        let message = caught(|| par_for_each_mut(&mut column, |i, _| assert_ne!(i, 50, "item 50")));
        assert!(message.contains("item 50"), "got {message:?}");
        let message =
            caught(|| par_chunks_mut(&mut column, 8, |base, _| assert_ne!(base, 56, "chunk 56")));
        assert!(message.contains("chunk 56"), "got {message:?}");

        // The residents survived: the next fan-outs are whole and exact.
        let out = par_map_indexed_min_workers(&items, 2, |i, &x| x * 2 + i as u64);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        par_for_each_mut(&mut column, |i, x| *x = i as u64 + 1);
        assert_eq!(column, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn four_threads_fanning_out_at_once_each_get_exact_results() {
        // At most one of them owns the pool at a time; the others' rounds
        // run inline on their own threads.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for round in 0..200u64 {
                        let items: Vec<u64> = (0..50).collect();
                        let out = par_map_indexed_min_workers(&items, 2, |i, &x| x * t + i as u64);
                        let want: Vec<u64> = items.iter().map(|&x| x * (t + 1)).collect();
                        assert_eq!(out, want, "thread {t} round {round}");
                        let mut column = vec![0u64; 33];
                        par_for_each_mut(&mut column, |i, x| *x = i as u64 * t + round);
                        par_chunks_mut(&mut column, 4, |base, chunk| {
                            for (j, x) in chunk.iter_mut().enumerate() {
                                *x += (base + j) as u64;
                            }
                        });
                        let want: Vec<u64> = (0..33).map(|i| i * (t + 1) + round).collect();
                        assert_eq!(column, want, "thread {t} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_par_map_nested_in_a_par_for_each_mut_task_runs_inline() {
        let mut rows = vec![Vec::new(); 8];
        par_for_each_mut(&mut rows, |i, row| {
            assert!(is_inline(), "a task runs with the inline flag set");
            let task_thread = std::thread::current().id();
            let inner: Vec<usize> = (0..16).collect();
            *row = par_map(&inner, |&j| {
                assert_eq!(
                    std::thread::current().id(),
                    task_thread,
                    "nested map left its task"
                );
                i * 100 + j
            });
        });
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(*row, (0..16).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn min_workers_wider_than_workers_grows_the_pool_for_good() {
        let width = workers() + 2;
        let items: Vec<u64> = (0..width as u64 * 8).collect();
        // A round runs inline while another test's round holds the pool, so
        // ask until one of them has owned it at this width.
        for _ in 0..1000 {
            let out = par_map_indexed_min_workers(&items, width, |i, &x| x + i as u64);
            assert_eq!(out, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
            if lock(&POOL.residents).len() + 1 >= width {
                break;
            }
            std::thread::yield_now();
        }
        assert!(lock(&POOL.residents).len() + 1 >= width);
        // Narrower rounds after it leave the residents in place.
        let _ = par_map_indexed_min_workers(&items, 2, |_, &x| x);
        assert!(lock(&POOL.residents).len() + 1 >= width);
    }

    #[test]
    fn zero_and_one_items_on_every_entry_point() {
        let none: [u64; 0] = [];
        assert!(par_map(&none, |&x| x).is_empty());
        assert!(par_map_indexed(&none, |_, &x| x).is_empty());
        assert!(par_map_indexed_min_workers(&none, 4, |_, &x| x).is_empty());
        par_for_each_mut(&mut [] as &mut [u64], |_, _| unreachable!("no items"));
        par_chunks_mut(&mut [] as &mut [u64], 3, |_, _| unreachable!("no chunks"));

        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
        assert_eq!(par_map_indexed(&[7u64], |i, &x| x + i as u64), vec![7]);
        assert_eq!(
            par_map_indexed_min_workers(&[7u64], 4, |i, &x| x * 2 + i as u64),
            vec![14]
        );
        let mut one = [5u64];
        par_for_each_mut(&mut one, |i, x| *x += i as u64 + 1);
        par_chunks_mut(&mut one, 3, |base, chunk| chunk[0] += base as u64 + 10);
        assert_eq!(one, [16]);
    }

    #[test]
    fn sequential_scope_agrees_on_all_five_entry_points() {
        let items: Vec<u64> = (0..301).collect();
        let cost = |x: u64| -> u64 {
            let mut acc = x;
            for _ in 0..(x % 53) * 20 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let run = || {
            let a = par_map(&items, |&x| cost(x));
            let b = par_map_indexed(&items, |i, &x| cost(x) ^ i as u64);
            let c = par_map_indexed_min_workers(&items, 3, |i, &x| cost(x + i as u64));
            let mut d = items.clone();
            par_for_each_mut(&mut d, |i, x| *x = cost(*x) + i as u64);
            let mut e = items.clone();
            par_chunks_mut(&mut e, 7, |base, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = cost(*x) ^ (base + j) as u64;
                }
            });
            (a, b, c, d, e)
        };
        assert_eq!(run(), sequential_scope(run));
    }

    #[test]
    fn a_thousand_back_to_back_tiny_fan_outs() {
        let mut column = vec![0u64; 3];
        for round in 0..1000u64 {
            if round % 100 == 99 {
                // Long enough for the residents to stop polling and park.
                std::thread::sleep(SPIN * 4);
            }
            par_chunks_mut(&mut column, 1, |base, chunk| {
                chunk[0] += base as u64 + round
            });
            let out = par_map_indexed_min_workers(&[round, round + 1], 2, |i, &x| x + i as u64);
            assert_eq!(out, vec![round, round + 2]);
        }
        let rounds: u64 = (0..1000).sum();
        assert_eq!(column, vec![rounds, 1000 + rounds, 2000 + rounds]);
    }

    #[test]
    fn the_caller_returns_only_after_every_resident_checked_out() {
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let out = par_map_indexed_min_workers(&[0u64, 1], 2, |i, _| {
            started.fetch_add(1, Ordering::SeqCst);
            // Both items start before either ends (bounded: a busy pool
            // runs them one after the other on this thread)…
            let t = Instant::now();
            while started.load(Ordering::SeqCst) < 2 && t.elapsed() < Duration::from_secs(1) {
                std::hint::spin_loop();
            }
            // …and the one a resident took ends well after the caller's.
            if std::thread::current().id() != caller {
                std::thread::sleep(Duration::from_millis(50));
            }
            i as u64 + 10
        });
        assert_eq!(out, vec![10, 11]);
    }

    #[test]
    fn a_fan_out_beside_a_running_round_runs_inline() {
        use std::sync::mpsc;
        let (go, wait_go) = mpsc::channel::<()>();
        let (done, wait_done) = mpsc::channel::<Vec<u64>>();
        let other = std::thread::spawn(move || {
            wait_go.recv().expect("the round started");
            let out = par_map_indexed_min_workers(&[1u64, 2, 3], 2, |_, &x| x * 10);
            done.send(out).expect("the round is waiting");
        });
        let (go, wait_done) = (Mutex::new(go), Mutex::new(wait_done));
        // Item 0's task holds this round open until the other thread's
        // fan-out has finished; blocking on the pool would never finish.
        let seen = par_map_indexed_min_workers(&[0u64, 1], 2, |i, _| {
            (i == 0).then(|| {
                lock(&go).send(()).expect("the other thread waits");
                lock(&wait_done).recv_timeout(Duration::from_secs(5))
            })
        });
        other.join().expect("the other thread finished");
        assert_eq!(seen[0], Some(Ok(vec![10, 20, 30])));
    }

    #[test]
    fn service_pool_runs_every_accepted_job() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let pool = ServicePool::new(2, 64);
        assert_eq!(pool.workers(), 2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..40 {
            let hits = Arc::clone(&hits);
            pool.try_execute(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        pool.shutdown(); // drains the queue before joining
        assert_eq!(hits.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn service_pool_sheds_load_when_the_queue_is_full() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let pool = ServicePool::new(1, 1);
        let release = Arc::new(AtomicBool::new(false));
        // Occupy the single worker…
        let r = Arc::clone(&release);
        pool.try_execute(Box::new(move || {
            while !r.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        }))
        .unwrap();
        // …fill the one queue slot (the worker may or may not have picked
        // the blocker up yet, so allow one extra accepted job)…
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..8 {
            match pool.try_execute(Box::new(|| {})) {
                Ok(()) => accepted += 1,
                Err(ServiceFull) => rejected += 1,
            }
        }
        assert!(rejected >= 6, "bounded queue must reject overload");
        assert!(accepted <= 2);
        release.store(true, Ordering::Relaxed);
        pool.shutdown();
    }

    #[test]
    fn service_pool_survives_a_panicking_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let pool = ServicePool::new(1, 8);
        pool.try_execute(Box::new(|| panic!("bad request")))
            .unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        pool.try_execute(Box::new(move || r.store(true, Ordering::Relaxed)))
            .unwrap();
        pool.shutdown();
        assert!(ran.load(Ordering::Relaxed), "worker died with the panic");
    }

    #[test]
    fn service_pool_rejects_after_shutdown_begins() {
        let mut pool = ServicePool::new(1, 4);
        pool.shutdown_inner();
        assert_eq!(pool.try_execute(Box::new(|| {})), Err(ServiceFull));
    }

    #[test]
    fn service_jobs_run_with_par_map_inline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let pool = ServicePool::new(1, 4);
        let inline = Arc::new(AtomicBool::new(false));
        let i = Arc::clone(&inline);
        pool.try_execute(Box::new(move || i.store(is_inline(), Ordering::Relaxed)))
            .unwrap();
        pool.shutdown();
        assert!(
            inline.load(Ordering::Relaxed),
            "nested par_map on a service worker must run inline"
        );
    }
}
