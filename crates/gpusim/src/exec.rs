//! Host-side parallel execution of kernel bodies.
//!
//! Functional kernel execution is embarrassingly parallel over output
//! elements (each work item writes disjoint outputs). This module provides
//! the one primitive kernels need: run a function over disjoint index ranges
//! on the host's cores. Results are bit-identical to sequential execution
//! because ranges never overlap and the function is pure per range.
//!
//! The work runs on a lazily started, process-wide set of
//! [`host_threads`]` − 1` worker threads that every call reuses; the
//! calling thread always runs a share itself. Spawning fresh threads per
//! kernel call instead lets the allocator's per-thread arenas pile up as
//! threads come and go, so a long-running server's peak RSS grew with the
//! number of kernel calls it had made.
//!
//! A call queues one ticket per extra share. Every participant — the
//! caller and any worker that takes a ticket — claims work from the call
//! until none is left, so the caller never waits on a ticket no worker has
//! started: once its own share returns, it withdraws the unclaimed tickets
//! and waits only for the workers already inside the call. Concurrent
//! callers (serving lanes) and calls nested in a kernel body therefore
//! cannot deadlock. A panic in any share is re-raised on the calling
//! thread with its original payload.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock};
use std::thread::{self, Thread};

/// Number of host threads used for kernel bodies (the calling thread plus
/// the shared workers), fixed at first use.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether the host CPU has the POPCNT instruction, detected once per
/// process.
///
/// The x86-64 baseline ABI does not include POPCNT, so a plain build lowers
/// every `count_ones` to a multi-instruction bit-twiddling sequence. The
/// xor/and-popcount row drivers of `phonebit-nn` are compiled a second time
/// with the instruction enabled and take that copy when this returns
/// `true`. Other targets need no check: aarch64 lowers `count_ones` to its
/// native `cnt` in every build.
#[cfg(target_arch = "x86_64")]
pub fn host_popcnt() -> bool {
    static POPCNT: OnceLock<bool> = OnceLock::new();
    *POPCNT.get_or_init(|| std::arch::is_x86_feature_detected!("popcnt"))
}

/// One parallel call: the body every participant runs until the call's
/// work is claimed, and its completion count.
struct Job<'a> {
    body: &'a (dyn Fn() + Sync),
    /// Tickets queued or taken by workers and not yet finished.
    pending: AtomicUsize,
    caller: Thread,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Runs one share of the body, keeping the first panic payload.
    fn run_share(&self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(self.body)) {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
        }
    }
}

/// A queued share of a [`Job`] living on its caller's stack.
struct Ticket(*const Job<'static>);

// SAFETY: a ticket only points at a `Job` whose caller is blocked in
// `run_shared` until the ticket is withdrawn or finished, so the pointee
// outlives every use on another thread; `Job` itself is `Sync` (a `Sync`
// body, an atomic, a `Thread` handle and a mutex).
unsafe impl Send for Ticket {}

/// The shared workers' ticket queue.
struct Pool {
    queue: Mutex<VecDeque<Ticket>>,
    ready: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    ready: Condvar::new(),
};

/// The worker pool, started on first use.
fn pool() -> &'static Pool {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        // Workers live as long as the process and are never joined: every
        // share they run catches its own panic, so they never exit.
        for i in 1..host_threads() {
            thread::Builder::new()
                .name(format!("phonebit-host-{i}"))
                .spawn(|| worker(&POOL))
                .expect("cannot spawn a host worker thread");
        }
    });
    &POOL
}

fn lock_queue(pool: &Pool) -> MutexGuard<'_, VecDeque<Ticket>> {
    // Shares run outside the lock, so a poisoned queue is still consistent.
    pool.queue.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker(pool: &'static Pool) {
    loop {
        let ticket = {
            let mut queue = lock_queue(pool);
            loop {
                if let Some(ticket) = queue.pop_front() {
                    break ticket;
                }
                queue = pool.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: the job's caller cannot leave `run_shared` while this
        // ticket counts in `pending` (see `Ticket`).
        let job = unsafe { &*ticket.0 };
        job.run_share();
        // The job may be gone the moment `pending` drops: take what the
        // wake-up needs first.
        let caller = job.caller.clone();
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// Runs `body` on the calling thread and on up to `shares − 1` workers at
/// once. `body` must claim work from shared state until none is left, so
/// that any one participant can finish the call alone.
fn run_shared(shares: usize, body: &(dyn Fn() + Sync)) {
    let helpers = shares.min(host_threads()).saturating_sub(1);
    if helpers == 0 {
        body();
        return;
    }
    let job = Job {
        body,
        pending: AtomicUsize::new(helpers),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    // The tickets erase `job`'s lifetime. They are dereferenced only while
    // `job` is alive: this function withdraws or waits out every ticket
    // before returning, and unwinding cannot skip that (`run_share`
    // catches panics).
    let erased = (&job as *const Job<'_>).cast::<Job<'static>>();
    let pool = pool();
    {
        let mut queue = lock_queue(pool);
        queue.extend((0..helpers).map(|_| Ticket(erased)));
    }
    for _ in 0..helpers {
        pool.ready.notify_one();
    }
    job.run_share();
    // Every unit of work is claimed now; tickets still queued are stale.
    let withdrawn = {
        let mut queue = lock_queue(pool);
        let before = queue.len();
        queue.retain(|t| !std::ptr::eq(t.0, erased));
        before - queue.len()
    };
    if withdrawn > 0 {
        job.pending.fetch_sub(withdrawn, Ordering::AcqRel);
    }
    while job.pending.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    let panic = job.panic.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Runs `f` over `0..n` split into contiguous ranges across host threads.
///
/// `min_chunk` bounds splitting so tiny workloads stay sequential. `f` must
/// be safe to call concurrently on disjoint ranges.
pub fn par_for(n: usize, min_chunk: usize, f: impl Fn(Range<usize>) + Sync) {
    if n == 0 {
        return;
    }
    let chunk = (n.div_ceil(host_threads())).max(min_chunk.max(1));
    if chunk >= n {
        f(0..n);
        return;
    }
    let next = AtomicUsize::new(0);
    run_shared(n.div_ceil(chunk), &|| loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        f(start..(start + chunk).min(n));
    });
}

/// Runs `f` over mutable, equally-sized chunks of `out` in parallel, passing
/// the chunk index. The final chunk may be shorter.
///
/// This is the "each work item writes its own output rows" pattern: `out`
/// is split by `chunk_len` so no two threads alias. Work is handed out in
/// one contiguous run of chunks per host thread, so the dispatch allocates
/// nothing proportional to the chunk count (the engine's steady-state
/// zero-allocation contract extends through kernel bodies); results are
/// bit-identical to sequential execution either way.
pub fn par_chunks_mut<T: Send>(
    out: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n = out.len().div_ceil(chunk_len);
    let threads = host_threads();
    if n <= 1 || threads == 1 {
        for (i, c) in out.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    let per_share = n.div_ceil(threads);
    // The unclaimed tail of `out` and the index of its first chunk.
    let rest = Mutex::new((out, 0usize));
    run_shared(n.div_ceil(per_share), &|| loop {
        let (region, first_chunk) = {
            let mut rest = rest.lock().unwrap_or_else(|e| e.into_inner());
            let (tail, first_chunk) = &mut *rest;
            if tail.is_empty() {
                break;
            }
            let take = (per_share * chunk_len).min(tail.len());
            let (region, remainder) = std::mem::take(tail).split_at_mut(take);
            *tail = remainder;
            let first = *first_chunk;
            *first_chunk += per_share;
            (region, first)
        };
        for (j, c) in region.chunks_mut(chunk_len).enumerate() {
            f(first_chunk + j, c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_covers_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_is_noop() {
        par_for(0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn par_for_small_runs_sequential() {
        let sum = AtomicU64::new(0);
        par_for(10, 100, |range| {
            sum.fetch_add(range.map(|i| i as u64).sum(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0usize; 1000];
        par_chunks_mut(&mut data, 64, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx + 1;
            }
        });
        // Every element written exactly once with its chunk id.
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 64 + 1);
        }
    }

    #[test]
    fn par_chunks_matches_sequential() {
        let mut a = vec![0f32; 513];
        let mut b = vec![0f32; 513];
        let f = |idx: usize, chunk: &mut [f32]| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 1000 + off) as f32;
            }
        };
        par_chunks_mut(&mut a, 32, f);
        for (i, c) in b.chunks_mut(32).enumerate() {
            f(i, c);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "body panic 7")]
    fn worker_panic_keeps_its_payload() {
        let mut data = vec![0u32; 64];
        par_chunks_mut(&mut data, 1, |idx, _| {
            if idx == 7 {
                panic!("body panic {idx}");
            }
        });
    }

    #[test]
    fn calls_reuse_the_same_host_threads() {
        let seen = Mutex::new(std::collections::HashSet::new());
        for _ in 0..50 {
            par_for(64, 1, |_| {
                seen.lock().unwrap().insert(thread::current().id());
            });
        }
        // The caller plus at most `host_threads() - 1` shared workers, not a
        // fresh set of threads per call.
        assert!(seen.lock().unwrap().len() <= host_threads());
    }

    #[test]
    fn nested_and_concurrent_calls_complete() {
        let total = AtomicU64::new(0);
        thread::scope(|s| {
            for lane in 0..3u64 {
                let total = &total;
                s.spawn(move || {
                    par_for(8, 1, |outer| {
                        for _ in outer {
                            par_for(16, 1, |inner| {
                                total.fetch_add(inner.len() as u64 * (lane + 1), Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16 * (1 + 2 + 3));
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_panics() {
        let mut data = [0u8; 4];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }
}
