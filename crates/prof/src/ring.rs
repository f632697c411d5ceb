//! Per-thread event buffers.
//!
//! Each tracing thread owns one bounded buffer behind its own mutex, so
//! the record path never contends with other threads — the only other
//! party that ever takes a thread's lock is the exporter at snapshot time
//! ("lock-light": an uncontended lock/unlock pair per event, plus one
//! global registry lock on a thread's *first* event only). Buffers are
//! bounded (`X2V_TRACE_CAP` events per thread, default 65 536); once full,
//! further events are counted as dropped rather than reallocating without
//! bound inside an instrumented hot path.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread event capacity.
const DEFAULT_CAP: usize = 65_536;

/// Event phase, mirroring the Chrome Trace Event `ph` values we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Span opened (`"B"`).
    Begin,
    /// Span closed (`"E"`).
    End,
    /// Point event (`"i"`).
    Instant,
}

/// One recorded event. `alloc_bytes`/`allocs` carry the allocation delta
/// attributed to the span (End events only; zero elsewhere or when
/// allocation counting is off).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub ts_ns: u64,
    pub name: &'static str,
    pub phase: Phase,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

pub(crate) struct ThreadBuf {
    pub tid: u32,
    pub events: Mutex<Vec<Event>>,
    pub dropped: AtomicU64,
}

static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static CAP: LazyLock<usize> = LazyLock::new(|| {
    std::env::var("X2V_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c: &usize| c > 0)
        .unwrap_or(DEFAULT_CAP)
});

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<Arc<ThreadBuf>>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Nanoseconds since the trace epoch (the first event of the process).
pub(crate) fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        lock_registry().push(Arc::clone(&buf));
        buf
    };
}

/// Records one event on the calling thread's buffer.
pub(crate) fn record(event: Event) {
    // try_with: a thread mid-teardown silently drops its events instead of
    // panicking inside a Drop impl.
    let _ = LOCAL.try_with(|buf| {
        let mut events = buf.events.lock().unwrap_or_else(|p| p.into_inner());
        if events.len() < *CAP {
            if events.is_empty() && events.capacity() == 0 {
                // First event: one amortised reservation instead of
                // repeated doubling while tracing a hot path.
                events.reserve(1024.min(*CAP));
            }
            events.push(event);
        } else {
            drop(events);
            buf.dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Snapshots every thread buffer: `(tid, events)` pairs sorted by tid,
/// plus the total number of dropped events.
pub(crate) fn snapshot() -> (Vec<(u32, Vec<Event>)>, u64) {
    let registry = lock_registry();
    let mut out = Vec::with_capacity(registry.len());
    let mut dropped = 0;
    for buf in registry.iter() {
        let events = buf.events.lock().unwrap_or_else(|p| p.into_inner());
        out.push((buf.tid, events.clone()));
        dropped += buf.dropped.load(Ordering::Relaxed);
    }
    out.sort_by_key(|(tid, _)| *tid);
    (out, dropped)
}

/// Clears all recorded events and drop counts (for tests).
pub(crate) fn reset() {
    let registry = lock_registry();
    for buf in registry.iter() {
        buf.events.lock().unwrap_or_else(|p| p.into_inner()).clear();
        buf.dropped.store(0, Ordering::Relaxed);
    }
}

/// Serialises the unit tests that record into, reset or snapshot the
/// process-global registry: run in parallel, one test's `reset` wiped
/// another's events between its `record` and its `snapshot`.
#[cfg(test)]
pub(crate) fn registry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase) -> Event {
        Event {
            ts_ns: now_ns(),
            name,
            phase,
            alloc_bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn events_record_in_order_with_monotone_ts() {
        let _serial = registry_test_lock();
        reset();
        record(ev("a", Phase::Begin));
        record(ev("a", Phase::End));
        let (threads, dropped) = snapshot();
        assert_eq!(dropped, 0);
        let mine: Vec<_> = threads
            .iter()
            .flat_map(|(_, evs)| evs.iter())
            .filter(|e| e.name == "a")
            .collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].ts_ns <= mine[1].ts_ns);
        reset();
    }

    #[test]
    fn distinct_threads_get_distinct_tids() {
        let _serial = registry_test_lock();
        reset();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    record(ev("t", Phase::Instant));
                    LOCAL.with(|b| b.tid)
                })
            })
            .collect();
        let mut tids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread must own a unique tid");
        reset();
    }
}
