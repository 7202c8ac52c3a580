//! Benchmark-side tracing: spans recorded around each call into a layer,
//! kept in memory and written once at the end as Chrome trace-event JSON
//! (loadable in `chrome://tracing` or Perfetto), plus the counting
//! allocator behind `engine.alloc_bytes_per_window`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One closed span: `[start, end)` in seconds from the tracer's origin.
struct Span {
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    req: Option<u64>,
}

/// In-memory span store. A disabled tracer records nothing, so the same
/// code path serves the untraced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; `parent` and `req` link it to its cause and request.
    pub fn begin(&mut self, name: &str, parent: SpanId, req: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: parent.0,
            req,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// The root (no parent) handle.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Renders every span as Chrome trace-event JSON (complete events,
    /// microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {req}}}}}{}\n",
                s.name.replace('"', "'"),
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Global allocator that counts bytes requested while counting is on. It
/// forwards to the system allocator; only traced windows switch counting
/// on, so untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts heap bytes requested (on every thread) while `f` runs.
pub fn count_alloc_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTED_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, COUNTED_BYTES.load(Ordering::Relaxed))
}
