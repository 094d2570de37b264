//! Real memory measurements: a counting global allocator (live bytes,
//! peak live bytes, allocation count) and the kernel's peak resident set
//! (`VmHWM`), both resettable at the start of a measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System` plus three relaxed counters.
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Heap counters since the last [`reset_peaks`].
#[derive(Debug, Clone, Copy)]
pub struct HeapStats {
    pub peak_bytes: usize,
    pub allocations: u64,
}

pub fn heap() -> HeapStats {
    HeapStats {
        peak_bytes: PEAK.load(Ordering::Relaxed),
        allocations: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Hand freed heap pages back to the kernel, so that memory the
/// benchmark itself used before a measured region (corpus generation, the
/// reference run) does not sit in the resident set the region is charged
/// with.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restart both peaks from the current state: the heap peak from the
/// bytes live now, the resident peak (`VmHWM`) from the resident set now
/// (`/proc/self/clear_refs`, value 5).
pub fn reset_peaks() {
    trim_heap();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    // Best effort: without the reset the reading is the process-lifetime
    // peak, which can only over-report.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in bytes since the last reset (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
