//! A counting global allocator: every allocation and reallocation bumps
//! one process-wide counter, so a span can report how many allocations
//! happened inside it. Also the allocator's tunables and the process's
//! peak memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::c_int;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; the counter is a statistic only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by the process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

extern "C" {
    /// glibc's `mallopt(3)`.
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// `M_TRIM_THRESHOLD`: free memory at the top of the heap kept before
/// it is returned to the kernel.
const M_TRIM_THRESHOLD: c_int = -1;

/// `M_MMAP_THRESHOLD`: allocations at least this large get their own
/// mapping.
const M_MMAP_THRESHOLD: c_int = -3;

/// Fixes glibc's trim and mmap thresholds. By default glibc raises both
/// as large blocks are freed, so whether a later allocation reuses
/// memory already faulted in, or maps and faults fresh pages, depends
/// on everything the process freed before. Set-up time then differed
/// by up to 2x between processes doing the same work. Fixed thresholds
/// (keep freed memory; map only blocks of 32 MiB and more) make a
/// pass's cost independent of what ran before it.
pub fn fix_malloc_thresholds() {
    // SAFETY: `mallopt` only adjusts allocator tunables; it is called
    // before any other thread exists, and with values glibc accepts
    // (32 MiB is its largest mmap threshold on 64-bit targets).
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
