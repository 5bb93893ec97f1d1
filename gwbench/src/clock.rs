//! The benchmark's own instruments: process CPU time, a counting
//! allocator, and a monotonic nanosecond clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, so a second busy thread shows up even when wall time does not.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds consumed so far by all threads of this process.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` laid out as glibc's on
    // 64-bit Linux (two i64 fields), and clock_gettime writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation on any thread.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (alloc, alloc_zeroed, realloc) made so far, all threads.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Wall, CPU and allocation readings at one instant.
#[derive(Clone, Copy)]
pub struct Mark {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
}

/// What a region between two [`Mark`]s cost.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub allocs: u64,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            allocs: allocs(),
            cpu_ns: process_cpu_ns(),
            wall_ns: now_ns(),
        }
    }

    pub fn cost(self) -> Cost {
        let wall_ns = now_ns();
        let cpu_ns = process_cpu_ns();
        Cost {
            wall_ns: (wall_ns - self.wall_ns).max(1),
            cpu_ns: cpu_ns - self.cpu_ns,
            allocs: allocs() - self.allocs,
        }
    }
}
