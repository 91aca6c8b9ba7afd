//! Zero-copy read guard: a snapshot's `get_class` hands out the rows its
//! partition already shares (`Arc<Instance>`), so reading an extent costs
//! a fixed handful of allocations — the result vector and the lookup
//! keys — whatever the extent's size. A per-row copy would add at least
//! one allocation per row (the class name, the attribute map, each
//! geometry), so equal counts at 100 and 2000 poles prove there is none.
//!
//! This test binary must stay single-test: the counting allocator is
//! process-global, and a parallel test allocating on another thread
//! would poison the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use geodb::gen::{phone_net_db, TelecomConfig};
use geodb::store::{DbSnapshot, DbStore};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A published snapshot of a `phone_net` network with about `poles`
/// poles.
fn snapshot(poles: usize) -> std::sync::Arc<DbSnapshot> {
    let (db, stats) = phone_net_db(&TelecomConfig::with_poles(poles)).expect("generate phone_net");
    assert!(stats.poles >= poles, "{} poles generated", stats.poles);
    DbStore::new(db).snapshot()
}

/// Allocations made by one `get_class` of the Pole extent (read and
/// dropped), plus the number of rows it returned.
fn pole_read_allocations(snap: &DbSnapshot) -> (u64, usize) {
    // Warm up: first use of any lazily-initialized state is allowed
    // to allocate; the claim is about the steady-state read.
    drop(
        snap.get_class("phone_net", "Pole", false)
            .expect("read poles"),
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = snap
        .get_class("phone_net", "Pole", false)
        .expect("read poles");
    let n = rows.len();
    drop(rows);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, n)
}

#[test]
fn get_class_allocations_do_not_grow_with_the_extent() {
    obs::set_enabled(false);
    obs::set_trace_sampling(0);

    let small = snapshot(100);
    let large = snapshot(2000);
    let (small_allocs, small_rows) = pole_read_allocations(&small);
    let (large_allocs, large_rows) = pole_read_allocations(&large);
    obs::set_enabled(true);

    assert!(small_rows >= 100 && large_rows >= 2000);
    assert_eq!(
        small_allocs, large_allocs,
        "get_class allocated {small_allocs} times for {small_rows} poles \
         but {large_allocs} times for {large_rows}: rows are being copied"
    );
    assert!(
        small_allocs <= 8,
        "get_class allocated {small_allocs} times; expected a small fixed count"
    );
}
