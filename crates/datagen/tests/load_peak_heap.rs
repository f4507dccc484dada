//! Peak heap and allocation count of a graph load, measured by a
//! counting global allocator.
//!
//! Loading a `.bin` or `.tsv` graph streams the file through the builder,
//! which frees each input as soon as its output exists, so the load's
//! peak live heap stays within 1.5× the heap the loaded graph keeps. The
//! builder keeps its strings in arenas, so a `.bin` load makes a number of
//! allocations that does not grow with the node count. The counts are
//! exact and deterministic, unlike a process's RSS. This file is its own
//! test binary so the allocator counts nothing else, and its tests take
//! turns.

use datagen::SyntheticConfig;
use kgraph::store::{load_graph, save_graph};
use kgraph::GraphStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations (not reallocations) made on a thread whose `COUNTING` is set.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn allocated(bytes: usize) {
    grow(bytes);
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is forwarded as is.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is forwarded as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one load of a saved graph cost.
struct Load {
    store: GraphStore,
    /// Peak live heap during the load, above the heap before it.
    peak: usize,
    /// Live heap after the load, above the heap before it: the graph.
    kept: usize,
    /// Allocations the loading thread made.
    allocs: usize,
}

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn config() -> SyntheticConfig {
    SyntheticConfig { num_entities: 3000, seed: 1, ..SyntheticConfig::wiki2017_sim() }
}

/// Save the graph as `.<ext>` and load it back, while no other test
/// allocates.
fn measured_load(ext: &str) -> Load {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!("datagen-peak-{}.{ext}", std::process::id()));
    save_graph(&config().generate().graph, &path).unwrap();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let store = load_graph(&path).unwrap();
    COUNTING.with(|c| c.set(false));
    let load = Load {
        peak: PEAK.load(Ordering::Relaxed) - base,
        kept: LIVE.load(Ordering::Relaxed) - base,
        allocs: ALLOCS.load(Ordering::Relaxed),
        store,
    };
    let _ = std::fs::remove_file(&path);
    assert_eq!(load.store.graph().num_nodes(), 3000 + config().num_classes);
    load
}

fn assert_peak_within_one_and_a_half(ext: &str) {
    let Load { peak, kept, .. } = measured_load(ext);
    let ratio = peak as f64 / kept as f64;
    eprintln!("{ext}: peak {peak} B, kept {kept} B, ratio {ratio:.2}");
    assert!(
        ratio <= 1.5,
        "{ext} load peaked at {peak} B, {ratio:.2}× the {kept} B the graph keeps"
    );
}

#[test]
fn bin_load_peaks_within_one_and_a_half_times_the_kept_graph() {
    assert_peak_within_one_and_a_half("bin");
}

#[test]
fn tsv_load_peaks_within_one_and_a_half_times_the_kept_graph() {
    assert_peak_within_one_and_a_half("tsv");
}

#[test]
fn bin_load_allocations_do_not_scale_with_nodes() {
    let load = measured_load("bin");
    let nodes = load.store.graph().num_nodes();
    eprintln!("bin: {} allocations for {nodes} nodes", load.allocs);
    assert!(
        load.allocs * 100 <= nodes,
        "{} allocations loading {nodes} nodes: more than one per 100 nodes",
        load.allocs
    );
}
