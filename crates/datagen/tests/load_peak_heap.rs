//! Peak heap of a `.bin` load, measured by a counting global allocator.
//!
//! Loading a `.bin` graph streams the file through the builder, which
//! frees each input as soon as its output exists, so the load's peak live
//! heap stays within 1.5× the heap the loaded graph keeps. The count is
//! exact and deterministic, unlike a process's RSS. This file is its own
//! test binary so the allocator counts nothing else.

use datagen::SyntheticConfig;
use kgraph::store::{load_graph, save_graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
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

#[test]
fn bin_load_peaks_within_one_and_a_half_times_the_kept_graph() {
    let path = std::env::temp_dir().join(format!("datagen-peak-{}.bin", std::process::id()));
    let config = SyntheticConfig { num_entities: 3000, seed: 1, ..SyntheticConfig::wiki2017_sim() };
    save_graph(&config.generate().graph, &path).unwrap();

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let store = load_graph(&path).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let kept = LIVE.load(Ordering::Relaxed) - base;
    let _ = std::fs::remove_file(&path);

    assert_eq!(store.graph().num_nodes(), 3000 + config.num_classes);
    let ratio = peak as f64 / kept as f64;
    eprintln!("peak {peak} B, kept {kept} B, ratio {ratio:.2}");
    assert!(
        ratio <= 1.5,
        "load peaked at {peak} B, {ratio:.2}× the {kept} B the graph keeps"
    );
}
