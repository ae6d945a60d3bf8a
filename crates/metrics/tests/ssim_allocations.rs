//! Allocation budget of the SSIM sweep. Once a thread has scored one image
//! pair, scoring another pair of that size allocates fewer bytes than one
//! `width * height` plane of `f64`, through every entry point: the sweep
//! keeps a few rows per statistic and never copies an input or writes a
//! blurred plane.
//!
//! A counting global allocator tallies the bytes each thread asks for. It
//! lives in this test binary of its own, so nothing else is counted.

use decamouflage_imaging::Image;
use decamouflage_metrics::{ssim, SsimConfig, SsimReference};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has asked the allocator for, growth included.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A const-initialised `Cell` has no destructor, so this never fails;
    // `try_with` keeps the allocator total even during thread teardown.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

/// [`System`], counting the size of every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the current thread allocates while running `work`.
fn allocated_by(work: &dyn Fn()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    work();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn ssim_scores_allocate_less_than_one_plane_after_a_warm_up() {
    let texture = |x: usize, y: usize| {
        128.0 + 80.0 * ((x as f64) * 0.3).sin() + 40.0 * ((y as f64) * 0.2).cos()
    };
    let gray = Image::from_fn_gray(448, 448, texture);
    let rgb = Image::from_fn_rgb(160, 160, |x, y| {
        let v = texture(x, y);
        [v, 255.0 - v, (v * 0.5).round()]
    });
    let cfg = SsimConfig::default();
    for a in [&gray, &rgb] {
        let b = a.map(|v| (v * 0.9 + 7.0).min(255.0));
        let c = a.map(|v| 255.0 - v);
        let plane = a.width() * a.height() * std::mem::size_of::<f64>();
        let entries: [(&str, &dyn Fn()); 3] = [
            ("SsimReference::new + score_against", &|| {
                let reference = SsimReference::new(a, &cfg).unwrap();
                assert!(reference.score_against(&b).unwrap().is_finite());
            }),
            ("SsimReference::score_against_each, two candidates", &|| {
                let reference = SsimReference::new(a, &cfg).unwrap();
                let scores = reference.score_against_each(&[&b, &c]).unwrap();
                assert!(scores.iter().all(|s| s.is_finite()));
            }),
            ("ssim", &|| assert!(ssim(a, &b, &cfg).unwrap().is_finite())),
        ];
        for (name, entry) in entries {
            entry();
            let bytes = allocated_by(entry);
            assert!(
                bytes < plane,
                "{name} on {}x{} with {} channel(s) allocated {bytes} bytes after a warm-up; \
                 one f64 plane is {plane}",
                a.width(),
                a.height(),
                a.channel_count()
            );
        }
    }
}
