//! A footprint guard for decoded kernels. A compiled program keeps its
//! kernels decoded for the simulator (`DecodedPlan`), and futharkd keeps
//! up to a cache's worth of compiled programs, so the decoded form must
//! stay no larger than the kernel trees it is decoded from. It can,
//! because a decoded kernel keeps its tapes in one form only, the
//! register form the warp engine runs. This binary's only test counts
//! heap bytes with a counting global allocator, on the test's own thread
//! only.

use futhark::Compiler;
use futhark_gpu::exec::DecodedPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The bound: decoded kernels take at most this many times the heap
/// bytes of their kernel trees (0.63x measured on the 16 paper programs,
/// where register reads emit no instruction and provenance markers are
/// folded into the statements they wrap).
const MAX_RATIO: f64 = 0.65;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Net bytes this thread allocated while counting.
    static NET: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            NET.with(|n| n.set(n.get() + delta));
        }
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the heap bytes it left allocated
/// on this thread.
fn net_bytes<R>(f: impl FnOnce() -> R) -> (R, i64) {
    NET.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, NET.with(Cell::get))
}

#[test]
fn decoded_kernels_take_no_more_heap_than_their_trees() {
    let (mut trees, mut decoded) = (0i64, 0i64);
    for b in futhark_bench::all_benchmarks() {
        let c = Compiler::new().compile(&b.source).expect("compiles");
        // Every kernel the plan's decode covers: the launch kernels and
        // the stage-2 fold kernels.
        let kernels = c.plan.kernels.iter().chain(&c.plan.folds);
        let (copy, t) = net_bytes(|| kernels.cloned().collect::<Vec<_>>());
        let (dp, d) = net_bytes(|| DecodedPlan::decode(&c.plan).expect("decodes"));
        assert_eq!(dp.kernels().len() + dp.folds().len(), copy.len());
        eprintln!(
            "{:>14}: {:>2} kernels, trees {t:>6} B, decoded {d:>6} B ({:.2}x)",
            b.name,
            copy.len(),
            d as f64 / t as f64
        );
        trees += t;
        decoded += d;
    }
    let ratio = decoded as f64 / trees as f64;
    eprintln!("total: trees {trees} B, decoded {decoded} B ({ratio:.2}x)");
    assert!(trees > 0);
    assert!(
        ratio <= MAX_RATIO,
        "decoded kernels take {ratio:.2}x the heap bytes of their trees \
         ({decoded} vs {trees} B); the bound is {MAX_RATIO}x"
    );
}
