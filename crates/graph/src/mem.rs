//! Software-prefetch helpers for scatter/gather loops, and buffer-reuse
//! helpers for structures rebuilt on every update.
//!
//! The PRSim hot loops that are not bandwidth-bound are *latency*-bound:
//! each iteration probes one random slot of a large array (a dense
//! accumulator, a CSR offset table), and the hardware prefetcher cannot
//! predict the next address. When the index stream itself is sequential
//! — a postings run, a sorted touched list — the fix is to issue the
//! random probe a fixed distance ahead, so by the time the demand load
//! executes the line is in flight or resident.
//!
//! The helper is safe to call with any index: out-of-range lookahead
//! (the tail of every prefetch-ahead loop) is a no-op, and prefetch
//! itself never faults. On non-x86_64 targets it compiles to nothing.
//!
//! The dynamic engine refills the same graph, arena and snapshot
//! buffers on every edge update. `reserve_headroom` and
//! [`copy_reusing`] grow such a buffer rarely and in one step, so that
//! after warm-up an update reuses memory instead of allocating it.

/// Hints the CPU to pull `slice[i]`'s cache line toward L1. No-op when
/// `i` is out of range (lookahead tails) or off x86_64. Purely a
/// scheduling hint: no fault, no observable effect on results.
#[inline]
#[allow(unsafe_code)] // non-faulting scheduling hint; see lib.rs
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = slice.get(i) {
        // SAFETY: `r` is a live reference; prefetch never faults and
        // performs no access visible to the memory model.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                r as *const T as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

/// [`prefetch_read`] with write intent (`ET0`): the line is requested
/// in exclusive state, so a read-modify-write that follows skips the
/// ownership upgrade. Same contract otherwise: out-of-range is a no-op,
/// never faults, no observable effect on results.
#[inline]
#[allow(unsafe_code)] // non-faulting scheduling hint; see lib.rs
pub fn prefetch_write<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = slice.get(i) {
        // SAFETY: `r` is a live reference; prefetch never faults and
        // performs no access visible to the memory model.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                r as *const T as *const i8,
                core::arch::x86_64::_MM_HINT_ET0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

/// Makes room for `need` elements in `v` (whatever it holds now). When
/// the capacity falls short, grows it once to `need` plus 1/64 of
/// headroom (at least 64 elements), so a buffer refilled at a size that
/// creeps up by an element per update reallocates only rarely.
pub(crate) fn reserve_headroom<T>(v: &mut Vec<T>, need: usize) {
    if v.capacity() < need {
        let target = need + need / 64 + 64;
        v.reserve_exact(target - v.len());
    }
}

/// Overwrites `dst` with a copy of `src`, reusing `dst`'s allocation.
/// `dst` keeps at least `src`'s *capacity*, not just its length: a copy
/// that mirrors a source with headroom reallocates only when the source
/// itself has grown, never because the source's length crept into its
/// own headroom. Capacity a copy never writes costs address space, not
/// resident memory.
pub fn copy_reusing<T: Clone>(dst: &mut Vec<T>, src: &Vec<T>) {
    if dst.capacity() < src.capacity() {
        dst.clear();
        dst.reserve_exact(src.capacity());
    }
    dst.clone_from(src);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_headroom_grows_once_with_slack() {
        let mut v: Vec<u32> = Vec::new();
        reserve_headroom(&mut v, 1_000);
        let cap = v.capacity();
        assert!(cap >= 1_000 + 15 + 64);
        // Creeping up within the slack reuses the allocation.
        reserve_headroom(&mut v, 1_010);
        assert_eq!(v.capacity(), cap);
    }

    #[test]
    fn copy_reusing_matches_clone_and_keeps_the_allocation() {
        let mut src: Vec<u64> = Vec::with_capacity(100);
        src.extend(0..40);
        let mut dst = vec![7u64; 3];
        copy_reusing(&mut dst, &src);
        assert_eq!(dst, src);
        assert!(dst.capacity() >= 100, "grows to the source's capacity");
        let ptr = dst.as_ptr();
        src.extend(40..90);
        copy_reusing(&mut dst, &src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.as_ptr(),
            ptr,
            "within the source's capacity: no reallocation"
        );
    }
}
