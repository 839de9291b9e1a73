//! The vectorized min-plus row-relaxation kernel.
//!
//! Row reuse (paper Alg. 1 lines 6–11) is a dense min-plus update: when the
//! dequeued vertex `t` has a published row, every vertex `v` is relaxed at
//! once via `row[v] = min(row[v], dt ⊕ t_row[v])`, where `⊕` is saturating
//! addition (so `INF = u32::MAX` is absorbing). On scale-free graphs that
//! single pass dominates APSP runtime, so this module provides it in three
//! interchangeable, bit-identical implementations:
//!
//! * [`RelaxImpl::Scalar`] — the original branchy per-element loop, kept as
//!   the semantic reference and the ablation baseline.
//! * [`RelaxImpl::Portable`] — a branch-free formulation over fixed 8×u32
//!   chunks, written so LLVM's autovectorizer turns it into SIMD on any
//!   target. Two identities make it branch-free:
//!   * saturating add: `dt ⊕ x = dt + min(x, !dt)` — `min(x, !dt)` clamps
//!     the addend so the sum never wraps and lands exactly on `u32::MAX`
//!     when it would have overflowed;
//!   * the guarded update `if alt < row[v] && alt <= cap { row[v] = alt }`
//!     is `row[v] = min(row[v], select(alt <= cap, alt, u32::MAX))`, a
//!     lane-wise select + min with no control dependence.
//! * [`RelaxImpl::Avx2`] — the same dataflow hand-written with `std::arch`
//!   AVX2 intrinsics (8 lanes per 256-bit op), selected at runtime via
//!   `is_x86_feature_detected!` and silently degrading to `Portable` where
//!   AVX2 is missing.
//!
//! All three return the number of improved lanes so callers can maintain
//! exact [`Counters::relaxations`](crate::stats::Counters) totals without
//! per-element counter writes (a per-element read-modify-write on a shared
//! counter field is precisely what blocks autovectorization of the loop).

/// Which implementation of [`relax_row`] to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelaxImpl {
    /// The branchy per-element reference loop.
    Scalar,
    /// Branch-free 8-wide chunks relying on LLVM autovectorization.
    Portable,
    /// Explicit AVX2 intrinsics (x86_64 only); falls back to `Portable`
    /// when the CPU or target lacks AVX2.
    Avx2,
    /// Resolve at runtime: `Avx2` when available, else `Portable`.
    #[default]
    Auto,
}

impl RelaxImpl {
    /// Every selectable variant, in ablation order.
    pub const ALL: [RelaxImpl; 4] = [
        RelaxImpl::Scalar,
        RelaxImpl::Portable,
        RelaxImpl::Avx2,
        RelaxImpl::Auto,
    ];

    /// The concrete implementation this choice runs on the current machine
    /// (`Auto` and an unavailable `Avx2` both resolve to something real).
    pub fn resolve(self) -> RelaxImpl {
        match self {
            RelaxImpl::Auto => {
                if avx2_available() {
                    RelaxImpl::Avx2
                } else {
                    RelaxImpl::Portable
                }
            }
            RelaxImpl::Avx2 if !avx2_available() => RelaxImpl::Portable,
            other => other,
        }
    }

    /// Stable lowercase name (CLI values and benchmark labels).
    pub fn name(self) -> &'static str {
        match self {
            RelaxImpl::Scalar => "scalar",
            RelaxImpl::Portable => "portable",
            RelaxImpl::Avx2 => "avx2",
            RelaxImpl::Auto => "auto",
        }
    }

    /// Parses a [`RelaxImpl::name`] back into the variant: a lookup over
    /// [`RelaxImpl::ALL`], so the name table is the single source of truth
    /// (no shadow match to drift when a variant is added).
    pub fn parse(raw: &str) -> Option<RelaxImpl> {
        RelaxImpl::ALL.into_iter().find(|imp| imp.name() == raw)
    }
}

/// Best-effort software prefetch of the cache line holding `*ptr` into
/// all cache levels (`prefetcht0`).
///
/// A pure hint for the row-reuse fast path: the kernel calls it on the
/// head of the next reuse-candidate row so the line is (ideally) already
/// in cache when [`relax_row`] starts streaming it, and the hardware
/// prefetcher takes over from there. This is all of
/// `Store::prefetch_row`, which is a no-op on the cached delta/mmap
/// tiers. Compiles to nothing off x86_64, and
/// is always sound to issue — architecturally a prefetch performs no
/// memory access, so even a dangling address cannot fault.
#[inline(always)]
pub fn prefetch_read(ptr: *const u32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint with no architectural memory
    // access; it is defined for arbitrary addresses.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Whether the running CPU supports the AVX2 path.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Relaxes `row` against a published row: for every `v`,
/// `row[v] = min(row[v], dt ⊕ t_row[v])` where `⊕` saturates at
/// [`u32::MAX`] (= `INF`) and candidates above `cap` are discarded.
/// Returns the number of entries that improved.
///
/// Pass `cap = u32::MAX` for the uncapped kernel. All [`RelaxImpl`]
/// variants are bit-identical in both the resulting row and the count.
///
/// # Panics
///
/// Panics when `row` and `t_row` differ in length.
pub fn relax_row(imp: RelaxImpl, row: &mut [u32], t_row: &[u32], dt: u32, cap: u32) -> u64 {
    assert_eq!(row.len(), t_row.len(), "row length mismatch");
    match imp.resolve() {
        RelaxImpl::Scalar => relax_row_scalar(row, t_row, dt, cap),
        RelaxImpl::Portable => relax_row_portable(row, t_row, dt, cap),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` returns `Avx2` only when the CPU reports AVX2.
        RelaxImpl::Avx2 => unsafe { relax_row_avx2(row, t_row, dt, cap) },
        #[cfg(not(target_arch = "x86_64"))]
        RelaxImpl::Avx2 => unreachable!("Avx2 resolves to Portable off x86_64"),
        RelaxImpl::Auto => unreachable!("Auto resolves to a concrete impl"),
    }
}

/// The reference implementation: branchy, one element at a time.
pub fn relax_row_scalar(row: &mut [u32], t_row: &[u32], dt: u32, cap: u32) -> u64 {
    let mut improved = 0u64;
    for (mine, &via_t) in row.iter_mut().zip(t_row) {
        let alt = dt.saturating_add(via_t);
        if alt < *mine && alt <= cap {
            *mine = alt;
            improved += 1;
        }
    }
    improved
}

/// Branch-free portable implementation over fixed 8×u32 chunks.
///
/// Every operation in the chunk body is a lane-independent min / add /
/// select with no side exits, which is the shape LLVM's loop vectorizer
/// recognizes; the improvement count is accumulated per chunk (not per
/// element) so no scalar dependence chain crosses lanes.
pub fn relax_row_portable(row: &mut [u32], t_row: &[u32], dt: u32, cap: u32) -> u64 {
    // `dt + min(x, !dt)` never wraps: min(x, !dt) <= u32::MAX - dt.
    let not_dt = !dt;
    let mut improved = 0u64;
    let mut row_chunks = row.chunks_exact_mut(8);
    let mut t_chunks = t_row.chunks_exact(8);
    for (mine8, via8) in row_chunks.by_ref().zip(t_chunks.by_ref()) {
        let mut hits = 0u32;
        for (mine, &via_t) in mine8.iter_mut().zip(via8) {
            let alt = dt + via_t.min(not_dt);
            let capped = if alt <= cap { alt } else { u32::MAX };
            let new = (*mine).min(capped);
            hits += (new != *mine) as u32;
            *mine = new;
        }
        improved += u64::from(hits);
    }
    improved + relax_row_scalar(row_chunks.into_remainder(), t_chunks.remainder(), dt, cap)
}

/// Explicit AVX2 implementation: 8 lanes per iteration.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn relax_row_avx2(row: &mut [u32], t_row: &[u32], dt: u32, cap: u32) -> u64 {
    use std::arch::x86_64::*;

    debug_assert_eq!(row.len(), t_row.len());
    let n = row.len();
    let lanes = n - n % 8;
    // SAFETY (for every intrinsic below): unaligned loads/stores stay
    // within `row[..lanes]` / `t_row[..lanes]`, and AVX2 is enabled by
    // the caller contract.
    unsafe {
        let dt_v = _mm256_set1_epi32(dt as i32);
        let not_dt_v = _mm256_set1_epi32(!dt as i32);
        let cap_v = _mm256_set1_epi32(cap as i32);
        let inf_v = _mm256_set1_epi32(-1); // u32::MAX in every lane
        let mut improved = 0u64;
        let mut i = 0;
        while i < lanes {
            let mine = _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i);
            let via = _mm256_loadu_si256(t_row.as_ptr().add(i) as *const __m256i);
            // Saturating dt + via: clamp the addend so the sum cannot wrap.
            let alt = _mm256_add_epi32(dt_v, _mm256_min_epu32(via, not_dt_v));
            // Unsigned `alt <= cap` as `min(alt, cap) == alt` (AVX2 has no
            // unsigned compare; min+eq sidesteps the sign-flip trick).
            let le_cap = _mm256_cmpeq_epi32(_mm256_min_epu32(alt, cap_v), alt);
            // Lanes over the cap must not relax: substitute INF.
            let candidate = _mm256_blendv_epi8(inf_v, alt, le_cap);
            let new = _mm256_min_epu32(mine, candidate);
            let unchanged = _mm256_cmpeq_epi32(new, mine);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(unchanged)) as u32 & 0xFF;
            improved += u64::from(8 - mask.count_ones());
            _mm256_storeu_si256(row.as_mut_ptr().add(i) as *mut __m256i, new);
            i += 8;
        }
        improved + relax_row_scalar(&mut row[lanes..], &t_row[lanes..], dt, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::INF;

    /// Tiny deterministic RNG (splitmix64) so the differential cases are
    /// reproducible without pulling the rand stub into unit tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_row(len: usize, seed: u64, inf_percent: u64, near_max: bool) -> Vec<u32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                let r = splitmix(&mut s);
                if r % 100 < inf_percent {
                    INF
                } else if near_max {
                    // Values within 16 of u32::MAX: saturation territory.
                    u32::MAX - (r % 16) as u32
                } else {
                    (r % 1_000_000) as u32
                }
            })
            .collect()
    }

    fn concrete_impls() -> Vec<RelaxImpl> {
        let mut imps = vec![RelaxImpl::Scalar, RelaxImpl::Portable];
        if avx2_available() {
            imps.push(RelaxImpl::Avx2);
        }
        imps.push(RelaxImpl::Auto);
        imps
    }

    fn assert_all_impls_agree(row: &[u32], t_row: &[u32], dt: u32, cap: u32, context: &str) {
        let mut reference = row.to_vec();
        let ref_count = relax_row_scalar(&mut reference, t_row, dt, cap);
        for imp in concrete_impls() {
            let mut candidate = row.to_vec();
            let count = relax_row(imp, &mut candidate, t_row, dt, cap);
            assert_eq!(
                candidate,
                reference,
                "{context}: {} row differs from scalar",
                imp.name()
            );
            assert_eq!(
                count,
                ref_count,
                "{context}: {} count differs from scalar",
                imp.name()
            );
        }
    }

    #[test]
    fn simple_improvement_and_count() {
        let mut row = vec![10, 5, INF, 7];
        let t_row = vec![1, 9, 2, 3];
        let improved = relax_row(RelaxImpl::Scalar, &mut row, &t_row, 2, u32::MAX);
        // alt = [3, 11, 4, 5]: improves indices 0, 2, 3.
        assert_eq!(row, vec![3, 5, 4, 5]);
        assert_eq!(improved, 3);
    }

    #[test]
    fn cap_discards_candidates_beyond_it() {
        let mut row = vec![INF, INF, 4];
        let t_row = vec![1, 10, 1];
        let improved = relax_row(RelaxImpl::Portable, &mut row, &t_row, 2, 5);
        // alt = [3, 12, 3]; 12 > cap stays INF.
        assert_eq!(row, vec![3, INF, 3]);
        assert_eq!(improved, 2);
    }

    #[test]
    fn saturating_add_absorbs_inf() {
        let mut row = vec![INF; 9];
        let t_row = vec![INF, u32::MAX - 1, 0, 1, INF, 5, INF, u32::MAX - 2, INF];
        assert_all_impls_agree(&row.clone(), &t_row, 3, u32::MAX, "inf lanes");
        let improved = relax_row(RelaxImpl::Auto, &mut row, &t_row, 3, u32::MAX);
        // dt ⊕ INF and dt ⊕ (MAX-1) and dt ⊕ (MAX-2) all saturate to MAX:
        // no improvement over INF. Finite lanes improve.
        assert_eq!(row, vec![INF, INF, 3, 4, INF, 8, INF, INF, INF]);
        assert_eq!(improved, 3);
    }

    #[test]
    fn differential_random_rows() {
        for (case, len) in [1usize, 7, 8, 9, 63, 256, 1000].into_iter().enumerate() {
            let seed = case as u64 * 101 + 7;
            let row = random_row(len, seed, 20, false);
            let t_row = random_row(len, seed ^ 0xDEAD_BEEF, 20, false);
            for dt in [0u32, 1, 1_000_000, u32::MAX / 2, u32::MAX] {
                for cap in [0u32, 5, 1_500_000, u32::MAX - 1, u32::MAX] {
                    assert_all_impls_agree(
                        &row,
                        &t_row,
                        dt,
                        cap,
                        &format!("len={len} dt={dt} cap={cap}"),
                    );
                }
            }
        }
    }

    #[test]
    fn differential_near_overflow_values() {
        for len in [8usize, 12, 64, 129] {
            let row = random_row(len, 42, 10, true);
            let t_row = random_row(len, 43, 10, true);
            for dt in [0u32, 15, u32::MAX - 3, u32::MAX] {
                assert_all_impls_agree(&row, &t_row, dt, u32::MAX, &format!("near-max len={len}"));
                assert_all_impls_agree(&row, &t_row, dt, u32::MAX - 5, "near-max tight cap");
            }
        }
    }

    #[test]
    fn empty_rows_are_a_noop() {
        for imp in RelaxImpl::ALL {
            assert_eq!(relax_row(imp, &mut [], &[], 3, u32::MAX), 0);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = relax_row(RelaxImpl::Scalar, &mut [1, 2], &[1], 0, u32::MAX);
    }

    #[test]
    fn resolve_never_returns_auto_or_unavailable_avx2() {
        for imp in RelaxImpl::ALL {
            let resolved = imp.resolve();
            assert_ne!(resolved, RelaxImpl::Auto, "{}", imp.name());
            if resolved == RelaxImpl::Avx2 {
                assert!(avx2_available());
            }
        }
    }

    #[test]
    fn names_parse_roundtrip() {
        for imp in RelaxImpl::ALL {
            assert_eq!(RelaxImpl::parse(imp.name()), Some(imp));
        }
        assert_eq!(RelaxImpl::parse("sse9"), None);
        assert_eq!(RelaxImpl::default(), RelaxImpl::Auto);
    }
}
