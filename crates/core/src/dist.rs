//! The dense all-pairs distance matrix result type.
//!
//! APSP output is inherently O(n²); the paper notes this is what limits
//! dataset sizes on shared-memory machines (its sx-superuser run needs
//! 160 GB). The matrix is stored row-major so that row reuse in the
//! modified Dijkstra kernel is a sequential scan.
//!
//! Every n²-sized buffer the crate allocates comes from `matrix_cells`,
//! which backs it with 2 MiB pages where the platform allows (DESIGN.md
//! §14, "Allocation").

use std::ops::Range;

use parapsp_graph::INF;

/// Size of a transparent huge page (x86-64 and aarch64 with 4 KiB base
/// pages).
#[cfg(any(test, target_os = "linux"))]
const HUGE_PAGE: usize = 2 << 20;

/// Allocates `rows × n` cells, every one equal to `fill`, for a matrix-sized
/// buffer (distances, predecessors, subset slabs).
///
/// The buffer is allocated zeroed, which the allocator satisfies with fresh
/// pages it does not write; its 2 MiB-aligned interior (`huge_span`) is
/// then advised `MADV_HUGEPAGE` on Linux, so the `fill` write — skipped when
/// `fill` is 0 — faults in huge pages instead of 4 KiB ones. The advice is a
/// hint: a kernel that refuses it leaves a correct buffer on small pages.
///
/// # Panics
///
/// Panics with `"matrix size overflow"` when `rows × n` overflows `usize`,
/// before anything is allocated.
pub(crate) fn matrix_cells(rows: usize, n: usize, fill: u32) -> Box<[u32]> {
    cells_advised(rows, n, fill, advise_huge_pages)
}

fn cells_advised(rows: usize, n: usize, fill: u32, advise: fn(&[u32])) -> Box<[u32]> {
    let len = rows.checked_mul(n).expect("matrix size overflow");
    let mut cells = vec![0u32; len].into_boxed_slice();
    advise(&cells);
    if fill != 0 {
        cells.fill(fill);
    }
    cells
}

/// The whole 2 MiB pages inside the `bytes`-long buffer at `addr`: both
/// ends are [`HUGE_PAGE`]-aligned, and less than one page is left out at
/// each end. `None` when no whole page fits.
#[cfg(any(test, target_os = "linux"))]
fn huge_span(addr: usize, bytes: usize) -> Option<Range<usize>> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(bytes)? / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

#[cfg(target_os = "linux")]
fn advise_huge_pages(cells: &[u32]) {
    // Raw libc binding (the workspace deliberately has no libc crate).
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    if let Some(span) = huge_span(cells.as_ptr() as usize, std::mem::size_of_val(cells)) {
        // SAFETY: `span` is page-aligned and lies inside `cells`, a live
        // allocation. MADV_HUGEPAGE only changes how the kernel backs
        // future faults in the range, never its contents, so no Rust
        // reference to the buffer is invalidated. A failure (a kernel
        // without THP returns EINVAL) leaves the range as it was and is
        // ignored.
        unsafe {
            madvise(
                span.start as *mut std::ffi::c_void,
                span.len(),
                MADV_HUGEPAGE,
            );
        }
    }
}

/// The advice step on platforms without `madvise(MADV_HUGEPAGE)`; compiled
/// on Linux for the tests that pin its behaviour.
#[cfg(any(test, not(target_os = "linux")))]
fn no_advice(_cells: &[u32]) {}

#[cfg(not(target_os = "linux"))]
use no_advice as advise_huge_pages;

/// A row-major `n × n` matrix of shortest-path distances.
///
/// `dist.get(u, v)` is the weight of the shortest `u → v` path, or
/// [`INF`] when `v` is unreachable from `u`. `get(v, v)` is always 0 for
/// any vertex that was used as a source.
#[derive(Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Box<[u32]>,
}

impl DistanceMatrix {
    /// Creates an `n × n` matrix filled with [`INF`].
    pub fn new_infinite(n: usize) -> Self {
        DistanceMatrix {
            n,
            data: matrix_cells(n, n, INF),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != n * n`.
    pub fn from_raw(n: usize, data: Box<[u32]>) -> Self {
        assert_eq!(data.len(), n * n, "distance buffer has the wrong length");
        DistanceMatrix { n, data }
    }

    /// Consumes the matrix, yielding its row-major buffer (the inverse of
    /// [`DistanceMatrix::from_raw`]).
    pub fn into_raw(self) -> Box<[u32]> {
        self.data
    }

    /// Number of vertices (the matrix is `n × n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `u` to `v`.
    #[inline]
    pub fn get(&self, u: u32, v: u32) -> u32 {
        self.data[u as usize * self.n + v as usize]
    }

    /// The full distance row of source `u`.
    #[inline]
    pub fn row(&self, u: u32) -> &[u32] {
        let start = u as usize * self.n;
        &self.data[start..start + self.n]
    }

    /// Mutable row access for algorithm internals.
    #[inline]
    pub(crate) fn row_mut(&mut self, u: u32) -> &mut [u32] {
        let start = u as usize * self.n;
        &mut self.data[start..start + self.n]
    }

    /// Mutable access to the whole row-major buffer (algorithm internals:
    /// tiled and incremental updaters).
    #[inline]
    pub(crate) fn raw_mut(&mut self) -> &mut [u32] {
        &mut self.data
    }

    /// Overwrites row `u` with `row` — used by gather-style assemblers
    /// (e.g. the distributed-memory driver) that receive rows one by one.
    ///
    /// # Panics
    ///
    /// Panics when `row.len() != n`.
    pub fn copy_row_from(&mut self, u: u32, row: &[u32]) {
        self.row_mut(u).copy_from_slice(row);
    }

    /// Iterates over `(source, row)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.n as u32).map(move |u| (u, self.row(u)))
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// True when `d(u, v) == d(v, u)` for all pairs — a structural
    /// invariant of APSP on undirected graphs that the tests exploit.
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|u| {
            (u + 1..self.n).all(|v| self.data[u * self.n + v] == self.data[v * self.n + u])
        })
    }

    /// Number of ordered pairs `(u, v)`, `u != v`, with a finite distance.
    pub fn reachable_pairs(&self) -> usize {
        let mut count = 0;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v && self.data[u * self.n + v] != INF {
                    count += 1;
                }
            }
        }
        count
    }

    /// Returns the first coordinate where two matrices differ, for test
    /// diagnostics.
    pub fn first_difference(&self, other: &DistanceMatrix) -> Option<(u32, u32, u32, u32)> {
        if self.n != other.n {
            return Some((u32::MAX, u32::MAX, self.n as u32, other.n as u32));
        }
        for u in 0..self.n {
            for v in 0..self.n {
                let a = self.data[u * self.n + v];
                let b = other.data[u * self.n + v];
                if a != b {
                    return Some((u as u32, v as u32, a, b));
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DistanceMatrix({} × {})", self.n, self.n)?;
        let shown = self.n.min(8);
        for u in 0..shown {
            write!(f, "  [")?;
            for v in 0..shown {
                let d = self.data[u * self.n + v];
                if d == INF {
                    write!(f, "  ∞")?;
                } else {
                    write!(f, "{d:3}")?;
                }
            }
            writeln!(f, "{}]", if self.n > shown { " …" } else { "" })?;
        }
        if self.n > shown {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const SHAPES: [(usize, usize); 5] = [(0, 0), (1, 1), (3, 7), (1024, 1024), (1025, 1025)];

    #[test]
    fn matrix_cells_have_the_exact_length_and_fill() {
        for (rows, n) in SHAPES {
            for fill in [INF, 0] {
                let advised = matrix_cells(rows, n, fill);
                let plain = cells_advised(rows, n, fill, no_advice);
                for cells in [&advised, &plain] {
                    assert_eq!(cells.len(), rows * n, "({rows}, {n}) fill {fill}");
                    assert!(
                        cells.iter().all(|&c| c == fill),
                        "({rows}, {n}) fill {fill}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "matrix size overflow")]
    fn matrix_cells_overflow_panics_before_allocating() {
        let _ = matrix_cells(1 << 33, 1 << 33, INF);
    }

    #[test]
    fn huge_span_edges() {
        assert_eq!(huge_span(0, HUGE_PAGE), Some(0..HUGE_PAGE));
        assert_eq!(huge_span(1, HUGE_PAGE), None);
        assert_eq!(
            huge_span(HUGE_PAGE - 16, 2 * HUGE_PAGE),
            Some(HUGE_PAGE..2 * HUGE_PAGE)
        );
        assert_eq!(huge_span(0, 0), None);
        assert_eq!(huge_span(usize::MAX - 8, 16), None);
    }

    proptest! {
        #[test]
        fn huge_span_is_the_aligned_interior(
            addr in 0usize..(1 << 40),
            bytes in 0usize..(64 << 20),
        ) {
            match huge_span(addr, bytes) {
                Some(span) => {
                    prop_assert_eq!(span.start % HUGE_PAGE, 0);
                    prop_assert_eq!(span.end % HUGE_PAGE, 0);
                    prop_assert!(addr <= span.start && span.start < span.end);
                    prop_assert!(span.end <= addr + bytes);
                    prop_assert!(bytes - span.len() < 2 * HUGE_PAGE);
                }
                None => {
                    let first = addr.next_multiple_of(HUGE_PAGE);
                    prop_assert!(first + HUGE_PAGE > addr + bytes);
                    prop_assert!(bytes < 2 * HUGE_PAGE);
                }
            }
        }
    }

    #[test]
    fn new_matrix_is_all_infinite() {
        let m = DistanceMatrix::new_infinite(4);
        assert_eq!(m.n(), 4);
        assert!(m.as_slice().iter().all(|&d| d == INF));
        assert_eq!(m.reachable_pairs(), 0);
    }

    #[test]
    fn get_row_and_mutation() {
        let mut m = DistanceMatrix::new_infinite(3);
        m.row_mut(1)[2] = 7;
        assert_eq!(m.get(1, 2), 7);
        assert_eq!(m.row(1), &[INF, INF, 7]);
        assert_eq!(m.rows().count(), 3);
    }

    #[test]
    fn symmetry_detection() {
        let mut m = DistanceMatrix::new_infinite(2);
        assert!(m.is_symmetric());
        m.row_mut(0)[1] = 3;
        assert!(!m.is_symmetric());
        m.row_mut(1)[0] = 3;
        assert!(m.is_symmetric());
    }

    #[test]
    fn first_difference_pinpoints_mismatch() {
        let mut a = DistanceMatrix::new_infinite(3);
        let mut b = DistanceMatrix::new_infinite(3);
        a.row_mut(2)[0] = 5;
        b.row_mut(2)[0] = 6;
        assert_eq!(a.first_difference(&b), Some((2, 0, 5, 6)));
        b.row_mut(2)[0] = 5;
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_raw_validates_length() {
        let _ = DistanceMatrix::from_raw(2, vec![0u32; 3].into_boxed_slice());
    }

    #[test]
    fn zero_size_matrix() {
        let m = DistanceMatrix::new_infinite(0);
        assert_eq!(m.n(), 0);
        assert_eq!(m.rows().count(), 0);
        assert!(m.is_symmetric());
    }

    #[test]
    fn debug_output_truncates() {
        let m = DistanceMatrix::new_infinite(20);
        let s = format!("{m:?}");
        assert!(s.contains("20 × 20"));
        assert!(s.contains('…'));
    }
}
