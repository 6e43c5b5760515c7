//! Borrowed strided matrix views: the zero-copy operand types of the BLAS
//! front door.
//!
//! A [`MatRef`]/[`MatMut`] is a `(data, rows, cols, row_stride, col_stride)`
//! tuple over caller-owned memory: element `(i, j)` lives at
//! `data[i * row_stride + j * col_stride]`. Row-major, column-major,
//! transposed, and sub-matrix layouts are all just stride choices, which is
//! what lets the packing routines fold `op(A)`/`op(B)` into their stride
//! walks instead of materialising transposed temporaries:
//!
//! * [`MatRef::from_slice`] — dense row-major (`row_stride = cols`,
//!   `col_stride = 1`),
//! * [`MatRef::col_major`] — dense column-major (`row_stride = 1`,
//!   `col_stride = rows`),
//! * [`MatRef::with_strides`] — anything else (padded leading dimensions,
//!   interleaved channels, ...),
//! * [`MatRef::t`] — zero-cost transpose (swaps the dimensions and the
//!   strides; no data moves),
//! * [`MatRef::submatrix`] — a rectangular window sharing the same storage.
//!
//! Constructors validate that the largest reachable index fits the backing
//! slice, so every accessor past construction is in bounds by construction;
//! mutable views additionally reject aliasing stride combinations (two
//! index pairs mapping to one element), which would make `MatMut` writes
//! order-dependent.

use std::fmt;

/// Whether the stride pair maps distinct `(i, j)` pairs to distinct linear
/// indices — the sufficient condition used for mutable views: the larger
/// stride must step over the full extent of the smaller-stride dimension.
/// Covers row-major (padded or not), column-major, and every sub-matrix of
/// either. Overflowing extents count as aliasing (checked math). A view
/// with a single row or column is a strided vector: injective exactly when
/// the stride along its one axis of extent > 1 is non-zero.
fn strides_non_aliasing(rows: usize, cols: usize, row_stride: usize, col_stride: usize) -> bool {
    if rows == 0 || cols == 0 {
        return true;
    }
    if rows == 1 || cols == 1 {
        return (rows == 1 || row_stride != 0) && (cols == 1 || col_stride != 0);
    }
    let spans = |outer: usize, inner: usize, inner_extent: usize| {
        inner_extent.checked_mul(inner).is_some_and(|span| outer >= span) && inner > 0
    };
    (row_stride > col_stride && spans(row_stride, col_stride, cols))
        || (col_stride > row_stride && spans(col_stride, row_stride, rows))
}

/// Asserts that the largest linear index a non-empty `rows x cols` view
/// can touch fits the backing slice. All checked math — release builds
/// must not wrap a huge stride into a small, passing index.
fn check_bounds(len: usize, rows: usize, cols: usize, row_stride: usize, col_stride: usize) {
    if rows == 0 || cols == 0 {
        return;
    }
    let max = (rows - 1)
        .checked_mul(row_stride)
        .and_then(|r| (cols - 1).checked_mul(col_stride).and_then(|c| r.checked_add(c)));
    assert!(
        max.is_some_and(|m| m < len),
        "matrix view out of bounds: {rows}x{cols} with strides ({row_stride}, {col_stride}) \
         reaches index {max:?} but the slice holds {len} elements"
    );
}

/// A borrowed, read-only, strided `f32` matrix view.
///
/// `Copy`, so it passes by value; all accessors are in bounds by
/// construction. See the [module docs](self) for the layout model.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl fmt::Debug for MatRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatRef")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_stride", &self.row_stride)
            .field("col_stride", &self.col_stride)
            .finish_non_exhaustive()
    }
}

impl<'a> MatRef<'a> {
    /// A dense row-major view: element `(i, j)` at `data[i * cols + j]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `rows * cols` elements.
    pub fn from_slice(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self::with_strides(data, rows, cols, cols, 1)
    }

    /// A dense column-major view: element `(i, j)` at `data[j * rows + i]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `rows * cols` elements.
    pub fn col_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self::with_strides(data, rows, cols, 1, rows)
    }

    /// A general strided view: element `(i, j)` at
    /// `data[i * row_stride + j * col_stride]`. Strides of zero are allowed
    /// on read-only views (broadcast rows/columns).
    ///
    /// # Panics
    ///
    /// Panics if the largest reachable index does not fit `data`.
    pub fn with_strides(
        data: &'a [f32],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        check_bounds(data.len(), rows, cols, row_stride, col_stride);
        MatRef { data, rows, cols, row_stride, col_stride }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Linear distance between vertically adjacent elements.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Linear distance between horizontally adjacent elements.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// The backing slice (covering at least every reachable element).
    #[inline]
    pub(crate) fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// Whether `other` is this very view: the same storage address read
    /// through the same dimensions and strides, so element `(i, j)` of one
    /// *is* element `(i, j)` of the other. (Equal contents at different
    /// addresses are not the same view; neither is a view and its
    /// transpose.) Both borrows hold their storage immutably, so views
    /// found identical stay identical for as long as both live.
    #[inline]
    pub fn same_view(&self, other: &MatRef<'_>) -> bool {
        std::ptr::eq(self.data.as_ptr(), other.data.as_ptr())
            && (self.rows, self.cols, self.row_stride, self.col_stride)
                == (other.rows, other.cols, other.row_stride, other.col_stride)
    }

    /// The transpose, by swapping dimensions and strides — zero cost, no
    /// data moves.
    #[inline]
    pub fn t(self) -> MatRef<'a> {
        MatRef {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// The `rows x cols` window whose top-left corner is `(row, col)`,
    /// sharing this view's storage.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit inside this view.
    pub fn submatrix(self, row: usize, col: usize, rows: usize, cols: usize) -> MatRef<'a> {
        assert!(
            row + rows <= self.rows && col + cols <= self.cols,
            "submatrix ({row}+{rows}, {col}+{cols}) exceeds a {}x{} view",
            self.rows,
            self.cols
        );
        let offset = if rows == 0 || cols == 0 {
            self.data.len()
        } else {
            row * self.row_stride + col * self.col_stride
        };
        MatRef {
            data: &self.data[offset..],
            rows,
            cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }
}

/// A borrowed, mutable, strided `f32` matrix view.
///
/// Same layout model as [`MatRef`], plus the guarantee that distinct
/// `(i, j)` pairs address distinct elements (aliasing stride combinations
/// are rejected at construction), so writes are order-independent.
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl fmt::Debug for MatMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatMut")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_stride", &self.row_stride)
            .field("col_stride", &self.col_stride)
            .finish_non_exhaustive()
    }
}

impl<'a> MatMut<'a> {
    /// A dense row-major mutable view: element `(i, j)` at
    /// `data[i * cols + j]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `rows * cols` elements.
    pub fn from_slice(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        Self::with_strides(data, rows, cols, cols, 1)
    }

    /// A dense column-major mutable view: element `(i, j)` at
    /// `data[j * rows + i]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `rows * cols` elements.
    pub fn col_major(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        Self::with_strides(data, rows, cols, 1, rows)
    }

    /// A general strided mutable view.
    ///
    /// # Panics
    ///
    /// Panics if the largest reachable index does not fit `data`, or if the
    /// stride pair could alias (map two `(i, j)` pairs to one element).
    pub fn with_strides(
        data: &'a mut [f32],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        check_bounds(data.len(), rows, cols, row_stride, col_stride);
        assert!(
            strides_non_aliasing(rows, cols, row_stride, col_stride),
            "aliasing strides ({row_stride}, {col_stride}) for a mutable {rows}x{cols} view"
        );
        MatMut { data, rows, cols, row_stride, col_stride }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Linear distance between vertically adjacent elements.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Linear distance between horizontally adjacent elements.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// Stores `v` at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.row_stride + j * self.col_stride] = v;
    }

    /// A mutable reborrow of this view: a `MatMut` over the same elements
    /// whose lifetime is tied to `&mut self`, so the original stays usable
    /// after the reborrow is dropped (the `rb_mut` idiom of `faer`/`pulp`).
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// A read-only reborrow of this view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// The transpose (swapped dimensions and strides), consuming this view.
    #[inline]
    pub fn t(self) -> MatMut<'a> {
        MatMut {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// The `rows x cols` mutable window whose top-left corner is
    /// `(row, col)`, consuming this view.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit inside this view.
    pub fn submatrix(self, row: usize, col: usize, rows: usize, cols: usize) -> MatMut<'a> {
        assert!(
            row + rows <= self.rows && col + cols <= self.cols,
            "submatrix ({row}+{rows}, {col}+{cols}) exceeds a {}x{} view",
            self.rows,
            self.cols
        );
        let offset = if rows == 0 || cols == 0 {
            self.data.len()
        } else {
            row * self.row_stride + col * self.col_stride
        };
        MatMut {
            data: &mut self.data[offset..],
            rows,
            cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// Base pointer and strides for the driver's raw write-back path. The
    /// pointer stays valid for the lifetime of the borrow; non-aliasing of
    /// distinct `(i, j)` pairs was proven at construction.
    #[inline]
    pub(crate) fn raw_parts(&mut self) -> (*mut f32, usize, usize) {
        (self.data.as_mut_ptr(), self.row_stride, self.col_stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_col_major_and_transpose_agree() {
        // M = [[1, 2, 3], [4, 5, 6]]
        let rm = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let cm = [1.0f32, 4.0, 2.0, 5.0, 3.0, 6.0];
        let a = MatRef::from_slice(&rm, 2, 3);
        let b = MatRef::col_major(&cm, 2, 3);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), b.get(i, j));
                assert_eq!(a.t().get(j, i), a.get(i, j));
            }
        }
        assert_eq!((a.t().rows(), a.t().cols()), (3, 2));
    }

    #[test]
    fn submatrix_windows_share_storage() {
        let data: Vec<f32> = (0..30).map(|x| x as f32).collect();
        let a = MatRef::from_slice(&data, 5, 6);
        let w = a.submatrix(1, 2, 3, 2);
        assert_eq!(w.get(0, 0), a.get(1, 2));
        assert_eq!(w.get(2, 1), a.get(3, 3));
        // A transposed window of a window still reads the same elements.
        assert_eq!(w.t().get(1, 2), a.get(3, 3));
        // Empty windows are fine anywhere, including the far corner.
        let e = a.submatrix(5, 6, 0, 0);
        assert_eq!((e.rows(), e.cols()), (0, 0));
    }

    #[test]
    fn mutable_views_write_through_strides() {
        let mut data = vec![0.0f32; 24];
        {
            let mut c = MatMut::with_strides(&mut data, 3, 4, 8, 2);
            c.set(2, 3, 7.0);
            assert_eq!(c.get(2, 3), 7.0);
        }
        assert_eq!(data[2 * 8 + 3 * 2], 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_views_are_rejected() {
        let data = vec![0.0f32; 10];
        let _ = MatRef::from_slice(&data, 3, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overflowing_strides_are_rejected_even_in_release() {
        // (rows - 1) * row_stride wraps in unchecked arithmetic; the
        // checked bounds math must reject it instead of letting a
        // wrapped-small index pass.
        let mut data = vec![0.0f32; 16];
        let _ = MatMut::with_strides(&mut data, 3, 2, (1usize << 63) + 5, 1);
    }

    #[test]
    #[should_panic(expected = "aliasing strides")]
    fn aliasing_mutable_strides_are_rejected() {
        let mut data = vec![0.0f32; 16];
        // (i + j) * 2 maps (0, 1) and (1, 0) to the same element.
        let _ = MatMut::with_strides(&mut data, 3, 3, 2, 2);
    }

    #[test]
    #[should_panic(expected = "aliasing strides")]
    fn a_zero_stride_along_a_single_row_aliases_every_column() {
        // The whole row would be one element: five writers, one address.
        let mut data = vec![0.0f32; 16];
        let _ = MatMut::with_strides(&mut data, 1, 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "aliasing strides")]
    fn a_zero_stride_along_a_single_column_aliases_every_row() {
        let mut data = vec![0.0f32; 16];
        let _ = MatMut::with_strides(&mut data, 5, 1, 0, 1);
    }

    #[test]
    fn strides_of_axes_with_nothing_to_step_over_are_free() {
        // Only an axis of extent > 1 needs a stride: 1x1 and empty views
        // construct whatever theirs are, and a vector may carry any stride
        // on the axis it does not extend along.
        let mut data = vec![0.0f32; 16];
        for (rows, cols, rs, cs) in
            [(1, 1, 0, 0), (0, 5, 0, 0), (5, 0, 0, 0), (0, 0, 0, 0), (1, 5, 0, 3), (5, 1, 3, 0)]
        {
            let c = MatMut::with_strides(&mut data, rows, cols, rs, cs);
            assert_eq!((c.rows(), c.cols()), (rows, cols));
        }
        let mut row = MatMut::with_strides(&mut data, 1, 5, 0, 3);
        row.set(0, 4, 7.0);
        assert_eq!(data[12], 7.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "column index")]
    fn per_axis_bounds_are_checked_in_debug_builds() {
        // A fat row stride means j = cols would still land inside the
        // slice — the per-axis assert must catch it anyway.
        let data = vec![0.0f32; 20];
        let a = MatRef::with_strides(&data, 2, 3, 10, 1);
        let _ = a.get(0, 3);
    }

    #[test]
    fn broadcast_strides_are_allowed_read_only() {
        let data = [2.5f32];
        let a = MatRef::with_strides(&data, 4, 4, 0, 0);
        assert_eq!(a.get(3, 3), 2.5);
    }
}
