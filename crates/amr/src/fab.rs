//! [`FArrayBox`]: a multi-component array of `Real` on a box, plus the
//! [`Array4`]/[`Array4Mut`] accessor views used inside `parallel_for` kernels.
//!
//! Memory layout matches AMReX/Fortran: `x` fastest, then `y`, `z`, and the
//! component index slowest, so a stride-1 inner loop over `i` walks
//! contiguous memory.
//!
//! # Safety
//!
//! This is the one module in the suite containing `unsafe` code.
//! [`Array4Mut`] is the Rust analogue of AMReX's `Array4<Real>`: a raw view
//! that can be written through a shared reference so that kernels launched by
//! [`exastro_parallel::ExecSpace::par_for`] can mutate the fab from multiple
//! threads. The safety contract is exactly the paper's programming model
//! (§III): *every kernel must be embarrassingly parallel over zones* — for a
//! given `par_for`, no two invocations of the closure may write the same
//! `(i, j, k, component)` slot, and no invocation may read a slot that
//! another writes. All bounds are checked with `debug_assert!` in debug
//! builds.

use exastro_parallel::{IndexBox, IntVect, Real};
use std::marker::PhantomData;

/// The j, k and component strides of a component-major layout over a box,
/// computed once when a fab or view is built so that an access costs one
/// multiply-add per index instead of re-deriving the box size.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Strides {
    lo: IntVect,
    js: usize,
    ks: usize,
    cs: usize,
}

impl Strides {
    fn new(bx: IndexBox) -> Self {
        let s = bx.size();
        let js = s.x() as usize;
        let ks = js * s.y() as usize;
        Strides {
            lo: bx.lo(),
            js,
            ks,
            cs: ks * s.z() as usize,
        }
    }

    /// `c·cs + (i−lo) + (j−lo)·js + (k−lo)·ks`. The caller has checked that
    /// `(i, j, k)` lies in the box, so every difference is non-negative.
    #[inline]
    fn offset(&self, i: i32, j: i32, k: i32, c: usize) -> usize {
        c * self.cs
            + (i - self.lo.x()) as usize
            + (j - self.lo.y()) as usize * self.js
            + (k - self.lo.z()) as usize * self.ks
    }
}

/// A dense array over `bx` with `ncomp` components.
#[derive(Clone, Debug, PartialEq)]
pub struct FArrayBox {
    bx: IndexBox,
    ncomp: usize,
    strides: Strides,
    data: Vec<Real>,
}

impl FArrayBox {
    /// Allocate a zero-filled fab on `bx` with `ncomp` components.
    pub fn new(bx: IndexBox, ncomp: usize) -> Self {
        assert!(!bx.is_empty(), "cannot allocate a fab on an empty box");
        assert!(ncomp >= 1);
        let n = bx.num_zones() as usize * ncomp;
        FArrayBox {
            bx,
            ncomp,
            strides: Strides::new(bx),
            data: vec![0.0; n],
        }
    }

    /// The index box the fab covers (including any ghost zones — the fab
    /// itself does not distinguish valid from ghost).
    pub fn index_box(&self) -> IndexBox {
        self.bx
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Bytes of payload.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<Real>()) as u64
    }

    #[inline]
    fn offset(&self, iv: IntVect, comp: usize) -> usize {
        debug_assert!(self.bx.contains(iv), "{iv:?} outside {:?}", self.bx);
        debug_assert!(comp < self.ncomp);
        self.strides.offset(iv.x(), iv.y(), iv.z(), comp)
    }

    /// Read one value.
    #[inline]
    pub fn get(&self, iv: IntVect, comp: usize) -> Real {
        self.data[self.offset(iv, comp)]
    }

    /// Write one value.
    #[inline]
    pub fn set(&mut self, iv: IntVect, comp: usize, v: Real) {
        let o = self.offset(iv, comp);
        self.data[o] = v;
    }

    /// Set every value of component `comp` to `v`.
    pub fn set_val(&mut self, comp: usize, v: Real) {
        let n = self.strides.cs;
        self.data[comp * n..(comp + 1) * n].fill(v);
    }

    /// Set every value of every component to `v`.
    pub fn set_val_all(&mut self, v: Real) {
        self.data.fill(v);
    }

    /// Copy component `src_comp` of `src` into component `dst_comp` of
    /// `self` over the intersection of `region` with both fabs.
    pub fn copy_from(
        &mut self,
        src: &FArrayBox,
        region: IndexBox,
        src_comp: usize,
        dst_comp: usize,
        ncomp: usize,
    ) {
        let r = region.intersection(&self.bx).intersection(&src.bx);
        for c in 0..ncomp {
            for iv in r.iter() {
                let v = src.get(iv, src_comp + c);
                self.set(iv, dst_comp + c, v);
            }
        }
    }

    /// Copy from `src` shifted by `shift`: `self[iv] = src[iv - shift]` over
    /// `region` (in destination index space). Used for periodic ghost fills.
    pub fn copy_shifted(
        &mut self,
        src: &FArrayBox,
        region: IndexBox,
        shift: IntVect,
        ncomp: usize,
    ) {
        let r = region.intersection(&self.bx);
        for c in 0..ncomp {
            for iv in r.iter() {
                let siv = iv - shift;
                debug_assert!(src.bx.contains(siv));
                let v = src.get(siv, c);
                self.set(iv, c, v);
            }
        }
    }

    /// Immutable kernel view.
    pub fn array(&self) -> Array4<'_> {
        Array4 {
            data: &self.data,
            bx: self.bx,
            ncomp: self.ncomp,
            strides: self.strides,
        }
    }

    /// Mutable (shared) kernel view. See the module-level safety contract.
    pub fn array_mut(&mut self) -> Array4Mut<'_> {
        Array4Mut {
            ptr: self.data.as_mut_ptr(),
            len: self.data.len(),
            bx: self.bx,
            ncomp: self.ncomp,
            strides: self.strides,
            _marker: PhantomData,
        }
    }

    /// Raw data slice (component-major).
    pub fn data(&self) -> &[Real] {
        &self.data
    }

    /// Mutable raw data slice (component-major).
    pub fn data_mut(&mut self) -> &mut [Real] {
        &mut self.data
    }

    /// Max |value| of component `comp` over `region`.
    pub fn norm_inf(&self, region: IndexBox, comp: usize) -> Real {
        let r = region.intersection(&self.bx);
        r.iter()
            .map(|iv| self.get(iv, comp).abs())
            .fold(0.0, Real::max)
    }

    /// Sum of component `comp` over `region`.
    pub fn sum(&self, region: IndexBox, comp: usize) -> Real {
        let r = region.intersection(&self.bx);
        r.iter().map(|iv| self.get(iv, comp)).sum()
    }
}

/// Immutable view of a fab for use inside kernels. `Copy`, cheap to capture.
#[derive(Clone, Copy)]
pub struct Array4<'a> {
    data: &'a [Real],
    bx: IndexBox,
    ncomp: usize,
    strides: Strides,
}

impl<'a> Array4<'a> {
    /// View a raw component-major slice (e.g. an arena scratch buffer) as a
    /// fab over `bx`. `data.len()` must equal `bx.num_zones() * ncomp`.
    pub fn from_slice(data: &'a [Real], bx: IndexBox, ncomp: usize) -> Self {
        assert_eq!(data.len(), bx.num_zones() as usize * ncomp);
        Array4 {
            data,
            bx,
            ncomp,
            strides: Strides::new(bx),
        }
    }

    #[inline]
    fn offset(&self, i: i32, j: i32, k: i32, c: usize) -> usize {
        debug_assert!(
            self.bx.contains(IntVect::new(i, j, k)),
            "({i},{j},{k}) outside {:?}",
            self.bx
        );
        debug_assert!(c < self.ncomp);
        self.strides.offset(i, j, k, c)
    }

    /// Value at `(i, j, k)` component `c`.
    #[inline]
    pub fn at(&self, i: i32, j: i32, k: i32, c: usize) -> Real {
        self.data[self.offset(i, j, k, c)]
    }

    /// The box this view covers.
    pub fn index_box(&self) -> IndexBox {
        self.bx
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }
}

/// Mutable kernel view writable through `&self`, so it can be captured by
/// the `Fn + Sync` closures that `par_for` requires.
///
/// # Safety contract
///
/// Within one `par_for`, distinct closure invocations must touch disjoint
/// `(i, j, k, c)` slots (the embarrassingly-parallel contract of §III). The
/// view must not outlive the fab (enforced by the lifetime) and no other
/// view of the same fab may be used concurrently.
pub struct Array4Mut<'a> {
    ptr: *mut Real,
    len: usize,
    bx: IndexBox,
    ncomp: usize,
    strides: Strides,
    _marker: PhantomData<&'a mut [Real]>,
}

// SAFETY: Array4Mut is a raw view into a uniquely borrowed fab. Concurrent
// use from multiple threads is sound iff callers honour the documented
// disjoint-writes contract, which all kernels in the suite do by
// construction (each (i,j,k) zone is written by exactly one closure call).
unsafe impl Send for Array4Mut<'_> {}
unsafe impl Sync for Array4Mut<'_> {}

impl<'a> Array4Mut<'a> {
    /// View a raw mutable component-major slice (e.g. an arena scratch
    /// buffer) as a fab over `bx`, writable under the same disjoint-access
    /// contract as [`FArrayBox::array_mut`].
    pub fn from_slice(data: &'a mut [Real], bx: IndexBox, ncomp: usize) -> Self {
        assert_eq!(data.len(), bx.num_zones() as usize * ncomp);
        Array4Mut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            bx,
            ncomp,
            strides: Strides::new(bx),
            _marker: PhantomData,
        }
    }

    #[inline]
    fn offset(&self, i: i32, j: i32, k: i32, c: usize) -> usize {
        debug_assert!(
            self.bx.contains(IntVect::new(i, j, k)),
            "({i},{j},{k}) outside {:?}",
            self.bx
        );
        debug_assert!(c < self.ncomp);
        let o = self.strides.offset(i, j, k, c);
        debug_assert!(o < self.len);
        o
    }

    /// Read the value at `(i, j, k)` component `c`.
    #[inline]
    pub fn at(&self, i: i32, j: i32, k: i32, c: usize) -> Real {
        let o = self.offset(i, j, k, c);
        // SAFETY: offset is in-bounds (debug-asserted; guaranteed by
        // construction from a live Vec) and callers honour the
        // disjoint-access contract.
        unsafe { *self.ptr.add(o) }
    }

    /// Write `v` at `(i, j, k)` component `c`.
    #[inline]
    pub fn set(&self, i: i32, j: i32, k: i32, c: usize, v: Real) {
        let o = self.offset(i, j, k, c);
        // SAFETY: as for `at`; each slot is written by at most one kernel
        // invocation per the module contract.
        unsafe {
            *self.ptr.add(o) = v;
        }
    }

    /// Add `v` into `(i, j, k)` component `c`.
    #[inline]
    pub fn add(&self, i: i32, j: i32, k: i32, c: usize, v: Real) {
        self.set(i, j, k, c, self.at(i, j, k, c) + v);
    }

    /// The box this view covers.
    pub fn index_box(&self) -> IndexBox {
        self.bx
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_parallel::{ExecSpace, TiledExec};
    use proptest::prelude::*;

    #[test]
    fn fab_get_set_roundtrip() {
        let bx = IndexBox::new(IntVect::new(-2, 0, 1), IntVect::new(3, 4, 5));
        let mut fab = FArrayBox::new(bx, 3);
        for (n, iv) in bx.iter().enumerate() {
            fab.set(iv, 1, n as Real);
        }
        for (n, iv) in bx.iter().enumerate() {
            assert_eq!(fab.get(iv, 1), n as Real);
            assert_eq!(fab.get(iv, 0), 0.0);
            assert_eq!(fab.get(iv, 2), 0.0);
        }
    }

    #[test]
    fn set_val_per_component() {
        let mut fab = FArrayBox::new(IndexBox::cube(4), 2);
        fab.set_val(0, 1.5);
        fab.set_val(1, -2.5);
        assert_eq!(fab.sum(IndexBox::cube(4), 0), 1.5 * 64.0);
        assert_eq!(fab.sum(IndexBox::cube(4), 1), -2.5 * 64.0);
        assert_eq!(fab.norm_inf(IndexBox::cube(4), 1), 2.5);
    }

    #[test]
    fn copy_from_intersection_only() {
        let mut dst = FArrayBox::new(IndexBox::cube(4), 1);
        let mut src = FArrayBox::new(IndexBox::cube(8).shift(IntVect::splat(2)), 1);
        src.set_val(0, 9.0);
        dst.copy_from(&src, IndexBox::cube(8), 0, 0, 1);
        // Only the overlap [2,3]^3 was copied.
        assert_eq!(dst.sum(IndexBox::cube(4), 0), 9.0 * 8.0);
        assert_eq!(dst.get(IntVect::zero(), 0), 0.0);
        assert_eq!(dst.get(IntVect::splat(3), 0), 9.0);
    }

    #[test]
    fn copy_shifted_maps_source_indices() {
        let mut dst = FArrayBox::new(IndexBox::cube(4), 1);
        let mut src = FArrayBox::new(IndexBox::cube(4), 1);
        for iv in IndexBox::cube(4).iter() {
            src.set(iv, 0, (iv.x() + 10 * iv.y()) as Real);
        }
        // dst[iv] = src[iv - (1,0,0)] over the column i=1..3
        let region = IndexBox::new(IntVect::new(1, 0, 0), IntVect::new(3, 3, 3));
        dst.copy_shifted(&src, region, IntVect::new(1, 0, 0), 1);
        assert_eq!(
            dst.get(IntVect::new(1, 2, 0), 0),
            src.get(IntVect::new(0, 2, 0), 0)
        );
        assert_eq!(
            dst.get(IntVect::new(3, 3, 3), 0),
            src.get(IntVect::new(2, 3, 3), 0)
        );
    }

    #[test]
    fn array4_mut_parallel_write_disjoint() {
        let bx = IndexBox::cube(16);
        let mut fab = FArrayBox::new(bx, 2);
        let arr = fab.array_mut();
        let ex = ExecSpace::Tiled(TiledExec {
            nthreads: 4,
            tile_size: IntVect::new(8, 8, 4),
        });
        ex.par_for(bx, |i, j, k| {
            arr.set(i, j, k, 0, (i + j + k) as Real);
            arr.set(i, j, k, 1, (i * j * k) as Real);
        });
        for iv in bx.iter() {
            assert_eq!(fab.get(iv, 0), (iv.x() + iv.y() + iv.z()) as Real);
            assert_eq!(fab.get(iv, 1), (iv.x() * iv.y() * iv.z()) as Real);
        }
    }

    #[test]
    fn array4_reads_match_fab() {
        let bx = IndexBox::cube(5);
        let mut fab = FArrayBox::new(bx, 1);
        for iv in bx.iter() {
            fab.set(iv, 0, (iv.x() * 100 + iv.y() * 10 + iv.z()) as Real);
        }
        let a = fab.array();
        for iv in bx.iter() {
            assert_eq!(a.at(iv.x(), iv.y(), iv.z(), 0), fab.get(iv, 0));
        }
    }

    #[test]
    fn array4_mut_add_accumulates() {
        let bx = IndexBox::cube(2);
        let mut fab = FArrayBox::new(bx, 1);
        let arr = fab.array_mut();
        arr.add(0, 0, 0, 0, 1.0);
        arr.add(0, 0, 0, 0, 2.5);
        assert_eq!(fab.get(IntVect::zero(), 0), 3.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The precomputed strides give the same offset as the box's own
        /// `num_zones()·c + linear_index()` in all three views, including
        /// boxes with negative `lo`.
        #[test]
        fn strided_offsets_match_linear_index(
            lo in (-9i32..6, -9i32..6, -9i32..6),
            size in (1i32..7, 1i32..7, 1i32..7),
            ncomp in 1usize..4,
        ) {
            let lo = IntVect::new(lo.0, lo.1, lo.2);
            let bx = IndexBox::new(lo, lo + IntVect::new(size.0, size.1, size.2) - IntVect::unit());
            let n = bx.num_zones() as usize;
            let mut fab = FArrayBox::new(bx, ncomp);
            let mut raw = vec![0.0; n * ncomp];
            for c in 0..ncomp {
                for iv in bx.iter() {
                    let expect = n * c + bx.linear_index(iv);
                    prop_assert_eq!(fab.offset(iv, c), expect);
                    prop_assert_eq!(fab.array().offset(iv.x(), iv.y(), iv.z(), c), expect);
                    prop_assert_eq!(fab.array_mut().offset(iv.x(), iv.y(), iv.z(), c), expect);
                    prop_assert_eq!(
                        Array4::from_slice(&raw, bx, ncomp).offset(iv.x(), iv.y(), iv.z(), c),
                        expect
                    );
                    prop_assert_eq!(
                        Array4Mut::from_slice(&mut raw, bx, ncomp).offset(iv.x(), iv.y(), iv.z(), c),
                        expect
                    );
                }
            }
        }
    }

    #[test]
    fn fab_bytes() {
        let fab = FArrayBox::new(IndexBox::cube(4), 3);
        assert_eq!(fab.bytes(), 64 * 3 * 8);
    }
}
