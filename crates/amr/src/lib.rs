//! # exastro-amr
//!
//! A block-structured adaptive-mesh-refinement framework in the style of
//! AMReX (Zhang et al. 2019), the substrate beneath Castro and MAESTROeX.
//!
//! * [`geometry`] — index-space ↔ physical-space mapping, periodicity;
//! * [`boxarray`] — domain decomposition into boxes (`max_grid_size` chop);
//! * [`distribution`] — box → rank assignment (round-robin / knapsack /
//!   Morton space-filling curve);
//! * [`fab`] — `FArrayBox` dense arrays and the `Array4` kernel views;
//! * [`multifab`] — the distributed field container, ghost-zone exchange
//!   with communication tracing, the [`HaloGraph`] step-graph skeleton the
//!   drivers share, physical boundary conditions, reductions;
//! * [`interp`] — conservative prolongation and restriction;
//! * [`mod@cluster`] — error tagging → grid generation (Berger–Rigoutsos style);
//! * [`hierarchy`] — multi-level meshes, regridding, `fill_patch`;
//! * [`flux_register`] — conservation repair at coarse–fine boundaries.

#![warn(missing_docs)]
// Indexed loops over small fixed-extent arrays (species, dims, stencil
// points) are the house style in this numerical code; iterator rewrites
// obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod boxarray;
pub mod cluster;
pub mod distribution;
pub mod fab;
pub mod flux_register;
pub mod geometry;
pub mod hierarchy;
pub mod interp;
pub mod io;
pub mod multifab;

pub use boxarray::BoxArray;
pub use cluster::{cluster, ClusterParams};
pub use distribution::{DistStrategy, DistributionMapping};
pub use fab::{Array4, Array4Mut, FArrayBox};
pub use flux_register::FluxRegister;
pub use geometry::{CoordSys, Geometry};
pub use hierarchy::{fill_patch_two_levels, AmrLevel, Hierarchy};
pub use interp::{average_down, prolong_lin, prolong_pc};
pub use io::{read_checkpoint, write_checkpoint, Checkpoint, IoError};
pub use multifab::{
    BcKind, BcSpec, CommTrace, GhostShape, HaloDep, HaloGraph, HaloStage, Message, MultiFab,
    PendingComm,
};

// Re-export the index primitives so downstream crates have one import path.
pub use exastro_parallel::{IndexBox, IntVect, Real, SPACEDIM};

/// The box of fine zones covered by coarse zone `civ` at refinement `ratio`.
#[inline]
pub fn fine_zones_of(civ: IntVect, ratio: i32) -> IndexBox {
    let lo = civ.scale(IntVect::splat(ratio));
    IndexBox::new(lo, lo + IntVect::splat(ratio - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_zones_cover_refined_box() {
        let civ = IntVect::new(2, -1, 0);
        let fz = fine_zones_of(civ, 4);
        assert_eq!(fz.num_zones(), 64);
        assert_eq!(fz.lo(), IntVect::new(8, -4, 0));
        assert_eq!(fz.coarsen(4), IndexBox::new(civ, civ));
    }
}
