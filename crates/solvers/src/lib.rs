//! # exastro-solvers
//!
//! Linear solvers for the globally coupled physics of the suite: the
//! geometric multigrid used by Castro's self-gravity and MAESTROeX's
//! low-Mach projection (§IV-B of the paper). It runs on distributed
//! [`exastro_amr::MultiFab`] data and returns communication ledgers that the
//! `exastro-machine` cluster simulator prices when regenerating the
//! weak-scaling figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed-extent arrays (species, dims, stencil
// points) are the house style in this numerical code; iterator rewrites
// obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod multigrid;

pub use multigrid::{LevelComm, MgBc, MgOptions, MgStats, Multigrid};
