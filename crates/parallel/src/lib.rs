//! # exastro-parallel
//!
//! The execution-backend abstraction layer of the `exastro` suite — the Rust
//! analogue of the AMReX GPU machinery described in §III of *Preparing
//! Nuclear Astrophysics for Exascale* (Katz et al., SC 2020).
//!
//! The crate provides:
//!
//! * [`index`] — `IntVect` / `IndexBox` index-space primitives that every
//!   physics loop iterates over;
//! * [`exec`] — the `parallel_for` abstraction: one closure body, three
//!   execution spaces (serial, coarse-grained tiled threads, per-zone
//!   simulated device);
//! * [`device`] — the simulated accelerator with a calibrated cost model
//!   (launch latency, occupancy, register spilling, allocation latency,
//!   memory oversubscription);
//! * [`arena`] — the caching pool allocator and its malloc-per-call baseline;
//! * [`pool`] — the persistent worker-thread pool behind the tiled backend:
//!   threads are spawned once per process and parallel regions are a pointer
//!   handoff plus a condvar wake, not a thread spawn;
//! * [`graph`] — the dependency-graph task scheduler over the pool: boxes
//!   become tasks, ghost exchanges become edges, interior kernels run while
//!   halos are in flight (the overlap behind the two-phase comm API);
//! * [`profiler`] — TinyProfiler-style execution telemetry: named nested
//!   regions accumulating wall time, zones processed, and simulated device
//!   microseconds, rendered as an end-of-run report.
//!
//! Since no real GPU is available in this reproduction, kernels launched on
//! the device space execute on the host — producing bit-identical physics —
//! while the device is charged a modelled execution time used by the
//! `exastro-machine` cluster simulator to regenerate the paper's scaling
//! figures.

// `deny` rather than `forbid`: the worker pool's dispatch core is the one
// audited module allowed to opt back in (see crates/parallel/src/pool.rs for
// the soundness argument); everything else remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod device;
pub mod exec;
pub mod graph;
pub mod index;
pub mod pool;
pub mod profiler;

pub use arena::{Arena, ArenaStats, MallocArena, PoolArena, ScratchBuf};
pub use device::{DeviceConfig, DeviceStats, KernelProfile, SimDevice};
pub use exastro_telemetry::graphtrace::{TaskClass, TaskLabel};
pub use exec::{tiles_of, ExecSpace, TiledExec};
pub use graph::{GraphError, GraphRunStats, TaskGraph};
pub use index::{IndexBox, IntVect, SPACEDIM};
pub use pool::{
    par_each_mut, par_each_mut_bounded, par_index_each, par_map_fold, try_par_for, PoolStats,
    Tasks, WorkerPool,
};
pub use profiler::{InstalledStack, Profiler, Region, RegionStats};

/// The floating-point type used throughout the suite.
pub type Real = f64;
