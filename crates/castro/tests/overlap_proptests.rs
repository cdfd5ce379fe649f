//! Property test: the free-graph (overlapped) Castro advance is
//! bit-identical to the barrier-graph (bulk-synchronous) one across
//! randomized domain sizes, box decompositions, boundary conditions, and
//! both kernel structures. This is the tentpole determinism contract —
//! overlap is a pure scheduling change, never a numerical one.

use exastro_amr::{BoxArray, DistributionMapping, Geometry, MultiFab};
use exastro_castro::{
    init_sedov, Castro, Floors, Hydro, KernelStructure, SedovParams, StateLayout,
};
use exastro_microphysics::{CBurn2, GammaLaw, Network};
use proptest::prelude::*;

fn sedov_state(n: i32, max_grid: i32, periodic: bool) -> (Geometry, MultiFab, StateLayout) {
    let geom = Geometry::cube(n, 1.0, periodic);
    let ba = BoxArray::decompose(geom.domain(), max_grid, 8);
    let dm = DistributionMapping::all_local(&ba);
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    init_sedov(&mut state, &geom, &layout, &eos, &SedovParams::default());
    (geom, state, layout)
}

fn castro<'a>(
    eos: &'a GammaLaw,
    net: &'a CBurn2,
    structure: KernelStructure,
    overlap: bool,
) -> Castro<'a> {
    let mut c = Castro::new(eos, net);
    c.hydro = Hydro {
        cfl: 0.4,
        structure,
        overlap,
        floors: Floors::dimensionless(),
    };
    c.burn = None;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn overlapped_advance_is_bit_identical_to_sync(
        size_pick in 0u8..2,
        grid_pick in 0u8..2,
        periodic_bit in 0u8..2,
        steps in 1u32..3,
        legacy_bit in 0u8..2,
    ) {
        let n = if size_pick == 0 { 8 } else { 12 };
        let max_grid = if grid_pick == 0 { 4 } else { 8 };
        let periodic = periodic_bit == 1;
        let structure = if legacy_bit == 1 {
            KernelStructure::Legacy
        } else {
            KernelStructure::Flat
        };
        let (geom, initial, _layout) = sedov_state(n, max_grid, periodic);
        let eos = GammaLaw::monatomic();
        let net = CBurn2::new();
        let sync = castro(&eos, &net, structure, false);
        let ovl = castro(&eos, &net, structure, true);

        let mut s_sync = initial.clone();
        let mut s_ovl = initial;
        let mut sync_net = 0u64;
        let mut ovl_net = 0u64;
        let mut sync_local = 0u64;
        let mut ovl_local = 0u64;
        for _ in 0..steps {
            let dt = sync.estimate_dt(&s_sync, &geom);
            let (st_a, _) = sync.advance_level(&mut s_sync, &geom, dt).unwrap();
            let (st_b, _) = ovl.advance_level(&mut s_ovl, &geom, dt).unwrap();
            sync_net += st_a.comm.network_bytes();
            ovl_net += st_b.comm.network_bytes();
            sync_local += st_a.comm.local_bytes;
            ovl_local += st_b.comm.local_bytes;
        }

        for i in 0..s_sync.nfabs() {
            let gb = s_sync.grown_box(i);
            for iv in gb.iter() {
                for c in 0..s_sync.ncomp() {
                    let a = s_sync.fab(i).get(iv, c);
                    let b = s_ovl.fab(i).get(iv, c);
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "divergence at fab {} {:?} comp {}: {} vs {}",
                        i, iv, c, a, b
                    );
                }
            }
        }
        // The comm ledger must price identically too: the overlapped plan
        // moves the same bytes, it just moves them behind compute.
        prop_assert_eq!(sync_net, ovl_net);
        prop_assert_eq!(sync_local, ovl_local);
    }
}
