//! A golden digest of the hydro step. Performance work on the sweeps
//! (fab indexing, ghost-exchange shape, scratch layout, scheduling) must
//! leave every bit of the solution unchanged; this test holds a recorded
//! `digest_multifab` of a short Sedov run so any such change that moves a
//! bit fails here.
//!
//! The run is a dimensionless γ-law Sedov blast: no burn, no gravity, and
//! a closed-form EOS inverse, so the step uses only + − × ÷ and `sqrt`
//! (all correctly rounded under IEEE 754) and the digest does not depend
//! on the host's libm. Valid zones only are digested, in fab order.

use exastro_amr::{BoxArray, DistStrategy, DistributionMapping, Geometry, MultiFab};
use exastro_castro::{init_sedov, Castro, Floors, SedovParams};
use exastro_microphysics::{CBurn2, GammaLaw};
use exastro_resilience::digest_multifab;

/// `digest_multifab` after 10 `advance_level` steps of the run below,
/// recorded before the sweeps moved to slab-shaped ghost exchange.
const GOLDEN_DIGEST: u32 = 1_187_377_208;

#[test]
fn sedov_16_cubed_ten_steps_matches_golden_digest() {
    let net = CBurn2::new();
    let eos = GammaLaw::monatomic();
    let geom = Geometry::cube(16, 1.0, false);
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    let mut state = MultiFab::new(ba, dm, castro.layout.ncomp(), 2);
    init_sedov(
        &mut state,
        &geom,
        &castro.layout,
        &eos,
        &SedovParams::default(),
    );
    for _ in 0..10 {
        let dt = castro.estimate_dt(&state, &geom);
        castro.advance_level(&mut state, &geom, dt).unwrap();
    }
    assert_eq!(
        digest_multifab(&state),
        GOLDEN_DIGEST,
        "the Sedov solution changed bits"
    );
}
