//! The post-hydro EOS re-sync (`Castro::sync_temperature`): how many EOS
//! evaluations it costs per zone, and that its pool-parallel form gives
//! the same bits as a serial per-zone pass.

use exastro_amr::{
    BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab,
};
use exastro_castro::{
    cons_to_prim, init_collision, init_sedov, Castro, CollisionParams, Floors, SedovParams,
    StateLayout,
};
use exastro_microphysics::{Aprox13, CBurn2, Composition, Eos, EosResult, GammaLaw, StellarEos};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A γ-law EOS that counts `eval_rt` calls and keeps the trait's generic
/// Newton `t_from_e`, so the count is what an EOS without a closed-form
/// inverse would pay.
struct CountingEos {
    inner: GammaLaw,
    evals: AtomicUsize,
}

impl Eos for CountingEos {
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_rt(rho, t, comp)
    }
}

fn two_rank_state(geom: &Geometry, layout: &StateLayout) -> MultiFab {
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    MultiFab::new(ba, dm, layout.ncomp(), 2)
}

/// One hydro step without the re-sync that `advance_level` would follow
/// it with.
fn hydro_step(castro: &Castro<'_>, state: &mut MultiFab, geom: &Geometry) {
    let dt = castro.estimate_dt(state, geom);
    let _ = castro.hydro.advance(
        state,
        dt,
        geom,
        &castro.layout,
        castro.eos,
        castro.net.species(),
        &castro.bc,
        &castro.ex,
        castro.arena.as_ref(),
    );
}

#[test]
fn dimensionless_sedov_resync_costs_a_few_evals_per_zone() {
    let net = CBurn2::new();
    let eos = CountingEos {
        inner: GammaLaw::monatomic(),
        evals: AtomicUsize::new(0),
    };
    let geom = Geometry::cube(16, 1.0, false);
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.floors = Floors::dimensionless();
    let mut state = two_rank_state(&geom, &castro.layout);
    init_sedov(
        &mut state,
        &geom,
        &castro.layout,
        &eos.inner,
        &SedovParams::default(),
    );
    // `init_sedov` sets temperatures for abar = 1, not for the network's
    // first species, so the first re-sync starts every zone a factor abar
    // off. One full step makes them consistent; the counted re-sync then
    // follows the next hydro update.
    let dt = castro.estimate_dt(&state, &geom);
    castro.advance_level(&mut state, &geom, dt).unwrap();
    hydro_step(&castro, &mut state, &geom);

    eos.evals.store(0, Ordering::Relaxed);
    castro.sync_temperature(&mut state);
    let zones = geom.domain().num_zones() as f64;
    let per_zone = eos.evals.load(Ordering::Relaxed) as f64 / zones;
    assert!(
        per_zone <= 4.0,
        "sync_temperature made {per_zone:.1} eval_rt calls per zone"
    );
}

/// The re-sync as a serial per-zone pass with per-zone buffers: primitives
/// from `cons_to_prim`, species renormalized, then a second solve seeded
/// with the stored temperature floored at `small_temp`.
fn serial_resync(castro: &Castro<'_>, state: &mut MultiFab) {
    let layout = castro.layout;
    let floors = castro.hydro.floors;
    let species = castro.net.species();
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        let fab = state.fab_mut(i);
        for iv in vb.iter() {
            let u: Vec<f64> = (0..layout.ncomp()).map(|c| fab.get(iv, c)).collect();
            let q = cons_to_prim(&u, &layout, castro.eos, species, &floors);
            let rho = q.rho;
            let mut xsum = 0.0;
            for s in 0..layout.nspec {
                xsum += (fab.get(iv, layout.spec(s)) / rho).max(0.0);
            }
            if xsum > 0.0 {
                for s in 0..layout.nspec {
                    let x = (fab.get(iv, layout.spec(s)) / rho).max(0.0) / xsum;
                    fab.set(iv, layout.spec(s), rho * x);
                }
            }
            let x: Vec<f64> = (0..layout.nspec)
                .map(|s| fab.get(iv, layout.spec(s)) / rho)
                .collect();
            let comp = Composition::from_mass_fractions(species, &x);
            let t_guess = fab.get(iv, StateLayout::TEMP).max(floors.small_temp);
            let t = castro.eos.t_from_e(rho, q.e, &comp, t_guess);
            fab.set(iv, StateLayout::TEMP, t.max(floors.small_temp));
            fab.set(iv, StateLayout::EINT, rho * q.e);
        }
    }
}

#[test]
fn pool_resync_matches_serial_reference_bitwise_on_collision() {
    let net = Aprox13::new();
    let eos = StellarEos;
    let params = CollisionParams {
        separation: 3.0,
        v_approach: 6e8,
        ..Default::default()
    };
    let half = 2.5 * params.radius;
    let geom = Geometry::new(
        IndexBox::cube(16),
        [-half; 3],
        [half; 3],
        [false; 3],
        CoordSys::Cartesian,
    );
    let castro = Castro::new(&eos, &net);
    let mut state = two_rank_state(&geom, &castro.layout);
    init_collision(&mut state, &geom, &castro.layout, &eos, &net, &params);
    hydro_step(&castro, &mut state, &geom);

    let before = state.clone();
    let mut reference = state.clone();
    serial_resync(&castro, &mut reference);
    castro.sync_temperature(&mut state);
    assert!(state.nfabs() > 1, "one fab leaves nothing to parallelize");
    let mut reheated = 0;
    for i in 0..state.nfabs() {
        let (a, b) = (state.fab(i), reference.fab(i));
        for iv in state.valid_box(i).iter() {
            for c in 0..castro.layout.ncomp() {
                assert_eq!(
                    a.get(iv, c).to_bits(),
                    b.get(iv, c).to_bits(),
                    "fab {i} zone {iv:?} component {c}"
                );
            }
            let t0 = before.fab(i).get(iv, StateLayout::TEMP);
            reheated += usize::from(a.get(iv, StateLayout::TEMP) != t0);
        }
    }
    // The hydro step must have moved temperatures, or the comparison
    // above checks nothing.
    assert!(reheated > 0, "no zone changed temperature");
}
