//! Conserved-state layout and conversions for the compressible solver.
//!
//! The Castro state vector per zone is `(ρ, ρu, ρv, ρw, ρE, ρe, T, ρX_k)`:
//! density, momentum, total energy, internal energy (carried for
//! diagnostics/EOS calls), temperature, and partial densities for each
//! network species.

use exastro_microphysics::{Composition, Eos};
use exastro_parallel::Real;

/// Component indices of the conserved state.
#[derive(Clone, Copy, Debug)]
pub struct StateLayout {
    /// Number of species advected.
    pub nspec: usize,
}

impl StateLayout {
    /// Density ρ.
    pub const RHO: usize = 0;
    /// x-momentum ρu.
    pub const MX: usize = 1;
    /// y-momentum ρv.
    pub const MY: usize = 2;
    /// z-momentum ρw.
    pub const MZ: usize = 3;
    /// Total energy density ρE.
    pub const EDEN: usize = 4;
    /// Internal energy density ρe.
    pub const EINT: usize = 5;
    /// Temperature.
    pub const TEMP: usize = 6;
    /// First species partial density ρX₀.
    pub const FS: usize = 7;
    /// Most species the solver carries: its per-zone and per-face scratch
    /// is fixed-size stack storage of this length. `Hydro::advance` and
    /// `Hydro::estimate_dt` assert it on entry.
    pub const MAX_SPEC: usize = 16;
    /// Most state components, `FS + MAX_SPEC`.
    pub const MAX_COMP: usize = Self::FS + Self::MAX_SPEC;

    /// Create a layout for `nspec` species.
    pub fn new(nspec: usize) -> Self {
        StateLayout { nspec }
    }

    /// Total number of components.
    pub fn ncomp(&self) -> usize {
        Self::FS + self.nspec
    }

    /// Component index of species `k`.
    pub fn spec(&self, k: usize) -> usize {
        debug_assert!(k < self.nspec);
        Self::FS + k
    }

    /// Momentum component for direction `d`.
    pub fn mom(&self, d: usize) -> usize {
        Self::MX + d
    }
}

/// Primitive variables at a zone, used by the reconstruction and Riemann
/// solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct Primitive {
    /// Density.
    pub rho: Real,
    /// Velocity components.
    pub vel: [Real; 3],
    /// Pressure.
    pub p: Real,
    /// Specific internal energy.
    pub e: Real,
    /// Sound speed.
    pub cs: Real,
}

impl Primitive {
    /// Total specific energy.
    pub fn etot(&self) -> Real {
        self.e
            + 0.5
                * (self.vel[0] * self.vel[0]
                    + self.vel[1] * self.vel[1]
                    + self.vel[2] * self.vel[2])
    }
}

/// Floors applied to keep the state physical through strong rarefactions.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    /// Minimum density.
    pub small_dens: Real,
    /// Minimum temperature.
    pub small_temp: Real,
    /// Minimum pressure.
    pub small_pres: Real,
}

impl Default for Floors {
    fn default() -> Self {
        Floors {
            small_dens: 1e-12,
            small_temp: 1e-2,
            small_pres: 1e-20,
        }
    }
}

impl Floors {
    /// Floors for non-dimensionalized test problems (Sod, Sedov with
    /// order-unity densities and pressures), where the gamma-law
    /// "temperature" is a tiny bookkeeping quantity.
    pub fn dimensionless() -> Self {
        Floors {
            small_dens: 1e-12,
            small_temp: 1e-30,
            small_pres: 1e-30,
        }
    }
}

/// Density (floored), velocity and specific internal energy of one zone
/// of conserved data `u`. The energy is `E/ρ − ½|v|²`, or the advected
/// internal energy when that residual is not positive (dual-energy guard).
pub(crate) fn density_velocity_energy(u: &[Real], floors: &Floors) -> (Real, [Real; 3], Real) {
    let rho = u[StateLayout::RHO].max(floors.small_dens);
    let inv = 1.0 / rho;
    let vel = [
        u[StateLayout::MX] * inv,
        u[StateLayout::MY] * inv,
        u[StateLayout::MZ] * inv,
    ];
    let ke = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    let mut e = u[StateLayout::EDEN] * inv - ke;
    if e <= 0.0 {
        e = (u[StateLayout::EINT] * inv).max(1e-30);
    }
    (rho, vel, e)
}

/// Convert one zone of conserved data to primitives using the EOS.
///
/// `u` must contain `layout.ncomp()` values. The temperature entry is used
/// as the EOS Newton initial guess.
pub fn cons_to_prim(
    u: &[Real],
    layout: &StateLayout,
    eos: &dyn Eos,
    species: &[exastro_microphysics::Species],
    floors: &Floors,
) -> Primitive {
    let (rho, vel, e) = density_velocity_energy(u, floors);
    let inv = 1.0 / rho;
    let mut x = [0.0; StateLayout::MAX_SPEC];
    let x = &mut x[..layout.nspec];
    for (k, xk) in x.iter_mut().enumerate() {
        *xk = (u[layout.spec(k)] * inv).clamp(0.0, 1.0);
    }
    let comp = Composition::from_mass_fractions(species, x);
    let t_guess = u[StateLayout::TEMP].max(floors.small_temp);
    let t = eos.t_from_e(rho, e, &comp, t_guess).max(floors.small_temp);
    let r = eos.eval_rt(rho, t, &comp);
    Primitive {
        rho,
        vel,
        p: r.p.max(floors.small_pres),
        e,
        cs: r.cs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_microphysics::network::Network;
    use exastro_microphysics::{CBurn2, GammaLaw};

    #[test]
    fn layout_indices() {
        let l = StateLayout::new(2);
        assert_eq!(l.ncomp(), 9);
        assert_eq!(l.spec(0), 7);
        assert_eq!(l.spec(1), 8);
        assert_eq!(l.mom(2), StateLayout::MZ);
    }

    #[test]
    fn cons_prim_roundtrip_gamma_law() {
        let net = CBurn2::new();
        let layout = StateLayout::new(2);
        let eos = GammaLaw::monatomic();
        let floors = Floors::default();
        // Build conserved state from known primitives.
        let rho = 2.0;
        let vel = [1.0e5, -3.0e4, 2.0e4];
        let t = 1.5e6;
        let x = [0.75, 0.25];
        let comp = Composition::from_mass_fractions(net.species(), &x);
        let r = eos.eval_rt(rho, t, &comp);
        let ke = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let mut u = vec![0.0; layout.ncomp()];
        u[StateLayout::RHO] = rho;
        u[StateLayout::MX] = rho * vel[0];
        u[StateLayout::MY] = rho * vel[1];
        u[StateLayout::MZ] = rho * vel[2];
        u[StateLayout::EDEN] = rho * (r.e + ke);
        u[StateLayout::EINT] = rho * r.e;
        u[StateLayout::TEMP] = 1e6; // imperfect guess
        u[layout.spec(0)] = rho * x[0];
        u[layout.spec(1)] = rho * x[1];
        let q = cons_to_prim(&u, &layout, &eos, net.species(), &floors);
        assert!((q.rho - rho).abs() < 1e-12);
        assert!((q.vel[0] - vel[0]).abs() < 1e-7);
        assert!((q.p / r.p - 1.0).abs() < 1e-8, "p {} vs {}", q.p, r.p);
        assert!((q.cs / r.cs - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_kinetic_energy_residual_falls_back_to_eint() {
        let net = CBurn2::new();
        let layout = StateLayout::new(2);
        let eos = GammaLaw::monatomic();
        let floors = Floors::default();
        let mut u = vec![0.0; layout.ncomp()];
        u[StateLayout::RHO] = 1.0;
        u[StateLayout::MX] = 10.0; // KE = 50
        u[StateLayout::EDEN] = 40.0; // less than KE → ρE − KE < 0
        u[StateLayout::EINT] = 5.0;
        u[StateLayout::TEMP] = 1e4;
        u[layout.spec(0)] = 1.0;
        let q = cons_to_prim(&u, &layout, &eos, net.species(), &floors);
        assert!((q.e - 5.0).abs() < 1e-12);
        assert!(q.p > 0.0 && q.cs > 0.0);
    }
}
