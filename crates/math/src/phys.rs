//! Physical constants and unit conversions (Hartree atomic units).
//!
//! DC-MESH spans attosecond electron dynamics (Delta_QD ~ 1e-18 s) and
//! femtosecond atomic dynamics (Delta_MD ~ 1e-15 s); all internal arithmetic
//! uses Hartree atomic units (hbar = m_e = e = 1, c = 1/alpha) and converts
//! at the boundaries.

/// Speed of light in atomic units (1 / fine-structure constant).
pub const SPEED_OF_LIGHT_AU: f64 = 137.035_999_084;

/// One atomic time unit in attoseconds (hbar / Hartree).
pub const ATOMIC_TIME_AS: f64 = 24.188_843_265_857;

/// One Bohr radius in angstroms.
pub const BOHR_ANGSTROM: f64 = 0.529_177_210_903;

/// One Hartree in electron-volts.
pub const HARTREE_EV: f64 = 27.211_386_245_988;

/// Boltzmann constant in Hartree per kelvin.
pub const KB_HARTREE_PER_K: f64 = 3.166_811_563e-6;

/// One atomic mass unit (dalton) in electron masses.
pub const AMU_IN_ME: f64 = 1_822.888_486_209;

/// Convert a time in attoseconds to atomic units.
#[inline]
pub fn attoseconds_to_au(t_as: f64) -> f64 {
    t_as / ATOMIC_TIME_AS
}

/// Convert a time in femtoseconds to atomic units.
#[inline]
pub fn femtoseconds_to_au(t_fs: f64) -> f64 {
    t_fs * 1e3 / ATOMIC_TIME_AS
}

/// Convert atomic-unit time to femtoseconds.
#[inline]
pub fn au_to_femtoseconds(t_au: f64) -> f64 {
    t_au * ATOMIC_TIME_AS * 1e-3
}

/// Convert an energy in electron-volts to Hartree.
#[inline]
pub fn ev_to_hartree(e_ev: f64) -> f64 {
    e_ev / HARTREE_EV
}

/// Convert Hartree to electron-volts.
#[inline]
pub fn hartree_to_ev(e_ha: f64) -> f64 {
    e_ha * HARTREE_EV
}

/// Convert angstroms to Bohr.
#[inline]
pub fn angstrom_to_bohr(x_a: f64) -> f64 {
    x_a / BOHR_ANGSTROM
}

/// Convert Bohr to angstroms.
#[inline]
pub fn bohr_to_angstrom(x_b: f64) -> f64 {
    x_b * BOHR_ANGSTROM
}

/// Laser intensity (W/cm^2) to peak electric field in atomic units.
/// E_au = sqrt(I / 3.509e16 W/cm^2).
#[inline]
pub fn intensity_to_field_au(intensity_w_cm2: f64) -> f64 {
    (intensity_w_cm2 / 3.509_445e16).sqrt()
}

/// Photon energy (eV) to angular frequency in atomic units (hbar = 1).
#[inline]
pub fn photon_ev_to_omega_au(e_ev: f64) -> f64 {
    ev_to_hartree(e_ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip() {
        let t = 5.0; // fs
        assert!((au_to_femtoseconds(femtoseconds_to_au(t)) - t).abs() < 1e-12);
        // 1 fs = 1000 as
        assert!((femtoseconds_to_au(1.0) - attoseconds_to_au(1000.0)).abs() < 1e-12);
    }

    #[test]
    fn energy_roundtrip() {
        assert!((hartree_to_ev(ev_to_hartree(3.2)) - 3.2).abs() < 1e-12);
        assert!((hartree_to_ev(1.0) - 27.211386).abs() < 1e-5);
    }

    #[test]
    fn length_roundtrip() {
        assert!((bohr_to_angstrom(angstrom_to_bohr(3.9)) - 3.9).abs() < 1e-12);
    }

    #[test]
    fn reference_intensity() {
        // The atomic unit of intensity: field = 1 au.
        assert!((intensity_to_field_au(3.509_445e16) - 1.0).abs() < 1e-12);
        // 1e12 W/cm^2 is a weak field, << 1 au.
        assert!(intensity_to_field_au(1e12) < 0.01);
    }

    #[test]
    fn timescale_separation_of_the_paper() {
        // Delta_QD ~ 1e-18 s, Delta_MD ~ 1e-15 s: the ratio N_QD = 1000 used
        // in the paper's benchmarks is consistent with these scales.
        let dqd = attoseconds_to_au(1.0);
        let dmd = femtoseconds_to_au(1.0);
        assert!((dmd / dqd - 1000.0).abs() < 1e-9);
    }
}
