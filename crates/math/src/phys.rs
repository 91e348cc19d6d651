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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip() {
        let t = 5.0; // fs
        assert!((au_to_femtoseconds(femtoseconds_to_au(t)) - t).abs() < 1e-12);
    }

    #[test]
    fn one_hartree_in_electron_volts() {
        assert!((hartree_to_ev(1.0) - 27.211386).abs() < 1e-5);
    }

    #[test]
    fn one_bohr_in_angstroms() {
        assert!((angstrom_to_bohr(0.529_177_210_903) - 1.0).abs() < 1e-15);
    }
}
