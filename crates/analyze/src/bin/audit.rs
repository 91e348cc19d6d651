//! `dcmesh-analyze --bin audit` — whole-workspace static analysis:
//! hygiene rules, panic-freedom call graphs from `AUDIT: no_panic`
//! roots, and machine-checked SAFETY contracts. See
//! [`dcmesh_analyze::audit`].
//!
//! Usage: `cargo run -p dcmesh-analyze --bin audit -- [ROOT]`

use std::process::ExitCode;

fn main() -> ExitCode {
    dcmesh_analyze::audit::cli_main(std::env::args().skip(1))
}
