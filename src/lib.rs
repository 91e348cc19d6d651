//! dcmesh umbrella crate: re-exports the whole workspace public API.
pub use dcmesh_comm as comm;
pub use dcmesh_core as core;
pub use dcmesh_device as device;
pub use dcmesh_grid as grid;
pub use dcmesh_lfd as lfd;
pub use dcmesh_math as math;
pub use dcmesh_obs as obs;
pub use dcmesh_qxmd as qxmd;
pub use dcmesh_serve as serve;
pub use dcmesh_tddft as tddft;
