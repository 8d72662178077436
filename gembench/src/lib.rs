//! `gembench`: the end-to-end benchmark of the GemStone reproduction on the
//! paper's Employee/Department schema. See `README.md` beside this crate.

pub mod bench;
pub mod gen;
pub mod stats;
pub mod trace;
