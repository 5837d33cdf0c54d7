//! Host-time benchmark of the Vulcan simulator: the paper's co-location
//! cells run closed-loop on one thread, timed end to end and, in a
//! separate traced run, layer by layer from spans recorded around calls
//! into the simulator's public functions. See `perfbench/README.md`.

pub mod cell;
pub mod digest;
pub mod ledger;
pub mod rep;
pub mod stats;
pub mod trace;
