//! Clock-free building blocks of the repository benchmark: command-line
//! arguments, seeded input generation, statistics, the verification pass
//! and the result line.
//!
//! Everything that reads the host clock lives in the `repo` bench target
//! (`benches/repo.rs`); this library stays deterministic so its rules can
//! be unit-tested.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod inputs;
pub mod report;
pub mod stats;
pub mod verify;
