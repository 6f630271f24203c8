//! # echelon-bench — experiment harness for every table and figure
//!
//! Each module under [`experiments`] regenerates one artifact of the
//! paper (see `DESIGN.md` §4 for the index E1-E11). The `repro` binary
//! prints them as tables.

pub mod experiments;
pub mod table;
