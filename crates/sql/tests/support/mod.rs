//! Test-side reference models for the SQL crate's differential suites.

pub mod exec_model;
