//! The repository's benchmark: four seeded workloads driven through the
//! production `FileSystem` path (the threaded `FsdEngine`, plain and
//! sync-replicated), reported on both clocks — host time for the Rust
//! code's own cost, simulated disk time for the paper's — plus a traced
//! run that splits the cost into the engine, volume, log, disk, recovery
//! and replication layers. `BENCHMARK.json` at the repository root
//! documents every workload and metric.

#![deny(unsafe_code)]

pub mod e2e;
pub mod gen;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
