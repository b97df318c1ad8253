//! The cargo-test smoke profile ([`smoke`]) and the serving bench
//! ([`serve`]) for the Crimson experiments, with the workload constructors
//! they share ([`workloads`]). `cargo test -p bench` runs scaled-down
//! versions of the scoreboard experiments in seconds (use `--release` for
//! representative numbers); the end-to-end benchmark is `crimbench`.

pub mod serve;
pub mod smoke;
pub mod workloads;
