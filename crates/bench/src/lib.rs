//! # lcrb-bench
//!
//! Experiment harness and benchmark support for the LCRB
//! reproduction. The [`harness`] module regenerates every table and
//! figure of the paper's evaluation section; [`report`] renders the
//! results as text tables and CSV. The `experiments` binary is the
//! command-line front end:
//!
//! ```text
//! cargo run --release -p lcrb-bench --bin experiments -- all
//! cargo run --release -p lcrb-bench --bin experiments -- fig4 --scale 0.2 --runs 100
//! cargo run --release -p lcrb-bench --bin experiments -- table1 --trials 5
//! cargo run --release -p lcrb-bench --bin experiments -- sources --trials 10
//! ```

#![allow(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "experiment harness"
)]
pub mod harness;
pub mod report;
