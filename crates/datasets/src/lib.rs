//! # lcrb-datasets
//!
//! Dataset layer for the reproduction of *Least Cost Rumor Blocking
//! in Social Networks* (Fan et al., ICDCS 2013).
//!
//! Provides calibrated synthetic stand-ins for the paper's two
//! evaluation networks — [`enron_like`] (36,692 nodes, 367,662
//! directed arcs, avg degree 10.0) and [`hep_like`] (15,233 nodes,
//! 58,891 undirected edges, avg degree 7.73) — with heavy-tailed
//! planted community structure pinning the exact rumor-community
//! sizes the paper experiments on (2631, 80, and 308). A
//! [`load_edge_list`] escape hatch loads the real SNAP traces when
//! available. See DESIGN.md §3 for the substitution rationale.
//!
//! ## Example
//!
//! ```
//! use lcrb_datasets::{enron_like, DatasetConfig};
//!
//! // A 2% scale model for fast experiments.
//! let ds = enron_like(&DatasetConfig::new(0.02, 42));
//! println!("{}: {}", ds.name, ds.summary());
//! assert!(ds.planted.community_count() > 2);
//! ```

mod loader;
mod synthetic;

pub use loader::load_edge_list;
pub use synthetic::{
    enron_like, enron_like_heterogeneous, enron_stats, hep_like, hep_like_heterogeneous, hep_stats,
    DatasetConfig, SyntheticDataset,
};
