//! Netlist hypergraph substrate for hierarchical tree partitioning.
//!
//! This crate provides the circuit representation that every other crate in
//! the workspace builds on:
//!
//! * [`Hypergraph`] — an immutable, CSR-packed hypergraph with node sizes and
//!   net capacities, built through [`HypergraphBuilder`].
//! * [`io`] — readers and writers for the hMETIS `.hgr` format and a small
//!   named-netlist text format.
//! * [`gen`] — synthetic workload generators, including deterministic
//!   surrogates for the ISCAS85 circuits used in the paper's evaluation
//!   (the real MCNC netlists are proprietary; see `DESIGN.md`).
//!
//! # Examples
//!
//! ```
//! use htp_netlist::{Hypergraph, HypergraphBuilder};
//!
//! # fn main() -> Result<(), htp_netlist::NetlistError> {
//! let mut b = HypergraphBuilder::new();
//! let a = b.add_node(1);
//! let c = b.add_node(1);
//! let d = b.add_node(2);
//! b.add_net(1.0, [a, c])?;
//! b.add_net(2.0, [a, c, d])?;
//! let h: Hypergraph = b.build()?;
//! assert_eq!(h.num_nodes(), 3);
//! assert_eq!(h.num_nets(), 2);
//! assert_eq!(h.num_pins(), 5);
//! assert_eq!(h.total_size(), 4);
//! # Ok(())
//! # }
//! ```

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod builder;
pub mod coarsen;
pub mod csr;
pub mod error;
pub mod gen;
pub mod hypergraph;
pub mod io;
pub mod stats;
pub mod validate;

mod ids;

pub use builder::HypergraphBuilder;
pub use coarsen::{
    contract_tracked_with, contract_with, ContractScratch, ContractStats, DROPPED_NET,
};
pub use csr::CsrHypergraph;
pub use error::NetlistError;
pub use hypergraph::{Hypergraph, InducedSubgraph};
pub use ids::{NetId, NodeId};
pub use stats::NetlistStats;
