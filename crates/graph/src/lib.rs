//! Graph-algorithm substrate for hierarchical tree partitioning.
//!
//! The data structures and the one flow algorithm the partitioner's hot
//! paths use:
//!
//! * [`Frontier`] — the priority-queue contract of the shortest-path
//!   kernel, with two implementations that pop in the same order: the
//!   4-ary [`IndexedMinHeap`] and the bucket [`DialQueue`] (sized by
//!   [`dial_plan`] from the net-length spectrum).
//! * [`maxflow`] — Dinic's max-flow on a directed network, behind the
//!   multilevel V-cycle's flow refinement.
//! * [`UnionFind`] — disjoint sets for cluster agglomeration.
//!
//! # Examples
//!
//! ```
//! use htp_graph::{DialQueue, Frontier, IndexedMinHeap};
//!
//! // Both frontiers pop by (key, id): equal keys in ascending id order.
//! let mut heap = IndexedMinHeap::new(3);
//! let mut dial = DialQueue::new(3, 1.0, 4);
//! for (id, key) in [(2, 1.5), (0, 1.5), (1, 0.5)] {
//!     heap.push_or_decrease(id, key);
//!     dial.push_or_decrease(id, key);
//! }
//! let order: Vec<usize> = std::iter::from_fn(|| heap.pop()).map(|(id, _)| id).collect();
//! assert_eq!(order, vec![1, 0, 2]);
//! assert_eq!(std::iter::from_fn(|| dial.pop()).map(|(id, _)| id).collect::<Vec<_>>(), order);
//! ```

// Library code must surface failures as typed errors, not panics.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod frontier;
pub mod heap;
pub mod maxflow;
pub mod unionfind;

pub use frontier::{dial_plan, dial_plan_forced, DialQueue, Frontier};
pub use heap::IndexedMinHeap;
pub use unionfind::UnionFind;
