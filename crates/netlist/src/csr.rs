//! A flat, data-oriented view of a [`Hypergraph`] for the probe hot path.
//!
//! The probe phase — Algorithm 2's shortest-path tree growth — is ~99.6%
//! of end-to-end wall-clock, and its inner loop is nothing but incidence
//! walks: `node → nets` to find the nets a settled pin activates, then
//! `net → pins` to relax every other pin, with a metric length load per
//! net. [`Hypergraph`] already stores incidence in CSR form, but behind
//! typed [`NodeId`](crate::NodeId)/[`NetId`](crate::NetId) wrappers and with net lengths living in a
//! separate `SpreadingMetric` allocation.
//!
//! [`CsrHypergraph`] flattens all of it into plain `u32`/`f64` slabs — the
//! two adjacency CSRs, a `net_len` slab co-located with capacities, node
//! sizes — built once per metric run and shared read-only (`&`) across
//! probe workers. The layout is the same idea Heuer–Sanders–Schlag use for
//! their flow-refinement throughput: every array the kernel touches is
//! dense, contiguous, and index-addressed, so the relaxation loop streams
//! instead of pointer-chasing.
//!
//! The view is *positional*: index `v` here is exactly `NodeId::new(v)` in
//! the source hypergraph, and both CSRs preserve the source pin order, so
//! any kernel running over the view visits nodes and nets in the identical
//! order as one running over the [`Hypergraph`] — the property the
//! kernel-equivalence suite in `htp-core` pins bit-for-bit.

use crate::hypergraph::Hypergraph;

/// Flat CSR incidence + net-length slab, the probe kernel's working set.
///
/// Construction copies the adjacency out of a [`Hypergraph`]; `net_len`
/// starts at zero and is re-priced in place via [`lengths_mut`]
/// (one flat pass per flow round) or [`set_lengths`]. Everything else is
/// immutable after the build.
///
/// [`lengths_mut`]: CsrHypergraph::lengths_mut
/// [`set_lengths`]: CsrHypergraph::set_lengths
#[derive(Clone, Debug)]
pub struct CsrHypergraph {
    /// `node_nets[node_off[v]..node_off[v+1]]` are the nets of node `v`.
    node_off: Vec<u32>,
    node_nets: Vec<u32>,
    /// `pins[net_off[e]..net_off[e+1]]` are the pins of net `e`.
    net_off: Vec<u32>,
    pins: Vec<u32>,
    /// Current metric length per net (the Dijkstra edge weight).
    net_len: Vec<f64>,
    /// Static net capacity `c(e)`.
    net_capacity: Vec<f64>,
    /// Static node size `s(v)`.
    node_size: Vec<u64>,
    /// Sum of all node sizes.
    total_size: u64,
    /// Whether every node has size 1.
    unit_sizes: bool,
}

impl CsrHypergraph {
    /// Builds the flat view of `h` with all net lengths zero.
    pub fn new(h: &Hypergraph) -> Self {
        // NodeId/NetId are transparent u32 newtypes; copy them out to raw
        // indices so the kernel needs no wrapper arithmetic at all.
        let node_nets: Vec<u32> = h.node_nets.iter().map(|e| e.0).collect();
        let pins: Vec<u32> = h.pins.iter().map(|v| v.0).collect();
        CsrHypergraph {
            node_off: h.node_off.clone(),
            node_nets,
            net_off: h.net_off.clone(),
            pins,
            net_len: vec![0.0; h.num_nets()],
            net_capacity: h.net_capacity.clone(),
            node_size: h.node_size.clone(),
            total_size: h.total_size(),
            unit_sizes: h.has_unit_sizes(),
        }
    }

    /// Builds the flat view with net lengths copied from `lengths`.
    ///
    /// # Panics
    ///
    /// Panics if `lengths.len() != h.num_nets()`.
    pub fn with_lengths(h: &Hypergraph, lengths: &[f64]) -> Self {
        let mut csr = CsrHypergraph::new(h);
        csr.set_lengths(lengths);
        csr
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_off.len() - 1
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_off.len() - 1
    }

    /// Number of pin connections.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Nets incident to node `v`, in the source hypergraph's order.
    #[inline]
    pub fn node_nets(&self, v: u32) -> &[u32] {
        &self.node_nets[self.node_off[v as usize] as usize..self.node_off[v as usize + 1] as usize]
    }

    /// Pins of net `e`, in the source hypergraph's order.
    #[inline]
    pub fn net_pins(&self, e: u32) -> &[u32] {
        &self.pins[self.net_off[e as usize] as usize..self.net_off[e as usize + 1] as usize]
    }

    /// Current length of net `e`.
    #[inline]
    pub fn net_len(&self, e: u32) -> f64 {
        self.net_len[e as usize]
    }

    /// Capacity `c(e)` of net `e`.
    #[inline]
    pub fn net_capacity(&self, e: u32) -> f64 {
        self.net_capacity[e as usize]
    }

    /// Size `s(v)` of node `v`.
    #[inline]
    pub fn node_size(&self, v: u32) -> u64 {
        self.node_size[v as usize]
    }

    /// Sum of all node sizes.
    #[inline]
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Returns `true` if all nodes have size 1.
    #[inline]
    pub fn has_unit_sizes(&self) -> bool {
        self.unit_sizes
    }

    /// The whole length slab, for batched reads (the quantization probe).
    #[inline]
    pub fn lengths(&self) -> &[f64] {
        &self.net_len
    }

    /// The whole length slab, mutably, for batched re-pricing: one flat
    /// `exp(α·f/c)` pass per flow round writes every net at once.
    #[inline]
    pub fn lengths_mut(&mut self) -> &mut [f64] {
        &mut self.net_len
    }

    /// Overwrites every net length from a slice (e.g. a metric's lengths).
    ///
    /// # Panics
    ///
    /// Panics if `lengths.len() != self.num_nets()`.
    pub fn set_lengths(&mut self, lengths: &[f64]) {
        assert_eq!(
            lengths.len(),
            self.net_len.len(),
            "length slab size mismatch"
        );
        self.net_len.copy_from_slice(lengths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;
    use crate::ids::{NetId, NodeId};

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_nodes(5);
        b.add_net(2.0, [0, 1, 2].map(NodeId::new)).unwrap();
        b.add_net(1.0, [1, 3].map(NodeId::new)).unwrap();
        b.add_net(0.5, [2, 3, 4].map(NodeId::new)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn view_mirrors_the_hypergraph_exactly() {
        let h = sample();
        let csr = CsrHypergraph::new(&h);
        assert_eq!(csr.num_nodes(), h.num_nodes());
        assert_eq!(csr.num_nets(), h.num_nets());
        assert_eq!(csr.num_pins(), h.num_pins());
        assert_eq!(csr.total_size(), h.total_size());
        for v in 0..h.num_nodes() {
            let want: Vec<u32> = h.node_nets(NodeId::new(v)).iter().map(|e| e.0).collect();
            assert_eq!(csr.node_nets(v as u32), want.as_slice(), "node {v}");
            assert_eq!(csr.node_size(v as u32), h.node_size(NodeId::new(v)));
        }
        for e in 0..h.num_nets() {
            let want: Vec<u32> = h.net_pins(NetId::new(e)).iter().map(|v| v.0).collect();
            assert_eq!(csr.net_pins(e as u32), want.as_slice(), "net {e}");
            assert_eq!(csr.net_capacity(e as u32), h.net_capacity(NetId::new(e)));
            assert_eq!(csr.net_len(e as u32), 0.0);
        }
    }

    #[test]
    fn lengths_round_trip_through_the_slab() {
        let h = sample();
        let mut csr = CsrHypergraph::with_lengths(&h, &[0.25, 1.5, 3.0]);
        assert_eq!(csr.lengths(), &[0.25, 1.5, 3.0]);
        assert_eq!(csr.net_len(2), 3.0);
        csr.lengths_mut()[1] = 9.0;
        assert_eq!(csr.net_len(1), 9.0);
        csr.set_lengths(&[0.0, 0.0, 0.0]);
        assert_eq!(csr.lengths(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length slab size mismatch")]
    fn set_lengths_rejects_wrong_size() {
        let h = sample();
        let mut csr = CsrHypergraph::new(&h);
        csr.set_lengths(&[1.0]);
    }
}
