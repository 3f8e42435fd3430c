//! Separation oracle: violating shortest-path trees as LP rows.
//!
//! For a fixed tree `S(v, k)` with parent structure, Equation 6 of the
//! paper rewrites the left-hand side of a spreading constraint as
//! `Σ_e d(e)·δ(S(v,k), e)`, where `δ(S(v,k), e)` is the total node size of
//! the subtree hanging below net `e`. Since shortest-path distances are
//! never longer than tree-path distances, the tree-linearized constraint is
//! implied by the true constraint — adding it to a restricted LP keeps that
//! LP a *relaxation* of (P1), which is what makes the cutting-plane lower
//! bound valid.

use htp_core::sptree::{CsrGrowerScratch, TreeStep};
use htp_core::SpreadingMetric;
use htp_graph::IndexedMinHeap;
use htp_model::{gfn, TreeSpec};
use htp_netlist::{CsrHypergraph, Hypergraph, NodeId};

/// One linearized spreading constraint: `Σ_e coeffs[e]·d(e) >= rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintRow {
    /// δ coefficients, one per net (dense).
    pub coeffs: Vec<f64>,
    /// The bound `g(s(S(v, k)))`.
    pub rhs: f64,
    /// The source node the tree was grown from (for diagnostics).
    pub source: NodeId,
}

/// Separates at `metric`: grows the shortest-path tree from every source
/// and returns, in source order, a row for each source's **most violated**
/// prefix (largest `g − lhs`). Sources whose prefixes all satisfy their
/// constraints within `tolerance` contribute no row.
pub fn most_violated_rows(
    h: &Hypergraph,
    spec: &TreeSpec,
    metric: &SpreadingMetric,
    tolerance: f64,
) -> Vec<ConstraintRow> {
    let csr = CsrHypergraph::with_lengths(h, metric.lengths());
    let mut grower = CsrGrowerScratch::new(&csr);
    let mut heap = IndexedMinHeap::new(csr.num_nodes());
    let mut steps = Vec::new();
    let mut rows = Vec::new();
    for source in h.nodes() {
        steps.clear();
        steps.extend(grower.tree(&csr, &mut heap, source.0));
        // Find the prefix with the worst shortfall.
        let mut size = 0u64;
        let mut lhs = 0.0;
        let mut worst: Option<(usize, f64)> = None;
        for (k, step) in steps.iter().enumerate() {
            size += h.node_size(step.node);
            lhs += step.dist * h.node_size(step.node) as f64;
            let shortfall = gfn::spreading_bound(spec, size) - lhs;
            if shortfall > tolerance && worst.is_none_or(|(_, w)| shortfall > w) {
                worst = Some((k, shortfall));
            }
        }
        if let Some((k, _)) = worst {
            rows.push(row_for_prefix(h, spec, &steps[..=k], source));
        }
    }
    rows
}

/// Builds the δ row for an explicit tree prefix (settle order, source
/// first).
fn row_for_prefix(
    h: &Hypergraph,
    spec: &TreeSpec,
    prefix: &[TreeStep],
    source: NodeId,
) -> ConstraintRow {
    // subtree[u] accumulates the node sizes hanging at-or-below u; walking
    // the prefix in reverse settle order sees every child before its
    // parent.
    let mut subtree = vec![0u64; h.num_nodes()];
    let mut coeffs = vec![0.0; h.num_nets()];
    let mut size = 0u64;
    for step in prefix {
        subtree[step.node.index()] = h.node_size(step.node);
        size += h.node_size(step.node);
    }
    for step in prefix.iter().rev() {
        if let (Some(e), Some(parent)) = (step.via_net, step.parent) {
            coeffs[e.index()] += subtree[step.node.index()] as f64;
            subtree[parent.index()] += subtree[step.node.index()];
        }
    }
    ConstraintRow {
        coeffs,
        rhs: gfn::spreading_bound(spec, size),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htp_netlist::HypergraphBuilder;

    /// Path of 5 unit nodes; C_0 = 2 so prefixes of 3+ need spreading.
    fn fixture() -> (Hypergraph, TreeSpec) {
        let mut b = HypergraphBuilder::with_unit_nodes(5);
        for i in 0..4u32 {
            b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
        }
        (
            b.build().unwrap(),
            TreeSpec::new(vec![(2, 2, 1.0), (5, 2, 1.0)]).unwrap(),
        )
    }

    #[test]
    fn zero_metric_yields_a_row_with_subtree_weights() {
        let (h, spec) = fixture();
        let m = SpreadingMetric::zeros(h.num_nets());
        let rows = most_violated_rows(&h, &spec, &m, 1e-9);
        assert_eq!(rows.len(), h.num_nodes(), "every source is violated");
        let row = &rows[0];
        // Worst prefix is the whole path: g(5) = 2·3 = 6.
        assert_eq!(row.rhs, 6.0);
        // From node 0, the tree is the path itself: δ of net i (between
        // node i and i+1) is the 4-i nodes hanging beyond it.
        assert_eq!(row.coeffs, vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(row.source, NodeId(0));
    }

    #[test]
    fn row_lhs_matches_distance_sum() {
        // Equation 6: Σ dist·s == Σ δ·d for the tree's own metric.
        let (h, spec) = fixture();
        let m = SpreadingMetric::from_lengths(vec![0.3, 0.7, 0.1, 0.2]);
        // Force a full-tree row by using a huge bound: grow from node 2.
        let csr = CsrHypergraph::with_lengths(&h, m.lengths());
        let mut heap = IndexedMinHeap::new(csr.num_nodes());
        let steps: Vec<_> = CsrGrowerScratch::new(&csr)
            .tree(&csr, &mut heap, 2)
            .collect();
        let row = row_for_prefix(&h, &spec, &steps, NodeId(2));
        let lhs_by_delta: f64 = row
            .coeffs
            .iter()
            .enumerate()
            .map(|(e, &delta)| delta * m.length(htp_netlist::NetId::new(e)))
            .sum();
        let lhs_by_dist: f64 = steps.iter().map(|s| s.dist).sum();
        assert!((lhs_by_delta - lhs_by_dist).abs() < 1e-9);
    }

    #[test]
    fn feasible_metric_yields_no_row() {
        let (h, spec) = fixture();
        // Generous lengths: everything is well spread.
        let m = SpreadingMetric::from_lengths(vec![10.0; 4]);
        assert!(most_violated_rows(&h, &spec, &m, 1e-9).is_empty());
    }

    #[test]
    fn violated_row_is_violated_by_the_current_metric() {
        let (h, spec) = fixture();
        let m = SpreadingMetric::from_lengths(vec![0.1; 4]);
        let rows = most_violated_rows(&h, &spec, &m, 1e-9);
        let row = rows.iter().find(|r| r.source == NodeId(4)).unwrap();
        let lhs: f64 = row
            .coeffs
            .iter()
            .enumerate()
            .map(|(e, &delta)| delta * m.length(htp_netlist::NetId::new(e)))
            .sum();
        assert!(
            lhs < row.rhs,
            "the returned row must cut off the current point"
        );
    }
}
