//! Shared steps of the multilevel scheme: the budgeted coarse solve,
//! projection back to a finer netlist, and hierarchical-FM refinement.
//!
//! [`crate::vcycle`] strings these together level by level, and the job
//! server reuses [`solve_budgeted`] for its flat path:
//!
//! - [`solve_budgeted`] runs FLOW under the caller's [`Budget`] and, when
//!   the budget fires before anything was found, salvages one bounded
//!   round so a feasible instance never comes back empty-handed.
//! - `project` replicates a coarse partition's tree on the fine netlist,
//!   placing every fine node in its cluster's leaf.
//! - [`refine_partition`] improves a partition with the hierarchical FM
//!   pass and maps every baseline failure to a typed [`CoreError`].

use rand::Rng;

use htp_baselines::hfm::{improve, HfmParams};
use htp_core::partitioner::FlowPartitioner;
use htp_core::runtime::{Budget, RunOutcome};
use htp_core::CoreError;
use htp_model::{HierarchicalPartition, PartitionBuilder, TreeSpec, VertexId};
use htp_netlist::{Hypergraph, NodeId};

/// Runs the inner partitioner under `budget`, falling back to one bounded
/// salvage round when the budget fires before anything was found. Used by
/// the V-cycle's coarsest solve and the job server's flat path.
///
/// # Errors
///
/// Propagates [`CoreError`] from the partitioner; an interrupt with a
/// successful salvage round is *not* an error (the interrupt stays
/// visible in the returned [`RunOutcome`]).
pub fn solve_budgeted<R: Rng + ?Sized>(
    partitioner: &FlowPartitioner,
    h: &Hypergraph,
    spec: &TreeSpec,
    rng: &mut R,
    budget: &Budget,
) -> Result<(HierarchicalPartition, RunOutcome), CoreError> {
    match partitioner.run_with_budget(h, spec, rng, budget) {
        Ok(run) => Ok((run.result.partition, run.outcome)),
        Err(CoreError::Interrupted(irq)) => {
            // The budget died before the solver could salvage anything.
            // One bounded round still yields a valid (if rough) partition;
            // the interrupt stays visible in the outcome.
            let salvage = Budget::unlimited().with_max_rounds(1);
            let run = partitioner.run_with_budget(h, spec, rng, &salvage)?;
            Ok((run.result.partition, RunOutcome::from_interrupt(irq)))
        }
        Err(e) => Err(e),
    }
}

/// Improves `p` with the hierarchical FM pass, mapping every baseline
/// failure to a typed [`CoreError`] (an invalid partition surfaces as
/// [`CoreError::Model`], anything else as [`CoreError::Refinement`] —
/// never a panic).
///
/// # Errors
///
/// Returns [`CoreError::Model`] when `p` is not a valid partition of `h`,
/// and [`CoreError::Refinement`] for any other baseline-layer failure.
pub fn refine_partition(
    h: &Hypergraph,
    spec: &TreeSpec,
    p: &HierarchicalPartition,
) -> Result<(HierarchicalPartition, f64), CoreError> {
    match improve(h, spec, p, HfmParams::default()) {
        Ok(r) => {
            let c = r.cost_after;
            Ok((r.partition, c))
        }
        Err(htp_baselines::BaselineError::Model(m)) => Err(CoreError::Model(m)),
        Err(other) => Err(CoreError::Refinement {
            what: format!("hierarchical FM failed on the projected partition: {other}"),
        }),
    }
}

/// Replicates the coarse partition's tree for the fine netlist, assigning
/// each fine node to its cluster's leaf.
pub(crate) fn project(
    coarse: &HierarchicalPartition,
    cluster_of: &[usize],
    fine_nodes: usize,
) -> Result<HierarchicalPartition, htp_model::ModelError> {
    let mut b = PartitionBuilder::new(fine_nodes, coarse.root_level());
    let mut map = vec![VertexId(0); coarse.num_vertices()];
    map[coarse.root().index()] = b.root();
    let mut queue = vec![coarse.root()];
    while let Some(q) = queue.pop() {
        for &c in coarse.children(q) {
            let fine_vertex = b.add_child(map[q.index()], coarse.level(c))?;
            map[c.index()] = fine_vertex;
            queue.push(c);
        }
    }
    for (v, &cl) in cluster_of.iter().enumerate().take(fine_nodes) {
        let coarse_leaf = coarse.leaf_of(NodeId::new(cl));
        b.assign(NodeId::new(v), map[coarse_leaf.index()])?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::{agglomerate_ordered, net_order};
    use crate::congestion::{flow_congestion, CongestionParams};
    use htp_core::partitioner::PartitionerParams;
    use htp_netlist::gen::rent::{rent_circuit, RentParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> (Hypergraph, TreeSpec) {
        let mut rng = StdRng::seed_from_u64(12);
        let h = rent_circuit(
            RentParams {
                nodes: 256,
                primary_inputs: 16,
                locality: 0.8,
                ..RentParams::default()
            },
            &mut rng,
        );
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.15, 1.0).unwrap();
        (h, spec)
    }

    fn flat_flow(h: &Hypergraph, spec: &TreeSpec, rng: &mut StdRng) -> HierarchicalPartition {
        FlowPartitioner::try_new(PartitionerParams::default())
            .unwrap()
            .run(h, spec, rng)
            .unwrap()
            .partition
    }

    #[test]
    fn projection_preserves_block_comembership() {
        let (h, spec) = workload();
        let mut rng = StdRng::seed_from_u64(16);
        let cap = (spec.capacity(0) / 8).max(1);
        let profile = flow_congestion(&h, CongestionParams::default(), &mut rng);
        let clustering = agglomerate_ordered(&h, &net_order(&h, &profile), &[], cap);
        let coarse = h.contract(&clustering.cluster_of);
        assert!(coarse.num_nodes() < h.num_nodes(), "clustering must shrink");
        let coarse_partition = flat_flow(&coarse, &spec, &mut rng);
        let p = project(&coarse_partition, &clustering.cluster_of, h.num_nodes()).unwrap();
        htp_model::validate::validate(&h, &spec, &p).unwrap();
        // Nodes in one cluster must share a leaf after projection.
        for v in 0..h.num_nodes() {
            for u in v + 1..h.num_nodes() {
                if clustering.cluster_of[v] == clustering.cluster_of[u] {
                    assert_eq!(p.leaf_of(NodeId::new(v)), p.leaf_of(NodeId::new(u)));
                }
            }
        }
    }

    #[test]
    fn corrupted_partition_surfaces_a_typed_error_not_a_panic() {
        let (h, spec) = workload();
        // Cram every node into one leaf: wildly over capacity, so the FM
        // baseline must reject it — through a typed error, never a panic.
        let mut rng = StdRng::seed_from_u64(19);
        let good = flat_flow(&h, &spec, &mut rng);
        let one_leaf = good.leaf_of(NodeId::new(0));
        let corrupted = good.with_assignment(vec![one_leaf; h.num_nodes()]).unwrap();
        let err = refine_partition(&h, &spec, &corrupted).unwrap_err();
        assert!(
            matches!(err, CoreError::Model(_) | CoreError::Refinement { .. }),
            "expected a typed refinement error, got {err:?}"
        );
    }
}
