//! Cross-crate property test: every uncoarsening boundary of the
//! multilevel V-cycle must survive the clean-room verifier.
//!
//! For random Rent-style instances, and for the `htp-verify` generator
//! families that coarsening finds hardest — heavy-tailed node sizes and
//! disconnected components with isolated nodes — the V-cycle is run with
//! [`VCycleParams::record_levels`] so every `(projected, refined)`
//! partition pair is kept together with the coarse netlist it lives on.
//! Each pair is then re-checked by `htp_verify::certificate::certify` —
//! independently written validation and pricing code with no dependency
//! on `htp-core` — asserting that
//!
//! 1. the projection of a coarse partition is feasible at every level,
//! 2. refinement keeps it feasible, and
//! 3. refinement never increases the *certified* cost at any level,
//! 4. the final partition's certified cost matches the engine's claim.

use htp_cluster::congestion::CongestionParams;
use htp_cluster::vcycle::{vcycle_partition, VCycleParams, VCycleResult};
use htp_core::partitioner::PartitionerParams;
use htp_model::TreeSpec;
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::Hypergraph;
use htp_verify::certificate::certify;
use htp_verify::gen::{components, heavy_tailed};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_params() -> VCycleParams {
    VCycleParams {
        coarsest_nodes: 48,
        congestion: CongestionParams {
            pairs: 32,
            ..CongestionParams::default()
        },
        partitioner: PartitionerParams {
            iterations: 1,
            ..PartitionerParams::default()
        },
        record_levels: true,
        ..VCycleParams::default()
    }
}

/// Re-checks the final partition and every recorded `(projected,
/// refined)` pair of `r` with the clean-room certifier.
fn certify_every_level(
    h: &Hypergraph,
    spec: &TreeSpec,
    r: &VCycleResult,
) -> Result<(), TestCaseError> {
    let levels = r.num_levels;
    prop_assert_eq!(r.level_partitions.len(), levels);

    // The engine's final claim, re-priced by the clean-room verifier.
    let final_cert = certify(h, spec, &r.partition);
    prop_assert!(final_cert.is_valid(), "final: {:?}", final_cert.violations);
    let final_cost = final_cert.cost.unwrap();
    prop_assert!(
        (final_cost - r.cost).abs() <= 1e-6 * final_cost.max(1.0),
        "engine claims {} but the certificate prices {}",
        r.cost,
        final_cost
    );

    // Every boundary, coarsest-to-finest. level_partitions[j] lives
    // on coarse_graphs[levels - 2 - j], or on `h` for the last pair.
    for (j, (projected, refined)) in r.level_partitions.iter().enumerate() {
        let fine = if j == levels - 1 {
            h
        } else {
            &r.coarse_graphs[levels - 2 - j]
        };

        let proj_cert = certify(fine, spec, projected);
        prop_assert!(
            proj_cert.is_valid(),
            "projection at boundary {}: {:?}",
            j,
            proj_cert.violations
        );
        let ref_cert = certify(fine, spec, refined);
        prop_assert!(
            ref_cert.is_valid(),
            "refinement at boundary {}: {:?}",
            j,
            ref_cert.violations
        );

        let proj_cost = proj_cert.cost.unwrap();
        let ref_cost = ref_cert.cost.unwrap();
        prop_assert!(
            ref_cost <= proj_cost + 1e-6 * proj_cost.max(1.0),
            "refinement increased certified cost at boundary {}: {} -> {}",
            j,
            proj_cost,
            ref_cost
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_uncoarsening_level_certifies(
        seed in 0u64..1000,
        nodes in 400usize..900,
        height in 2usize..=3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = rent_circuit(
            RentParams {
                nodes,
                primary_inputs: (nodes / 16).max(1),
                locality: 0.8,
                ..RentParams::default()
            },
            &mut rng,
        );
        let spec = TreeSpec::full_tree(h.total_size(), height, 2, 1.15, 1.0).unwrap();

        let r = vcycle_partition(&h, &spec, quick_params(), &mut rng).unwrap();
        prop_assert!(r.num_levels >= 1, "400+ nodes must coarsen at least once");
        certify_every_level(&h, &spec, &r)?;
    }

    // No `num_levels >= 1` here: one heavy-tailed coarsening level can
    // collapse below `coarsest_nodes` into sizes no carve window fits, and
    // the backoff then solves the flat instance (zero levels).
    #[test]
    fn every_level_certifies_on_heavy_tailed_sizes(
        seed in 0u64..1000,
        nodes in 400usize..900,
    ) {
        let inst = heavy_tailed(nodes, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let r = vcycle_partition(&inst.hypergraph, &inst.spec, quick_params(), &mut rng).unwrap();
        certify_every_level(&inst.hypergraph, &inst.spec, &r)?;
    }

    #[test]
    fn every_level_certifies_on_disconnected_components(
        seed in 0u64..1000,
        nodes in 400usize..900,
    ) {
        let inst = components(nodes, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let r = vcycle_partition(&inst.hypergraph, &inst.spec, quick_params(), &mut rng).unwrap();
        certify_every_level(&inst.hypergraph, &inst.spec, &r)?;
    }
}
