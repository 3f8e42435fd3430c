//! Property tests for the coarsening stack: the dedup-compacting
//! contraction, the frozen-filler mask, and the V-cycle's level cascade.
//!
//! Three invariants pin the fast paths introduced for the 1M-node scale-up
//! (the dedup contraction itself is *always* on — every level of every
//! V-cycle goes through it — so `vcycle_certification.rs` certifying each
//! level pair already exercises it end to end; these properties pin the
//! algebra directly):
//!
//! 1. **Size conservation** — every coarse graph in the cascade carries
//!    exactly the fine graph's total node size.
//! 2. **Frozen fillers stay singletons** — a node under the frozen mask
//!    never merges, whatever the net order or cap.
//! 3. **Dedup is a weight-preserving regrouping** — contraction under the
//!    identity map (`contract_tracked_with`) sends every fine net onto a
//!    coarse net with the identical pin set, and
//!    each coarse capacity is exactly the sum (in ascending fine-id
//!    order) of the capacities that merged into it.

use htp_cluster::clusters::{agglomerate_ordered, net_order, Clustering};
use htp_cluster::congestion::{flow_congestion, CongestionParams};
use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
use htp_core::partitioner::PartitionerParams;
use htp_model::TreeSpec;
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::{contract_tracked_with, ContractScratch, NetId, DROPPED_NET};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn workload(seed: u64, nodes: usize) -> htp_netlist::Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    rent_circuit(
        RentParams {
            nodes,
            primary_inputs: (nodes / 16).max(1),
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_cascade_level_conserves_total_size(
        seed in 0u64..1000,
        nodes in 400usize..900,
    ) {
        let h = workload(seed, nodes);
        let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.15, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let params = VCycleParams {
            coarsest_nodes: 48,
            congestion: CongestionParams { pairs: 32, ..CongestionParams::default() },
            partitioner: PartitionerParams { iterations: 1, ..PartitionerParams::default() },
            record_levels: true,
            ..VCycleParams::default()
        };
        let r = vcycle_partition(&h, &spec, params, &mut rng).unwrap();
        for (i, coarse) in r.coarse_graphs.iter().enumerate() {
            prop_assert_eq!(
                coarse.total_size(),
                h.total_size(),
                "coarse level {} lost node size",
                i
            );
        }
        // The per-level telemetry accounts for every fine net: survivors
        // plus merged plus dropped equals the fine net count.
        for lvl in &r.levels {
            prop_assert!(lvl.merged_nets + lvl.dropped_nets <= lvl.nets);
        }
    }

    #[test]
    fn frozen_fillers_stay_singletons_under_any_mask(
        seed in 0u64..1000,
        nodes in 64usize..256,
        freeze_one_in in 2usize..8,
        cap in 2u64..32,
    ) {
        let h = workload(seed, nodes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf111);
        let profile = flow_congestion(
            &h,
            CongestionParams { pairs: 16, ..CongestionParams::default() },
            &mut rng,
        );
        let order = net_order(&h, &profile);
        let frozen: Vec<bool> = (0..h.num_nodes())
            .map(|_| rng.random_range(0..freeze_one_in) == 0)
            .collect();
        let Clustering { cluster_of, count } =
            agglomerate_ordered(&h, &order, &frozen, cap);

        let mut members = vec![0usize; count];
        for &c in &cluster_of {
            members[c] += 1;
        }
        for (v, &f) in frozen.iter().enumerate() {
            if f {
                prop_assert_eq!(
                    members[cluster_of[v]], 1,
                    "frozen node {} merged into a {}-node cluster",
                    v, members[cluster_of[v]]
                );
            }
        }
        // The cap holds for everyone else.
        let mut sizes = vec![0u64; count];
        for v in h.nodes() {
            sizes[cluster_of[v.index()]] += h.node_size(v);
        }
        prop_assert!(sizes.iter().all(|&s| s <= cap));
    }

    #[test]
    fn dedup_is_a_weight_preserving_regrouping(
        seed in 0u64..1000,
        nodes in 64usize..256,
    ) {
        let h = workload(seed, nodes);
        let identity: Vec<usize> = (0..h.num_nodes()).collect();
        let (dh, net_map, stats) =
            contract_tracked_with(&h, &identity, &mut ContractScratch::new());

        prop_assert_eq!(net_map.len(), h.num_nets());
        prop_assert_eq!(stats.coarse_nets, dh.num_nets());
        prop_assert_eq!(stats.dropped_nets, 0, "identity map never drops a net");
        prop_assert_eq!(stats.coarse_nets + stats.merged_nets, h.num_nets());

        // Every fine net lands on a coarse net with the identical pin set.
        for e in h.nets() {
            let m = net_map[e.index()];
            prop_assert!(m != DROPPED_NET, "net {} was dropped", e.index());
            let fine: Vec<usize> = h.net_pins(e).iter().map(|p| p.index()).collect();
            let coarse: Vec<usize> =
                dh.net_pins(NetId::new(m as usize)).iter().map(|p| p.index()).collect();
            let mut fine_sorted = fine.clone();
            fine_sorted.sort_unstable();
            let mut coarse_sorted = coarse.clone();
            coarse_sorted.sort_unstable();
            prop_assert_eq!(fine_sorted, coarse_sorted, "net {} changed pins", e.index());
        }

        // Each coarse capacity is the ascending-fine-id sum of its group
        // — bit-exact, because that is the order the contraction sums in.
        let mut sums = vec![0.0f64; dh.num_nets()];
        for e in h.nets() {
            sums[net_map[e.index()] as usize] += h.net_capacity(e);
        }
        for c in dh.nets() {
            prop_assert_eq!(
                sums[c.index()].to_bits(),
                dh.net_capacity(c).to_bits(),
                "coarse net {} capacity drifted",
                c.index()
            );
        }
    }
}
