//! The parallel flow-refinement pass must be bit-identical at every
//! thread count.
//!
//! The proposal phase runs on a scoped worker pool, but proposals are
//! pure functions of the batch-start snapshot, land in index-addressed
//! slots, and commit sequentially in ranked order — so the refined
//! partition, its cost bits, and every per-level counter must not depend
//! on how many workers computed the proposals. This is the contract that
//! lets `HTP_THREADS` scale the V-cycle without forking the conformance
//! goldens.
//!
//! The single-threaded digest is also pinned as a constant. The workload
//! runs the weighted prefix order on its coarse levels and congestion
//! coarsening on every level, so the constant locks both against any
//! change of shortest-path kernel.

use htp_cluster::congestion::CongestionParams;
use htp_cluster::vcycle::{vcycle_partition, VCycleParams};
use htp_core::partitioner::PartitionerParams;
use htp_model::TreeSpec;
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a digest of `run_digest(1)`.
const PINNED_DIGEST: u64 = 0x8b18_9ab1_65fb_3e1d;

type RunDigest = (Vec<usize>, u64, Vec<(usize, usize, usize, u64)>);

/// FNV-1a over every field of a [`RunDigest`], little-endian `u64`s.
fn fnv1a(run: &RunDigest) -> u64 {
    let (leaves, cost, levels) = run;
    let words = leaves
        .iter()
        .map(|&l| l as u64)
        .chain([*cost])
        .chain(
            levels
                .iter()
                .flat_map(|&(tried, accepted, skipped, refined)| {
                    [tried as u64, accepted as u64, skipped as u64, refined]
                }),
        );
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            acc ^= u64::from(b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// A compact, total digest of one run: every leaf assignment, the exact
/// cost bits, and the per-level refinement counters.
fn run_digest(threads: usize) -> RunDigest {
    let mut rng = StdRng::seed_from_u64(1997);
    let h = rent_circuit(
        RentParams {
            nodes: 1500,
            primary_inputs: 1500 / 16,
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    let spec = TreeSpec::full_tree(h.total_size(), 3, 2, 1.15, 1.0).unwrap();
    let mut params = VCycleParams {
        coarsest_nodes: 96,
        congestion: CongestionParams {
            pairs: 32,
            ..CongestionParams::default()
        },
        partitioner: PartitionerParams {
            iterations: 1,
            ..PartitionerParams::default()
        },
        ..VCycleParams::default()
    };
    params.refine.threads = threads;

    let mut run_rng = StdRng::seed_from_u64(42);
    let r = vcycle_partition(&h, &spec, params, &mut run_rng).unwrap();
    let leaves: Vec<usize> = h.nodes().map(|v| r.partition.leaf_of(v).index()).collect();
    let levels: Vec<(usize, usize, usize, u64)> = r
        .levels
        .iter()
        .map(|l| {
            (
                l.flow_pairs_tried,
                l.flow_pairs_accepted,
                l.flow_pairs_skipped,
                l.refined_cost.to_bits(),
            )
        })
        .collect();
    (leaves, r.cost.to_bits(), levels)
}

#[test]
fn refinement_is_bit_identical_at_every_thread_count() {
    let baseline = run_digest(1);
    // The single-threaded run must actually refine something, or the
    // equality below is vacuous.
    assert!(
        baseline.2.iter().any(|&(tried, ..)| tried > 0),
        "workload never reached the max-flow stage: {:?}",
        baseline.2
    );
    assert_eq!(
        fnv1a(&baseline),
        PINNED_DIGEST,
        "the single-threaded digest moved: {:#018x}",
        fnv1a(&baseline)
    );
    for threads in [2, 4, 8, 0] {
        let run = run_digest(threads);
        assert_eq!(
            run, baseline,
            "threads={threads} diverged from the single-threaded run"
        );
    }
}
