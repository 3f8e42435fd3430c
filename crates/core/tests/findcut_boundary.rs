//! Boundary tests for `find_cut_budgeted`'s stride-256 budget check.

use htp_core::findcut::find_cut_budgeted;
use htp_core::{Budget, CancelToken, Interrupt, SpreadingMetric};
use htp_netlist::{Hypergraph, HypergraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unit_chain(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_unit_nodes(n);
    for i in 0..n as u32 - 1 {
        b.add_net(1.0, [NodeId(i), NodeId(i + 1)]).unwrap();
    }
    b.build().unwrap()
}

fn cancelled_budget() -> Budget {
    let token = CancelToken::new();
    token.cancel();
    Budget::unlimited().with_cancel_token(token)
}

/// Grows up to `ub` unit nodes under a pre-cancelled budget and reports
/// whether the growth was interrupted. The growth loop absorbs one node
/// per iteration and only consults the budget every 256 iterations, so
/// the cancellation becomes observable exactly when `ub` reaches 256.
fn grow_with_cancelled_budget(ub: u64) -> Result<(), Interrupt> {
    let h = unit_chain(300);
    let metric = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
    let mut rng = StdRng::seed_from_u64(1);
    find_cut_budgeted(&h, &metric, 1, ub, &mut rng, &cancelled_budget()).map(|r| {
        assert!(r.in_window);
    })
}

#[test]
fn growth_of_255_steps_never_reaches_the_budget_check() {
    // 255 iterations: the stride counter never hits 256, so even a
    // cancelled budget goes unnoticed and the cut completes.
    assert_eq!(grow_with_cancelled_budget(255), Ok(()));
}

#[test]
fn growth_step_256_hits_the_budget_check() {
    assert_eq!(grow_with_cancelled_budget(256), Err(Interrupt::Cancelled));
}

#[test]
fn growth_step_257_is_interrupted_at_256() {
    assert_eq!(grow_with_cancelled_budget(257), Err(Interrupt::Cancelled));
}

#[test]
fn unlimited_budget_passes_the_stride_check() {
    let h = unit_chain(300);
    let metric = SpreadingMetric::from_lengths(vec![1.0; h.num_nets()]);
    let mut rng = StdRng::seed_from_u64(1);
    let r = find_cut_budgeted(&h, &metric, 1, 257, &mut rng, &Budget::unlimited())
        .expect("an unlimited budget never interrupts");
    assert!(r.in_window);
    let prefix: u64 = r.nodes.iter().map(|&v| h.node_size(v)).sum();
    assert!((1..=257).contains(&prefix));
}
