//! Seeded adversarial instance families for conformance testing.
//!
//! Each generator builds a `(Hypergraph, TreeSpec)` pair from a seed
//! alone, so a family name plus a seed pins down an instance exactly —
//! that is what lets the differential harness snapshot golden digests.
//! The families deliberately stress different parts of the pipeline:
//!
//! * [`rent_like`] — recursive-bisection circuits with Rent-style
//!   locality (the "realistic" family),
//! * [`geometric`] — mesh neighbourhoods plus a few long-range nets,
//! * [`star`] — high-fanout hub nets (span counting on big nets),
//! * [`clique`] — dense intra-group 2-pin cliques (FM-friendly, flow
//!   injection heavy),
//! * [`chain`] — the deterministic path pathology (deep recursion in
//!   top-down splitters),
//! * [`zero_weight`] — a hierarchy level with `w_l = 0` (cost ties),
//! * [`duplicate_nets`] — every net repeated verbatim (span counters
//!   must price each copy),
//! * [`heavy_tailed`] — Pareto node sizes up to the leaf capacity (the
//!   non-unit shape of every coarse multilevel level),
//! * [`components`] — several disconnected components plus isolated
//!   nodes, with mixed sizes (trees that stop short of the netlist).
//!
//! These generators are written against `HypergraphBuilder` directly and
//! share no code with `htp_netlist::gen`.

use htp_model::TreeSpec;
use htp_netlist::{Hypergraph, HypergraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One generated instance: a family name, the seed that produced it, and
/// the problem pair.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The family this instance belongs to.
    pub family: &'static str,
    /// The seed it was generated from.
    pub seed: u64,
    /// The netlist.
    pub hypergraph: Hypergraph,
    /// The hierarchy specification.
    pub spec: TreeSpec,
}

/// The default experiment hierarchy for a generated netlist: a full
/// binary tree of height 3 with 25% capacity slack and unit weights.
fn default_spec(h: &Hypergraph) -> TreeSpec {
    TreeSpec::full_tree(h.total_size(), 3, 2, 1.25, 1.0).expect("generated spec is valid")
}

/// Chains `lo..hi` with unit 2-pin nets (local connectivity for the
/// recursive generators).
fn chain_range(b: &mut HypergraphBuilder, lo: usize, hi: usize) {
    for i in lo..hi.saturating_sub(1) {
        b.add_net(1.0, [NodeId::new(i), NodeId::new(i + 1)])
            .expect("chain pins are in range");
    }
}

/// Rent-style recursive bisection: split the index range in half, add
/// `~n^0.6` nets crossing the split, recurse. Mirrors how Rent's rule
/// emerges from hierarchical layouts without reusing the repo's own
/// `rent_circuit` generator.
pub fn rent_like(nodes: usize, seed: u64) -> Instance {
    assert!(nodes >= 4, "rent_like needs at least 4 nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5245_4e54); // "RENT"
    let mut b = HypergraphBuilder::with_unit_nodes(nodes);
    let mut stack = vec![(0usize, nodes)];
    while let Some((lo, hi)) = stack.pop() {
        let n = hi - lo;
        if n <= 3 {
            chain_range(&mut b, lo, hi);
            continue;
        }
        let mid = lo + n / 2;
        let crossings = (n as f64).powf(0.6).ceil() as usize;
        for _ in 0..crossings {
            let left = NodeId::new(rng.random_range(lo..mid));
            let right = NodeId::new(rng.random_range(mid..hi));
            let mut pins = vec![left, right];
            // Every fourth crossing becomes a 3-pin net.
            if rng.random_range(0..4usize) == 0 {
                pins.push(NodeId::new(rng.random_range(lo..hi)));
            }
            b.add_net_lenient(1.0, pins)
                .expect("crossing pins are in range");
        }
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    let hypergraph = b.build().expect("rent-like instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "rent-like",
        seed,
        hypergraph,
        spec,
    }
}

/// A `side × side` mesh with right/down neighbour nets plus a sprinkle
/// of seeded long-range 3-pin nets.
pub fn geometric(side: usize, seed: u64) -> Instance {
    assert!(side >= 2, "geometric needs at least a 2x2 mesh");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4745_4f4d); // "GEOM"
    let n = side * side;
    let mut b = HypergraphBuilder::with_unit_nodes(n);
    let at = |r: usize, c: usize| NodeId::new(r * side + c);
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                b.add_net(1.0, [at(r, c), at(r, c + 1)])
                    .expect("mesh pins are in range");
            }
            if r + 1 < side {
                b.add_net(1.0, [at(r, c), at(r + 1, c)])
                    .expect("mesh pins are in range");
            }
        }
    }
    for _ in 0..side {
        let pins = [
            NodeId::new(rng.random_range(0..n)),
            NodeId::new(rng.random_range(0..n)),
            NodeId::new(rng.random_range(0..n)),
        ];
        b.add_net_lenient(0.5, pins)
            .expect("long-range pins are in range");
    }
    let hypergraph = b.build().expect("mesh instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "geometric",
        seed,
        hypergraph,
        spec,
    }
}

/// Hub-and-spoke: a handful of hubs, each broadcasting one high-fanout
/// net to a random subset of the leaves; leaves carry mixed sizes 1–3.
pub fn star(nodes: usize, seed: u64) -> Instance {
    assert!(nodes >= 8, "star needs at least 8 nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_4152); // "STAR"
    let hubs = (nodes / 16).max(2);
    let mut b = HypergraphBuilder::new();
    for i in 0..nodes {
        // Hubs are unit-size; leaves vary to stress capacity checks.
        let size = if i < hubs {
            1
        } else {
            1 + rng.random_range(0..3u64)
        };
        b.add_node(size);
    }
    // A weak chain keeps everything connected regardless of sampling.
    chain_range(&mut b, 0, nodes);
    for hub in 0..hubs {
        let fanout = nodes / 4;
        let mut pins = vec![NodeId::new(hub)];
        for _ in 0..fanout {
            pins.push(NodeId::new(rng.random_range(hubs..nodes)));
        }
        b.add_net_lenient(2.0, pins)
            .expect("hub spoke pins are in range");
    }
    let hypergraph = b.build().expect("star instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "star",
        seed,
        hypergraph,
        spec,
    }
}

/// Dense groups: all-pairs 2-pin nets inside each group, one bridging
/// net between consecutive groups. The intended partition is obvious,
/// which makes cost regressions stand out starkly.
pub fn clique(groups: usize, group_size: usize, seed: u64) -> Instance {
    assert!(
        groups >= 2 && group_size >= 2,
        "clique needs at least 2 groups of 2"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434c_4951); // "CLIQ"
    let n = groups * group_size;
    let mut b = HypergraphBuilder::with_unit_nodes(n);
    for g in 0..groups {
        let base = g * group_size;
        for i in 0..group_size {
            for j in (i + 1)..group_size {
                b.add_net(1.0, [NodeId::new(base + i), NodeId::new(base + j)])
                    .expect("clique pins are in range");
            }
        }
    }
    for g in 0..groups - 1 {
        let a = g * group_size + rng.random_range(0..group_size);
        let c = (g + 1) * group_size + rng.random_range(0..group_size);
        b.add_net(0.25, [NodeId::new(a), NodeId::new(c)])
            .expect("bridge pins are in range");
    }
    let hypergraph = b.build().expect("clique instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "clique",
        seed,
        hypergraph,
        spec,
    }
}

/// The deterministic path: `n` unit nodes, `n − 1` unit nets. The `seed`
/// is recorded but unused — the family has a single member per size.
pub fn chain(nodes: usize, seed: u64) -> Instance {
    assert!(nodes >= 4, "chain needs at least 4 nodes");
    let mut b = HypergraphBuilder::with_unit_nodes(nodes);
    chain_range(&mut b, 0, nodes);
    let hypergraph = b.build().expect("chain instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "chain",
        seed,
        hypergraph,
        spec,
    }
}

/// A rent-like netlist under a spec whose *middle* level has weight
/// zero: cuts at that level are free, so cost ties abound and any code
/// that conflates "span > 1" with "costs something" shows up.
pub fn zero_weight(nodes: usize, seed: u64) -> Instance {
    let base = rent_like(nodes, seed ^ 0x5a45_524f); // "ZERO"
    let h = base.hypergraph;
    let total = h.total_size();
    let cap = |l: usize| {
        ((1.25 * total as f64) / (1 << (3 - l)) as f64)
            .ceil()
            .max(1.0) as u64
    };
    let spec = TreeSpec::new(vec![
        (cap(0), 2, 1.0),
        (cap(1), 2, 0.0),
        (cap(2), 2, 1.0),
        (cap(3), 2, 1.0),
    ])
    .expect("zero-weight spec is valid");
    Instance {
        family: "zero-weight",
        seed,
        hypergraph: h,
        spec,
    }
}

/// A chain in which every net appears three times verbatim: duplicate
/// nets are legal inputs, and a correct span counter must price every
/// copy separately.
pub fn duplicate_nets(nodes: usize, seed: u64) -> Instance {
    assert!(nodes >= 4, "duplicate_nets needs at least 4 nodes");
    let mut b = HypergraphBuilder::with_unit_nodes(nodes);
    for _ in 0..3 {
        chain_range(&mut b, 0, nodes);
    }
    let hypergraph = b.build().expect("duplicate-net instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "duplicate-nets",
        seed,
        hypergraph,
        spec,
    }
}

/// Heavy-tailed node sizes: Pareto(α = 1.2) sizes, so a few nodes carry
/// much of the total, on a chain plus random 2–4 pin nets. Sizes are
/// clamped to half the default spec's leaf capacity `C_0` — the cluster
/// cap a multilevel coarse level carries by default — re-clamping until
/// stable, since clamping lowers the total and with it `C_0`.
pub fn heavy_tailed(nodes: usize, seed: u64) -> Instance {
    assert!(nodes >= 8, "heavy_tailed needs at least 8 nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4845_4156); // "HEAV"
    let mut sizes: Vec<u64> = (0..nodes)
        .map(|_| {
            // Inversion sampling with u in (0, 1].
            let u = 1.0 - rng.random_range(0.0..1.0f64);
            (u.powf(-1.0 / 1.2).floor() as u64).clamp(1, nodes as u64)
        })
        .collect();
    loop {
        let total = sizes.iter().sum::<u64>();
        let cap = TreeSpec::full_tree(total, 3, 2, 1.25, 1.0)
            .expect("generated spec is valid")
            .capacity(0)
            / 2;
        if sizes.iter().all(|&s| s <= cap) {
            break;
        }
        for s in &mut sizes {
            *s = (*s).clamp(1, cap.max(1));
        }
    }
    let mut b = HypergraphBuilder::new();
    for &s in &sizes {
        b.add_node(s);
    }
    chain_range(&mut b, 0, nodes);
    for _ in 0..nodes / 2 {
        let fanout = rng.random_range(2..=4usize);
        let pins: Vec<NodeId> = (0..fanout)
            .map(|_| NodeId::new(rng.random_range(0..nodes)))
            .collect();
        b.add_net_lenient(1.0, pins)
            .expect("random pins are in range");
    }
    let hypergraph = b.build().expect("heavy-tailed instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "heavy-tailed",
        seed,
        hypergraph,
        spec,
    }
}

/// Disconnected components and isolated nodes: every fifth node (ids
/// `2, 7, 12, …`) has no net at all, and the rest fall at random into
/// four components, each a chain over its members plus random 2–3 pin
/// nets inside it. Component nodes have sizes 1–2, so FLOW takes the
/// weighted prefix order on an instance where no tree spans the netlist.
pub fn components(nodes: usize, seed: u64) -> Instance {
    assert!(nodes >= 8, "components needs at least 8 nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434f_4d50); // "COMP"
    let mut b = HypergraphBuilder::new();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for v in 0..nodes {
        if v % 5 == 2 {
            b.add_node(1);
        } else {
            b.add_node(1 + rng.random_range(0..2u64));
            members[rng.random_range(0..4usize)].push(v);
        }
    }
    for m in &members {
        for w in m.windows(2) {
            b.add_net(1.0, [NodeId::new(w[0]), NodeId::new(w[1])])
                .expect("component pins are in range");
        }
        if m.len() < 3 {
            continue;
        }
        for _ in 0..m.len() / 2 {
            let fanout = rng.random_range(2..=3usize);
            let pins: Vec<NodeId> = (0..fanout)
                .map(|_| NodeId::new(m[rng.random_range(0..m.len())]))
                .collect();
            b.add_net_lenient(1.0, pins)
                .expect("component pins are in range");
        }
    }
    let hypergraph = b.build().expect("component instances are well-formed");
    let spec = default_spec(&hypergraph);
    Instance {
        family: "components",
        seed,
        hypergraph,
        spec,
    }
}

/// The registry the conformance harness and the differential binary
/// iterate: one modest instance per family, all derived from `seed`.
pub fn all_families(seed: u64) -> Vec<Instance> {
    vec![
        rent_like(64, seed),
        geometric(8, seed),
        star(64, seed),
        clique(8, 8, seed),
        chain(48, seed),
        zero_weight(64, seed),
        duplicate_nets(48, seed),
        heavy_tailed(64, seed),
        components(64, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_families_cover_the_advertised_names() {
        let names: Vec<&str> = all_families(7).iter().map(|i| i.family).collect();
        assert_eq!(
            names,
            vec![
                "rent-like",
                "geometric",
                "star",
                "clique",
                "chain",
                "zero-weight",
                "duplicate-nets",
                "heavy-tailed",
                "components"
            ]
        );
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for (a, b) in all_families(11).into_iter().zip(all_families(11)) {
            assert_eq!(a.hypergraph.num_nodes(), b.hypergraph.num_nodes());
            assert_eq!(a.hypergraph.num_nets(), b.hypergraph.num_nets());
            assert_eq!(a.hypergraph.num_pins(), b.hypergraph.num_pins());
            assert_eq!(a.spec, b.spec);
        }
    }

    #[test]
    fn specs_admit_the_instance() {
        for inst in all_families(3) {
            let root = inst.spec.root_level();
            assert!(
                inst.hypergraph.total_size() <= inst.spec.capacity(root),
                "{}: total size exceeds the root capacity",
                inst.family
            );
        }
    }

    #[test]
    fn duplicate_nets_really_repeats_every_net() {
        let inst = duplicate_nets(8, 0);
        assert_eq!(inst.hypergraph.num_nets(), 3 * 7);
    }

    #[test]
    fn heavy_tailed_sizes_fit_half_a_leaf_and_vary() {
        for seed in 0..20 {
            let inst = heavy_tailed(64, seed);
            let h = &inst.hypergraph;
            let sizes: Vec<u64> = h.nodes().map(|v| h.node_size(v)).collect();
            let cap = inst.spec.capacity(0) / 2;
            assert!(
                sizes.iter().all(|&s| s <= cap),
                "seed {seed}: node over C_0 / 2"
            );
            assert!(!h.has_unit_sizes(), "seed {seed}: sizes never varied");
        }
    }

    #[test]
    fn components_has_isolated_nodes_and_several_components() {
        let inst = components(64, 1997);
        let h = &inst.hypergraph;
        let isolated = h.nodes().filter(|&v| h.node_nets(v).is_empty()).count();
        assert!(isolated >= 64 / 5, "only {isolated} isolated nodes");
        // Union the pins of every net; count the multi-node classes.
        let mut root: Vec<usize> = (0..h.num_nodes()).collect();
        fn find(root: &mut [usize], v: usize) -> usize {
            let mut r = v;
            while root[r] != r {
                r = root[r];
            }
            root[v] = r;
            r
        }
        for e in h.nets() {
            let pins = h.net_pins(e);
            for w in &pins[1..] {
                let (a, b) = (find(&mut root, pins[0].index()), find(&mut root, w.index()));
                root[a] = b;
            }
        }
        let mut classes: Vec<usize> = (0..h.num_nodes())
            .filter(|&v| !h.node_nets(NodeId::new(v)).is_empty())
            .map(|v| find(&mut root, v))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        assert!(classes.len() >= 2, "expected several components");
    }

    proptest! {
        // Bounded fuzz-smoke: every family builds a structurally sound
        // netlist for arbitrary seeds and a range of sizes.
        #[test]
        fn families_build_well_formed_instances(seed in 0u64..1000, scale in 0usize..3) {
            let sizes = [16, 36, 64];
            let n = sizes[scale];
            let side = [4, 6, 8][scale];
            for inst in [
                rent_like(n, seed),
                geometric(side, seed),
                star(n.max(8), seed),
                clique(4, n / 4, seed),
                chain(n, seed),
                zero_weight(n, seed),
                duplicate_nets(n, seed),
                heavy_tailed(n, seed),
                components(n, seed),
            ] {
                let h = &inst.hypergraph;
                prop_assert!(h.num_nodes() > 0);
                for e in h.nets() {
                    prop_assert!(h.net_pins(e).len() >= 2, "{}: degenerate net", inst.family);
                    prop_assert!(h.net_capacity(e) > 0.0);
                }
                for v in h.nodes() {
                    prop_assert!(h.node_size(v) >= 1);
                }
                prop_assert!(inst.spec.num_levels() >= 2);
            }
        }
    }
}
