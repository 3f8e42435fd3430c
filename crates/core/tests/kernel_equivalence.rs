//! Differential kernel-equivalence suite: the probe kernel must give the
//! same answer under either frontier, and that answer must agree with
//! the independent `htp-verify` Dijkstra.
//!
//! Three layers of lockdown:
//!
//! 1. **Settle sequences** — the `(node, dist, via_net, parent)` stream of
//!    the CSR grower under the heap frontier equals the stream under the
//!    dial frontier, and every settled distance equals
//!    `htp_verify::audit::shortest_distances_csr`'s, on every conformance
//!    family and on proptest-generated hypergraphs (single-pin nets
//!    routed through `add_net_lenient`, duplicate nets, zero-length nets).
//! 2. **Probe reports** — `probe_source_csr` returns bit-equal reports
//!    under the heap and the dial, in both prefix orders (unit sizes take
//!    the distance order, mixed sizes the weighted one), under a spec with
//!    a zero-weight level. Each report is then checked against the
//!    oracle: a violation must reprice below `spreading_bound(size)`, and
//!    a `None` must survive a brute-force prefix scan of the oracle's
//!    distances.
//! 3. **Full pipeline** — `FlowPartitioner` digests are identical at 1, 2,
//!    4, and 8 probe threads crossed with forced-heap and forced-dial
//!    frontiers.
//!
//! `f64` equality between the two frontiers is exact (`==` /
//! `assert_eq!` on the raw values, debug-formatted reports for the nested
//! structs) — "close enough" would defeat the purpose of pinning them
//! together.

use htp_core::constraint::{probe_source_csr, CsrProbeScratch, ProbeReport};
use htp_core::injector::{FlowParams, FrontierMode};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::sptree::{CsrGrowerScratch, TreeStep};
use htp_core::SpreadingMetric;
use htp_graph::{dial_plan_forced, DialQueue, Frontier, IndexedMinHeap};
use htp_model::TreeSpec;
use htp_netlist::{CsrHypergraph, Hypergraph, HypergraphBuilder, NodeId};
use htp_verify::audit::{shortest_distances_csr, spreading_bound, DistanceScratch};
use htp_verify::gen::all_families;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed shared with the conformance harness.
const SEED: u64 = 1997;
/// Probe tolerance, as in the injector's default.
const TOLERANCE: f64 = 1e-9;

/// A settled node as a plain comparable record.
type Step = (u32, f64, Option<u32>, Option<u32>);

fn rec(s: TreeStep) -> Step {
    (
        s.node.0,
        s.dist,
        s.via_net.map(|e| e.0),
        s.parent.map(|v| v.0),
    )
}

/// Deterministic, quantized-ish positive lengths: a small set of distinct
/// values so the dial queue gets real multi-key buckets and real ties.
fn synthetic_lengths(nets: usize) -> Vec<f64> {
    (0..nets)
        .map(|e| 0.125 * ((e * 17) % 13 + 1) as f64)
        .collect()
}

fn csr_steps<F: Frontier>(csr: &CsrHypergraph, frontier: &mut F, source: u32) -> Vec<Step> {
    CsrGrowerScratch::new(csr)
        .tree(csr, frontier, source)
        .map(rec)
        .collect()
}

/// Asserts both frontiers settle the identical sequence from `source`,
/// at exactly the oracle's distances, reaching exactly the nodes the
/// oracle reaches.
fn assert_kernels_agree(h: &Hypergraph, lengths: &[f64], source: usize, what: &str) {
    let csr = CsrHypergraph::with_lengths(h, lengths);
    let mut heap = IndexedMinHeap::new(h.num_nodes());
    let by_heap = csr_steps(&csr, &mut heap, source as u32);

    let (width, buckets) = dial_plan_forced(csr.lengths(), 4096);
    let mut dial = DialQueue::new(h.num_nodes(), width, buckets);
    let by_dial = csr_steps(&csr, &mut dial, source as u32);
    assert_eq!(by_dial, by_heap, "{what}: dial vs heap, source {source}");

    let mut want = Vec::new();
    shortest_distances_csr(
        &csr,
        source as u32,
        &mut DistanceScratch::default(),
        &mut want,
    );
    let mut got = vec![f64::INFINITY; h.num_nodes()];
    for &(v, d, ..) in &by_heap {
        got[v as usize] = d;
    }
    assert_eq!(got, want, "{what}: distances vs oracle, source {source}");
}

#[test]
fn settle_sequences_agree_on_every_conformance_family() {
    for inst in all_families(SEED) {
        let h = &inst.hypergraph;
        let lengths = synthetic_lengths(h.num_nets());
        for source in [0, h.num_nodes() / 2, h.num_nodes() - 1] {
            assert_kernels_agree(h, &lengths, source, inst.family);
        }
    }
}

/// The prefix key of `u` under the order `csr` takes: distance for unit
/// sizes, `(dist + 1)·s(u)` otherwise.
fn prefix_key(csr: &CsrHypergraph, dist: f64, u: u32) -> f64 {
    if csr.has_unit_sizes() {
        dist
    } else {
        (dist + 1.0) * csr.node_size(u) as f64
    }
}

/// Checks one probe report against the oracle's distances `dist` from
/// `source`.
///
/// A violation's node set must really fall short: its size is the sum of
/// its members, its tree-path `lhs` reprices (from the net weights) to
/// itself and stays below the oracle's `spreading_bound(size)`, and the
/// true shortest distances can only make the shortfall larger. A `None`
/// is confirmed by scanning the oracle's distances in the order's key:
/// every prefix that ends on a key boundary (where ties cannot reorder
/// members) must satisfy its bound. The source leads every prefix.
fn check_against_oracle(
    csr: &CsrHypergraph,
    spec: &TreeSpec,
    metric: &SpreadingMetric,
    source: NodeId,
    dist: &[f64],
    report: &ProbeReport,
    what: &str,
) {
    let size_of = |u: NodeId| csr.node_size(u.0);
    match &report.violation {
        Some(t) => {
            assert_eq!(t.nodes[0], source, "{what}: the source leads the tree");
            assert_eq!(t.size, t.nodes.iter().map(|&u| size_of(u)).sum::<u64>());
            let bound = spreading_bound(spec, t.size);
            let repriced = t.repriced_lhs(metric);
            assert!(
                (repriced - t.lhs).abs() <= 1e-9 * t.lhs.max(1.0),
                "{what}: net weights reprice to {repriced}, not lhs {}",
                t.lhs
            );
            assert!(
                repriced + TOLERANCE < bound,
                "{what}: repriced lhs {repriced} is not below g({}) = {bound}",
                t.size
            );
            let shortest: f64 = t
                .nodes
                .iter()
                .map(|&u| dist[u.index()] * size_of(u) as f64)
                .sum();
            assert!(
                shortest <= repriced + 1e-9 * repriced.max(1.0),
                "{what}: shortest-path lhs {shortest} exceeds the tree's {repriced}"
            );
        }
        None => {
            let mut others: Vec<(f64, u32)> = (0..csr.num_nodes() as u32)
                .filter(|&u| u != source.0 && dist[u as usize].is_finite())
                .map(|u| (prefix_key(csr, dist[u as usize], u), u))
                .collect();
            others.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut size = size_of(source);
            let mut lhs = 0.0;
            let ok = |size: u64, lhs: f64| {
                lhs + TOLERANCE + 1e-9 * lhs.max(1.0) >= spreading_bound(spec, size)
            };
            assert!(ok(size, lhs), "{what}: the singleton prefix is violated");
            for (i, &(key, u)) in others.iter().enumerate() {
                size += csr.node_size(u);
                lhs += dist[u as usize] * csr.node_size(u) as f64;
                let group_ends = others.get(i + 1).is_none_or(|next| next.0 != key);
                assert!(
                    !group_ends || ok(size, lhs),
                    "{what}: the probe found nothing, but the prefix of size {size} \
                     has lhs {lhs} < g = {}",
                    spreading_bound(spec, size)
                );
            }
        }
    }
}

/// Probes every source under both frontiers, asserts the two reports are
/// bit-equal, and checks the heap report against the oracle. Debug
/// formatting round-trips every distinct `f64` to a distinct string, so
/// report equality is bit-equality of all the sums.
fn probe_all_sources(h: &Hypergraph, spec: &TreeSpec, lengths: &[f64], what: &str) {
    let metric = SpreadingMetric::from_lengths(lengths.to_vec());
    let csr = CsrHypergraph::with_lengths(h, lengths);
    let mut scratch = CsrProbeScratch::new(&csr);
    let (width, buckets) = dial_plan_forced(csr.lengths(), 4096);
    scratch.plan_dial(width, buckets);
    let (mut oracle, mut dist) = (DistanceScratch::default(), Vec::new());
    for v in h.nodes() {
        let heap = probe_source_csr(&csr, spec, v, TOLERANCE, &mut scratch, false);
        let dial = probe_source_csr(&csr, spec, v, TOLERANCE, &mut scratch, true);
        assert_eq!(
            format!("{dial:?}"),
            format!("{heap:?}"),
            "{what}: dial vs heap probe of {v:?}"
        );
        shortest_distances_csr(&csr, v.0, &mut oracle, &mut dist);
        let label = format!("{what}, source {v:?}");
        check_against_oracle(&csr, spec, &metric, v, &dist, &heap, &label);
    }
}

#[test]
fn probe_reports_agree_on_every_conformance_family() {
    let mut weighted = 0;
    for inst in all_families(SEED) {
        let h = &inst.hypergraph;
        weighted += usize::from(!h.has_unit_sizes());
        // Scaled so both verdicts occur: short lengths violate, long ones
        // satisfy every prefix.
        for scale in [0.25, 1.0, 8.0] {
            let lengths: Vec<f64> = synthetic_lengths(h.num_nets())
                .iter()
                .map(|d| d * scale)
                .collect();
            let what = format!("{} x{scale}", inst.family);
            probe_all_sources(h, &inst.spec, &lengths, &what);
        }
    }
    assert!(
        weighted >= 3,
        "the weighted order needs mixed-size families"
    );
}

/// FNV-1a, as in the conformance harness.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of (cost, per-node leaf rank), stable under vertex renumbering.
fn digest(h: &Hypergraph, r: &htp_core::partitioner::FlowResult) -> u64 {
    let leaves = r.partition.leaves();
    let rank_of = |v| {
        leaves
            .iter()
            .position(|&l| l == r.partition.leaf_of(v))
            .expect("every node maps to a leaf") as u64
    };
    let mut acc = fnv1a(0xcbf2_9ce4_8422_2325, &r.cost.to_bits().to_le_bytes());
    for v in h.nodes() {
        acc = fnv1a(acc, &rank_of(v).to_le_bytes());
    }
    acc
}

#[test]
fn full_pipeline_digests_are_identical_across_threads_and_frontiers() {
    // Five families keep the 8-way matrix fast in debug; rent-like is the
    // workhorse, duplicate nets and zero-weight levels cover the distance
    // order's corner cases, and heavy-tailed and components run the
    // weighted order end to end.
    for inst in all_families(SEED).into_iter().filter(|i| {
        matches!(
            i.family,
            "rent-like" | "zero-weight" | "duplicate-nets" | "heavy-tailed" | "components"
        )
    }) {
        let mut baseline = None;
        for threads in [1usize, 2, 4, 8] {
            for frontier in [FrontierMode::Heap, FrontierMode::Dial] {
                let params = PartitionerParams {
                    iterations: 2,
                    constructions_per_metric: 4,
                    flow: FlowParams {
                        threads,
                        frontier,
                        ..FlowParams::default()
                    },
                };
                let result = FlowPartitioner::try_new(params)
                    .expect("params are valid")
                    .run(
                        &inst.hypergraph,
                        &inst.spec,
                        &mut StdRng::seed_from_u64(SEED),
                    )
                    .expect("conformance families are solvable");
                let d = digest(&inst.hypergraph, &result);
                match baseline {
                    None => baseline = Some(d),
                    Some(want) => assert_eq!(
                        d, want,
                        "{}: digest diverged at threads={threads}, {frontier:?}",
                        inst.family
                    ),
                }
            }
        }
    }
}

/// Builds a hypergraph from node sizes and raw net descriptors, routing
/// every net through `add_net_lenient` so single-pin (post-dedup) nets
/// are legal input and simply dropped, exactly like production ingestion.
fn build_lenient(sizes: &[u64], nets: &[(f64, Vec<usize>)]) -> Hypergraph {
    let nodes = sizes.len();
    let mut b = HypergraphBuilder::new();
    for &s in sizes {
        b.add_node(s);
    }
    for (cap, pins) in nets {
        let mut pins: Vec<NodeId> = pins.iter().map(|&p| NodeId::new(p % nodes)).collect();
        pins.sort();
        pins.dedup();
        b.add_net_lenient(*cap, pins).expect("pins are in range");
    }
    b.build().expect("lenient nets always build")
}

/// Spec with a zero-weight middle level, exercised by every probe below.
fn zero_weight_spec() -> TreeSpec {
    TreeSpec::new(vec![(2, 2, 1.0), (8, 2, 0.0), (64, 4, 1.0)]).expect("spec is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_hypergraphs_settle_identically(
        nodes in 2usize..24,
        nets in proptest::collection::vec(
            (0.1f64..4.0, proptest::collection::vec(0usize..24, 1..5)),
            0..32,
        ),
        base in 0.0f64..2.0,
        mult in 0.0f64..1.0,
        source in 0usize..24,
    ) {
        let h = build_lenient(&vec![1; nodes], &nets);
        // Quantized spectrum with occasional exact zeros and ties.
        let lengths: Vec<f64> = (0..h.num_nets())
            .map(|e| base + ((e * 7) % 5) as f64 * mult)
            .collect();
        assert_kernels_agree(&h, &lengths, source % nodes, "random");
    }

    /// Unit sizes (distance order) and sizes 1–3 (weighted order).
    #[test]
    fn random_hypergraphs_probe_identically(
        sizes in proptest::collection::vec(1u64..4, 2..20),
        unit in 0u8..2,
        nets in proptest::collection::vec(
            (0.1f64..4.0, proptest::collection::vec(0usize..20, 1..5)),
            0..24,
        ),
        base in 0.0f64..2.0,
        mult in 0.0f64..1.0,
    ) {
        let sizes: Vec<u64> = if unit == 1 { vec![1; sizes.len()] } else { sizes };
        let h = build_lenient(&sizes, &nets);
        let lengths: Vec<f64> = (0..h.num_nets())
            .map(|e| base + ((e * 3) % 4) as f64 * mult)
            .collect();
        probe_all_sources(&h, &zero_weight_spec(), &lengths, "random");
    }
}
