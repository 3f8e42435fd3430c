//! Scaling comparison: flat FLOW vs the multilevel V-cycle, on Rent-style
//! instances of growing size.
//!
//! Produces the numbers behind the scaling table in `EXPERIMENTS.md`:
//! wall-clock seconds, certified cost, and the run outcome per
//! `(instance, engine)` cell. Flat FLOW does not scale to the largest
//! instance, so every engine runs under the same deadline (`--cap-ms`,
//! default 120 s) — a capped run reports its best-so-far partition and a
//! non-`complete` outcome instead of hanging the table.
//!
//! Usage: `scaling [--quick] [--cap-ms MS]`
//!
//! * `--quick` drops the 100k-node instance (CI-sized run).
//! * `--cap-ms MS` sets the per-cell deadline in milliseconds.
//!
//! Thread count comes from `HTP_THREADS` (default 1).

use std::time::{Duration, Instant};

use htp_bench::{paper_spec, threads_from_env, EXPERIMENT_SEED};
use htp_cluster::vcycle::{vcycle_partition_with_budget, VCycleParams};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::runtime::{Budget, RunOutcome};
use htp_model::{HierarchicalPartition, TreeSpec};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One `(instance, engine)` cell of the table.
struct Cell {
    seconds: f64,
    cost: f64,
    outcome: RunOutcome,
}

fn rent_instance(nodes: usize) -> (String, Hypergraph) {
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED ^ 1);
    let h = rent_circuit(
        RentParams {
            nodes,
            primary_inputs: (nodes / 16).max(1),
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    (format!("rent:{nodes}"), h)
}

fn certified_cost(h: &Hypergraph, spec: &TreeSpec, p: &HierarchicalPartition) -> f64 {
    let cert = htp_verify::certificate::certify(h, spec, p);
    assert!(
        cert.is_valid(),
        "output failed certification: {:?}",
        cert.violations
    );
    cert.cost.expect("valid certificates are priced")
}

fn run_cell(engine: &str, h: &Hypergraph, spec: &TreeSpec, threads: usize, cap: Duration) -> Cell {
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let budget = Budget::unlimited().with_deadline(cap);
    let start = Instant::now();
    let (partition, outcome) = match engine {
        "flat" => {
            let mut params = PartitionerParams::default();
            params.flow.threads = threads;
            let run = FlowPartitioner::try_new(params)
                .expect("default params are valid")
                .run_with_budget(h, spec, &mut rng, &budget)
                .expect("flat FLOW must produce a partition");
            (run.result.partition, run.outcome)
        }
        "v-cycle" => {
            let mut params = VCycleParams::default();
            params.partitioner.flow.threads = threads;
            let run = vcycle_partition_with_budget(h, spec, params, &mut rng, &budget)
                .expect("V-cycle must produce a partition");
            (run.partition, run.outcome)
        }
        other => panic!("unknown engine {other}"),
    };
    let seconds = start.elapsed().as_secs_f64();
    let cost = certified_cost(h, spec, &partition);
    Cell {
        seconds,
        cost,
        outcome,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cap_ms: u64 = args
        .iter()
        .position(|a| a == "--cap-ms")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--cap-ms takes milliseconds"))
        .unwrap_or(120_000);
    let cap = Duration::from_millis(cap_ms);
    let threads = threads_from_env();

    let sizes: &[usize] = if quick {
        &[2_000, 20_000]
    } else {
        &[2_000, 20_000, 100_000]
    };
    const ENGINES: [&str; 2] = ["flat", "v-cycle"];

    println!(
        "{:<12} {:<10} {:>9} {:>10}  outcome",
        "instance", "engine", "seconds", "cost"
    );
    for &nodes in sizes {
        let (name, h) = rent_instance(nodes);
        let spec = paper_spec(&h);
        for engine in ENGINES {
            let cell = run_cell(engine, &h, &spec, threads, cap);
            println!(
                "{:<12} {:<10} {:>9.2} {:>10} {}",
                name, engine, cell.seconds, cell.cost, cell.outcome
            );
        }
    }
}
