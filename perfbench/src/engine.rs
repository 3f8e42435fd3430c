//! The in-process workloads: the multilevel V-cycle on `rent:20000` and
//! flat FLOW (Algorithm 1) on `rent:5000`. Each job hands one netlist to
//! the engine and ends when `htp_verify::certify` accepts the partition.
//! A run solves a fixed number of netlists, all generated from the seed,
//! so one run averages over several inputs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use htp_bench::paper_spec;
use htp_cluster::pipeline::refine_partition;
use htp_cluster::refine::flow_refine_pass;
use htp_cluster::vcycle::{vcycle_partition, VCycleParams, VCycleResult};
use htp_core::construct::construct_partition;
use htp_core::injector::{compute_spreading_metric, FlowParams, InjectionStats};
use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::{Budget, CoreError, RunOutcome};
use htp_model::{cost, validate, HierarchicalPartition, TreeSpec};
use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::io::hgr;
use htp_netlist::Hypergraph;

use htp_verify::PartitionCertificate;

use crate::machine::with_peak_heap;
use crate::stats::{cost_matches, median, tail};
use crate::trace::Trace;
use crate::{repeated_setup, Outcome, Report, Settings};

/// Flat FLOW's probe pool runs at the two cores the benchmark host
/// offers.
const THREADS: usize = 2;

/// The V-cycle's probe and refinement pools run at one thread: a second
/// thread saves little on a `rent:20000` job, and a job at one thread
/// keeps running at full speed while the host takes time from one of the
/// two cores.
const VCYCLE_THREADS: usize = 1;

/// Salt separating the netlist generator's streams from the engine's.
const GEN_SALT: u64 = 0x6e65_746c_6973_7400;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `vcycle_partition` on `rent:20000`.
    VCycleRent,
    /// `FlowPartitioner::run` on `rent:5000`.
    FlatRent,
}

impl Kind {
    fn is_vcycle(self) -> bool {
        self == Kind::VCycleRent
    }

    /// Netlists one run solves: as many as fit in `seconds` at the
    /// nominal job time on the reference host (one job takes 1.6–3 s
    /// on the V-cycle, 2.5–5 s flat, depending on the netlist and on how
    /// busy the shared host is; the run may overshoot). A fixed count
    /// keeps the run's work, and so its cost, a function of the seed
    /// alone.
    fn instances(self, seconds: f64) -> usize {
        let nominal = match self {
            Kind::VCycleRent => 2.3,
            Kind::FlatRent => 3.75,
        };
        ((seconds / nominal).floor() as usize).max(1)
    }
}

pub fn rent_netlist(nodes: usize, seed: u64) -> Hypergraph {
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

/// Round-trips `h` through the `.hgr` text format, as a netlist read
/// from disk would arrive.
fn via_hgr(h: &Hypergraph) -> Hypergraph {
    hgr::from_str(&hgr::to_string(h)).expect("generated netlists serialise to valid .hgr")
}

pub struct Instance {
    pub h: Hypergraph,
    pub spec: TreeSpec,
}

/// Generates netlist `index` of the run from `seed`, parses it back
/// from `.hgr` and builds the height-4 binary spec. Spans `netlist.gen`
/// and `netlist.parse` go into `trace` when given.
fn setup(kind: Kind, seed: u64, index: usize, trace: Option<&mut Trace>) -> Instance {
    let netlist_seed =
        (seed ^ GEN_SALT).wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let t0 = Instant::now();
    let generated = match kind {
        Kind::VCycleRent => rent_netlist(20_000, netlist_seed),
        Kind::FlatRent => rent_netlist(5_000, netlist_seed),
    };
    let t1 = Instant::now();
    let h = via_hgr(&generated);
    let t2 = Instant::now();
    if let Some(trace) = trace {
        trace.record_between("netlist.gen", None, t0, t1);
        trace.record_between("netlist.parse", None, t1, t2);
    }
    let spec = paper_spec(&h);
    Instance { h, spec }
}

fn vcycle_params() -> VCycleParams {
    let mut params = VCycleParams::default();
    params.partitioner.flow.threads = VCYCLE_THREADS;
    params.refine.threads = VCYCLE_THREADS;
    params
}

fn flat_params() -> PartitionerParams {
    PartitionerParams {
        iterations: 4,
        constructions_per_metric: 4,
        flow: FlowParams {
            threads: THREADS,
            ..FlowParams::default()
        },
    }
}

/// What the engine returned for one job.
enum EngineRun {
    VCycle(Box<VCycleResult>),
    Flat(Vec<InjectionStats>),
}

struct Job {
    cost: f64,
    seconds: f64,
    run: EngineRun,
}

/// Why a certified partition does not count: the certificate found a
/// violation, or its cost differs from the engine's.
fn cert_failure(cert: &PartitionCertificate, engine_cost: f64) -> Option<String> {
    if !cert.is_valid() {
        return Some(format!("certification failed: {:?}", cert.violations));
    }
    match cert.cost {
        Some(c) if cost_matches(c, engine_cost) => None,
        other => Some(format!(
            "engine cost {engine_cost} but certified cost {other:?}"
        )),
    }
}

/// One untraced job: the engine call plus certification, timed together.
/// `Err` when the engine itself failed.
fn run_job(kind: Kind, inst: &Instance, seed: u64) -> Result<(Job, Option<String>), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let (cost, outcome, cert, run) = if kind.is_vcycle() {
        let r = vcycle_partition(&inst.h, &inst.spec, vcycle_params(), &mut rng)
            .map_err(|e| format!("V-cycle failed: {e}"))?;
        let cert = htp_verify::certify(&inst.h, &inst.spec, &r.partition);
        (r.cost, r.outcome, cert, EngineRun::VCycle(Box::new(r)))
    } else {
        let r = FlowPartitioner::try_new(flat_params())
            .and_then(|p| p.run(&inst.h, &inst.spec, &mut rng))
            .map_err(|e| format!("FLOW failed: {e}"))?;
        let cert = htp_verify::certify(&inst.h, &inst.spec, &r.partition);
        let stats = r.history.iter().map(|it| it.stats).collect();
        (r.cost, RunOutcome::Complete, cert, EngineRun::Flat(stats))
    };
    let seconds = start.elapsed().as_secs_f64();
    let failure = cert_failure(&cert, cost)
        .or_else(|| (outcome != RunOutcome::Complete).then(|| format!("outcome {outcome:?}")));
    Ok((Job { cost, seconds, run }, failure))
}

/// Adds the work counters of one job: the probes and rounds of its
/// metrics, or the V-cycle's levels, coarsest size and refinement pairs.
fn count_work(run: &EngineRun, work: &mut Report) {
    let mut add = |name, x: usize| *work.entry(name).or_insert(0.0) += x as f64;
    add("jobs", 1);
    match run {
        EngineRun::VCycle(r) => {
            add("levels", r.num_levels);
            add("coarsest_nodes", r.coarsest_nodes);
            add(
                "flow_pairs_tried",
                r.levels.iter().map(|l| l.flow_pairs_tried).sum(),
            );
        }
        EngineRun::Flat(stats) => {
            add("rounds", stats.iter().map(|s| s.rounds).sum());
            add("probes", stats.iter().map(|s| s.probes).sum());
        }
    }
}

/// Untraced run: repeated set-up of one netlist (its median is
/// `setup_s`), then one job per netlist of the run, back to back. Each
/// job's netlist is set up right before it, so one netlist is live at a
/// time and a job's peak heap is what solving one netlist needs.
pub fn measure(kind: Kind, s: &Settings) -> Outcome {
    let (first, setup_s) = repeated_setup(|| setup(kind, s.seed, 0, None), drop);
    let mut first = Some(first);

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut costs = Vec::new();
    let mut peaks = Vec::new();
    for i in 0..kind.instances(s.seconds) {
        let inst = first.take().unwrap_or_else(|| setup(kind, s.seed, i, None));
        let (job, peak) = with_peak_heap(|| run_job(kind, &inst, s.seed.wrapping_add(i as u64)));
        peaks.push(peak);
        match job {
            Ok((job, failure)) => {
                out.tally.record(failure);
                latencies.push(job.seconds);
                costs.push(job.cost);
                count_work(&job.run, &mut out.work);
            }
            Err(e) => out.tally.record(Some(e)),
        }
    }
    let wall: f64 = latencies.iter().sum();

    let certified = out.tally.attempted - out.tally.failed;
    let ms: Vec<f64> = latencies.iter().map(|x| x * 1e3).collect();
    let t = tail(&ms);
    eprintln!(
        "{kind:?}: {} jobs in {wall:.3}s ({latencies:.3?} s, peak heap {peaks:.1?} MiB), \
         latency tail p{:.1} over {} samples ({} beyond)",
        latencies.len(),
        t.percentile,
        t.samples,
        t.beyond
    );
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("time_to_certified_s", median(&latencies));
    m.insert("cost", costs.iter().sum::<f64>() / costs.len() as f64);
    m.insert("heap_mb", median(&peaks));
    m.insert("jobs_per_s", certified as f64 / wall);
    m.insert("latency_p50_ms", median(&ms));
    m.insert("latency_tail_ms", t.value);
    out
}

/// Traced run on the run's first netlist: one untraced reference job,
/// then the same job again with a span around every call into a layer,
/// then replays of the layers the engine call hides (per-level
/// refinement, the coarsest solve, the metric at one thread).
pub fn traced(kind: Kind, s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let inst = setup(kind, s.seed, 0, Some(&mut trace));
    out.metrics
        .insert("netlist.gen_s", trace.total("netlist.gen"));
    out.metrics
        .insert("netlist.parse_s", trace.total("netlist.parse"));

    let reference = match run_job(kind, &inst, s.seed) {
        Ok((job, failure)) => {
            out.tally.record(failure);
            job
        }
        Err(e) => {
            out.tally.record(Some(e));
            return out;
        }
    };
    match &reference.run {
        EngineRun::VCycle(r) => traced_vcycle(&inst, s.seed, r, &mut trace, &mut out),
        EngineRun::Flat(stats) => traced_flat(&inst, s.seed, stats, &mut trace, &mut out),
    }
    let run = trace
        .find("run")
        .expect("the traced pipeline records a run span");
    let traced_cost = out.metrics.get("cost").copied().unwrap_or(f64::NAN);
    out.check(traced_cost.to_bits() == reference.cost.to_bits(), || {
        format!(
            "traced cost {traced_cost} but untraced cost {}",
            reference.cost
        )
    });
    out.metrics.insert("certify_s", trace.total("certify"));
    out.metrics.insert(
        "trace.coverage",
        trace.child_coverage(run) / reference.seconds,
    );
    out.metrics
        .insert("trace.overhead_s", trace.duration(run) - reference.seconds);
    eprintln!("spans {}", trace.to_json());
    out
}

/// Adds the spreading-metric counters of `stats` (one or more metric
/// computations) to the report.
fn report_metric(stats: &[InjectionStats], m: &mut Report) {
    let sum = |f: fn(&InjectionStats) -> f64| stats.iter().map(f).sum::<f64>();
    let probes = sum(|s| s.probes as f64);
    let wasted = sum(|s| s.wasted_probes as f64);
    m.insert("metric.probe_s", sum(|s| s.probe_time.as_secs_f64()));
    m.insert("metric.commit_s", sum(|s| s.commit_time.as_secs_f64()));
    m.insert("metric.reprice_s", sum(|s| s.repricing_time.as_secs_f64()));
    m.insert("metric.rounds", sum(|s| s.rounds as f64));
    m.insert("metric.probes", probes);
    m.insert("metric.wasted_probes", wasted);
    m.insert(
        "metric.useful_probe_ratio",
        if probes > 0.0 {
            1.0 - wasted / probes
        } else {
            0.0
        },
    );
    m.insert("metric.dial_rounds", sum(|s| s.dial_rounds as f64));
    m.insert("metric.heap_rounds", sum(|s| s.heap_rounds as f64));
    m.insert(
        "metric.converged",
        if stats.iter().all(|s| s.converged) {
            1.0
        } else {
            0.0
        },
    );
}

fn traced_vcycle(
    inst: &Instance,
    seed: u64,
    reference: &VCycleResult,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let (h, spec) = (&inst.h, &inst.spec);
    let mut params = vcycle_params();
    params.record_levels = true;

    let run = trace.open("run", None);
    let call = trace.open("vcycle", Some(run));
    let r = vcycle_partition(h, spec, params, &mut StdRng::seed_from_u64(seed))
        .expect("the traced V-cycle repeats the untraced one");
    trace.close(call);
    // The call's own phase timers, laid end to end inside its span.
    let refine_seconds: f64 = r.levels.iter().map(|l| l.refine_seconds).sum();
    let mut at = trace.span(call).start;
    for (name, secs) in [
        ("coarsen", r.coarsen_seconds),
        ("solve", r.solve_seconds),
        ("refine", refine_seconds),
    ] {
        trace.record(name, Some(call), at, at + secs);
        at += secs;
    }
    let certify_span = trace.open("certify", Some(run));
    let cert = htp_verify::certify(h, spec, &r.partition);
    trace.close(certify_span);
    trace.close(run);
    out.tally.record(cert_failure(&cert, r.cost));

    let pairs_tried = |v: &VCycleResult| v.levels.iter().map(|l| l.flow_pairs_tried).sum::<usize>();
    out.check(
        (r.num_levels, r.coarsest_nodes, pairs_tried(&r))
            == (
                reference.num_levels,
                reference.coarsest_nodes,
                pairs_tried(reference),
            ),
        || {
            "traced V-cycle levels, coarsest size or pairs tried differ from the untraced run"
                .into()
        },
    );

    let m = &mut out.metrics;
    m.insert("cost", r.cost);
    m.insert("vcycle.levels", r.num_levels as f64);
    m.insert("vcycle.coarsest_nodes", r.coarsest_nodes as f64);
    m.insert(
        "vcycle.precheck_rejected",
        r.precheck_rejected_levels as f64,
    );
    m.insert("vcycle.backoff_popped", r.backoff_popped_levels as f64);
    m.insert("vcycle.coarsen_s", r.coarsen_seconds);
    m.insert("vcycle.solve_s", r.solve_seconds);
    m.insert("vcycle.refine_s", refine_seconds);
    let sum = |f: fn(&htp_cluster::vcycle::VCycleLevelReport) -> usize| {
        r.levels.iter().map(f).sum::<usize>() as f64
    };
    m.insert("coarsen.merged_nets", sum(|l| l.merged_nets));
    m.insert("coarsen.dropped_nets", sum(|l| l.dropped_nets));
    m.insert("coarsen.frozen_fillers", sum(|l| l.frozen_fillers));

    replay_levels(inst, &params, &r, trace, out);
    replay_solve(inst, seed, &params, &r, trace, out);
}

/// Replays every uncoarsening level from its recorded projected
/// partition: the flow pass, then HFM where the V-cycle runs it. The
/// replay must land on the recorded refined partition exactly.
fn replay_levels(
    inst: &Instance,
    params: &VCycleParams,
    r: &VCycleResult,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let spec = &inst.spec;
    let levels = r.num_levels;
    let replay = trace.open("replay.levels", None);
    let (mut tried, mut accepted, mut skipped, mut moved, mut flow_gain) = (0, 0, 0, 0, 0.0);
    let (mut hfm_run, mut hfm_improved, mut hfm_gain) = (0, 0, 0.0);
    for (j, (projected, refined)) in r.level_partitions.iter().enumerate() {
        // `level_partitions[j]` lives on `coarse_graphs[L - 2 - j]`, and
        // on the input netlist for the finest level.
        let fine = if j + 1 == levels {
            &inst.h
        } else {
            &r.coarse_graphs[levels - 2 - j]
        };
        let projected_cost = cost::partition_cost(fine, spec, projected);
        let level = trace.open("level", Some(replay));
        let span = trace.open("refine.flow", Some(level));
        let pass = flow_refine_pass(
            fine,
            spec,
            projected,
            projected_cost,
            &params.refine,
            &Budget::unlimited(),
        );
        trace.close(span);
        let (mut p, mut c, report) = pass.expect("the flow pass replays a pass that succeeded");
        tried += report.pairs_tried;
        accepted += report.pairs_accepted;
        skipped += report.pairs_skipped;
        moved += report.moved_nodes;
        flow_gain += report.gain;
        if fine.num_nodes() <= params.hfm_max_nodes {
            let span = trace.open("refine.hfm", Some(level));
            let hfm = refine_partition(fine, spec, &p);
            trace.close(span);
            let (p2, c2) = hfm.expect("HFM replays a pass that succeeded");
            hfm_run += 1;
            if c2 < c - 1e-12 {
                hfm_improved += 1;
                hfm_gain += c - c2;
                (p, c) = (p2, c2);
            }
        }
        trace.close(level);
        out.check(p == *refined, || {
            format!("level {j}: replayed refinement (cost {c}) differs from the recorded partition")
        });
    }
    trace.close(replay);
    let m = &mut out.metrics;
    m.insert("refine.flow_s", trace.total("refine.flow"));
    m.insert("refine.flow.pairs_tried", tried as f64);
    m.insert("refine.flow.pairs_accepted", accepted as f64);
    m.insert("refine.flow.pairs_skipped", skipped as f64);
    m.insert(
        "refine.flow.accept_ratio",
        if tried > 0 {
            accepted as f64 / tried as f64
        } else {
            0.0
        },
    );
    m.insert("refine.flow.moved_nodes", moved as f64);
    m.insert("refine.flow.gain", flow_gain);
    m.insert("refine.hfm_s", trace.total("refine.hfm"));
    m.insert("refine.hfm.levels_run", hfm_run as f64);
    m.insert("refine.hfm.levels_improved", hfm_improved as f64);
    m.insert("refine.hfm.gain", hfm_gain);
}

/// Replays the coarsest solve with the V-cycle's partitioner parameters:
/// one metric and its constructions. The replay starts a fresh
/// generator from the seed, while the V-cycle's own solve continues the
/// generator its coarsening drew from, so the `metric.*` and
/// `construct.*` figures describe a separate solve on the same coarsest
/// graph, not the one `vcycle.solve_s` timed. The V-cycle's own coarsest cost and backoff
/// count are logged beside the replay's best construction.
fn replay_solve(
    inst: &Instance,
    seed: u64,
    params: &VCycleParams,
    r: &VCycleResult,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    // Backoff pops levels from `coarse_graphs`, so its last graph is the
    // one the V-cycle solved.
    let (h, spec) = (r.coarse_graphs.last().unwrap_or(&inst.h), &inst.spec);
    out.check(h.num_nodes() == r.coarsest_nodes, || {
        format!(
            "the replayed coarsest graph has {} nodes, the V-cycle solved {}",
            h.num_nodes(),
            r.coarsest_nodes
        )
    });
    let flow = params.partitioner.flow;
    let replay = trace.open("replay.solve", None);
    let mut rng = StdRng::seed_from_u64(seed);
    let span = trace.open("metric", Some(replay));
    let (metric, stats) = compute_spreading_metric(h, spec, flow, &mut rng);
    trace.close(span);
    let calls = params.partitioner.constructions_per_metric;
    let mut no_feasible_cut = 0usize;
    let mut best = f64::INFINITY;
    for _ in 0..calls {
        let span = trace.open("construct", Some(replay));
        let built = construct_partition(h, spec, &metric, &mut rng);
        trace.close(span);
        match built {
            Ok(p) if validate::validate(h, spec, &p).is_ok() => {
                best = best.min(cost::partition_cost(h, spec, &p));
            }
            Err(CoreError::NoFeasibleCut { .. }) => no_feasible_cut += 1,
            _ => {}
        }
    }
    trace.close(replay);
    eprintln!(
        "coarsest solve: replay best cost {best} over {calls} constructions \
         ({no_feasible_cut} without a feasible cut); the V-cycle's own solve: \
         coarsest cost {}, {} backoff levels popped",
        r.coarsest_cost, r.backoff_popped_levels
    );
    report_metric(&[stats], &mut out.metrics);
    let m = &mut out.metrics;
    m.insert("metric.s", trace.total("metric"));
    m.insert("construct.s", trace.total("construct"));
    m.insert("construct.calls", calls as f64);
    m.insert("construct.no_feasible_cut", no_feasible_cut as f64);
}

/// Algorithm 1 driven by hand, as `FlowPartitioner::run` drives it
/// (same generator stream, same strictly-better rule), with a span under
/// `parent` around every metric and every construction.
pub struct Driven {
    pub best: Option<(HierarchicalPartition, f64)>,
    pub stats: Vec<InjectionStats>,
    pub no_feasible_cut: usize,
}

pub fn drive_algorithm1(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: &PartitionerParams,
    seed: u64,
    trace: &mut Trace,
    parent: usize,
) -> Driven {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Driven {
        best: None,
        stats: Vec::with_capacity(params.iterations),
        no_feasible_cut: 0,
    };
    for _ in 0..params.iterations {
        let span = trace.open("metric", Some(parent));
        let (metric, st) = compute_spreading_metric(h, spec, params.flow, &mut rng);
        trace.close(span);
        d.stats.push(st);
        for _ in 0..params.constructions_per_metric {
            let span = trace.open("construct", Some(parent));
            let built = construct_partition(h, spec, &metric, &mut rng);
            trace.close(span);
            match built {
                Ok(p) if validate::validate(h, spec, &p).is_ok() => {
                    let c = cost::partition_cost(h, spec, &p);
                    if d.best.as_ref().is_none_or(|(_, b)| c < *b) {
                        d.best = Some((p, c));
                    }
                }
                Err(CoreError::NoFeasibleCut { .. }) => d.no_feasible_cut += 1,
                _ => {}
            }
        }
    }
    d
}

/// Reports the metric and construction layers of `runs` hand-driven
/// runs, all of whose spans are in `trace`: their metric statistics
/// together, and their construction calls and failures summed.
pub fn report_algorithm1(
    runs: &[Driven],
    params: &PartitionerParams,
    trace: &Trace,
    m: &mut Report,
) {
    let stats: Vec<InjectionStats> = runs.iter().flat_map(|d| d.stats.iter().copied()).collect();
    report_metric(&stats, m);
    m.insert("metric.s", trace.total("metric"));
    m.insert("construct.s", trace.total("construct"));
    m.insert(
        "construct.calls",
        (runs.len() * params.iterations * params.constructions_per_metric) as f64,
    );
    m.insert(
        "construct.no_feasible_cut",
        runs.iter().map(|d| d.no_feasible_cut).sum::<usize>() as f64,
    );
}

/// Algorithm 1 by hand with spans, then its metrics again at one thread.
fn traced_flat(
    inst: &Instance,
    seed: u64,
    reference: &[InjectionStats],
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let (h, spec) = (&inst.h, &inst.spec);
    let params = flat_params();
    let run = trace.open("run", None);
    let driven = drive_algorithm1(h, spec, &params, seed, trace, run);
    let Some((partition, best_cost)) = &driven.best else {
        trace.close(run);
        out.tally
            .record(Some("no construction was feasible".into()));
        return;
    };
    let span = trace.open("certify", Some(run));
    let cert = htp_verify::certify(h, spec, partition);
    trace.close(span);
    trace.close(run);
    out.tally.record(cert_failure(&cert, *best_cost));
    out.check(driven.stats == reference, || {
        "hand-driven metrics differ from FlowPartitioner::run's".into()
    });

    let replay = trace.open("replay.t1", None);
    let mut rng = StdRng::seed_from_u64(seed);
    let single = FlowParams {
        threads: 1,
        ..params.flow
    };
    for st in &driven.stats {
        let span = trace.open("metric.t1", Some(replay));
        let (metric, st1) = compute_spreading_metric(h, spec, single, &mut rng);
        trace.close(span);
        out.check(st1 == *st, || {
            "the metric differs between one and two threads".into()
        });
        // Constructions advance the generator exactly as above.
        for _ in 0..params.constructions_per_metric {
            let _ = construct_partition(h, spec, &metric, &mut rng);
        }
    }
    trace.close(replay);

    let cost = *best_cost;
    report_algorithm1(&[driven], &params, trace, &mut out.metrics);
    let m = &mut out.metrics;
    m.insert("cost", cost);
    m.insert(
        "metric.t2_speedup",
        trace.total("metric.t1") / trace.total("metric"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driven(probes: usize, no_feasible_cut: usize) -> Driven {
        let stats = InjectionStats {
            probes,
            rounds: 1,
            converged: true,
            ..InjectionStats::default()
        };
        Driven {
            best: None,
            stats: vec![stats; 4],
            no_feasible_cut,
        }
    }

    /// Several hand-driven runs report as one: counters summed over all
    /// of them, beside span totals that cover all of them.
    #[test]
    fn algorithm1_reports_sum_over_runs() {
        let params = PartitionerParams::default();
        let mut trace = Trace::new();
        for (start, end) in [(0.0, 1.0), (2.0, 3.5)] {
            trace.record("metric", None, start, end);
        }
        let mut m = Report::new();
        report_algorithm1(&[driven(10, 1), driven(5, 2)], &params, &trace, &mut m);
        assert_eq!(m["metric.probes"], 60.0);
        assert_eq!(m["metric.rounds"], 8.0);
        assert_eq!(m["metric.s"], 2.5);
        assert_eq!(m["construct.calls"], 32.0);
        assert_eq!(m["construct.no_feasible_cut"], 3.0);
        assert_eq!(m["metric.converged"], 1.0);
    }
}
