//! serve-mix: an in-process `htp_server::Server` over loopback, driven by
//! two closed-loop clients. Each client submits a fixed seeded stream of
//! height-3 flat jobs on Rent-rule netlists: first-time cold solves,
//! exact repeats of its own earlier jobs (cache hits, re-certified by the
//! server) and clustered-edit resubmissions carrying `warm_digest` (the
//! `eco` warm path). A client repeats only its own jobs, so hit and warm
//! counts do not depend on timing.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use htp_core::partitioner::{FlowPartitioner, PartitionerParams};
use htp_core::SpreadingMetric;
use htp_eco::{random_delta_clustered, warm_partition, WarmPolicy};
use htp_model::{HierarchicalPartition, TreeSpec};
use htp_netlist::io::hgr;
use htp_netlist::Hypergraph;
use htp_server::cache::job_digest;
use htp_server::json::Json;
use htp_server::protocol::write_frame;
use htp_server::{Client, JobRequest, Reply, Request, Server, ServerConfig, StatsReply};

use crate::engine::{drive_algorithm1, rent_netlist, report_algorithm1};
use crate::machine::with_heap_samples;
use crate::stats::{cost_matches, median, quantile, reply_failure, tail};
use crate::trace::Trace;
use crate::{repeated_setup, Outcome, Settings};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const HEIGHT: usize = 3;
const ARITY: usize = 2;
const SLACK: f64 = 1.10;
/// Cold jobs per client, on netlists spread evenly over the size range.
const COLD_PER_CLIENT: usize = 16;
const MIN_NODES: usize = 600;
const MAX_NODES: usize = 2000;
/// Exact repeats of every cold job.
const REPEATS_PER_COLD: usize = 2;
/// Each client resubmits one clustered edit of its cold job on this rung
/// of the size ladder (1 346 nodes): 2 warm jobs in 98 (2%), and the slow
/// warm jobs have the same size at every seed.
const WARM_RUNG: usize = 8;
/// Share of a netlist's nodes one edit touches.
const EDIT_RATE: f64 = 0.02;
/// Job seeds stay below 2^53: the wire format carries numbers as f64.
const SEED_RANGE: std::ops::Range<u64> = 0..1 << 53;
/// The share of a pass's live-heap samples at or below the reported
/// heap. Two jobs' short allocation spikes coincide or not by timing
/// alone, so the maximum moves by a fifth between runs of one seed.
const HEAP_QUANTILE: f64 = 0.95;
/// Far above the slowest job, so a degraded outcome is never a timing
/// artefact.
const DEADLINE_MS: u64 = 600_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Cold,
    Hit,
    Warm,
}

/// One netlist of the stream, as sent and as parsed back for checking.
struct Netlist {
    text: String,
    h: Hypergraph,
    spec: TreeSpec,
}

struct Job {
    class: Class,
    netlist: usize,
    seed: u64,
    /// For a warm job: the netlist and seed of the cold job it edits.
    prior: Option<(usize, u64)>,
    request: Request,
}

/// Every client's jobs, in submission order, over a shared netlist table.
struct Stream {
    netlists: Vec<Netlist>,
    clients: Vec<Vec<Job>>,
}

fn spec_for(h: &Hypergraph) -> TreeSpec {
    TreeSpec::full_tree(h.total_size(), HEIGHT, ARITY, SLACK, 1.0).expect("valid full-tree spec")
}

fn request(text: &str, seed: u64, warm_digest: Option<String>) -> Request {
    Request::Partition(Box::new(JobRequest {
        hgr: text.to_owned(),
        height: HEIGHT,
        arity: ARITY,
        slack: SLACK,
        seed,
        deadline_ms: Some(DEADLINE_MS),
        warm_digest,
        ..JobRequest::default()
    }))
}

/// Serialises `generated`, parses it back and adds it to the table.
/// Spans `netlist.gen` (from `t0`) and `netlist.parse` go into `trace`.
fn add_netlist(
    netlists: &mut Vec<Netlist>,
    generated: Hypergraph,
    trace: &mut Option<&mut Trace>,
    t0: Instant,
) -> usize {
    let t1 = Instant::now();
    let text = hgr::to_string(&generated);
    let h = hgr::from_str(&text).expect("generated netlists parse back");
    let t2 = Instant::now();
    if let Some(trace) = trace.as_deref_mut() {
        trace.record_between("netlist.gen", None, t0, t1);
        trace.record_between("netlist.parse", None, t1, t2);
    }
    let spec = spec_for(&h);
    netlists.push(Netlist { text, h, spec });
    netlists.len() - 1
}

/// Builds the seeded stream, with spans into `trace` when given.
fn build_stream(seed: u64, mut trace: Option<&mut Trace>) -> Stream {
    let mut netlists = Vec::new();
    let mut clients = Vec::with_capacity(CLIENTS);
    // Multiplying by an odd constant is a bijection, so every (seed,
    // client) pair gets its own stream, and the ladder its own generator.
    let stream_seed = |k: usize| {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(k as u64)
    };
    // Every client walks the size ladder in the same seeded order, each
    // on netlists of its own: jobs of one size run side by side, so the
    // peak memory of a pass (which jobs overlap) does not hinge on how
    // two independent shuffles happen to line up.
    let mut ladder: Vec<usize> = (0..COLD_PER_CLIENT).collect();
    ladder.shuffle(&mut StdRng::seed_from_u64(stream_seed(CLIENTS)));
    for c in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(stream_seed(c));
        // Jobs with their submission keys: cold job `i` of the ladder at
        // `i`, its warm edit right after it, and each repeat at a random
        // point after the job it repeats.
        let mut jobs: Vec<(f64, Job)> = Vec::new();
        for (i, &rung) in ladder.iter().enumerate() {
            let nodes = MIN_NODES + (MAX_NODES - MIN_NODES) * rung / (COLD_PER_CLIENT - 1);
            let t0 = Instant::now();
            let generated = rent_netlist(nodes, rng.random_range(0..u64::MAX));
            let netlist = add_netlist(&mut netlists, generated, &mut trace, t0);
            let seed = rng.random_range(SEED_RANGE);
            let cold = Job {
                class: Class::Cold,
                netlist,
                seed,
                prior: None,
                request: request(&netlists[netlist].text, seed, None),
            };
            for _ in 0..REPEATS_PER_COLD {
                let key = rng.random_range(i as f64..COLD_PER_CLIENT as f64);
                jobs.push((key.max(i as f64 + 0.75), repeat_of(&cold)));
            }
            if rung == WARM_RUNG {
                // A clustered edit of the job just served, resubmitted
                // with the served job's digest.
                let t0 = Instant::now();
                let base = &netlists[netlist];
                let edited = random_delta_clustered(&base.h, EDIT_RATE, &mut rng)
                    .apply(&base.h)
                    .expect("generated edit scripts apply")
                    .hypergraph;
                let digest = job_digest(&base.text, HEIGHT, ARITY, SLACK, seed, false);
                let edited = add_netlist(&mut netlists, edited, &mut trace, t0);
                let warm_seed = rng.random_range(SEED_RANGE);
                jobs.push((
                    i as f64 + 0.5,
                    Job {
                        class: Class::Warm,
                        netlist: edited,
                        seed: warm_seed,
                        prior: Some((netlist, seed)),
                        request: request(
                            &netlists[edited].text,
                            warm_seed,
                            Some(format!("{digest:032x}")),
                        ),
                    },
                ));
            }
            jobs.push((i as f64, cold));
        }
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
        clients.push(jobs.into_iter().map(|(_, job)| job).collect());
    }
    Stream { netlists, clients }
}

fn repeat_of(first: &Job) -> Job {
    Job {
        class: Class::Hit,
        netlist: first.netlist,
        seed: first.seed,
        prior: None,
        request: first.request.clone(),
    }
}

fn start_server() -> Server {
    Server::serve(ServerConfig {
        workers: WORKERS,
        threads_per_job: 1,
        default_deadline_ms: DEADLINE_MS,
        // Room for every distinct job of a pass: nothing is evicted.
        cache_capacity: 256,
        ..ServerConfig::default()
    })
    .expect("start the loopback server")
}

/// One request as the client saw it.
struct Sample {
    client: usize,
    job: usize,
    start: Instant,
    end: Instant,
    reply: Result<Reply, String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One pass of the whole stream against one server.
struct Pass {
    samples: Vec<Sample>,
    start: Instant,
    end: Instant,
    stats: StatsReply,
}

impl Pass {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn run_pass(stream: &Stream, server: Server) -> Pass {
    let addr = server.local_addr();
    let before = server.stats();
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .clients
            .iter()
            .enumerate()
            .map(|(client, jobs)| {
                scope.spawn(move || {
                    let mut conn = Client::connect(addr).expect("connect to the loopback server");
                    jobs.iter()
                        .enumerate()
                        .map(|(job, j)| {
                            let start = Instant::now();
                            let reply = conn.request(&j.request).map_err(|e| e.to_string());
                            Sample {
                                client,
                                job,
                                start,
                                end: Instant::now(),
                                reply,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let end = Instant::now();
    let after = server.stats();
    let drained = server.drain();
    if drained.forced || drained.accepted != drained.answered {
        eprintln!("server drain: {drained:?}");
    }
    samples.sort_by_key(|s| (s.client, s.job));
    Pass {
        samples,
        start,
        end,
        stats: stats_diff(&before, &after),
    }
}

fn stats_diff(a: &StatsReply, b: &StatsReply) -> StatsReply {
    StatsReply {
        accepted: b.accepted - a.accepted,
        completed: b.completed - a.completed,
        degraded: b.degraded - a.degraded,
        cancelled: b.cancelled - a.cancelled,
        failed: b.failed - a.failed,
        shed: b.shed - a.shed,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_corruptions: b.cache_corruptions - a.cache_corruptions,
        retries: b.retries - a.retries,
        panics_contained: b.panics_contained - a.panics_contained,
        warm_starts: b.warm_starts - a.warm_starts,
        queue_depth: b.queue_depth,
        draining: b.draining,
    }
}

/// Re-certifies a served assignment on the client's own copy of the
/// netlist and compares the certified cost with the served one.
fn certify_reply(n: &Netlist, assignment: &str, served_cost: f64) -> Option<String> {
    let leaves = ARITY.pow(HEIGHT as u32);
    let leaf_of = match htp_verify::parse_assignment(assignment, n.h.num_nodes(), leaves) {
        Ok(a) => a,
        Err(e) => return Some(format!("served assignment does not parse: {e}")),
    };
    let p = match HierarchicalPartition::full_kary(HEIGHT, ARITY, &leaf_of) {
        Ok(p) => p,
        Err(e) => return Some(format!("served assignment builds no tree: {e}")),
    };
    let cert = htp_verify::certify(&n.h, &n.spec, &p);
    if !cert.is_valid() {
        return Some(format!(
            "served partition fails certification: {:?}",
            cert.violations
        ));
    }
    match cert.cost {
        Some(c) if cost_matches(c, served_cost) => None,
        other => Some(format!(
            "served cost {served_cost} but certified cost {other:?}"
        )),
    }
}

/// The checks and sums of one pass.
struct Summary {
    certified: u64,
    cost: f64,
    latencies_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

fn summarize(
    stream: &Stream,
    pass: &Pass,
    out: &mut Outcome,
    trace: Option<&mut Trace>,
) -> Summary {
    let mut sum = Summary {
        certified: 0,
        cost: 0.0,
        latencies_ms: Vec::new(),
        cold_ms: Vec::new(),
        hit_ms: Vec::new(),
        warm_ms: Vec::new(),
        overhead_ms: Vec::new(),
    };
    let mut certify_s = 0.0;
    for s in &pass.samples {
        let job = &stream.clients[s.client][s.job];
        let ms = s.ms();
        sum.latencies_ms.push(ms);
        match job.class {
            Class::Cold => sum.cold_ms.push(ms),
            Class::Hit => sum.hit_ms.push(ms),
            Class::Warm => sum.warm_ms.push(ms),
        }
        let failure = match &s.reply {
            Err(e) => Some(format!("transport: {e}")),
            Ok(reply) => reply_failure(reply).or_else(|| {
                let Reply::Result(r) = reply else {
                    unreachable!("reply_failure accepts only results")
                };
                sum.cost += r.cost;
                sum.overhead_ms.push(ms - r.job_ms as f64);
                let t = Instant::now();
                let failure = certify_reply(&stream.netlists[job.netlist], &r.assignment, r.cost);
                certify_s += t.elapsed().as_secs_f64();
                failure
            }),
        };
        if failure.is_none() {
            sum.certified += 1;
        }
        out.tally.record(failure);
    }
    if let Some(trace) = trace {
        trace.record("certify", None, 0.0, certify_s);
    }
    sum
}

/// Untraced run: repeated set-up (stream generation and server start),
/// then passes of the whole stream, each against a fresh server.
pub fn measure(s: &Settings) -> Outcome {
    let ((stream, server), setup_s) = repeated_setup(
        || (build_stream(s.seed, None), start_server()),
        |(_, server)| {
            server.drain();
        },
    );

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut costs: Vec<f64> = Vec::new();
    let mut all_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut heaps = Vec::new();
    // As many passes as fit in the window at the nominal pass time on
    // the reference host (about 20 s); a fixed count keeps the work a
    // function of the seed alone.
    let passes = ((s.seconds / 20.0).floor() as usize).max(1);
    let mut server = Some(server);
    for _ in 0..passes {
        let server = server.take().unwrap_or_else(start_server);
        let (pass, heap) = with_heap_samples(|| run_pass(&stream, server));
        heaps.push(quantile(&heap, HEAP_QUANTILE));
        let sum = summarize(&stream, &pass, &mut out, None);
        walls.push(pass.wall());
        rates.push(sum.certified as f64 / pass.wall());
        costs.push(sum.cost);
        all_ms.extend(sum.latencies_ms);
        cold_ms.extend(sum.cold_ms);
    }
    for c in &costs[1..] {
        out.check(c.to_bits() == costs[0].to_bits(), || {
            format!("pass cost {c} differs from the first pass's {}", costs[0])
        });
    }
    let t = tail(&all_ms);
    eprintln!(
        "serve-mix: {} passes, latency tail p{:.1} over {} samples ({} beyond)",
        walls.len(),
        t.percentile,
        t.samples,
        t.beyond
    );
    out.work.insert("passes", walls.len() as f64);
    out.work.insert("jobs", all_ms.len() as f64);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert(
        "time_to_certified_s",
        cold_ms.iter().sum::<f64>() / cold_ms.len() as f64 / 1e3,
    );
    m.insert("cost", costs[0]);
    m.insert("heap_mb", median(&heaps));
    m.insert("jobs_per_s", median(&rates));
    m.insert("latency_p50_ms", median(&all_ms));
    m.insert("latency_tail_ms", t.value);
    out
}

/// Traced run: one untraced reference pass, one pass with a span per
/// request, the protocol codec on the stream's payloads, and each warm
/// job replayed through `warm_partition` beside a cold solve.
pub fn traced(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let stream = build_stream(s.seed, Some(&mut trace));
    out.metrics
        .insert("netlist.gen_s", trace.total("netlist.gen"));
    out.metrics
        .insert("netlist.parse_s", trace.total("netlist.parse"));

    let reference = run_pass(&stream, start_server());
    let ref_sum = summarize(&stream, &reference, &mut out, None);

    let server = start_server();
    let pass = run_pass(&stream, server);
    let run = trace.record_between("run", None, pass.start, pass.end);
    for sample in &pass.samples {
        let name = match stream.clients[sample.client][sample.job].class {
            Class::Cold => "request.cold",
            Class::Hit => "request.hit",
            Class::Warm => "request.warm",
        };
        trace.record_between(name, Some(run), sample.start, sample.end);
    }
    let sum = summarize(&stream, &pass, &mut out, Some(&mut trace));
    let st = pass.stats;
    out.check(
        sum.cost.to_bits() == ref_sum.cost.to_bits()
            && st.cache_hits == reference.stats.cache_hits
            && st.warm_starts == reference.stats.warm_starts,
        || "cost, cache hits or warm starts differ between two passes of one stream".into(),
    );

    let jobs = pass.samples.len() as f64;
    let m = &mut out.metrics;
    m.insert("cost", sum.cost);
    m.insert("server.overhead_ms_p50", median(&sum.overhead_ms));
    m.insert("server.cold_ms_p50", median(&sum.cold_ms));
    m.insert("server.hit_ms_p50", median(&sum.hit_ms));
    m.insert("server.warm_ms_p50", median(&sum.warm_ms));
    m.insert("server.cache_hits", st.cache_hits as f64);
    m.insert("server.hit_ratio", st.cache_hits as f64 / jobs);
    m.insert("server.warm_starts", st.warm_starts as f64);
    m.insert("server.retries", st.retries as f64);
    m.insert("server.shed", st.shed as f64);
    m.insert("server.failed", st.failed as f64);
    m.insert("server.panics_contained", st.panics_contained as f64);
    m.insert("certify_s", trace.total("certify"));
    m.insert(
        "trace.coverage",
        trace.child_coverage(run) / reference.wall(),
    );
    m.insert("trace.overhead_s", pass.wall() - reference.wall());

    codec(&stream, &pass, &mut out);
    replay_eco(&stream, &pass, &mut trace, &mut out);
    eprintln!("spans {}", trace.to_json());
    out
}

/// Median microseconds to encode one request of the stream (JSON plus
/// frame) and to decode one of its replies (parse plus `Reply::from_json`).
fn codec(stream: &Stream, pass: &Pass, out: &mut Outcome) {
    let mut encode_us = Vec::new();
    let mut frame = Vec::new();
    for job in stream.clients.iter().flatten() {
        frame.clear();
        let t = Instant::now();
        let payload = job.request.to_json().to_string();
        write_frame(&mut frame, payload.as_bytes()).expect("framing into memory cannot fail");
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut decode_us = Vec::new();
    for reply in pass.samples.iter().filter_map(|s| s.reply.as_ref().ok()) {
        let payload = reply.to_json().to_string();
        let t = Instant::now();
        let decoded = Json::parse(&payload)
            .map_err(|e| e.to_string())
            .and_then(|doc| Reply::from_json(&doc).map_err(|e| e.to_string()));
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(decoded.as_ref() == Ok(reply), || {
            "a reply does not survive its codec".into()
        });
    }
    out.metrics.insert("protocol.encode_us", median(&encode_us));
    out.metrics.insert("protocol.decode_us", median(&decode_us));
}

/// Replays each warm job as the server ran it: the prior job's cold
/// solve (Algorithm 1 by hand, with spans), then `warm_partition` from
/// its partition, beside a cold solve of the edited netlist.
fn replay_eco(stream: &Stream, pass: &Pass, trace: &mut Trace, out: &mut Outcome) {
    let params = PartitionerParams::default();
    let partitioner = FlowPartitioner::try_new(params).expect("default parameters are valid");
    let (mut touched, mut salvaged, mut warm_jobs) = (0usize, 0.0, 0usize);
    let mut cold_jobs = Vec::new();
    for sample in &pass.samples {
        let job = &stream.clients[sample.client][sample.job];
        let Some((prior_netlist, prior_seed)) = job.prior else {
            continue;
        };
        let (old, new) = (
            &stream.netlists[prior_netlist],
            &stream.netlists[job.netlist],
        );
        // The cold job the warm one edits, as a server worker solves it,
        // by hand: the metric and construction layers of serve-mix.
        let cold_job = trace.open("replay.cold_job", None);
        let driven = drive_algorithm1(&old.h, &old.spec, &params, prior_seed, trace, cold_job);
        trace.close(cold_job);
        let best = driven.best.as_ref().map(|(p, _)| p.clone());
        cold_jobs.push(driven);
        let Some(base) = best else {
            out.check(false, || "the replayed cold job found no partition".into());
            continue;
        };
        let lengths = SpreadingMetric::from_partition(&old.h, &old.spec, &base)
            .lengths()
            .to_vec();
        let report = htp_eco::diff(&old.h, &new.h);
        let span = trace.open("eco.warm", None);
        let warm = warm_partition(
            &new.h,
            &new.spec,
            &params,
            &WarmPolicy::default(),
            &base,
            &lengths,
            &report,
            &mut StdRng::seed_from_u64(job.seed),
            &htp_core::Budget::unlimited(),
        );
        trace.close(span);
        let span = trace.open("eco.cold", None);
        let cold = partitioner.run(&new.h, &new.spec, &mut StdRng::seed_from_u64(job.seed));
        trace.close(span);
        match (warm, cold) {
            (Ok(w), Ok(_)) => {
                let served = match &sample.reply {
                    Ok(Reply::Result(r)) => r.cost,
                    _ => f64::NAN,
                };
                out.check(cost_matches(w.cost, served), || {
                    format!("warm replay cost {} but served cost {served}", w.cost)
                });
                touched += report.touched_nodes.len();
                salvaged += w.salvage.salvaged_fraction(new.h.num_nodes());
                warm_jobs += 1;
            }
            (w, c) => out.check(false, || {
                format!("eco replay failed: warm {:?}, cold {:?}", w.err(), c.err())
            }),
        }
    }
    report_algorithm1(&cold_jobs, &params, trace, &mut out.metrics);
    let m = &mut out.metrics;
    m.insert("eco.warm_s", trace.total("eco.warm"));
    m.insert("eco.cold_s", trace.total("eco.cold"));
    m.insert("eco.touched_nodes", touched as f64);
    m.insert(
        "eco.salvaged_fraction",
        if warm_jobs > 0 {
            salvaged / warm_jobs as f64
        } else {
            0.0
        },
    );
}
