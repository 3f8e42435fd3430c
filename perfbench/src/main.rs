//! The repository's benchmark: time to a certified hierarchical tree
//! partition, on three workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! measures for about `--seconds` seconds and reports the end-to-end
//! metrics; with `--trace 1` it runs the workload once with a span
//! around every call into a layer and reports the per-layer metrics.
//! Every partition is checked by `htp_verify::certify`. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any output failed its checks. See `README.md` beside this crate.

mod engine;
mod machine;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use htp_server::json::{obj, Json};

use crate::engine::Kind;
use crate::machine::CountingAlloc;
use crate::stats::Tally;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up runs at least this many times and for at least
/// [`SETUP_SECONDS`] in every run; the run reports the median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// Runs `setup` repeatedly (see [`SETUP_REPEATS`]), handing all but the
/// last result to `discard` outside the timed region. Returns the last
/// result and the median set-up time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        // Discard first, so peak memory holds one set of inputs.
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let last = last.expect("set-up ran at least once");
    (last, stats::median(&times))
}

/// End-to-end metrics, reported by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_to_certified_s", "s"),
    ("cost", "cost"),
    ("heap_mb", "MiB"),
    ("certified_share", "ratio"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, reported by every run with `--trace 1`. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.gen_s", "s"),
    ("netlist.parse_s", "s"),
    ("metric.s", "s"),
    ("metric.probe_s", "s"),
    ("metric.commit_s", "s"),
    ("metric.reprice_s", "s"),
    ("metric.rounds", "count"),
    ("metric.probes", "count"),
    ("metric.wasted_probes", "count"),
    ("metric.useful_probe_ratio", "ratio"),
    ("metric.dial_rounds", "count"),
    ("metric.heap_rounds", "count"),
    ("metric.converged", "flag"),
    ("metric.t2_speedup", "ratio"),
    ("construct.s", "s"),
    ("construct.calls", "count"),
    ("construct.no_feasible_cut", "count"),
    ("vcycle.levels", "count"),
    ("vcycle.coarsest_nodes", "count"),
    ("vcycle.precheck_rejected", "count"),
    ("vcycle.backoff_popped", "count"),
    ("vcycle.coarsen_s", "s"),
    ("vcycle.solve_s", "s"),
    ("vcycle.refine_s", "s"),
    ("coarsen.merged_nets", "count"),
    ("coarsen.dropped_nets", "count"),
    ("coarsen.frozen_fillers", "count"),
    ("refine.flow_s", "s"),
    ("refine.flow.pairs_tried", "count"),
    ("refine.flow.pairs_accepted", "count"),
    ("refine.flow.pairs_skipped", "count"),
    ("refine.flow.accept_ratio", "ratio"),
    ("refine.flow.moved_nodes", "count"),
    ("refine.flow.gain", "cost"),
    ("refine.hfm_s", "s"),
    ("refine.hfm.levels_run", "count"),
    ("refine.hfm.levels_improved", "count"),
    ("refine.hfm.gain", "cost"),
    ("certify_s", "s"),
    ("server.overhead_ms_p50", "ms"),
    ("server.cold_ms_p50", "ms"),
    ("server.hit_ms_p50", "ms"),
    ("server.warm_ms_p50", "ms"),
    ("server.cache_hits", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.warm_starts", "count"),
    ("server.retries", "count"),
    ("server.shed", "count"),
    ("server.failed", "count"),
    ("server.panics_contained", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("eco.warm_s", "s"),
    ("eco.cold_s", "s"),
    ("eco.touched_nodes", "count"),
    ("eco.salvaged_fraction", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

pub type Report = BTreeMap<&'static str, f64>;

/// Command-line settings of one run.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
}

/// What one run measured and whether its outputs held up.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Report,
    pub tally: Tally,
    /// Failed self-checks (replay or determinism mismatches).
    pub mismatches: Vec<String>,
    /// Counters of the work the run did (jobs, probes, …), printed in
    /// the fingerprint: beside its calibration they tell a slow host
    /// from more work.
    pub work: Report,
}

impl Outcome {
    /// Records a self-check; `what` describes the mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("MISMATCH: {what}");
            self.mismatches.push(what);
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Workload {
    Engine(Kind),
    ServeMix,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "vcycle-rent" => Workload::Engine(Kind::VCycleRent),
        "flat-rent" => Workload::Engine(Kind::FlatRent),
        "serve-mix" => Workload::ServeMix,
        _ => return None,
    })
}

struct Args {
    workload: Workload,
    settings: Settings,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        settings: Settings { seed, seconds },
        trace,
    })
}

/// The result line: every declared metric of the run's kind, with units.
fn result_line(out: &Outcome, declared: &[(&str, &str)]) -> (Json, bool) {
    let mut finite = true;
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                eprintln!("MISSING: metric {name} was not measured");
                finite = false;
            }
            (
                name.to_owned(),
                obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let correct =
        finite && out.tally.attempted > 0 && out.tally.failed == 0 && out.mismatches.is_empty();
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.tally.attempted as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    (line, correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <vcycle-rent|flat-rent|serve-mix> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let fingerprint = machine::Fingerprint::start();
    let s = &args.settings;
    let mut out = match (args.workload, args.trace) {
        (Workload::Engine(kind), false) => engine::measure(kind, s),
        (Workload::Engine(kind), true) => engine::traced(kind, s),
        (Workload::ServeMix, false) => serve::measure(s),
        (Workload::ServeMix, true) => serve::traced(s),
    };
    let declared = if args.trace {
        // Layers this workload bypasses did no work.
        for &(name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
        PER_LAYER
    } else {
        out.metrics
            .insert("certified_share", 1.0 - out.tally.failed_share());
        END_TO_END
    };
    println!(
        "{}",
        obj(vec![("fingerprint", fingerprint.finish(&out.work))])
    );
    let (line, correct) = result_line(&out, declared);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            let declared: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload flat-rent --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(a.trace);
        assert_eq!((a.settings.seed, a.settings.seconds), (7, 10.0));
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload flat-rent --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload flat-rent --seed 7 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--workload flat-rent --seconds 5 --trace 0")).is_err());
    }
}
