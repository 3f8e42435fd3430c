//! Scripted server-layer fault injection: worker panics, poisoned jobs,
//! forced budget expiry, cache corruption, and hostile frames. Run with
//! `--features fault-injection`.

#![cfg(feature = "fault-injection")]

use htp_netlist::gen::rent::{rent_circuit, RentParams};
use htp_netlist::io::hgr;
use htp_server::fault::ServerFaultPlan;
use htp_server::json::Json;
use htp_server::protocol::{read_frame, write_frame};
use htp_server::{Client, JobRequest, Reply, Request, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn netlist_text(nodes: usize, gen_seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let h = rent_circuit(
        RentParams {
            nodes,
            primary_inputs: (nodes / 16).max(1),
            locality: 0.8,
            ..RentParams::default()
        },
        &mut rng,
    );
    hgr::to_string(&h)
}

fn job(hgr_text: &str, seed: u64) -> Request {
    Request::Partition(Box::new(JobRequest {
        hgr: hgr_text.to_owned(),
        height: 3,
        seed,
        ..JobRequest::default()
    }))
}

fn serve_with(faults: ServerFaultPlan) -> Server {
    Server::serve(ServerConfig {
        faults,
        ..ServerConfig::default()
    })
    .expect("start the test server")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect to the test server")
}

#[test]
fn a_panicking_worker_never_kills_the_daemon() {
    let server = serve_with(ServerFaultPlan::new().panic_job(0));
    let hgr_text = netlist_text(240, 41);
    let mut client = connect(&server);

    let reply = client.request(&job(&hgr_text, 1)).unwrap();
    let Reply::Result(result) = reply else {
        panic!("expected a retried result, got {reply:?}");
    };
    assert_eq!(
        result.outcome, "complete",
        "the clean retry after a contained panic completes"
    );
    assert!(result.retried, "the panicked first attempt forced a retry");
    assert!(result.certified);

    // The daemon survived the panic and keeps serving.
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Reply::Pong
    ));
    let stats = server.stats();
    assert_eq!(stats.panics_contained, 1);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    let report = server.drain();
    assert!(!report.forced);
}

#[test]
fn a_poisoned_job_surfaces_as_a_typed_error() {
    let server = serve_with(ServerFaultPlan::new().poison_job(0));
    let hgr_text = netlist_text(240, 42);
    let mut client = connect(&server);

    let reply = client.request(&job(&hgr_text, 1)).unwrap();
    let Reply::Error { message } = reply else {
        panic!("expected a typed error, got {reply:?}");
    };
    assert!(
        message.contains("panicked"),
        "the error names the contained panic: {message}"
    );

    // Both attempts panicked; the daemon is unharmed.
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Reply::Pong
    ));
    let follow_up = client.request(&job(&hgr_text, 2)).unwrap();
    assert!(
        matches!(follow_up, Reply::Result(_)),
        "an unscripted job after the poisoned one runs fine"
    );
    let stats = server.stats();
    assert_eq!(stats.panics_contained, 2, "both attempts were contained");
    assert_eq!(stats.failed, 1);
    server.drain();
}

#[test]
fn cache_corruption_is_caught_by_recertification() {
    let server = serve_with(ServerFaultPlan::new().corrupt_cache_entry_of(0));
    let hgr_text = netlist_text(240, 43);
    let mut client = connect(&server);

    let first = client.request(&job(&hgr_text, 1)).unwrap();
    assert!(matches!(first, Reply::Result(ref r) if !r.cached));

    // The entry job 0 wrote was corrupted in place; the duplicate must
    // recompute instead of serving the rotten entry.
    let second = client.request(&job(&hgr_text, 1)).unwrap();
    let Reply::Result(second) = second else {
        panic!("expected a result");
    };
    assert!(
        !second.cached,
        "a corrupt cache entry is recomputed, never served"
    );
    assert!(second.certified);

    // The recomputation (admission seq 1) wrote a clean entry.
    let third = client.request(&job(&hgr_text, 1)).unwrap();
    let Reply::Result(third) = third else {
        panic!("expected a result");
    };
    assert!(third.cached, "the recomputed entry serves cleanly");

    let stats = server.stats();
    assert_eq!(stats.cache_corruptions, 1);
    assert_eq!(stats.cache_hits, 1);
    server.drain();
}

#[test]
fn forced_expiry_degrades_then_the_retry_completes() {
    let server = serve_with(ServerFaultPlan::new().expire_job(0));
    let hgr_text = netlist_text(240, 44);
    let mut client = connect(&server);

    let reply = client.request(&job(&hgr_text, 1)).unwrap();
    let Reply::Result(result) = reply else {
        panic!("expected a result, got {reply:?}");
    };
    assert_eq!(
        result.outcome, "complete",
        "the unexpired retry recovers a complete result"
    );
    assert!(
        result.retried,
        "the force-expired first attempt triggered a retry"
    );
    assert!(result.certified);

    let stats = server.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.degraded, 0, "the better attempt wins");
    server.drain();
}

#[test]
fn a_json_nesting_bomb_is_a_typed_error_and_the_daemon_keeps_serving() {
    let server = serve_with(ServerFaultPlan::new());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // 100 KB of `[`: far under the frame cap, deep enough to overflow a
    // thread stack in an uncapped recursive parser.
    write_frame(&mut stream, "[".repeat(100_000).as_bytes()).unwrap();
    let frame = read_frame(&mut stream).unwrap();
    let doc = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    let reply = Reply::from_json(&doc).unwrap();
    let Reply::Error { message } = reply else {
        panic!("expected a typed error, got {reply:?}");
    };
    assert!(message.contains("nest too deeply"), "{message}");

    // The same connection and a fresh one are both still served.
    write_frame(&mut stream, Request::Ping.to_json().to_string().as_bytes()).unwrap();
    let pong = Json::parse(std::str::from_utf8(&read_frame(&mut stream).unwrap()).unwrap());
    assert!(matches!(Reply::from_json(&pong.unwrap()), Ok(Reply::Pong)));
    assert!(matches!(
        connect(&server).request(&Request::Ping).unwrap(),
        Reply::Pong
    ));
    let report = server.drain();
    assert!(!report.forced);
}
