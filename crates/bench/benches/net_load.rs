//! Closed-loop load harness for the TCP front-end, emitting
//! `BENCH_net.json` at the workspace root.
//!
//! Three measurements against a warm [`ReleaseService`]:
//!
//! * **warm_service** — the in-process reference: the same requests
//!   submitted directly to the service (no sockets), giving the ceiling the
//!   wire is judged against.
//! * **wire** — K concurrent connections, each a closed loop keeping
//!   `PIPELINE` requests in flight over a real `127.0.0.1` socket. Every
//!   request carries a distinct user id drawn by SplitMix64 from a
//!   10-million-user identity space, so the budget accountant sees the
//!   population a public endpoint would. Per-request latency (send →
//!   matching response, matched by sequence number) feeds an HDR-style
//!   histogram for p50/p95/p99/p999.
//! * **overload** — a deliberately tiny admission queue under a deep
//!   pipeline: the server must shed load as typed `BUSY` frames, never
//!   hang, and serve normally afterwards.
//!
//! In-bench assertions: all percentiles non-zero, zero BUSY in the
//! throughput runs, BUSY > 0 in the overload run, and aggregate wire
//! throughput within 4× of the in-process row (the protocol tax must stay
//! bounded).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{MqmApproxOptions, Parallelism, PrivacyBudget};
use pufferfish_datasets::StreamWorkload;
use pufferfish_markov::{IntervalClassBuilder, MarkovChain};
use pufferfish_net::{
    ClientError, Frame, LatencyHistogram, NetClient, NetServer, NetServerConfig, WireQuery,
};
use pufferfish_service::{ReleaseRequest, ReleaseService, ServiceConfig};

/// Chain/database length: short enough that releases (not calibration)
/// dominate, matching the serving regime.
const CHAIN_LENGTH: usize = 60;
/// Per-release ε.
const EPSILON: f64 = 0.1;
/// Requests per connection in each wire sample.
const REQUESTS_PER_CONNECTION: usize = 10_000;
/// In-flight requests per connection (closed loop refills to this depth).
const PIPELINE: usize = 32;
/// Requests for the in-process reference row.
const INPROCESS_REQUESTS: usize = 20_000;
/// The simulated identity space user ids are drawn from.
const USER_SPACE: u64 = 10_000_000;
/// Distinct databases cycled through by the generators.
const DATABASE_POOL: usize = 256;

fn engine() -> Arc<ReleaseEngine> {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    ReleaseEngine::shared(MqmApproxCalibrator::new(
        class,
        CHAIN_LENGTH,
        MqmApproxOptions::default(),
    ))
}

fn warm_service(queue_capacity: usize, workers: usize) -> Arc<ReleaseService> {
    let engine = engine();
    // Pre-warm the single class-scoped calibration so every measured
    // request is a cache hit.
    engine
        .mechanism(
            &StateFrequencyQuery::new(1, CHAIN_LENGTH),
            PrivacyBudget::new(EPSILON).unwrap(),
        )
        .unwrap();
    Arc::new(
        ReleaseService::start(
            engine,
            ServiceConfig {
                workers: Parallelism::Threads(workers),
                queue_capacity,
                per_user_epsilon: 1e9,
            },
        )
        .unwrap(),
    )
}

fn wire_query() -> WireQuery {
    WireQuery::StateFrequency {
        state: 1,
        length: CHAIN_LENGTH as u32,
    }
}

fn database_pool(workload: &StreamWorkload) -> Vec<Vec<usize>> {
    workload
        .generate(DATABASE_POOL as u64, CHAIN_LENGTH)
        .unwrap()
}

fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1_000.0
}

fn demo_chain() -> MarkovChain {
    MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap()
}

/// The in-process ceiling: `INPROCESS_REQUESTS` through the service from 4
/// submitter threads, no sockets.
fn bench_inprocess(json: &mut Vec<String>) -> f64 {
    let service = warm_service(1024, worker_count());
    let workload = StreamWorkload::new(demo_chain(), 42);
    let databases = Arc::new(database_pool(&workload));

    let submitters = 4;
    let per_submitter = INPROCESS_REQUESTS / submitters;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for submitter in 0..submitters {
            let service = &service;
            let databases = Arc::clone(&databases);
            let workload = &workload;
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(PIPELINE);
                for i in 0..per_submitter {
                    let counter = (submitter * per_submitter + i) as u64;
                    let user = workload.user_seed(counter) % USER_SPACE;
                    let request = ReleaseRequest {
                        user: format!("load#{user:x}"),
                        query: Arc::new(StateFrequencyQuery::new(1, CHAIN_LENGTH)),
                        database: databases[counter as usize % DATABASE_POOL].clone(),
                        epsilon: EPSILON,
                        seed: counter,
                    };
                    tickets.push(service.submit(request).unwrap());
                    if tickets.len() == PIPELINE {
                        for ticket in tickets.drain(..) {
                            ticket.wait().unwrap();
                        }
                    }
                }
                for ticket in tickets {
                    ticket.wait().unwrap();
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let requests = per_submitter * submitters;
    let rps = requests as f64 / seconds;
    println!(
        "in-process   {submitters} submitters: {rps:>12.0} req/s \
         ({requests} requests in {seconds:.3}s)"
    );
    json.push(format!(
        "  \"warm_service\": {{\"submitters\": {submitters}, \"requests\": {requests}, \
         \"seconds\": {seconds:.6}, \"requests_per_sec\": {rps:.0}}}"
    ));
    rps
}

struct ConnectionOutcome {
    histogram: LatencyHistogram,
    busy: u64,
    completed: u64,
}

/// One closed-loop connection: keep `pipeline` requests in flight until
/// `requests` have been answered, recording send→response latency per
/// sequence number.
fn drive_connection(
    addr: std::net::SocketAddr,
    connection: usize,
    requests: usize,
    pipeline: usize,
    workload: &StreamWorkload,
    databases: &[Vec<usize>],
) -> ConnectionOutcome {
    let mut client = NetClient::connect(addr, &format!("load-{connection}")).unwrap();
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut histogram = LatencyHistogram::new();
    let mut busy = 0u64;
    let mut completed = 0u64;
    let mut sent = 0usize;
    // Disjoint counter ranges per connection: every request across the
    // whole run names a distinct position in the identity space.
    let mut counter = (connection * requests) as u64;

    while (completed as usize) < requests {
        while sent < requests && in_flight.len() < pipeline {
            let user = workload.user_seed(counter) % USER_SPACE;
            let database = &databases[counter as usize % databases.len()];
            let frame = Frame::release(user, wire_query(), database, EPSILON, counter).unwrap();
            let seq = client.send(frame).unwrap();
            in_flight.insert(seq, Instant::now());
            counter += 1;
            sent += 1;
        }
        let envelope = client.recv().unwrap();
        let sent_at = in_flight
            .remove(&envelope.seq)
            .expect("response for a sequence number never sent");
        match envelope.frame {
            Frame::ReleaseOk { values, .. } => {
                assert_eq!(values.len(), 1);
                histogram.record(sent_at.elapsed().as_nanos() as u64);
            }
            Frame::Busy { .. } => busy += 1,
            other => panic!("unexpected frame under load: {other:?}"),
        }
        completed += 1;
    }
    client.goodbye().unwrap();
    ConnectionOutcome {
        histogram,
        busy,
        completed,
    }
}

/// The wire phase at one connection count. Returns the aggregate req/s.
fn bench_wire(connections: usize, rows: &mut Vec<String>) -> f64 {
    let service = warm_service(2048, worker_count());
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_pipeline: PIPELINE * 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let workload = StreamWorkload::new(demo_chain(), 42);
    let databases = database_pool(&workload);

    let start = Instant::now();
    let outcomes: Vec<ConnectionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|connection| {
                let workload = &workload;
                let databases = &databases;
                scope.spawn(move || {
                    drive_connection(
                        addr,
                        connection,
                        REQUESTS_PER_CONNECTION,
                        PIPELINE,
                        workload,
                        databases,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let seconds = start.elapsed().as_secs_f64();

    let mut histogram = LatencyHistogram::new();
    let mut busy = 0u64;
    let mut completed = 0u64;
    for outcome in &outcomes {
        histogram.merge(&outcome.histogram);
        busy += outcome.busy;
        completed += outcome.completed;
    }
    let requests = connections * REQUESTS_PER_CONNECTION;
    assert_eq!(completed, requests as u64);
    assert_eq!(
        busy, 0,
        "throughput runs are sized under the queue capacity; BUSY means the sizing broke"
    );
    assert_eq!(histogram.count(), requests as u64);

    let stats = service.stats();
    assert!(
        stats.users as f64 >= 0.9 * requests as f64,
        "SplitMix64 identities must be almost all distinct, saw {} users for {requests} requests",
        stats.users
    );

    let rps = requests as f64 / seconds;
    let (p50, p95, p99, p999) = (
        histogram.percentile(50.0),
        histogram.percentile(95.0),
        histogram.percentile(99.0),
        histogram.percentile(99.9),
    );
    assert!(p50 > 0 && p95 >= p50 && p99 >= p95 && p999 >= p99);
    println!(
        "wire {connections:>2} conn x {REQUESTS_PER_CONNECTION} req (pipeline {PIPELINE}): \
         {rps:>10.0} req/s | p50 {:>8.1}us p95 {:>8.1}us p99 {:>8.1}us p999 {:>8.1}us | {} users",
        micros(p50),
        micros(p95),
        micros(p99),
        micros(p999),
        stats.users,
    );
    rows.push(format!(
        "    {{\"connections\": {connections}, \"pipeline\": {PIPELINE}, \"requests\": {requests}, \
         \"seconds\": {seconds:.6}, \"requests_per_sec\": {rps:.0}, \"busy\": {busy}, \
         \"distinct_users\": {}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \
         \"p999_us\": {:.1}, \"max_us\": {:.1}, \"mean_us\": {:.1}}}",
        stats.users,
        micros(p50),
        micros(p95),
        micros(p99),
        micros(p999),
        micros(histogram.max()),
        histogram.mean() / 1_000.0,
    ));
    server.shutdown();
    rps
}

/// The overload phase: queue capacity 8, one worker, pipeline 128. The
/// server must answer everything (mostly BUSY), then serve normally.
fn bench_overload(json: &mut Vec<String>) {
    let service = warm_service(8, 1);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_pipeline: 128,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let workload = StreamWorkload::new(demo_chain(), 43);
    let databases = database_pool(&workload);

    let requests = 4_000;
    let start = Instant::now();
    let outcome = drive_connection(server.local_addr(), 0, requests, 128, &workload, &databases);
    let seconds = start.elapsed().as_secs_f64();

    assert_eq!(outcome.completed, requests as u64);
    assert!(
        outcome.busy > 0,
        "an 8-deep queue under a 128-deep pipeline must refuse some requests"
    );
    let ok = outcome.completed - outcome.busy;
    assert!(ok > 0, "admission control must not starve everything");

    // Health check: a fresh connection gets an ordinary release afterwards.
    let mut after = NetClient::connect(server.local_addr(), "after-overload").unwrap();
    match after.release(1, wire_query(), &databases[0], EPSILON, 7) {
        Ok((scale, values)) => {
            assert!(scale > 0.0);
            assert_eq!(values.len(), 1);
        }
        Err(ClientError::Busy { .. }) => {
            // The drain of the overload burst may still be in flight; BUSY
            // here is legitimate back-pressure, not ill health.
        }
        Err(other) => panic!("server unhealthy after overload: {other:?}"),
    }
    after.goodbye().unwrap();

    let busy_rate = outcome.busy as f64 / requests as f64;
    println!(
        "overload: {requests} requests, {ok} served, {} busy ({:.1}% shed) in {seconds:.3}s",
        outcome.busy,
        busy_rate * 100.0
    );
    json.push(format!(
        "  \"overload\": {{\"queue_capacity\": 8, \"workers\": 1, \"pipeline\": 128, \
         \"requests\": {requests}, \"served\": {ok}, \"busy\": {}, \"busy_rate\": {busy_rate:.4}, \
         \"seconds\": {seconds:.6}}}",
        outcome.busy
    ));
    server.shutdown();
}

fn main() {
    println!("== net_load ==");
    let mut json: Vec<String> = vec![
        "  \"bench\": \"net_load\"".to_string(),
        format!(
            "  \"config\": {{\"mechanism\": \"mqm-approx\", \"chain_length\": {CHAIN_LENGTH}, \
             \"epsilon\": {EPSILON}, \"pipeline\": {PIPELINE}, \
             \"requests_per_connection\": {REQUESTS_PER_CONNECTION}, \"user_space\": {USER_SPACE}, \
             \"workers\": {}, \"host_parallelism\": {}}}",
            worker_count(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        ),
    ];

    let inprocess_rps = bench_inprocess(&mut json);

    let mut rows = Vec::new();
    let mut best_wire_rps: f64 = 0.0;
    for connections in [1usize, 4] {
        best_wire_rps = best_wire_rps.max(bench_wire(connections, &mut rows));
    }
    json.push(format!("  \"wire\": [\n{}\n  ]", rows.join(",\n")));

    bench_overload(&mut json);

    let ratio = inprocess_rps / best_wire_rps;
    assert!(
        ratio <= 4.0,
        "wire throughput must stay within 4x of in-process \
         (in-process {inprocess_rps:.0} req/s, wire {best_wire_rps:.0} req/s, ratio {ratio:.2})"
    );
    println!(
        "wire vs in-process: {best_wire_rps:.0} vs {inprocess_rps:.0} req/s \
         (ratio {ratio:.2}, max 4.0)"
    );
    json.push(format!(
        "  \"wire_vs_inprocess\": {{\"inprocess_rps\": {inprocess_rps:.0}, \
         \"wire_rps\": {best_wire_rps:.0}, \"ratio\": {ratio:.3}, \"max_allowed\": 4.0}}"
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    let contents = format!("{{\n{}\n}}\n", json.join(",\n"));
    std::fs::write(path, &contents).expect("failed to write BENCH_net.json");
    println!("wrote {path}");
}
