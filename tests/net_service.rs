//! End-to-end socket tests for the TCP front-end.
//!
//! The contracts pinned here, each over real `127.0.0.1` connections:
//!
//! * **Determinism survives the wire**: concurrent clients on separate
//!   connections issuing the identical `(user, query, ε, seed, database)`
//!   release get bitwise-identical noisy answers — and exactly the answer
//!   the in-process service gives for the same scoped identity.
//! * **Budget enforcement is typed**: exhausting a user's ε over the wire
//!   yields a `BUDGET_EXHAUSTED{requested, remaining}` frame, budgets are
//!   tenant-scoped (the same numeric user id under two tenants spends two
//!   budgets), and the spend survives reconnects.
//! * **Overload is typed and survivable**: a tiny admission queue under a
//!   deep pipeline produces `BUSY` frames, never hangs, and the server
//!   serves normally afterwards.
//! * **Adversarial bytes are contained**: garbage on one connection gets a
//!   typed error and a close, while the listener keeps serving others; the
//!   connection cap refuses with a typed frame; shutdown drains in-flight
//!   releases, with one deadline per connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pufferfish_core::engine::{FnCalibrator, MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::{Mechanism, MqmApprox, MqmApproxOptions, Parallelism};
use pufferfish_markov::IntervalClassBuilder;
use pufferfish_net::{
    decode, encode, ClientError, Envelope, ErrorCode, Frame, NetClient, NetServer, NetServerConfig,
    ProgressiveEndpoint, QueryEndpoint, TelemetryOptions, WireMetricValue, WireQuery,
    DEFAULT_MAX_FRAME_LEN,
};
use pufferfish_query::{MechanismCatalog, QueryService, QueryServiceConfig, Table};
use pufferfish_service::{
    audit_ledger, ProgressiveRelease, RefinementSchedule, RefinementStep, ReleaseRequest,
    ReleaseService, ServiceConfig, StreamBackend,
};
use pufferfish_telemetry::{EpsilonLedger, FlightRecorder};

const LENGTH: usize = 60;

fn engine() -> Arc<ReleaseEngine> {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    ReleaseEngine::shared(MqmApproxCalibrator::new(
        class,
        LENGTH,
        MqmApproxOptions::default(),
    ))
}

fn service(queue_capacity: usize, workers: usize, per_user_epsilon: f64) -> Arc<ReleaseService> {
    Arc::new(
        ReleaseService::start(
            engine(),
            ServiceConfig {
                workers: Parallelism::Threads(workers),
                queue_capacity,
                per_user_epsilon,
            },
        )
        .unwrap(),
    )
}

fn database(seed: usize) -> Vec<usize> {
    (0..LENGTH).map(|t| (t * 7 + seed) % 13 % 2).collect()
}

fn test_query() -> WireQuery {
    WireQuery::StateFrequency {
        state: 1,
        length: LENGTH as u32,
    }
}

#[test]
fn concurrent_connections_get_bitwise_deterministic_releases() {
    let service = service(64, 4, 100.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let db = database(3);

    // The ground truth: the identical request through the in-process path,
    // under the exact scoped identity the wire assigns ("tenant#user-hex").
    let reference = service
        .try_submit(ReleaseRequest {
            user: "det#2a".to_string(),
            query: test_query().build().unwrap(),
            database: db.clone(),
            epsilon: 0.25,
            seed: 777,
        })
        .unwrap()
        .wait()
        .unwrap();

    let answers: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let db = db.clone();
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr, "det").unwrap();
                    let (scale, values) =
                        client.release(0x2a, test_query(), &db, 0.25, 777).unwrap();
                    assert!(scale > 0.0);
                    client.goodbye().unwrap();
                    values.iter().map(|v| v.to_bits()).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let expected: Vec<u64> = reference.values.iter().map(|v| v.to_bits()).collect();
    for answer in &answers {
        assert_eq!(
            answer, &expected,
            "a wire release diverged from the in-process release"
        );
    }
    assert_eq!(server.total_connections(), 6);
    server.shutdown();
}

#[test]
fn pipelined_requests_complete_out_of_order_but_all_complete() {
    let service = service(256, 4, 1000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "pipe").unwrap();

    // 40 requests in flight before the first recv: more than the release
    // worker count, so completion order is up to the scheduler.
    let db = database(5);
    let mut expected: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for i in 0..40u64 {
        let frame = Frame::release(i, test_query(), &db, 0.1, 1000 + i).unwrap();
        let seq = client.send(frame).unwrap();
        expected.insert(seq, i);
    }
    for _ in 0..40 {
        let Envelope { seq, frame } = client.recv().unwrap();
        let user = expected.remove(&seq).expect("unknown or duplicate seq");
        match frame {
            Frame::ReleaseOk { values, .. } => assert_eq!(values.len(), 1),
            other => panic!("user {user} got {other:?}"),
        }
    }
    assert!(expected.is_empty(), "every request answered exactly once");
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn budget_exhaustion_over_the_wire_is_typed_and_tenant_scoped() {
    // ε = 0.5 per user: two 0.2-releases fit, the third does not.
    let service = service(64, 2, 0.5);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let db = database(1);

    let mut client = NetClient::connect(server.local_addr(), "alpha").unwrap();
    for seed in 0..2 {
        client.release(9, test_query(), &db, 0.2, seed).unwrap();
    }
    match client.release(9, test_query(), &db, 0.2, 3) {
        Err(ClientError::BudgetExhausted {
            requested,
            remaining,
        }) => {
            assert_eq!(requested, 0.2);
            assert!(remaining < 0.2, "remaining was {remaining}");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // A different user under the same tenant still has a full budget...
    client.release(10, test_query(), &db, 0.2, 4).unwrap();
    client.goodbye().unwrap();

    // ...and the same numeric user id under a *different* tenant does too:
    // the tenant prefix is what the accountant charges.
    let mut other = NetClient::connect(server.local_addr(), "beta").unwrap();
    other.release(9, test_query(), &db, 0.2, 5).unwrap();
    other.goodbye().unwrap();

    // The spend is server-side state: reconnecting as the exhausted tenant
    // does not refresh the budget.
    let mut back = NetClient::connect(server.local_addr(), "alpha").unwrap();
    assert!(matches!(
        back.release(9, test_query(), &db, 0.2, 6),
        Err(ClientError::BudgetExhausted { .. })
    ));
    back.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn overload_returns_busy_and_the_server_stays_healthy() {
    // One slow worker behind a 2-deep queue, hammered by a deep pipeline:
    // some requests must be refused as BUSY, none may hang, and the server
    // must serve normally afterwards.
    let service = service(2, 1, 10_000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_pipeline: 256,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let db = database(9);

    let mut client = NetClient::connect(server.local_addr(), "storm").unwrap();
    let mut seqs = Vec::new();
    for i in 0..120u64 {
        seqs.push(
            client
                .send(Frame::release(i, test_query(), &db, 0.01, i).unwrap())
                .unwrap(),
        );
    }
    let mut ok = 0u64;
    let mut busy = 0u64;
    for _ in 0..seqs.len() {
        match client.recv().unwrap().frame {
            Frame::ReleaseOk { .. } => ok += 1,
            Frame::Busy { retry_hint_ms } => {
                busy += 1;
                assert!(retry_hint_ms >= 1);
            }
            other => panic!("unexpected overload response {other:?}"),
        }
    }
    assert!(
        busy > 0,
        "a 2-deep queue under 120 pipelined requests must refuse some"
    );
    assert!(ok > 0, "admission control must not starve everything");
    client.goodbye().unwrap();

    // Health check: a fresh connection serves normally, and the refusals
    // are visible in the STATS frame.
    let mut after = NetClient::connect(server.local_addr(), "after").unwrap();
    after.release(1, test_query(), &db, 0.01, 42).unwrap();
    let stats = after.stats().unwrap();
    assert!(stats.queue_refusals > 0, "refusals must surface in STATS");
    assert!(stats.served >= ok);
    after.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn busy_refusals_do_not_charge_the_budget() {
    // Budget admits exactly 50 ε=0.1 releases. Push 50 through an overload
    // that BUSY-refuses many; every refusal must roll its spend back, so
    // retrying eventually lands all 50.
    let service = service(1, 1, 5.0 + 1e-9);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let db = database(2);
    let mut client = NetClient::connect(server.local_addr(), "refund").unwrap();
    let mut landed = 0u64;
    let mut attempts = 0u64;
    while landed < 50 {
        attempts += 1;
        assert!(attempts < 50_000, "refusals must not leak budget");
        match client.release(7, test_query(), &db, 0.1, landed) {
            Ok(_) => landed += 1,
            Err(ClientError::Busy { .. }) => {
                std::thread::sleep(std::time::Duration::from_micros(200))
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    // The 51st must fail on budget, not on queue state.
    match client.release(7, test_query(), &db, 0.1, 999) {
        Err(ClientError::BudgetExhausted { .. }) => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn query_frames_execute_and_miss_typed() {
    let class = IntervalClassBuilder::symmetric(0.45)
        .grid_points(2)
        .build()
        .unwrap();
    let query_service = QueryService::start(
        MechanismCatalog::new(class),
        QueryServiceConfig {
            per_user_epsilon: 10.0,
            parallelism: Parallelism::Threads(2),
        },
    )
    .unwrap();
    let mut endpoint = QueryEndpoint::new(query_service);
    endpoint.register_table(Table::single("sensor", 2, database(4)).unwrap());

    let service = service(64, 2, 10.0);
    let server = NetServer::bind_with_query(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        endpoint,
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "q").unwrap();

    let statement = "HISTOGRAM WINDOW 30 EPSILON 0.2 MECHANISM MQM_APPROX";
    let result = client.query(5, "sensor", statement, 11).unwrap();
    assert!(!result.cells.is_empty());
    assert!(result.noise_scale > 0.0);
    assert!(result.total_epsilon > 0.0);
    for cell in &result.cells {
        assert!(!cell.windows.is_empty());
        for window in &cell.windows {
            assert_eq!(window.values.len(), 2, "histogram over 2 states");
        }
    }
    // Identical query, identical seed: bitwise-identical over the wire.
    let again = client.query(6, "sensor", statement, 11).unwrap();
    assert_eq!(
        result.cells[0].windows[0]
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        again.cells[0].windows[0]
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );

    // Typed misses: unknown table, unparsable statement.
    match client.query(5, "nope", statement, 1) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::TableNotFound),
        other => panic!("expected TableNotFound, got {other:?}"),
    }
    match client.query(5, "sensor", "FROBNICATE EVERYTHING", 1) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Parse),
        other => panic!("expected Parse, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn progressive_streams_interleave_with_pipelined_traffic_and_charge_per_refinement() {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let service = service(64, 2, 100.0);
    let server = NetServer::bind_full(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        None,
        Some(ProgressiveEndpoint::new(
            class.clone(),
            StreamBackend::MqmApprox,
        )),
        NetServerConfig::default(),
        None,
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "prog").unwrap();

    let window = 16usize;
    let steps = [(8usize, 0.5f64, 4.0f64), (16, 0.5, 2.0)];
    let stream_db: Vec<usize> = (0..window).map(|t| (t * 5 + 1) % 7 % 2).collect();
    let release_db = database(3);

    // One PROGRESSIVE in the middle of ordinary pipelined RELEASE traffic,
    // all in flight before the first recv: its refinements must stream back
    // seq-correlated and in step order, interleaved however completion
    // order falls with the surrounding RELEASE_OK frames.
    let mut release_seqs = std::collections::HashSet::new();
    for i in 0..4u64 {
        release_seqs.insert(
            client
                .send(Frame::release(i, test_query(), &release_db, 0.1, i).unwrap())
                .unwrap(),
        );
    }
    let prog_seq = client
        .send(Frame::progressive(9, 0.9, 42, &steps, &stream_db).unwrap())
        .unwrap();
    for i in 4..8u64 {
        release_seqs.insert(
            client
                .send(Frame::release(i, test_query(), &release_db, 0.1, i).unwrap())
                .unwrap(),
        );
    }

    let mut refinements: Vec<(u32, u32, f64, Vec<f64>)> = Vec::new();
    let mut releases = 0usize;
    while releases < 8 || refinements.len() < steps.len() {
        let Envelope { seq, frame } = client.recv().unwrap();
        match frame {
            Frame::ReleaseOk { .. } => {
                assert!(release_seqs.remove(&seq), "unknown release seq {seq}");
                releases += 1;
            }
            Frame::RefineOk {
                step,
                total_steps,
                prefix,
                spent_epsilon,
                values,
                ..
            } => {
                assert_eq!(seq, prog_seq, "refinements correlate by request seq");
                assert_eq!(total_steps, steps.len() as u32);
                refinements.push((step, prefix, spent_epsilon, values));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(release_seqs.is_empty());

    // Step order and prefixes are the schedule's, ε-spend is monotone and
    // settles on the schedule's sum — charged per refinement against the
    // *tenant-scoped* budget the connection proved.
    assert_eq!(
        refinements.iter().map(|r| r.0).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert_eq!(
        refinements.iter().map(|r| r.1).collect::<Vec<_>>(),
        vec![8, 16]
    );
    assert!(refinements[0].2 < refinements[1].2, "ε-spend is monotone");
    let schedule = RefinementSchedule::new(
        steps
            .iter()
            .map(|&(prefix, epsilon, error_bound)| RefinementStep {
                prefix,
                epsilon,
                error_bound,
            })
            .collect(),
        0.9,
    )
    .unwrap();
    assert_eq!(
        refinements[1].2.to_bits(),
        schedule.total_epsilon().to_bits()
    );
    assert_eq!(
        service.budget().spent("prog#9").to_bits(),
        schedule.total_epsilon().to_bits(),
        "the stream's ε lands on the tenant-scoped user"
    );

    // The final refinement over the wire is bitwise-identical to the
    // in-process one-shot release at the same seed and total ε.
    let one_shot = ProgressiveRelease::one_shot(
        "net-progressive",
        &class,
        &schedule,
        StreamBackend::MqmApprox,
        42,
        &stream_db,
    )
    .unwrap();
    assert_eq!(
        refinements[1]
            .3
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        one_shot
            .release
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "a wire refinement diverged from the in-process release"
    );

    // The blocking client helper drives the same stream end to end, under
    // its own user — charged separately.
    let refined = client.progressive(11, 0.9, 43, &steps, &stream_db).unwrap();
    assert_eq!(refined.len(), steps.len());
    assert!(refined[0].certified_error > refined[1].certified_error);
    assert_eq!(
        service.budget().spent("prog#b").to_bits(),
        schedule.total_epsilon().to_bits()
    );

    // A schedule whose window disagrees with the shipped database is a
    // typed Malformed refusal, not a stream.
    match client.progressive(7, 0.9, 1, &steps, &stream_db[..10]) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // So is an empty schedule.
    match client.progressive(7, 0.9, 1, &[], &stream_db) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn progressive_without_an_endpoint_is_a_typed_refusal() {
    let service = service(16, 1, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "plain").unwrap();
    let db: Vec<usize> = (0..16).map(|t| t % 2).collect();
    match client.progressive(1, 0.9, 7, &[(8, 0.5, 2.0), (16, 0.5, 1.0)], &db) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("progressive"), "message was {message:?}");
        }
        other => panic!("expected a typed Unsupported refusal, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn malformed_bytes_get_a_typed_error_and_the_listener_survives() {
    let service = service(64, 2, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Raw garbage on a fresh socket (not even a length prefix that parses).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0x10, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef])
        .unwrap();
    raw.write_all(&[0u8; 16]).unwrap();
    raw.flush().unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap(); // server answers then closes
    let (envelope, _) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
    match envelope.frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a typed Malformed error, got {other:?}"),
    }

    // A valid frame that is not HELLO as the first frame: typed NotHello.
    let mut eager = TcpStream::connect(addr).unwrap();
    let stats = encode(
        &Envelope {
            seq: 4,
            frame: Frame::Stats,
        },
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    eager.write_all(&stats).unwrap();
    eager.flush().unwrap();
    let mut response = Vec::new();
    eager.read_to_end(&mut response).unwrap();
    let (envelope, _) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
    match envelope.frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::NotHello),
        other => panic!("expected NotHello, got {other:?}"),
    }

    // The listener shrugged it all off.
    let mut fine = NetClient::connect(addr, "fine").unwrap();
    fine.release(1, test_query(), &database(6), 0.1, 1).unwrap();
    fine.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_a_typed_frame() {
    let service = service(64, 2, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_connections: 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let held_a = NetClient::connect(addr, "a").unwrap();
    let held_b = NetClient::connect(addr, "b").unwrap();

    // The third connection is told why before the socket closes. The cap
    // check races the accept loop, so allow a few scheduling retries.
    let mut refused = false;
    for _ in 0..50 {
        if server.active_connections() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        }
        let mut extra = TcpStream::connect(addr).unwrap();
        let mut response = Vec::new();
        extra.read_to_end(&mut response).unwrap();
        if response.is_empty() {
            continue;
        }
        let (envelope, _) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
        match envelope.frame {
            Frame::Error { code, .. } => {
                assert_eq!(code, ErrorCode::TooManyConnections);
                refused = true;
                break;
            }
            other => panic!("expected TooManyConnections, got {other:?}"),
        }
    }
    assert!(refused, "the connection cap never refused");
    assert!(server.refused_connections() >= 1);

    // Freeing a slot re-admits new connections.
    held_a.goodbye().unwrap();
    for _ in 0..100 {
        if server.active_connections() < 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let readmitted = NetClient::connect(addr, "c").unwrap();
    readmitted.goodbye().unwrap();
    held_b.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn telemetry_server_exposes_metrics_traces_and_an_auditable_ledger() {
    let service = service(64, 2, 100.0);
    // Attach the ε-ledger before any traffic so the audit sees every event.
    let ledger = Arc::new(EpsilonLedger::new());
    service.budget().attach_ledger(Arc::clone(&ledger));

    let mut options = TelemetryOptions::new();
    // Threshold 0: every request is "slow", so the recorder captures all.
    options.recorder = Some(Arc::new(FlightRecorder::new(16, 0)));
    let recorder = options.recorder.clone().unwrap();
    let server = NetServer::bind_telemetry(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        None,
        NetServerConfig::default(),
        options,
    )
    .unwrap();
    let db = database(7);

    let mut client = NetClient::connect(server.local_addr(), "obs").unwrap();
    for seed in 0..3u64 {
        client.release(1, test_query(), &db, 0.2, seed).unwrap();
    }
    // One budget refusal must land in the ledger as a Refusal event.
    assert!(matches!(
        client.release(1, test_query(), &db, 1000.0, 9),
        Err(ClientError::BudgetExhausted { .. })
    ));

    let metrics = client.metrics().unwrap();
    let lines: Vec<String> = metrics.iter().map(|m| m.to_string()).collect();
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing from {lines:#?}"))
    };

    // Every layer reported into the one registry: net byte counters, the
    // six-stage span family, service admission counters, engine cache
    // counters.
    match find("net_rx_bytes_total").value {
        WireMetricValue::Counter(n) => assert!(n > 0, "rx bytes must count"),
        ref other => panic!("net_rx_bytes_total was {other:?}"),
    }
    match find("service_admitted_total").value {
        WireMetricValue::Counter(n) => assert_eq!(n, 3),
        ref other => panic!("service_admitted_total was {other:?}"),
    }
    match find("service_refused_total").value {
        WireMetricValue::Counter(n) => assert_eq!(n, 1),
        ref other => panic!("service_refused_total was {other:?}"),
    }
    for stage in [
        "stage_decode_ns",
        "stage_admission_ns",
        "stage_queue_wait_ns",
        "stage_engine_ns",
        "stage_mechanism_ns",
    ] {
        match find(stage).value {
            WireMetricValue::Histogram { count, .. } => {
                assert!(count >= 3, "{stage} saw {count} < 3 samples")
            }
            ref other => panic!("{stage} was {other:?}"),
        }
    }
    match find("engine_mqm_approx_releases_total").value {
        WireMetricValue::Counter(n) => assert_eq!(n, 3),
        ref other => panic!("releases_total was {other:?}"),
    }
    // The exposition lines render in the registry's canonical text format.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("stage_engine_ns histogram count=")),
        "missing exposition line in {lines:#?}"
    );

    // tx bytes only settle after the responses were written; the METRICS
    // response itself was answered, so the counter must be non-zero by now.
    let metrics_again = client.metrics().unwrap();
    let tx = metrics_again
        .iter()
        .find(|m| m.name == "net_tx_bytes_total")
        .unwrap();
    match tx.value {
        WireMetricValue::Counter(n) => assert!(n > 0, "tx bytes must count"),
        ref other => panic!("net_tx_bytes_total was {other:?}"),
    }

    // The flight recorder captured the wire-traced releases with a full
    // decode → encode breakdown.
    assert!(recorder.observed() >= 3);
    let reports = recorder.reports();
    assert!(!reports.is_empty());
    assert!(reports.iter().all(|r| r.to_string().contains("decode=")));

    // The ledger replays to bitwise equality with the live accountant:
    // 3 charges + 1 refusal, all tenant-scoped.
    let report = audit_ledger(&ledger.to_bytes(), service.budget()).unwrap();
    assert_eq!(report.events, 4);
    assert_eq!(report.per_user.len(), 1);
    assert!(report.per_user.contains_key("obs#1"));

    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn metrics_on_an_uninstrumented_server_is_a_typed_refusal() {
    let service = service(16, 1, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "plain").unwrap();
    match client.metrics() {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("telemetry"), "message was {message:?}");
        }
        other => panic!("expected a typed Unsupported refusal, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_releases() {
    let service = service(256, 2, 1000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "drain").unwrap();
    let db = database(8);

    // Pipeline a burst, then shut the server down while they are in flight.
    let mut outstanding = std::collections::HashSet::new();
    for i in 0..30u64 {
        outstanding.insert(
            client
                .send(Frame::release(i, test_query(), &db, 0.1, i).unwrap())
                .unwrap(),
        );
    }
    client.flush().unwrap();
    server.shutdown();

    // Every admitted request still gets a response frame (RELEASE_OK, BUSY,
    // or a typed shutdown error) before the server closes the socket.
    let mut answered = 0usize;
    // recv() errors with a clean EOF once the drain finishes.
    while let Ok(envelope) = client.recv() {
        if !outstanding.remove(&envelope.seq) {
            // Server-initiated shutdown notice (seq 0), not a reply.
            assert!(
                matches!(
                    envelope.frame,
                    Frame::Error {
                        code: ErrorCode::Shutdown,
                        ..
                    }
                ),
                "unknown seq {} with frame {:?}",
                envelope.seq,
                envelope.frame
            );
            continue;
        }
        match envelope.frame {
            Frame::ReleaseOk { .. } | Frame::Busy { .. } | Frame::Error { .. } => {}
            other => panic!("unexpected drain response {other:?}"),
        }
        answered += 1;
    }
    assert!(
        answered > 0,
        "shutdown must drain, not drop, in-flight requests"
    );
}

#[test]
fn shutdown_drain_has_one_deadline_per_connection() {
    const STUCK: u64 = 8;
    let drain_timeout = Duration::from_millis(250);
    // Every release waits in a cold calibration until the gate opens (or
    // 10 s pass, so a failing run still ends).
    let gate = Arc::new(AtomicBool::new(false));
    let calibration_gate = Arc::clone(&gate);
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let engine = ReleaseEngine::shared(FnCalibrator::new("gated", 1, move |_query, budget| {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !calibration_gate.load(Ordering::SeqCst) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mechanism = MqmApprox::calibrate(&class, LENGTH, budget, MqmApproxOptions::default())?;
        Ok(Arc::new(mechanism) as Arc<dyn Mechanism>)
    }));
    let service = Arc::new(
        ReleaseService::start(
            engine,
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 64,
                per_user_epsilon: 1000.0,
            },
        )
        .unwrap(),
    );
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            read_timeout: Duration::from_millis(50),
            drain_timeout,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "stuck").unwrap();
    let db = database(3);
    for i in 1..=STUCK {
        client
            .send(Frame::release(i, test_query(), &db, 0.1, i).unwrap())
            .unwrap();
    }
    client.flush().unwrap();
    // Shut down only once every release is admitted: one in the
    // calibration, the rest queued behind it.
    let admitted_by = Instant::now() + Duration::from_secs(10);
    while service.budget().users() < STUCK as usize {
        assert!(Instant::now() < admitted_by, "releases never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    // A deadline per release would hold shutdown for STUCK × drain_timeout.
    assert!(
        elapsed < drain_timeout * STUCK as u32 / 2,
        "shutdown took {elapsed:?} with drain_timeout {drain_timeout:?}"
    );

    // No stuck release gets a reply; the client hears the shutdown notice
    // and one typed notice counting the abandoned releases.
    let mut abandoned_notices = 0;
    while let Ok(envelope) = client.recv() {
        assert_eq!(envelope.seq, 0, "unexpected reply {:?}", envelope.frame);
        match envelope.frame {
            Frame::Error {
                code: ErrorCode::Internal,
                message,
            } => {
                assert!(message.contains(&format!("{STUCK} in-flight")), "{message}");
                abandoned_notices += 1;
            }
            Frame::Error {
                code: ErrorCode::Shutdown,
                ..
            } => {}
            other => panic!("unexpected notice {other:?}"),
        }
    }
    assert_eq!(abandoned_notices, 1);
    gate.store(true, Ordering::SeqCst);
}
