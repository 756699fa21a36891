//! The per-layer ladder for the release workloads.
//!
//! The workload's own requests are replayed, one at a time, up five rungs:
//!
//! 1. `engine`  — `ReleaseEngine::release` on the warm engine;
//! 2. `budget`  — the same plus `BudgetAccountant::try_spend`;
//! 3. `service` — `ReleaseService::submit` then `Ticket::wait`;
//! 4. `codec`   — the service rung with the request and response frames
//!    encoded and decoded in memory;
//! 5. `wire`    — a `NetClient` release over a loopback `NetServer`.
//!
//! A sixth pass repeats the service rung with the workload's observability
//! attached. Each layer's cost is the difference between adjacent rungs.
//! The rungs run interleaved in chunks, so a slow spell of the host lands on
//! every rung alike.

use std::sync::Arc;

use pufferfish_core::ReleaseEngine;
use pufferfish_monitor::ClassBounds;
use pufferfish_net::{
    decode, encode, ClientError, Envelope, Frame, NetClient, NetServer, NetServerConfig,
    DEFAULT_MAX_FRAME_LEN,
};
use pufferfish_service::{BudgetAccountant, ReleaseRequest, ReleaseService, ServiceConfig};

use crate::common::{count_service_error, ReleaseStream, TENANT};
use crate::obs;
use crate::report::{Outcomes, Report};
use crate::stats::{summarize, Summary};
use crate::trace::Tracer;

/// The rungs, bottom to top.
const RUNGS: [&str; 5] = ["engine", "budget", "service", "codec", "wire"];

const RUNG_SPANS: [&str; 5] = [
    "rung.engine",
    "rung.budget",
    "rung.service",
    "rung.codec",
    "rung.wire",
];

/// Chunks each rung's requests are split into, interleaved across rungs.
const CHUNKS: u64 = 4;

/// Reports the rung summaries (µs), the deltas between adjacent rungs, and
/// every rung that sits below the one beneath it by more than their spread.
pub fn report_rungs(report: &mut Report, rungs: &[(&str, Option<Summary>)]) {
    let mut rows = Vec::new();
    let mut below: Option<(&str, Summary)> = None;
    for &(name, summary) in rungs {
        let metric = format!("rung.{name}_us");
        let Some(summary) = summary else {
            report.not_applicable(&metric);
            continue;
        };
        report.metric(&metric, summary.p50 / 1e3);
        report.detail(&format!("rung.{name}.p10_us"), summary.p10 / 1e3, "us");
        report.detail(&format!("rung.{name}.p90_us"), summary.p90 / 1e3, "us");
        let delta = below.map_or(summary.p50, |(_, b)| summary.p50 - b.p50);
        report.detail(&format!("rung.{name}.delta_us"), delta / 1e3, "us");
        rows.push(format!(
            "{{\"rung\": \"{name}\", \"n\": {}, \"p10_us\": {}, \"p50_us\": {}, \
             \"p90_us\": {}, \"delta_us\": {}}}",
            summary.n,
            summary.p10 / 1e3,
            summary.p50 / 1e3,
            summary.p90 / 1e3,
            delta / 1e3
        ));
        if let Some((lower, b)) = below {
            let spread = ((b.p90 - b.p10) / 2.0).max((summary.p90 - summary.p10) / 2.0);
            if summary.p50 < b.p50 - spread {
                report.finding(format!(
                    "ladder.inversion: rung {name} (p50 {:.3} us) sits below rung {lower} \
                     (p50 {:.3} us) by more than their spread ({:.3} us)",
                    summary.p50 / 1e3,
                    b.p50 / 1e3,
                    spread / 1e3
                ));
            }
        }
        below = Some((name, summary));
    }
    report
        .sections
        .push(("ladder".to_string(), format!("[{}]", rows.join(", "))));
}

/// p50 of the spans named `name`, or `None` when there are none.
pub fn span_p50(tracer: &Tracer, name: &str) -> Option<f64> {
    let mut samples = tracer.durations(name);
    (!samples.is_empty()).then(|| summarize(&mut samples).p50)
}

pub fn span_summary(tracer: &Tracer, name: &str) -> Option<Summary> {
    let mut samples = tracer.durations(name);
    (!samples.is_empty()).then(|| summarize(&mut samples))
}

/// Everything a release ladder needs from its workload.
pub struct ReleaseLadder<'a> {
    pub stream: &'a ReleaseStream,
    pub engine: Arc<ReleaseEngine>,
    pub config: ServiceConfig,
    /// Bounds for the monitor of the observed service pass.
    pub bounds: &'a ClassBounds,
}

fn fresh_service(ladder: &ReleaseLadder<'_>) -> ReleaseService {
    ReleaseService::start(Arc::clone(&ladder.engine), ladder.config).expect("valid service config")
}

/// Rebuilds the service request from a decoded RELEASE frame, charging the
/// same budget identity the stream charges.
fn request_from_frame(stream: &ReleaseStream, frame: Frame) -> Option<ReleaseRequest> {
    match frame {
        Frame::Release {
            user,
            query,
            epsilon,
            seed,
            database,
        } => Some(ReleaseRequest {
            user: stream.user_name(user),
            query: query.build().ok()?,
            database: database.into_iter().map(usize::from).collect(),
            epsilon,
            seed,
        }),
        _ => None,
    }
}

/// Runs the ladder over the stream's first `requests` requests and records
/// every rung, the layer metrics measured on rungs, and the ladder checks.
pub fn run(ladder: &ReleaseLadder<'_>, requests: u64, tracer: &mut Tracer, report: &mut Report) {
    let stream = ladder.stream;
    let accountant =
        BudgetAccountant::new(ladder.config.per_user_epsilon).expect("positive budget");
    let service = fresh_service(ladder);
    let codec_service = fresh_service(ladder);
    let wire_service = Arc::new(fresh_service(ladder));
    let observed = fresh_service(ladder);
    let observability = obs::attach(&observed, ladder.bounds);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&wire_service),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr(), TENANT).expect("connect loopback");

    let mut outcomes = Outcomes::default();
    let mut direct_bits = vec![0u64; requests as usize];
    let mut mismatches = 0u64;
    let mut bytes = 0u64;
    let mut busy = 0u64;
    let mut compare = |index: u64, values: &[f64], direct_bits: &[u64]| {
        if values.len() != 1 || values[0].to_bits() != direct_bits[index as usize] {
            mismatches += 1;
        }
    };

    for chunk in 0..CHUNKS {
        let range = chunk * requests / CHUNKS..(chunk + 1) * requests / CHUNKS;
        for i in range.clone() {
            let rung = tracer.open("rung.engine", i, None);
            let release = tracer.time("core.release", i, rung, || stream.direct(&ladder.engine, i));
            tracer.close(rung);
            outcomes.attempted += 1;
            match release {
                Ok(release) if release.values.len() == 1 => {
                    outcomes.ok += 1;
                    direct_bits[i as usize] = release.values[0].to_bits();
                }
                _ => outcomes.error += 1,
            }
        }
        for i in range.clone() {
            let user = stream.user(i);
            let rung = tracer.open("rung.budget", i, None);
            let spent = tracer.time("service.budget.try_spend", i, rung, || {
                accountant.try_spend(&user, stream.epsilon)
            });
            let release = tracer.time("core.release", i, rung, || stream.direct(&ladder.engine, i));
            tracer.close(rung);
            outcomes.attempted += 1;
            match (spent, release) {
                (Ok(_), Ok(release)) => {
                    outcomes.ok += 1;
                    compare(i, &release.values, &direct_bits);
                }
                (Err(error), _) => count_service_error(&mut outcomes, &error),
                (_, Err(_)) => outcomes.error += 1,
            }
        }
        for i in range.clone() {
            let request = stream.request(i);
            let rung = tracer.open("rung.service", i, None);
            let ticket = tracer.time("service.submit", i, rung, || service.submit(request));
            let release =
                ticket.map(|ticket| tracer.time("service.wait", i, rung, || ticket.wait()));
            tracer.close(rung);
            outcomes.attempted += 1;
            match release {
                Ok(Ok(release)) => {
                    outcomes.ok += 1;
                    compare(i, &release.values, &direct_bits);
                }
                Ok(Err(error)) | Err(error) => count_service_error(&mut outcomes, &error),
            }
        }
        for i in range.clone() {
            let envelope = Envelope {
                seq: i,
                frame: stream.frame(i),
            };
            let rung = tracer.open("rung.codec", i, None);
            let request_bytes = tracer.time("net.encode_request", i, rung, || {
                encode(&envelope, DEFAULT_MAX_FRAME_LEN).expect("request frame encodes")
            });
            let decoded = tracer.time("net.decode_request", i, rung, || {
                decode(&request_bytes, DEFAULT_MAX_FRAME_LEN)
            });
            let request = decoded
                .ok()
                .and_then(|(envelope, _)| request_from_frame(stream, envelope.frame));
            let Some(request) = request else {
                tracer.close(rung);
                outcomes.attempted += 1;
                outcomes.error += 1;
                continue;
            };
            let ticket = tracer.time("service.submit", i, rung, || codec_service.submit(request));
            let release =
                ticket.map(|ticket| tracer.time("service.wait", i, rung, || ticket.wait()));
            let release = match release {
                Ok(Ok(release)) => release,
                Ok(Err(error)) | Err(error) => {
                    tracer.close(rung);
                    outcomes.attempted += 1;
                    count_service_error(&mut outcomes, &error);
                    continue;
                }
            };
            let response = Envelope {
                seq: i,
                frame: Frame::ReleaseOk {
                    scale: release.scale,
                    values: release.values,
                },
            };
            let response_bytes = tracer.time("net.encode_response", i, rung, || {
                encode(&response, DEFAULT_MAX_FRAME_LEN).expect("response frame encodes")
            });
            let back = tracer.time("net.decode_response", i, rung, || {
                decode(&response_bytes, DEFAULT_MAX_FRAME_LEN)
            });
            tracer.close(rung);
            bytes += (request_bytes.len() + response_bytes.len()) as u64;
            outcomes.attempted += 1;
            match back {
                Ok((
                    Envelope {
                        frame: Frame::ReleaseOk { values, .. },
                        ..
                    },
                    _,
                )) => {
                    outcomes.ok += 1;
                    compare(i, &values, &direct_bits);
                }
                _ => outcomes.error += 1,
            }
        }
        for i in range.clone() {
            let rung = tracer.open("rung.wire", i, None);
            let answer = tracer.time("net.roundtrip", i, rung, || {
                client.release(
                    stream.user_id(i),
                    stream.wire_query(),
                    stream.database(i),
                    stream.epsilon,
                    stream.noise_seed(i),
                )
            });
            tracer.close(rung);
            outcomes.attempted += 1;
            match answer {
                Ok((_, values)) => {
                    outcomes.ok += 1;
                    compare(i, &values, &direct_bits);
                }
                Err(ClientError::Busy { .. }) => {
                    busy += 1;
                    outcomes.busy += 1;
                }
                Err(ClientError::BudgetExhausted { .. }) => outcomes.budget += 1,
                Err(_) => outcomes.error += 1,
            }
        }
        for i in range {
            let request = stream.request(i);
            let rung = tracer.open("rung.service_observed", i, None);
            let release = observed.submit(request).and_then(|ticket| ticket.wait());
            tracer.close(rung);
            outcomes.attempted += 1;
            match release {
                Ok(release) => {
                    outcomes.ok += 1;
                    compare(i, &release.values, &direct_bits);
                }
                Err(error) => count_service_error(&mut outcomes, &error),
            }
        }
    }
    let _ = client.goodbye();
    server.shutdown();
    report.phase("ladder", outcomes, false);
    report.check(
        "ladder.bitwise_across_rungs",
        mismatches == 0 && outcomes.ok > 0,
        format!(
            "{mismatches} answers on the budget, service, codec, wire and observed rungs \
             differ from the engine rung"
        ),
    );

    let rungs: Vec<(&str, Option<Summary>)> = RUNGS
        .iter()
        .zip(RUNG_SPANS)
        .map(|(&name, span)| (name, span_summary(tracer, span)))
        .collect();
    report_rungs(report, &rungs);

    let p50 = |name: &str| span_p50(tracer, name).unwrap_or(f64::NAN);
    report.metric("core.release_ns", p50("core.release"));
    report.metric("service.submit_ns", p50("service.submit"));
    report.metric("service.wait_ns", p50("service.wait"));
    report.metric(
        "net.encode_ns",
        p50("net.encode_request") + p50("net.encode_response"),
    );
    report.metric(
        "net.decode_ns",
        p50("net.decode_request") + p50("net.decode_response"),
    );
    report.metric(
        "net.bytes_per_release",
        bytes as f64 / requests.max(1) as f64,
    );
    report.metric(
        "net.wire_minus_service_us",
        (p50("rung.wire") - p50("rung.service")) / 1e3,
    );
    report.detail("net.ladder_busy_frames", busy as f64, "count");
    let observed_p50 = p50("rung.service_observed");
    report.metric(
        "telemetry.overhead_ratio",
        observed_p50 / p50("rung.service"),
    );
    let stages = obs::stage_p50_sum_ns(&observability.telemetry);
    let unattributed_us = (observed_p50 - stages) / 1e3;
    report.metric("telemetry.unattributed_us", unattributed_us);
    report.finding(format!(
        "telemetry.unattributed_us: {unattributed_us:.3} us of the observed service rung's \
         client p50 ({:.3} us) is in no stage histogram (stage p50 sum {:.3} us)",
        observed_p50 / 1e3,
        stages / 1e3
    ));
    drop(observability);
    service.shutdown();
    codec_service.shutdown();
    observed.shutdown();
    if let Ok(wire_service) = Arc::try_unwrap(wire_service) {
        wire_service.shutdown();
    }
}
