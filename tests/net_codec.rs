//! Wire-codec properties and adversarial decoding.
//!
//! Two contracts, driven through the proptest shim:
//!
//! 1. **Round-trip**: every frame kind, with arbitrary field values,
//!    survives `encode → decode` exactly, and frames concatenated on one
//!    buffer decode back in order (the streaming case).
//! 2. **Adversarial**: no byte sequence makes the decoder panic or allocate
//!    unboundedly. Truncations report [`FrameError::Truncated`], oversized
//!    length prefixes report [`FrameError::Oversized`] before any
//!    allocation, corrupted headers report the matching typed error, and
//!    bodies declaring collections far larger than the payload report
//!    [`FrameError::Malformed`].

use proptest::prelude::*;
use pufferfish_net::{
    decode, encode, Envelope, ErrorCode, Frame, FrameError, HistogramSummary, MetricSample,
    MetricValue, WireCell, WireQuery, WireQueryResult, WireRefinementStep, WireWindow,
    DEFAULT_MAX_FRAME_LEN, MAGIC, VERSION,
};
use rand::Rng;

type TestRng = proptest::TestRng;

fn arbitrary_string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..24usize);
    (0..len)
        .map(|_| {
            // Mostly ASCII with some multi-byte code points mixed in.
            match rng.gen_range(0..6u32) {
                0 => 'ε',
                1 => '→',
                _ => char::from(rng.gen_range(b' '..b'~')),
            }
        })
        .collect()
}

fn arbitrary_f64(rng: &mut TestRng) -> f64 {
    // Finite but wide-ranged (round-trip equality; NaN bit-preservation is
    // pinned by a deterministic unit test in the crate).
    let mantissa: f64 = rng.gen_range(-1.0..1.0);
    let exponent: i32 = rng.gen_range(-300..300);
    mantissa * 10f64.powi(exponent)
}

fn arbitrary_values(rng: &mut TestRng, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| arbitrary_f64(rng)).collect()
}

fn arbitrary_query(rng: &mut TestRng) -> WireQuery {
    match rng.gen_range(0..5u32) {
        0 => WireQuery::StateFrequency {
            state: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        1 => WireQuery::StateCount {
            state: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        2 => WireQuery::Histogram {
            num_states: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        3 => WireQuery::RangeCount {
            lo: rng.gen_range(0..1000u32),
            hi: rng.gen_range(0..1000u32),
            num_states: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        _ => WireQuery::MeanState {
            num_states: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
    }
}

const ERROR_CODES: [ErrorCode; 9] = [
    ErrorCode::Malformed,
    ErrorCode::NotHello,
    ErrorCode::Mechanism,
    ErrorCode::TableNotFound,
    ErrorCode::Parse,
    ErrorCode::Shutdown,
    ErrorCode::TooManyConnections,
    ErrorCode::Unsupported,
    ErrorCode::Internal,
];

fn arbitrary_metric(rng: &mut TestRng) -> MetricSample {
    let value = match rng.gen_range(0..3u32) {
        0 => MetricValue::Counter(rng.gen()),
        1 => MetricValue::Gauge(rng.gen()),
        _ => MetricValue::Histogram(HistogramSummary {
            count: rng.gen(),
            max: rng.gen(),
            mean: arbitrary_f64(rng),
            p50: rng.gen(),
            p99: rng.gen(),
            p999: rng.gen(),
        }),
    };
    MetricSample {
        name: arbitrary_string(rng),
        value,
    }
}

/// Draws one frame of any of the fourteen kinds with arbitrary field values.
fn arbitrary_frame(rng: &mut TestRng) -> Frame {
    match rng.gen_range(0..14u32) {
        0 => Frame::Hello {
            tenant: arbitrary_string(rng),
        },
        1 => {
            let db_len = rng.gen_range(0..200usize);
            Frame::Release {
                user: rng.gen(),
                query: arbitrary_query(rng),
                epsilon: arbitrary_f64(rng),
                seed: rng.gen(),
                database: (0..db_len).map(|_| rng.gen_range(0..1000u16)).collect(),
            }
        }
        2 => Frame::Query {
            user: rng.gen(),
            table: arbitrary_string(rng),
            statement: arbitrary_string(rng),
            seed: rng.gen(),
        },
        3 => Frame::Goodbye,
        4 => Frame::HelloOk {
            max_pipeline: rng.gen(),
            max_frame_len: rng.gen(),
        },
        5 => Frame::ReleaseOk {
            scale: arbitrary_f64(rng),
            values: arbitrary_values(rng, 64),
        },
        6 => Frame::QueryOk(WireQueryResult {
            mechanism: arbitrary_string(rng),
            noise_scale: arbitrary_f64(rng),
            total_epsilon: arbitrary_f64(rng),
            cells: (0..rng.gen_range(0..4usize))
                .map(|_| WireCell {
                    key: arbitrary_string(rng),
                    windows: (0..rng.gen_range(0..4usize))
                        .map(|_| WireWindow {
                            end: rng.gen(),
                            values: arbitrary_values(rng, 16),
                        })
                        .collect(),
                })
                .collect(),
        }),
        7 => Frame::Busy {
            retry_hint_ms: rng.gen(),
        },
        8 => Frame::BudgetExhausted {
            requested: arbitrary_f64(rng),
            remaining: arbitrary_f64(rng),
        },
        9 => Frame::Metrics,
        10 => Frame::MetricsOk(
            (0..rng.gen_range(0..8usize))
                .map(|_| arbitrary_metric(rng))
                .collect(),
        ),
        11 => Frame::Progressive {
            user: rng.gen(),
            confidence: rng.gen_range(0.5..0.999),
            seed: rng.gen(),
            steps: (0..rng.gen_range(0..6usize))
                .map(|_| WireRefinementStep {
                    prefix: rng.gen_range(0..10_000u32),
                    epsilon: arbitrary_f64(rng),
                    error_bound: arbitrary_f64(rng),
                })
                .collect(),
            database: (0..rng.gen_range(0..100usize))
                .map(|_| rng.gen_range(0..1000u16))
                .collect(),
        },
        12 => Frame::RefineOk {
            step: rng.gen(),
            total_steps: rng.gen(),
            prefix: rng.gen(),
            scale: arbitrary_f64(rng),
            epsilon: arbitrary_f64(rng),
            certified_error: arbitrary_f64(rng),
            spent_epsilon: arbitrary_f64(rng),
            values: arbitrary_values(rng, 32),
        },
        _ => Frame::Error {
            code: ERROR_CODES[rng.gen_range(0..ERROR_CODES.len())],
            message: arbitrary_string(rng),
        },
    }
}

fn frame_strategy() -> proptest::FnStrategy<Frame, fn(&mut TestRng) -> Frame> {
    proptest::FnStrategy::new(arbitrary_frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every frame kind, consuming
    /// exactly the encoded length.
    #[test]
    fn round_trip_is_identity(frame in frame_strategy(), seq in 0u64..u64::MAX) {
        let envelope = Envelope { seq, frame };
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).expect("arbitrary frames encode");
        let (decoded, consumed) = decode(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, envelope);
    }

    /// Two frames concatenated on one buffer decode back in order — the
    /// streaming accumulation the server's read loop relies on.
    #[test]
    fn concatenated_frames_stream_decode(
        first in frame_strategy(),
        second in frame_strategy(),
    ) {
        let a = Envelope { seq: 1, frame: first };
        let b = Envelope { seq: 2, frame: second };
        let mut buffer = encode(&a, DEFAULT_MAX_FRAME_LEN).unwrap();
        buffer.extend_from_slice(&encode(&b, DEFAULT_MAX_FRAME_LEN).unwrap());
        let (first_out, consumed) = decode(&buffer, DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(&first_out, &a);
        let (second_out, rest) = decode(&buffer[consumed..], DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(&second_out, &b);
        prop_assert_eq!(consumed + rest, buffer.len());
    }

    /// Every strict prefix of a valid encoding reports `Truncated` — the
    /// "read more bytes" signal — and never panics or misparses.
    #[test]
    fn every_truncation_reports_truncated(frame in frame_strategy(), cut in 0.0f64..1.0) {
        let envelope = Envelope { seq: 9, frame };
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let len = (cut * bytes.len() as f64) as usize; // strictly < bytes.len()
        match decode(&bytes[..len], DEFAULT_MAX_FRAME_LEN) {
            Err(FrameError::Truncated { needed, available }) => {
                prop_assert_eq!(available, len);
                prop_assert!(needed > available);
            }
            other => return Err(format!("prefix of {len} bytes decoded as {other:?}")),
        }
    }

    /// Corrupting any single byte never panics; corrupting the magic or
    /// version bytes yields exactly the matching typed error.
    #[test]
    fn corrupted_bytes_never_panic(
        frame in frame_strategy(),
        position in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let envelope = Envelope { seq: 3, frame };
        let mut bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let index = (position * bytes.len() as f64) as usize % bytes.len();
        bytes[index] ^= xor;
        // Must return *something* typed — any Ok/Err is fine, panics are not.
        let outcome = decode(&bytes, DEFAULT_MAX_FRAME_LEN);
        if (4..8).contains(&index) {
            prop_assert!(
                matches!(outcome, Err(FrameError::BadMagic { .. })),
                "magic corruption gave {outcome:?}"
            );
        }
        if index == 8 {
            prop_assert!(
                matches!(outcome, Err(FrameError::UnsupportedVersion { .. })),
                "version corruption gave {outcome:?}"
            );
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in collection::vec(0u8..255, 0..256usize)) {
        let _ = decode(&bytes, DEFAULT_MAX_FRAME_LEN);
        let _ = pufferfish_net::decode_payload(&bytes);
        prop_assert!(true);
    }
}

// ---------------------------------------------------------------------------
// Deterministic adversarial cases.
// ---------------------------------------------------------------------------

fn header(kind: u8, body_len: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::try_from(14 + body_len).unwrap().to_le_bytes());
    bytes.extend_from_slice(&MAGIC.to_le_bytes());
    bytes.push(VERSION);
    bytes.push(kind);
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    // Declares 4 GiB; the decoder must refuse from the 4-byte prefix alone.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 32]);
    assert_eq!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Oversized {
            declared: u32::MAX,
            max: DEFAULT_MAX_FRAME_LEN,
        })
    );
}

#[test]
fn giant_declared_collection_in_tiny_payload_is_malformed() {
    // A RELEASE whose database claims u32::MAX events inside an 8-byte tail:
    // the count guard must reject it before allocating a 4-billion-element
    // vector.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // user
    body.push(0); // StateFrequency
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&60u32.to_le_bytes());
    body.extend_from_slice(&0.5f64.to_le_bytes()); // epsilon
    body.extend_from_slice(&9u64.to_le_bytes()); // seed
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // database count
    body.extend_from_slice(&[0u8; 8]); // ...but only 8 bytes of data
    let mut bytes = header(0x02, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Same attack through a string length (HELLO tenant).
    let mut body = Vec::new();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(b"ok");
    let mut bytes = header(0x01, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn unknown_kind_and_trailing_bytes_are_typed_errors() {
    // 0x04 and 0x84 were the retired STATS / STATS_OK kinds.
    for kind in [0x42, 0x04, 0x84] {
        let bytes = header(kind, 0);
        assert_eq!(
            decode(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::UnknownKind { found: kind })
        );
    }

    // A bodiless METRICS frame with trailing garbage inside its declared
    // length.
    let mut bytes = header(0x06, 3);
    bytes.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn metrics_ok_adversarial_bodies_are_typed_errors() {
    // A METRICS_OK declaring u32::MAX metrics inside an 8-byte tail: the
    // 13-byte-per-metric floor must refuse the count before any allocation.
    let mut body = Vec::new();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(&[0u8; 8]);
    let mut bytes = header(0x88, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // One metric with an unknown value-kind tag.
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes()); // one metric
    body.extend_from_slice(&2u32.to_le_bytes()); // name length
    body.extend_from_slice(b"ok");
    body.push(9); // unknown kind tag
    body.extend_from_slice(&0u64.to_le_bytes());
    let mut bytes = header(0x88, body.len());
    bytes.extend_from_slice(&body);
    match decode(&bytes, DEFAULT_MAX_FRAME_LEN) {
        Err(FrameError::Malformed(msg)) => assert!(msg.contains("unknown metric kind")),
        other => panic!("expected a typed unknown-kind error, got {other:?}"),
    }

    // A metric name claiming u32::MAX bytes: refused by the string guard.
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // giant name length
    body.extend_from_slice(&[0u8; 16]);
    let mut bytes = header(0x88, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Truncated mid-histogram: the "read more" signal, not a misparse.
    let histogram = Frame::MetricsOk(vec![MetricSample {
        name: "stage_engine_ns".to_string(),
        value: MetricValue::Histogram(HistogramSummary {
            count: 10,
            max: 900,
            mean: 450.5,
            p50: 400,
            p99: 880,
            p999: 900,
        }),
    }]);
    let bytes = encode(
        &Envelope {
            seq: 5,
            frame: histogram,
        },
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(
        decode(&bytes[..bytes.len() - 6], DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Truncated { .. })
    ));
}

#[test]
fn metrics_ok_encoding_is_pinned_byte_for_byte() {
    // One counter, one gauge and one histogram: the bytes a METRICS_OK
    // has always carried, so clients built against older servers decode it.
    let frame = Frame::MetricsOk(vec![
        MetricSample {
            name: "a_total".to_string(),
            value: MetricValue::Counter(17),
        },
        MetricSample {
            name: "g".to_string(),
            value: MetricValue::Gauge(3),
        },
        MetricSample {
            name: "h_ns".to_string(),
            value: MetricValue::Histogram(HistogramSummary {
                count: 10,
                max: 900,
                mean: 450.5,
                p50: 400,
                p99: 880,
                p999: 900,
            }),
        },
    ]);
    let expected = [
        "6d000000",         // frame_len 109
        "50554646",         // magic
        "01",               // version
        "88",               // kind METRICS_OK
        "0500000000000000", // seq 5
        "03000000",         // 3 samples
        "07000000",         // name length 7
        "615f746f74616c",   // "a_total"
        "00",               // counter
        "1100000000000000", // 17
        "01000000",         // name length 1
        "67",               // "g"
        "01",               // gauge
        "0300000000000000", // 3
        "04000000",         // name length 4
        "685f6e73",         // "h_ns"
        "02",               // histogram
        "0a00000000000000", // count 10
        "8403000000000000", // max 900
        "0000000000287c40", // mean 450.5
        "9001000000000000", // p50 400
        "7003000000000000", // p99 880
        "8403000000000000", // p999 900
    ]
    .concat();
    let expected: Vec<u8> = (0..expected.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&expected[i..i + 2], 16).unwrap())
        .collect();
    let envelope = Envelope { seq: 5, frame };
    assert_eq!(encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap(), expected);
    assert_eq!(
        decode(&expected, DEFAULT_MAX_FRAME_LEN).unwrap(),
        (envelope, expected.len())
    );
}

#[test]
fn progressive_adversarial_bodies_are_typed_errors() {
    // A PROGRESSIVE declaring u32::MAX refinement steps inside an 8-byte
    // tail: the 20-byte-per-step floor must refuse the count before any
    // allocation.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // user
    body.extend_from_slice(&0.9f64.to_le_bytes()); // confidence
    body.extend_from_slice(&7u64.to_le_bytes()); // seed
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // step count
    body.extend_from_slice(&[0u8; 8]); // ...but only 8 bytes of data
    let mut bytes = header(0x07, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Trailing garbage inside a valid PROGRESSIVE's declared length.
    let frame = Frame::progressive(1, 0.9, 7, &[(8, 0.5, 2.0)], &[0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
    let mut bytes = encode(&Envelope { seq: 2, frame }, DEFAULT_MAX_FRAME_LEN).unwrap();
    // The declared length excludes the 4-byte prefix itself.
    let padded = u32::try_from(bytes.len() - 4 + 2).unwrap();
    bytes[..4].copy_from_slice(&padded.to_le_bytes());
    bytes.extend_from_slice(&[0xAA, 0xBB]);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn refine_ok_adversarial_bodies_are_typed_errors() {
    // A REFINE_OK declaring u32::MAX refined values inside an 8-byte tail.
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes()); // step
    body.extend_from_slice(&2u32.to_le_bytes()); // total_steps
    body.extend_from_slice(&8u32.to_le_bytes()); // prefix
    body.extend_from_slice(&1.0f64.to_le_bytes()); // scale
    body.extend_from_slice(&0.5f64.to_le_bytes()); // epsilon
    body.extend_from_slice(&3.0f64.to_le_bytes()); // certified_error
    body.extend_from_slice(&0.5f64.to_le_bytes()); // spent_epsilon
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // value count
    body.extend_from_slice(&[0u8; 8]);
    let mut bytes = header(0x89, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Truncated mid-values: the "read more" signal, not a misparse.
    let frame = Frame::RefineOk {
        step: 1,
        total_steps: 3,
        prefix: 16,
        scale: 2.0,
        epsilon: 0.5,
        certified_error: 6.0,
        spent_epsilon: 0.5,
        values: vec![0.25, 0.75],
    };
    let bytes = encode(&Envelope { seq: 5, frame }, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert!(matches!(
        decode(&bytes[..bytes.len() - 6], DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Truncated { .. })
    ));
}

#[test]
fn declared_length_shorter_than_header_is_malformed() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn bad_utf8_and_bad_error_codes_are_malformed() {
    // HELLO with invalid UTF-8 in the tenant string.
    let mut body = Vec::new();
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&[0xFF, 0xFE]);
    let mut bytes = header(0x01, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // ERROR frame with an unknown error code.
    let mut body = Vec::new();
    body.extend_from_slice(&999u16.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    let mut bytes = header(0x87, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}
