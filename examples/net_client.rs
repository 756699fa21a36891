//! Wire-protocol client walkthrough: connect, release, query, metrics.
//!
//! Start `--example net_server` first, then run
//!
//! ```text
//! cargo run -p pufferfish-bench --release --example net_client -- 127.0.0.1:7878
//! ```
//!
//! The client authenticates a tenant with HELLO, issues a few releases for
//! distinct per-frame user ids (showing the budget is charged per
//! `tenant#user`, not per connection), runs one declarative query against
//! the server's demo table, and prints the server's metrics (its registry
//! plus the serving stats: served, users, spent ε, queue, monitor) from one
//! METRICS frame, one exposition line each.

use pufferfish_net::{ClientError, NetClient, WireQuery};

const CHAIN_LENGTH: usize = 60;

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());

    let mut client = NetClient::connect(&addr as &str, "demo").expect("connect failed");
    println!(
        "connected to {addr} (server pipeline limit {}, max frame {} bytes)",
        client.server_max_pipeline(),
        client.max_frame_len()
    );

    // A deterministic binary activity trace, released under three queries.
    let database: Vec<usize> = (0..CHAIN_LENGTH).map(|t| (t * 5 + 1) % 11 % 2).collect();
    let queries = [
        (
            "state-frequency(1)",
            WireQuery::StateFrequency {
                state: 1,
                length: CHAIN_LENGTH as u32,
            },
        ),
        (
            "histogram",
            WireQuery::Histogram {
                num_states: 2,
                length: CHAIN_LENGTH as u32,
            },
        ),
        (
            "range-count[0,0]",
            WireQuery::RangeCount {
                lo: 0,
                hi: 0,
                num_states: 2,
                length: CHAIN_LENGTH as u32,
            },
        ),
    ];
    for (user, (name, query)) in queries.into_iter().enumerate() {
        let (scale, values) = client
            .release(user as u64, query, &database, 0.25, 42 + user as u64)
            .expect("release failed");
        println!("user {user} {name}: scale {scale:.3}, noisy values {values:?}");
    }

    // The same (user, query, ε, seed, database) releases identical noise —
    // determinism is part of the wire contract.
    let q = WireQuery::StateFrequency {
        state: 1,
        length: CHAIN_LENGTH as u32,
    };
    let (_, first) = client.release(7, q, &database, 0.25, 99).expect("release");
    let (_, second) = client.release(7, q, &database, 0.25, 99).expect("release");
    assert_eq!(
        first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        second.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    println!("determinism check: identical request → bitwise-identical release");

    // One declarative query against the server's demo table.
    match client.query(1, "sensor", "HISTOGRAM WINDOW 30 EPSILON 0.2", 7) {
        Ok(result) => {
            println!(
                "query via {} (scale {:.3}, total ε {:.2}): {} cell(s)",
                result.mechanism,
                result.noise_scale,
                result.total_epsilon,
                result.cells.len()
            );
            for cell in &result.cells {
                for window in &cell.windows {
                    println!(
                        "  cell {:?} window ..{}: {:?}",
                        cell.key, window.end, window.values
                    );
                }
            }
        }
        Err(ClientError::Remote { code, message }) => {
            println!("query refused ({code}): {message}");
        }
        Err(other) => panic!("query failed: {other}"),
    }

    // The server's metrics over the wire: every line renders in the same
    // text exposition format as the server-side `Registry::render_text`, so
    // the output greps identically on either side.
    let metrics = client.metrics().expect("metrics failed");
    println!("server metrics ({} series):", metrics.len());
    for metric in &metrics {
        println!("  {metric}");
    }

    client.goodbye().expect("goodbye failed");
    println!("closed cleanly");
}
