//! Throughput with group commit off vs on — the cost curve behind the
//! sequencer's self-clocking batching.
//!
//! Eight concurrent submitters hammer a 4-host cluster, once with
//! `no_batching` (the classic one-record-per-AGS protocol) and once
//! with the default group commit, where submits that queue up behind
//! the coordinator's previous multicast coalesce into one batch record.
//! For each point we report AGS throughput and *ordered multicasts per
//! AGS*: exactly 1.000 with batching off, strictly below 1 with it on.
//! Throughput is printed, not asserted: on a small host it spreads
//! more between runs than it differs between the two settings.
//!
//! Besides the printed table, the run writes a `BENCH_msgs_per_ags.json`
//! artifact (to `$BENCH_MSGS_PER_AGS_JSON` or the working directory)
//! so CI can archive the curve.

use criterion::{criterion_group, criterion_main, Criterion};
use ftlinda::{Ags, Cluster, ClusterBuilder, Operand, TsId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const HOSTS: u32 = 4;
const SUBMITTERS: usize = 8;
const PER_SUBMITTER: usize = 150;

struct Point {
    batching: bool,
    ags: u64,
    multicasts: u64,
    batches: u64,
    batch_entries: u64,
    ags_per_sec: f64,
}

/// Wait until physical message counters stop moving, so trailing
/// deliveries of the previous phase don't leak into the measurement.
fn wait_net_quiesced(cluster: &Cluster) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = cluster.net_stats().0;
    let mut stable = 0;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        let now = cluster.net_stats().0;
        if now == last {
            stable += 1;
            if stable >= 3 {
                return;
            }
        } else {
            stable = 0;
            last = now;
        }
    }
}

/// A 4-host cluster measuring the bare protocol: checkpoint markers
/// would perturb the multicast-per-AGS accounting.
fn builder(batching: bool) -> ClusterBuilder {
    let b = Cluster::builder().hosts(HOSTS).no_checkpoints();
    if batching {
        b
    } else {
        b.no_batching()
    }
}

fn run_point(batching: bool) -> Point {
    let (cluster, rts) = builder(batching).build();
    let ts: TsId = rts[0].create_stable_ts("main").unwrap();
    wait_net_quiesced(&cluster);
    cluster.order_stats().reset();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..SUBMITTERS {
            let rt = &rts[i % rts.len()];
            s.spawn(move || {
                for k in 0..PER_SUBMITTER {
                    rt.execute(&Ags::out_one(
                        ts,
                        vec![Operand::cst("s"), Operand::cst(k as i64)],
                    ))
                    .unwrap();
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    wait_net_quiesced(&cluster);
    let stats = cluster.order_stats();
    let point = Point {
        batching,
        ags: (SUBMITTERS * PER_SUBMITTER) as u64,
        multicasts: stats.ordered_multicasts(),
        batches: stats.batches(),
        batch_entries: stats.batch_entries(),
        ags_per_sec: (SUBMITTERS * PER_SUBMITTER) as f64 / secs,
    };
    cluster.shutdown();
    point
}

fn write_artifact(points: &[Point]) {
    // The off/on points run on an unsharded (K=1) cluster; the
    // `shard_sweep` bench contributes the `shard_sweep` section of the
    // same artifact, so update only this bench's keys.
    let mut json = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"batching\": {}, \"shards\": 1, \"ags\": {}, \
             \"ordered_multicasts\": {}, \
             \"batches\": {}, \"batch_entries\": {}, \"multicasts_per_ags\": {:.4}, \
             \"ags_per_sec\": {:.1}}}{comma}",
            p.batching,
            p.ags,
            p.multicasts,
            p.batches,
            p.batch_entries,
            p.multicasts as f64 / p.ags as f64,
            p.ags_per_sec,
        );
    }
    json.push_str("  ]");
    let path = std::env::var("BENCH_MSGS_PER_AGS_JSON")
        .unwrap_or_else(|_| "BENCH_msgs_per_ags.json".into());
    linda_bench::update_artifact_sections(
        &path,
        &[
            ("bench", "\"msgs_per_ags\"".into()),
            ("hosts", HOSTS.to_string()),
            ("submitters", SUBMITTERS.to_string()),
            ("points", json),
        ],
    );
}

fn bench(c: &mut Criterion) {
    println!("\nThroughput with group commit off vs on — {SUBMITTERS} submitters, {HOSTS} hosts:");
    println!(
        "    {:<12} {:>8} {:>12} {:>10} {:>16} {:>12}",
        "batching", "AGSs", "multicasts", "batches", "multicasts/AGS", "AGS/sec"
    );
    let mut points = Vec::new();
    for batching in [false, true] {
        let p = run_point(batching);
        println!(
            "    {:<12} {:>8} {:>12} {:>10} {:>16.3} {:>12.0}",
            if batching { "on" } else { "off" },
            p.ags,
            p.multicasts,
            p.batches,
            p.multicasts as f64 / p.ags as f64,
            p.ags_per_sec,
        );
        if batching {
            assert!(
                p.multicasts < p.ags,
                "group commit must order fewer multicasts ({}) than AGSs ({})",
                p.multicasts,
                p.ags
            );
        } else {
            assert_eq!(p.multicasts, p.ags, "off: one ordered multicast per AGS");
        }
        points.push(p);
    }
    println!();
    write_artifact(&points);

    // Criterion angle: end-to-end latency of one contended burst with
    // group commit off and on.
    let mut g = c.benchmark_group("batch_window");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for batching in [false, true] {
        let (cluster, rts) = builder(batching).build();
        let ts = rts[0].create_stable_ts("bench").unwrap();
        let label = if batching { "on" } else { "off" };
        g.bench_function(format!("burst8_{label}"), |bch| {
            bch.iter(|| {
                std::thread::scope(|s| {
                    for i in 0..SUBMITTERS {
                        let rt = &rts[i % rts.len()];
                        s.spawn(move || {
                            rt.execute(&Ags::out_one(
                                ts,
                                vec![Operand::cst("b"), Operand::cst(1i64)],
                            ))
                            .unwrap();
                        });
                    }
                });
            })
        });
        cluster.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
