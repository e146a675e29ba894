//! E3 — end-to-end AGS latency: multicast ordering + state machine.
//!
//! §5.3 of the paper combines the Table 1/2 processing costs with
//! Consul's measured ~4.0 ms dissemination/ordering time (3 Sun-3
//! replicas, 10 Mb Ethernet) to estimate total AGS latency, concluding
//! that **ordering dominates**. We measure the full round trip —
//! `Runtime::execute` returning after the local replica applies the
//! ordered AGS — across simulated one-way link latencies, including a
//! 1.3 ms setting whose round trip approximates the paper's 4 ms
//! ordering figure.

use criterion::{criterion_group, criterion_main, Criterion};
use ftlinda::{Ags, Cluster, MatchField as MF, NetConfig, Operand, TypeTag};
use std::time::Duration;

fn counter_ags(ts: ftlinda::TsId) -> Ags {
    Ags::builder()
        .guard_in(ts, vec![MF::actual("count"), MF::bind(TypeTag::Int)])
        .out(ts, vec![Operand::cst("count"), Operand::formal(0).add(1)])
        .build()
        .unwrap()
}

fn bench(c: &mut Criterion) {
    println!("\nE3 — end-to-end AGS latency (3 replicas), by one-way link latency:");
    let mut g = c.benchmark_group("e2e_ags_latency");
    g.sample_size(10);
    for (label, lat_us) in [
        ("0us", 0u64),
        ("100us", 100),
        ("500us", 500),
        ("1300us", 1300),
    ] {
        let cfg = if lat_us == 0 {
            NetConfig::instant()
        } else {
            NetConfig::lan(Duration::from_micros(lat_us))
        };
        // Batching off: the classic one-multicast-per-AGS protocol. What
        // the default group commit adds for a sequential client is
        // measured separately below (and under load by `batch_window`).
        let (cluster, rts) = Cluster::builder().hosts(3).net(cfg).no_batching().build();
        let ts = rts[0].create_stable_ts("main").unwrap();
        rts[0].out(ts, linda_tuple::tuple!("count", 0)).unwrap();
        let ags = counter_ags(ts);
        // Drive a non-coordinator client (host 1: submit hop + ordered
        // hop + apply), then read the pipeline's own per-stage
        // histograms — the printed numbers are what `/metrics` exports.
        let reps = 50;
        for _ in 0..reps {
            rts[1].execute(&ags).unwrap();
        }
        let total = linda_bench::stage_snapshot(&rts[1].obs(), "ftlinda_ags_total_seconds");
        linda_bench::print_row(
            &format!("one-way latency {label}"),
            format!(
                "{:>10.1} µs/AGS mean (p95 ≤ {:.0} µs)",
                total.mean().unwrap_or(0.0) * 1e6,
                total.p95().unwrap_or(0.0) * 1e6
            ),
        );
        if lat_us == 100 {
            // Full latency attribution at the paper-like setting: where
            // inside submit→order→execute→notify the time goes.
            println!("  stage attribution at 100 µs links (client host 1):");
            linda_bench::print_stage_attribution(&[rts[1].obs()]);
        }
        g.measurement_time(Duration::from_secs(2));
        g.bench_function(format!("latency_{label}"), |b| {
            b.iter(|| rts[1].execute(&ags).unwrap())
        });
        cluster.shutdown();
    }
    g.finish();

    // The queueing delay group commit adds for a sequential client, read
    // from the coordinator's own batch histograms. A sequential submit
    // finds the coordinator idle, so its batch flushes as soon as the
    // submit is handled.
    println!("\nE3c — batch queueing delay (default group commit, 0 µs links):");
    {
        let (cluster, rts) = Cluster::builder().hosts(3).build();
        let ts = rts[0].create_stable_ts("main").unwrap();
        rts[0].out(ts, linda_tuple::tuple!("count", 0)).unwrap();
        let ags = counter_ags(ts);
        for _ in 0..50 {
            rts[1].execute(&ags).unwrap();
        }
        let total = linda_bench::stage_snapshot(&rts[1].obs(), "ftlinda_ags_total_seconds");
        linda_bench::print_row("total with batching on", linda_bench::stage_cell(&total));
        // The flush histogram lives on the coordinator (host 0).
        let flush = linda_bench::stage_snapshot(&rts[0].obs(), "ftlinda_batch_flush_seconds");
        linda_bench::print_row(
            "batch open → flush (queueing)",
            linda_bench::stage_cell(&flush),
        );
        cluster.shutdown();
    }

    // Replica-count scaling at fixed latency (paper used 3 replicas).
    println!("\nE3b — AGS latency vs replica count (100 µs links):");
    let mut g = c.benchmark_group("e2e_replica_scaling");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for n in [1u32, 2, 3, 5, 7] {
        let (cluster, rts) = Cluster::builder()
            .hosts(n)
            .net(NetConfig::lan(Duration::from_micros(100)))
            .no_batching()
            .build();
        let ts = rts[0].create_stable_ts("main").unwrap();
        rts[0].out(ts, linda_tuple::tuple!("count", 0)).unwrap();
        let ags = counter_ags(ts);
        let client = &rts[(n as usize) - 1];
        let reps = 50;
        for _ in 0..reps {
            client.execute(&ags).unwrap();
        }
        let total = linda_bench::stage_snapshot(&client.obs(), "ftlinda_ags_total_seconds");
        linda_bench::print_row(
            &format!("{n} replicas"),
            format!("{:>10.1} µs/AGS mean", total.mean().unwrap_or(0.0) * 1e6),
        );
        g.bench_function(format!("replicas_{n}"), |b| {
            b.iter(|| client.execute(&ags).unwrap())
        });
        cluster.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
