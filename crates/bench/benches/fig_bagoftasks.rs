//! E5 / Figures 4–5 — bag-of-tasks throughput: FT vs plain workers, and
//! completion under crash + recovery.
//!
//! Shape expected from the paper: the FT worker pays a constant overhead
//! per task (the in-progress marker makes take and commit two-op AGSs
//! instead of bare in/out) but completes *all* tasks under crashes, which
//! the plain version cannot. Throughput scales with workers until the
//! sequencer saturates.

use criterion::{criterion_group, criterion_main, Criterion};
use ftlinda::{Cluster, HostId, Value};
use linda_paradigms::BagOfTasks;
use std::time::Duration;

fn work(v: &Value) -> Value {
    // A small but real computation: sum of divisors.
    let n = v.as_int().unwrap();
    let s: i64 = (1..=n).filter(|d| n % d == 0).sum();
    Value::Int(s)
}

fn run_once(workers: usize, tasks: i64, ft: bool) {
    let hosts = workers as u32 + 1;
    let (cluster, rts) = Cluster::new(hosts);
    let bag = BagOfTasks::create(&rts[0], "bag").unwrap();
    let ids = bag
        .seed(&rts[0], 0, (0..tasks).map(|i| Value::Int(500 + i % 7)))
        .unwrap();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let rt = rts[w + 1].clone();
            if ft {
                bag.spawn_worker(rt, work)
            } else {
                bag.spawn_worker_unsafe(rt, work)
            }
        })
        .collect();
    bag.collect(&rts[0], &ids).unwrap();
    bag.poison(&rts[0]).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    cluster.shutdown();
}

/// One instrumented run: complete `tasks` with `workers`, then print the
/// per-stage latency attribution merged across the worker runtimes'
/// `ftlinda_ags_*_seconds` histograms — the same instruments `/metrics`
/// exports, so the bench's cost story and the scrape's agree.
fn run_attributed(workers: usize, tasks: i64, ft: bool) {
    let hosts = workers as u32 + 1;
    let (cluster, rts) = Cluster::new(hosts);
    let bag = BagOfTasks::create(&rts[0], "bag").unwrap();
    let ids = bag
        .seed(&rts[0], 0, (0..tasks).map(|i| Value::Int(500 + i % 7)))
        .unwrap();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let rt = rts[w + 1].clone();
            if ft {
                bag.spawn_worker(rt, work)
            } else {
                bag.spawn_worker_unsafe(rt, work)
            }
        })
        .collect();
    bag.collect(&rts[0], &ids).unwrap();
    bag.poison(&rts[0]).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    let regs: Vec<_> = rts.iter().skip(1).map(|rt| rt.obs()).collect();
    println!(
        "  {} workers ({}) — pipeline stage attribution over all worker AGSs:",
        workers,
        if ft { "FT" } else { "plain" }
    );
    linda_bench::print_stage_attribution(&regs);
    cluster.shutdown();
}

fn bench(c: &mut Criterion) {
    // Two AGSs per task (take, commit): 500 tasks give the attribution
    // over 1000+ worker AGSs, enough that one run's means hold still.
    println!("\nE5 — bag-of-tasks: per-stage latency attribution (500 tasks):");
    run_attributed(2, 500, true);
    run_attributed(2, 500, false);

    println!("\nE5 — bag-of-tasks: 40 tasks, completion time:");
    let mut g = c.benchmark_group("fig_bagoftasks");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for workers in [1usize, 2, 4] {
        g.bench_function(format!("ft_workers_{workers}"), |b| {
            b.iter(|| run_once(workers, 40, true))
        });
        g.bench_function(format!("plain_workers_{workers}"), |b| {
            b.iter(|| run_once(workers, 40, false))
        });
    }
    g.finish();

    // Crash-recovery completion time: 2 FT workers, one crashes mid-run,
    // monitor reassigns — measured end to end. (The plain version would
    // hang forever here, which is the paper's point; we only measure the
    // variant that terminates.)
    let mut g = c.benchmark_group("fig_bagoftasks_crash");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.bench_function("ft_2workers_1crash", |b| {
        b.iter(|| {
            let (cluster, rts) = Cluster::new(3);
            let bag = BagOfTasks::create(&rts[0], "bag").unwrap();
            let ids = bag
                .seed(&rts[0], 0, (0..24).map(|i| Value::Int(300 + i)))
                .unwrap();
            let monitor = bag.spawn_monitor(rts[0].clone());
            let slow = |v: &Value| {
                std::thread::sleep(Duration::from_micros(500));
                work(v)
            };
            let _w1 = bag.spawn_worker(rts[1].clone(), slow);
            let _w2 = bag.spawn_worker(rts[2].clone(), slow);
            std::thread::sleep(Duration::from_millis(3));
            cluster.crash(HostId(2));
            bag.collect(&rts[0], &ids).unwrap();
            bag.stop_monitor(&rts[0]).unwrap();
            monitor.join().unwrap();
            bag.poison(&rts[0]).unwrap();
            cluster.shutdown();
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
