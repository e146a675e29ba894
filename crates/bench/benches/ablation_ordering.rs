//! A1 — ordering-protocol ablation: fixed sequencer vs ISIS agreed
//! timestamps.
//!
//! DESIGN.md §6 calls out the total-order protocol as a replaceable
//! design choice. The sequencer costs n messages and ~1.5 hops per
//! broadcast; ISIS costs 3n messages and 2 round trips but has no
//! coordinator. Expected shape: sequencer wins on both latency and
//! messages at every group size; the gap in messages is exactly 3×.

use bytes::Bytes;
use consul_sim::{Delivery, IsisGroup, NetConfig, SeqGroup};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn wait_own(rx: &std::sync::mpsc::Receiver<Delivery>, local: u64, me: consul_sim::HostId) {
    loop {
        match rx.recv_timeout(Duration::from_secs(5)).expect("delivery") {
            Delivery::App {
                origin, local: l, ..
            } if origin == me && l == local => return,
            _ => continue,
        }
    }
}

fn bench(c: &mut Criterion) {
    println!("\nA1 — total-order protocols, messages per broadcast:");
    for n in [3u32, 5] {
        let (sg, sm) = SeqGroup::new(n, NetConfig::instant());
        sg.net().stats().reset();
        let l = sm[1].broadcast(Bytes::from_static(b"m"));
        wait_own(&sm[1].deliveries(), l, sm[1].host());
        std::thread::sleep(Duration::from_millis(30));
        let (seq_msgs, _) = sg.net().stats().snapshot();
        sg.shutdown();

        let (ig, im) = IsisGroup::new(n, NetConfig::instant());
        ig.net().stats().reset();
        let l = im[1].broadcast(Bytes::from_static(b"m"));
        wait_own(&im[1].deliveries(), l, im[1].host());
        std::thread::sleep(Duration::from_millis(30));
        let (isis_msgs, _) = ig.net().stats().snapshot();
        ig.shutdown();

        linda_bench::print_row(
            &format!("{n} members"),
            format!("sequencer {seq_msgs} msgs, ISIS {isis_msgs} msgs"),
        );
        assert_eq!(isis_msgs, 3 * n as u64);
    }

    let mut g = c.benchmark_group("ablation_ordering");
    g.sample_size(15).measurement_time(Duration::from_secs(2));
    for n in [3u32, 5, 7] {
        let (sg, sm) = SeqGroup::new(n, NetConfig::lan(Duration::from_micros(100)));
        g.bench_function(format!("sequencer_{n}"), |b| {
            b.iter(|| {
                let l = sm[1].broadcast(Bytes::from_static(b"payload"));
                wait_own(&sm[1].deliveries(), l, sm[1].host());
            })
        });
        sg.shutdown();

        let (ig, im) = IsisGroup::new(n, NetConfig::lan(Duration::from_micros(100)));
        g.bench_function(format!("isis_{n}"), |b| {
            b.iter(|| {
                let l = im[1].broadcast(Bytes::from_static(b"payload"));
                wait_own(&im[1].deliveries(), l, im[1].host());
            })
        });
        ig.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
