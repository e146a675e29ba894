//! Property-based tests of the replicated state machine's core
//! guarantee: *any* totally-ordered request stream drives every kernel to
//! the identical state — stores, blocked queues, everything that feeds
//! back into execution.

use bytes::Bytes;
use consul_sim::{Delivery, HostId};
use ftlinda_ags::{Ags, MatchField as MF, Operand, TsId};
use ftlinda_kernel::{encode_request, Kernel, Request};
use linda_tuple::TypeTag;
use proptest::prelude::*;

/// A small universe of AGS shapes over one space: enough to cover outs,
/// blocking ins, disjunction, body failures, expressions, and move/copy.
#[derive(Debug, Clone)]
enum Shape {
    Out { head: usize, v: i64 },
    In { head: usize, formal: bool },
    Inp { head: usize },
    CounterIncr,
    BodyFail { head: usize },
    MoveAll { head: usize },
    Disjunction { a: usize, b: usize },
}

const HEADS: [&str; 3] = ["x", "y", "z"];

fn to_ags(s: &Shape) -> Ags {
    let ts = TsId(0);
    let ts2 = TsId(1);
    match s {
        Shape::Out { head, v } => {
            Ags::out_one(ts, vec![Operand::cst(HEADS[*head]), Operand::cst(*v)])
        }
        Shape::In { head, formal } => {
            let f = if *formal {
                MF::bind(TypeTag::Int)
            } else {
                MF::actual(1i64)
            };
            Ags::in_one(ts, vec![MF::actual(HEADS[*head]), f]).unwrap()
        }
        Shape::Inp { head } => {
            Ags::inp_one(ts, vec![MF::actual(HEADS[*head]), MF::bind(TypeTag::Int)]).unwrap()
        }
        Shape::CounterIncr => Ags::builder()
            .guard_in(ts, vec![MF::actual("ctr"), MF::bind(TypeTag::Int)])
            .out(ts, vec![Operand::cst("ctr"), Operand::formal(0).add(1)])
            .build()
            .unwrap(),
        Shape::BodyFail { head } => Ags::builder()
            .guard_true()
            .out(ts, vec![Operand::cst("tmp"), Operand::cst(9)])
            .in_(ts, vec![MF::actual(HEADS[*head]), MF::actual(12345i64)])
            .build()
            .unwrap(),
        Shape::MoveAll { head } => Ags::builder()
            .guard_true()
            .move_(
                ts,
                ts2,
                vec![MF::actual(HEADS[*head]), MF::bind(TypeTag::Int)],
            )
            .build()
            .unwrap(),
        Shape::Disjunction { a, b } => Ags::builder()
            .guard_in(ts, vec![MF::actual(HEADS[*a]), MF::bind(TypeTag::Int)])
            .out(ts, vec![Operand::cst("got"), Operand::formal(0)])
            .or()
            .guard_in(ts, vec![MF::actual(HEADS[*b]), MF::bind(TypeTag::Int)])
            .out(ts, vec![Operand::cst("got"), Operand::formal(0).mul(2)])
            .build()
            .unwrap(),
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0usize..3, -3i64..4).prop_map(|(head, v)| Shape::Out { head, v }),
        (0usize..3, any::<bool>()).prop_map(|(head, formal)| Shape::In { head, formal }),
        (0usize..3).prop_map(|head| Shape::Inp { head }),
        Just(Shape::CounterIncr),
        (0usize..3).prop_map(|head| Shape::BodyFail { head }),
        (0usize..3).prop_map(|head| Shape::MoveAll { head }),
        (0usize..3, 0usize..3).prop_map(|(a, b)| Shape::Disjunction { a, b }),
    ]
}

/// Interleave app requests with failure/join view changes.
#[derive(Debug, Clone)]
enum Event {
    Req(Shape, u32),
    Fail(u32),
    Join(u32),
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        6 => (arb_shape(), 0u32..4).prop_map(|(s, o)| Event::Req(s, o)),
        1 => (0u32..4).prop_map(Event::Fail),
        1 => (0u32..4).prop_map(Event::Join),
    ]
}

fn build_stream(events: &[Event]) -> Vec<Delivery> {
    let mut out = Vec::with_capacity(events.len() + 3);
    let mut seq = 0u64;
    let push_app = |seq: &mut u64, origin: u32, req: &Request, out: &mut Vec<Delivery>| {
        *seq += 1;
        out.push(Delivery::App {
            seq: *seq,
            origin: HostId(origin),
            local: *seq,
            payload: Bytes::from(encode_request(req)),
        });
    };
    push_app(
        &mut seq,
        0,
        &Request::CreateTs {
            name: "main".into(),
        },
        &mut out,
    );
    push_app(
        &mut seq,
        0,
        &Request::CreateTs { name: "aux".into() },
        &mut out,
    );
    push_app(
        &mut seq,
        0,
        &Request::Ags(Ags::out_one(
            TsId(0),
            vec![Operand::cst("ctr"), Operand::cst(0)],
        )),
        &mut out,
    );
    for ev in events {
        match ev {
            Event::Req(shape, origin) => {
                push_app(&mut seq, *origin, &Request::Ags(to_ags(shape)), &mut out)
            }
            Event::Fail(h) => {
                seq += 1;
                out.push(Delivery::Fail {
                    seq,
                    host: HostId(*h),
                });
            }
            Event::Join(h) => {
                seq += 1;
                out.push(Delivery::Join {
                    seq,
                    host: HostId(*h),
                });
            }
        }
    }
    out
}

fn run_kernel(host: u32, stream: &[Delivery]) -> Kernel {
    let (tx, rx) = std::sync::mpsc::channel();
    std::mem::forget(rx);
    let mut k = Kernel::new(HostId(host), tx);
    for d in stream {
        k.apply(d);
    }
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Replica convergence: four kernels with different host identities
    /// applying the same stream end in identical state.
    #[test]
    fn replicas_converge(events in proptest::collection::vec(arb_event(), 0..60)) {
        let stream = build_stream(&events);
        let kernels: Vec<Kernel> = (0..4).map(|h| run_kernel(h, &stream)).collect();
        let d0 = kernels[0].digest();
        for k in &kernels[1..] {
            prop_assert_eq!(k.digest(), d0);
            prop_assert_eq!(k.blocked_len(), kernels[0].blocked_len());
            prop_assert_eq!(k.snapshot(TsId(0)), kernels[0].snapshot(TsId(0)));
            prop_assert_eq!(k.snapshot(TsId(1)), kernels[0].snapshot(TsId(1)));
        }
    }

    /// Determinism under replay: applying the stream twice from scratch
    /// (what a restarted replica does) reproduces the state exactly.
    #[test]
    fn replay_is_deterministic(events in proptest::collection::vec(arb_event(), 0..60)) {
        let stream = build_stream(&events);
        let a = run_kernel(0, &stream);
        let b = run_kernel(0, &stream);
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// Prefix monotonicity: a kernel fed a prefix then the suffix equals
    /// a kernel fed the whole stream (incremental apply ≡ batch apply).
    #[test]
    fn prefix_then_suffix_equals_whole(
        events in proptest::collection::vec(arb_event(), 0..60),
        cut_frac in 0.0f64..1.0,
    ) {
        let stream = build_stream(&events);
        let cut = ((stream.len() as f64) * cut_frac) as usize;
        let whole = run_kernel(0, &stream);
        let (tx, rx) = std::sync::mpsc::channel();
        std::mem::forget(rx);
        let mut split = Kernel::new(HostId(0), tx);
        for d in &stream[..cut] {
            split.apply(d);
        }
        for d in &stream[cut..] {
            split.apply(d);
        }
        prop_assert_eq!(whole.digest(), split.digest());
    }

    /// The counter invariant: however the stream interleaves, the "ctr"
    /// tuple either exists exactly once or is currently withdrawn by a
    /// blocked/failed AGS — it is never duplicated.
    #[test]
    fn counter_never_duplicated(events in proptest::collection::vec(arb_event(), 0..80)) {
        let stream = build_stream(&events);
        let k = run_kernel(0, &stream);
        let snap = k.snapshot(TsId(0)).unwrap();
        let ctrs = snap
            .iter()
            .filter(|t| t.get(0).and_then(|v| v.as_str()) == Some("ctr"))
            .count();
        prop_assert!(ctrs <= 1, "counter duplicated: {ctrs}");
        prop_assert_eq!(ctrs, 1, "counter must survive (increments are atomic)");
    }
}

// ---------------------------------------------------------------------------
// Live-cluster convergence under random crash/restart schedules.
// ---------------------------------------------------------------------------

/// One step of a randomized fault schedule against a live 3-host cluster.
#[derive(Debug, Clone)]
enum FaultStep {
    /// Deposit `n` tuples from a live host (picked by index preference).
    Traffic { from: usize, n: u8 },
    /// Crash the preferred host if that still leaves a majority.
    Crash { host: usize },
    /// Restart the preferred host if it is down.
    Restart { host: usize },
}

fn arb_fault_step() -> impl Strategy<Value = FaultStep> {
    prop_oneof![
        3 => (0usize..3, 1u8..4).prop_map(|(from, n)| FaultStep::Traffic { from, n }),
        1 => (0usize..3).prop_map(|host| FaultStep::Crash { host }),
        1 => (0usize..3).prop_map(|host| FaultStep::Restart { host }),
    ]
}

proptest! {
    // Each case spins up a real cluster (threads, detector, network), so
    // keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whole-stack convergence: under any random crash/restart schedule,
    /// live replicas end with identical digests at the same applied seq,
    /// and the background digest-divergence detector stays quiet.
    #[test]
    fn live_cluster_converges_and_detector_stays_quiet(
        steps in proptest::collection::vec(arb_fault_step(), 1..8),
    ) {
        use ftlinda::Cluster;

        let (cluster, rts) = Cluster::builder()
            .hosts(3)
            .divergence_period(std::time::Duration::from_millis(3))
            .build();
        let ts = rts[0].create_stable_ts("main").unwrap();
        let mut live: Vec<Option<ftlinda::Runtime>> =
            rts.iter().cloned().map(Some).collect();
        let mut counter = 0i64;

        for step in &steps {
            match step {
                FaultStep::Traffic { from, n } => {
                    // Prefer the indexed host; fall back to any live one.
                    let rt = live[*from]
                        .as_ref()
                        .or_else(|| live.iter().flatten().next())
                        .unwrap();
                    for _ in 0..*n {
                        rt.out(ts, linda_tuple::tuple!("t", counter)).unwrap();
                        counter += 1;
                    }
                }
                FaultStep::Crash { host } => {
                    let up = live.iter().flatten().count();
                    if up > 2 && live[*host].is_some() {
                        cluster.crash(HostId(*host as u32));
                        live[*host] = None;
                    }
                }
                FaultStep::Restart { host } => {
                    if live[*host].is_none() {
                        live[*host] = Some(cluster.restart(HostId(*host as u32)));
                    }
                }
            }
        }

        // Every live replica must converge to the same (seq, digest).
        let survivors: Vec<&ftlinda::Runtime> = live.iter().flatten().collect();
        prop_assert!(survivors.len() >= 2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let states: Vec<(u64, u64)> =
                survivors.iter().map(|rt| rt.applied_digest()).collect();
            if states.windows(2).all(|w| w[0] == w[1]) {
                break;
            }
            prop_assert!(
                std::time::Instant::now() < deadline,
                "replicas never converged: {states:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // Give the detector a few periods over the converged state, then
        // require total silence: no counter ticks, no events.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let div = cluster
            .obs()
            .counter("ftlinda_digest_divergence_total", "");
        prop_assert_eq!(div.get(), 0, "false-positive divergence");
        prop_assert!(cluster.obs().events().recent_of("digest_divergence").is_empty());
        cluster.shutdown();
    }
}
