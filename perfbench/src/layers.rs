//! Per-layer replays. Each workload's generated inputs are fed through
//! one layer's public functions at a time — the ordering group, the
//! kernel, the tuple store, the codecs and the span ring — with no other
//! layer in the way, so each figure is that layer's own cost.

use crate::gen::{task_result, PingGen, TaskGen};
use crate::stats::{median, p50_p99_us, SpanLog};
use crate::stmts::{self, pattern, tuple, wrap};
use crate::workloads::{Workload, BAG_TASKS, CLIENT_HOST, FARMER_HOST, HOSTS};
use consul_sim::{Delivery, HostId, NetConfig, SeqGroup};
use ftlinda::{TsId, TypeTag, Value};
use ftlinda_kernel::{encode_request, Kernel, KernelNote, Request};
use linda_space::{IndexedStore, Store, StoreConfig};
use linda_tuple::{decode_tuple, encode_tuple, Pattern, Tuple};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ops of the workload's stream each replay feeds its layer.
const REPLAY_OPS: usize = 2000;
/// Passes over the ns-scale replays; each figure is the median pass.
const PASSES: usize = 3;
/// Ceiling on the ordering replay, which waits on real threads.
const ORDER_BUDGET: Duration = Duration::from_secs(3);

/// One statement of the serialised stream: who submits it and, for the
/// client host's own statements, the branch it must fire.
pub struct Stmt {
    pub origin: u32,
    pub req: Request,
    pub expect_branch: Option<usize>,
}

/// One store operation and the answer it must give.
pub enum StoreOp {
    Insert(Tuple),
    /// Withdraw; must find a tuple.
    Take(Pattern),
    /// Read; must find a tuple.
    Read(Pattern),
    /// Read; must find nothing.
    Miss(Pattern),
}

/// A workload's generated inputs, serialised: the statements in one
/// total order (a plausible interleaving of the workload's clients) and
/// the tuple-store operations those statements perform.
pub struct Inputs {
    pub hosts: u32,
    pub client: u32,
    /// Space creation and, for bag_of_tasks, seeding, applied untimed.
    pub setup: Vec<Stmt>,
    pub ops: Vec<Stmt>,
    pub store: Vec<StoreOp>,
}

/// The replays create one space, which a fresh kernel numbers 0.
const TS: TsId = TsId(0);

fn stmt(origin: u32, ags: ftlinda::Ags, expect_branch: Option<usize>) -> Stmt {
    Stmt {
        origin,
        req: Request::Ags(ags),
        expect_branch,
    }
}

fn create(origin: u32, name: &str) -> Stmt {
    Stmt {
        origin,
        req: Request::CreateTs { name: name.into() },
        expect_branch: None,
    }
}

pub fn inputs(w: Workload, seed: u64) -> Inputs {
    let client = CLIENT_HOST;
    let mut setup = Vec::new();
    let mut ops = Vec::new();
    let mut store = Vec::new();
    let int = |v: i64| Ok(Value::Int(v));
    let any = |t: TypeTag| Err(t);
    match w {
        Workload::Pingpong => {
            setup.push(create(0, "pingpong"));
            let mut pings = PingGen::new(seed);
            for _ in 0..REPLAY_OPS {
                let i = pings.next_ping();
                // The server's statement is already blocked when the ping
                // arrives; the pinger's `in` follows the ping's completion.
                ops.push(stmt(2, stmts::pong_server(TS), None));
                ops.push(stmt(client, stmts::ping_out(TS, i), Some(0)));
                ops.push(stmt(client, stmts::pong_in(TS, i), Some(0)));
                let pong = pattern("pong", vec![int(i)]);
                store.push(StoreOp::Miss(pong.clone()));
                store.push(StoreOp::Insert(tuple("ping", vec![Value::Int(i)])));
                store.push(StoreOp::Take(pattern("ping", vec![any(TypeTag::Int)])));
                store.push(StoreOp::Insert(tuple("pong", vec![Value::Int(i)])));
                store.push(StoreOp::Read(pong.clone()));
                store.push(StoreOp::Take(pong));
            }
        }
        Workload::BagOfTasks => {
            setup.push(create(FARMER_HOST, "bag"));
            let mut tasks = TaskGen::new(seed);
            // Oldest subtask first: the store withdraws in insertion order.
            let mut bag = VecDeque::new();
            for _ in 0..BAG_TASKS {
                let (id, p) = tasks.next_task();
                setup.push(stmt(FARMER_HOST, stmts::task_out(TS, id, p), None));
                store.push(StoreOp::Insert(tuple(
                    "subtask",
                    vec![Value::Int(id), wrap(p)],
                )));
                bag.push_back((id, p));
            }
            let subtask = || pattern("subtask", vec![any(TypeTag::Int), any(TypeTag::Tuple)]);
            for _ in 0..REPLAY_OPS {
                let (id, p) = bag.pop_front().expect("the bag is refilled");
                let r = task_result(p);
                let (nid, np) = tasks.next_task();
                bag.push_back((nid, np));
                ops.push(stmt(client, stmts::task_take(TS), Some(0)));
                ops.push(stmt(
                    client,
                    stmts::task_commit(TS, client, id, p, r),
                    Some(0),
                ));
                ops.push(stmt(FARMER_HOST, stmts::result_collect(TS), None));
                ops.push(stmt(FARMER_HOST, stmts::task_out(TS, nid, np), None));
                let inprog = pattern("inprog", vec![int(i64::from(client)), int(id), Ok(wrap(p))]);
                store.push(StoreOp::Read(subtask()));
                store.push(StoreOp::Take(subtask()));
                store.push(StoreOp::Insert(tuple(
                    "inprog",
                    vec![Value::Int(i64::from(client)), Value::Int(id), wrap(p)],
                )));
                store.push(StoreOp::Take(inprog.clone()));
                store.push(StoreOp::Miss(inprog));
                store.push(StoreOp::Insert(tuple(
                    "result",
                    vec![Value::Int(id), wrap(r)],
                )));
                store.push(StoreOp::Take(pattern(
                    "result",
                    vec![any(TypeTag::Int), any(TypeTag::Tuple)],
                )));
                store.push(StoreOp::Insert(tuple(
                    "subtask",
                    vec![Value::Int(nid), wrap(np)],
                )));
            }
        }
    }
    Inputs {
        hosts: HOSTS,
        client,
        setup,
        ops,
        store,
    }
}

/// Named per-layer figures, in output order.
pub type Figures = Vec<(&'static str, f64, &'static str)>;

/// Run every replay; `errors` gets one line per answer a layer got wrong.
pub fn replay_all(inp: &Inputs, log: &mut SpanLog, errors: &mut Vec<String>) -> Figures {
    let mut figs = Figures::new();
    let (order_p50, order_p99) = log.span("replay.consul", None, 0, || consul_order(inp));
    figs.push(("consul.order_p50_us", order_p50, "us"));
    figs.push(("consul.order_p99_us", order_p99, "us"));
    let k = log.span("replay.kernel", None, 0, || kernel_apply(inp));
    errors.extend(k.errors);
    figs.push(("kernel.apply_p50_us", k.apply_p50, "us"));
    figs.push(("kernel.apply_p99_us", k.apply_p99, "us"));
    figs.push(("kernel.checkpoint_ms", k.checkpoint_ms, "ms"));
    figs.push(("kernel.digest_ms", k.digest_ms, "ms"));
    let s = log.span("replay.space", None, 0, || space(inp));
    errors.extend(s.errors);
    figs.push(("space.insert_ns", s.insert_ns, "ns"));
    figs.push(("space.take_ns", s.take_ns, "ns"));
    figs.push(("space.read_ns", s.read_ns, "ns"));
    figs.push(("space.miss_ns", s.miss_ns, "ns"));
    figs.push(("space.probes_per_attempt", s.probes_per_attempt, "count"));
    let (enc, dec, ags) = log.span("replay.codec", None, 0, || codec(inp));
    figs.push(("tuple.encode_ns", enc, "ns"));
    figs.push(("tuple.decode_ns", dec, "ns"));
    figs.push(("ags.encode_us", ags, "us"));
    let (record, spans_of) = log.span("replay.obs", None, 0, || obs(inp));
    figs.push(("obs.span_record_ns", record, "ns"));
    figs.push(("obs.spans_of_us", spans_of, "us"));
    figs
}

/// A bare ordering group of the workload's size with the default batch
/// configuration: each encoded op statement broadcast from the client
/// host, timed to its own delivery there, one at a time.
fn consul_order(inp: &Inputs) -> (f64, f64) {
    let (group, members) = SeqGroup::new(inp.hosts, NetConfig::instant());
    let me = &members[inp.client as usize];
    let payloads: Vec<bytes::Bytes> = inp
        .ops
        .iter()
        .map(|s| bytes::Bytes::from(encode_request(&s.req)))
        .collect();
    let start = Instant::now();
    let mut times = Vec::with_capacity(payloads.len());
    for p in payloads {
        let t0 = Instant::now();
        let local = me.broadcast(p);
        loop {
            let d = me
                .deliveries()
                .recv_timeout(Duration::from_secs(5))
                .expect("ordering group delivers its own broadcast");
            if matches!(d, Delivery::App { origin, local: l, .. } if origin == me.host() && l == local)
            {
                break;
            }
        }
        times.push(t0.elapsed());
        for m in &members {
            if m.host() != me.host() {
                m.deliveries().try_iter().for_each(drop);
            }
        }
        if start.elapsed() > ORDER_BUDGET {
            break;
        }
    }
    for m in &members {
        m.stop();
    }
    group.shutdown();
    p50_p99_us(&times)
}

struct KernelFigures {
    apply_p50: f64,
    apply_p99: f64,
    checkpoint_ms: f64,
    digest_ms: f64,
    errors: Vec<String>,
}

/// A standalone kernel on the client host applying the serialised
/// stream; only the op statements are timed. The checkpoint and the
/// digest are taken at the stream's end state.
fn kernel_apply(inp: &Inputs) -> KernelFigures {
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut kernel = Kernel::new(HostId(inp.client), tx);
    let mut errors = Vec::new();
    let mut locals: HashMap<u32, u64> = HashMap::new();
    let mut expected: HashMap<u64, usize> = HashMap::new();
    let mut times = Vec::with_capacity(inp.ops.len());
    let mut completed = 0usize;
    let stream = inp
        .setup
        .iter()
        .map(|s| (false, s))
        .chain(inp.ops.iter().map(|s| (true, s)));
    for (seq, (timed, s)) in (1u64..).zip(stream) {
        let local = locals.entry(s.origin).or_insert(0);
        *local += 1;
        if let Some(b) = s.expect_branch.filter(|_| s.origin == inp.client) {
            expected.insert(*local, b);
        }
        let d = Delivery::App {
            seq,
            origin: HostId(s.origin),
            local: *local,
            payload: bytes::Bytes::from(encode_request(&s.req)),
        };
        let t0 = Instant::now();
        kernel.apply(&d);
        if timed {
            times.push(t0.elapsed());
        }
        for note in rx.try_iter() {
            if let KernelNote::Completed { local, result, .. } = note {
                completed += 1;
                let want = expected.remove(&local);
                match (result, want) {
                    (Ok(o), Some(b)) if o.branch == b => {}
                    (r, w) => errors.push(format!(
                        "kernel replay: statement {local} gave {r:?}, expected branch {w:?}"
                    )),
                }
            }
        }
    }
    if kernel.lookup(&space_name(inp)) != Some(TS) {
        errors.push("kernel replay: the space did not get id 0".into());
    }
    if !expected.is_empty() {
        errors.push(format!(
            "kernel replay: {} statements never completed ({completed} did)",
            expected.len()
        ));
    }
    let (apply_p50, apply_p99) = p50_p99_us(&times);
    let ms_of = |f: &dyn Fn()| {
        median(
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect(),
        )
    };
    let checkpoint_ms = ms_of(&|| {
        black_box(kernel.checkpoint());
    });
    // The divergence detector computes this digest on every host every
    // 10 ms, under the kernel lock.
    let digest_ms = ms_of(&|| {
        black_box(kernel.digest());
    });
    KernelFigures {
        apply_p50,
        apply_p99,
        checkpoint_ms,
        digest_ms,
        errors,
    }
}

fn space_name(inp: &Inputs) -> String {
    match &inp.setup[0].req {
        Request::CreateTs { name } => name.clone(),
        _ => unreachable!("every stream starts by creating its space"),
    }
}

struct SpaceFigures {
    insert_ns: f64,
    take_ns: f64,
    read_ns: f64,
    miss_ns: f64,
    probes_per_attempt: f64,
    errors: Vec<String>,
}

/// The store stable spaces use (`IndexedStore`, default config), fed
/// the workload's tuples and patterns. Each figure is the mean per call,
/// timer included, of the median pass.
fn space(inp: &Inputs) -> SpaceFigures {
    let mut passes: [Vec<f64>; 4] = Default::default();
    let mut probes = 0.0;
    let mut errors = Vec::new();
    for _ in 0..PASSES {
        let mut store = IndexedStore::with_config(StoreConfig::default());
        let mut sum = [Duration::ZERO; 4];
        let mut n = [0u32; 4];
        for op in &inp.store {
            let t0 = Instant::now();
            let (kind, ok) = match op {
                StoreOp::Insert(t) => {
                    store.insert(t.clone());
                    (0, true)
                }
                StoreOp::Take(p) => (1, black_box(store.take(p)).is_some()),
                StoreOp::Read(p) => (2, black_box(store.read(p)).is_some()),
                StoreOp::Miss(p) => (3, black_box(store.read(p)).is_none()),
            };
            sum[kind] += t0.elapsed();
            n[kind] += 1;
            if !ok && errors.len() < 5 {
                errors.push(format!("space replay: op kind {kind} answered wrongly"));
            }
        }
        for k in 0..4 {
            passes[k].push(sum[k].as_secs_f64() * 1e9 / f64::from(n[k].max(1)));
        }
        probes = store.match_stats().probes_per_attempt();
    }
    let [insert, take, read, miss] = passes.map(median);
    SpaceFigures {
        insert_ns: insert,
        take_ns: take,
        read_ns: read,
        miss_ns: miss,
        probes_per_attempt: probes,
        errors,
    }
}

/// Tuple codec over every tuple the workload stores, and the request
/// encoder over its op statements: mean per call of the median pass.
fn codec(inp: &Inputs) -> (f64, f64, f64) {
    let tuples: Vec<&Tuple> = inp
        .store
        .iter()
        .filter_map(|op| match op {
            StoreOp::Insert(t) => Some(t),
            _ => None,
        })
        .collect();
    let encoded: Vec<Vec<u8>> = tuples.iter().map(|t| encode_tuple(t)).collect();
    let per_call = |n: usize, f: &dyn Fn()| {
        median(
            (0..PASSES)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() / n as f64
                })
                .collect(),
        )
    };
    let enc = per_call(tuples.len(), &|| {
        for t in &tuples {
            black_box(encode_tuple(black_box(t)));
        }
    });
    let dec = per_call(encoded.len(), &|| {
        for b in &encoded {
            black_box(decode_tuple(black_box(b)).expect("codec round trip"));
        }
    });
    let ags = per_call(inp.ops.len(), &|| {
        for s in &inp.ops {
            black_box(encode_request(black_box(&s.req)));
        }
    });
    (enc * 1e9, dec * 1e9, ags * 1e6)
}

/// `SpanLog::record` with the stages and fields the runtime, sequencer
/// and kernel record per AGS, into a ring of the registry's default
/// size; then `spans_of` lookups on the full ring.
fn obs(inp: &Inputs) -> (f64, f64) {
    const TRACES: u64 = 8000;
    let per_trace = 3 + 2 * inp.hosts as usize;
    let record_ns = median(
        (0..PASSES)
            .map(|_| {
                let log = linda_obs::SpanLog::default();
                let t0 = Instant::now();
                for local in 1..=TRACES {
                    record_ags(&log, inp, local);
                }
                t0.elapsed().as_secs_f64() * 1e9 / (TRACES as usize * per_trace) as f64
            })
            .collect(),
    );
    let log = linda_obs::SpanLog::default();
    for local in 1..=TRACES {
        record_ags(&log, inp, local);
    }
    let lookups = 200u64;
    let t0 = Instant::now();
    for j in 0..lookups {
        let id = linda_obs::TraceId::new(inp.client, TRACES - j * 7);
        black_box(log.spans_of(id));
    }
    let spans_of_us = t0.elapsed().as_secs_f64() * 1e6 / lookups as f64;
    (record_ns, spans_of_us)
}

fn record_ags(log: &linda_obs::SpanLog, inp: &Inputs, local: u64) {
    let trace = linda_obs::TraceId::new(inp.client, local);
    let seq = local.to_string();
    log.record(
        trace,
        "submit",
        inp.client,
        vec![("kind".into(), "ags".into())],
    );
    log.record(
        trace,
        "flush",
        0,
        vec![
            ("seq".into(), seq.clone()),
            ("batch".into(), "1".into()),
            ("queued_us".into(), "0".into()),
        ],
    );
    for h in 0..inp.hosts {
        log.record(trace, "deliver", h, vec![("seq".into(), seq.clone())]);
        log.record(
            trace,
            "apply",
            h,
            vec![
                ("seq".into(), seq.clone()),
                ("outcome".into(), "fired".into()),
            ],
        );
    }
    log.record(
        trace,
        "complete",
        inp.client,
        vec![("outcome".into(), "ok".into())],
    );
}
