//! The two workloads on the in-process Sim cluster: set-up, the
//! closed-loop timed phase, and the end-of-run correctness checks.

use crate::gen::{task_result, PingGen, TaskGen, PING_STOP};
use crate::stats::{Recorder, SpanLog};
use crate::stmts;
use ftlinda::{Cluster, FtError, Runtime, TsId, Value};
use linda_paradigms::BagOfTasks;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pingpong,
    BagOfTasks,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Pingpong, Workload::BagOfTasks];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong",
            Workload::BagOfTasks => "bag_of_tasks",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Hosts of the cluster; host 0 coordinates the order, so every submit
/// from another host crosses the network to be ordered.
pub const HOSTS: u32 = 3;

/// Client threads issuing statements: the pingpong pinger and server,
/// or the bag_of_tasks worker and farmer.
pub const CLIENTS: usize = 2;

/// The host whose submits time an op.
pub const CLIENT_HOST: u32 = 1;

/// Tasks the farmer keeps in the bag; each collected result is replaced
/// by a fresh task, so the bag never runs dry within a timed phase.
pub const BAG_TASKS: usize = 512;

/// The bag_of_tasks farmer's host; its one worker runs on the client host.
pub const FARMER_HOST: u32 = 2;

/// Give up on a phase after this many failed ops instead of spinning
/// on a broken cluster until the deadline.
const MAX_FAILED: u64 = 100;

enum State {
    Ping(PingGen),
    Bag {
        bag: BagOfTasks,
        tasks: TaskGen,
        /// Tasks in the bag, by id: their payloads.
        outstanding: HashMap<i64, i64>,
    },
}

/// A cluster set up for one workload, with the generators that feed it.
pub struct Env {
    pub cluster: Cluster,
    pub rts: Vec<Runtime>,
    pub ts: TsId,
    state: State,
}

fn ft(e: FtError) -> String {
    e.to_string()
}

/// Build the cluster (default settings, no HTTP exporter), create the
/// workload's space and, for `bag_of_tasks`, seed the bag from `seed`.
pub fn setup(workload: Workload, seed: u64) -> Result<Env, String> {
    let (cluster, rts) = Cluster::builder().hosts(HOSTS).no_http().build();
    let (ts, state) = match workload {
        Workload::Pingpong => (
            rts[0].create_stable_ts("pingpong").map_err(ft)?,
            State::Ping(PingGen::new(seed)),
        ),
        Workload::BagOfTasks => {
            let farmer = &rts[FARMER_HOST as usize];
            let bag = BagOfTasks::create(farmer, "bag").map_err(ft)?;
            let mut tasks = TaskGen::new(seed);
            let seeded: Vec<(i64, i64)> = (0..BAG_TASKS).map(|_| tasks.next_task()).collect();
            let ids = bag
                .seed(farmer, 0, seeded.iter().map(|&(_, p)| Value::Int(p)))
                .map_err(ft)?;
            if ids != seeded.iter().map(|&(id, _)| id).collect::<Vec<_>>() {
                return Err("bag seeded under unexpected ids".into());
            }
            let outstanding = seeded.into_iter().collect();
            (
                bag.ts(),
                State::Bag {
                    bag,
                    tasks,
                    outstanding,
                },
            )
        }
    };
    Ok(Env {
        cluster,
        rts,
        ts,
        state,
    })
}

/// What one timed phase produced.
#[derive(Debug)]
pub struct Phase {
    pub elapsed: Duration,
    pub attempted: u64,
    pub failures: Failures,
    /// Benchmark spans: one `op` per op with a `core.execute` child per
    /// `Runtime::execute`. Empty when the phase ran untraced.
    pub spans: SpanLog,
    /// Statements the op clients executed.
    pub executes: u64,
}

/// Failed ops and checks: how many, and the first few messages.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn note(&mut self, e: String) {
        self.count += 1;
        if self.messages.len() < 5 {
            self.messages.push(e);
        }
    }

    fn absorb(&mut self, other: Failures) {
        let count = self.count + other.count;
        other.messages.into_iter().for_each(|m| self.note(m));
        self.count = count;
    }
}

/// One closed-loop client: runs ops until the deadline, timing each.
struct Client<'r> {
    epoch: Instant,
    traced: bool,
    log: SpanLog,
    op: u64,
    parent: Option<usize>,
    rec: &'r mut Recorder,
    attempted: u64,
    failures: Failures,
    executes: u64,
}

impl<'r> Client<'r> {
    fn new(rec: &'r mut Recorder, epoch: Instant, traced: bool) -> Client<'r> {
        Client {
            epoch,
            traced,
            log: SpanLog::new(epoch),
            op: 0,
            parent: None,
            rec,
            attempted: 0,
            failures: Failures::default(),
            executes: 0,
        }
    }

    /// One call into `Runtime::execute` (directly or through the
    /// paradigm), traced as a `core.execute` span under the current op.
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.executes += 1;
        if self.traced {
            self.log.span("core.execute", self.parent, self.op, f)
        } else {
            f()
        }
    }

    fn run(&mut self, dur: Duration, mut op: impl FnMut(&mut Client) -> Result<(), String>) {
        while self.epoch.elapsed() < dur && self.failures.count < MAX_FAILED {
            self.attempted += 1;
            if self.traced {
                self.parent = Some(self.log.open("op", self.op));
            }
            let t0 = Instant::now();
            let r = op(self);
            let latency = t0.elapsed();
            if let Some(p) = self.parent.take() {
                self.log.close(p);
            }
            match r {
                Ok(()) => self.rec.record(self.epoch.elapsed(), latency),
                Err(e) => self.failures.note(e),
            }
            self.op += 1;
        }
    }

    fn into_phase(self, elapsed: Duration) -> Phase {
        Phase {
            elapsed,
            attempted: self.attempted,
            failures: self.failures,
            spans: self.log,
            executes: self.executes,
        }
    }
}

impl Env {
    /// Run the workload's closed loop for `dur`, recording each
    /// completed op in `rec`.
    pub fn run_phase(&mut self, rec: &mut Recorder, dur: Duration, traced: bool) -> Phase {
        match &mut self.state {
            State::Ping(gen) => pingpong(&self.rts, self.ts, gen, rec, dur, traced),
            State::Bag {
                bag,
                tasks,
                outstanding,
            } => bag_of_tasks(&self.rts, *bag, tasks, outstanding, rec, dur, traced),
        }
    }

    /// End-of-run checks; returns one line per failed check.
    pub fn check(&self) -> Vec<String> {
        let mut failed = Vec::new();
        // Replicas converge: every host applies the same prefix, then
        // their canonical space digests agree.
        let target = self.rts.iter().map(Runtime::applied_seq).max().unwrap_or(0);
        for rt in &self.rts {
            if !rt.wait_applied(target, Duration::from_secs(10)) {
                failed.push(format!(
                    "host {} did not apply up to seq {target}",
                    rt.host()
                ));
            }
        }
        let digests: Vec<u64> = self
            .rts
            .iter()
            .map(|rt| rt.canonical_space_digest(self.ts))
            .collect();
        if digests.windows(2).any(|d| d[0] != d[1]) {
            failed.push(format!("replica digests differ: {digests:x?}"));
        }
        let Some(space) = self.rts[0].snapshot(self.ts) else {
            failed.push("space missing at host 0".into());
            return failed;
        };
        match &self.state {
            State::Ping(_) => {
                if !space.is_empty() {
                    failed.push(format!("{} ping/pong tuples left over", space.len()));
                }
            }
            State::Bag { outstanding, .. } => {
                let mut subtasks = 0;
                for t in &space {
                    let head = t.get(0).and_then(Value::as_str);
                    let id = t.get(1).and_then(Value::as_int);
                    let payload = t
                        .get(2)
                        .and_then(Value::as_tuple)
                        .and_then(|p| p.first()?.as_int());
                    match (head, id, payload) {
                        (Some("subtask"), Some(id), Some(p))
                            if outstanding.get(&id) == Some(&p) =>
                        {
                            subtasks += 1
                        }
                        _ => failed.push(format!("unexpected tuple left in the bag: {t:?}")),
                    }
                }
                if subtasks != outstanding.len() {
                    failed.push(format!(
                        "{subtasks} subtasks in the bag, expected {}",
                        outstanding.len()
                    ));
                }
            }
        }
        failed
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// Pinger on host 1, pong server on host 2. The server checks each
/// ping against its own copy of the seeded stream, so every pong `i` the
/// pinger takes was served exactly once and in order. The phase ends
/// with a sentinel ping that stops the server.
fn pingpong(
    rts: &[Runtime],
    ts: TsId,
    gen: &mut PingGen,
    rec: &mut Recorder,
    dur: Duration,
    traced: bool,
) -> Phase {
    let (pinger, server) = (&rts[CLIENT_HOST as usize], &rts[2]);
    let serve = stmts::pong_server(ts);
    let mut expect = gen.clone();
    let epoch = Instant::now();
    std::thread::scope(|s| {
        // Pings served before the sentinel, or the first mismatch.
        let srv = s.spawn(move || -> Result<u64, String> {
            let mut served = 0;
            loop {
                let out = server.execute(&serve).map_err(ft)?;
                let i = out.bindings[0].as_int().ok_or("pong server bound no int")?;
                if i == PING_STOP {
                    return Ok(served);
                }
                let want = expect.next_ping();
                if i != want {
                    return Err(format!("ping {served} was {i}, expected {want}"));
                }
                served += 1;
            }
        });
        let mut sent = 0u64;
        let mut c = Client::new(rec, epoch, traced);
        c.run(dur, |c| {
            let i = gen.next_ping();
            sent += 1;
            c.call(|| pinger.execute(&stmts::ping_out(ts, i)))
                .map_err(ft)?;
            c.call(|| pinger.execute(&stmts::pong_in(ts, i)))
                .map_err(ft)?;
            Ok(())
        });
        let elapsed = epoch.elapsed();
        let stop = pinger
            .execute(&stmts::ping_out(ts, PING_STOP))
            .and_then(|_| pinger.execute(&stmts::pong_in(ts, PING_STOP)));
        if let Err(e) = stop {
            c.failures.note(format!("stopping the pong server: {e}"));
        }
        match srv.join().expect("pong server thread panicked") {
            Ok(served) if served == sent => {}
            Ok(served) => c
                .failures
                .note(format!("server served {served} pings, pinger sent {sent}")),
            Err(e) => c.failures.note(format!("pong server: {e}")),
        }
        c.into_phase(elapsed)
    })
}

/// One worker on the client host takes and commits tasks through
/// `BagOfTasks`; the farmer collects each result, checks it, and puts a
/// fresh task in its place.
fn bag_of_tasks(
    rts: &[Runtime],
    bag: BagOfTasks,
    tasks: &mut TaskGen,
    outstanding: &mut HashMap<i64, i64>,
    rec: &mut Recorder,
    dur: Duration,
    traced: bool,
) -> Phase {
    let worker = &rts[CLIENT_HOST as usize];
    let farmer = &rts[FARMER_HOST as usize];
    let collect = stmts::result_collect(bag.ts());
    // (results committed, worker finished)
    let progress = (Mutex::new((0u64, false)), Condvar::new());
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut c = Client::new(rec, epoch, traced);
            c.run(dur, |c| {
                let (id, payload) = c.call(|| bag.take_task(worker)).map_err(ft)?;
                let p = payload.as_int().ok_or("task payload is not an int")?;
                let committed = c
                    .call(|| bag.commit_result(worker, id, payload, Value::Int(task_result(p))))
                    .map_err(ft)?;
                if !committed {
                    return Err(format!("commit of task {id} found no in-progress marker"));
                }
                progress.0.lock().expect("progress lock").0 += 1;
                progress.1.notify_one();
                Ok(())
            });
            let elapsed = epoch.elapsed();
            progress.0.lock().expect("progress lock").1 = true;
            progress.1.notify_one();
            c.into_phase(elapsed)
        });
        let mut farm = Failures::default();
        let mut collected = 0u64;
        loop {
            {
                let mut g = progress.0.lock().expect("progress lock");
                while g.0 == collected && !g.1 {
                    g = progress.1.wait(g).expect("progress lock");
                }
                if g.0 == collected {
                    break;
                }
            }
            let out = match farmer.execute(&collect) {
                Ok(out) => out,
                Err(e) => {
                    farm.note(format!("farmer collect: {e}"));
                    break;
                }
            };
            collected += 1;
            let id = out.bindings[0].as_int().unwrap_or(i64::MIN);
            let r = out.bindings[1].as_tuple().and_then(|t| t[0].as_int());
            match (outstanding.remove(&id), r) {
                (Some(p), Some(r)) if r == task_result(p) => {}
                (None, _) => farm.note(format!("result for unknown or repeated task {id}")),
                (Some(_), r) => farm.note(format!("task {id}: wrong result {r:?}")),
            }
            let (nid, np) = tasks.next_task();
            if let Err(e) = bag.add_task(farmer, nid, Value::Int(np)) {
                farm.note(format!("farmer refill: {e}"));
                break;
            }
            outstanding.insert(nid, np);
        }
        let mut phase = w.join().expect("worker thread panicked");
        let committed = progress.0.lock().expect("progress lock").0;
        if collected != committed {
            farm.note(format!("collected {collected} of {committed} results"));
        }
        phase.failures.absorb(farm);
        phase
    })
}
