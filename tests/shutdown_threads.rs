//! Thread census after teardown. This file is a test binary of its own,
//! so no other test's threads share `/proc/self/task` with it.

use ftlinda::{Ags, Cluster, HostId, Operand, TupleServer};
use linda_tuple::pat;
use std::time::{Duration, Instant};

/// Name prefixes of the threads the runtime, the cluster services, the
/// HTTP exporters, the tuple server and the ordering layer start. `comm`
/// keeps only the first 15 bytes of a thread name.
const PREFIXES: [&str; 5] = [
    "ftlinda-",
    "seq-",
    "simnet-",
    "http-exporter",
    "tuple-server",
];

/// Names of this process's threads that carry one of [`PREFIXES`].
fn runtime_threads() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        // A thread may exit between the listing and the read.
        let Ok(comm) = std::fs::read_to_string(task.expect("task entry").path().join("comm"))
        else {
            continue;
        };
        let comm = comm.trim_end();
        if PREFIXES.iter().any(|p| comm.starts_with(p)) {
            names.push(comm.to_string());
        }
    }
    names.sort();
    names
}

#[test]
fn shutdown_after_restarts_leaves_no_runtime_threads() {
    let (cluster, rts) = Cluster::builder().build();
    let server = TupleServer::start(rts[0].clone(), 2).unwrap();
    let client = server.client(Duration::ZERO);
    let ts = client.create_stable_ts("main").unwrap();
    for round in 0..3i64 {
        client
            .execute(&Ags::out_one(
                ts,
                vec![Operand::cst("round"), Operand::cst(round)],
            ))
            .unwrap();
        cluster.crash(HostId(2));
        rts[0].in_(ts, &pat!("failure", 2)).unwrap();
        let rt = cluster.restart(HostId(2));
        assert!(
            rt.wait_applied(rts[0].applied_seq(), Duration::from_secs(5)),
            "round {round}: restarted host never caught up"
        );
    }
    assert!(
        runtime_threads()
            .iter()
            .any(|t| t.starts_with("http-exporter")),
        "the census sees the running cluster: {:?}",
        runtime_threads()
    );

    cluster.shutdown();
    drop(server);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = runtime_threads();
        if left.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "threads still running 10 s after shutdown: {left:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
