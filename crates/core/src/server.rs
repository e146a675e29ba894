//! The tuple-server RPC variant (paper §5.4, Figures 16/17).
//!
//! The paper's base architecture runs the FT-Linda library, Consul, and a
//! TS state machine on *every* participating host. The alternative it
//! sketches for hosts that should not carry replicas (e.g. personal
//! workstations donating idle cycles to a Piranha-style computation) is a
//! **tuple server**: the library forwards each AGS over RPC to a request
//! handler on a server host, which submits it to Consul as before and
//! returns the result. The cost is one extra round trip per AGS.
//!
//! [`TupleServer`] wraps a full [`Runtime`] and serves RPC clients;
//! [`RpcClient`] implements the same blocking call surface with the extra
//! hop (with a configurable simulated RPC latency so experiment E8 can
//! sweep it).
//!
//! This module also hosts the cluster's **HTTP exporter**
//! ([`HttpExporter`]): a std-only listener run per member that serves the
//! observability surface (`/metrics`, `/healthz`, `/events`,
//! `/trace/<id>`) to scrapers and humans with `curl`.

use crate::error::FtError;
use crate::runtime::Runtime;
use ftlinda_ags::{Ags, AgsOutcome, TsId};
use linda_obs::TraceId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

enum RpcRequest {
    CreateTs {
        name: String,
        reply: crossbeam::channel::Sender<Result<TsId, FtError>>,
    },
    Execute {
        ags: Box<Ags>,
        reply: crossbeam::channel::Sender<Result<AgsOutcome, FtError>>,
    },
    /// Ends the handler that receives it ([`TupleServer::stop`] sends one
    /// per handler).
    Stop,
}

/// A request handler running on a replica-hosting machine, serving
/// library calls forwarded from non-replica hosts.
pub struct TupleServer {
    tx: crossbeam::channel::Sender<RpcRequest>,
    /// Handler threads still running; zeroed by [`TupleServer::stop`].
    handlers: AtomicUsize,
    rt: Runtime,
}

impl TupleServer {
    /// Start a server backed by `rt` with `handlers` worker threads (the
    /// paper's request handler processes).
    ///
    /// Thread-spawn failure (fd/thread exhaustion) is an `Err`, not a
    /// panic: a server that cannot field requests should report that to
    /// its operator rather than take the whole replica process down. If
    /// at least one handler came up before the failure, the error still
    /// tears the partial server down (its `Drop` stops the survivors).
    pub fn start(rt: Runtime, handlers: usize) -> std::io::Result<TupleServer> {
        let (tx, rx) = crossbeam::channel::unbounded::<RpcRequest>();
        let mut server = TupleServer {
            tx,
            handlers: AtomicUsize::new(0),
            rt,
        };
        for i in 0..handlers.max(1) {
            let rx = rx.clone();
            let rt = server.rt.clone();
            std::thread::Builder::new()
                .name(format!("tuple-server-{i}"))
                .spawn(move || {
                    while let Ok(req) = rx.recv() {
                        match req {
                            RpcRequest::CreateTs { name, reply } => {
                                let _ = reply.send(rt.create_stable_ts(&name));
                            }
                            RpcRequest::Execute { ags, reply } => {
                                let _ = reply.send(rt.execute(&ags));
                            }
                            RpcRequest::Stop => return,
                        }
                    }
                })?;
            *server.handlers.get_mut() += 1;
        }
        Ok(server)
    }

    /// Render the backing host's metrics in Prometheus text format —
    /// the natural scrape point when non-replica clients go through RPC.
    pub fn metrics_text(&self) -> String {
        self.rt.metrics_text()
    }

    /// Connect a client with the given simulated one-way RPC latency.
    pub fn client(&self, rpc_latency: Duration) -> RpcClient {
        RpcClient {
            tx: self.tx.clone(),
            latency: rpc_latency,
        }
    }

    /// Stop the handler threads: each exits once it has served the
    /// requests queued ahead of its stop message. Idempotent. It does not
    /// wait for them, since a handler may be blocked in a call that only
    /// the runtime's shutdown ends.
    pub fn stop(&self) {
        for _ in 0..self.handlers.swap(0, Ordering::Relaxed) {
            let _ = self.tx.send(RpcRequest::Stop);
        }
    }
}

impl Drop for TupleServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// An FT-Linda client on a host with no local replica: every operation
/// pays one RPC round trip to the tuple server in addition to the normal
/// AGS cost.
#[derive(Clone)]
pub struct RpcClient {
    tx: crossbeam::channel::Sender<RpcRequest>,
    latency: Duration,
}

impl RpcClient {
    fn hop(&self) {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
    }

    /// Create (or look up) a stable space via the server.
    pub fn create_stable_ts(&self, name: &str) -> Result<TsId, FtError> {
        let (rtx, rrx) = crossbeam::channel::bounded(1);
        self.hop();
        self.tx
            .send(RpcRequest::CreateTs {
                name: name.into(),
                reply: rtx,
            })
            .map_err(|_| FtError::Shutdown)?;
        let r = rrx.recv().map_err(|_| FtError::Shutdown)?;
        self.hop();
        r
    }

    /// Execute an AGS via the server (blocking).
    pub fn execute(&self, ags: &Ags) -> Result<AgsOutcome, FtError> {
        let (rtx, rrx) = crossbeam::channel::bounded(1);
        self.hop();
        self.tx
            .send(RpcRequest::Execute {
                ags: Box::new(ags.clone()),
                reply: rtx,
            })
            .map_err(|_| FtError::Shutdown)?;
        let r = rrx.recv().map_err(|_| FtError::Shutdown)?;
        self.hop();
        r
    }
}

// ---------------------------------------------------------------------------
// HTTP exporter
// ---------------------------------------------------------------------------

/// Content providers for one member's HTTP endpoints. Each closure is
/// called per request, so responses always reflect live state. The trace
/// provider receives the parsed id and returns the assembled span tree as
/// JSON — for a cluster member it gathers spans from **every** replica's
/// log, not just the serving member's.
pub struct ExporterSources {
    /// `/metrics`: Prometheus text exposition.
    pub metrics: Arc<dyn Fn() -> String + Send + Sync>,
    /// `/healthz`: one JSON object of member liveness/digest status.
    pub health: Arc<dyn Fn() -> String + Send + Sync>,
    /// `/events`: recent structured events, one JSON object per line.
    pub events: Arc<dyn Fn() -> String + Send + Sync>,
    /// `/trace/<id>`: the cross-replica span tree for one AGS, as JSON.
    pub trace: Arc<dyn Fn(TraceId) -> String + Send + Sync>,
    /// `/introspect`: per-space signature histogram, blocked-AGS table
    /// and hot signatures as JSON; `None` renders 404 (introspection
    /// disabled on this cluster).
    pub introspect: Arc<dyn Fn() -> Option<String> + Send + Sync>,
    /// `/metrics/cluster`: Prometheus text merging the registries of the
    /// cluster itself and every live member — one scrape target for the
    /// whole group.
    pub cluster_metrics: Arc<dyn Fn() -> String + Send + Sync>,
    /// `/timeseries`: the bounded ring of periodic metric snapshots as
    /// JSON; `None` renders 404 (sampler disabled on this cluster).
    pub timeseries: Arc<dyn Fn() -> Option<String> + Send + Sync>,
    /// `/metrics/snapshot`: this process's merged registry snapshot in
    /// the `ftlsnap` wire format ([`linda_obs::RegistrySnapshot::to_wire`]).
    /// The federation *leaf*: it never fans out to peers, so fan-out
    /// endpoints can fetch it without recursion.
    pub snapshot: Arc<dyn Fn() -> String + Send + Sync>,
    /// `/spans/<id>`: this process's local spans of one trace in the
    /// `ftlspans` wire format ([`linda_obs::spans_wire`]) — the other
    /// federation leaf, fetched by peers assembling a cluster trace.
    pub spans: Arc<dyn Fn(TraceId) -> String + Send + Sync>,
    /// `/cluster/trace/<id>`: the federated span tree — local spans
    /// merged with every live peer's `/spans/<id>` — as JSON, with
    /// unreachable members listed in `truncated_hosts`.
    pub cluster_trace: Arc<dyn Fn(TraceId) -> String + Send + Sync>,
}

/// A tiny std-only HTTP/1.1 listener serving one member's observability
/// surface. GET-only, `Connection: close`, loopback by default — it is a
/// scrape endpoint, not a web server.
pub struct HttpExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpExporter {
    /// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port — the
    /// actual address is [`HttpExporter::addr`]) and serve `sources` on a
    /// background thread until [`HttpExporter::stop`].
    pub fn spawn(port: u16, sources: ExporterSources) -> std::io::Result<HttpExporter> {
        // `bind_reuse` (SO_REUSEADDR): a relaunched node must rebind its
        // fixed scrape port while the dead incarnation's connections are
        // still in TIME_WAIT.
        let listener = consul_sim::bind_reuse(SocketAddr::from(([127, 0, 0, 1], port)))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("http-exporter-{}", addr.port()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Ok(stream) = stream {
                        // Responses are small; serve on this thread.
                        let _ = serve_connection(stream, &sources);
                    }
                }
            })?;
        Ok(HttpExporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit: one loopback
    /// connect wakes its blocking `accept`. (Should even that connect
    /// fail, the thread is left to exit on its next connection.)
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            if TcpStream::connect(self.addr).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for HttpExporter {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(mut stream: TcpStream, sources: &ExporterSources) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head (or 4 KiB — paths we serve
    // are short, and we never read a body).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 4096 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "bad request"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed");
    }
    match path {
        "/metrics" => {
            let body = (sources.metrics)();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/metrics/cluster" => {
            let body = (sources.cluster_metrics)();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/metrics/snapshot" => {
            let body = (sources.snapshot)();
            respond(&mut stream, 200, "text/plain", &body)
        }
        "/introspect" => match (sources.introspect)() {
            Some(body) => respond(&mut stream, 200, "application/json", &body),
            None => respond(&mut stream, 404, "text/plain", "introspection disabled"),
        },
        "/timeseries" => match (sources.timeseries)() {
            Some(body) => respond(&mut stream, 200, "application/json", &body),
            None => respond(&mut stream, 404, "text/plain", "time-series sampler disabled"),
        },
        "/healthz" => {
            let body = (sources.health)();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/events" => {
            let body = (sources.events)();
            respond(&mut stream, 200, "application/x-ndjson", &body)
        }
        p if p.starts_with("/trace/") => match p["/trace/".len()..].parse::<TraceId>() {
            Ok(id) => {
                let body = (sources.trace)(id);
                respond(&mut stream, 200, "application/json", &body)
            }
            Err(e) => respond(&mut stream, 400, "text/plain", &e.to_string()),
        },
        p if p.starts_with("/spans/") => match p["/spans/".len()..].parse::<TraceId>() {
            Ok(id) => {
                let body = (sources.spans)(id);
                respond(&mut stream, 200, "text/plain", &body)
            }
            Err(e) => respond(&mut stream, 400, "text/plain", &e.to_string()),
        },
        p if p.starts_with("/cluster/trace/") => {
            match p["/cluster/trace/".len()..].parse::<TraceId>() {
                Ok(id) => {
                    let body = (sources.cluster_trace)(id);
                    respond(&mut stream, 200, "application/json", &body)
                }
                Err(e) => respond(&mut stream, 400, "text/plain", &e.to_string()),
            }
        }
        _ => respond(
            &mut stream,
            404,
            "text/plain",
            "not found; try /metrics /metrics/cluster /metrics/snapshot /introspect /timeseries /healthz /events /trace/<origin>-<local> /spans/<id> /cluster/trace/<id>",
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Render an [`linda_obs::Event`] ring as JSON lines (one object per
/// event, oldest first) — the `/events` payload.
pub fn events_json_lines(events: &[linda_obs::Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str("{\"kind\":\"");
        out.push_str(&linda_obs::json_escape(&ev.kind));
        out.push_str("\",\"fields\":{");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&linda_obs::json_escape(k));
            out.push_str("\":\"");
            out.push_str(&linda_obs::json_escape(v));
            out.push('"');
        }
        out.push_str("}}\n");
    }
    out
}

// ---------------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------------

/// GET `path` from another member's exporter at `addr`, returning
/// `(status, body)`. std-only with hard connect/read/write timeouts —
/// the federation endpoints call this per live peer, so a hung member
/// must cost a bounded wait, not a stuck scrape.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    // The exporter always closes after one response, so read to EOF.
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "response timed out",
                ));
            }
            Err(e) => return Err(e),
        }
        if std::time::Instant::now() > deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "response timed out",
            ));
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

// ---------------------------------------------------------------------------
// Push-gateway client
// ---------------------------------------------------------------------------

/// POST `body` (Prometheus text) to an `http://host:port/path` URL with a
/// short timeout, returning the response status code. std-only — the
/// push-gateway client counterpart of [`HttpExporter`], used by
/// [`crate::ClusterBuilder::push_gateway`] mode.
pub fn http_post_metrics(url: &str, body: &str) -> std::io::Result<u16> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidInput, m.to_string());
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| bad("push gateway URL must start with http://"))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let mut stream = TcpStream::connect(authority)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    // Read just the status line; push gateways answer 200/202 with an
    // empty body.
    let mut buf = Vec::with_capacity(128);
    let mut chunk = [0u8; 256];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(2).any(|w| w == b"\r\n") {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let line = String::from_utf8_lossy(&buf);
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed push gateway response"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use ftlinda_ags::{MatchField as MF, Operand};
    use linda_tuple::TypeTag;
    use std::net::TcpListener;

    #[test]
    fn rpc_client_round_trip() {
        let (cluster, rts) = Cluster::new(2);
        let server = TupleServer::start(rts[0].clone(), 2).unwrap();
        let client = server.client(Duration::ZERO);
        let ts = client.create_stable_ts("main").unwrap();
        client
            .execute(&Ags::out_one(ts, vec![Operand::cst("x"), Operand::cst(1)]))
            .unwrap();
        let o = client
            .execute(&Ags::in_one(ts, vec![MF::actual("x"), MF::bind(TypeTag::Int)]).unwrap())
            .unwrap();
        assert_eq!(o.bindings[0].as_int(), Some(1));
        cluster.shutdown();
    }

    #[test]
    fn rpc_and_direct_clients_interoperate() {
        let (cluster, rts) = Cluster::new(2);
        let server = TupleServer::start(rts[0].clone(), 1).unwrap();
        let client = server.client(Duration::ZERO);
        let ts = rts[1].create_stable_ts("shared").unwrap();
        let ts2 = client.create_stable_ts("shared").unwrap();
        assert_eq!(ts, ts2);
        client
            .execute(&Ags::out_one(ts, vec![Operand::cst("from-rpc")]))
            .unwrap();
        assert_eq!(
            rts[1].in_(ts, &linda_tuple::pat!("from-rpc")).unwrap(),
            linda_tuple::tuple!("from-rpc")
        );
        cluster.shutdown();
    }

    #[test]
    fn http_post_metrics_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 256];
            loop {
                let n = s.read(&mut chunk).unwrap();
                buf.extend_from_slice(&chunk[..n]);
                if n == 0 || String::from_utf8_lossy(&buf).contains("push_me 1") {
                    break;
                }
            }
            s.write_all(b"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            String::from_utf8_lossy(&buf).to_string()
        });
        let url = format!("http://{addr}/metrics/job/ftlinda/instance/0");
        let status = http_post_metrics(&url, "push_me 1\n").unwrap();
        assert_eq!(status, 202);
        let seen = server.join().unwrap();
        assert!(seen.starts_with("POST /metrics/job/ftlinda/instance/0 HTTP/1.1\r\n"));
        assert!(seen.contains("Content-Length: 10"));
        assert!(seen.ends_with("push_me 1\n"));
    }

    #[test]
    fn pushed_cluster_page_keeps_shard_labels_through_merge() {
        // Two "members", each contributing shard-labeled family children;
        // the pushed base-URL page must carry every child through the
        // snapshot merge (the old pusher sent only the bare cluster
        // registry, which has none).
        let member0 = linda_obs::Registry::new();
        member0
            .counter_family("ftlinda_shard_ags_total", "per-shard AGS applies")
            .with(&[("shard", "0")])
            .add(3);
        let member1 = linda_obs::Registry::new();
        member1
            .counter_family("ftlinda_shard_ags_total", "per-shard AGS applies")
            .with(&[("shard", "1")])
            .add(5);
        let cluster = linda_obs::Registry::new();
        let mut snap = cluster.snapshot();
        snap.merge(&member0.snapshot());
        snap.merge(&member1.snapshot());
        let page = snap.render();
        assert!(
            page.contains("ftlinda_shard_ags_total{shard=\"0\"} 3"),
            "{page}"
        );
        assert!(
            page.contains("ftlinda_shard_ags_total{shard=\"1\"} 5"),
            "{page}"
        );

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 512];
            loop {
                let n = s.read(&mut chunk).unwrap();
                buf.extend_from_slice(&chunk[..n]);
                if n == 0 || String::from_utf8_lossy(&buf).contains("shard=\"1\"") {
                    break;
                }
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            String::from_utf8_lossy(&buf).to_string()
        });
        let status = http_post_metrics(&format!("http://{addr}/"), &page).unwrap();
        assert_eq!(status, 200);
        let seen = server.join().unwrap();
        assert!(seen.contains("ftlinda_shard_ags_total{shard=\"0\"} 3"));
        assert!(seen.contains("ftlinda_shard_ags_total{shard=\"1\"} 5"));
    }

    #[test]
    fn http_post_metrics_rejects_bad_urls_and_dead_targets() {
        assert!(http_post_metrics("ftp://x/metrics", "m 1\n").is_err());
        // A port nothing listens on: connection refused surfaces as Err,
        // which the push thread counts as a push failure.
        assert!(http_post_metrics("http://127.0.0.1:1/metrics", "m 1\n").is_err());
    }

    #[test]
    fn rpc_latency_is_paid_per_call() {
        let (cluster, rts) = Cluster::new(2);
        let server = TupleServer::start(rts[0].clone(), 1).unwrap();
        let slow = server.client(Duration::from_millis(10));
        let ts = slow.create_stable_ts("main").unwrap();
        let t0 = std::time::Instant::now();
        slow.execute(&Ags::out_one(ts, vec![Operand::cst(1)]))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20), "two hops");
        cluster.shutdown();
    }
}
