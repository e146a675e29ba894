//! Cluster assembly and fault injection.
//!
//! A [`Cluster`] is the simulated network of workstations: it owns the
//! Consul group and hands out one [`Runtime`] per host. Crashing and
//! restarting hosts goes through the cluster, mirroring how the paper's
//! evaluation kills workstations under a running application.
//!
//! The cluster also runs a *digest-divergence detector*: a background
//! thread that periodically cross-checks [`Runtime::applied_digest`]
//! across live hosts. Replica application is deterministic, so two hosts
//! at the same applied sequence number must have identical digests; a
//! mismatch means replica state has diverged (a bug, or deliberate fault
//! injection in tests) and is surfaced as a `digest_divergence` event
//! plus a `ftlinda_digest_divergence_total` counter on
//! [`Cluster::obs`].
//!
//! Unless disabled, the cluster also runs one [`HttpExporter`] per member
//! serving `/metrics`, `/healthz`, `/events` and `/trace/<id>` (see
//! [`ClusterBuilder::http_base_port`]), and — when a flight directory is
//! configured — a monitor thread that dumps full observability state to
//! disk on `digest_divergence`, `coordinator_failover` and
//! `rejoin_failed` events ([`ClusterBuilder::flight_dir`]).

use crate::federation::{federate_metrics, federate_trace, MemberSource};
use crate::flight::{FlightRecorder, FlightSection};
use crate::runtime::{Runtime, RuntimeConfig, Workers};
use crate::server::{events_json_lines, http_post_metrics, ExporterSources, HttpExporter};
use consul_sim::{
    BatchConfig, CheckpointConfig, HostId, NetConfig, SeqGroup, SeqMember, TcpConfig, TcpMesh,
};
use ftlinda_kernel::StoreConfig;
use linda_tuple::Signature;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Which wire the cluster's ordering traffic rides on.
///
/// `Sim` (the default) is the in-process simulated network every test and
/// experiment uses: all hosts live in one process, crashes and restarts
/// are injectable, latency is configurable. `Tcp` is a real deployment:
/// this process hosts exactly **one** member, speaking length-prefixed
/// frames over persistent TCP connections to its peers (each of which
/// runs its own process — see the `ftlinda-node` binary). Failure
/// detection over TCP is always heartbeat-based; a crash is a process
/// that died, and a restart is a process relaunched with `rejoin`.
#[derive(Debug, Clone)]
pub enum Transport {
    /// All hosts in-process over [`consul_sim::SimNet`].
    Sim,
    /// One member per process over real sockets.
    Tcp(TcpClusterConfig),
}

/// TCP deployment shape: who this process is and where everyone listens.
#[derive(Debug, Clone)]
pub struct TcpClusterConfig {
    /// This process's member id (an index into `addrs`).
    pub me: u32,
    /// Every member's sequencer address, ours included (we bind it).
    pub addrs: Vec<SocketAddr>,
    /// Boot outside the group and enter through the JoinReq → Snapshot
    /// rejoin path instead of assuming founding membership. Pass this
    /// when relaunching a member into a cluster that already ordered its
    /// failure.
    pub rejoin: bool,
}

/// Builder for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    hosts: u32,
    shards: u32,
    transport: Transport,
    net: NetConfig,
    divergence_period: Option<Duration>,
    batch: BatchConfig,
    ckpt: CheckpointConfig,
    http: bool,
    http_base_port: u16,
    flight_dir: Option<PathBuf>,
    starvation_after: Duration,
    introspection: bool,
    push: Option<(String, Duration)>,
    store: StoreConfig,
    store_overrides: Vec<(u64, StoreConfig)>,
    timeseries: Option<(Duration, usize)>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            hosts: 3,
            shards: 1,
            transport: Transport::Sim,
            net: NetConfig::instant(),
            divergence_period: Some(Duration::from_millis(10)),
            batch: BatchConfig::default(),
            ckpt: CheckpointConfig::default(),
            http: true,
            http_base_port: 0,
            flight_dir: None,
            starvation_after: Duration::from_secs(5),
            introspection: true,
            push: None,
            store: StoreConfig::default(),
            store_overrides: Vec::new(),
            timeseries: Some((Duration::from_secs(1), 512)),
        }
    }
}

impl ClusterBuilder {
    /// Number of hosts (replicas). The paper's prototype used 3 Sun-3s.
    pub fn hosts(mut self, n: u32) -> Self {
        self.hosts = n;
        self
    }

    /// Partition stable tuple spaces across `k` independently-sequenced
    /// replica groups, keyed by `(space, signature stable-hash)`. Every
    /// host replicates all `k` shards, but each shard runs its own
    /// sequencer, log and checkpoint stream, so statically single-shard
    /// AGSs (the overwhelmingly common case — see
    /// [`ftlinda_ags::static_keys`]) no longer contend for one total
    /// order. Cross-shard AGSs commit through the ordered three-leg
    /// protocol described in DESIGN.md §13. `k = 1` (the default) is the
    /// classic single-order deployment, wire-identical to pre-shard
    /// builds.
    pub fn shards(mut self, k: u32) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Per-signature override of [`ClusterBuilder::store_config`]: tuples
    /// and patterns whose signature matches `sig` use `cfg` instead of
    /// the space-wide default, in every space on every host. Derived
    /// state only — never affects match results or replicated digests.
    pub fn store_config_for(mut self, sig: &Signature, cfg: StoreConfig) -> Self {
        let hash = sig.stable_hash();
        self.store_overrides.retain(|(s, _)| *s != hash);
        self.store_overrides.push((hash, cfg));
        self
    }

    /// Select the transport: in-process [`Transport::Sim`] (default) or
    /// one-member-per-process [`Transport::Tcp`]. Under TCP the builder's
    /// `hosts` count is taken from the address list, failure detection is
    /// always heartbeat-based ([`ClusterBuilder::heartbeats`] tunes it),
    /// and [`ClusterBuilder::build`] can fail to bind — use
    /// [`ClusterBuilder::try_build`].
    pub fn transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Simulated network configuration (latency, jitter, detection delay).
    pub fn net(mut self, cfg: NetConfig) -> Self {
        self.net = cfg;
        self
    }

    /// LAN-like latency shortcut.
    pub fn latency(mut self, one_way: Duration) -> Self {
        self.net = NetConfig::lan(one_way);
        self
    }

    /// Use heartbeat-based failure detection instead of the simulated
    /// oracle detector: crashes are discovered from ping silence, as a
    /// real deployment would.
    pub fn heartbeats(mut self, period: Duration, timeout: Duration) -> Self {
        self.net.heartbeats = Some(consul_sim::Heartbeat { period, timeout });
        self
    }

    /// How often the divergence detector cross-checks replica digests.
    pub fn divergence_period(mut self, p: Duration) -> Self {
        self.divergence_period = Some(p);
        self
    }

    /// Disable the background divergence detector.
    pub fn no_divergence_detector(mut self) -> Self {
        self.divergence_period = None;
        self
    }

    /// Disable submit batching: every AGS is ordered with its own
    /// multicast, wire-identical to the pre-batching protocol.
    pub fn no_batching(mut self) -> Self {
        self.batch = BatchConfig::disabled();
        self
    }

    /// Order a checkpoint boundary roughly every `n` records. At each
    /// boundary every replica snapshots its kernel, the ordering layer
    /// truncates its log behind the boundary, and joiners/laggards are
    /// served the image plus only the log tail past it — rejoin cost is
    /// O(live state), not O(history). `0` disables checkpointing.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.ckpt.every = n;
        self
    }

    /// Keep taking periodic checkpoints but never truncate the log
    /// (joiners are still served the image; memory grows with history).
    /// Mostly useful for debugging compaction itself.
    pub fn no_compaction(mut self) -> Self {
        self.ckpt.compaction = false;
        self
    }

    /// Disable checkpointing entirely: rejoin replays the full ordered
    /// log from sequence 1, wire-identical to the pre-checkpoint
    /// protocol. Benchmarks with exact message-count assertions use this.
    pub fn no_checkpoints(mut self) -> Self {
        self.ckpt = CheckpointConfig::disabled();
        self
    }

    /// Do not start per-member HTTP exporters.
    pub fn no_http(mut self) -> Self {
        self.http = false;
        self
    }

    /// Base TCP port for the per-member HTTP exporters: host `i` serves
    /// on `127.0.0.1:(base + i)`. The default base of 0 gives every
    /// member an ephemeral port (resolve with [`Cluster::http_addr`]) —
    /// right for tests; a deployment picks a fixed base so scrape
    /// targets are predictable.
    pub fn http_base_port(mut self, base: u16) -> Self {
        self.http = true;
        self.http_base_port = base;
        self
    }

    /// Starvation-watchdog threshold: a blocked AGS older than this emits
    /// an `ags_starving` event (and again at every further multiple) and
    /// shows `"starving": true` in `/introspect`. Default 5 s;
    /// `Duration::ZERO` disables the watchdog.
    pub fn starvation_after(mut self, threshold: Duration) -> Self {
        self.starvation_after = threshold;
        self
    }

    /// Disable deep introspection: no per-signature occupancy/match-cost
    /// metric families, no starvation watchdog, and `/introspect` answers
    /// 404. The scalar pipeline metrics and all other endpoints remain.
    pub fn no_introspection(mut self) -> Self {
        self.introspection = false;
        self
    }

    /// Matching-engine tuning for every host's kernel: value-index
    /// promotion thresholds and the miss-cache capacity (see
    /// [`StoreConfig`]). Derived state only — it changes probe counts,
    /// never match results or the replicated digest, so hosts with
    /// different configs still converge.
    pub fn store_config(mut self, cfg: StoreConfig) -> Self {
        self.store = cfg;
        self
    }

    /// Push-gateway mode: every `interval`, POST each live member's
    /// Prometheus text to `url` + `/instance/<host>` (plus the cluster
    /// registry to `url` itself) instead of relying on scrapes. Failures
    /// are counted in `ftlinda_push_failures_total` on [`Cluster::obs`],
    /// never fatal.
    pub fn push_gateway(mut self, url: impl Into<String>, interval: Duration) -> Self {
        self.push = Some((url.into(), interval.max(Duration::from_millis(10))));
        self
    }

    /// Sampling interval of the in-memory metrics time-series ring
    /// (default 1 s). Every tick a background thread snapshots selected
    /// cluster gauges/counters — per-shard tuples, AGS totals, abort and
    /// retry counters, ordered multicasts, the load-imbalance gauge —
    /// into a bounded ring served as `/timeseries` on every member's
    /// exporter and included in flight-recorder dumps.
    pub fn timeseries_interval(mut self, interval: Duration) -> Self {
        let cap = self.timeseries.map_or(512, |(_, c)| c);
        self.timeseries = Some((interval.max(Duration::from_millis(10)), cap));
        self
    }

    /// Capacity of the time-series ring in snapshots (default 512). When
    /// full, the oldest snapshot is evicted; `/timeseries` reports how
    /// many were dropped.
    pub fn timeseries_capacity(mut self, cap: usize) -> Self {
        let interval = self.timeseries.map_or(Duration::from_secs(1), |(i, _)| i);
        self.timeseries = Some((interval, cap.max(2)));
        self
    }

    /// Disable the time-series sampler: no sampler thread, `/timeseries`
    /// answers 404, and the per-shard multicast/imbalance cluster gauges
    /// stay at their defaults.
    pub fn no_timeseries(mut self) -> Self {
        self.timeseries = None;
        self
    }

    /// Enable the flight recorder: on `digest_divergence`,
    /// `coordinator_failover` or `rejoin_failed` events, dump event
    /// rings, recent spans, order stats and per-member digests into
    /// `dir` (created if missing). Disabled by default.
    pub fn flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Build the cluster and one runtime per host.
    ///
    /// # Panics
    ///
    /// Under [`Transport::Tcp`] building can genuinely fail (the listen
    /// address may be taken); this convenience panics on that error.
    /// Deployment binaries should call [`ClusterBuilder::try_build`].
    pub fn build(self) -> (Cluster, Vec<Runtime>) {
        self.try_build().expect("cluster transport failed to start")
    }

    /// Build the cluster, surfacing transport startup errors. Under
    /// [`Transport::Sim`] this never fails and returns one runtime per
    /// host; under [`Transport::Tcp`] it returns exactly one runtime —
    /// the local member's.
    pub fn try_build(self) -> std::io::Result<(Cluster, Vec<Runtime>)> {
        match self.transport.clone() {
            Transport::Sim => Ok(self.build_sim()),
            Transport::Tcp(tcp) => self.build_tcp(tcp),
        }
    }

    fn build_sim(self) -> (Cluster, Vec<Runtime>) {
        // One independent sequencer group (own simulated network, own
        // log, own checkpoint stream) per shard. Per-shard local-id
        // bases keep broadcast ids globally unique so one waiting table
        // serves all K streams; per-shard seeds decorrelate jitter.
        let mut groups: Vec<SeqGroup> = Vec::with_capacity(self.shards as usize);
        let mut members_per_host: Vec<Vec<SeqMember>> =
            (0..self.hosts).map(|_| Vec::new()).collect();
        for i in 0..self.shards.max(1) {
            let mut net = self.net.clone();
            net.seed = net.seed.wrapping_add(u64::from(i).wrapping_mul(7919));
            let (group, members) =
                SeqGroup::new_with_base(self.hosts, net, self.batch, self.ckpt, u64::from(i) << 48);
            groups.push(group);
            for (h, m) in members.into_iter().enumerate() {
                members_per_host[h].push(m);
            }
        }
        let obs = Arc::new(linda_obs::Registry::new());
        self.assemble(groups, None, Vec::new(), obs, members_per_host)
    }

    /// One member of a multi-process TCP cluster: bind our listener,
    /// dial the peers, run one sequencer member per shard lane over the
    /// mesh, and wrap them in a single local [`Runtime`].
    fn build_tcp(self, tcp: TcpClusterConfig) -> std::io::Result<(Cluster, Vec<Runtime>)> {
        let shards = self.shards.max(1);
        let obs = Arc::new(linda_obs::Registry::new());
        let mut cfg = TcpConfig::new(HostId(tcp.me), &tcp.addrs, shards);
        if let Some(hb) = self.net.heartbeats {
            cfg.heartbeat = hb;
        }
        let (mesh, lane_rxs) = TcpMesh::start(cfg, &obs)?;
        let universe = mesh.universe();
        let me = mesh.me();
        let mut groups: Vec<SeqGroup> = Vec::with_capacity(shards as usize);
        let mut members: Vec<SeqMember> = Vec::with_capacity(shards as usize);
        for (i, rx) in lane_rxs.into_iter().enumerate() {
            let (group, member) = SeqGroup::tcp_member(
                mesh.lane(i as u32),
                universe.clone(),
                me,
                rx,
                self.batch,
                self.ckpt,
                (i as u64) << 48,
                !tcp.rejoin,
            );
            groups.push(group);
            members.push(member);
        }
        // Peer exporter addresses, derivable only under a fixed HTTP base
        // port: peer i's sequencer binds addrs[i], its exporter serves
        // the same interface at base + i. With an ephemeral base (tests)
        // the peers' ports are unknowable and federation stays local.
        let peer_http: Vec<(HostId, SocketAddr)> = if self.http && self.http_base_port != 0 {
            tcp.addrs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 != tcp.me)
                .map(|(i, a)| {
                    (
                        HostId(i as u32),
                        SocketAddr::new(a.ip(), self.http_base_port.wrapping_add(i as u16)),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(self.assemble(groups, Some(mesh), peer_http, obs, vec![members]))
    }

    /// The one place a [`Cluster`] is put together, for both transports:
    /// wrap each host's shard members in a [`Runtime`], then start the
    /// background services.
    fn assemble(
        self,
        groups: Vec<SeqGroup>,
        mesh: Option<TcpMesh>,
        peer_http: Vec<(HostId, SocketAddr)>,
        obs: Arc<linda_obs::Registry>,
        members_per_host: Vec<Vec<SeqMember>>,
    ) -> (Cluster, Vec<Runtime>) {
        let run_cfg = RuntimeConfig {
            // no_introspection() also silences the watchdog: starvation
            // ages come from the same deep-accounting layer.
            starvation_after: (self.introspection && !self.starvation_after.is_zero())
                .then_some(self.starvation_after),
            introspection: self.introspection,
            store: self.store,
            store_overrides: self.store_overrides.clone(),
        };
        let runtimes: Vec<Runtime> = members_per_host
            .into_iter()
            .map(|ms| Runtime::with_members(ms, run_cfg.clone()))
            .collect();
        let by_host: HashMap<HostId, Runtime> =
            runtimes.iter().map(|rt| (rt.host(), rt.clone())).collect();
        let cluster = Cluster {
            groups,
            mesh,
            peer_http,
            runtimes: Arc::new(Mutex::new(by_host)),
            obs,
            services: Workers::new(),
            exporters: Mutex::new(HashMap::new()),
            flight: self.flight_dir.clone().map(|dir| {
                Arc::new(FlightRecorder::new(dir).expect("create flight recorder directory"))
            }),
            timeseries: self
                .timeseries
                .map(|(_, cap)| Arc::new(linda_obs::TimeSeriesRing::with_capacity(cap))),
            run_cfg,
        };
        self.start_services(&cluster);
        (cluster, runtimes)
    }

    /// Background services common to both transports. The divergence
    /// detector and trace/metrics aggregation only see the runtimes in
    /// this process (all of them under Sim, just ours under TCP).
    fn start_services(&self, cluster: &Cluster) {
        if let Some(period) = self.divergence_period {
            cluster.spawn_detector(period);
        }
        if let Some((interval, _)) = self.timeseries {
            cluster.spawn_sampler(interval);
        }
        if self.http {
            cluster.spawn_exporters(self.http_base_port);
        }
        if cluster.flight.is_some() {
            cluster
                .spawn_flight_monitor(self.divergence_period.unwrap_or(Duration::from_millis(10)));
        }
        if let Some((url, interval)) = self.push.clone() {
            cluster.spawn_pusher(url, interval);
        }
    }
}

/// A running FT-Linda cluster over the simulated network.
pub struct Cluster {
    /// One ordering group per shard; `groups[0]` exists in every
    /// configuration and carries space creation.
    groups: Vec<SeqGroup>,
    /// The TCP mesh multiplexing every shard lane, when built with
    /// [`Transport::Tcp`] (`None` under Sim). Held for shutdown and
    /// per-link socket counters.
    mesh: Option<TcpMesh>,
    /// Peer members' HTTP exporter addresses — the federation targets
    /// for `/cluster/trace/<id>` and `/metrics/cluster`. Non-empty only
    /// under [`Transport::Tcp`] with a fixed
    /// [`ClusterBuilder::http_base_port`]; under Sim every member is in
    /// this process and federation needs no network.
    peer_http: Vec<(HostId, SocketAddr)>,
    /// Current runtime per host, replaced on restart so the divergence
    /// detector always samples the live incarnation.
    runtimes: Arc<Mutex<HashMap<HostId, Runtime>>>,
    /// Cluster-level registry: divergence counter + events.
    obs: Arc<linda_obs::Registry>,
    /// The periodic service threads: divergence detector, time-series
    /// sampler, flight monitor and push gateway, as configured.
    services: Workers,
    /// One HTTP exporter per member (empty when built with `no_http`).
    exporters: Mutex<HashMap<HostId, HttpExporter>>,
    /// Flight recorder, when a dump directory was configured.
    flight: Option<Arc<FlightRecorder>>,
    /// Bounded ring of periodic metric snapshots (`/timeseries`).
    timeseries: Option<Arc<linda_obs::TimeSeriesRing>>,
    /// Observability configuration every runtime (including restarted
    /// incarnations) is built with.
    run_cfg: RuntimeConfig,
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Convenience: `n` hosts, zero-latency network.
    pub fn new(n: u32) -> (Cluster, Vec<Runtime>) {
        Cluster::builder().hosts(n).build()
    }

    fn spawn_detector(&self, period: Duration) {
        let runtimes = self.runtimes.clone();
        let obs = self.obs.clone();
        let net = self.groups[0].transport().clone();
        let shards = self.groups.len();
        let divergences = obs.counter(
            "ftlinda_digest_divergence_total",
            "Replica digest mismatches observed at equal applied sequence",
        );
        // (shard, seq) pairs already reported, so a persistent
        // divergence is surfaced once, not every tick.
        let mut reported: HashSet<(usize, u64)> = HashSet::new();
        self.services
            .spawn_periodic("ftlinda-divergence".into(), period, move || {
                let live: HashSet<HostId> = net.live_hosts().into_iter().collect();
                // Divergence is a per-shard property: each shard's
                // replicas apply that shard's ordered prefix, so
                // equal (shard, seq) must imply equal digest. This
                // never false-positives on replicas that merely lag.
                for shard in 0..shards {
                    let samples: Vec<(HostId, u64, u64)> = {
                        let map = runtimes.lock();
                        map.iter()
                            .filter(|(h, _)| live.contains(h))
                            .map(|(h, rt)| {
                                let (seq, dig) = rt.applied_digest_shard(shard);
                                (*h, seq, dig)
                            })
                            .collect()
                    };
                    let mut by_seq: HashMap<u64, Vec<(HostId, u64)>> = HashMap::new();
                    for (h, seq, dig) in samples {
                        by_seq.entry(seq).or_default().push((h, dig));
                    }
                    for (seq, group) in by_seq {
                        if group.len() < 2 || reported.contains(&(shard, seq)) {
                            continue;
                        }
                        let first = group[0].1;
                        if group.iter().any(|(_, d)| *d != first) {
                            reported.insert((shard, seq));
                            divergences.inc();
                            let mut fields = vec![
                                ("shard".to_string(), shard.to_string()),
                                ("seq".to_string(), seq.to_string()),
                            ];
                            for (h, d) in &group {
                                fields.push((format!("digest_h{}", h.0), format!("{d:#x}")));
                            }
                            obs.events()
                                .emit(linda_obs::Event::new("digest_divergence", fields));
                        }
                    }
                }
            });
    }

    /// Cluster-level observability registry: the divergence counter and
    /// `digest_divergence` events live here (per-host pipeline metrics
    /// live on each [`Runtime::obs`]).
    pub fn obs(&self) -> Arc<linda_obs::Registry> {
        self.obs.clone()
    }

    /// Render cluster-level metrics in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.obs.render()
    }

    fn spawn_exporters(&self, base_port: u16) {
        let hosts: Vec<HostId> = {
            let mut hs: Vec<HostId> = self.runtimes.lock().keys().copied().collect();
            hs.sort_by_key(|h| h.0);
            hs
        };
        for host in hosts {
            let port = if base_port == 0 {
                0
            } else {
                base_port + host.0 as u16
            };
            // Every closure samples the runtimes map, not a pinned
            // Runtime, so endpoints keep reflecting the live incarnation
            // across crash/restart cycles (the exporter itself models an
            // out-of-process scrape sidecar and survives the simulated
            // crash).
            let runtimes = self.runtimes.clone();
            let metrics = {
                let runtimes = runtimes.clone();
                Arc::new(move || {
                    runtimes
                        .lock()
                        .get(&host)
                        .map(|rt| rt.metrics_text())
                        .unwrap_or_default()
                }) as Arc<dyn Fn() -> String + Send + Sync>
            };
            let health = {
                let runtimes = runtimes.clone();
                let net = self.groups[0].transport().clone();
                Arc::new(move || {
                    let live: HashSet<HostId> = net.live_hosts().into_iter().collect();
                    let map = runtimes.lock();
                    member_health_json(host, &live, map.get(&host))
                }) as Arc<dyn Fn() -> String + Send + Sync>
            };
            let events = {
                let runtimes = runtimes.clone();
                Arc::new(move || {
                    runtimes
                        .lock()
                        .get(&host)
                        .map(|rt| events_json_lines(&rt.obs().events().recent()))
                        .unwrap_or_default()
                }) as Arc<dyn Fn() -> String + Send + Sync>
            };
            // `/trace/<id>` and `/cluster/trace/<id>` serve the same
            // federated view: every in-process member's spans plus every
            // live peer process's `/spans/<id>`. Sources are built under
            // the lock (cheap clones) and the network is walked without
            // it, so a slow peer never blocks the runtimes map.
            let federated_trace = {
                let runtimes = runtimes.clone();
                let peer_http = self.peer_http.clone();
                let net = self.groups[0].transport().clone();
                Arc::new(move |id: linda_obs::TraceId| {
                    let sources = member_sources(&runtimes.lock(), &peer_http);
                    let live: HashSet<HostId> = net.live_hosts().into_iter().collect();
                    federate_trace(&sources, &live, id).to_json()
                }) as Arc<dyn Fn(linda_obs::TraceId) -> String + Send + Sync>
            };
            let trace = federated_trace.clone();
            let cluster_trace = federated_trace;
            // The federation leaf endpoints never fan out: `/spans/<id>`
            // and `/metrics/snapshot` serve only this member's state, so
            // a peer assembling its own cluster view can fetch them
            // without recursion.
            let spans = {
                let runtimes = runtimes.clone();
                Arc::new(move |id: linda_obs::TraceId| {
                    let map = runtimes.lock();
                    let mut spans: Vec<linda_obs::SpanRecord> = Vec::new();
                    let mut horizon: Option<u64> = None;
                    if let Some(rt) = map.get(&host) {
                        for obs in rt.obs_all() {
                            let log = obs.spans();
                            spans.extend(log.spans_of(id));
                            if let Some(h) = log.evicted_newest_micros() {
                                horizon = Some(horizon.map_or(h, |x| x.max(h)));
                            }
                        }
                    }
                    linda_obs::spans_wire(&spans, horizon)
                }) as Arc<dyn Fn(linda_obs::TraceId) -> String + Send + Sync>
            };
            let snapshot = {
                let runtimes = runtimes.clone();
                // Under TCP this process IS the member, so its leaf
                // snapshot carries the process-level cluster registry
                // too (mesh link counters, divergence counter); under
                // Sim the cluster registry is added once by whichever
                // federator serves the merged page.
                let obs = self.mesh.is_some().then(|| self.obs.clone());
                Arc::new(move || {
                    let member = runtimes.lock().get(&host).map(|rt| rt.metrics_snapshot());
                    match (&obs, member) {
                        (Some(obs), Some(m)) => {
                            let mut snap = obs.snapshot();
                            snap.merge(&m);
                            snap.to_wire()
                        }
                        (Some(obs), None) => obs.snapshot().to_wire(),
                        (None, Some(m)) => m.to_wire(),
                        (None, None) => linda_obs::Registry::new().snapshot().to_wire(),
                    }
                }) as Arc<dyn Fn() -> String + Send + Sync>
            };
            let introspect = {
                let runtimes = runtimes.clone();
                Arc::new(move || {
                    runtimes
                        .lock()
                        .get(&host)
                        .and_then(|rt| rt.introspect_json(HOT_SIGNATURES_TOP_K))
                }) as Arc<dyn Fn() -> Option<String> + Send + Sync>
            };
            let cluster_metrics = {
                let runtimes = runtimes.clone();
                let obs = self.obs.clone();
                let net = self.groups[0].transport().clone();
                let peer_http = self.peer_http.clone();
                Arc::new(move || {
                    let sources = member_sources(&runtimes.lock(), &peer_http);
                    let live: HashSet<HostId> = net.live_hosts().into_iter().collect();
                    federate_metrics(&sources, &live, &obs).render()
                }) as Arc<dyn Fn() -> String + Send + Sync>
            };
            let timeseries = {
                let ring = self.timeseries.clone();
                Arc::new(move || ring.as_ref().map(|r| r.to_json()))
                    as Arc<dyn Fn() -> Option<String> + Send + Sync>
            };
            match HttpExporter::spawn(
                port,
                ExporterSources {
                    metrics,
                    health,
                    events,
                    trace,
                    introspect,
                    cluster_metrics,
                    timeseries,
                    snapshot,
                    spans,
                    cluster_trace,
                },
            ) {
                Ok(exp) => {
                    self.exporters.lock().insert(host, exp);
                }
                Err(e) => {
                    // A busy fixed port shouldn't take the cluster down;
                    // surface it as an event instead.
                    self.obs.events().emit(linda_obs::Event::new(
                        "http_exporter_failed",
                        vec![
                            ("host".into(), host.0.to_string()),
                            ("port".into(), port.to_string()),
                            ("error".into(), e.to_string()),
                        ],
                    ));
                }
            }
        }
    }

    /// The HTTP exporter address of `host` (`None` when HTTP is disabled
    /// or the exporter failed to bind).
    pub fn http_addr(&self, host: HostId) -> Option<SocketAddr> {
        self.exporters.lock().get(&host).map(|e| e.addr())
    }

    /// Assemble the cluster-wide span tree for one AGS — the same view
    /// `/trace/<id>` and `/cluster/trace/<id>` serve over HTTP. Every
    /// member in this process contributes its span logs directly; under
    /// [`Transport::Tcp`] with a fixed HTTP base port, every live peer
    /// process is additionally scraped at `/spans/<id>` and its spans
    /// merged in with per-host attribution.
    /// [`linda_obs::TraceTree::truncated`] is set when any member's span
    /// ring has already evicted spans recent enough to belong to this
    /// trace, and live peers that could not be reached are listed in
    /// [`linda_obs::TraceTree::truncated_hosts`] — an incomplete tree is
    /// never silently presented as the whole story.
    pub fn trace(&self, id: linda_obs::TraceId) -> linda_obs::TraceTree {
        let sources = member_sources(&self.runtimes.lock(), &self.peer_http);
        let live: HashSet<HostId> = self.groups[0]
            .transport()
            .live_hosts()
            .into_iter()
            .collect();
        federate_trace(&sources, &live, id)
    }

    /// One Prometheus text page for the whole group: the cluster
    /// registry (divergence counter, push counters) merged with every
    /// *live* member's registry — counters/gauges/family children sum,
    /// histograms merge bucket-wise. Under [`Transport::Tcp`] the live
    /// peers' registries are fetched over `/metrics/snapshot`, so the
    /// page has the same shape as the in-process Sim one. Served as
    /// `/metrics/cluster` on every member's exporter.
    pub fn cluster_metrics_text(&self) -> String {
        let sources = member_sources(&self.runtimes.lock(), &self.peer_http);
        let live: HashSet<HostId> = self.groups[0]
            .transport()
            .live_hosts()
            .into_iter()
            .collect();
        federate_metrics(&sources, &live, &self.obs).render()
    }

    fn spawn_pusher(&self, url: String, interval: Duration) {
        let runtimes = self.runtimes.clone();
        let obs = self.obs.clone();
        let net = self.groups[0].transport().clone();
        let pushes = obs.counter(
            "ftlinda_pushes_total",
            "Successful metric pushes to the configured push gateway",
        );
        let failures = obs.counter(
            "ftlinda_push_failures_total",
            "Metric pushes the push gateway refused or never received",
        );
        self.services
            .spawn_periodic("ftlinda-push".into(), interval, move || {
                // Snapshot the texts first so no lock is held during
                // network I/O.
                let live: HashSet<HostId> = net.live_hosts().into_iter().collect();
                let pages: Vec<(String, String)> = {
                    let map = runtimes.lock();
                    let mut hosts: Vec<&HostId> = map.keys().collect();
                    hosts.sort_by_key(|h| h.0);
                    let mut pages: Vec<(String, String)> = hosts
                        .into_iter()
                        .filter(|h| live.contains(h))
                        .map(|h| {
                            (
                                format!("{}/instance/{}", url.trim_end_matches('/'), h.0),
                                map[h].metrics_text(),
                            )
                        })
                        .collect();
                    // The base-URL page is the merged cluster view,
                    // not the bare cluster registry: merging keeps
                    // the members' shard-labeled family children, so
                    // the gateway sees the same per-shard series as
                    // /metrics/cluster. Local-only: a dead peer's connect
                    // timeout would stall the tick.
                    pages.push((
                        url.trim_end_matches('/').to_string(),
                        federate_metrics(&member_sources(&map, &[]), &live, &obs).render(),
                    ));
                    pages
                };
                for (target, body) in pages {
                    match http_post_metrics(&target, &body) {
                        Ok(status) if (200..300).contains(&status) => pushes.inc(),
                        Ok(status) => {
                            failures.inc();
                            obs.events().emit(linda_obs::Event::new(
                                "push_failed",
                                vec![
                                    ("target".into(), target),
                                    ("status".into(), status.to_string()),
                                ],
                            ));
                        }
                        Err(e) => {
                            failures.inc();
                            obs.events().emit(linda_obs::Event::new(
                                "push_failed",
                                vec![("target".into(), target), ("error".into(), e.to_string())],
                            ));
                        }
                    }
                }
            });
    }

    /// Time-series sampler: every `interval`, refresh the cluster-level
    /// per-shard gauges (ordered multicasts per lane, tuple-load
    /// imbalance) and append one snapshot of the selected series to the
    /// bounded ring served as `/timeseries`.
    fn spawn_sampler(&self, interval: Duration) {
        let Some(ring) = self.timeseries.clone() else {
            return;
        };
        let runtimes = self.runtimes.clone();
        let obs = self.obs.clone();
        let net = self.groups[0].transport().clone();
        // Per-shard ordered-multicast counts are sampled from the
        // sequencer groups directly: OrderStats is ONE object per group,
        // so reading it here avoids multiplying by the replica count the
        // way a per-member mirror would under snapshot merging.
        let stats: Vec<Arc<consul_sim::OrderStats>> =
            self.groups.iter().map(|g| g.stats_handle()).collect();
        let shard_multicasts = obs.gauge_family(
            "ftlinda_shard_multicasts_total",
            "Ordered multicasts issued on each shard's sequencer lane (sampled)",
        );
        let imbalance = obs.gauge_merged(
            "ftlinda_shard_imbalance_bp",
            "Heaviest shard's excess tuple share in basis points (0 even, 10000 one shard)",
            linda_obs::GaugeMerge::Max,
        );
        self.services
            .spawn_periodic("ftlinda-timeseries".into(), interval, move || {
                for (i, s) in stats.iter().enumerate() {
                    shard_multicasts
                        .with(&[("shard", &i.to_string())])
                        .set(i64::try_from(s.ordered_multicasts()).unwrap_or(i64::MAX));
                }
                let live: HashSet<HostId> = net.live_hosts().into_iter().collect();
                // Local-only federation: the sampler must never pay
                // a peer connect timeout on its 1 s tick.
                let snap = {
                    let map = runtimes.lock();
                    federate_metrics(&member_sources(&map, &[]), &live, &obs)
                };
                // Tuple loads per shard, summed over replicas — the
                // replication factor is uniform, so the imbalance
                // ratio is unchanged by the sum.
                let loads: Vec<u64> = snap
                    .gauge_family("ftlinda_shard_tuples")
                    .map(|children| children.values().map(|v| (*v).max(0) as u64).collect())
                    .unwrap_or_default();
                imbalance.set(ftlinda_ags::imbalance_bp(&loads));
                let mut values = snap.series(
                    &[
                        "ftlinda_ags_completions_total",
                        "ftlinda_stable_tuples",
                        "ftlinda_blocked_ags",
                        "ftlinda_ags_starving_total",
                    ],
                    &[
                        "ftlinda_shard_tuples",
                        "ftlinda_shard_ags_total",
                        "ftlinda_shard_multicasts_total",
                        "ftlinda_xcommit_aborts_total",
                        "ftlinda_xcommit_retries_total",
                        "ftlinda_xlock_buffered_total",
                    ],
                );
                values.push((
                    "ftlinda_shard_imbalance_bp".to_string(),
                    ftlinda_ags::imbalance_bp(&loads),
                ));
                ring.sample(values);
            });
    }

    /// The in-memory metrics time-series ring, unless disabled with
    /// [`ClusterBuilder::no_timeseries`]. Serialized as `/timeseries` on
    /// every member's exporter.
    pub fn timeseries(&self) -> Option<Arc<linda_obs::TimeSeriesRing>> {
        self.timeseries.clone()
    }

    /// The flight-recorder dump directory, when one was configured.
    pub fn flight_dir(&self) -> Option<PathBuf> {
        self.flight.as_ref().map(|f| f.dir().to_path_buf())
    }

    /// Dump full observability state to the flight directory now.
    /// Returns `None` when no flight directory was configured. The
    /// monitor thread calls this automatically on trigger events; tests
    /// and operators can force a dump.
    pub fn flight_dump(&self, reason: &str) -> Option<std::io::Result<PathBuf>> {
        let flight = self.flight.as_ref()?;
        let live: Vec<HostId> = self.groups[0].transport().live_hosts();
        let sections = flight_sections(
            &self.runtimes.lock(),
            &self.obs,
            self.groups[0].stats(),
            &live,
            self.timeseries.as_deref(),
        );
        Some(flight.dump(reason, &sections))
    }

    fn spawn_flight_monitor(&self, period: Duration) {
        let Some(flight) = self.flight.clone() else {
            return;
        };
        let runtimes = self.runtimes.clone();
        let obs = self.obs.clone();
        let stats = self.groups[0].stats_handle();
        let net = self.groups[0].transport().clone();
        let ring = self.timeseries.clone();
        // Last-seen event counts per (scope, kind); a count that grows
        // triggers a dump, a count that shrinks means the source registry
        // was replaced (host restart) and resets the baseline.
        let mut seen: HashMap<(u32, &'static str), usize> = HashMap::new();
        const CLUSTER: u32 = u32::MAX;
        self.services
            .spawn_periodic("ftlinda-flight".into(), period, move || {
                let mut fire: Option<&'static str> = None;
                let mut check = |key: (u32, &'static str), count: usize| {
                    let last = seen.entry(key).or_insert(0);
                    if count > *last {
                        fire = Some(key.1);
                    }
                    *last = count;
                };
                check(
                    (CLUSTER, "digest_divergence"),
                    obs.events().recent_of("digest_divergence").len(),
                );
                {
                    let map = runtimes.lock();
                    for (h, rt) in map.iter() {
                        for kind in ["coordinator_failover", "rejoin_failed"] {
                            check((h.0, kind), rt.obs().events().recent_of(kind).len());
                        }
                    }
                }
                if let Some(reason) = fire {
                    let live: Vec<HostId> = net.live_hosts();
                    let sections =
                        flight_sections(&runtimes.lock(), &obs, &stats, &live, ring.as_deref());
                    let _ = flight.dump(reason, &sections);
                }
            });
    }

    /// Crash a host (fail-silent). Every surviving replica will deposit a
    /// `("failure", host)` tuple into each stable TS once the failure is
    /// detected and ordered.
    pub fn crash(&self, host: HostId) {
        for group in &self.groups {
            group.crash(host);
        }
    }

    /// Restart a crashed host. The fresh runtime replays the ordered log
    /// and converges to the surviving replicas' state; a `Join` record is
    /// ordered into the stream.
    pub fn restart(&self, host: HostId) -> Runtime {
        // The fresh incarnation keeps the cluster's observability
        // configuration (watchdog threshold, introspection switch).
        let members: Vec<SeqMember> = self.groups.iter().map(|g| g.restart(host)).collect();
        let rt = Runtime::with_members(members, self.run_cfg.clone());
        let old = self.runtimes.lock().insert(host, rt.clone());
        // Retire the incarnation this one replaces: its calls fail with
        // `FtError::Shutdown` and its threads exit.
        if let Some(old) = old {
            old.shutdown();
        }
        rt
    }

    /// Network statistics (physical messages/bytes) — experiment E9.
    /// Summed over all shards' simulated networks; under TCP the shard
    /// lanes share one mesh, whose socket-level counters this reports.
    pub fn net_stats(&self) -> (u64, u64) {
        if let Some(mesh) = &self.mesh {
            return mesh.stats().snapshot();
        }
        self.groups.iter().fold((0, 0), |(m, b), g| {
            let (gm, gb) = g.transport().stats_snapshot();
            (m + gm, b + gb)
        })
    }

    /// Reset network statistics between measurement phases.
    pub fn reset_net_stats(&self) {
        if let Some(mesh) = &self.mesh {
            mesh.stats().reset();
            return;
        }
        for group in &self.groups {
            group.transport().reset_stats();
        }
    }

    /// Hosts currently considered live by the failure detector (the
    /// oracle under Sim, heartbeat reachability under TCP). A TCP member
    /// that has not yet connected to any peer reports only itself.
    pub fn live_hosts(&self) -> Vec<HostId> {
        self.groups[0].transport().live_hosts()
    }

    /// Number of shards (independent ordering groups) in this cluster.
    pub fn shard_count(&self) -> usize {
        self.groups.len()
    }

    /// Ordering-layer statistics (shard 0's group; see
    /// [`Cluster::order_stats_shard`]).
    pub fn order_stats(&self) -> &consul_sim::OrderStats {
        self.groups[0].stats()
    }

    /// Ordering-layer statistics of one shard's group.
    pub fn order_stats_shard(&self, shard: usize) -> &consul_sim::OrderStats {
        self.groups[shard].stats()
    }

    /// The group-commit configuration the sequencer runs with.
    pub fn batch_config(&self) -> BatchConfig {
        self.groups[0].batch_config()
    }

    /// The checkpoint/compaction configuration the sequencer runs with.
    pub fn checkpoint_config(&self) -> CheckpointConfig {
        self.groups[0].checkpoint_config()
    }

    /// Tear everything down (idempotent).
    pub fn shutdown(&self) {
        self.services.stop();
        for (_, mut exp) in self.exporters.lock().drain() {
            exp.stop();
        }
        for rt in self.runtimes.lock().values() {
            rt.shutdown();
        }
        for group in &self.groups {
            group.shutdown();
        }
        if let Some(mesh) = &self.mesh {
            mesh.shutdown();
        }
    }
}

/// How many hot signatures `/introspect` lists cluster-wide.
const HOT_SIGNATURES_TOP_K: usize = 10;

/// Every member as a federation source: the runtimes in this process
/// directly, plus one remote source per known peer exporter (TCP with a
/// fixed HTTP base; peers already present locally are not duplicated).
fn member_sources(
    runtimes: &HashMap<HostId, Runtime>,
    peer_http: &[(HostId, SocketAddr)],
) -> Vec<MemberSource> {
    let mut out: Vec<MemberSource> = runtimes
        .values()
        .cloned()
        .map(MemberSource::Local)
        .collect();
    for (h, addr) in peer_http {
        if !runtimes.contains_key(h) {
            out.push(MemberSource::Remote {
                host: *h,
                http: *addr,
            });
        }
    }
    out.sort_by_key(|s| s.host().0);
    out
}

/// The `/healthz` JSON for one member: liveness, applied position,
/// digest, blocked-AGS count and any rejoin failure.
fn member_health_json(host: HostId, live: &HashSet<HostId>, rt: Option<&Runtime>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"host\":{},\"live\":{},\"view\":[",
        host.0,
        live.contains(&host)
    ));
    let mut view: Vec<u32> = live.iter().map(|h| h.0).collect();
    view.sort_unstable();
    for (i, h) in view.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&h.to_string());
    }
    out.push(']');
    match rt {
        Some(rt) => {
            let (seq, dig) = rt.applied_digest();
            out.push_str(&format!(
                ",\"applied_seq\":{seq},\"digest\":\"{dig:#018x}\",\"blocked\":{}",
                rt.blocked_len()
            ));
            match rt.checkpoint_seq() {
                Some(cs) => out.push_str(&format!(",\"checkpoint_seq\":{cs}")),
                None => out.push_str(",\"checkpoint_seq\":null"),
            }
            out.push_str(&format!(",\"log_base\":{}", rt.log_base()));
            match rt.rejoin_error() {
                Some(e) => out.push_str(&format!(
                    ",\"rejoin_error\":\"{}\"",
                    linda_obs::json_escape(&e)
                )),
                None => out.push_str(",\"rejoin_error\":null"),
            }
        }
        None => out.push_str(",\"applied_seq\":null"),
    }
    out.push_str("}\n");
    out
}

/// The sections of one flight-recorder dump: per-member event ring,
/// span log and applied digest, plus cluster-level events and
/// ordering-layer counters.
fn flight_sections(
    runtimes: &HashMap<HostId, Runtime>,
    obs: &linda_obs::Registry,
    stats: &consul_sim::OrderStats,
    live: &[HostId],
    timeseries: Option<&linda_obs::TimeSeriesRing>,
) -> Vec<FlightSection> {
    let live_set: HashSet<HostId> = live.iter().copied().collect();
    let mut hosts: Vec<HostId> = runtimes.keys().copied().collect();
    hosts.sort_by_key(|h| h.0);
    let mut sections = Vec::new();
    for h in hosts {
        let rt = &runtimes[&h];
        sections.push(FlightSection::new(
            format!("state host={}", h.0),
            member_health_json(h, &live_set, Some(rt)),
        ));
        sections.push(FlightSection::new(
            format!("events host={}", h.0),
            events_json_lines(&rt.obs().events().recent()),
        ));
        let mut spans = String::new();
        for s in rt.obs().spans().recent() {
            spans.push_str(&linda_obs::span_json(&s));
            spans.push('\n');
        }
        sections.push(FlightSection::new(format!("spans host={}", h.0), spans));
    }
    sections.push(FlightSection::new(
        "cluster events",
        events_json_lines(&obs.events().recent()),
    ));
    sections.push(FlightSection::new(
        "order stats",
        format!(
            "broadcasts={} delivered={} view_changes={} retransmits={} \
             ordered_multicasts={} batches={} batch_entries={}\n",
            stats.broadcasts(),
            stats.delivered(),
            stats.view_changes(),
            stats.retransmits(),
            stats.ordered_multicasts(),
            stats.batches(),
            stats.batch_entries()
        ),
    ));
    if let Some(ring) = timeseries {
        sections.push(FlightSection::new("timeseries", ring.to_json()));
    }
    sections
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
