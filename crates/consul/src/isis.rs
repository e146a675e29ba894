//! ISIS-style agreed-timestamp total-order multicast.
//!
//! The ablation counterpart (A1) to the sequencer: no coordinator, two
//! protocol phases. The sender multicasts a proposal; every member
//! answers with a proposed timestamp `(lamport_clock, member_id)`; the
//! sender picks the maximum and multicasts the commit; members hold
//! messages in a priority queue ordered by timestamp and deliver a
//! message once it is committed and no pending message could precede it.
//!
//! Message cost per broadcast is `3·n` (propose fan-out, one reply per
//! member, commit fan-out) versus the sequencer's `n`; latency is two
//! round trips versus one-and-a-half hops. The FT-Linda runtime uses the
//! sequencer; this implementation handles failure-free operation only and
//! exists to quantify the protocol choice (see DESIGN.md §6).

use crate::net::{HostId, NetConfig, NetEvent, SimNet, WireSized};
use crate::order::{Delivery, LocalId};
use crate::stats::OrderStats;
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

/// A proposed or final timestamp: `(lamport_clock, proposing_member)`.
/// The member id breaks ties, making the order total.
pub type Ts = (u64, u32);

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum IsisMsg {
    /// Sender → all: here is a message, propose a timestamp.
    Propose {
        /// Origin-local id.
        local: LocalId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Member → sender: my proposed timestamp for your message.
    ProposeTs {
        /// Origin-local id being answered.
        local: LocalId,
        /// Proposed timestamp.
        ts: Ts,
    },
    /// Sender → all: the agreed (maximum) timestamp.
    Commit {
        /// Origin-local id.
        local: LocalId,
        /// Final timestamp.
        ts: Ts,
    },
}

impl WireSized for IsisMsg {
    fn wire_size(&self) -> usize {
        match self {
            IsisMsg::Propose { payload, .. } => 1 + 8 + payload.len(),
            IsisMsg::ProposeTs { .. } => 1 + 8 + 12,
            IsisMsg::Commit { .. } => 1 + 8 + 12,
        }
    }
}

#[derive(Debug)]
struct PendingEntry {
    origin: HostId,
    local: LocalId,
    payload: Bytes,
    committed: bool,
}

struct State {
    me: HostId,
    universe: Vec<HostId>,
    clock: u64,
    net: SimNet<IsisMsg>,
    dtx: std::sync::mpsc::Sender<Delivery>,
    stats: Arc<OrderStats>,
    /// Priority queue keyed by (current) timestamp.
    pending: BTreeMap<(Ts, HostId, LocalId), PendingEntry>,
    /// Reverse index: which key a message currently sits under.
    keys: HashMap<(HostId, LocalId), (Ts, HostId, LocalId)>,
    /// Sender side: proposals collected for my outstanding broadcasts.
    collecting: HashMap<LocalId, (Vec<Ts>, usize)>,
    next_local: LocalId,
    delivered: u64,
}

impl State {
    fn on_msg(&mut self, from: HostId, msg: IsisMsg) {
        match msg {
            IsisMsg::Propose { local, payload } => {
                self.clock += 1;
                let ts: Ts = (self.clock, self.me.0);
                let key = (ts, from, local);
                self.pending.insert(
                    key,
                    PendingEntry {
                        origin: from,
                        local,
                        payload,
                        committed: false,
                    },
                );
                self.keys.insert((from, local), key);
                self.net
                    .send(self.me, from, IsisMsg::ProposeTs { local, ts });
            }
            IsisMsg::ProposeTs { local, ts } => {
                if let Some((props, want)) = self.collecting.get_mut(&local) {
                    props.push(ts);
                    if props.len() >= *want {
                        let final_ts = *props.iter().max().expect("nonempty");
                        self.collecting.remove(&local);
                        self.clock = self.clock.max(final_ts.0);
                        let me = self.me;
                        let dests: Vec<HostId> = self.universe.clone();
                        self.net.multicast(
                            me,
                            dests,
                            IsisMsg::Commit {
                                local,
                                ts: final_ts,
                            },
                        );
                    }
                }
            }
            IsisMsg::Commit { local, ts } => {
                self.clock = self.clock.max(ts.0);
                if let Some(old_key) = self.keys.remove(&(from, local)) {
                    if let Some(mut entry) = self.pending.remove(&old_key) {
                        entry.committed = true;
                        let new_key = (ts, from, local);
                        self.keys.insert((from, local), new_key);
                        self.pending.insert(new_key, entry);
                    }
                }
                self.try_deliver();
            }
        }
    }

    /// Deliver from the head of the queue while the head is committed: an
    /// uncommitted head could still end up with a larger final timestamp,
    /// but never a smaller one, so a committed head is stable.
    fn try_deliver(&mut self) {
        while let Some((&key, entry)) = self.pending.iter().next() {
            if !entry.committed {
                return;
            }
            let entry = self.pending.remove(&key).expect("present");
            self.keys.remove(&(entry.origin, entry.local));
            self.delivered += 1;
            self.stats.record_delivery();
            let _ = self.dtx.send(Delivery::App {
                seq: self.delivered,
                origin: entry.origin,
                local: entry.local,
                payload: entry.payload,
            });
        }
    }
}

/// Handle to one member of an ISIS ordering group.
pub struct IsisMember {
    me: HostId,
    state: Arc<Mutex<State>>,
    /// Locked, as in `SeqMember`, so the member can be shared between
    /// threads.
    deliveries: Mutex<std::sync::mpsc::Receiver<Delivery>>,
    stats: Arc<OrderStats>,
    stop: Arc<AtomicBool>,
}

/// Factory for an ISIS group over a simulated network (failure-free).
pub struct IsisGroup {
    net: SimNet<IsisMsg>,
    stats: Arc<OrderStats>,
}

impl IsisGroup {
    /// Create a group of `n` members.
    pub fn new(n: u32, cfg: NetConfig) -> (IsisGroup, Vec<IsisMember>) {
        let (net, rxs) = SimNet::<IsisMsg>::new(n, cfg);
        let universe: Vec<HostId> = (0..n).map(HostId).collect();
        let stats = Arc::new(OrderStats::default());
        let members = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let me = HostId(i as u32);
                let (dtx, drx) = std::sync::mpsc::channel();
                let state = Arc::new(Mutex::new(State {
                    me,
                    universe: universe.clone(),
                    clock: 0,
                    net: net.clone(),
                    dtx,
                    stats: stats.clone(),
                    pending: BTreeMap::new(),
                    keys: HashMap::new(),
                    collecting: HashMap::new(),
                    next_local: 1,
                    delivered: 0,
                }));
                let stop = Arc::new(AtomicBool::new(false));
                let member = IsisMember {
                    me,
                    state: state.clone(),
                    deliveries: Mutex::new(drx),
                    stats: stats.clone(),
                    stop: stop.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("isis-{me}"))
                    .spawn(move || loop {
                        if stop.load(AtomicOrdering::Relaxed) {
                            return;
                        }
                        match rx.recv_timeout(Duration::from_millis(50)) {
                            Ok(NetEvent::Msg { from, msg }) => state.lock().on_msg(from, msg),
                            Ok(_) => {} // no failure handling in the ablation protocol
                            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                        }
                    })
                    .expect("spawn isis member");
                member
            })
            .collect();
        (IsisGroup { net, stats }, members)
    }

    /// The simulated network (for stats).
    pub fn net(&self) -> &SimNet<IsisMsg> {
        &self.net
    }

    /// Ordering statistics.
    pub fn stats(&self) -> &OrderStats {
        &self.stats
    }

    /// Tear down the router.
    pub fn shutdown(&self) {
        self.net.shutdown();
    }
}

impl IsisMember {
    /// This member's host id.
    pub fn host(&self) -> HostId {
        self.me
    }

    /// Submit a payload for totally-ordered delivery.
    pub fn broadcast(&self, payload: Bytes) -> LocalId {
        self.stats.record_broadcast();
        let mut st = self.state.lock();
        let local = st.next_local;
        st.next_local += 1;
        let want = st.universe.len();
        st.collecting.insert(local, (Vec::new(), want));
        let me = st.me;
        let dests = st.universe.clone();
        st.net
            .multicast(me, dests, IsisMsg::Propose { local, payload });
        local
    }

    /// The ordered delivery stream, locked for as long as the guard
    /// lives.
    pub fn deliveries(&self) -> MutexGuard<'_, std::sync::mpsc::Receiver<Delivery>> {
        self.deliveries.lock()
    }

    /// Stop the member's protocol thread.
    pub fn stop(&self) {
        self.stop.store(true, AtomicOrdering::Relaxed);
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.state.lock().delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Instant;

    fn collect_n(m: &IsisMember, n: usize, within: Duration) -> Vec<Delivery> {
        let deadline = Instant::now() + within;
        let mut out = Vec::new();
        while out.len() < n && Instant::now() < deadline {
            if let Ok(d) = m.deliveries().recv_timeout(Duration::from_millis(20)) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn single_member() {
        let (g, ms) = IsisGroup::new(1, NetConfig::instant());
        ms[0].broadcast(Bytes::from_static(b"x"));
        let ds = collect_n(&ms[0], 1, Duration::from_secs(2));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].seq(), 1);
        g.shutdown();
    }

    #[test]
    fn three_members_agree_on_order() {
        let (g, ms) = IsisGroup::new(3, NetConfig::lan(Duration::from_micros(200)));
        let per = 20;
        for i in 0..per {
            for m in &ms {
                m.broadcast(Bytes::from(format!("{}-{}", m.host(), i)));
            }
        }
        let total = per * 3;
        let logs: Vec<Vec<Delivery>> = ms
            .iter()
            .map(|m| collect_n(m, total, Duration::from_secs(10)))
            .collect();
        for log in &logs {
            assert_eq!(log.len(), total);
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        g.shutdown();
    }

    #[test]
    fn exactly_once_under_concurrency() {
        let (g, ms) = IsisGroup::new(4, NetConfig::lan(Duration::from_micros(100)));
        let ms = Arc::new(ms);
        let per = 25;
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let ms = ms.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        ms[i].broadcast(Bytes::from(format!("{i}:{k}")));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let ds = collect_n(&ms[0], per * 4, Duration::from_secs(10));
        let mut seen = HashSet::new();
        for d in &ds {
            if let Delivery::App { payload, .. } = d {
                assert!(seen.insert(payload.clone()));
            }
        }
        assert_eq!(seen.len(), per * 4);
        g.shutdown();
    }

    #[test]
    fn message_cost_is_3n() {
        let (g, ms) = IsisGroup::new(4, NetConfig::instant());
        g.net().stats().reset();
        ms[1].broadcast(Bytes::from_static(b"m"));
        let _ = collect_n(&ms[1], 1, Duration::from_secs(2));
        std::thread::sleep(Duration::from_millis(50));
        let (msgs, _) = g.net().stats().snapshot();
        // n propose + n propose-ts + n commit = 12 for n = 4.
        assert_eq!(msgs, 12);
        g.shutdown();
    }

    #[test]
    fn delivered_count_tracks() {
        let (g, ms) = IsisGroup::new(2, NetConfig::instant());
        ms[0].broadcast(Bytes::from_static(b"a"));
        let _ = collect_n(&ms[0], 1, Duration::from_secs(2));
        assert_eq!(ms[0].delivered_count(), 1);
        g.shutdown();
    }
}
