//! The TCP transport against real sockets: frame reassembly across
//! arbitrary write boundaries, and hostile byte streams from untrusted
//! peers (truncation, garbage, oversized length claims). Every test
//! drives a live [`TcpMesh`] over loopback — nothing is mocked.

use bytes::Bytes;
use consul_sim::{HostId, NetEvent, SeqMsg, TcpConfig, TcpMesh};
use linda_obs::Registry;
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        })
        .collect()
}

/// A complete wire frame for lane 0 carrying `msg`, as a cooperating
/// peer would produce it: `[u32 BE body length][uvarint lane][SeqMsg]`.
fn frame(msg: &SeqMsg) -> Vec<u8> {
    let mut body = vec![0x00]; // uvarint lane 0
    body.extend_from_slice(&consul_sim::encode_seq_msg(msg));
    let mut f = (body.len() as u32).to_be_bytes().to_vec();
    f.extend_from_slice(&body);
    f
}

/// Handshake bytes claiming to be member `id`.
fn hello(id: u32) -> Vec<u8> {
    let mut h = b"FTL1".to_vec();
    h.extend_from_slice(&id.to_be_bytes());
    h
}

/// Start a single-lane mesh as member 0 of a 2-member universe; the
/// tests below play member 1 with a raw socket.
fn start_mesh() -> (
    TcpMesh,
    Vec<std::sync::mpsc::Receiver<NetEvent<SeqMsg>>>,
    Vec<SocketAddr>,
    Registry,
) {
    let addrs = free_addrs(2);
    let obs = Registry::default();
    let (mesh, rxs) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs).unwrap();
    (mesh, rxs, addrs, obs)
}

/// The mesh must still be able to deliver (loopback bypasses the
/// socket, so this proves the reader threads didn't take the process
/// down — the decode path is `catch`-free; a panic would abort).
fn assert_mesh_alive(mesh: &TcpMesh, rx: &std::sync::mpsc::Receiver<NetEvent<SeqMsg>>) {
    mesh.lane(0).send(
        HostId(0),
        SeqMsg::Ping {
            sent_us: 1,
            echo_us: 0,
            held_us: 0,
        },
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(NetEvent::Msg {
                from: HostId(0),
                msg: SeqMsg::Ping { .. },
            }) => return,
            Ok(_) => {}
            Err(_) => assert!(Instant::now() < deadline, "mesh stopped delivering"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frames survive the wire no matter how the sender's writes split
    /// them: a burst of messages is written in arbitrary chunk sizes
    /// (often mid-length-prefix, mid-varint, mid-payload) and must be
    /// reassembled intact, in order, with correct attribution.
    #[test]
    fn split_writes_reassemble_into_whole_frames(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600), 1..8),
        chunks in proptest::collection::vec(1usize..97, 1..12),
    ) {
        let (mesh, rxs, addrs, _obs) = start_mesh();
        let msgs: Vec<SeqMsg> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| SeqMsg::Submit {
                local: i as u64 + 1,
                payload: Bytes::from(p.clone()),
            })
            .collect();
        let mut stream_bytes = hello(1);
        for m in &msgs {
            stream_bytes.extend_from_slice(&frame(m));
        }
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        s.set_nodelay(true).unwrap();
        let mut off = 0;
        let mut ci = 0;
        while off < stream_bytes.len() {
            let n = chunks[ci % chunks.len()].min(stream_bytes.len() - off);
            s.write_all(&stream_bytes[off..off + n]).unwrap();
            s.flush().unwrap();
            off += n;
            ci += 1;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < msgs.len() {
            match rxs[0].recv_timeout(Duration::from_millis(100)) {
                Ok(NetEvent::Msg { from, msg }) => {
                    prop_assert_eq!(from, HostId(1));
                    got.push(msg);
                }
                Ok(_) => {}
                Err(_) => prop_assert!(
                    Instant::now() < deadline,
                    "only {} of {} frames arrived", got.len(), msgs.len()
                ),
            }
        }
        prop_assert_eq!(got, msgs);
        mesh.shutdown();
    }

    /// An untrusted peer feeding arbitrary garbage after a valid
    /// handshake can cost us at most its own connection: no panic, no
    /// unbounded allocation, and the mesh keeps serving. Valid frames
    /// that happen to be embedded are allowed through; everything else
    /// increments the rejection counter and drops the link.
    #[test]
    fn garbage_streams_never_panic_the_reader(
        junk in proptest::collection::vec(any::<u8>(), 1..2048),
        truncate_valid in any::<bool>(),
    ) {
        let (mesh, rxs, addrs, _obs) = start_mesh();
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        let mut bytes = hello(1);
        if truncate_valid {
            // A legitimate frame cut mid-body, then garbage: exercises
            // the resynchronization-is-impossible path.
            let f = frame(&SeqMsg::Submit {
                local: 9,
                payload: Bytes::from_static(b"about to be cut off"),
            });
            bytes.extend_from_slice(&f[..f.len() / 2]);
        }
        bytes.extend_from_slice(&junk);
        // The reader may drop the connection part-way through (RST on
        // unread bytes), so later writes may legitimately fail.
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        drop(s);
        assert_mesh_alive(&mesh, &rxs[0]);
        mesh.shutdown();
    }

    /// Length prefixes above the frame cap are refused *before* any
    /// buffer is sized from them — a 4 GiB claim must cost zero
    /// allocation, one counter tick, and the connection.
    #[test]
    fn oversized_length_claims_are_rejected_unallocated(
        claim in consul_sim::MAX_FRAME_BYTES as u32 + 1..=u32::MAX,
    ) {
        let (mesh, rxs, addrs, obs) = start_mesh();
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        let mut bytes = hello(1);
        bytes.extend_from_slice(&claim.to_be_bytes());
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        let deadline = Instant::now() + Duration::from_secs(5);
        while obs.snapshot().counter("ftlinda_frames_rejected_total") != Some(1) {
            prop_assert!(Instant::now() < deadline, "rejection never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_mesh_alive(&mesh, &rxs[0]);
        mesh.shutdown();
    }
}

/// Two live meshes exchanging sequencer traffic across real sockets,
/// with the byte/reconnect counters moving: the non-property smoke that
/// the full send → encode → socket → decode → deliver path works.
#[test]
fn two_meshes_converse_and_count_bytes() {
    let addrs = free_addrs(2);
    let obs0 = Registry::default();
    let obs1 = Registry::default();
    let (m0, _rx0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs0).unwrap();
    let (m1, rx1) = TcpMesh::start(TcpConfig::new(HostId(1), &addrs, 1), &obs1).unwrap();
    let msg = SeqMsg::Submit {
        local: 1,
        payload: Bytes::from_static(b"counted"),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        m0.lane(0).send(HostId(1), msg.clone());
        match rx1[0].recv_timeout(Duration::from_millis(100)) {
            Ok(NetEvent::Msg { from, msg: got }) => {
                assert_eq!(from, HostId(0));
                assert_eq!(got, msg);
                break;
            }
            _ => assert!(Instant::now() < deadline, "frame never arrived"),
        }
    }
    let family_sum = |obs: &Registry, name: &str| -> u64 {
        obs.snapshot()
            .counter_family(name)
            .map(|c| c.values().sum())
            .unwrap_or(0)
    };
    let sent = family_sum(&obs0, "ftlinda_net_sent_bytes_total");
    let recv = family_sum(&obs1, "ftlinda_net_recv_bytes_total");
    assert!(sent > 0, "sender must count link bytes");
    assert!(recv > 0, "receiver must count link bytes");
    m0.shutdown();
    m1.shutdown();
}

/// `ftlinda_net_queue_depth` counts the frames queued on a link right
/// now: a sampler reading it throughout a burst over a live mesh pair
/// never sees it negative, and it is back to 0 once every frame has been
/// written.
#[test]
fn queue_depth_gauge_returns_to_zero_after_a_burst() {
    const BURST: u64 = 2000;
    let addrs = free_addrs(2);
    let obs0 = Registry::default();
    let obs1 = Registry::default();
    let (m0, _rx0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs0).unwrap();
    let (m1, rx1) = TcpMesh::start(TcpConfig::new(HostId(1), &addrs, 1), &obs1).unwrap();
    let submit = |local: u64| SeqMsg::Submit {
        local,
        payload: Bytes::from_static(b"queued"),
    };
    // Wait for the link to come up: frames sent while it is down are
    // dropped.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        m0.lane(0).send(HostId(1), submit(0));
        if let Ok(NetEvent::Msg { .. }) = rx1[0].recv_timeout(Duration::from_millis(100)) {
            break;
        }
        assert!(Instant::now() < deadline, "link never came up");
    }
    let depth = obs0
        .gauge_family("ftlinda_net_queue_depth", "")
        .with(&[("peer", "1")]);
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let (depth, done) = (depth.clone(), done.clone());
        std::thread::spawn(move || {
            let mut min = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                min = min.min(depth.get());
            }
            min
        })
    };
    for local in 1..=BURST {
        m0.lane(0).send(HostId(1), submit(local));
    }
    let mut last = 0;
    while last < BURST {
        match rx1[0].recv_timeout(Duration::from_millis(100)) {
            Ok(NetEvent::Msg {
                msg: SeqMsg::Submit { local, .. },
                ..
            }) if local > 0 => last = local,
            Ok(_) => {}
            Err(_) => assert!(Instant::now() < deadline, "burst stalled at {last}"),
        }
    }
    while depth.get() != 0 {
        assert!(Instant::now() < deadline, "depth stuck at {}", depth.get());
        std::thread::sleep(Duration::from_millis(1));
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    assert_eq!(sampler.join().unwrap(), 0, "the gauge read negative");
    m0.shutdown();
    m1.shutdown();
}
