//! Multi-socket UDP intake lanes: the million-peer fan-in path.
//!
//! A single `UdpSocket` serializes every peer's heartbeats through one
//! kernel receive queue and one reader thread, and that socket — not the
//! detectors — is what bounds intake. [`MultiUdpTransport`]
//! shards the receive side across `L` independent non-blocking sockets
//! (*lanes*), each drained by its own engine intake thread into its own
//! [`FrameBatch`] arena, so datagram receive, decode, and ring routing
//! all parallelize with the socket count.
//!
//! # Port fan-in
//!
//! The portable deployment binds each lane to a **distinct port**
//! (`base_port + i`, or OS-chosen when the base port is 0) and senders
//! pick a lane by hashing their process id — the same load-spreading
//! effect as `SO_REUSEPORT` kernel hashing without requiring platform
//! socket options (`std::net` exposes none, and this crate takes no
//! platform dependencies). On hosts with `SO_REUSEPORT` the same
//! `N sockets → N threads` topology applies; only the bind call differs.
//!
//! # Receive discipline
//!
//! Each lane's [`recv_batch`](Transport::recv_batch) drains its socket
//! until `EWOULDBLOCK`, the batch fills, or a per-call syscall budget is
//! spent — the budget bounds how long one drain can monopolize the
//! intake thread when a lane is firehosed, keeping the monitor's
//! publishes and stop-flag checks timely. Datagrams land straight in the
//! arena's frame cells, which are one byte longer
//! ([`PROBE_LEN`](crate::transport::PROBE_LEN)) than the longest frame a
//! transport carries ([`MAX_DATAGRAM`], 64 bytes; no wire frame exceeds
//! 40): a receive that fills a cell is an oversize datagram — detected
//! and counted, never truncated into a decodable-looking frame — and a
//! runt shorter than any wire frame ([`MIN_FRAME`]) is dropped before
//! decode.
//!
//! A lane made with [`UdpLane::bind`] is receive-only and takes
//! datagrams from **any** source — a million senders cannot share one
//! known address; authenticity is the checksum's job, liveness the
//! detector's. One made with [`UdpLane::connect`] is the point-to-point
//! endpoint (a heartbeat sender's socket, or a monitor with one known
//! peer): [`send`](Transport::send) goes to the peer and datagrams from
//! anyone else are dropped and counted apart from runts
//! ([`UdpLaneStats::foreign_dropped`]).
//!
//! Every counter is published through [`UdpLaneStats`] (single-writer:
//! only the lane's intake thread stores) and exported as
//! `udp.lane.<i>.*` metrics plus `udp.*` totals by
//! [`MultiUdpStats::export_metrics`].
//!
//! Downstream, the engine's lane thread stamps every heartbeat of a
//! drained batch with **one** clock read and publishes per-worker
//! groups through `push_batch` — see `engine.rs` for the stamp-skew
//! bound.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::TransportError;
use crate::snapshot::bump;
use crate::transport::{FrameBatch, Transport, MAX_DATAGRAM};
use crate::wire::MIN_FRAME;

/// Default per-`recv_batch` syscall budget for a lane.
pub const DEFAULT_RECV_BUDGET: usize = 4096;

/// Counters one lane's intake publishes. Single-writer: only the thread
/// draining the lane stores; readers (metrics export, benches) load.
#[derive(Debug, Default)]
pub struct UdpLaneStats {
    datagrams: AtomicU64,
    oversize: AtomicU64,
    short: AtomicU64,
    foreign: AtomicU64,
    syscalls: AtomicU64,
    batches: AtomicU64,
}

impl UdpLaneStats {
    /// Datagrams accepted into a batch.
    pub fn datagrams(&self) -> u64 {
        self.datagrams.load(Ordering::Relaxed)
    }

    /// Datagrams dropped for exceeding [`MAX_DATAGRAM`].
    pub fn oversize_dropped(&self) -> u64 {
        self.oversize.load(Ordering::Relaxed)
    }

    /// Datagrams dropped for being shorter than any wire frame.
    pub fn short_dropped(&self) -> u64 {
        self.short.load(Ordering::Relaxed)
    }

    /// Datagrams a [connected](UdpLane::connect) lane dropped because they
    /// did not come from its peer.
    pub fn foreign_dropped(&self) -> u64 {
        self.foreign.load(Ordering::Relaxed)
    }

    /// Receive syscalls issued — `recv` by an any-source lane,
    /// `recv_from` by a connected one — including the terminal
    /// `EWOULDBLOCK` probe of each drain.
    pub fn syscalls(&self) -> u64 {
        self.syscalls.load(Ordering::Relaxed)
    }

    /// `recv_batch` calls that stored at least one frame.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Mean syscalls per non-empty batch — the syscall-batching win.
    pub fn syscalls_per_batch(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.syscalls() as f64 / batches as f64
    }
}

/// One non-blocking UDP socket with budgeted batch draining and
/// per-lane counters: an any-source intake lane ([`bind`](UdpLane::bind))
/// or a point-to-point endpoint ([`connect`](UdpLane::connect)).
#[derive(Debug)]
pub struct UdpLane {
    socket: UdpSocket,
    /// Where sends go and the only source receives accept; `None` for an
    /// any-source, receive-only intake lane.
    peer: Option<SocketAddr>,
    stats: Arc<UdpLaneStats>,
    /// Receive syscalls one `recv_batch` call may spend.
    recv_budget: usize,
}

impl UdpLane {
    /// Binds a receive-only, any-source lane on `local` (port 0 =
    /// OS-chosen).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the socket cannot be bound or made
    /// non-blocking.
    pub fn bind(local: SocketAddr) -> Result<Self, TransportError> {
        UdpLane::open(local, None)
    }

    /// Binds `local` as one end of a point-to-point link: sends go to
    /// `peer`, and only datagrams from `peer` are received.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the socket cannot be bound or made
    /// non-blocking.
    pub fn connect(local: SocketAddr, peer: SocketAddr) -> Result<Self, TransportError> {
        UdpLane::open(local, Some(peer))
    }

    fn open(local: SocketAddr, peer: Option<SocketAddr>) -> Result<Self, TransportError> {
        let socket = UdpSocket::bind(local)?;
        socket.set_nonblocking(true)?;
        Ok(UdpLane {
            socket,
            peer,
            stats: Arc::new(UdpLaneStats::default()),
            recv_budget: DEFAULT_RECV_BUDGET,
        })
    }

    /// The lane's bound address — senders target this.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the OS cannot report the address.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        Ok(self.socket.local_addr()?)
    }

    /// Shared handle to this lane's counters (clone it before moving the
    /// lane into an engine).
    pub fn stats(&self) -> Arc<UdpLaneStats> {
        Arc::clone(&self.stats)
    }
}

impl Transport for UdpLane {
    /// Sends `frame` to the peer of a [connected](UdpLane::connect)
    /// lane; a [bound](UdpLane::bind) lane is receive-only and refuses.
    /// Oversize frames are rejected here: the receive side would drop
    /// them anyway, and surfacing the error at the source names the bug.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let Some(peer) = self.peer else {
            return Err(TransportError::Io(
                // lint:allow(no-alloc-in-hot-path, cold error path: a send on a receive-only lane)
                "UDP intake lane is receive-only".to_owned(),
            ));
        };
        if frame.len() > MAX_DATAGRAM {
            // lint:allow(no-alloc-in-hot-path, cold error path: an oversize frame refused)
            return Err(TransportError::Io(format!(
                "frame of {} bytes exceeds MAX_DATAGRAM ({MAX_DATAGRAM})",
                frame.len()
            )));
        }
        // A full send buffer is a transient fault: it surfaces as an I/O
        // error and the retry layer backs off.
        self.socket.send_to(frame, peer)?;
        Ok(())
    }

    /// The one UDP receive loop: a budgeted drain-until-`EWOULDBLOCK`
    /// straight into the arena slots — one syscall per datagram (`recv`
    /// on an any-source lane, `recv_from` on a connected one), zero
    /// copies beyond the kernel's, zero heap allocations. An any-source
    /// lane has no use for the source address, so it does not ask the
    /// kernel to write one out. Datagrams from anyone but a connected
    /// lane's peer are noise, not heartbeats: consumed, counted,
    /// discarded — as are runts shorter than a wire frame and datagrams
    /// that fill the probe-sized slot (oversize). A hard error is
    /// returned after the counters are stored.
    fn recv_batch(&mut self, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        let (socket, peer) = (&self.socket, self.peer);
        let (mut got, mut syscalls) = (0usize, 0u64);
        let (mut foreign, mut short, mut oversize) = (0u64, 0u64, 0u64);
        let mut outcome = Ok(());
        let mut drained = false;
        while !batch.is_full() && !drained && outcome.is_ok() && syscalls < self.recv_budget as u64
        {
            syscalls += 1;
            batch.push_with(|buf| {
                // `None`: the datagram came from a stranger.
                let received = match peer {
                    None => socket.recv(buf).map(Some),
                    Some(peer) => socket
                        .recv_from(buf)
                        .map(|(n, from)| (from == peer).then_some(n)),
                };
                match received {
                    Ok(None) => {
                        foreign += 1;
                        None
                    }
                    Ok(Some(n)) if n < MIN_FRAME => {
                        short += 1;
                        None
                    }
                    Ok(Some(n)) if n > MAX_DATAGRAM => {
                        oversize += 1;
                        None
                    }
                    Ok(Some(n)) => {
                        got += 1;
                        Some(n)
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        drained = true;
                        None
                    }
                    // A prior send to an unbound peer can surface here as
                    // ECONNREFUSED; the peer being down is the detector's
                    // business, not a transport failure.
                    Err(e) if e.kind() == ErrorKind::ConnectionRefused => None,
                    Err(e) => {
                        outcome = Err(e.into());
                        None
                    }
                }
            });
        }
        bump(&self.stats.syscalls, syscalls);
        bump(&self.stats.oversize, oversize);
        bump(&self.stats.foreign, foreign);
        bump(&self.stats.short, short);
        bump(&self.stats.datagrams, got as u64);
        if got > 0 {
            bump(&self.stats.batches, 1);
        }
        outcome.map(|()| got)
    }
}

/// Cloneable read side of a lane group's counters, usable after the
/// lanes themselves have moved into an engine.
#[derive(Debug, Clone)]
pub struct MultiUdpStats {
    per_lane: Vec<Arc<UdpLaneStats>>,
}

impl MultiUdpStats {
    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.per_lane.len()
    }

    /// One lane's counters.
    pub fn lane(&self, i: usize) -> &UdpLaneStats {
        &self.per_lane[i]
    }

    /// Sum of accepted datagrams across lanes.
    pub fn datagrams(&self) -> u64 {
        self.per_lane.iter().map(|l| l.datagrams()).sum()
    }

    /// Sum of oversize drops across lanes.
    pub fn oversize_dropped(&self) -> u64 {
        self.per_lane.iter().map(|l| l.oversize_dropped()).sum()
    }

    /// Sum of short-datagram drops across lanes.
    pub fn short_dropped(&self) -> u64 {
        self.per_lane.iter().map(|l| l.short_dropped()).sum()
    }

    /// Sum of not-from-the-peer drops across (connected) lanes.
    pub fn foreign_dropped(&self) -> u64 {
        self.per_lane.iter().map(|l| l.foreign_dropped()).sum()
    }

    /// Sum of receive syscalls across lanes.
    pub fn syscalls(&self) -> u64 {
        self.per_lane.iter().map(|l| l.syscalls()).sum()
    }

    /// Publishes per-lane counters under `udp.lane.<i>.*` and totals
    /// under `udp.*` into `registry`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        for (i, lane) in self.per_lane.iter().enumerate() {
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .counter(&format!("udp.lane.{i}.datagrams"))
                .set(lane.datagrams());
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .counter(&format!("udp.lane.{i}.oversize_dropped"))
                .set(lane.oversize_dropped());
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .counter(&format!("udp.lane.{i}.short_dropped"))
                .set(lane.short_dropped());
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .counter(&format!("udp.lane.{i}.foreign_dropped"))
                .set(lane.foreign_dropped());
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .counter(&format!("udp.lane.{i}.syscalls"))
                .set(lane.syscalls());
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .gauge(&format!("udp.lane.{i}.syscalls_per_batch"))
                .set(lane.syscalls_per_batch());
        }
        registry.counter("udp.datagrams").set(self.datagrams());
        registry
            .counter("udp.oversize_dropped")
            .set(self.oversize_dropped());
        registry
            .counter("udp.short_dropped")
            .set(self.short_dropped());
        registry
            .counter("udp.foreign_dropped")
            .set(self.foreign_dropped());
        registry.counter("udp.syscalls").set(self.syscalls());
        registry.gauge("udp.lanes").set(self.lanes() as f64);
    }
}

/// A group of UDP intake lanes bound on distinct ports.
///
/// Build it, hand the per-lane addresses to senders (each sender hashes
/// its id onto a lane with [`lane_for`](MultiUdpTransport::lane_for)),
/// keep a [`stats`](MultiUdpTransport::stats) handle, and move the lanes
/// into a `ParallelShardEngine` with
/// [`into_lanes`](MultiUdpTransport::into_lanes).
#[derive(Debug)]
pub struct MultiUdpTransport {
    lanes: Vec<UdpLane>,
}

impl MultiUdpTransport {
    /// Binds `lanes` sockets (floored at 1). With `local.port() == 0`
    /// every lane gets an OS-chosen port; otherwise lane `i` binds
    /// `local.port() + i`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if any socket cannot be bound (e.g. a
    /// fixed port range collides) or a fixed port range overflows
    /// `u16`.
    pub fn bind(local: SocketAddr, lanes: usize) -> Result<Self, TransportError> {
        let lanes = lanes.max(1);
        let mut bound = Vec::with_capacity(lanes);
        for i in 0..lanes {
            let mut addr = local;
            if local.port() != 0 {
                let port = local.port().checked_add(i as u16).ok_or_else(|| {
                    // lint:allow(no-alloc-in-hot-path, cold error path: the lane port range overflows)
                    TransportError::Io(format!(
                        "lane port range {}+{lanes} overflows u16",
                        local.port()
                    ))
                })?;
                addr.set_port(port);
            }
            bound.push(UdpLane::bind(addr)?);
        }
        Ok(MultiUdpTransport { lanes: bound })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Every lane's bound address, lane-indexed.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the OS cannot report an address.
    pub fn local_addrs(&self) -> Result<Vec<SocketAddr>, TransportError> {
        // lint:allow(no-alloc-in-hot-path, set-up API, off the frame path)
        self.lanes.iter().map(UdpLane::local_addr).collect()
    }

    /// The lane a sender with `id` should target — the same Fibonacci
    /// multiplicative hash the shard router uses, so senders spread
    /// uniformly without coordination.
    pub fn lane_for(id: u32, lanes: usize) -> usize {
        crate::snapshot::shard_index(afd_core::process::ProcessId::new(id), lanes.max(1))
    }

    /// Cloneable counter handles that outlive the lanes' move into an
    /// engine.
    pub fn stats(&self) -> MultiUdpStats {
        MultiUdpStats {
            // lint:allow(no-alloc-in-hot-path, stats snapshot API, off the frame path)
            per_lane: self.lanes.iter().map(UdpLane::stats).collect(),
        }
    }

    /// Consumes the group into its lanes, ready for
    /// `ParallelShardEngine::start_lanes`.
    pub fn into_lanes(self) -> Vec<UdpLane> {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, SocketAddrV4};
    use std::time::Duration;

    fn loopback_any() -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
    }

    fn drain_expect(lane: &mut UdpLane, batch: &mut FrameBatch, want: usize) -> usize {
        let mut got = 0usize;
        for _ in 0..200 {
            got += lane.recv_batch(batch).unwrap();
            if got >= want {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn lanes_bind_distinct_ports() {
        let multi = MultiUdpTransport::bind(loopback_any(), 4).unwrap();
        let addrs = multi.local_addrs().unwrap();
        assert_eq!(addrs.len(), 4);
        let mut ports: Vec<u16> = addrs.iter().map(SocketAddr::port).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4, "every lane has its own port");
    }

    #[test]
    fn lane_accepts_any_source_and_counts() {
        let multi = MultiUdpTransport::bind(loopback_any(), 1).unwrap();
        let addr = multi.local_addrs().unwrap()[0];
        let stats = multi.stats();
        let mut lanes = multi.into_lanes();
        let lane = &mut lanes[0];

        let s1 = UdpSocket::bind(loopback_any()).unwrap();
        let s2 = UdpSocket::bind(loopback_any()).unwrap();
        // The shortest datagram a frame can be is kept; one byte fewer is
        // a runt.
        s1.send_to(&[b'a'; MIN_FRAME], addr).unwrap();
        s2.send_to(&[b'g'; MIN_FRAME], addr).unwrap();
        s1.send_to(&[0u8; MAX_DATAGRAM + 1], addr).unwrap(); // oversize
        s2.send_to(&[b'x'; MIN_FRAME - 1], addr).unwrap(); // runt

        let mut batch = FrameBatch::with_capacity(16);
        assert_eq!(drain_expect(lane, &mut batch, 2), 2);
        // Give the two drop-path datagrams time to land too.
        for _ in 0..200 {
            if stats.oversize_dropped() + stats.short_dropped() >= 2 {
                break;
            }
            lane.recv_batch(&mut batch).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stats.datagrams(), 2);
        assert_eq!(stats.oversize_dropped(), 1);
        assert_eq!(stats.short_dropped(), 1);
        // Two sources, and the lane never asked who: nobody is a stranger.
        assert_eq!(stats.foreign_dropped(), 0);
        assert!(stats.syscalls() >= 3, "at least datagrams + final probe");
    }

    #[test]
    fn recv_budget_bounds_one_drain() {
        let multi = MultiUdpTransport::bind(loopback_any(), 1).unwrap();
        let addr = multi.local_addrs().unwrap()[0];
        let mut lanes = multi.into_lanes();
        let lane = &mut lanes[0];
        lane.recv_budget = 3;

        let s = UdpSocket::bind(loopback_any()).unwrap();
        for _ in 0..10 {
            s.send_to(b"abcdef", addr).unwrap();
        }
        std::thread::sleep(Duration::from_millis(30));
        let mut batch = FrameBatch::with_capacity(16);
        let got = lane.recv_batch(&mut batch).unwrap();
        assert!(got <= 3, "budget of 3 syscalls caps the drain, got {got}");
        // Subsequent calls pick up the rest.
        let total = got + drain_expect(lane, &mut batch, 10 - got);
        assert_eq!(total, 10);
    }

    #[test]
    fn lane_for_spreads_and_is_stable() {
        let lanes = 4usize;
        let mut hit = vec![0usize; lanes];
        for id in 0..4096u32 {
            let l = MultiUdpTransport::lane_for(id, lanes);
            assert_eq!(l, MultiUdpTransport::lane_for(id, lanes));
            hit[l] += 1;
        }
        for (i, h) in hit.iter().enumerate() {
            assert!(
                *h > 4096 / lanes / 2,
                "lane {i} underloaded: {h} of 4096 ids"
            );
        }
    }

    #[test]
    fn lane_send_is_rejected() {
        let multi = MultiUdpTransport::bind(loopback_any(), 1).unwrap();
        let mut lanes = multi.into_lanes();
        assert!(matches!(lanes[0].send(b"nope"), Err(TransportError::Io(_))));
    }

    /// A receive-only lane and a lane connected to it.
    fn link() -> (UdpLane, UdpLane) {
        let rx = UdpLane::bind(loopback_any()).unwrap();
        let tx = UdpLane::connect(loopback_any(), rx.local_addr().unwrap()).unwrap();
        (tx, rx)
    }

    /// A raw socket and a lane connected to it, so the test can put any
    /// bytes on the wire as "the peer".
    fn raw_peer() -> (UdpSocket, UdpLane, SocketAddr) {
        let raw = UdpSocket::bind(loopback_any()).unwrap();
        let lane = UdpLane::connect(loopback_any(), raw.local_addr().unwrap()).unwrap();
        let addr = lane.local_addr().unwrap();
        (raw, lane, addr)
    }

    fn frames(batch: &FrameBatch) -> Vec<Vec<u8>> {
        batch.iter().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn connected_lane_roundtrips_over_loopback() {
        let (mut tx, mut rx) = link();
        tx.send(b"heartbeat").unwrap();
        let mut batch = FrameBatch::with_capacity(4);
        assert_eq!(drain_expect(&mut rx, &mut batch, 1), 1);
        assert_eq!(frames(&batch), vec![b"heartbeat".to_vec()]);
        batch.clear();
        assert_eq!(rx.recv_batch(&mut batch).unwrap(), 0);
    }

    #[test]
    fn connected_lane_drops_and_counts_strangers() {
        let (_peer, mut lane, addr) = raw_peer();
        let stats = lane.stats();
        let stranger = UdpSocket::bind(loopback_any()).unwrap();
        stranger.send_to(b"mallory", addr).unwrap();
        let mut batch = FrameBatch::with_capacity(4);
        for _ in 0..200 {
            assert_eq!(lane.recv_batch(&mut batch).unwrap(), 0);
            if stats.foreign_dropped() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(batch.is_empty(), "a stranger's datagram is not a frame");
        assert_eq!(stats.foreign_dropped(), 1);
        // One outcome counter per datagram: nothing else moved.
        assert_eq!(stats.datagrams(), 0);
        assert_eq!(stats.short_dropped(), 0);
        assert_eq!(stats.oversize_dropped(), 0);
        assert_eq!(stats.batches(), 0);
    }

    #[test]
    fn oversize_datagram_from_the_peer_is_dropped_and_counted_not_truncated() {
        // Regression: before the probe-sized receive buffer, a datagram
        // of MAX_DATAGRAM+1 bytes was silently truncated to MAX_DATAGRAM
        // and accepted as a frame. Send one from the peer's raw socket
        // (bypassing the send-side size guard) and a valid one after it.
        let (peer, mut lane, addr) = raw_peer();
        let stats = lane.stats();
        let big = [0u8; MAX_DATAGRAM + 1];
        peer.send_to(&big, addr).unwrap();
        peer.send_to(b"in-size", addr).unwrap();
        let mut batch = FrameBatch::with_capacity(8);
        assert_eq!(
            drain_expect(&mut lane, &mut batch, 1),
            1,
            "only the valid datagram is a frame"
        );
        assert_eq!(stats.oversize_dropped(), 1, "the oversize one was counted");
        assert_eq!(frames(&batch), vec![b"in-size".to_vec()]);
        assert_eq!(stats.foreign_dropped(), 0);
        // A one-slot arena detects it too.
        peer.send_to(&big, addr).unwrap();
        let mut one = FrameBatch::with_capacity(1);
        for _ in 0..200 {
            assert_eq!(lane.recv_batch(&mut one).unwrap(), 0);
            if stats.oversize_dropped() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stats.oversize_dropped(), 2);
    }

    #[test]
    fn connected_lane_send_rejects_oversize_frames() {
        let (mut tx, _rx) = link();
        let big = [0u8; MAX_DATAGRAM + 1];
        assert!(matches!(tx.send(&big), Err(TransportError::Io(_))));
    }

    #[test]
    fn connected_lane_drains_many_datagrams_in_order() {
        let (mut tx, mut rx) = link();
        for i in 0..8u8 {
            tx.send(&[i; 8]).unwrap();
        }
        let mut batch = FrameBatch::with_capacity(16);
        assert_eq!(drain_expect(&mut rx, &mut batch, 8), 8);
        assert_eq!(
            frames(&batch),
            (0..8u8).map(|i| vec![i; 8]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_dead_peer_is_not_a_transport_error() {
        // Nothing listens on the peer's port once the raw socket is gone;
        // the ICMP refusal a send may provoke is the detector's business.
        let (peer, mut lane, _addr) = raw_peer();
        drop(peer);
        lane.send(b"anyone?").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut batch = FrameBatch::with_capacity(2);
        assert_eq!(lane.recv_batch(&mut batch), Ok(0));
    }

    #[test]
    fn metrics_export_names_every_lane() {
        let multi = MultiUdpTransport::bind(loopback_any(), 2).unwrap();
        let stats = multi.stats();
        let registry = afd_obs::Registry::new();
        stats.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("udp.lane.0.datagrams"), Some(0));
        assert_eq!(snap.counter("udp.lane.1.syscalls"), Some(0));
        assert_eq!(snap.counter("udp.lane.1.foreign_dropped"), Some(0));
        assert_eq!(snap.counter("udp.foreign_dropped"), Some(0));
        assert_eq!(snap.counter("udp.datagrams"), Some(0));
        assert_eq!(snap.gauge("udp.lanes"), Some(2.0));
    }
}
