//! Deterministic network-fault injection for the campaign wire.
//!
//! The paper's premise — fault tolerance must be measured, not assumed —
//! applies to our own transport as much as to guest programs. This
//! module is the network counterpart of `JournalFaultInjection` (torn /
//! corrupted / duplicated journal records) and `WorkerSabotage`
//! (abandoned leases): a seeded, schedule-driven wrapper around
//! [`TcpStream`] that injects the full menagerie of wire faults at frame
//! granularity:
//!
//! * **Reset** — a random prefix of the frame is delivered, then the
//!   connection dies (`ECONNRESET` locally, EOF/reset at the peer);
//! * **Stall** — a partial frame is delivered, then the stream goes
//!   silent for [`ChaosConfig::stall_for`] before dying, so the peer
//!   sits blocked mid-frame until its read timeout fires;
//! * **CorruptPayload** — one random bit beyond the length prefix is
//!   flipped; the frame is otherwise delivered in full and the sender
//!   never learns (exactly like a flaky NIC);
//! * **CorruptLength** — one random bit of the `u32` length prefix is
//!   flipped, driving the receiver toward oversize rejection, a
//!   checksum mismatch on a short read, or a mid-frame timeout;
//! * **Duplicate** — the frame is delivered twice, which the v3 framing
//!   layer must absorb via sequence numbers or the strict
//!   request/response pairing desynchronises;
//! * **Delay** — the frame is held for a bounded random time, stressing
//!   timeout calibration without killing anything.
//!
//! Faults are chosen by a per-connection [`SmallRng`] seeded from
//! [`ChaosConfig::seed`] and the connection index, so a chaos schedule
//! is reproducible run-to-run; [`ChaosConfig::force`] pins one fault to
//! one global frame index for surgical unit tests (mirroring
//! `JournalFaultInjection`'s `*_at` fields). Every injection is counted
//! in shared [`ChaosCounts`], which soak tests assert are nonzero — the
//! proof the chaos actually fired.
//!
//! [`NetStream`] is the either/or handle the protocol paths use: a plain
//! socket in production, a chaos-wrapped one under test, with identical
//! timeout/shutdown plumbing.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use certa_isa::fnv1a;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One injectable wire fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Deliver a random prefix of the frame, then kill the connection.
    Reset,
    /// Deliver a partial frame, go silent for [`ChaosConfig::stall_for`],
    /// then kill the connection.
    Stall,
    /// Flip one random bit past the length prefix; deliver in full.
    CorruptPayload,
    /// Flip one random bit inside the `u32` length prefix; deliver in
    /// full.
    CorruptLength,
    /// Deliver the frame twice.
    Duplicate,
    /// Hold the frame for a bounded random delay, then deliver intact.
    Delay,
}

/// A seeded chaos schedule: per-mille injection rates per frame write,
/// rolled at most one fault per frame.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed; each wrapped connection derives its own stream from
    /// this and its connection index, so schedules replay exactly.
    pub seed: u64,
    /// Per-mille chance a frame write dies mid-frame with a reset.
    pub reset_per_mille: u32,
    /// Per-mille chance a frame write delivers a partial frame then
    /// stalls.
    pub stall_per_mille: u32,
    /// Per-mille chance of a single-bit payload flip.
    pub corrupt_payload_per_mille: u32,
    /// Per-mille chance of a single-bit length-prefix flip.
    pub corrupt_length_per_mille: u32,
    /// Per-mille chance a frame is delivered twice.
    pub duplicate_per_mille: u32,
    /// Per-mille chance a frame is delayed (but delivered intact).
    pub delay_per_mille: u32,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// How long a stalled connection stays silent before dying; pick it
    /// above the victims' read timeouts so stalls actually exercise
    /// them.
    pub stall_for: Duration,
    /// Pin exactly one fault to one global frame index (counted across
    /// all connections of this [`Chaos`], in write order) and disable
    /// all random faults — the surgical mode unit tests use.
    pub force: Option<(u64, ChaosFault)>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            reset_per_mille: 0,
            stall_per_mille: 0,
            corrupt_payload_per_mille: 0,
            corrupt_length_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            max_delay: Duration::from_millis(5),
            stall_for: Duration::from_millis(250),
            force: None,
        }
    }
}

impl ChaosConfig {
    /// The soak preset: every fault class live at rates aggressive
    /// enough that a full campaign sees each one fire, yet survivable
    /// enough that retry budgets converge.
    #[must_use]
    pub fn adversarial(seed: u64) -> Self {
        ChaosConfig {
            seed,
            reset_per_mille: 25,
            stall_per_mille: 12,
            corrupt_payload_per_mille: 30,
            corrupt_length_per_mille: 15,
            duplicate_per_mille: 40,
            delay_per_mille: 80,
            max_delay: Duration::from_millis(5),
            stall_for: Duration::from_millis(250),
            force: None,
        }
    }
}

/// Injection counters for one [`Chaos`] instance, snapshot via
/// [`Chaos::counts`]. Merged across coordinator and workers, these are
/// the "chaos actually fired" evidence the soak asserts on and
/// `BENCH_dist.json` persists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Mid-frame connection resets injected.
    pub resets: u64,
    /// Partial-write stalls injected.
    pub stalls: u64,
    /// Payload bits flipped.
    pub payload_corruptions: u64,
    /// Length-prefix bits flipped.
    pub length_corruptions: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames delayed.
    pub delays: u64,
}

impl ChaosCounts {
    /// Total faults injected (delays included — they are observable as
    /// latency even though no bytes are harmed).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.resets
            + self.stalls
            + self.payload_corruptions
            + self.length_corruptions
            + self.duplicates
            + self.delays
    }

    /// Accumulates another instance's counters into this one.
    pub fn merge(&mut self, other: &ChaosCounts) {
        self.resets += other.resets;
        self.stalls += other.stalls;
        self.payload_corruptions += other.payload_corruptions;
        self.length_corruptions += other.length_corruptions;
        self.duplicates += other.duplicates;
        self.delays += other.delays;
    }
}

/// One fault-injection domain: a schedule plus shared counters. Wrap any
/// number of sockets (either end, either role); they share the frame
/// index space and the counters but draw independent, reproducible
/// random streams.
#[derive(Debug)]
pub struct Chaos {
    config: ChaosConfig,
    conns: AtomicU64,
    frames: AtomicU64,
    resets: AtomicU64,
    stalls: AtomicU64,
    payload_corruptions: AtomicU64,
    length_corruptions: AtomicU64,
    duplicates: AtomicU64,
    delays: AtomicU64,
}

impl Chaos {
    /// A fresh injection domain under `config`.
    #[must_use]
    pub fn new(config: ChaosConfig) -> Arc<Chaos> {
        Arc::new(Chaos {
            config,
            conns: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            payload_corruptions: AtomicU64::new(0),
            length_corruptions: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        })
    }

    /// Wraps a socket in this domain. The wrapper derives its random
    /// stream from the domain seed and a per-domain connection index, so
    /// wrapping order (which is deterministic per side) fixes the
    /// schedule.
    #[must_use]
    pub fn wrap(self: &Arc<Chaos>, stream: TcpStream) -> ChaosStream {
        let conn = self.conns.fetch_add(1, Ordering::Relaxed);
        let mut key = Vec::with_capacity(16);
        key.extend_from_slice(&self.config.seed.to_le_bytes());
        key.extend_from_slice(&conn.to_le_bytes());
        ChaosStream {
            inner: stream,
            chaos: Arc::clone(self),
            rng: SmallRng::seed_from_u64(fnv1a(&key)),
            dead: false,
        }
    }

    /// Snapshot of the injection counters.
    #[must_use]
    pub fn counts(&self) -> ChaosCounts {
        ChaosCounts {
            resets: self.resets.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            payload_corruptions: self.payload_corruptions.load(Ordering::Relaxed),
            length_corruptions: self.length_corruptions.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }
}

/// A [`TcpStream`] with a fault schedule on its write path (and bounded
/// delays on reads). One `write` call is treated as one frame — which
/// matches [`crate::FrameCodec::write_frame`]'s single-`write_all`
/// discipline exactly.
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    chaos: Arc<Chaos>,
    rng: SmallRng,
    dead: bool,
}

impl ChaosStream {
    /// The underlying socket, for timeout/shutdown plumbing.
    #[must_use]
    pub fn socket(&self) -> &TcpStream {
        &self.inner
    }

    fn pick_fault(&mut self, frame: u64) -> Option<ChaosFault> {
        if let Some((at, fault)) = self.chaos.config.force {
            return (frame == at).then_some(fault);
        }
        let c = &self.chaos.config;
        let roll = self.rng.gen_range(0..1000u32);
        let mut acc = 0u32;
        for (rate, fault) in [
            (c.reset_per_mille, ChaosFault::Reset),
            (c.stall_per_mille, ChaosFault::Stall),
            (c.corrupt_payload_per_mille, ChaosFault::CorruptPayload),
            (c.corrupt_length_per_mille, ChaosFault::CorruptLength),
            (c.duplicate_per_mille, ChaosFault::Duplicate),
            (c.delay_per_mille, ChaosFault::Delay),
        ] {
            acc += rate;
            if roll < acc {
                return Some(fault);
            }
        }
        None
    }

    /// Kills the socket and marks this wrapper dead; later I/O returns
    /// `NotConnected` rather than touching the corpse.
    fn kill(&mut self) {
        let _ = self.inner.shutdown(Shutdown::Both);
        self.dead = true;
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "chaos: connection already killed",
            ));
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let frame = self.chaos.frames.fetch_add(1, Ordering::Relaxed);
        match self.pick_fault(frame) {
            None => {
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            Some(ChaosFault::Reset) => {
                let cut = self.rng.gen_range(0..buf.len());
                let _ = self.inner.write_all(&buf[..cut]);
                let _ = self.inner.flush();
                self.kill();
                self.chaos.resets.fetch_add(1, Ordering::Relaxed);
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "chaos: injected mid-frame connection reset",
                ))
            }
            Some(ChaosFault::Stall) => {
                let cut = self.rng.gen_range(1..buf.len().max(2));
                let _ = self.inner.write_all(&buf[..cut.min(buf.len())]);
                let _ = self.inner.flush();
                std::thread::sleep(self.chaos.config.stall_for);
                self.kill();
                self.chaos.stalls.fetch_add(1, Ordering::Relaxed);
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "chaos: injected partial-write stall",
                ))
            }
            Some(ChaosFault::CorruptPayload) => {
                let mut framed = buf.to_vec();
                // Flip past the length prefix: sequence number, checksum,
                // and payload bits are all fair game — each must be
                // caught by the frame checksum.
                let lo = 4.min(framed.len() - 1);
                let idx = self.rng.gen_range(lo..framed.len());
                let bit = self.rng.gen_range(0..8u32);
                framed[idx] ^= 1 << bit;
                self.chaos
                    .payload_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.write_all(&framed)?;
                Ok(buf.len())
            }
            Some(ChaosFault::CorruptLength) => {
                let mut framed = buf.to_vec();
                let idx = self.rng.gen_range(0..4.min(framed.len()));
                let bit = self.rng.gen_range(0..8u32);
                framed[idx] ^= 1 << bit;
                self.chaos
                    .length_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.write_all(&framed)?;
                Ok(buf.len())
            }
            Some(ChaosFault::Duplicate) => {
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
                self.chaos.duplicates.fetch_add(1, Ordering::Relaxed);
                Ok(buf.len())
            }
            Some(ChaosFault::Delay) => {
                let cap = self.chaos.config.max_delay.as_millis().max(1);
                let ms = self.rng.gen_range(0..u64::try_from(cap).unwrap_or(u64::MAX));
                std::thread::sleep(Duration::from_millis(ms));
                self.chaos.delays.fetch_add(1, Ordering::Relaxed);
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Ok(());
        }
        self.inner.flush()
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "chaos: connection already killed",
            ));
        }
        // Reads only suffer delays: the interesting read-side faults
        // (truncation, garbage, silence) are what the *peer's* write
        // faults produce.
        if self.chaos.config.force.is_none() && self.chaos.config.delay_per_mille > 0 {
            let roll = self.rng.gen_range(0..1000u32);
            if roll < self.chaos.config.delay_per_mille {
                let cap = self.chaos.config.max_delay.as_millis().max(1);
                let ms = self.rng.gen_range(0..u64::try_from(cap).unwrap_or(u64::MAX));
                std::thread::sleep(Duration::from_millis(ms));
                self.chaos.delays.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.read(buf)
    }
}

/// A [`TcpListener`] whose accepted connections come back pre-wrapped in
/// a [`Chaos`] domain.
#[derive(Debug)]
pub struct ChaosListener {
    inner: TcpListener,
    chaos: Arc<Chaos>,
}

impl ChaosListener {
    /// Binds a listener whose accepted sockets inject `chaos`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, chaos: Arc<Chaos>) -> std::io::Result<ChaosListener> {
        Ok(ChaosListener {
            inner: TcpListener::bind(addr)?,
            chaos,
        })
    }

    /// Accepts one connection, wrapped.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(&self) -> std::io::Result<(NetStream, SocketAddr)> {
        let (stream, addr) = self.inner.accept()?;
        Ok((NetStream::Chaos(self.chaos.wrap(stream)), addr))
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// The injection domain accepted sockets share.
    #[must_use]
    pub fn chaos(&self) -> &Arc<Chaos> {
        &self.chaos
    }
}

/// Either a plain socket or a chaos-wrapped one — the stream type every
/// protocol path reads and writes, so fault injection can slot under any
/// coordinator or worker connection without a second code path.
#[derive(Debug)]
pub enum NetStream {
    /// Production: faults come only from the real network.
    Plain(TcpStream),
    /// Test: faults come from the wrapped schedule too.
    Chaos(ChaosStream),
}

impl NetStream {
    fn socket(&self) -> &TcpStream {
        match self {
            NetStream::Plain(stream) => stream,
            NetStream::Chaos(stream) => stream.socket(),
        }
    }

    /// Sets the socket read timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.socket().set_read_timeout(timeout)
    }

    /// Sets the socket write timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.socket().set_write_timeout(timeout)
    }

    /// Disables (or re-enables) Nagle's algorithm.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_nodelay(&self, nodelay: bool) -> std::io::Result<()> {
        self.socket().set_nodelay(nodelay)
    }

    /// Peeks at pending bytes without consuming them. Liveness probing
    /// only — no faults are injected here even on a chaos stream.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including read timeouts).
    pub fn peek(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.socket().peek(buf)
    }

    /// Shuts the connection down.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        self.socket().shutdown(how)
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Plain(stream) => stream.read(buf),
            NetStream::Chaos(stream) => stream.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Plain(stream) => stream.write(buf),
            NetStream::Chaos(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Plain(stream) => stream.flush(),
            NetStream::Chaos(stream) => stream.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FrameCodec, FrameError};
    use std::net::TcpListener;

    /// A connected loopback socket pair, writer wrapped in `chaos`.
    fn pair(chaos: &Arc<Chaos>) -> (ChaosStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        (chaos.wrap(client), server)
    }

    fn force(fault: ChaosFault, at: u64) -> Arc<Chaos> {
        Chaos::new(ChaosConfig {
            seed: 7,
            force: Some((at, fault)),
            stall_for: Duration::from_millis(20),
            ..ChaosConfig::default()
        })
    }

    #[test]
    fn forced_reset_kills_the_connection_mid_frame() {
        let chaos = force(ChaosFault::Reset, 0);
        let (mut tx, mut rx) = pair(&chaos);
        let mut codec = FrameCodec::new();
        let err = codec.write_frame(&mut tx, b"doomed frame").unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
        // The receiver sees a truncated stream: either EOF inside the
        // header or inside the payload.
        let err = FrameCodec::new().read_frame(&mut rx).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
        assert_eq!(chaos.counts().resets, 1);
        assert_eq!(chaos.counts().injected(), 1);
        // The wrapper is dead from here on.
        let err = codec.write_frame(&mut tx, b"after death").unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn forced_payload_corruption_is_caught_by_the_checksum() {
        let chaos = force(ChaosFault::CorruptPayload, 0);
        let (mut tx, mut rx) = pair(&chaos);
        // The sender believes the write succeeded — like a real network.
        FrameCodec::new()
            .write_frame(&mut tx, b"soon to be flipped")
            .expect("sender never learns");
        let err = FrameCodec::new().read_frame(&mut rx).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)), "{err}");
        assert_eq!(chaos.counts().payload_corruptions, 1);
    }

    #[test]
    fn forced_length_corruption_never_yields_a_frame() {
        // Whatever the bit flip does to the length — oversize, shorter,
        // longer-but-capped — the receiver must end in a typed error,
        // never a successful frame, and never an unbounded allocation.
        for seed in 0..4u64 {
            let chaos = Chaos::new(ChaosConfig {
                seed,
                force: Some((0, ChaosFault::CorruptLength)),
                ..ChaosConfig::default()
            });
            let (mut tx, mut rx) = pair(&chaos);
            rx.set_read_timeout(Some(Duration::from_millis(200)))
                .expect("timeout");
            FrameCodec::new()
                .write_frame(&mut tx, b"length under attack")
                .expect("sender never learns");
            drop(tx);
            let err = FrameCodec::new().read_frame(&mut rx).unwrap_err();
            assert!(
                matches!(err, FrameError::Corrupt(_) | FrameError::Io(_)),
                "seed {seed}: {err}"
            );
            assert_eq!(chaos.counts().length_corruptions, 1);
        }
    }

    #[test]
    fn forced_duplicate_is_absorbed_by_sequence_numbers() {
        let chaos = force(ChaosFault::Duplicate, 0);
        let (mut tx, mut rx) = pair(&chaos);
        let mut codec = FrameCodec::new();
        codec.write_frame(&mut tx, b"delivered twice").expect("dup");
        codec.write_frame(&mut tx, b"delivered once").expect("ok");
        let mut reader = FrameCodec::new();
        assert_eq!(reader.read_frame(&mut rx).unwrap(), b"delivered twice");
        assert_eq!(reader.read_frame(&mut rx).unwrap(), b"delivered once");
        assert_eq!(reader.duplicates_dropped, 1);
        assert_eq!(chaos.counts().duplicates, 1);
    }

    #[test]
    fn forced_stall_trips_the_peer_read_timeout() {
        let chaos = force(ChaosFault::Stall, 0);
        let (mut tx, mut rx) = pair(&chaos);
        rx.set_read_timeout(Some(Duration::from_millis(5)))
            .expect("timeout");
        let writer = std::thread::spawn(move || {
            FrameCodec::new().write_frame(&mut tx, b"stalls mid-frame")
        });
        let err = FrameCodec::new().read_frame(&mut rx).unwrap_err();
        match err {
            FrameError::Io(io) => assert!(
                matches!(
                    io.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "{io}"
            ),
            other => panic!("expected timeout, got {other}"),
        }
        assert!(writer.join().expect("join").is_err());
        assert_eq!(chaos.counts().stalls, 1);
    }

    #[test]
    fn forced_delay_delivers_the_frame_intact() {
        let chaos = Chaos::new(ChaosConfig {
            seed: 3,
            force: Some((0, ChaosFault::Delay)),
            max_delay: Duration::from_millis(10),
            ..ChaosConfig::default()
        });
        let (mut tx, mut rx) = pair(&chaos);
        FrameCodec::new()
            .write_frame(&mut tx, b"late but whole")
            .expect("delayed write");
        assert_eq!(
            FrameCodec::new().read_frame(&mut rx).unwrap(),
            b"late but whole"
        );
        assert_eq!(chaos.counts().delays, 1);
    }

    #[test]
    fn schedules_replay_deterministically() {
        // Same seed, same wrapping order, same write sizes → identical
        // injection counts.
        let run = |seed: u64| {
            let chaos = Chaos::new(ChaosConfig::adversarial(seed));
            for _ in 0..4 {
                let (mut tx, rx) = pair(&chaos);
                let mut codec = FrameCodec::new();
                for i in 0..200u32 {
                    let payload = vec![i as u8; 64];
                    if codec.write_frame(&mut tx, &payload).is_err() {
                        break;
                    }
                }
                drop(rx);
            }
            chaos.counts()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert!(a.injected() > 0, "adversarial schedule never fired: {a:?}");
    }
}
