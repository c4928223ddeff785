//! Deterministic fault injection over any [`Transport`] — the test
//! harness behind the fault-tolerance guarantees.
//!
//! A [`FaultTransport`] wraps a real transport (loopback or TCP — both
//! move identical frames) and executes a *script* of [`FaultAction`]s
//! keyed by `(message tag, occurrence)`: kill the connection when the
//! Nth frame of a given kind is received or about to be sent, ship a
//! mid-frame truncation, or delay a reply. Because the distributed
//! conversation is itself deterministic (same seed → same message
//! sequence), a scripted trigger reproduces the *same* failure at the
//! *same* round on every run — worker loss at each round type becomes an
//! ordinary unit test instead of a flaky race.
//!
//! The wrapper sits on the **worker** side in the spawn helpers
//! ([`spawn_loopback_worker_with_faults`],
//! [`spawn_tcp_worker_with_faults`]): after a kill triggers, the
//! transport reports [`ClusterError::Disconnected`] forever, the worker
//! thread winds down, and the coordinator observes exactly what a
//! crashed machine produces — a vanished peer mid-round.
//!
//! This module is part of the public API (not `#[cfg(test)]`) so
//! integration tests and downstream users can script chaos against their
//! own deployments; it injects nothing unless explicitly constructed.

use crate::error::ClusterError;
use crate::protocol::Message;
use crate::transport::{loopback_pair, LoopbackTransport, TcpTransport, Transport};
use crate::wire::WireMessage;
use crate::worker::Worker;
use kmeans_data::ChunkedSource;
use kmeans_par::Parallelism;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Message-tag constants for scripting faults against the distributed
/// `SKW` vocabulary without constructing throwaway messages. Only tags
/// that cross the wire as top-level frames are listed — a script matches
/// top-level tags, and tracker rounds and recovery catch-up travel inside
/// `Compound` frames. Mirrors [`crate::protocol::Message`]'s tag map
/// (round-trip pinned by a test).
pub mod tag {
    /// `ShardSums` — the seed-cost pass's reply.
    pub const SHARD_SUMS: u8 = 6;
    /// `GatherRows` — point gathers (seeding + reseeding).
    pub const GATHER_ROWS: u8 = 13;
    /// `Assign` — a Lloyd assignment pass.
    pub const ASSIGN: u8 = 17;
    /// `Partials` — the assignment rounds' reply.
    pub const PARTIALS: u8 = 18;
    /// `Cost` — a potential evaluation pass.
    pub const COST: u8 = 19;
    /// `Compound` — a tracker round's fused request (and its fused
    /// reply), and a replacement worker's catch-up frame.
    pub const COMPOUND: u8 = 29;
}

/// One scripted fault, armed for the `occurrence`-th frame (1-based)
/// carrying `tag` that crosses the wrapped transport in the stated
/// direction. At most one action fires per frame (first match wins);
/// kill and truncate actions leave the transport permanently dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the matching incoming frame to nobody: consume it, mark
    /// the transport dead, and report `Disconnected` — the peer's request
    /// reached a machine that crashed before acting on it.
    KillOnRecv {
        /// Message tag to match.
        tag: u8,
        /// 1-based occurrence of that tag on the recv path.
        occurrence: u32,
    },
    /// Crash instead of sending the matching frame — the machine died
    /// after doing the round's work but before the reply left.
    KillOnSend {
        /// Message tag to match.
        tag: u8,
        /// 1-based occurrence of that tag on the send path.
        occurrence: u32,
    },
    /// Ship only the first `keep` bytes of the matching frame, then die —
    /// a mid-frame crash. Exercises the peer's defensive decode path
    /// (truncation is a typed frame error, never a panic or a hang).
    TruncateOnSend {
        /// Message tag to match.
        tag: u8,
        /// 1-based occurrence of that tag on the send path.
        occurrence: u32,
        /// Bytes of the encoded frame to let through.
        keep: usize,
    },
    /// Sleep before sending the matching frame — a slow peer. The frame
    /// is then delivered intact; the transport stays alive.
    DelayOnSend {
        /// Message tag to match.
        tag: u8,
        /// 1-based occurrence of that tag on the send path.
        occurrence: u32,
        /// How long to stall.
        delay: Duration,
    },
}

/// A [`Transport`] that additionally exposes its raw frame sink — what
/// [`FaultAction::TruncateOnSend`] needs to put half a frame on the
/// wire. Implemented by both built-in transports.
pub trait Faultable<M: WireMessage = Message>: Transport<M> {
    /// Sends pre-encoded frame bytes verbatim (possibly truncated).
    fn send_raw_frame(&mut self, bytes: &[u8]) -> Result<(), ClusterError>;
}

impl<M: WireMessage> Faultable<M> for TcpTransport<M> {
    fn send_raw_frame(&mut self, bytes: &[u8]) -> Result<(), ClusterError> {
        TcpTransport::send_raw_frame(self, bytes)
    }
}

impl<M: WireMessage> Faultable<M> for LoopbackTransport<M> {
    fn send_raw_frame(&mut self, bytes: &[u8]) -> Result<(), ClusterError> {
        LoopbackTransport::send_raw_frame(self, bytes)
    }
}

/// Scripted-fault wrapper over a [`Faultable`] transport. See the
/// module docs for semantics.
pub struct FaultTransport<M: WireMessage = Message> {
    inner: Box<dyn Faultable<M>>,
    script: Vec<FaultAction>,
    recv_seen: HashMap<u8, u32>,
    send_seen: HashMap<u8, u32>,
    dead: bool,
}

fn bump(seen: &mut HashMap<u8, u32>, tag: u8) -> u32 {
    let n = seen.entry(tag).or_insert(0);
    *n += 1;
    *n
}

impl<M: WireMessage> FaultTransport<M> {
    /// Wraps `inner` with a fault script. An empty script is a
    /// transparent pass-through.
    pub fn new(inner: Box<dyn Faultable<M>>, script: Vec<FaultAction>) -> Self {
        FaultTransport {
            inner,
            script,
            recv_seen: HashMap::new(),
            send_seen: HashMap::new(),
            dead: false,
        }
    }

    /// Whether a kill/truncate action has fired — the transport now
    /// behaves like a crashed machine.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

impl<M: WireMessage> Transport<M> for FaultTransport<M> {
    fn send(&mut self, msg: &M) -> Result<(), ClusterError> {
        if self.dead {
            return Err(ClusterError::Disconnected);
        }
        let tag = msg.tag();
        let n = bump(&mut self.send_seen, tag);
        let hit = self.script.iter().copied().find(|a| {
            matches!(a,
                FaultAction::KillOnSend { tag: t, occurrence }
                | FaultAction::TruncateOnSend { tag: t, occurrence, .. }
                | FaultAction::DelayOnSend { tag: t, occurrence, .. }
                    if *t == tag && *occurrence == n)
        });
        match hit {
            Some(FaultAction::KillOnSend { .. }) => {
                self.dead = true;
                Err(ClusterError::Disconnected)
            }
            Some(FaultAction::TruncateOnSend { keep, .. }) => {
                let frame = msg.encode_frame();
                let keep = keep.min(frame.len().saturating_sub(1)).max(1);
                self.inner.send_raw_frame(&frame[..keep])?;
                self.dead = true;
                Err(ClusterError::Disconnected)
            }
            Some(FaultAction::DelayOnSend { delay, .. }) => {
                std::thread::sleep(delay);
                self.inner.send(msg)
            }
            _ => self.inner.send(msg),
        }
    }

    fn recv(&mut self) -> Result<M, ClusterError> {
        if self.dead {
            return Err(ClusterError::Disconnected);
        }
        let msg = self.inner.recv()?;
        let tag = msg.tag();
        let n = bump(&mut self.recv_seen, tag);
        let killed = self.script.iter().any(|a| {
            matches!(a, FaultAction::KillOnRecv { tag: t, occurrence }
                if *t == tag && *occurrence == n)
        });
        if killed {
            self.dead = true;
            return Err(ClusterError::Disconnected);
        }
        Ok(msg)
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

/// [`crate::worker::spawn_loopback_worker`] with a fault script wrapped
/// around the worker's side of the channel — the deterministic
/// chaos-test harness. Returns the coordinator-side transport and the
/// worker thread's handle (which ends in `Err` when a send-path fault
/// kills the session mid-reply).
pub fn spawn_loopback_worker_with_faults(
    source: impl ChunkedSource + 'static,
    parallelism: Parallelism,
    script: Vec<FaultAction>,
) -> (
    LoopbackTransport,
    std::thread::JoinHandle<Result<(), ClusterError>>,
) {
    let (coordinator_side, worker_side) = loopback_pair();
    let mut faulty = FaultTransport::new(Box::new(worker_side), script);
    let mut worker = Worker::new(source, parallelism);
    let handle = std::thread::spawn(move || worker.serve(&mut faulty));
    (coordinator_side, handle)
}

/// [`crate::worker::spawn_tcp_worker`] with a fault script: serves one
/// session on an ephemeral localhost port through a [`FaultTransport`],
/// so scripted crashes happen over a real socket (partial frame bytes,
/// RST/EOF on the coordinator side). Returns the bound address and the
/// worker thread's handle.
pub fn spawn_tcp_worker_with_faults(
    source: impl ChunkedSource + 'static,
    parallelism: Parallelism,
    io_timeout: Option<Duration>,
    script: Vec<FaultAction>,
) -> std::io::Result<(
    SocketAddr,
    std::thread::JoinHandle<Result<(), ClusterError>>,
)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept()?;
        let transport = TcpTransport::new(stream, io_timeout)?;
        let mut faulty = FaultTransport::new(Box::new(transport), script);
        Worker::new(source, parallelism).serve(&mut faulty)
    });
    Ok((addr, handle))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_with_script(
        script: Vec<FaultAction>,
    ) -> (LoopbackTransport<Message>, FaultTransport<Message>) {
        let (plain, wrapped) = loopback_pair::<Message>();
        (plain, FaultTransport::new(Box::new(wrapped), script))
    }

    #[test]
    fn tag_constants_match_the_protocol() {
        use crate::wire::WireMessage as _;
        let m = kmeans_data::PointMatrix::new(1);
        assert_eq!(Message::ShardSums { sums: vec![] }.tag(), tag::SHARD_SUMS);
        assert_eq!(
            Message::GatherRows { indices: vec![] }.tag(),
            tag::GATHER_ROWS
        );
        assert_eq!(
            Message::Assign {
                centers: m.clone(),
                labels: Default::default()
            }
            .tag(),
            tag::ASSIGN
        );
        assert_eq!(
            Message::Partials {
                reassigned: 0,
                shards: vec![],
                stats: Default::default(),
                labels: None
            }
            .tag(),
            tag::PARTIALS
        );
        assert_eq!(Message::Cost { centers: m }.tag(), tag::COST);
        assert_eq!(Message::Compound(vec![]).tag(), tag::COMPOUND);
    }

    #[test]
    fn empty_script_is_transparent() {
        let (mut peer, mut faulty) = pair_with_script(vec![]);
        peer.send(&Message::GatherD2).unwrap();
        assert_eq!(faulty.recv().unwrap(), Message::GatherD2);
        faulty.send(&Message::PlanOk).unwrap();
        assert_eq!(peer.recv().unwrap(), Message::PlanOk);
        assert!(!faulty.is_dead());
    }

    #[test]
    fn kill_on_nth_recv_consumes_the_frame_and_stays_dead() {
        let gather = Message::GatherRows { indices: vec![3] };
        let (mut peer, mut faulty) = pair_with_script(vec![FaultAction::KillOnRecv {
            tag: tag::GATHER_ROWS,
            occurrence: 2,
        }]);
        peer.send(&gather).unwrap();
        peer.send(&gather).unwrap();
        assert_eq!(faulty.recv().unwrap(), gather);
        assert!(matches!(faulty.recv(), Err(ClusterError::Disconnected)));
        assert!(faulty.is_dead());
        // Dead means dead — both directions, forever.
        assert!(matches!(faulty.recv(), Err(ClusterError::Disconnected)));
        assert!(matches!(
            faulty.send(&Message::PlanOk),
            Err(ClusterError::Disconnected)
        ));
    }

    #[test]
    fn kill_on_send_never_delivers_the_frame() {
        let (mut peer, mut faulty) = pair_with_script(vec![FaultAction::KillOnSend {
            tag: tag::SHARD_SUMS,
            occurrence: 1,
        }]);
        faulty.send(&Message::PlanOk).unwrap();
        assert_eq!(peer.recv().unwrap(), Message::PlanOk);
        assert!(matches!(
            faulty.send(&Message::ShardSums { sums: vec![1.0] }),
            Err(ClusterError::Disconnected)
        ));
        drop(faulty);
        // The peer sees a hangup, not the reply.
        assert!(matches!(peer.recv(), Err(ClusterError::Disconnected)));
    }

    #[test]
    fn truncate_on_send_ships_a_partial_frame() {
        let (mut peer, mut faulty) = pair_with_script(vec![FaultAction::TruncateOnSend {
            tag: tag::SHARD_SUMS,
            occurrence: 1,
            keep: 9,
        }]);
        assert!(matches!(
            faulty.send(&Message::ShardSums { sums: vec![1.0] }),
            Err(ClusterError::Disconnected)
        ));
        // The peer receives the partial frame and rejects it as a typed
        // frame error — never a panic.
        assert!(matches!(peer.recv(), Err(ClusterError::Frame(_))));
    }

    #[test]
    fn delay_on_send_delivers_intact() {
        let (mut peer, mut faulty) = pair_with_script(vec![FaultAction::DelayOnSend {
            tag: tag::SHARD_SUMS,
            occurrence: 1,
            delay: Duration::from_millis(10),
        }]);
        let start = std::time::Instant::now();
        faulty
            .send(&Message::ShardSums { sums: vec![2.5] })
            .unwrap();
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(peer.recv().unwrap(), Message::ShardSums { sums: vec![2.5] });
        assert!(!faulty.is_dead());
    }
}
