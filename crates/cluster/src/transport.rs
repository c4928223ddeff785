//! Message transports: real TCP sockets and an in-process loopback.
//!
//! Both implementations move the *same encoded frames* ([`crate::wire`])
//! and count the same bytes, so loopback tests exercise the full
//! encode/decode path and wire accounting is transport-independent — a
//! loopback fit reports exactly the bytes a TCP fit would.
//!
//! The transports are generic over the frame vocabulary: the message
//! type parameter defaults to the distributed runtime's
//! [`Message`] (`SKW` frames), and the serving tier
//! instantiates the same types with its `SKS` vocabulary — one socket
//! layer, two protocols. A received frame whose magic is not the
//! vocabulary's — a retired `…1` frame included — fails `recv` with
//! [`FrameError::BadMagic`].

use crate::error::ClusterError;
use crate::protocol::{FrameError, Message, MAX_FRAME_PAYLOAD};
use crate::wire::{WireMessage, FRAME_OVERHEAD};
use std::io::{BufReader, BufWriter, Write};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// A bidirectional, message-oriented connection to one peer.
///
/// `recv` must return a typed error — never hang forever — when the peer
/// is gone: the TCP impl uses socket timeouts plus EOF detection, the
/// loopback impl observes the closed channel.
pub trait Transport<M: WireMessage = Message>: Send {
    /// Sends one message (flushes).
    fn send(&mut self, msg: &M) -> Result<(), ClusterError>;
    /// Receives the next message.
    fn recv(&mut self) -> Result<M, ClusterError>;
    /// Total frame bytes written so far.
    fn bytes_sent(&self) -> u64;
    /// Total frame bytes read so far.
    fn bytes_received(&self) -> u64;
}

/// [`Transport`] over a TCP socket.
pub struct TcpTransport<M: WireMessage = Message> {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    sent: u64,
    received: u64,
    _vocabulary: PhantomData<fn() -> M>,
}

impl<M: WireMessage> TcpTransport<M> {
    /// Wraps a connected stream. `io_timeout` bounds every read and write
    /// so a silent peer produces a typed timeout error instead of a hang;
    /// `None` trusts the OS defaults.
    pub fn new(stream: TcpStream, io_timeout: Option<Duration>) -> Result<Self, ClusterError> {
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(TcpTransport {
            reader,
            writer,
            sent: 0,
            received: 0,
            _vocabulary: PhantomData,
        })
    }

    /// Writes pre-encoded frame bytes verbatim — possibly *not* a whole
    /// frame. Fault-injection hook ([`crate::fault`]): lets a scripted
    /// fault ship a truncated frame so the peer's defensive decode path
    /// is exercised over a real socket.
    pub(crate) fn send_raw_frame(&mut self, bytes: &[u8]) -> Result<(), ClusterError> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        self.sent += bytes.len() as u64;
        Ok(())
    }
}

/// Send-side size enforcement: an over-large frame fails fast with a
/// typed error at its source instead of after the peer has received (and
/// rejected) it.
fn check_outgoing(frame: &[u8]) -> Result<(), ClusterError> {
    let payload = frame.len().saturating_sub(FRAME_OVERHEAD);
    if payload > MAX_FRAME_PAYLOAD {
        return Err(ClusterError::Frame(FrameError::Oversized {
            len: payload as u64,
            max: MAX_FRAME_PAYLOAD as u64,
        }));
    }
    Ok(())
}

impl<M: WireMessage> Transport<M> for TcpTransport<M> {
    fn send(&mut self, msg: &M) -> Result<(), ClusterError> {
        let frame = msg.encode_frame();
        check_outgoing(&frame)?;
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        self.sent += frame.len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<M, ClusterError> {
        let (msg, used) = M::read_frame(&mut self.reader, MAX_FRAME_PAYLOAD)?;
        self.received += used as u64;
        Ok(msg)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

/// [`Transport`] over in-process channels carrying encoded frames — the
/// deterministic test/CI transport. Create pairs with [`loopback_pair`].
pub struct LoopbackTransport<M: WireMessage = Message> {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    sent: u64,
    received: u64,
    _vocabulary: PhantomData<fn() -> M>,
}

impl<M: WireMessage> LoopbackTransport<M> {
    fn new(tx: Sender<Vec<u8>>, rx: Receiver<Vec<u8>>) -> Self {
        LoopbackTransport {
            tx,
            rx,
            sent: 0,
            received: 0,
            _vocabulary: PhantomData,
        }
    }
}

/// Creates a connected pair of loopback transports (coordinator side,
/// worker side — or client side, server side for the serving tier).
pub fn loopback_pair<M: WireMessage>() -> (LoopbackTransport<M>, LoopbackTransport<M>) {
    let (a_tx, b_rx) = std::sync::mpsc::channel();
    let (b_tx, a_rx) = std::sync::mpsc::channel();
    (
        LoopbackTransport::new(a_tx, a_rx),
        LoopbackTransport::new(b_tx, b_rx),
    )
}

impl<M: WireMessage> LoopbackTransport<M> {
    /// Loopback counterpart of [`TcpTransport::send_raw_frame`]: delivers
    /// raw (possibly truncated) frame bytes as one channel message.
    pub(crate) fn send_raw_frame(&mut self, bytes: &[u8]) -> Result<(), ClusterError> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| ClusterError::Disconnected)?;
        self.sent += bytes.len() as u64;
        Ok(())
    }
}

impl<M: WireMessage> Transport<M> for LoopbackTransport<M> {
    fn send(&mut self, msg: &M) -> Result<(), ClusterError> {
        let frame = msg.encode_frame();
        check_outgoing(&frame)?;
        let len = frame.len() as u64;
        self.tx
            .send(frame)
            .map_err(|_| ClusterError::Disconnected)?;
        self.sent += len;
        Ok(())
    }

    fn recv(&mut self) -> Result<M, ClusterError> {
        let frame = self.rx.recv().map_err(|_| ClusterError::Disconnected)?;
        let (msg, used) = M::decode_frame(&frame, MAX_FRAME_PAYLOAD)?;
        if used != frame.len() {
            return Err(ClusterError::Protocol(
                "loopback frame carried trailing bytes".into(),
            ));
        }
        self.received += used as u64;
        Ok(msg)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trips_and_counts_bytes() {
        let (mut a, mut b) = loopback_pair();
        let msg = Message::Hello { rows: 10, dim: 3 };
        a.send(&msg).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got, msg);
        assert_eq!(a.bytes_sent(), b.bytes_received());
        assert!(a.bytes_sent() > 0);
    }

    #[test]
    fn loopback_disconnect_is_a_typed_error() {
        let (mut a, b) = loopback_pair::<Message>();
        drop(b);
        assert!(matches!(
            a.send(&Message::GatherD2),
            Err(ClusterError::Disconnected)
        ));
        assert!(matches!(a.recv(), Err(ClusterError::Disconnected)));
    }

    #[test]
    fn tcp_round_trip_over_localhost() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t =
                TcpTransport::<Message>::new(stream, Some(Duration::from_secs(10))).unwrap();
            let msg = t.recv().unwrap();
            t.send(&msg).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::<Message>::new(stream, Some(Duration::from_secs(10))).unwrap();
        let msg = Message::CandidateWeights { m: 9 };
        t.send(&msg).unwrap();
        assert_eq!(t.recv().unwrap(), msg);
        server.join().unwrap();
        assert_eq!(t.bytes_sent(), t.bytes_received());
    }

    #[test]
    fn tcp_peer_close_is_disconnect_not_hang() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate close
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::<Message>::new(stream, Some(Duration::from_secs(10))).unwrap();
        server.join().unwrap();
        assert!(matches!(t.recv(), Err(ClusterError::Disconnected)));
    }
}
