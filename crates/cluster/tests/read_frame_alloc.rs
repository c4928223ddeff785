//! `read_frame` must not allocate from a length it has not received: a
//! header that declares a 1 GiB payload and then stops costs the bytes
//! that came, and a header with a retired magic costs nothing past the
//! header. A counting global allocator measures the heap, so this binary
//! holds this one test and nothing else allocates while it runs.

use kmeans_cluster::protocol::MAX_FRAME_PAYLOAD;
use kmeans_cluster::{FrameError, Message, ReadFrameError, WireMessage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its caller's layout and pointer to the
// system allocator unchanged, so the system allocator's guarantees hold;
// the counters are plain atomics and touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Hands out its bytes at most `chunk` at a time, like a socket.
struct Trickle {
    bytes: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn a_forged_length_costs_the_bytes_that_came_not_the_bytes_declared() {
    // A ShardSums header declaring a 1 GiB payload (exactly the cap, so
    // the length check passes), then 1 KiB, then end of stream. Under the
    // retired `SKW1` magic the header alone is refused, before any
    // payload buffer exists.
    for magic in [b"SKW1", b"SKW2"] {
        let mut bytes = magic.to_vec();
        bytes.push(6);
        bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
        bytes.extend(std::iter::repeat_n(0x5a, 1024));
        let mut stream = Trickle {
            bytes,
            pos: 0,
            chunk: 4096,
        };

        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let result = Message::read_frame(&mut stream, MAX_FRAME_PAYLOAD);
        let growth = PEAK.load(Ordering::SeqCst) - before;

        match result {
            Err(ReadFrameError::Frame(FrameError::BadMagic)) if magic == b"SKW1" => {
                assert_eq!(growth, 0, "heap grew past the refused header")
            }
            Err(ReadFrameError::Io(e)) if magic == b"SKW2" => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
            }
            other => panic!("unexpected result for {magic:?}: {other:?}"),
        }
        assert!(
            growth < 1 << 20,
            "peak heap growth {growth} bytes for 1 KiB received"
        );
    }

    // A real frame larger than the first allocation still arrives whole
    // through the growing buffer, trickled a few KiB at a time.
    let sums: Vec<f64> = (0..40_000).map(|i| i as f64 * 0.5).collect();
    let msg = Message::ShardSums { sums };
    let frame = msg.encode_frame();
    let mut stream = Trickle {
        bytes: frame.clone(),
        pos: 0,
        chunk: 3000,
    };
    let (got, used) = Message::read_frame(&mut stream, MAX_FRAME_PAYLOAD).unwrap();
    assert_eq!(used, frame.len());
    assert_eq!(got, msg);
}
