//! The streaming replay memory contract, enforced with a byte fence:
//! producing frame `f` must never read past frame `f`'s end offset in
//! the trace, on either wire version. This is what bounds peak decoder
//! memory to a single frame — the decoder cannot buffer bytes it is
//! forbidden to read.

use std::cell::Cell;
use std::io::Read;
use std::rc::Rc;

use megsim_gfx::draw::Frame;
use megsim_gl::{encode_with_version, record_sequence, FrameIter};
use megsim_workloads::by_alias;

/// A reader that refuses to hand out bytes at or beyond `fence`: any
/// read past it errors, failing the decode loudly instead of letting a
/// read-ahead implementation pass unnoticed.
struct FencedReader<'a> {
    data: &'a [u8],
    pos: usize,
    fence: Rc<Cell<usize>>,
}

impl Read for FencedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let fence = self.fence.get();
        if self.pos >= fence {
            return Err(std::io::Error::other(
                "decoder read beyond the current frame's bytes",
            ));
        }
        let n = buf
            .len()
            .min(fence - self.pos)
            .min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn recorded_bytes(version: u16) -> Vec<u8> {
    let workload = by_alias("hcr", 0.005, 1).expect("known alias");
    let frames: Vec<Frame> = (0..6).map(|i| workload.frame(i)).collect();
    let stream = record_sequence(workload.shaders(), &frames);
    encode_with_version(&stream, version).expect("supported version")
}

#[test]
// while-let (not a for loop) so `iter` stays callable for byte_offset.
#[allow(clippy::while_let_on_iterator)]
fn frame_decode_never_reads_past_the_frame_boundary() {
    for version in [1u16, 2] {
        let bytes = recorded_bytes(version);
        // Pass 1: unrestricted replay, recording each frame's end
        // offset (bytes consumed once that frame has been produced).
        let mut iter = FrameIter::new(&bytes[..]).expect("valid trace");
        let mut ends = Vec::new();
        let mut frames = 0usize;
        while let Some(frame) = iter.next() {
            frame.expect("valid frame");
            frames += 1;
            ends.push(iter.byte_offset() as usize);
        }
        assert_eq!(frames, 6);

        // Pass 2: replay again behind the fence. Before pulling frame
        // `f`, only bytes up to frame `f`'s end are reachable; a
        // decoder that buffered ahead would trip the fence and error.
        let fence = Rc::new(Cell::new(ends[0]));
        let reader = FencedReader {
            data: &bytes,
            pos: 0,
            fence: Rc::clone(&fence),
        };
        let mut iter = FrameIter::new(reader).expect("prelude fits in frame 0's window");
        for (f, end) in ends.iter().enumerate() {
            fence.set(*end);
            let frame = iter
                .next()
                .unwrap_or_else(|| panic!("frame {f} missing (v{version})"))
                .unwrap_or_else(|e| panic!("frame {f} read past its bytes (v{version}): {e}"));
            assert_eq!(iter.byte_offset() as usize, *end, "frame {f} end offset");
            drop(frame);
        }
        assert!(iter.next().is_none(), "no trailing frames");
    }
}
