//! Bit-granular reader/writer used by all encoded representations.
//!
//! The paper's encodings pack fields that "span the boundaries of the units
//! of memory access"; this module provides exactly that: an MSB-first bit
//! stream over a byte buffer.
//!
//! The reader has two read paths. [`BitReader::read`] extracts a whole
//! field from one 64-bit big-endian window of the buffer — the
//! word-batched fast plane every production decoder uses.
//! [`BitReader::read_bitwise`] is the original bit-at-a-time loop, kept
//! verbatim as the *reference* path: the tree-walking reference decoders
//! read through it, so the fast plane can be differentially tested (and
//! benchmarked) against an implementation whose cost profile matches the
//! paper's "examine one bit per level" description. Both paths share the
//! cursor and the end-of-stream rules, so they are interchangeable
//! mid-stream.

/// Appends bit fields to a byte buffer, MSB-first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Total bits written.
    len: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.len
    }

    /// Writes the low `width` bits of `value`, MSB-first, a byte at a
    /// time: the bits that complete the partial last byte, then whole
    /// bytes, then the head of a new partial byte.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    #[inline]
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut left = width;
        let used = (self.len % 8) as u32;
        if used != 0 && left != 0 {
            let room = 8 - used;
            let take = room.min(left);
            left -= take;
            let head = (value >> left) & ((1u64 << take) - 1);
            *self.buf.last_mut().expect("a partial byte") |= (head << (room - take)) as u8;
        }
        while left >= 8 {
            left -= 8;
            self.buf.push((value >> left) as u8);
        }
        if left != 0 {
            self.buf.push((value << (8 - left)) as u8);
        }
        self.len += u64::from(width);
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Finishes writing, returning the buffer and the exact bit length.
    pub fn finish(self) -> (Vec<u8>, u64) {
        (self.buf, self.len)
    }
}

/// Reads bit fields from a byte buffer, MSB-first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: u64,
    len: u64,
    /// Word-batched refill buffer: a cached 64-bit window of the stream
    /// starting at bit `win_pos`, MSB-aligned. The fast read path serves
    /// up to 57 bits per call out of this register and reloads it only
    /// when fewer remain, instead of reassembling a window from bytes on
    /// every read. Interior mutability keeps [`BitReader::peek`] `&self`.
    win: std::cell::Cell<u64>,
    win_pos: std::cell::Cell<u64>,
}

/// `win_pos` value marking the refill buffer invalid: no real bit
/// position reaches it, so the first fast read always reloads.
const WIN_INVALID: u64 = u64::MAX >> 1;

/// An attempt to read past the end of a bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsExhausted;

impl std::fmt::Display for BitsExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "read past end of bit stream")
    }
}

impl std::error::Error for BitsExhausted {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `len` bits of `buf`, starting at bit 0.
    pub fn new(buf: &'a [u8], len: u64) -> Self {
        Self::at(buf, len, 0)
    }

    /// Creates a reader positioned at bit offset `at`.
    pub fn at(buf: &'a [u8], len: u64, at: u64) -> Self {
        BitReader {
            buf,
            pos: at,
            len,
            win: std::cell::Cell::new(0),
            win_pos: std::cell::Cell::new(WIN_INVALID),
        }
    }

    /// Current bit position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Valid bits in the stream: the declared `len` clamped to the backing
    /// buffer, so a stream whose header claims more bits than the buffer
    /// holds (a truncated or corrupted image) errors instead of reading
    /// out of bounds.
    #[inline]
    fn avail(&self) -> u64 {
        self.len.min(self.buf.len() as u64 * 8)
    }

    /// Bits left before the end of the stream.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.avail().saturating_sub(self.pos)
    }

    /// Loads 64 bits starting at bit `bitpos`, MSB-aligned (bit 63 of the
    /// result is the bit at `bitpos`). Bits past the end of the buffer
    /// read as zero; callers bound their consumption by [`Self::avail`].
    #[inline]
    fn load64(&self, bitpos: u64) -> u64 {
        let byte = (bitpos / 8) as usize;
        let shift = (bitpos % 8) as u32;
        // One branch: the common in-bounds case reads 9 bytes directly;
        // near the end the window is padded with zeros.
        let w: [u8; 9] = if byte + 9 <= self.buf.len() {
            self.buf[byte..byte + 9].try_into().expect("9-byte window")
        } else {
            let mut w = [0u8; 9];
            if byte < self.buf.len() {
                let n = self.buf.len() - byte;
                w[..n].copy_from_slice(&self.buf[byte..]);
            }
            w
        };
        let hi = u64::from_be_bytes(w[..8].try_into().expect("8-byte head"));
        if shift == 0 {
            hi
        } else {
            (hi << shift) | (w[8] as u64 >> (8 - shift))
        }
    }

    /// The 64-bit window at the cursor, served from the refill buffer.
    /// Valid for widths up to 57: the cached window is reused while at
    /// least 57 bits of it lie ahead of the cursor and reloaded
    /// otherwise, so consecutive reads cost two shifts and one
    /// well-predicted branch each instead of reassembling bytes.
    #[inline]
    fn window(&self) -> u64 {
        let off = self.pos.wrapping_sub(self.win_pos.get());
        if off < 8 {
            self.win.get() << off
        } else {
            let w = self.load64(self.pos);
            self.win.set(w);
            self.win_pos.set(self.pos);
            w
        }
    }

    /// Reads `width` bits, MSB-first, extracting the whole field from one
    /// 64-bit window — the word-batched fast path.
    ///
    /// # Errors
    ///
    /// Returns [`BitsExhausted`] if fewer than `width` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn read(&mut self, width: u32) -> Result<u64, BitsExhausted> {
        assert!(width <= 64, "width {width} > 64");
        if self.pos + width as u64 > self.avail() {
            return Err(BitsExhausted);
        }
        if width == 0 {
            return Ok(0);
        }
        let out = if width <= 57 {
            self.window() >> (64 - width)
        } else {
            // Wider than the refill window guarantees: load directly.
            self.load64(self.pos) >> (64 - width)
        };
        self.pos += width as u64;
        Ok(out)
    }

    /// Reads `width` bits one bit at a time — the reference path whose
    /// cost profile the modeled decoders assume. Byte-for-byte the seed
    /// implementation of [`BitReader::read`]; identical results and
    /// errors, different host cost.
    ///
    /// # Errors
    ///
    /// Returns [`BitsExhausted`] if fewer than `width` bits remain.
    pub fn read_bitwise(&mut self, width: u32) -> Result<u64, BitsExhausted> {
        assert!(width <= 64, "width {width} > 64");
        if self.pos + width as u64 > self.avail() {
            return Err(BitsExhausted);
        }
        let mut out = 0u64;
        for _ in 0..width {
            let byte = self.buf[(self.pos / 8) as usize];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            out = (out << 1) | bit as u64;
            self.pos += 1;
        }
        Ok(out)
    }

    /// Returns the next `width` bits without consuming them, MSB-first in
    /// the low bits of the result. Bits past the end of the stream read
    /// as zero — callers that care must check [`BitReader::remaining`]
    /// before trusting more than `remaining()` bits of the window. This
    /// is the table decoder's probe: one load, no cursor movement, no
    /// error path.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 57 (the widest window one
    /// unaligned 64-bit load can always supply).
    #[inline]
    pub fn peek(&self, width: u32) -> u64 {
        assert!(
            (1..=57).contains(&width),
            "peek width {width} out of 1..=57"
        );
        let avail = self.avail();
        // Fast path: a full 64-bit window of real stream bits remains, so
        // no padding can leak into the peeked value.
        if self.pos + 64 <= avail {
            return self.window() >> (64 - width);
        }
        let window = if self.pos >= avail {
            0
        } else {
            let raw = self.window();
            // Zero bits the stream does not actually hold (the buffer may
            // be longer than the declared bit length).
            let valid = avail - self.pos;
            if valid < 64 {
                raw & !((1u64 << (64 - valid)) - 1)
            } else {
                raw
            }
        };
        window >> (64 - width)
    }

    /// Advances the cursor by `width` bits previously examined with
    /// [`BitReader::peek`].
    ///
    /// # Errors
    ///
    /// Returns [`BitsExhausted`] if fewer than `width` bits remain; the
    /// cursor does not move.
    #[inline]
    pub fn consume(&mut self, width: u32) -> Result<(), BitsExhausted> {
        if self.pos + width as u64 > self.avail() {
            return Err(BitsExhausted);
        }
        self.pos += width as u64;
        Ok(())
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`BitsExhausted`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, BitsExhausted> {
        Ok(self.read_bitwise(1)? == 1)
    }
}

/// Number of bits needed to represent values in `0..=max` (at least 1).
pub fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xDEADBEEF, 32);
        w.write(1, 1);
        w.write(0, 5);
        w.write(u64::MAX, 64);
        let (buf, len) = w.finish();
        assert_eq!(len, 3 + 32 + 1 + 5 + 64);
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.read(3).unwrap(), 0b101);
        assert_eq!(r.read(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read(1).unwrap(), 1);
        assert_eq!(r.read(5).unwrap(), 0);
        assert_eq!(r.read(64).unwrap(), u64::MAX);
        assert!(r.read(1).is_err());
    }

    #[test]
    fn fields_span_byte_boundaries() {
        let mut w = BitWriter::new();
        w.write(0b1111111, 7);
        w.write(0b10, 2); // crosses byte 0 -> 1
        let (buf, len) = w.finish();
        assert_eq!(len, 9);
        assert_eq!(buf.len(), 2);
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.read(7).unwrap(), 0b1111111);
        assert_eq!(r.read(2).unwrap(), 0b10);
    }

    #[test]
    fn reader_at_offset() {
        let mut w = BitWriter::new();
        w.write(0b1010, 4);
        w.write(0b11, 2);
        let (buf, len) = w.finish();
        let mut r = BitReader::at(&buf, len, 4);
        assert_eq!(r.read(2).unwrap(), 0b11);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_rejects_oversized_value() {
        let mut w = BitWriter::new();
        w.write(8, 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_rejects_any_value_at_width_zero() {
        let mut w = BitWriter::new();
        w.write(1, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_rejects_a_top_bit_past_width_63() {
        let mut w = BitWriter::new();
        w.write(1 << 63, 63);
    }

    #[test]
    #[should_panic(expected = "width 65 > 64")]
    fn write_rejects_widths_above_64() {
        let mut w = BitWriter::new();
        w.write(0, 65);
    }

    /// The bit-at-a-time writer [`BitWriter::write`] replaced, kept as
    /// its oracle: one bit per iteration, growing the buffer a byte at a
    /// time.
    fn write_bitwise(buf: &mut Vec<u8>, len: &mut u64, value: u64, width: u32) {
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            let byte_idx = (*len / 8) as usize;
            if byte_idx == buf.len() {
                buf.push(0);
            }
            let bit_idx = 7 - (*len % 8) as u32;
            buf[byte_idx] |= (bit as u8) << bit_idx;
            *len += 1;
        }
    }

    /// Seeded (value, width) sequences over every width 0..=64, at every
    /// alignment: the byte-stepping writer leaves the oracle's bytes and
    /// bit length after each write.
    #[test]
    fn writer_matches_the_bitwise_oracle() {
        let mut x = 0x2545F4914F6CDD1Du64;
        for seed_round in 0..8u32 {
            let mut w = BitWriter::new();
            let (mut buf, mut len) = (Vec::new(), 0u64);
            for _ in 0..600 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let width = (x % 65) as u32;
                let raw = x.rotate_left(seed_round * 8 + 5);
                let value = if width == 64 {
                    raw
                } else {
                    raw & ((1u64 << width) - 1)
                };
                w.write(value, width);
                write_bitwise(&mut buf, &mut len, value, width);
                assert_eq!(w.bit_len(), len);
                assert_eq!(w.buf, buf, "after writing {value:#x} in {width} bits");
            }
            for width in 0..=64 {
                let value = if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                w.write(value, width);
                write_bitwise(&mut buf, &mut len, value, width);
            }
            assert_eq!(w.finish(), (buf, len));
        }
    }

    #[test]
    fn bits_for_bounds() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        for i in 0..10 {
            w.write_bit(i % 3 == 0);
        }
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        for i in 0..10 {
            assert_eq!(r.read_bit().unwrap(), i % 3 == 0);
        }
    }

    #[test]
    fn position_tracks_reads() {
        let mut w = BitWriter::new();
        w.write(0xAB, 8);
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.position(), 0);
        r.read(3).unwrap();
        assert_eq!(r.position(), 3);
    }

    /// Seeded cross-check: the batched and bitwise paths agree on every
    /// read, at every width, from every alignment — including the error.
    #[test]
    fn batched_reads_match_bitwise_reads() {
        let mut w = BitWriter::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut widths = Vec::new();
        for i in 0..400u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let width = (x >> 59) as u32 % 17 + 1; // 1..=17, misaligned mix
            let value = x & ((1u64 << width) - 1);
            w.write(value, width);
            widths.push(width + i % 2); // sometimes read a different width
        }
        let (buf, len) = w.finish();
        let mut fast = BitReader::new(&buf, len);
        let mut slow = BitReader::new(&buf, len);
        for width in widths {
            let a = fast.read(width.min(64));
            let b = slow.read_bitwise(width.min(64));
            assert_eq!(a, b);
            assert_eq!(fast.position(), slow.position());
            if a.is_err() {
                break;
            }
        }
    }

    #[test]
    fn peek_does_not_consume_and_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write(0b1011, 4);
        let (buf, len) = w.finish();
        let r = BitReader::new(&buf, len);
        assert_eq!(r.peek(4), 0b1011);
        // Past-the-end bits are zero padding, position untouched.
        assert_eq!(r.peek(8), 0b1011_0000);
        assert_eq!(r.position(), 0);
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn peek_masks_undeclared_buffer_bits() {
        // The buffer holds 8 bits but the stream declares only 3: the
        // undeclared tail must read as zero, exactly as read() refuses it.
        let buf = [0b1111_1111u8];
        let r = BitReader::new(&buf, 3);
        assert_eq!(r.peek(8), 0b1110_0000);
    }

    #[test]
    fn consume_checks_the_end_of_stream() {
        let buf = [0xFFu8];
        let mut r = BitReader::new(&buf, 8);
        r.consume(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.consume(4), Err(BitsExhausted));
        assert_eq!(r.position(), 5, "failed consume must not move");
        r.consume(3).unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn read_beyond_declared_length_errors() {
        // Buffer longer than the declared bit length: both paths refuse.
        let buf = [0xAB, 0xCD];
        let mut a = BitReader::new(&buf, 4);
        assert_eq!(a.read(4).unwrap(), 0xA);
        assert!(a.read(1).is_err());
        let mut b = BitReader::new(&buf, 4);
        assert_eq!(b.read_bitwise(4).unwrap(), 0xA);
        assert!(b.read_bitwise(1).is_err());
    }

    #[test]
    fn truncated_buffer_clamps_declared_length() {
        // Declared length exceeds the buffer: reads clamp to real bytes.
        let buf = [0xFFu8];
        let mut r = BitReader::new(&buf, 64);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.read(8).unwrap(), 0xFF);
        assert!(r.read(1).is_err());
    }
}
