//! Column coding of checkpoint bodies: the row tables a writer declared
//! ([`crate::StateWriter::put_table`]) stored as byte planes.
//!
//! A checkpoint's state is a *logical image*: the bytes the domain
//! encoders write, which every decoder, digest and size rule reads. The
//! store keeps the image's declared tables column by column instead of row
//! by row. A table is cut into blocks of up to [`BLOCK_ROWS`] rows; in a
//! block whose rows share one width, byte `j` of every row forms plane
//! `j`. A plane holding one value takes one byte, any other is
//! run-length coded, and the ascending `u32` index column of an indexed
//! table is stored as gaps. Bytes outside blocks are stored verbatim, and
//! so is a block that coding would not shrink. The coded body:
//!
//! ```text
//! body   := logical_len:u64 part+
//! part   := gap:u64 byte[gap] block?        a block follows unless the
//!                                           image is complete
//! block  := kind:u8 rows:var width:var      kind 1 positional, 2 indexed
//!           gap:var × rows                  indexed only: index minus the
//!                                           previous one (mod 2³²), from 0
//!           mask:u8[⌈planes / 8⌉]           bit p: plane p is one value
//!           plane × planes                  the columns after the index
//! plane  := value:u8                        a masked plane
//!         | run+                            rows bytes between them
//! run    := var(n · 2 + 1) value:u8         n copies of value
//!         | var(n · 2) byte[n]              n literal bytes
//! ```
//!
//! `var` is LEB128. Every length is read against what its structure can
//! hold ([`StateReader::get_len`], [`StateReader::get_var_len`]): a gap
//! past the image or the input, a block past the image, a run past its
//! plane is corruption, so a damaged body yields an error, never a panic or
//! an allocation it cannot fill.
//!
//! 4,000 rows a block, off a power of two: a transposition that gathers
//! each plane across a whole 4,096-row block has its accesses alias in
//! the cache at 4 KiB. The tiled transposition here (`TILE` rows at a
//! time) timed the same at 4,000 and 4,096 rows.

use crate::codec::{Image, RowBlock};
use crate::record::MAX_RECORD_LEN;
use crate::{PersistError, Result, StateReader};

/// Rows per coded block.
pub const BLOCK_ROWS: usize = 4_000;

const POSITIONAL: u8 = 1;
const INDEXED: u8 = 2;

/// The sizing pass over an image: which declared blocks to code, and the
/// length of the body [`Coded::write`] will stream.
#[derive(Debug)]
pub(crate) struct Coded<'a> {
    image: Image<'a>,
    blocks: Vec<RowBlock>,
    len: usize,
}

impl<'a> Coded<'a> {
    /// Codes every declared block once to learn its size, keeping those
    /// that coding shrinks. Scratch is bounded by one block.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds [`MAX_RECORD_LEN`].
    pub fn plan(image: Image<'a>) -> Self {
        assert!(image.bytes.len() <= MAX_RECORD_LEN as usize, "state image too long");
        let mut scratch = Scratch::default();
        // The logical length and the final gap, around a verbatim image.
        let mut len = 16 + image.bytes.len();
        let mut blocks = Vec::new();
        for block in image.blocks {
            debug_assert!(blocks.last().is_none_or(|b: &RowBlock| b.end() <= block.start));
            let coded = scratch.code(image.bytes, block).len() + 8;
            let raw = block.rows * block.width;
            if coded < raw {
                len = len - raw + coded;
                blocks.push(*block);
            }
        }
        Self { image, blocks, len }
    }

    /// Bytes of the coded body.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Streams the coded body into `sink`, one block at a time.
    pub fn write(&self, sink: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let bytes = self.image.bytes;
        let mut scratch = Scratch::default();
        sink(&(bytes.len() as u64).to_le_bytes())?;
        let mut pos = 0;
        for block in &self.blocks {
            sink(&((block.start - pos) as u64).to_le_bytes())?;
            sink(&bytes[pos..block.start])?;
            sink(scratch.code(bytes, block))?;
            pos = block.end();
        }
        sink(&((bytes.len() - pos) as u64).to_le_bytes())?;
        sink(&bytes[pos..])
    }
}

/// The coded body of `image`, built in memory.
#[cfg(test)]
pub(crate) fn encode(image: Image<'_>) -> Vec<u8> {
    let coded = Coded::plan(image);
    let mut out = Vec::with_capacity(coded.len());
    coded
        .write(&mut |bytes| {
            out.extend_from_slice(bytes);
            Ok(())
        })
        .expect("an in-memory sink cannot fail");
    assert_eq!(out.len(), coded.len());
    out
}

/// One block's coding buffers: its planes, and the coded block.
#[derive(Debug, Default)]
struct Scratch {
    planes: Vec<u8>,
    out: Vec<u8>,
}

impl Scratch {
    /// Codes `block` of `bytes`; the result lives until the next call.
    fn code(&mut self, bytes: &[u8], block: &RowBlock) -> &[u8] {
        let (out, n, width) = (&mut self.out, block.rows, block.width);
        let rows = &bytes[block.start..block.end()];
        out.clear();
        out.push(if block.indexed { INDEXED } else { POSITIONAL });
        put_var(out, n as u64);
        put_var(out, width as u64);
        let first = if block.indexed { 4 } else { 0 };
        if block.indexed {
            let mut prev = 0u32;
            for row in rows.chunks_exact(width) {
                let index = u32::from_le_bytes([row[0], row[1], row[2], row[3]]);
                put_var(out, u64::from(index.wrapping_sub(prev)));
                prev = index;
            }
        }
        let planes = width - first;
        self.planes.resize(planes * n, 0);
        transpose(rows, width, first, &mut self.planes);
        let mask = out.len();
        out.resize(mask + planes.div_ceil(8), 0);
        for (p, plane) in self.planes.chunks_exact(n).enumerate() {
            let value = plane[0];
            if plane.iter().all(|&b| b == value) {
                out[mask + p / 8] |= 1 << (p % 8);
                out.push(value);
            } else {
                put_runs(plane, out);
            }
        }
        out
    }
}

/// Rows per transposition tile: a tile of rows stays in L1 while each of
/// its planes is copied out, so the block is read once, not once a plane.
const TILE: usize = 64;

/// Copies columns `first..` of `rows` (each `width` bytes) into `planes`,
/// plane by plane.
fn transpose(rows: &[u8], width: usize, first: usize, planes: &mut [u8]) {
    let n = rows.len() / width;
    for (t, tile) in rows.chunks(TILE * width).enumerate() {
        for (p, plane) in planes.chunks_exact_mut(n).enumerate() {
            let dest = &mut plane[t * TILE..];
            dest.iter_mut().zip(tile[first + p..].iter().step_by(width)).for_each(|(d, &b)| *d = b);
        }
    }
}

/// The inverse of [`transpose`]: writes `planes` into columns `first..`
/// of `rows`.
fn untranspose(planes: &[u8], rows: &mut [u8], width: usize, first: usize) {
    let n = rows.len() / width;
    for (t, tile) in rows.chunks_mut(TILE * width).enumerate() {
        for (p, plane) in planes.chunks_exact(n).enumerate() {
            let src = &plane[t * TILE..];
            tile[first + p..].iter_mut().step_by(width).zip(src).for_each(|(d, &b)| *d = b);
        }
    }
}

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Run-length codes one plane: repeats of three bytes or more as runs
/// (a run takes two bytes), the bytes between them as literals.
fn put_runs(plane: &[u8], out: &mut Vec<u8>) {
    let put_literal = |bytes: &[u8], out: &mut Vec<u8>| {
        if !bytes.is_empty() {
            put_var(out, (bytes.len() as u64) << 1);
            out.extend_from_slice(bytes);
        }
    };
    let (mut literal, mut i) = (0, 0);
    while i + 3 <= plane.len() {
        // No run of three starts at `i` or `i + 1` unless the second and
        // third bytes agree: random planes advance two bytes a compare.
        if plane[i + 1] != plane[i + 2] {
            i += 2;
        } else if plane[i] != plane[i + 1] {
            i += 1;
        } else {
            let value = plane[i];
            let end = i + plane[i..].iter().take_while(|&&b| b == value).count();
            put_literal(&plane[literal..i], out);
            put_var(out, ((end - i) as u64) << 1 | 1);
            out.push(value);
            (literal, i) = (end, end);
        }
    }
    put_literal(&plane[literal..], out);
}

/// How a checkpoint's body was coded, as its reader found it: sizes a
/// tool or a test can check without knowing the layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coding {
    /// Bytes of the coded body.
    pub coded_bytes: usize,
    /// Rows stored in positional blocks.
    pub positional_rows: usize,
    /// Rows stored in indexed blocks.
    pub indexed_rows: usize,
    /// Bytes the gap-coded index columns of those blocks take.
    pub index_bytes: usize,
}

/// Rebuilds the logical image from a coded body, and reports how it was
/// coded. Corrupt input is an error, never a panic; the image is
/// allocated once, at the length the body declares (at most
/// [`MAX_RECORD_LEN`]).
pub(crate) fn decode(body: &[u8]) -> Result<(Vec<u8>, Coding)> {
    let mut coding = Coding { coded_bytes: body.len(), ..Coding::default() };
    let mut r = StateReader::new(body);
    let len = r.get_u64()?;
    if len > u64::from(MAX_RECORD_LEN) {
        return Err(PersistError::corrupt("state image too long"));
    }
    let len = len as usize;
    let mut image = Vec::with_capacity(len);
    // One block's planes, decoded before they are written into its rows.
    let mut planes = Vec::new();
    loop {
        let gap = r.get_len(1)?;
        if gap > len - image.len() {
            return Err(PersistError::corrupt("verbatim bytes past the image"));
        }
        image.extend_from_slice(r.get_slice(gap)?);
        if image.len() == len {
            break;
        }
        decode_block(&mut r, &mut image, len, &mut planes, &mut coding)?;
    }
    r.finish()?;
    Ok((image, coding))
}

/// Decodes one block onto the end of `image`, which must stay within
/// `len` bytes, counting it into `coding`; `scratch` holds its planes.
fn decode_block(
    r: &mut StateReader<'_>,
    image: &mut Vec<u8>,
    len: usize,
    scratch: &mut Vec<u8>,
    coding: &mut Coding,
) -> Result<()> {
    let first = match r.get_u8()? {
        POSITIONAL => 0,
        INDEXED => 4,
        _ => return Err(PersistError::corrupt("unknown block kind")),
    };
    let rows = r.get_var_len(BLOCK_ROWS)?;
    if rows == 0 {
        return Err(PersistError::corrupt("empty block"));
    }
    let width = r.get_var_len((len - image.len()) / rows)?;
    if width == 0 || width < first {
        return Err(PersistError::corrupt("block rows too narrow"));
    }
    // Every index and every plane takes at least a byte: a block the input
    // cannot hold is corruption, not an allocation.
    let planes = width - first;
    if planes + if first == 4 { rows } else { 0 } > r.remaining() {
        return Err(PersistError::corrupt("block past the input"));
    }
    let start = image.len();
    image.resize(start + rows * width, 0);
    let block = &mut image[start..];
    if first == 4 {
        let before = r.remaining();
        let mut index = 0u32;
        for row in block.chunks_exact_mut(width) {
            index = index.wrapping_add(r.get_var_len(u32::MAX as usize)? as u32);
            row[..4].copy_from_slice(&index.to_le_bytes());
        }
        coding.indexed_rows += rows;
        coding.index_bytes += before - r.remaining();
    } else {
        coding.positional_rows += rows;
    }
    let mask = r.get_slice(planes.div_ceil(8))?;
    scratch.resize(planes * rows, 0);
    for (p, plane) in scratch.chunks_exact_mut(rows).enumerate() {
        if mask[p / 8] >> (p % 8) & 1 == 1 {
            plane.fill(r.get_u8()?);
            continue;
        }
        let mut k = 0;
        while k < rows {
            let run = r.get_var_len(2 * (rows - k) + 1)?;
            let n = run >> 1;
            if n == 0 {
                return Err(PersistError::corrupt("empty run"));
            }
            if run & 1 == 1 {
                plane[k..k + n].fill(r.get_u8()?);
            } else {
                plane[k..k + n].copy_from_slice(r.get_slice(n)?);
            }
            k += n;
        }
    }
    untranspose(scratch, block, width, first);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StateWriter, Table};

    /// xorshift64*: reproducible bytes without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A table of `n` rows of `stride` bytes between a prefix and a suffix:
    /// plane `j` is constant, random or mixed (runs broken by random
    /// bytes) by `j % 3`. Indexed rows start with ascending indices, and
    /// row `odd` (if any) is one byte wider.
    fn table(
        rng: &mut Rng,
        n: usize,
        stride: usize,
        table: Table,
        odd: Option<usize>,
    ) -> StateWriter {
        let mut w = StateWriter::new();
        w.put_bytes(b"prefix");
        w.put_u64(n as u64);
        let consts: Vec<u8> = (0..stride).map(|_| rng.next() as u8).collect();
        let mut index = 0u32;
        w.put_table(table, 0..n, |w, k| {
            let mut first = 0;
            if table == Table::Indexed {
                index += 1 + rng.below(if k % 7 == 0 { 100_000 } else { 9 }) as u32;
                w.put_u32(index);
                first = 4;
            }
            for (j, &c) in consts.iter().enumerate().skip(first) {
                w.put_u8(match j % 3 {
                    0 => c,
                    1 => rng.next() as u8,
                    _ if rng.below(8) == 0 => rng.next() as u8,
                    _ => c ^ (k / 50) as u8,
                });
            }
            if odd == Some(k) {
                w.put_u8(0xEE);
            }
        });
        w.put_bytes(b"suffix");
        w
    }

    fn round_trip(w: &StateWriter) -> Vec<u8> {
        let coded = encode(Image::from(w));
        assert_eq!(decode(&coded).unwrap().0, w.bytes(), "{} bytes coded", coded.len());
        coded
    }

    #[test]
    fn random_tables_round_trip_at_every_block_edge() {
        let mut rng = Rng(0x5EED);
        let b = BLOCK_ROWS;
        for n in [0, 1, b - 1, b, b + 1] {
            for stride in (1..=64).step_by(9).chain([4, 5, 64]) {
                for kind in [Table::Positional, Table::Indexed] {
                    let w = table(&mut rng, n, stride, kind, None);
                    let coded = round_trip(&w);
                    // A third of the planes hold one value per block, so a
                    // table of more than a row always shrinks.
                    if n > 1 && stride >= 3 {
                        assert!(coded.len() < w.len(), "n={n} stride={stride} {kind:?}");
                    }
                    // The odd-width row forces its block verbatim: the
                    // coding is still exact, and a block after it codes.
                    if n > 0 {
                        let odd = rng.below(n);
                        round_trip(&table(&mut rng, n, stride, kind, Some(odd)));
                    }
                }
            }
        }
    }

    #[test]
    fn declarations_change_no_byte_and_carry_into_a_parent() {
        let mut rng = Rng(7);
        let inner = table(&mut rng, 10, 12, Table::Positional, None);
        let mut plain = StateWriter::new();
        plain.put_bytes(inner.bytes());
        let mut nested = StateWriter::new();
        nested.put_nested(&inner);
        assert_eq!(nested.bytes(), plain.bytes());
        assert_eq!(nested.blocks.len(), 1);
        assert_eq!(nested.blocks[0].start, inner.blocks[0].start + 4);
        round_trip(&nested);
        // A table inside a table's row is written, not declared.
        let mut outer = StateWriter::new();
        outer.put_table(Table::Positional, 0..3, |w, _| w.put_nested(&inner));
        assert_eq!(outer.blocks.len(), 1);
        round_trip(&outer);
    }

    /// A positional 3-row, 2-byte block image behind an empty gap, with
    /// plane 0 constant (7) and plane 1 coded by `runs`.
    fn crafted(runs: &[u8]) -> Vec<u8> {
        let mut body = 6u64.to_le_bytes().to_vec();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&[POSITIONAL, 3, 2, 0b01, 7]);
        body.extend_from_slice(runs);
        body.extend_from_slice(&0u64.to_le_bytes());
        body
    }

    #[test]
    fn lengths_past_their_structure_are_corruption() {
        let corrupt = |body: &[u8]| matches!(decode(body), Err(PersistError::Corrupt(_)));
        // A literal of 2 and a run of 1: exactly the plane.
        let (image, coding) = decode(&crafted(&[2 << 1, 1, 2, 1 << 1 | 1, 3])).unwrap();
        assert_eq!(image, [7, 1, 7, 2, 7, 3]);
        assert_eq!((coding.positional_rows, coding.indexed_rows, coding.coded_bytes), (3, 0, 34));
        assert!(corrupt(&crafted(&[4 << 1 | 1, 9])), "a run past its plane");
        assert!(corrupt(&crafted(&[4 << 1, 1, 2, 3, 4])), "a literal past its plane");
        assert!(corrupt(&crafted(&[2 << 1, 1, 2, 2 << 1 | 1, 3])), "the second run overruns");
        assert!(corrupt(&crafted(&[1 << 1, 1, 0, 2 << 1 | 1, 3])), "an empty run");
        assert!(corrupt(&crafted(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F])));
        // A block reaching past the image: 4 rows of 2 in a 6-byte image.
        let mut long = crafted(&[3 << 1 | 1, 5]);
        long[17] = 4;
        assert!(corrupt(&long), "a declaration past the image");
        // Verbatim bytes past the image, or past the input.
        let mut body = 2u64.to_le_bytes().to_vec();
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        assert!(corrupt(&body), "a gap past the image");
        let mut body = 4u64.to_le_bytes().to_vec();
        body.extend_from_slice(&4u64.to_le_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        assert!(corrupt(&body), "a gap past the input");
        // A block wider than the input could hold is not allocated.
        let mut body = (1u64 << 29).to_le_bytes().to_vec();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&[POSITIONAL, 0xA0, 0x1F]);
        put_var(&mut body, 100_000);
        assert!(corrupt(&body), "a block past the input");
        // An image longer than any record is not allocated.
        assert!(corrupt(&u64::MAX.to_le_bytes()));
        assert!(corrupt(&(u64::from(MAX_RECORD_LEN) + 1).to_le_bytes()));
        // Unknown kinds, empty or narrow blocks, trailing bytes.
        for (at, value) in [(16, 3u8), (17, 0), (18, 0)] {
            let mut body = crafted(&[3 << 1 | 1, 5]);
            body[at] = value;
            assert!(corrupt(&body), "byte {at} = {value}");
        }
        let mut indexed = crafted(&[3 << 1 | 1, 5]);
        indexed[16] = INDEXED;
        assert!(corrupt(&indexed), "an indexed row narrower than its index");
        let mut trailing = crafted(&[3 << 1 | 1, 5]);
        trailing.push(0);
        assert!(corrupt(&trailing));
    }

    #[test]
    fn every_truncation_fails_and_no_flip_panics() {
        let mut rng = Rng(0xF11F);
        let mut w = table(&mut rng, 40, 11, Table::Indexed, Some(39));
        w.put_table(Table::Positional, 0..30u32, |w, k| w.put_u64(u64::from(k / 4)));
        let coded = round_trip(&w);
        assert!(coded.len() < w.len());
        for cut in 0..coded.len() {
            assert!(decode(&coded[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..coded.len() {
            for bit in 0..8 {
                let mut flipped = coded.clone();
                flipped[i] ^= 1 << bit;
                let _ = decode(&flipped);
            }
        }
    }
}
