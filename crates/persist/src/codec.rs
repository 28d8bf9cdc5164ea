//! Fixed-width little-endian state encoding.
//!
//! Every domain type that persists itself (filters, views, ledgers,
//! protocol state) serializes through [`StateWriter`] / [`StateReader`].
//! A record's layout is declared once: a type implements [`Persist`] —
//! usually through [`persist!`](crate::persist), which turns one field
//! list into both the writer and the reader — and a record is its fields'
//! encodings in order. A composite record — one that nests row tables
//! ([`Rows`](crate::Rows)) and values read in place — is declared the same way, as one
//! part list. Only checks across fields are written by hand, and they run
//! once after the generated read. The encoding is
//! deliberately boring: fixed-width little-endian integers, `f64` as raw
//! IEEE-754 bits (`to_bits`/`from_bits`, so `-0.0`, infinities, and every
//! NaN payload round-trip bit-exactly — byte-identical recovery depends on
//! it), and length-prefixed byte strings. No varints, no implicit
//! alignment, no versioning at this layer — files carry a versioned header
//! and records carry tags; payloads are only ever decoded by the version
//! that wrote them.
//!
//! Beside the bytes, a writer records where its row tables lie
//! ([`StateWriter::put_table`]). The declarations change no byte of the
//! image; the snapshot store reads them to store each table as byte
//! planes ([`column`](mod@crate::column)).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::column::BLOCK_ROWS;
use crate::{PersistError, Result};

/// How the rows of a declared table ([`StateWriter::put_table`]) begin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// Rows in position order: every byte column is a plane.
    Positional,
    /// Each row starts with its `u32` index, ascending down the table:
    /// that column is stored as gaps.
    Indexed,
}

/// Up to [`BLOCK_ROWS`] consecutive rows of one width inside an image:
/// the unit the store codes as byte planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RowBlock {
    /// Offset of the first row.
    pub start: usize,
    /// Rows in the block (1 ..= [`BLOCK_ROWS`]).
    pub rows: usize,
    /// Bytes per row (at least 1; at least 4 when indexed).
    pub width: usize,
    /// Whether the rows start with an ascending `u32` index.
    pub indexed: bool,
}

impl RowBlock {
    /// One past the block's last byte.
    pub fn end(&self) -> usize {
        self.start + self.rows * self.width
    }
}

/// A logical state image and the row blocks declared in it — what a
/// checkpoint stores. Built from a [`StateWriter`], or from bare bytes
/// (no tables: the whole image is stored verbatim).
#[derive(Clone, Copy, Debug)]
pub struct Image<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) blocks: &'a [RowBlock],
}

impl<'a> From<&'a StateWriter> for Image<'a> {
    fn from(w: &'a StateWriter) -> Self {
        Image { bytes: &w.buf, blocks: &w.blocks }
    }
}

impl<'a> From<&'a [u8]> for Image<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        Image { bytes, blocks: &[] }
    }
}

impl<'a, const N: usize> From<&'a [u8; N]> for Image<'a> {
    fn from(bytes: &'a [u8; N]) -> Self {
        Image { bytes, blocks: &[] }
    }
}

impl<'a> From<&'a Vec<u8>> for Image<'a> {
    fn from(bytes: &'a Vec<u8>) -> Self {
        Image { bytes, blocks: &[] }
    }
}

/// An append-only state encoder over a growable byte buffer, with the row
/// tables declared in it.
#[derive(Clone, Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
    pub(crate) blocks: Vec<RowBlock>,
    /// Whether a table is being written: a table inside one of its rows
    /// is not declared, so declared blocks never overlap.
    in_table: bool,
}

impl From<Vec<u8>> for StateWriter {
    /// A writer holding `buf`, with no tables declared.
    fn from(buf: Vec<u8>) -> Self {
        Self { buf, ..Self::default() }
    }
}

impl StateWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (`0` / `1`).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits, little-endian.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed (`u32`) byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u32::MAX` — no state blob in this
    /// system comes within orders of magnitude of that.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("byte string too long");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends `inner`'s bytes as a length-prefixed byte string
    /// ([`Self::put_bytes`]), carrying the tables declared in it over to
    /// this writer.
    pub fn put_nested(&mut self, inner: &StateWriter) {
        self.put_bytes(&inner.buf);
        if !self.in_table {
            let base = self.buf.len() - inner.buf.len();
            let moved = inner.blocks.iter().map(|b| RowBlock { start: base + b.start, ..*b });
            self.blocks.extend(moved);
        }
    }

    /// Appends one row table: `put_row` writes the row of each item, in
    /// order — under [`Table::Indexed`] starting with its `u32` index. The
    /// bytes are exactly what the calls write; the writer also declares
    /// the table, in blocks of up to [`BLOCK_ROWS`] rows, so the store can
    /// code it. A block whose rows differ in width is not declared (stored
    /// verbatim), nor is a table written inside another table's row.
    pub fn put_table<T>(
        &mut self,
        table: Table,
        items: impl IntoIterator<Item = T>,
        mut put_row: impl FnMut(&mut Self, T),
    ) {
        if self.in_table {
            items.into_iter().for_each(|item| put_row(self, item));
            return;
        }
        self.in_table = true;
        let indexed = table == Table::Indexed;
        let min_width = if indexed { 4 } else { 1 };
        // The open block, and whether its rows all had its width so far.
        let mut block = RowBlock { start: self.buf.len(), rows: 0, width: 0, indexed };
        let mut uniform = true;
        for item in items {
            let start = self.buf.len();
            put_row(self, item);
            let width = self.buf.len() - start;
            if block.rows == 0 {
                block.width = width;
            }
            uniform &= width == block.width;
            block.rows += 1;
            if block.rows == BLOCK_ROWS {
                if uniform && block.width >= min_width {
                    self.blocks.push(block);
                }
                block = RowBlock { start: self.buf.len(), rows: 0, width: 0, indexed };
                uniform = true;
            }
        }
        if block.rows > 0 && uniform && block.width >= min_width {
            self.blocks.push(block);
        }
        self.in_table = false;
    }
}

/// A cursor decoding what a [`StateWriter`] encoded.
///
/// Every getter fails with [`PersistError::Corrupt`] instead of panicking
/// when the buffer is short — decoding always happens on bytes that came
/// off a disk, and a CRC collision, however unlikely, must surface as an
/// error, not a crash.
///
/// A reader also carries the population of the image it reads: every
/// entity id ([`StateReader::get_id`]) must lie below it.
#[derive(Clone, Copy, Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
    population: u64,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`, positioned at the start. Any `u32` is an id
    /// until [`StateReader::set_population`] bounds them.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, population: 1 << 32 }
    }

    /// Declares the population of the state read from here on: an id
    /// outside `0..n` is corruption.
    pub fn set_population(&mut self, n: usize) {
        self.population = n as u64;
    }

    /// Reads a `u32` entity id and checks it against the population.
    #[inline]
    pub fn get_id(&mut self) -> Result<u32> {
        let id = self.get_u32()?;
        if u64::from(id) >= self.population {
            return Err(PersistError::corrupt("id outside the population"));
        }
        Ok(id)
    }

    /// Bytes consumed so far: the offset of the next byte in the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — decoders call this last so a
    /// payload with trailing garbage (wrong version, wrong type) is
    /// rejected rather than silently half-read.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::corrupt("trailing bytes after decoded state"))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::corrupt("state payload truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as one byte; any value other than `0`/`1` is
    /// corruption.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::corrupt("invalid bool byte")),
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` count of items that follow, each at least `item_bytes`
    /// long, and checks it against the bytes left: a count that cannot fit
    /// is corruption, never an allocation request.
    ///
    /// # Panics
    ///
    /// Panics if `item_bytes` is zero.
    #[inline]
    pub fn get_len(&mut self, item_bytes: usize) -> Result<usize> {
        let len = self.get_u64()?;
        if len > (self.remaining() / item_bytes) as u64 {
            return Err(PersistError::corrupt("length prefix exceeds payload"));
        }
        Ok(len as usize)
    }

    /// Reads a LEB128 length (at most ten bytes) and checks it against
    /// `max`, the most the structure it measures can hold: a length past
    /// its bound is corruption, never an allocation request.
    pub fn get_var_len(&mut self, max: usize) -> Result<usize> {
        let mut len = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7F);
            if bits << shift >> shift != bits {
                return Err(PersistError::corrupt("length varint overflows"));
            }
            len |= bits << shift;
            if byte & 0x80 == 0 {
                return if len <= max as u64 {
                    Ok(len as usize)
                } else {
                    Err(PersistError::corrupt("length exceeds its bound"))
                };
            }
        }
        Err(PersistError::corrupt("length varint too long"))
    }

    /// Reads `n` raw bytes, borrowed from the buffer.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed byte string, borrowed from the buffer.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }
}

/// A value with one declared byte layout: [`Persist::put`] writes it and
/// [`Persist::get`] reads it back, so a record built from `Persist` fields
/// states its field order once.
///
/// A reader is canonical: whatever it accepts re-encodes to exactly the
/// bytes it consumed, so corrupt input is either an error or a value the
/// writer could have written.
pub trait Persist: Sized {
    /// The fewest bytes any value encodes to — what a `u64` count prefix of
    /// these values is checked against ([`StateReader::get_len`]).
    const MIN_BYTES: usize;

    /// Appends the value.
    fn put(&self, w: &mut StateWriter);

    /// Reads a value [`Persist::put`] wrote; corrupt input is an error.
    fn get(r: &mut StateReader<'_>) -> Result<Self>;
}

macro_rules! persist_scalar {
    ($($ty:ty: $bytes:expr, $put:ident, $get:ident;)*) => {$(
        impl Persist for $ty {
            const MIN_BYTES: usize = $bytes;
            #[inline]
            fn put(&self, w: &mut StateWriter) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut StateReader<'_>) -> Result<Self> {
                r.$get()
            }
        }
    )*};
}

persist_scalar! {
    u8: 1, put_u8, get_u8;
    bool: 1, put_bool, get_bool;
    u32: 4, put_u32, get_u32;
    u64: 8, put_u64, get_u64;
    f64: 8, put_f64, get_f64;
}

/// A `u64`.
impl Persist for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        usize::try_from(r.get_u64()?).map_err(|_| PersistError::corrupt("count exceeds usize"))
    }
}

/// A `0`/`1` tag byte, then the value if present.
impl<T: Persist> Persist for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut StateWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        Ok(if r.get_bool()? { Some(T::get(r)?) } else { None })
    }
}

/// The `N` items in order, no prefix.
impl<T: Persist + Copy + Default, const N: usize> Persist for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut StateWriter) {
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(r)?;
        }
        Ok(out)
    }
}

/// A `u64` count, then the items in order.
impl<T: Persist> Persist for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        let len = r.get_len(T::MIN_BYTES.max(1))?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// The layout of a `Vec` of the members, which must ascend strictly.
impl<T: Persist + Ord> Persist for BTreeSet<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        let len = r.get_len(T::MIN_BYTES.max(1))?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            let v = T::get(r)?;
            if out.last().is_some_and(|last| *last >= v) {
                return Err(PersistError::corrupt("set members not strictly ascending"));
            }
            out.insert(v);
        }
        Ok(out)
    }
}

/// The layout of a `Vec` of `(key, value)` entries, whose keys must ascend
/// strictly.
impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        let len = r.get_len((K::MIN_BYTES + V::MIN_BYTES).max(1))?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::get(r)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(PersistError::corrupt("map keys not strictly ascending"));
            }
            out.insert(k, V::get(r)?);
        }
        Ok(out)
    }
}

/// A byte string its owner writes and reads itself: written, its image
/// moves into the writer ([`StateWriter::put_nested`]) and is freed once
/// copied; read, it records where its bytes lie, for the owner to decode.
#[derive(Default)]
pub struct Nested {
    image: Cell<StateWriter>,
    /// Where [`Persist::get`] found the bytes in the buffer read.
    pub at: Range<usize>,
}

impl From<StateWriter> for Nested {
    fn from(image: StateWriter) -> Self {
        Self { image: Cell::new(image), at: 0..0 }
    }
}

impl Persist for Nested {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut StateWriter) {
        w.put_nested(&self.image.take());
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self> {
        let len = r.get_u32()? as usize;
        let start = r.position();
        r.get_slice(len)?;
        Ok(Self { at: start..start + len, ..Self::default() })
    }
}

/// Declares a record's layout once, as one field list.
///
/// `persist!(impl Persist for T { field: Type, … })` implements
/// [`Persist`] for a struct: each field is written with [`Persist::put`]
/// and read with [`Persist::get`], in the order listed. Fields left out of
/// the list take their values from a trailing `..base` expression. A
/// trailing `check path` names a `fn(&T) -> Result<()>` run on every value
/// read: the place for checks across fields.
///
/// `persist!(vis fn put, get { part, … })`, inside an `impl` block,
/// defines a writer `put(&self, w)` and a reader `get(&mut self, r)` of a
/// larger value's parts, in order. A part is a [`Persist`] value `field`
/// (or `field.path`); a row-selected part `field: rows` (its
/// `encode_rows(w, rows)` and, in place, `decode_rows(r, rows)`); a nested
/// value `field: in` (its `save_state(w)` and, in place, `load_state(r)`);
/// a layout constant `NAME: const`; or `name: derived`, written from
/// `self.name()`, which must equal it once every part is read and the
/// check has run. With `get(rows)` both functions take a `rows: Rows` for
/// the row parts (otherwise [`Rows::All`](crate::Rows::All)), and the check is a
/// `fn(&mut Self, Rows)`. Attributes before `fn` go on both functions. On
/// error the value is partly overwritten.
///
/// ```
/// use asf_persist::{persist, Persist, StateReader, StateWriter};
///
/// struct Span { lo: u64, hi: u64 }
/// persist!(impl Persist for Span { lo: u64, hi: u64 });
///
/// let mut w = StateWriter::new();
/// Span { lo: 2, hi: 5 }.put(&mut w);
/// let back = Span::get(&mut StateReader::new(w.bytes())).unwrap();
/// assert_eq!((back.lo, back.hi, Span::MIN_BYTES), (2, 5, 16));
/// ```
#[macro_export]
macro_rules! persist {
    (impl Persist for $ty:ty {
        $($field:ident: $fty:ty),* $(, ..$base:expr)? $(,)?
    } $(check $check:path)?) => {
        impl $crate::Persist for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::Persist>::MIN_BYTES)*;
            #[inline]
            fn put(&self, w: &mut $crate::StateWriter) {
                $($crate::Persist::put(&self.$field, w);)*
            }
            #[inline]
            fn get(r: &mut $crate::StateReader<'_>) -> $crate::Result<Self> {
                let value = Self { $($field: <$fty as $crate::Persist>::get(r)?,)* $(..$base)? };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $put:ident, $get:ident $(($rows:ident))? { $($parts:tt)* }
        $(check $check:path)?
    ) => {
        $(#[$attr])*
        #[inline]
        $vis fn $put(&self, w: &mut $crate::StateWriter $(, $rows: $crate::Rows)?) {
            $crate::persist!(@put self w ($crate::persist!(@rows $($rows)?)) $($parts)*);
        }
        $(#[$attr])*
        #[inline]
        $vis fn $get(
            &mut self,
            r: &mut $crate::StateReader<'_>
            $(, $rows: $crate::Rows)?
        ) -> $crate::Result<()> {
            $crate::persist!(
                @get self r ($crate::persist!(@rows $($rows)?)) [$($check ;)? $($rows)?] $($parts)*
            );
            Ok(())
        }
    };
    (@rows) => { $crate::Rows::All };
    (@rows $rows:ident) => { $rows };
    (@check $s:tt [$($rows:ident)?]) => {};
    (@check $s:tt [$check:path ; $rows:ident]) => { $check($s, $rows)?; };
    (@check $s:tt [$check:path ;]) => { $check($s)?; };
    (@put $s:tt $w:tt $rows:tt $(,)?) => {};
    (@put $s:tt $w:tt $rows:tt $($p:ident).+ $(: $kind:tt)? $(, $($rest:tt)*)?) => {
        $crate::persist!(@put1 $s $w $rows [$($p).+] $($kind)?);
        $crate::persist!(@put $s $w $rows $($($rest)*)?);
    };
    (@put1 $s:tt $w:tt $rows:tt [$c:ident] const) => { $crate::Persist::put(&$c, $w); };
    (@put1 $s:tt $w:tt $rows:tt [$n:ident] derived) => { $crate::Persist::put(&$s.$n(), $w); };
    (@put1 $s:tt $w:tt $rows:tt [$($p:ident).+] rows) => { $s.$($p).+.encode_rows($w, $rows); };
    (@put1 $s:tt $w:tt $rows:tt [$($p:ident).+] in) => { $s.$($p).+.save_state($w); };
    (@put1 $s:tt $w:tt $rows:tt [$($p:ident).+]) => { $crate::Persist::put(&$s.$($p).+, $w); };
    (@get $s:tt $r:tt $rows:tt $check:tt $(,)?) => {
        $crate::persist!(@check $s $check);
    };
    (@get $s:tt $r:tt $rows:tt $check:tt $n:ident: derived $(, $($rest:tt)*)?) => {
        let value = $crate::Persist::get($r)?;
        $crate::persist!(@get $s $r $rows $check $($($rest)*)?);
        $crate::persist!(@same value, $s.$n(), "record part disagrees with its sources");
    };
    (@get $s:tt $r:tt $rows:tt $check:tt $($p:ident).+ $(: $kind:tt)? $(, $($rest:tt)*)?) => {
        $crate::persist!(@get1 $s $r $rows [$($p).+] $($kind)?);
        $crate::persist!(@get $s $r $rows $check $($($rest)*)?);
    };
    (@get1 $s:tt $r:tt $rows:tt [$c:ident] const) => {
        $crate::persist!(@same $crate::Persist::get($r)?, $c, "record constant differs");
    };
    (@get1 $s:tt $r:tt $rows:tt [$($p:ident).+] rows) => { $s.$($p).+.decode_rows($r, $rows)?; };
    (@get1 $s:tt $r:tt $rows:tt [$($p:ident).+] in) => { $s.$($p).+.load_state($r)?; };
    (@get1 $s:tt $r:tt $rows:tt [$($p:ident).+]) => { $s.$($p).+ = $crate::Persist::get($r)?; };
    (@same $read:expr, $expected:expr, $what:literal) => {
        if !$crate::codec::same(&$read, &$expected) {
            return Err($crate::PersistError::corrupt($what));
        }
    };
}

/// Whether a value read is the one expected (fixes the type it is read as).
#[doc(hidden)]
pub fn same<T: PartialEq>(read: &T, expected: &T) -> bool {
    read == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_bytes(b"blob");

        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_bytes().unwrap(), b"blob");
        r.finish().unwrap();
    }

    #[test]
    fn nan_payloads_round_trip_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = StateWriter::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_errors_do_not_panic() {
        let mut w = StateWriter::new();
        w.put_u64(1);
        w.put_bytes(b"payload");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            // Either read may fail; neither may panic, and a fully-read
            // prefix must fail `finish`.
            let ok = r.get_u64().is_ok() && r.get_bytes().is_ok() && r.finish().is_ok();
            assert!(!ok, "truncated buffer decoded cleanly at {cut}");
        }
    }

    #[test]
    fn length_prefixes_fit_the_payload_at_every_truncation() {
        // Three 12-byte items behind their count: every prefix of the
        // record either decodes the count the bytes present can hold, or
        // fails — and the count is accepted exactly when all items fit.
        let mut w = StateWriter::new();
        w.put_u64(3);
        for i in 0..3u32 {
            w.put_u32(i);
            w.put_u64(u64::from(i) << 40);
        }
        let bytes = w.into_bytes();
        for cut in 0..=bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            match r.get_len(12) {
                Ok(n) => {
                    assert_eq!((n, cut), (3, bytes.len()), "accepted a count that cannot fit");
                    for i in 0..3u32 {
                        assert_eq!(r.get_u32().unwrap(), i);
                        assert_eq!(r.get_u64().unwrap(), u64::from(i) << 40);
                    }
                    r.finish().unwrap();
                }
                Err(e) => assert!(matches!(e, PersistError::Corrupt(_)), "cut {cut}: {e:?}"),
            }
        }
        // The bound is exact: one byte short of the last item is an error,
        // a count of zero needs no bytes, and a huge count is no allocation.
        let mut exact = 2u64.to_le_bytes().to_vec();
        exact.extend_from_slice(&[0; 7]);
        assert!(StateReader::new(&exact).get_len(4).is_err());
        exact.push(0);
        assert_eq!(StateReader::new(&exact).get_len(4).unwrap(), 2);
        let zero = 0u64.to_le_bytes();
        assert_eq!(StateReader::new(&zero).get_len(8).unwrap(), 0);
        let huge = u64::MAX.to_le_bytes();
        assert!(StateReader::new(&huge).get_len(1).is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = StateWriter::new();
        w.put_u32(5);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 5);
        assert!(r.finish().is_err());
    }

    #[test]
    fn persist_layouts_match_the_hand_written_ones() {
        let set: BTreeSet<u32> = [3, 9].into();
        let map: BTreeMap<u32, f64> = [(1, 2.5)].into();
        let mut w = StateWriter::new();
        Some(7u32).put(&mut w);
        None::<f64>.put(&mut w);
        [1u64, 2].put(&mut w);
        vec![true].put(&mut w);
        set.put(&mut w);
        map.put(&mut w);
        let mut hand = StateWriter::new();
        hand.put_bool(true);
        hand.put_u32(7);
        hand.put_bool(false);
        hand.put_u64(1);
        hand.put_u64(2);
        hand.put_u64(1);
        hand.put_bool(true);
        hand.put_u64(2);
        hand.put_u32(3);
        hand.put_u32(9);
        hand.put_u64(1);
        hand.put_u32(1);
        hand.put_f64(2.5);
        assert_eq!(w.bytes(), hand.bytes());
        let mut r = StateReader::new(hand.bytes());
        assert_eq!(Option::<u32>::get(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<f64>::get(&mut r).unwrap(), None);
        assert_eq!(<[u64; 2]>::get(&mut r).unwrap(), [1, 2]);
        assert_eq!(Vec::<bool>::get(&mut r).unwrap(), vec![true]);
        assert_eq!(<BTreeSet<u32> as Persist>::get(&mut r).unwrap(), set);
        assert_eq!(<BTreeMap<u32, f64> as Persist>::get(&mut r).unwrap(), map);
        r.finish().unwrap();
    }

    #[test]
    fn ordered_collections_and_ids_are_canonical() {
        let mut w = StateWriter::new();
        vec![9u32, 3].put(&mut w);
        let bytes = w.into_bytes();
        assert!(
            <BTreeSet<u32> as Persist>::get(&mut StateReader::new(&bytes)).is_err(),
            "descending"
        );
        let mut w = StateWriter::new();
        w.put_u64(2);
        for v in [1.0, 2.0] {
            w.put_u32(4);
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        assert!(
            <BTreeMap<u32, f64> as Persist>::get(&mut StateReader::new(&bytes)).is_err(),
            "repeated"
        );
        let bytes = 5u32.to_le_bytes();
        assert_eq!(StateReader::new(&bytes).get_id().unwrap(), 5, "unbounded by default");
        let mut r = StateReader::new(&bytes);
        r.set_population(5);
        assert!(r.get_id().is_err(), "an id at the population is outside it");
    }

    #[test]
    fn invalid_bool_is_corruption() {
        let mut r = StateReader::new(&[2]);
        assert!(r.get_bool().is_err());
    }
}
