//! From-scratch DEFLATE (RFC 1951) and zlib (RFC 1950), dependency-free.
//!
//! The decode side is a complete inflater — stored blocks, fixed and
//! dynamic Huffman blocks, and the 32 KiB sliding-window copy — driven
//! from canonical-code tables (the `puff` algorithm: per-length counts
//! plus a symbol table) with a 9-bit lookup table in front that decodes
//! short codes in one step; longer codes, unassigned codes and stream
//! tails take the bit-serial canonical walk. Every structural violation
//! a hostile stream can express (oversubscribed
//! code sets, distances past the window, lengths past the output cap,
//! truncation at any bit) maps to a typed [`ImagingError::Decode`] —
//! the totality fuzz suite drives mutated and random streams through
//! here and a panic is a test failure.
//!
//! The encode side is deliberately small: one greedy LZ77 pass
//! (3-byte-prefix hash chains, 32 KiB window, 258-byte matches) emitted
//! as a single fixed-Huffman block. That is enough for PNG export to
//! produce genuinely compressed files, and — because every encoded
//! stream round-trips through this module's own inflater in the
//! property suites — it doubles as a relentless cross-check of the
//! decoder's match-copy path.

use crate::codec::checksum::{adler32, adler32_update, ADLER_INIT};
use crate::ImagingError;

fn corrupt(message: impl Into<String>) -> ImagingError {
    ImagingError::Decode { message: message.into() }
}

// ---------------------------------------------------------------------------
// Bit reader (LSB-first, as DEFLATE packs its bits)
// ---------------------------------------------------------------------------

struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    next: usize,
    /// Pending bits, LSB first.
    acc: u64,
    /// Number of valid bits in `acc`.
    have: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, next: 0, acc: 0, have: 0 }
    }

    #[inline]
    fn refill(&mut self) {
        while self.have <= 56 && self.next < self.bytes.len() {
            self.acc |= u64::from(self.bytes[self.next]) << self.have;
            self.have += 8;
            self.next += 1;
        }
    }

    /// Takes `n` bits (n <= 32), LSB-first.
    #[inline]
    fn take(&mut self, n: u32) -> Result<u32, ImagingError> {
        if self.have < n {
            self.refill();
            if self.have < n {
                return Err(corrupt("deflate stream truncated"));
            }
        }
        let value = (self.acc & ((1u64 << n) - 1)) as u32;
        self.acc >>= n;
        self.have -= n;
        Ok(value)
    }

    /// Takes one bit.
    #[inline]
    fn bit(&mut self) -> Result<u32, ImagingError> {
        self.take(1)
    }

    /// Discards bits up to the next byte boundary (stored-block entry).
    fn align(&mut self) {
        let drop = self.have % 8;
        self.acc >>= drop;
        self.have -= drop;
    }

    /// Number of whole input bytes consumed so far (any partially-read
    /// byte counts as consumed).
    fn bytes_consumed(&self) -> usize {
        self.next - (self.have / 8) as usize
    }

    /// Copies `n` aligned bytes straight from the input (stored blocks).
    /// Must be byte-aligned (`align` first).
    fn copy_aligned(&mut self, n: usize, out: &mut Vec<u8>) -> Result<(), ImagingError> {
        debug_assert_eq!(self.have % 8, 0);
        let mut remaining = n;
        // Drain bytes already staged in the accumulator.
        while remaining > 0 && self.have >= 8 {
            out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.have -= 8;
            remaining -= 1;
        }
        if self.next + remaining > self.bytes.len() {
            return Err(corrupt("stored block truncated"));
        }
        out.extend_from_slice(&self.bytes[self.next..self.next + remaining]);
        self.next += remaining;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Canonical Huffman decoding
// ---------------------------------------------------------------------------

/// Maximum bits in a DEFLATE code.
const MAX_BITS: usize = 15;

/// Bits resolved by one [`Huffman`] table lookup. Codes up to this long
/// (every fixed code, and nearly every code a real encoder emits)
/// decode in one step; longer ones fall back to the canonical walk.
const TABLE_BITS: u32 = 9;

/// A canonical Huffman code set: per-length symbol counts plus the
/// symbols ordered by (code length, symbol value), and a lookup table
/// over the next [`TABLE_BITS`] input bits.
///
/// Table entry `i` describes the code that the bits of `i` (LSB first,
/// as DEFLATE packs them) begin with: `symbol << 4 | length`, or `0`
/// when no code of at most [`TABLE_BITS`] bits matches (a longer code
/// or an unassigned one). A hit consumes exactly the code's length; a
/// miss, and a stream tail shorter than the matched code, run the
/// bit-serial canonical walk instead, so symbols, errors and bits
/// consumed are the walk's in every case.
struct Huffman {
    counts: [u16; MAX_BITS + 1],
    symbols: Vec<u16>,
    table: Box<[u16; 1 << TABLE_BITS]>,
}

impl Huffman {
    /// Builds the code set from per-symbol code lengths (0 = unused).
    ///
    /// Oversubscribed length sets are rejected here; *incomplete* sets
    /// are representable (dynamic blocks legitimately use one-code
    /// distance trees) and surface as decode errors only if the missing
    /// codes are actually referenced.
    fn new(lengths: &[u8]) -> Result<Self, ImagingError> {
        let mut counts = [0u16; MAX_BITS + 1];
        for &len in lengths {
            if len as usize > MAX_BITS {
                return Err(corrupt(format!("huffman code length {len} exceeds 15")));
            }
            counts[len as usize] += 1;
        }
        // Kraft check: the code space must never go negative.
        let mut left = 1i32;
        for &count in &counts[1..=MAX_BITS] {
            left = (left << 1) - i32::from(count);
            if left < 0 {
                return Err(corrupt("oversubscribed huffman code set"));
            }
        }
        // Offsets of the first symbol of each length in `symbols`.
        let mut offsets = [0usize; MAX_BITS + 1];
        for len in 1..MAX_BITS {
            offsets[len + 1] = offsets[len] + counts[len] as usize;
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (symbol, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbols[offsets[len as usize]] = symbol as u16;
                offsets[len as usize] += 1;
            }
        }
        // Canonical codes in `symbols` order: consecutive within a length,
        // the first code of each length doubling the end of the previous
        // one — exactly the assignment the walk in `decode_walk` reads.
        let mut table = Box::new([0u16; 1 << TABLE_BITS]);
        let mut code = 0u32;
        let mut next = 0usize;
        for len in 1..=TABLE_BITS {
            for _ in 0..counts[len as usize] {
                let reversed = code.reverse_bits() >> (32 - len);
                let entry = symbols[next] << 4 | len as u16;
                for fill in (reversed as usize..1 << TABLE_BITS).step_by(1 << len) {
                    table[fill] = entry;
                }
                code += 1;
                next += 1;
            }
            code <<= 1;
        }
        Ok(Self { counts, symbols, table })
    }

    /// Decodes one symbol from `reader`: one table lookup when the next
    /// code is at most [`TABLE_BITS`] long and fully buffered, the
    /// canonical walk otherwise.
    #[inline]
    fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, ImagingError> {
        if reader.have < TABLE_BITS {
            reader.refill();
        }
        // Bits past `have` are zero, so a short tail still indexes the
        // table; the length check below rejects entries it cannot cover.
        let entry = self.table[(reader.acc & ((1 << TABLE_BITS) - 1)) as usize];
        let len = u32::from(entry & 0xF);
        if len != 0 && len <= reader.have {
            reader.acc >>= len;
            reader.have -= len;
            return Ok(entry >> 4);
        }
        self.decode_walk(reader)
    }

    /// Decodes one symbol bit-serially: walks the code space one bit at a
    /// time, O(length) per symbol.
    fn decode_walk(&self, reader: &mut BitReader<'_>) -> Result<u16, ImagingError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= reader.bit()? as i32;
            let count = i32::from(self.counts[len]);
            if code - first < count {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(corrupt("invalid huffman code"))
    }
}

// ---------------------------------------------------------------------------
// DEFLATE symbol tables (RFC 1951 §3.2.5)
// ---------------------------------------------------------------------------

/// Base match lengths for litlen symbols 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for litlen symbols 257..=285.
const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];
/// Base distances for distance symbols 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for distance symbols 0..=29.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order in which dynamic-block code-length code lengths are stored.
const CLEN_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

fn fixed_litlen() -> Huffman {
    let mut lengths = [0u8; 288];
    for (symbol, len) in lengths.iter_mut().enumerate() {
        *len = match symbol {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    Huffman::new(&lengths).expect("fixed litlen code set is well-formed")
}

fn fixed_dist() -> Huffman {
    Huffman::new(&[5u8; 30]).expect("fixed distance code set is well-formed")
}

// ---------------------------------------------------------------------------
// Inflate
// ---------------------------------------------------------------------------

/// Decompresses a raw DEFLATE stream, erroring if the output would
/// exceed `max_out` bytes (the zip-bomb guard: callers that know the
/// decoded size — PNG does — pass it exactly).
///
/// Returns the output and the number of input bytes consumed.
///
/// # Errors
///
/// [`ImagingError::Decode`] for any structural violation: truncation,
/// bad block types, oversubscribed or invalid Huffman codes, distances
/// reaching before the start of output, or output past `max_out`.
pub fn inflate(data: &[u8], max_out: usize) -> Result<(Vec<u8>, usize), ImagingError> {
    let mut reader = BitReader::new(data);
    let mut out: Vec<u8> = Vec::new();
    loop {
        let last = reader.bit()? == 1;
        match reader.take(2)? {
            0 => {
                reader.align();
                let len = reader.take(16)? as usize;
                let nlen = reader.take(16)? as usize;
                if len != (!nlen & 0xFFFF) {
                    return Err(corrupt("stored block length check failed"));
                }
                if out.len() + len > max_out {
                    return Err(corrupt("decompressed output exceeds the declared size"));
                }
                reader.copy_aligned(len, &mut out)?;
            }
            1 => {
                inflate_block(&mut reader, &fixed_litlen(), &fixed_dist(), &mut out, max_out)?;
            }
            2 => {
                let (litlen, dist) = read_dynamic_tables(&mut reader)?;
                inflate_block(&mut reader, &litlen, &dist, &mut out, max_out)?;
            }
            _ => return Err(corrupt("reserved deflate block type 3")),
        }
        if last {
            return Ok((out, reader.bytes_consumed()));
        }
    }
}

/// Reads the dynamic-block code tables (RFC 1951 §3.2.7).
fn read_dynamic_tables(reader: &mut BitReader<'_>) -> Result<(Huffman, Huffman), ImagingError> {
    let hlit = reader.take(5)? as usize + 257;
    let hdist = reader.take(5)? as usize + 1;
    let hclen = reader.take(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(corrupt("dynamic block declares too many codes"));
    }
    let mut clen_lengths = [0u8; 19];
    for &position in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[position] = reader.take(3)? as u8;
    }
    let clen_code = Huffman::new(&clen_lengths)?;

    // The litlen and distance code lengths share one run-length stream.
    let mut lengths = vec![0u8; hlit + hdist];
    let mut index = 0;
    while index < lengths.len() {
        let symbol = clen_code.decode(reader)?;
        match symbol {
            0..=15 => {
                lengths[index] = symbol as u8;
                index += 1;
            }
            16 => {
                if index == 0 {
                    return Err(corrupt("length repeat with no previous length"));
                }
                let previous = lengths[index - 1];
                let repeat = 3 + reader.take(2)? as usize;
                if index + repeat > lengths.len() {
                    return Err(corrupt("length repeat overflows the code set"));
                }
                lengths[index..index + repeat].fill(previous);
                index += repeat;
            }
            17 | 18 => {
                let repeat = if symbol == 17 {
                    3 + reader.take(3)? as usize
                } else {
                    11 + reader.take(7)? as usize
                };
                if index + repeat > lengths.len() {
                    return Err(corrupt("zero-length run overflows the code set"));
                }
                index += repeat;
            }
            _ => return Err(corrupt("invalid code-length symbol")),
        }
    }
    if lengths[256] == 0 {
        return Err(corrupt("dynamic block has no end-of-block code"));
    }
    let litlen = Huffman::new(&lengths[..hlit])?;
    let dist = Huffman::new(&lengths[hlit..])?;
    Ok((litlen, dist))
}

/// Decodes one Huffman block's symbols into `out`.
fn inflate_block(
    reader: &mut BitReader<'_>,
    litlen: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
    max_out: usize,
) -> Result<(), ImagingError> {
    loop {
        let symbol = litlen.decode(reader)?;
        match symbol {
            0..=255 => {
                if out.len() >= max_out {
                    return Err(corrupt("decompressed output exceeds the declared size"));
                }
                out.push(symbol as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let entry = symbol as usize - 257;
                let length = LENGTH_BASE[entry] as usize
                    + reader.take(u32::from(LENGTH_EXTRA[entry]))? as usize;
                let dist_symbol = dist.decode(reader)? as usize;
                if dist_symbol >= 30 {
                    return Err(corrupt("invalid distance symbol"));
                }
                let distance = DIST_BASE[dist_symbol] as usize
                    + reader.take(u32::from(DIST_EXTRA[dist_symbol]))? as usize;
                if distance > out.len() {
                    return Err(corrupt("match distance reaches before the start of output"));
                }
                if out.len() + length > max_out {
                    return Err(corrupt("decompressed output exceeds the declared size"));
                }
                // Overlapping copies are the point (distance < length
                // repeats the tail), so this must be byte-serial.
                let start = out.len() - distance;
                for i in 0..length {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            _ => return Err(corrupt("invalid literal/length symbol")),
        }
    }
}

// ---------------------------------------------------------------------------
// zlib container
// ---------------------------------------------------------------------------

/// Decompresses a zlib stream (RFC 1950): 2-byte header, DEFLATE body,
/// Adler-32 trailer — all verified.
///
/// # Errors
///
/// [`ImagingError::Decode`] for header/trailer violations and every
/// inflate failure.
pub fn zlib_decompress(data: &[u8], max_out: usize) -> Result<Vec<u8>, ImagingError> {
    if data.len() < 6 {
        return Err(corrupt("zlib stream shorter than its framing"));
    }
    let cmf = data[0];
    let flg = data[1];
    if cmf & 0x0F != 8 {
        return Err(corrupt(format!("zlib compression method {} is not deflate", cmf & 0x0F)));
    }
    if (u16::from(cmf) << 8 | u16::from(flg)) % 31 != 0 {
        return Err(corrupt("zlib header check failed"));
    }
    if flg & 0x20 != 0 {
        return Err(corrupt("zlib preset dictionaries are unsupported"));
    }
    let (out, consumed) = inflate(&data[2..], max_out)?;
    let trailer_at = 2 + consumed;
    if data.len() < trailer_at + 4 {
        return Err(corrupt("zlib stream is missing its adler-32 trailer"));
    }
    let stored =
        u32::from_be_bytes(data[trailer_at..trailer_at + 4].try_into().expect("length checked"));
    if stored != adler32(&out) {
        return Err(corrupt("zlib adler-32 mismatch"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Encoder: greedy LZ77 + one fixed-Huffman block
// ---------------------------------------------------------------------------

/// LSB-first bit writer mirroring [`BitReader`].
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    have: u32,
}

impl BitWriter {
    fn new(out: Vec<u8>) -> Self {
        Self { out, acc: 0, have: 0 }
    }

    #[inline]
    fn push(&mut self, value: u32, bits: u32) {
        self.acc |= u64::from(value) << self.have;
        self.have += bits;
        while self.have >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.have -= 8;
        }
    }

    /// Huffman codes transmit MSB-first: reverse before pushing.
    #[inline]
    fn push_code(&mut self, code: u32, bits: u32) {
        self.push(code.reverse_bits() >> (32 - bits), bits);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.have > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// The fixed litlen code for `symbol` as `(canonical code, bits)`.
fn fixed_litlen_code(symbol: u16) -> (u32, u32) {
    match symbol {
        0..=143 => (0x30 + u32::from(symbol), 8),
        144..=255 => (0x190 + u32::from(symbol) - 144, 9),
        256..=279 => (u32::from(symbol) - 256, 7),
        _ => (0xC0 + u32::from(symbol) - 280, 8),
    }
}

/// The litlen symbol + extra bits for a match length (3..=258).
fn length_symbol(length: usize) -> (u16, u32, u32) {
    let entry = LENGTH_BASE
        .iter()
        .rposition(|&base| base as usize <= length)
        .expect("length >= 3 always has a base");
    // 258 is exactly symbol 285 (no extra bits); lengths between bases
    // carry the remainder in the extra bits.
    let extra_bits = u32::from(LENGTH_EXTRA[entry]);
    (257 + entry as u16, (length - LENGTH_BASE[entry] as usize) as u32, extra_bits)
}

/// The distance symbol + extra bits for a match distance (1..=32768).
fn distance_symbol(distance: usize) -> (u16, u32, u32) {
    let entry = DIST_BASE
        .iter()
        .rposition(|&base| base as usize <= distance)
        .expect("distance >= 1 always has a base");
    let extra_bits = u32::from(DIST_EXTRA[entry]);
    (entry as u16, (distance - DIST_BASE[entry] as usize) as u32, extra_bits)
}

/// Sliding-window and match-search parameters.
const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// Hash-chain probes per position — the compression/speed knob.
const MAX_CHAIN: usize = 32;
const HASH_BITS: u32 = 15;

#[inline]
fn hash3(data: &[u8], at: usize) -> usize {
    let key = u32::from(data[at]) | u32::from(data[at + 1]) << 8 | u32::from(data[at + 2]) << 16;
    (key.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data` into a zlib stream: one fixed-Huffman DEFLATE
/// block with greedy hash-chain LZ77 matching. Decompressing with
/// [`zlib_decompress`] returns `data` exactly.
pub fn zlib_compress(data: &[u8]) -> Vec<u8> {
    // 0x78 0x01: deflate, 32 KiB window, fastest-compression hint, and
    // (CMF<<8 | FLG) % 31 == 0.
    let mut writer = BitWriter::new(vec![0x78, 0x01]);
    writer.push(1, 1); // final block
    writer.push(1, 2); // fixed Huffman

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    let mut at = 0usize;
    while at < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if at + MIN_MATCH <= data.len() {
            let mut candidate = head[hash3(data, at)];
            let mut probes = MAX_CHAIN;
            let limit = (data.len() - at).min(MAX_MATCH);
            while candidate != usize::MAX && probes > 0 {
                let distance = at - candidate;
                if distance > WINDOW {
                    break;
                }
                let mut len = 0usize;
                while len < limit && data[candidate + len] == data[at + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = distance;
                    if len == limit {
                        break;
                    }
                }
                candidate = prev[candidate];
                probes -= 1;
            }
        }
        if best_len >= MIN_MATCH {
            let (symbol, extra, extra_bits) = length_symbol(best_len);
            let (code, bits) = fixed_litlen_code(symbol);
            writer.push_code(code, bits);
            writer.push(extra, extra_bits);
            let (dsymbol, dextra, dextra_bits) = distance_symbol(best_dist);
            // Fixed distance codes are 5 bits, canonical == symbol.
            writer.push_code(u32::from(dsymbol), 5);
            writer.push(dextra, dextra_bits);
            // Insert every covered position into the hash chains so
            // later matches can start inside this one.
            let end = at + best_len;
            while at < end {
                if at + MIN_MATCH <= data.len() {
                    let h = hash3(data, at);
                    prev[at] = head[h];
                    head[h] = at;
                }
                at += 1;
            }
        } else {
            let (code, bits) = fixed_litlen_code(u16::from(data[at]));
            writer.push_code(code, bits);
            if at + MIN_MATCH <= data.len() {
                let h = hash3(data, at);
                prev[at] = head[h];
                head[h] = at;
            }
            at += 1;
        }
    }
    let (code, bits) = fixed_litlen_code(256);
    writer.push_code(code, bits);
    let mut out = writer.finish();
    out.extend_from_slice(&adler32_update(ADLER_INIT, data).to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::random_code_lengths;
    use proptest::prelude::*;

    /// Input bits consumed so far (independent of when the reader refilled).
    fn bits_consumed(reader: &BitReader<'_>) -> usize {
        reader.next * 8 - reader.have as usize
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lookup table decodes exactly as the bit-serial walk: the
        /// same symbols, the same bits consumed after every symbol and the
        /// same error at the end, for complete and incomplete code sets
        /// over random streams cut at random lengths.
        #[test]
        fn table_decode_matches_the_bit_serial_walk(
            seed in any::<u64>(),
            complete in any::<bool>(),
            symbols in 2usize..=288,
            stream in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let lengths = random_code_lengths(seed, symbols, MAX_BITS as u8, complete);
            let code = Huffman::new(&lengths).expect("generated sets are never oversubscribed");
            let mut table = BitReader::new(&stream);
            let mut walk = BitReader::new(&stream);
            loop {
                let fast = code.decode(&mut table);
                let slow = code.decode_walk(&mut walk);
                prop_assert_eq!(bits_consumed(&table), bits_consumed(&walk));
                match (fast, slow) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a.to_string(), b.to_string());
                        break;
                    }
                    (a, b) => prop_assert!(false, "table {:?} vs walk {:?}", a, b),
                }
            }
        }
    }

    #[test]
    fn fixed_tables_resolve_every_code_in_one_lookup() {
        // Every fixed code is at most 9 bits, so the complete litlen set
        // leaves no table entry a miss; the distance set leaves exactly its
        // two unassigned 5-bit codes (30 and 31) to the walk.
        assert!(fixed_litlen().table.iter().all(|&entry| entry & 0xF != 0));
        let misses = fixed_dist().table.iter().filter(|&&entry| entry == 0).count();
        assert_eq!(misses, 2 << (TABLE_BITS - 5));
    }

    #[test]
    fn stored_block_round_trip() {
        // Hand-assembled: final stored block, LEN=5, NLEN=~5, "hello".
        let mut stream = vec![0x01, 0x05, 0x00, 0xFA, 0xFF];
        stream.extend_from_slice(b"hello");
        let (out, consumed) = inflate(&stream, 64).unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(consumed, stream.len());
    }

    #[test]
    fn stored_block_length_check_is_enforced() {
        let mut stream = vec![0x01, 0x05, 0x00, 0x00, 0x00];
        stream.extend_from_slice(b"hello");
        let err = inflate(&stream, 64).unwrap_err();
        assert!(err.to_string().contains("length check"), "{err}");
    }

    #[test]
    fn fixed_huffman_reference_stream() {
        // python3: zlib.compress(b"hello hello hello hello", 1)[2:-4]
        // (level 1 emits one fixed-Huffman block for this input).
        let stream = [0xCB, 0x48, 0xCD, 0xC9, 0xC9, 0x57, 0xC8, 0x40, 0x27, 0x01];
        let (out, _) = inflate(&stream, 64).unwrap();
        assert_eq!(out, b"hello hello hello hello");
    }

    /// 800 bytes over a skewed 16-letter alphabet driven by an LCG —
    /// small enough to pin, skewed enough that zlib level 9 emits a
    /// dynamic-Huffman block for it.
    fn skewed_lcg_bytes(n: usize) -> Vec<u8> {
        let alphabet = b"aaaaabbbccdefgh ";
        let mut x: u64 = 12345;
        (0..n)
            .map(|_| {
                x = (1_103_515_245 * x + 12345) % (1 << 31);
                alphabet[((x >> 16) % 16) as usize]
            })
            .collect()
    }

    #[test]
    fn zlib_reference_stream_with_dynamic_block() {
        // python3: zlib.compress(skewed_lcg_bytes(800), 9) — byte 2 is
        // 0b...101: BFINAL=1, BTYPE=2 (dynamic Huffman).
        let data = skewed_lcg_bytes(800);
        let stream = [
            0x78, 0xDA, 0x1D, 0x93, 0x87, 0x11, 0xC4, 0x30, 0x08, 0x04, 0x5B, 0xA1, 0x35, 0x32,
            0xFD, 0x57, 0xA0, 0x3D, 0x8D, 0xDF, 0xF3, 0xB6, 0x24, 0x2E, 0x81, 0xC7, 0xA3, 0x6C,
            0xB7, 0x2A, 0xA6, 0xCF, 0xDC, 0x73, 0xD6, 0x2D, 0xCD, 0xD7, 0x87, 0xBB, 0x23, 0xBD,
            0xDC, 0xEC, 0x22, 0xD3, 0x2F, 0xBD, 0x33, 0x62, 0x78, 0xB4, 0x08, 0x3F, 0x9B, 0x8C,
            0x6D, 0xCF, 0xCA, 0x71, 0xF7, 0x0B, 0xF3, 0x5A, 0x15, 0x1D, 0xE5, 0x1C, 0x1B, 0x0F,
            0x0F, 0x16, 0xB2, 0x9C, 0x2A, 0x6F, 0x5E, 0xDD, 0x55, 0x10, 0x51, 0x55, 0x59, 0x47,
            0x69, 0x9C, 0x9F, 0x57, 0xFA, 0x66, 0xA7, 0x15, 0xFB, 0x40, 0xF6, 0x04, 0x15, 0x1E,
            0xDD, 0x68, 0x88, 0x04, 0x76, 0x13, 0x5D, 0xC7, 0x0A, 0xA5, 0xC7, 0x29, 0x16, 0xA1,
            0xEC, 0x4B, 0x21, 0xBA, 0xD7, 0x14, 0x92, 0x22, 0xD6, 0x25, 0xAC, 0x27, 0x6B, 0x3A,
            0xCE, 0xE0, 0x9D, 0x89, 0x8B, 0xAE, 0xDE, 0xD3, 0xC9, 0x31, 0x03, 0x10, 0x19, 0xBD,
            0xE8, 0xB1, 0xCC, 0xB2, 0x28, 0xB9, 0x40, 0x01, 0x42, 0x16, 0xEB, 0x1B, 0x9D, 0x5F,
            0xA7, 0x95, 0x3C, 0xE1, 0x7A, 0xDC, 0x30, 0xC4, 0x55, 0x38, 0x20, 0x25, 0x38, 0x31,
            0x5F, 0x3F, 0x9C, 0x94, 0x2F, 0x55, 0x78, 0x4A, 0x62, 0xE3, 0xC5, 0x65, 0xE2, 0x54,
            0x5A, 0x90, 0xED, 0x9D, 0x30, 0x08, 0x91, 0xDF, 0xB0, 0xBE, 0xD2, 0x4B, 0x30, 0x06,
            0x3E, 0x9A, 0xE4, 0xE9, 0x0B, 0x3A, 0x65, 0x15, 0xA9, 0x42, 0x9E, 0x8C, 0x2B, 0x2A,
            0xBF, 0x48, 0xB0, 0x79, 0x65, 0x97, 0x7C, 0x53, 0x51, 0x12, 0x37, 0x6C, 0xEB, 0x1B,
            0xA9, 0xEC, 0x65, 0xA9, 0x70, 0xF5, 0x43, 0x21, 0x31, 0xD7, 0xCE, 0x7C, 0x16, 0xED,
            0x10, 0xB5, 0xF0, 0x01, 0xD0, 0xFF, 0x72, 0x67, 0x85, 0xD2, 0x8D, 0xAF, 0x12, 0x53,
            0xE4, 0xCB, 0x73, 0xDB, 0x96, 0x16, 0x61, 0x50, 0xCB, 0xB9, 0xE5, 0x40, 0xEE, 0x86,
            0x80, 0xA6, 0x42, 0x71, 0xFA, 0x87, 0x71, 0xF5, 0x43, 0xA3, 0x22, 0xAD, 0xB0, 0x28,
            0xB0, 0x06, 0x5A, 0xFB, 0x0A, 0xC1, 0xC2, 0x6E, 0x61, 0x5A, 0x32, 0x05, 0xFE, 0xF7,
            0xE8, 0x0F, 0x0F, 0xDD, 0xD1, 0x00, 0x8D, 0x6A, 0x49, 0xBE, 0x16, 0xED, 0x6D, 0xF3,
            0x83, 0x55, 0xDB, 0x46, 0x5D, 0x88, 0xD4, 0x10, 0xC6, 0x1F, 0xBF, 0x92, 0xE0, 0x3F,
            0x37, 0xB9, 0x4B, 0x8C, 0xF4, 0x93, 0xA4, 0xB4, 0x1B, 0x32, 0x7A, 0xA9, 0xC6, 0x32,
            0x6F, 0x6A, 0x07, 0x44, 0x0B, 0x94, 0x67, 0x07, 0x5D, 0xD4, 0xC4, 0xFD, 0x29, 0x92,
            0xC5, 0x55, 0xF6, 0x3B, 0x0B, 0x85, 0xDD, 0xD1, 0x43, 0xB7, 0x86, 0xEF, 0xE3, 0x8A,
            0x6F, 0x24, 0xAF, 0x65, 0x66, 0xA8, 0x52, 0x06, 0xFF, 0x13, 0xC0, 0x32, 0x47, 0x1E,
            0x7A, 0x75, 0x27, 0x9F,
        ];
        assert_eq!((stream[2] >> 1) & 3, 2, "vector must exercise a dynamic block");
        assert_eq!(zlib_decompress(&stream, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_window_copies_expand_runs() {
        // 'a' * 100 compresses to one literal plus overlapping matches.
        let data = vec![b'a'; 100];
        let stream = zlib_compress(&data);
        assert!(stream.len() < 20, "run-length input must compress: {} bytes", stream.len());
        assert_eq!(zlib_decompress(&stream, data.len()).unwrap(), data);
    }

    #[test]
    fn compress_round_trips_structured_and_random_data() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcabcabcabcabc".to_vec(),
            (0..=255u8).collect(),
            (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect(),
            b"the quick brown fox".repeat(100),
        ];
        for data in cases {
            let stream = zlib_compress(&data);
            assert_eq!(zlib_decompress(&stream, data.len()).unwrap(), data, "len {}", data.len());
        }
    }

    #[test]
    fn output_cap_rejects_zip_bombs() {
        let data = vec![0u8; 4096];
        let stream = zlib_compress(&data);
        let err = zlib_decompress(&stream, 100).unwrap_err();
        assert!(err.to_string().contains("exceeds the declared size"), "{err}");
    }

    #[test]
    fn corrupted_trailer_and_header_are_rejected() {
        let mut stream = zlib_compress(b"payload payload payload");
        let last = stream.len() - 1;
        stream[last] ^= 0xFF;
        assert!(zlib_decompress(&stream, 64).unwrap_err().to_string().contains("adler"));

        let mut bad_method = zlib_compress(b"x");
        bad_method[0] = 0x77; // method 7, not deflate
        assert!(zlib_decompress(&bad_method, 64).is_err());

        let mut bad_check = zlib_compress(b"x");
        bad_check[1] ^= 0x01;
        assert!(zlib_decompress(&bad_check, 64).is_err());

        assert!(zlib_decompress(&[0x78], 64).is_err(), "shorter than framing");
    }

    #[test]
    fn hostile_streams_error_instead_of_panicking() {
        // Reserved block type.
        assert!(inflate(&[0x07], 64).is_err());
        // Truncated at every prefix of a valid stream.
        let stream = zlib_compress(b"truncate me anywhere you like, truncate me");
        for cut in 0..stream.len() {
            let _ = zlib_decompress(&stream[..cut], 1024); // must not panic
        }
        // Distance past the start of output: hand-build via a stored
        // prefix then a fixed block matching too far back. Easier: flip
        // bits of a valid stream and require graceful errors.
        let mut mutated = stream;
        for i in 0..mutated.len() {
            mutated[i] ^= 0x55;
            let _ = zlib_decompress(&mutated, 1024); // must not panic
            mutated[i] ^= 0x55;
        }
    }

    #[test]
    fn oversubscribed_dynamic_tables_are_rejected() {
        // Dynamic block (type 2) whose code-length code is oversubscribed:
        // hclen=15 so many 3-bit lengths of value 7 follow — the Kraft
        // sum overflows and Huffman::new must reject it.
        let mut writer = BitWriter::new(Vec::new());
        writer.push(1, 1); // final
        writer.push(2, 2); // dynamic
        writer.push(0, 5); // hlit = 257
        writer.push(0, 5); // hdist = 1
        writer.push(15, 4); // hclen = 19
        for _ in 0..19 {
            writer.push(1, 3); // nineteen codes of length 1: oversubscribed
        }
        let stream = writer.finish();
        let err = inflate(&stream, 64).unwrap_err();
        assert!(err.to_string().contains("oversubscribed"), "{err}");
    }

    #[test]
    fn symbol_helpers_cover_their_ranges() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(258), (285, 0, 0));
        assert_eq!(length_symbol(13), (266, 0, 1));
        assert_eq!(distance_symbol(1), (0, 0, 0));
        assert_eq!(distance_symbol(32768), (29, 8191, 13));
        for length in MIN_MATCH..=MAX_MATCH {
            let (symbol, extra, bits) = length_symbol(length);
            let entry = symbol as usize - 257;
            assert_eq!(LENGTH_BASE[entry] as usize + extra as usize, length);
            assert!(extra < (1 << bits) || bits == 0 && extra == 0);
        }
        for distance in [1usize, 2, 3, 4, 5, 100, 1024, 32767, 32768] {
            let (symbol, extra, _) = distance_symbol(distance);
            assert_eq!(DIST_BASE[symbol as usize] as usize + extra as usize, distance);
        }
    }
}
