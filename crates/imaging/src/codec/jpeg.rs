//! Baseline JPEG (ITU-T T.81) codec, from scratch.
//!
//! Decode handles sequential-baseline streams: SOI/APPn/DQT/SOF0/DHT/
//! DRI/SOS marker walk, MSB-first Huffman entropy decode (a 9-bit
//! lookup table per Huffman table, the canonical bit-serial walk for
//! longer codes) with byte destuffing and restart markers,
//! dequantisation through the zigzag,
//! a separable double-precision 8x8 IDCT, nearest-neighbour chroma
//! upsampling, and YCbCr to RGB conversion. Sampling factors are
//! general (each component's h/v in {1, 2}), which covers 4:4:4,
//! 4:2:2 and 4:2:0. Progressive scans, 12-bit precision, arithmetic
//! coding and exotic sampling are typed [`ImagingError::Unsupported`];
//! structural corruption is [`ImagingError::Decode`]; nothing panics.
//!
//! Encode writes sequential baseline 4:4:4 (or single-component
//! grayscale) with the Annex K quantisation tables scaled by the usual
//! libjpeg quality curve and the Annex K Huffman tables — enough to
//! generate genuinely lossy corpora for the compression-confounder
//! experiments, and decodable by any external viewer.

use crate::codec::SampleAlloc;
use crate::{Channels, Image, ImagingError};

/// Same decoded-pixel budget as the PNG decoder.
const MAX_PIXELS: u64 = 1 << 26;

fn corrupt(message: impl Into<String>) -> ImagingError {
    ImagingError::Decode { message: message.into() }
}

fn unsupported(message: impl Into<String>) -> ImagingError {
    ImagingError::Unsupported { message: message.into() }
}

/// Zigzag index -> raster index (row-major, row = vertical frequency).
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// The separable DCT basis: `BASIS[u][x] = C(u)/2 * cos((2x+1)u*pi/16)`.
/// Both the IDCT and the FDCT are two passes through this one matrix.
fn dct_basis() -> [[f64; 8]; 8] {
    let mut basis = [[0.0; 8]; 8];
    for (u, row) in basis.iter_mut().enumerate() {
        let cu = if u == 0 { 1.0 / std::f64::consts::SQRT_2 } else { 1.0 };
        for (x, value) in row.iter_mut().enumerate() {
            *value =
                cu / 2.0 * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos();
        }
    }
    basis
}

/// `f(x,y) = sum_u sum_v BASIS[u][x] BASIS[v][y] F[v*8+u]`, separably.
fn idct_8x8(coeffs: &[f64; 64], basis: &[[f64; 8]; 8], out: &mut [f64; 64]) {
    let mut tmp = [0.0f64; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for v in 0..8 {
                acc += basis[v][y] * coeffs[v * 8 + u];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0;
            for u in 0..8 {
                acc += basis[u][x] * tmp[y * 8 + u];
            }
            out[y * 8 + x] = acc;
        }
    }
}

/// `F(u,v) = sum_x sum_y BASIS[u][x] BASIS[v][y] f(x,y)`, separably.
fn fdct_8x8(samples: &[f64; 64], basis: &[[f64; 8]; 8], out: &mut [f64; 64]) {
    let mut tmp = [0.0f64; 64];
    for v in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0;
            for y in 0..8 {
                acc += basis[v][y] * samples[y * 8 + x];
            }
            tmp[v * 8 + x] = acc;
        }
    }
    for v in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for x in 0..8 {
                acc += basis[u][x] * tmp[v * 8 + x];
            }
            out[v * 8 + u] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Huffman tables (MSB-first canonical codes)
// ---------------------------------------------------------------------------

/// Bits resolved by one [`HuffTable`] lookup.
const TABLE_BITS: u32 = 9;

/// A JPEG Huffman table: `counts[len]` codes of each length 1..=16,
/// symbols ordered by (length, transmission order), and a lookup table
/// over the next [`TABLE_BITS`] bits of the entropy stream.
///
/// Lookup entry `i` describes the code the bits of `i` (MSB first)
/// begin with: `symbol << 8 | length`, or `0` when no code of at most
/// [`TABLE_BITS`] bits matches (a longer code or an unassigned one).
/// A hit consumes exactly the code's length, with the reader state the
/// bit-serial walk would leave behind; a miss, and a stream tail
/// shorter than the matched code, run the walk itself, so symbols,
/// errors and bits consumed are the walk's in every case.
struct HuffTable {
    counts: [u16; 17],
    symbols: Vec<u8>,
    lookup: Box<[u16; 1 << TABLE_BITS]>,
}

impl HuffTable {
    fn new(counts: [u16; 17], symbols: Vec<u8>) -> Result<Self, ImagingError> {
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if total != symbols.len() {
            return Err(corrupt("huffman table symbol count mismatch"));
        }
        let mut left = 1i32;
        for &count in &counts[1..=16] {
            left = (left << 1) - i32::from(count);
            if left < 0 {
                return Err(corrupt("oversubscribed jpeg huffman table"));
            }
        }
        // Canonical codes in `symbols` order, assigned exactly as the walk
        // in `decode_walk` reads them.
        let mut lookup = Box::new([0u16; 1 << TABLE_BITS]);
        let mut code = 0usize;
        let mut next = 0usize;
        for len in 1..=TABLE_BITS {
            for _ in 0..counts[len as usize] {
                let shift = TABLE_BITS - len;
                let entry = u16::from(symbols[next]) << 8 | len as u16;
                lookup[code << shift..(code + 1) << shift].fill(entry);
                code += 1;
                next += 1;
            }
            code <<= 1;
        }
        Ok(Self { counts, symbols, lookup })
    }

    /// Decodes one symbol, reading MSB-first bits from `reader`: one
    /// table lookup when the next code is at most [`TABLE_BITS`] long
    /// and the stream holds it, the canonical walk otherwise.
    #[inline]
    fn decode(&self, reader: &mut ScanReader<'_>) -> Result<u8, ImagingError> {
        let (bits, have) = reader.peek(TABLE_BITS);
        let entry = self.lookup[bits as usize];
        let len = u32::from(entry & 0xFF);
        if len != 0 && len <= have {
            reader.skip(len);
            return Ok((entry >> 8) as u8);
        }
        self.decode_walk(reader)
    }

    /// Decodes one symbol bit-serially, one `take(1)` per code bit.
    fn decode_walk(&self, reader: &mut ScanReader<'_>) -> Result<u8, ImagingError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=16 {
            code |= reader.take(1)? as i32;
            let count = i32::from(self.counts[len]);
            if code - first < count {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(corrupt("invalid jpeg huffman code"))
    }

    /// `(code, length)` per symbol value, for the encoder.
    fn build_codes(&self) -> [(u16, u8); 256] {
        let mut codes = [(0u16, 0u8); 256];
        let mut code = 0u16;
        let mut k = 0usize;
        for len in 1..=16u8 {
            for _ in 0..self.counts[len as usize] {
                codes[self.symbols[k] as usize] = (code, len);
                code += 1;
                k += 1;
            }
            code <<= 1;
        }
        codes
    }
}

// ---------------------------------------------------------------------------
// Entropy-coded segment reader (MSB-first, FF-destuffed)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct ScanReader<'a> {
    data: &'a [u8],
    at: usize,
    acc: u32,
    have: u32,
}

impl<'a> ScanReader<'a> {
    fn new(data: &'a [u8], at: usize) -> Self {
        Self { data, at, acc: 0, have: 0 }
    }

    fn fill(&mut self) {
        while self.have <= 24 && self.at < self.data.len() {
            let byte = self.data[self.at];
            if byte == 0xFF {
                if self.at + 1 < self.data.len() && self.data[self.at + 1] == 0x00 {
                    self.at += 2; // stuffed FF
                } else {
                    break; // a marker: stop feeding bits
                }
            } else {
                self.at += 1;
            }
            self.acc = (self.acc << 8) | u32::from(byte);
            self.have += 8;
        }
    }

    /// Takes `n` bits (n <= 16), MSB-first.
    fn take(&mut self, n: u32) -> Result<u32, ImagingError> {
        if n == 0 {
            return Ok(0);
        }
        if self.have < n {
            self.fill();
            if self.have < n {
                return Err(corrupt("jpeg entropy data truncated"));
            }
        }
        let value = (self.acc >> (self.have - n)) & ((1 << n) - 1);
        self.have -= n;
        Ok(value)
    }

    /// The next `n` bits (n <= 16), MSB-first and zero-padded past the
    /// end of the entropy data, and how many of them the stream holds.
    /// Nothing is consumed and the reader state does not change: bits
    /// past the buffered ones are read ahead on a copy, because when
    /// the buffer refills is observable (see [`ScanReader::restart`]).
    fn peek(&self, n: u32) -> (u32, u32) {
        let mut probe = *self;
        if probe.have < n {
            probe.fill();
        }
        let mask = (1 << n) - 1;
        if probe.have >= n {
            ((probe.acc >> (probe.have - n)) & mask, n)
        } else {
            ((probe.acc << (n - probe.have)) & mask, probe.have)
        }
    }

    /// Consumes `n` bits that [`ScanReader::peek`] showed the stream
    /// holds, leaving exactly the state `n` calls of `take(1)` would:
    /// the buffered bits go first, and the buffer refills only once
    /// they are exhausted.
    fn skip(&mut self, n: u32) {
        if n > self.have {
            let rest = n - self.have;
            self.have = 0;
            self.fill();
            assert!(self.have >= rest, "skip past the bits peek showed");
            self.have -= rest;
        } else {
            self.have -= n;
        }
    }

    /// Byte-aligns and consumes the expected restart marker.
    fn restart(&mut self, index: u32) -> Result<(), ImagingError> {
        self.have -= self.have % 8;
        if self.have != 0 {
            // Whole buffered bytes before the marker mean the entropy
            // segment and the restart interval disagree.
            return Err(corrupt("data where a restart marker was expected"));
        }
        if self.at + 2 > self.data.len()
            || self.data[self.at] != 0xFF
            || self.data[self.at + 1] != 0xD0 + (index % 8) as u8
        {
            return Err(corrupt(format!("missing restart marker RST{}", index % 8)));
        }
        self.at += 2;
        Ok(())
    }
}

/// DC/AC magnitude decoding (T.81 F.2.2.1 "EXTEND").
fn receive_extend(value: u32, size: u32) -> i32 {
    let v = value as i32;
    if size == 0 {
        0
    } else if v < (1 << (size - 1)) {
        v - (1 << size) + 1
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct Component {
    h: usize,
    v: usize,
    quant: usize,
    dc_table: usize,
    ac_table: usize,
    pred: i32,
    /// Decoded samples, `plane_w * plane_h`, MCU-aligned.
    plane: Vec<u8>,
    plane_w: usize,
    plane_h: usize,
}

/// Decodes a baseline JPEG into a fresh allocation. See
/// [`decode_jpeg_into`].
///
/// # Errors
///
/// [`ImagingError::Decode`] / [`ImagingError::Unsupported`] as
/// documented on [`decode_jpeg_into`].
pub fn decode_jpeg(bytes: &[u8]) -> Result<Image, ImagingError> {
    decode_jpeg_into(bytes, &mut |n| vec![0.0; n])
}

/// A parsed SOF0 frame: (width, height, components in scan order).
type Frame = (usize, usize, Vec<(u8, Component)>);

/// Decodes a baseline JPEG, obtaining the final sample buffer from
/// `alloc` so streaming callers can recycle `BufferPool` buffers.
///
/// Grayscale streams produce [`Channels::Gray`]; three-component
/// streams produce [`Channels::Rgb`]. Output samples sit on the u8
/// grid (decode quantises), so re-encoding losslessly round-trips.
///
/// # Errors
///
/// [`ImagingError::Unsupported`] for progressive/arithmetic/12-bit
/// streams or sampling factors outside {1, 2};
/// [`ImagingError::Decode`] for everything structurally broken.
pub fn decode_jpeg_into(bytes: &[u8], alloc: SampleAlloc<'_>) -> Result<Image, ImagingError> {
    if bytes.len() < 2 || bytes[0] != 0xFF || bytes[1] != 0xD8 {
        return Err(corrupt("missing jpeg SOI marker"));
    }
    let mut at = 2usize;
    let mut quant: [Option<[u16; 64]>; 4] = [None; 4];
    let mut dc_tables: [Option<HuffTable>; 4] = [None, None, None, None];
    let mut ac_tables: [Option<HuffTable>; 4] = [None, None, None, None];
    let mut frame: Option<Frame> = None;
    let mut restart_interval = 0usize;

    loop {
        // Marker: any number of FF fill bytes, then the marker code.
        while at < bytes.len() && bytes[at] == 0xFF {
            at += 1;
        }
        if at == 0 || at >= bytes.len() || bytes[at - 1] != 0xFF {
            return Err(corrupt("expected a jpeg marker"));
        }
        let marker = bytes[at];
        at += 1;
        match marker {
            0xD8 | 0x01 => continue, // SOI repeat / TEM: no payload
            0xD9 => return Err(corrupt("jpeg ended before any scan")),
            0xC1..=0xC3 | 0xC5..=0xC7 | 0xC9..=0xCB | 0xCD..=0xCF => {
                return Err(unsupported(format!(
                    "jpeg frame type SOF{} (only baseline SOF0)",
                    marker - 0xC0
                )));
            }
            _ => {}
        }
        if at + 2 > bytes.len() {
            return Err(corrupt("truncated jpeg segment length"));
        }
        let length = usize::from(u16::from_be_bytes([bytes[at], bytes[at + 1]]));
        if length < 2 || at + length > bytes.len() {
            return Err(corrupt("jpeg segment length out of range"));
        }
        let seg = &bytes[at + 2..at + length];
        at += length;
        match marker {
            0xDB => parse_dqt(seg, &mut quant)?,
            0xC4 => parse_dht(seg, &mut dc_tables, &mut ac_tables)?,
            0xC0 => {
                if frame.is_some() {
                    return Err(corrupt("duplicate SOF0 segment"));
                }
                frame = Some(parse_sof0(seg)?);
            }
            0xDD => {
                if seg.len() != 2 {
                    return Err(corrupt("DRI segment must be 2 bytes"));
                }
                restart_interval = usize::from(u16::from_be_bytes([seg[0], seg[1]]));
            }
            0xDA => {
                let (width, height, mut components) =
                    frame.take().ok_or_else(|| corrupt("SOS before SOF0"))?;
                bind_scan(seg, &mut components)?;
                size_planes(width, height, &mut components);
                decode_scan(
                    bytes,
                    at,
                    &mut components,
                    &quant,
                    &dc_tables,
                    &ac_tables,
                    restart_interval,
                )?;
                return assemble(width, height, &components, alloc);
            }
            _ => {} // APPn, COM, and other ancillary segments: skip
        }
    }
}

fn parse_dqt(mut seg: &[u8], quant: &mut [Option<[u16; 64]>; 4]) -> Result<(), ImagingError> {
    while !seg.is_empty() {
        let pq = seg[0] >> 4;
        let tq = usize::from(seg[0] & 0x0F);
        if tq > 3 {
            return Err(corrupt(format!("quantisation table id {tq}")));
        }
        if pq > 1 {
            return Err(corrupt(format!("quantisation precision {pq}")));
        }
        let entry_bytes = if pq == 0 { 1 } else { 2 };
        if seg.len() < 1 + 64 * entry_bytes {
            return Err(corrupt("truncated DQT segment"));
        }
        let mut table = [0u16; 64];
        for (k, value) in table.iter_mut().enumerate() {
            *value = if pq == 0 {
                u16::from(seg[1 + k])
            } else {
                u16::from_be_bytes([seg[1 + 2 * k], seg[2 + 2 * k]])
            };
            if *value == 0 {
                return Err(corrupt("quantisation table contains a zero"));
            }
        }
        quant[tq] = Some(table);
        seg = &seg[1 + 64 * entry_bytes..];
    }
    Ok(())
}

fn parse_dht(
    mut seg: &[u8],
    dc: &mut [Option<HuffTable>; 4],
    ac: &mut [Option<HuffTable>; 4],
) -> Result<(), ImagingError> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(corrupt("truncated DHT segment"));
        }
        let class = seg[0] >> 4;
        let id = usize::from(seg[0] & 0x0F);
        if class > 1 || id > 3 {
            return Err(corrupt(format!("huffman table class {class} id {id}")));
        }
        let mut counts = [0u16; 17];
        let mut total = 0usize;
        for len in 1..=16 {
            counts[len] = u16::from(seg[len]);
            total += usize::from(seg[len]);
        }
        if seg.len() < 17 + total {
            return Err(corrupt("DHT symbols truncated"));
        }
        let table = HuffTable::new(counts, seg[17..17 + total].to_vec())?;
        if class == 0 {
            dc[id] = Some(table);
        } else {
            ac[id] = Some(table);
        }
        seg = &seg[17 + total..];
    }
    Ok(())
}

#[allow(clippy::type_complexity)]
fn parse_sof0(seg: &[u8]) -> Result<(usize, usize, Vec<(u8, Component)>), ImagingError> {
    if seg.len() < 6 {
        return Err(corrupt("truncated SOF0 segment"));
    }
    if seg[0] != 8 {
        return Err(unsupported(format!("jpeg sample precision {} (only 8-bit)", seg[0])));
    }
    let height = usize::from(u16::from_be_bytes([seg[1], seg[2]]));
    let width = usize::from(u16::from_be_bytes([seg[3], seg[4]]));
    if width == 0 || height == 0 {
        return Err(corrupt(format!("jpeg declares zero dimension {width}x{height}")));
    }
    if (width as u64) * (height as u64) > MAX_PIXELS {
        return Err(corrupt(format!(
            "jpeg declares {width}x{height}, past the {MAX_PIXELS}-pixel budget"
        )));
    }
    let ncomp = usize::from(seg[5]);
    if ncomp != 1 && ncomp != 3 {
        return Err(unsupported(format!("{ncomp}-component jpeg (only 1 or 3)")));
    }
    if seg.len() < 6 + 3 * ncomp {
        return Err(corrupt("SOF0 component list truncated"));
    }
    let mut components = Vec::with_capacity(ncomp);
    for c in 0..ncomp {
        let id = seg[6 + 3 * c];
        let h = usize::from(seg[7 + 3 * c] >> 4);
        let v = usize::from(seg[7 + 3 * c] & 0x0F);
        let quant = usize::from(seg[8 + 3 * c]);
        if !(1..=2).contains(&h) || !(1..=2).contains(&v) {
            return Err(unsupported(format!("sampling factors {h}x{v} (only 1 or 2)")));
        }
        if quant > 3 {
            return Err(corrupt(format!("component references quant table {quant}")));
        }
        components.push((
            id,
            Component {
                h,
                v,
                quant,
                dc_table: 0,
                ac_table: 0,
                pred: 0,
                plane: Vec::new(),
                plane_w: 0,
                plane_h: 0,
            },
        ));
    }
    Ok((width, height, components))
}

/// Binds each SOS component selector to its Huffman table ids.
fn bind_scan(seg: &[u8], components: &mut [(u8, Component)]) -> Result<(), ImagingError> {
    if seg.is_empty() {
        return Err(corrupt("empty SOS segment"));
    }
    let ns = usize::from(seg[0]);
    if ns != components.len() {
        return Err(unsupported(
            "scan component count differs from frame (non-interleaved scans unsupported)",
        ));
    }
    if seg.len() < 1 + 2 * ns + 3 {
        return Err(corrupt("truncated SOS segment"));
    }
    for s in 0..ns {
        let selector = seg[1 + 2 * s];
        let tables = seg[2 + 2 * s];
        let component = components
            .iter_mut()
            .find(|(id, _)| *id == selector)
            .ok_or_else(|| corrupt(format!("scan selects unknown component {selector}")))?;
        component.1.dc_table = usize::from(tables >> 4);
        component.1.ac_table = usize::from(tables & 0x0F);
        if component.1.dc_table > 3 || component.1.ac_table > 3 {
            return Err(corrupt("scan references huffman table id > 3"));
        }
    }
    Ok(())
}

/// Sizes each component's MCU-aligned sample plane for the frame.
fn size_planes(width: usize, height: usize, components: &mut [(u8, Component)]) {
    let h_max = components.iter().map(|(_, c)| c.h).max().expect("ncomp >= 1");
    let v_max = components.iter().map(|(_, c)| c.v).max().expect("ncomp >= 1");
    let mcus_x = width.div_ceil(8 * h_max);
    let mcus_y = height.div_ceil(8 * v_max);
    for (_, component) in components.iter_mut() {
        component.plane_w = mcus_x * component.h * 8;
        component.plane_h = mcus_y * component.v * 8;
        component.plane = vec![0u8; component.plane_w * component.plane_h];
    }
}

fn decode_scan(
    bytes: &[u8],
    scan_start: usize,
    components: &mut [(u8, Component)],
    quant: &[Option<[u16; 64]>; 4],
    dc_tables: &[Option<HuffTable>; 4],
    ac_tables: &[Option<HuffTable>; 4],
    restart_interval: usize,
) -> Result<(), ImagingError> {
    let basis = dct_basis();
    let mut reader = ScanReader::new(bytes, scan_start);
    let mut coeffs = [0.0f64; 64];
    let mut pixels = [0.0f64; 64];
    let mcus_x = components[0].1.plane_w / (8 * components[0].1.h);
    let mcus_y = components[0].1.plane_h / (8 * components[0].1.v);

    let mut mcu_index = 0usize;
    for mcu_y in 0..mcus_y {
        for mcu_x in 0..mcus_x {
            if restart_interval > 0 && mcu_index > 0 && mcu_index.is_multiple_of(restart_interval) {
                reader.restart((mcu_index / restart_interval - 1) as u32)?;
                for (_, component) in components.iter_mut() {
                    component.pred = 0;
                }
            }
            mcu_index += 1;
            for (_, component) in components.iter_mut() {
                let dc = dc_tables[component.dc_table]
                    .as_ref()
                    .ok_or_else(|| corrupt("scan uses an undefined DC huffman table"))?;
                let ac = ac_tables[component.ac_table]
                    .as_ref()
                    .ok_or_else(|| corrupt("scan uses an undefined AC huffman table"))?;
                let qt = quant[component.quant]
                    .as_ref()
                    .ok_or_else(|| corrupt("scan uses an undefined quantisation table"))?;
                for by in 0..component.v {
                    for bx in 0..component.h {
                        decode_block(&mut reader, dc, ac, qt, &mut component.pred, &mut coeffs)?;
                        idct_8x8(&coeffs, &basis, &mut pixels);
                        let block_x = (mcu_x * component.h + bx) * 8;
                        let block_y = (mcu_y * component.v + by) * 8;
                        for y in 0..8 {
                            let row = (block_y + y) * component.plane_w + block_x;
                            for x in 0..8 {
                                component.plane[row + x] = to_sample(pixels[y * 8 + x] + 128.0);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// `x.round().clamp(0.0, 255.0) as u8` without the `round` call, which
/// is a libm call on baseline x86-64 and ran once per decoded sample.
/// Clamping first leaves the `u8` unchanged, and for `c` in `[0, 255]`
/// the fraction `c - trunc(c)` is exact, so rounding half away from zero
/// is `trunc(c)` plus one when that fraction is at least one half. NaN
/// maps to 0, as it does through `round`.
#[inline]
fn to_sample(x: f64) -> u8 {
    let c = x.clamp(0.0, 255.0);
    let t = c as u8;
    t + u8::from(c - f64::from(t) >= 0.5)
}

fn decode_block(
    reader: &mut ScanReader<'_>,
    dc: &HuffTable,
    ac: &HuffTable,
    qt: &[u16; 64],
    pred: &mut i32,
    coeffs: &mut [f64; 64],
) -> Result<(), ImagingError> {
    coeffs.fill(0.0);
    let size = u32::from(dc.decode(reader)?);
    if size > 11 {
        return Err(corrupt(format!("DC category {size} out of range")));
    }
    let diff = receive_extend(reader.take(size)?, size);
    *pred = pred.wrapping_add(diff);
    coeffs[0] = f64::from(*pred) * f64::from(qt[0]);
    let mut k = 1usize;
    while k < 64 {
        let symbol = ac.decode(reader)?;
        let run = usize::from(symbol >> 4);
        let size = u32::from(symbol & 0x0F);
        if size == 0 {
            if run == 15 {
                k += 16; // ZRL
                continue;
            }
            break; // EOB
        }
        if size > 10 {
            return Err(corrupt(format!("AC category {size} out of range")));
        }
        k += run;
        if k >= 64 {
            return Err(corrupt("AC run past the end of the block"));
        }
        let value = receive_extend(reader.take(size)?, size);
        coeffs[ZIGZAG[k]] = f64::from(value) * f64::from(qt[k]);
        k += 1;
    }
    Ok(())
}

/// Upsamples the component planes to full resolution, converts the
/// color space, and builds the output image.
fn assemble(
    width: usize,
    height: usize,
    components: &[(u8, Component)],
    alloc: SampleAlloc<'_>,
) -> Result<Image, ImagingError> {
    let h_max = components.iter().map(|(_, c)| c.h).max().expect("ncomp >= 1");
    let v_max = components.iter().map(|(_, c)| c.v).max().expect("ncomp >= 1");
    if components.len() == 1 {
        let plane = &components[0].1;
        let n = width * height;
        let mut out = alloc(n);
        out.resize(n, 0.0);
        for y in 0..height {
            for x in 0..width {
                out[y * width + x] = f64::from(plane.plane[y * plane.plane_w + x]);
            }
        }
        return Image::from_gray_plane(width, height, out);
    }
    // Upsample each YCbCr component to full resolution as a per-plane
    // nearest-neighbour pass (trivial for 4:4:4, row/column doubling for
    // 4:2:0), then convert the three stride-1 planes to RGB planes.
    let n = width * height;
    let mut ycc_planes: Vec<Vec<f64>> = Vec::with_capacity(3);
    for (_, component) in components.iter() {
        let mut full = vec![0.0f64; n];
        for y in 0..height {
            let sy = y * component.v / v_max;
            let src_row = sy * component.plane_w;
            let dst_row = y * width;
            if component.h == h_max {
                for x in 0..width {
                    full[dst_row + x] = f64::from(component.plane[src_row + x]);
                }
            } else {
                for x in 0..width {
                    let sx = x * component.h / h_max;
                    full[dst_row + x] = f64::from(component.plane[src_row + sx]);
                }
            }
        }
        ycc_planes.push(full);
    }
    let mut planes: Vec<Vec<f64>> = (0..3)
        .map(|_| {
            let mut p = alloc(n);
            p.resize(n, 0.0);
            p
        })
        .collect();
    let (yp, cbp, crp) = (&ycc_planes[0], &ycc_planes[1], &ycc_planes[2]);
    for i in 0..n {
        let (luma, cb, cr) = (yp[i], cbp[i] - 128.0, crp[i] - 128.0);
        planes[0][i] = (luma + 1.402 * cr).round().clamp(0.0, 255.0);
        planes[1][i] = (luma - 0.344_136 * cb - 0.714_136 * cr).round().clamp(0.0, 255.0);
        planes[2][i] = (luma + 1.772 * cb).round().clamp(0.0, 255.0);
    }
    Image::from_planes(width, height, Channels::Rgb, planes)
}

// ---------------------------------------------------------------------------
// Encoder (baseline sequential, 4:4:4 or grayscale, Annex K tables)
// ---------------------------------------------------------------------------

/// Annex K luminance quantisation table, raster order.
const K_LUMA_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Annex K chrominance quantisation table, raster order.
const K_CHROMA_QUANT: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99, 24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
];

/// Annex K DC Huffman specs as (counts-by-length, symbols).
const K_DC_LUMA: ([u16; 17], &[u8]) =
    ([0, 0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
const K_DC_CHROMA: ([u16; 17], &[u8]) =
    ([0, 0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
const K_AC_LUMA: ([u16; 17], &[u8]) = (
    [0, 0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    &[
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
        0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52,
        0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25,
        0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64,
        0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x83,
        0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
        0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3,
        0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8,
        0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
);
const K_AC_CHROMA: ([u16; 17], &[u8]) = (
    [0, 0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    &[
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
        0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33,
        0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18,
        0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63,
        0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A,
        0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
        0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA,
        0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7,
        0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
);

/// Scales an Annex K table by the libjpeg quality curve (1..=100).
fn scaled_quant(base: &[u16; 64], quality: u8) -> [u16; 64] {
    let q = i32::from(quality.clamp(1, 100));
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut table = [0u16; 64];
    for (dst, &src) in table.iter_mut().zip(base.iter()) {
        *dst = ((i32::from(src) * scale + 50) / 100).clamp(1, 255) as u16;
    }
    table
}

/// MSB-first bit writer with JPEG byte stuffing (FF -> FF 00).
struct ScanWriter {
    out: Vec<u8>,
    acc: u32,
    have: u32,
}

impl ScanWriter {
    fn new() -> Self {
        Self { out: Vec::new(), acc: 0, have: 0 }
    }

    fn push(&mut self, value: u32, bits: u32) {
        debug_assert!(bits <= 16);
        self.acc = (self.acc << bits) | (value & ((1u32 << bits) - 1));
        self.have += bits;
        while self.have >= 8 {
            let byte = ((self.acc >> (self.have - 8)) & 0xFF) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00);
            }
            self.have -= 8;
        }
    }

    /// Pads the final partial byte with 1-bits, per T.81.
    fn finish(mut self) -> Vec<u8> {
        if self.have > 0 {
            let pad = 8 - self.have;
            self.push((1 << pad) - 1, pad);
        }
        self.out
    }
}

fn segment(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.extend_from_slice(&[0xFF, marker]);
    out.extend_from_slice(&((payload.len() + 2) as u16).to_be_bytes());
    out.extend_from_slice(payload);
}

fn dqt_payload(id: u8, table: &[u16; 64]) -> Vec<u8> {
    let mut payload = vec![id]; // pq=0 (8-bit), tq=id
    payload.extend(ZIGZAG.iter().map(|&r| table[r] as u8));
    payload
}

fn dht_payload(class_id: u8, spec: &([u16; 17], &[u8])) -> Vec<u8> {
    let mut payload = vec![class_id];
    payload.extend((1..=16).map(|len| spec.0[len] as u8));
    payload.extend_from_slice(spec.1);
    payload
}

/// Bit category of a coefficient (number of magnitude bits).
fn category(value: i32) -> u32 {
    32 - value.unsigned_abs().leading_zeros()
}

/// Magnitude bits as transmitted: negatives are one's-complemented.
fn magnitude_bits(value: i32, size: u32) -> u32 {
    if value >= 0 {
        value as u32
    } else {
        (value + (1 << size) - 1) as u32
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_block(
    writer: &mut ScanWriter,
    samples: &[f64; 64],
    qt: &[u16; 64],
    basis: &[[f64; 8]; 8],
    dc_codes: &[(u16, u8); 256],
    ac_codes: &[(u16, u8); 256],
    pred: &mut i32,
) {
    let mut coeffs = [0.0f64; 64];
    fdct_8x8(samples, basis, &mut coeffs);
    // Quantise in zigzag order (`qt` is raster-order here; the DQT
    // segment transmits it in zigzag order).
    let mut quantised = [0i32; 64];
    for (k, q) in quantised.iter_mut().enumerate() {
        *q = (coeffs[ZIGZAG[k]] / f64::from(qt[ZIGZAG[k]])).round() as i32;
    }
    let diff = quantised[0] - *pred;
    *pred = quantised[0];
    let size = category(diff);
    let (code, bits) = dc_codes[size as usize];
    writer.push(u32::from(code), u32::from(bits));
    writer.push(magnitude_bits(diff, size), size);

    let mut run = 0usize;
    for &value in &quantised[1..] {
        if value == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            let (code, bits) = ac_codes[0xF0]; // ZRL
            writer.push(u32::from(code), u32::from(bits));
            run -= 16;
        }
        let size = category(value);
        let (code, bits) = ac_codes[(run << 4) | size as usize];
        writer.push(u32::from(code), u32::from(bits));
        writer.push(magnitude_bits(value, size), size);
        run = 0;
    }
    if run > 0 {
        let (code, bits) = ac_codes[0x00]; // EOB
        writer.push(u32::from(code), u32::from(bits));
    }
}

/// Extracts the 8x8 block at `(block_x, block_y)` from a component
/// plane, level-shifted by -128 and edge-replicated past the borders.
fn extract_block(
    plane: &[f64],
    width: usize,
    height: usize,
    block_x: usize,
    block_y: usize,
    out: &mut [f64; 64],
) {
    for y in 0..8 {
        let sy = (block_y * 8 + y).min(height - 1);
        for x in 0..8 {
            let sx = (block_x * 8 + x).min(width - 1);
            out[y * 8 + x] = plane[sy * width + sx] - 128.0;
        }
    }
}

/// Encodes an image as baseline JPEG at `quality` (1..=100, the libjpeg
/// scaling curve over the Annex K tables). Grayscale images become
/// single-component streams; RGB becomes YCbCr 4:4:4. Lossy by nature:
/// round-tripping is approximate, closer at higher quality.
pub fn encode_jpeg(image: &Image, quality: u8) -> Vec<u8> {
    let width = image.width();
    let height = image.height();
    let gray = image.channels() == Channels::Gray;
    let luma_qt = scaled_quant(&K_LUMA_QUANT, quality);
    let chroma_qt = scaled_quant(&K_CHROMA_QUANT, quality);

    // Color conversion into planes (luma only for grayscale input).
    let mut planes: Vec<Vec<f64>> = Vec::new();
    if gray {
        planes.push(image.plane(0).iter().map(|&v| v.round().clamp(0.0, 255.0)).collect());
    } else {
        let mut y_plane = vec![0.0; width * height];
        let mut cb_plane = vec![0.0; width * height];
        let mut cr_plane = vec![0.0; width * height];
        let (rp, gp, bp) = (image.plane(0), image.plane(1), image.plane(2));
        for i in 0..width * height {
            let (r, g, b) = (
                rp[i].round().clamp(0.0, 255.0),
                gp[i].round().clamp(0.0, 255.0),
                bp[i].round().clamp(0.0, 255.0),
            );
            y_plane[i] = 0.299 * r + 0.587 * g + 0.114 * b;
            cb_plane[i] = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
            cr_plane[i] = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
        }
        planes.push(y_plane);
        planes.push(cb_plane);
        planes.push(cr_plane);
    }

    let mut out = vec![0xFF, 0xD8]; // SOI
                                    // Minimal JFIF APP0 so external viewers accept the stream.
    segment(&mut out, 0xE0, &[b'J', b'F', b'I', b'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0]);
    segment(&mut out, 0xDB, &dqt_payload(0, &luma_qt));
    if !gray {
        segment(&mut out, 0xDB, &dqt_payload(1, &chroma_qt));
    }
    let ncomp = if gray { 1u8 } else { 3u8 };
    let mut sof = vec![8];
    sof.extend_from_slice(&(height as u16).to_be_bytes());
    sof.extend_from_slice(&(width as u16).to_be_bytes());
    sof.push(ncomp);
    for c in 0..ncomp {
        sof.extend_from_slice(&[c + 1, 0x11, if c == 0 { 0 } else { 1 }]);
    }
    segment(&mut out, 0xC0, &sof);
    segment(&mut out, 0xC4, &dht_payload(0x00, &K_DC_LUMA));
    segment(&mut out, 0xC4, &dht_payload(0x10, &K_AC_LUMA));
    if !gray {
        segment(&mut out, 0xC4, &dht_payload(0x01, &K_DC_CHROMA));
        segment(&mut out, 0xC4, &dht_payload(0x11, &K_AC_CHROMA));
    }
    let mut sos = vec![ncomp];
    for c in 0..ncomp {
        sos.extend_from_slice(&[c + 1, if c == 0 { 0x00 } else { 0x11 }]);
    }
    sos.extend_from_slice(&[0, 63, 0]);
    segment(&mut out, 0xDA, &sos);

    let basis = dct_basis();
    let dc_luma = HuffTable::new(K_DC_LUMA.0, K_DC_LUMA.1.to_vec())
        .expect("Annex K table is well-formed")
        .build_codes();
    let ac_luma = HuffTable::new(K_AC_LUMA.0, K_AC_LUMA.1.to_vec())
        .expect("Annex K table is well-formed")
        .build_codes();
    let dc_chroma = HuffTable::new(K_DC_CHROMA.0, K_DC_CHROMA.1.to_vec())
        .expect("Annex K table is well-formed")
        .build_codes();
    let ac_chroma = HuffTable::new(K_AC_CHROMA.0, K_AC_CHROMA.1.to_vec())
        .expect("Annex K table is well-formed")
        .build_codes();

    let mut writer = ScanWriter::new();
    let mut preds = vec![0i32; planes.len()];
    let mut block = [0.0f64; 64];
    for block_y in 0..height.div_ceil(8) {
        for block_x in 0..width.div_ceil(8) {
            for (c, plane) in planes.iter().enumerate() {
                extract_block(plane, width, height, block_x, block_y, &mut block);
                let (qt, dc, ac) = if c == 0 {
                    (&luma_qt, &dc_luma, &ac_luma)
                } else {
                    (&chroma_qt, &dc_chroma, &ac_chroma)
                };
                encode_block(&mut writer, &block, qt, &basis, dc, ac, &mut preds[c]);
            }
        }
    }
    out.extend_from_slice(&writer.finish());
    out.extend_from_slice(&[0xFF, 0xD9]); // EOI
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::random_code_lengths;
    use proptest::prelude::*;

    /// A random DHT table (complete or not, codes up to 16 bits): the
    /// per-length counts and the symbols in (length, symbol) order.
    fn random_table(seed: u64, symbols: usize, complete: bool) -> HuffTable {
        let lengths = random_code_lengths(seed, symbols, 16, complete);
        let mut counts = [0u16; 17];
        let mut ordered = Vec::new();
        for len in 1..=16u8 {
            for (symbol, &l) in lengths.iter().enumerate() {
                if l == len {
                    counts[usize::from(len)] += 1;
                    ordered.push(symbol as u8);
                }
            }
        }
        HuffTable::new(counts, ordered).expect("generated sets are never oversubscribed")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lookup table decodes exactly as the bit-serial walk: the
        /// same symbols, the same reader state (accumulator, buffered bits,
        /// input position) after every symbol and the same error at the
        /// end, for complete and incomplete tables over random entropy
        /// data — including FF stuffing and markers that end it early —
        /// cut at random lengths.
        #[test]
        fn table_decode_matches_the_bit_serial_walk(
            seed in any::<u64>(),
            complete in any::<bool>(),
            symbols in 2usize..=256,
            stream in proptest::collection::vec(
                prop_oneof![any::<u8>(), Just(0xFFu8), Just(0x00u8)],
                0..96,
            ),
        ) {
            let code = random_table(seed, symbols, complete);
            let mut table = ScanReader::new(&stream, 0);
            let mut walk = ScanReader::new(&stream, 0);
            loop {
                let fast = code.decode(&mut table);
                let slow = code.decode_walk(&mut walk);
                prop_assert_eq!(
                    (table.acc, table.have, table.at),
                    (walk.acc, walk.have, walk.at)
                );
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
    fn sample_rounding_matches_round_then_clamp() {
        let reference = |x: f64| x.round().clamp(0.0, 255.0) as u8;
        let mut probes = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
        for k in -3i32..=259 {
            for base in [f64::from(k), f64::from(k) + 0.5, f64::from(k) - 0.5] {
                probes.extend([base, base.next_up(), base.next_down()]);
            }
        }
        // The largest double below one half, where `x + 0.5` rounds up.
        probes.push(0.499_999_999_999_999_94);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            probes.push((state >> 11) as f64 / (1u64 << 53) as f64 * 300.0 - 20.0);
        }
        for x in probes {
            assert_eq!(to_sample(x), reference(x), "{x:e}");
        }
    }

    #[test]
    fn annex_k_tables_resolve_short_codes_in_one_lookup() {
        // The Annex K luma DC codes are at most 9 bits long, so the only
        // lookup miss is the all-ones code T.81 leaves unassigned.
        let dc_luma = HuffTable::new(K_DC_LUMA.0, K_DC_LUMA.1.to_vec()).unwrap();
        let misses: Vec<usize> =
            (0..dc_luma.lookup.len()).filter(|&index| dc_luma.lookup[index] == 0).collect();
        assert_eq!(misses, [(1 << TABLE_BITS) - 1]);
    }

    fn gradient_rgb(width: usize, height: usize) -> Image {
        let mut data = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            for x in 0..width {
                data.push(((x * 9 + y * 4) % 256) as f64);
                data.push(((x * 3 + y * 7 + 60) % 256) as f64);
                data.push(((x * 5 + y * 2 + 120) % 256) as f64);
            }
        }
        Image::from_interleaved(width, height, Channels::Rgb, data).unwrap()
    }

    /// Test-side bit packer: MSB-first with FF stuffing, pad with 1s.
    struct TestBits(ScanWriter);
    impl TestBits {
        fn new() -> Self {
            Self(ScanWriter::new())
        }
        fn push(&mut self, value: u32, bits: u32) {
            self.0.push(value, bits);
        }
        fn finish(self) -> Vec<u8> {
            self.0.finish()
        }
    }

    fn seg(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
        segment(out, marker, payload);
    }

    /// All-ones quantisation table (tq = id), so coefficients pass
    /// through dequantisation unchanged.
    fn unit_dqt(id: u8) -> Vec<u8> {
        let mut payload = vec![id];
        payload.extend(std::iter::repeat_n(1u8, 64));
        payload
    }

    /// DHT payload from explicit (class_id, lengths-as-(len,symbol)).
    fn tiny_dht(class_id: u8, codes: &[(u8, u8)]) -> Vec<u8> {
        let mut counts = [0u8; 17];
        for &(len, _) in codes {
            counts[usize::from(len)] += 1;
        }
        let mut payload = vec![class_id];
        payload.extend_from_slice(&counts[1..]);
        payload.extend(codes.iter().map(|&(_, sym)| sym));
        payload
    }

    /// Hand-assembled 8x8 grayscale, DC-only: quantised DC = 320 with a
    /// unit table means every pixel is 320/8 + 128 = 168. The Huffman
    /// tables are declared in-stream (DC: category 9 <- code '0';
    /// AC: EOB <- code '0'), so this vector exercises the real marker
    /// walk, DHT parsing, entropy decode, and IDCT against pixel values
    /// derived from the T.81 formulas — independent of the encoder.
    #[test]
    fn golden_dc_only_grayscale() {
        let mut jpeg = vec![0xFF, 0xD8];
        seg(&mut jpeg, 0xDB, &unit_dqt(0));
        seg(&mut jpeg, 0xC0, &[8, 0, 8, 0, 8, 1, 1, 0x11, 0]);
        seg(&mut jpeg, 0xC4, &tiny_dht(0x00, &[(1, 9)]));
        seg(&mut jpeg, 0xC4, &tiny_dht(0x10, &[(1, 0x00)]));
        seg(&mut jpeg, 0xDA, &[1, 1, 0x00, 0, 63, 0]);
        let mut bits = TestBits::new();
        bits.push(0, 1); // DC huffman: category 9
        bits.push(320, 9); // DC magnitude: +320
        bits.push(0, 1); // AC huffman: EOB
        jpeg.extend(bits.finish());
        jpeg.extend_from_slice(&[0xFF, 0xD9]);

        let image = decode_jpeg(&jpeg).unwrap();
        assert_eq!((image.width(), image.height()), (8, 8));
        assert_eq!(image.channels(), Channels::Gray);
        assert!(image.plane(0).iter().all(|&v| v == 168.0), "{:?}", &image.plane(0)[..8]);
    }

    /// Hand-assembled 16x16 4:2:0 color, flat: Y=120, Cb=148, Cr=108.
    /// One MCU of 4 Y blocks + Cb + Cr, DC-only. Expected RGB from the
    /// T.81 YCbCr equations.
    #[test]
    fn golden_flat_color_420() {
        let mut jpeg = vec![0xFF, 0xD8];
        seg(&mut jpeg, 0xDB, &unit_dqt(0));
        seg(&mut jpeg, 0xC0, &[8, 0, 16, 0, 16, 3, 1, 0x22, 0, 2, 0x11, 0, 3, 0x11, 0]);
        // DC: symbol 0 <- '0', symbol 7 <- '10', symbol 8 <- '110'.
        seg(&mut jpeg, 0xC4, &tiny_dht(0x00, &[(1, 0), (2, 7), (3, 8)]));
        seg(&mut jpeg, 0xC4, &tiny_dht(0x10, &[(1, 0x00)]));
        seg(&mut jpeg, 0xDA, &[3, 1, 0x00, 2, 0x00, 3, 0x00, 0, 63, 0]);
        let mut bits = TestBits::new();
        // Y block 0: DC diff = 8*(120-128) = -64 -> category 7, bits = -64+127.
        bits.push(0b10, 2);
        bits.push(63, 7);
        bits.push(0, 1); // EOB
        for _ in 0..3 {
            bits.push(0, 1); // Y blocks 1-3: DC diff 0
            bits.push(0, 1); // EOB
        }
        // Cb: DC = 8*(148-128) = 160 -> category 8, positive.
        bits.push(0b110, 3);
        bits.push(160, 8);
        bits.push(0, 1);
        // Cr: DC = 8*(108-128) = -160 -> category 8, bits = -160+255 = 95.
        bits.push(0b110, 3);
        bits.push(95, 8);
        bits.push(0, 1);
        jpeg.extend(bits.finish());
        jpeg.extend_from_slice(&[0xFF, 0xD9]);

        let image = decode_jpeg(&jpeg).unwrap();
        assert_eq!((image.width(), image.height()), (16, 16));
        assert_eq!(image.channels(), Channels::Rgb);
        let (y, cb, cr): (f64, f64, f64) = (120.0, 148.0 - 128.0, 108.0 - 128.0);
        let expected = [
            (y + 1.402 * cr).round(),
            (y - 0.344_136 * cb - 0.714_136 * cr).round(),
            (y + 1.772 * cb).round(),
        ];
        for (c, &want) in expected.iter().enumerate() {
            assert!(image.plane(c).iter().all(|&v| v == want), "channel {c}");
        }
    }

    #[test]
    fn encode_decode_round_trip_is_close() {
        let image = gradient_rgb(24, 17);
        let decoded = decode_jpeg(&encode_jpeg(&image, 95)).unwrap();
        assert_eq!((decoded.width(), decoded.height()), (24, 17));
        let max_err = image
            .planes()
            .iter()
            .flatten()
            .zip(decoded.planes().iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= 24.0, "quality-95 error {max_err} too large");
        // Lower quality loses more but must still be in the ballpark.
        let rough = decode_jpeg(&encode_jpeg(&image, 30)).unwrap();
        let mean_err = image
            .planes()
            .iter()
            .flatten()
            .zip(rough.planes().iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / (image.plane_len() * image.channel_count()) as f64;
        assert!(mean_err <= 30.0, "quality-30 mean error {mean_err}");
    }

    #[test]
    fn flat_gray_round_trip_is_exact_enough() {
        for value in [0.0, 31.0, 100.0, 128.0, 200.0, 255.0] {
            let image = Image::filled(16, 16, Channels::Gray, value);
            let decoded = decode_jpeg(&encode_jpeg(&image, 90)).unwrap();
            assert_eq!(decoded.channels(), Channels::Gray);
            for &sample in decoded.plane(0) {
                assert!((sample - value).abs() <= 1.0, "flat {value} decoded as {sample}");
            }
        }
    }

    #[test]
    fn decode_into_uses_the_provided_allocator() {
        let image = gradient_rgb(8, 8);
        let jpeg = encode_jpeg(&image, 90);
        let mut calls = 0usize;
        let decoded = decode_jpeg_into(&jpeg, &mut |n| {
            calls += 1;
            assert_eq!(n, 8 * 8, "one request per plane, each w*h samples");
            Vec::with_capacity(n)
        })
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!((decoded.width(), decoded.height()), (8, 8));
    }

    #[test]
    fn odd_dimensions_and_restart_free_streams_decode() {
        for (w, h) in [(1usize, 1usize), (7, 3), (8, 8), (9, 9), (17, 5)] {
            let image = gradient_rgb(w, h);
            let decoded = decode_jpeg(&encode_jpeg(&image, 90)).unwrap();
            assert_eq!((decoded.width(), decoded.height()), (w, h), "{w}x{h}");
        }
    }

    #[test]
    fn unsupported_features_are_typed() {
        let jpeg = encode_jpeg(&gradient_rgb(8, 8), 90);
        // Rewrite SOF0 (FFC0) to SOF2 (progressive).
        let mut progressive = jpeg.clone();
        let sof = progressive.windows(2).position(|w| w == [0xFF, 0xC0]).unwrap();
        progressive[sof + 1] = 0xC2;
        assert!(matches!(decode_jpeg(&progressive).unwrap_err(), ImagingError::Unsupported { .. }));
        // 12-bit precision.
        let mut deep = jpeg.clone();
        deep[sof + 4] = 12;
        assert!(matches!(decode_jpeg(&deep).unwrap_err(), ImagingError::Unsupported { .. }));
        // Sampling factor 4x1.
        let mut wide = jpeg;
        wide[sof + 11] = 0x41;
        assert!(matches!(decode_jpeg(&wide).unwrap_err(), ImagingError::Unsupported { .. }));
    }

    #[test]
    fn truncations_and_garbage_never_panic() {
        assert!(decode_jpeg(b"").is_err());
        assert!(decode_jpeg(b"\xFF\xD8").is_err());
        assert!(decode_jpeg(b"JFIF but not really").is_err());
        let jpeg = encode_jpeg(&gradient_rgb(10, 10), 80);
        // Every prefix missing entropy data must error; only the cuts
        // that merely drop the EOI trailer may still decode.
        for cut in 0..jpeg.len() {
            let result = decode_jpeg(&jpeg[..cut]);
            if cut < jpeg.len() - 2 {
                assert!(result.is_err(), "prefix of {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn dct_round_trip_is_lossless_in_float() {
        let basis = dct_basis();
        let mut samples = [0.0f64; 64];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = ((i * 37 + 11) % 256) as f64 - 128.0;
        }
        let mut coeffs = [0.0f64; 64];
        let mut back = [0.0f64; 64];
        fdct_8x8(&samples, &basis, &mut coeffs);
        idct_8x8(&coeffs, &basis, &mut back);
        for (a, b) in samples.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn category_and_magnitude_match_extend() {
        for value in [-1024, -255, -64, -1, 0, 1, 63, 255, 1023] {
            let size = category(value);
            if value != 0 {
                let raw = magnitude_bits(value, size);
                assert_eq!(receive_extend(raw, size), value, "value {value}");
            } else {
                assert_eq!(size, 0);
            }
        }
    }
}
