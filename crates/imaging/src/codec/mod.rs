//! Dependency-free image codecs.
//!
//! Two tiers. The *artefact* formats — binary PGM/PPM and 24-bit BMP —
//! persist everything the framework produces (attack images, spectra,
//! filtered images) in a form any external viewer understands. The
//! *real-world* formats — PNG (full from-scratch inflate underneath)
//! and baseline JPEG — are what production traffic actually ships, so
//! `scan` and `serve` can ingest genuine corpora.
//!
//! Entry points: [`sniff`] identifies a byte buffer by magic number,
//! [`decode_auto`]/[`decode_auto_into`] dispatch on it. The `*_into`
//! decoders take an allocator closure so streaming callers can hand
//! out recycled `BufferPool` buffers instead of fresh allocations.

mod bmp;
mod checksum;
mod inflate;
mod jpeg;
mod png;
mod pnm;
mod sniff;

pub use bmp::{decode_bmp, decode_bmp_into, encode_bmp, read_bmp_file, write_bmp_file};
pub use checksum::{adler32, crc32};
pub use inflate::{inflate, zlib_compress, zlib_decompress};
pub use jpeg::{decode_jpeg, decode_jpeg_into, encode_jpeg};
pub use png::{decode_png, decode_png_into, encode_png};
pub use pnm::{decode_pnm, decode_pnm_into, encode_pgm, encode_ppm, read_pnm_file, write_pnm_file};
pub use sniff::{decode_auto, decode_auto_into, sniff, ImageFormat};

/// Allocator handed to the `*_into` decoders: given a sample count,
/// return a `Vec<f64>` with at least that capacity (contents ignored —
/// decoders overwrite). Streaming callers pass `&mut |n| pool.take(n)`.
pub type SampleAlloc<'a> = &'a mut dyn FnMut(usize) -> Vec<f64>;

/// Test support for the Huffman decoders: a random canonical code-length
/// set over `symbols` symbols (at least two) with codes of at most
/// `max_len` bits, never oversubscribed. A `complete` set fills the whole
/// code space; otherwise some codes stay unassigned. The same `seed`
/// always gives the same set.
#[cfg(test)]
pub(crate) fn random_code_lengths(
    seed: u64,
    symbols: usize,
    max_len: u8,
    complete: bool,
) -> Vec<u8> {
    let mut state = seed | 1;
    let mut below = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    // Grow a random full binary tree by splitting leaves: alternately the
    // newest leaf, which builds deep chains and so codes longer than the
    // lookup width, and a uniformly random one.
    let target = 2 + below(symbols - 1);
    let mut leaves = vec![1u8, 1];
    while leaves.len() < target {
        let pick = if below(2) == 0 { leaves.len() - 1 } else { below(leaves.len()) };
        if leaves[pick] >= max_len {
            if leaves.iter().all(|&depth| depth >= max_len) {
                break;
            }
            continue;
        }
        leaves[pick] += 1;
        let depth = leaves[pick];
        leaves.push(depth);
    }
    if !complete {
        for _ in 0..1 + below(leaves.len() / 2 + 1) {
            if leaves.len() > 1 {
                leaves.swap_remove(below(leaves.len()));
            }
        }
    }
    // Scatter the lengths over random symbol positions.
    let mut positions: Vec<usize> = (0..symbols).collect();
    for i in (1..symbols).rev() {
        positions.swap(i, below(i + 1));
    }
    let mut lengths = vec![0u8; symbols];
    for (&position, &depth) in positions.iter().zip(&leaves) {
        lengths[position] = depth;
    }
    lengths
}
