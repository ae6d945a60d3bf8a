//! Netpbm encoding and decoding: binary PGM/PPM (`P5`/`P6`) plus the
//! plain ASCII variants (`P2`/`P3`) on the decode side.

use crate::{Channels, Image, ImagingError};
use std::io::{Read, Write};
use std::path::Path;

/// Encodes a grayscale image as a binary PGM (`P5`) byte vector.
///
/// RGB inputs are converted to luminance first.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::{Image, codec::{encode_pgm, decode_pnm}};
///
/// # fn main() -> Result<(), decamouflage_imaging::ImagingError> {
/// let img = Image::from_fn_gray(4, 2, |x, y| (x * 60 + y * 30) as f64);
/// let bytes = encode_pgm(&img);
/// let back = decode_pnm(&bytes)?;
/// assert!(back.approx_eq(&img, 0.5));
/// # Ok(())
/// # }
/// ```
pub fn encode_pgm(img: &Image) -> Vec<u8> {
    let gray = img.to_gray();
    let mut out = format!("P5\n{} {}\n255\n", gray.width(), gray.height()).into_bytes();
    out.extend(gray.to_u8_vec());
    out
}

/// Encodes an RGB image as a binary PPM (`P6`) byte vector.
///
/// Grayscale inputs are replicated across the three channels first.
pub fn encode_ppm(img: &Image) -> Vec<u8> {
    let rgb = img.to_rgb();
    let mut out = format!("P6\n{} {}\n255\n", rgb.width(), rgb.height()).into_bytes();
    out.extend(rgb.to_u8_vec());
    out
}

/// Decodes a PGM/PPM byte stream: binary `P5`/`P6` or plain ASCII
/// `P2`/`P3`.
///
/// Comments (`# …`) in the header are skipped; only `maxval = 255` streams
/// are supported.
///
/// # Errors
///
/// Returns [`ImagingError::Decode`] for malformed headers, unsupported
/// formats or truncated pixel data.
pub fn decode_pnm(bytes: &[u8]) -> Result<Image, ImagingError> {
    decode_pnm_into(bytes, &mut |n| vec![0.0; n])
}

/// Decodes a PGM/PPM byte stream, obtaining the sample buffer from
/// `alloc` so streaming callers can recycle `BufferPool` buffers.
///
/// # Errors
///
/// Same as [`decode_pnm`].
pub fn decode_pnm_into(
    bytes: &[u8],
    alloc: crate::codec::SampleAlloc<'_>,
) -> Result<Image, ImagingError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic = cursor.token()?;
    let (channels, ascii) = match magic.as_str() {
        "P2" => (Channels::Gray, true),
        "P3" => (Channels::Rgb, true),
        "P5" => (Channels::Gray, false),
        "P6" => (Channels::Rgb, false),
        other => {
            return Err(ImagingError::Decode { message: format!("unsupported magic {other:?}") })
        }
    };
    let width: usize = cursor.number()?;
    let height: usize = cursor.number()?;
    let maxval: usize = cursor.number()?;
    if maxval != 255 {
        return Err(ImagingError::Decode { message: format!("unsupported maxval {maxval}") });
    }
    // Same decoded-pixel budget as the PNG/JPEG decoders: a hostile
    // header must not drive a huge allocation.
    if (width as u64).saturating_mul(height as u64) > (1 << 26) {
        return Err(ImagingError::Decode {
            message: format!("pnm declares {width}x{height}, past the pixel budget"),
        });
    }
    let ch = channels.count();
    let n = width * height;
    let expected = n * ch;
    // The bytes must be able to hold the declared samples before `alloc` is
    // asked for a plane: a recycled plane is resized, so every page of it
    // is written. A binary sample is one byte, a plain (ASCII) one at least
    // one; exactly one whitespace byte separates the binary header from its
    // pixel data.
    if !ascii {
        cursor.expect_single_whitespace()?;
    }
    let data = cursor.rest();
    if data.len() < expected {
        return Err(ImagingError::Decode {
            message: format!("pixel data truncated: have {} bytes, need {expected}", data.len()),
        });
    }
    let mut planes: Vec<Vec<f64>> = (0..ch)
        .map(|_| {
            let mut p = alloc(n);
            p.resize(n, 0.0);
            p
        })
        .collect();
    if ascii {
        // Plain (ASCII) variant: whitespace-separated decimal samples in
        // pixel-major (interleaved) wire order, scattered into planes.
        for i in 0..expected {
            let v: usize = cursor.number()?;
            if v > 255 {
                return Err(ImagingError::Decode {
                    message: format!("sample {v} exceeds maxval 255"),
                });
            }
            planes[i % ch][i / ch] = v as f64;
        }
        return Image::from_planes(width, height, channels, planes);
    }
    match channels {
        Channels::Gray => {
            for (dst, &byte) in planes[0].iter_mut().zip(&data[..expected]) {
                *dst = f64::from(byte);
            }
        }
        Channels::Rgb => {
            for (i, px) in data[..expected].chunks_exact(3).enumerate() {
                planes[0][i] = f64::from(px[0]);
                planes[1][i] = f64::from(px[1]);
                planes[2][i] = f64::from(px[2]);
            }
        }
    }
    Image::from_planes(width, height, channels, planes)
}

/// Writes an image to `path`, picking PGM for grayscale and PPM for RGB.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn write_pnm_file(img: &Image, path: impl AsRef<Path>) -> Result<(), ImagingError> {
    let bytes = match img.channels() {
        Channels::Gray => encode_pgm(img),
        Channels::Rgb => encode_ppm(img),
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Reads a PGM/PPM image from `path`.
///
/// # Errors
///
/// Propagates I/O errors and decode failures.
pub fn read_pnm_file(path: impl AsRef<Path>) -> Result<Image, ImagingError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_pnm(&bytes)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws_and_comments(&mut self) -> Result<(), ImagingError> {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.bytes.len() && self.bytes[self.pos] == b'#' {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return Ok(());
            }
        }
    }

    fn token(&mut self) -> Result<String, ImagingError> {
        self.skip_ws_and_comments()?;
        let start = self.pos;
        while self.pos < self.bytes.len() && !self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ImagingError::Decode { message: "unexpected end of header".into() });
        }
        String::from_utf8(self.bytes[start..self.pos].to_vec())
            .map_err(|_| ImagingError::Decode { message: "non-utf8 header token".into() })
    }

    fn number(&mut self) -> Result<usize, ImagingError> {
        let tok = self.token()?;
        tok.parse()
            .map_err(|_| ImagingError::Decode { message: format!("expected number, got {tok:?}") })
    }

    fn expect_single_whitespace(&mut self) -> Result<(), ImagingError> {
        if self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
            Ok(())
        } else {
            Err(ImagingError::Decode { message: "missing separator before pixel data".into() })
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip() {
        let img = Image::from_fn_gray(7, 5, |x, y| ((x * 37 + y * 11) % 256) as f64);
        let back = decode_pnm(&encode_pgm(&img)).unwrap();
        assert_eq!(back.channels(), Channels::Gray);
        assert!(back.approx_eq(&img, 0.5));
    }

    #[test]
    fn ppm_roundtrip() {
        let img = Image::from_fn_rgb(5, 4, |x, y| {
            [(x * 50 % 256) as f64, (y * 60 % 256) as f64, ((x + y) * 20 % 256) as f64]
        });
        let back = decode_pnm(&encode_ppm(&img)).unwrap();
        assert_eq!(back.channels(), Channels::Rgb);
        assert!(back.approx_eq(&img, 0.5));
    }

    #[test]
    fn encode_pgm_converts_rgb_to_luma() {
        let img = Image::from_fn_rgb(2, 2, |_, _| [255.0, 0.0, 0.0]);
        let back = decode_pnm(&encode_pgm(&img)).unwrap();
        assert_eq!(back.channels(), Channels::Gray);
        assert!((back.get(0, 0, 0) - (0.299f64 * 255.0).round()).abs() < 1.0);
    }

    #[test]
    fn decoder_skips_comments() {
        let mut bytes = b"P5\n# a comment\n2 1\n# another\n255\n".to_vec();
        bytes.extend_from_slice(&[7u8, 9u8]);
        let img = decode_pnm(&bytes).unwrap();
        assert_eq!(img.plane(0), &[7.0, 9.0]);
    }

    #[test]
    fn ascii_p2_decodes() {
        let img = decode_pnm(b"P2\n# plain gray\n3 2\n255\n0 10 20\n30 40 255\n").unwrap();
        assert_eq!(img.channels(), Channels::Gray);
        assert_eq!(img.plane(0), &[0.0, 10.0, 20.0, 30.0, 40.0, 255.0]);
    }

    #[test]
    fn ascii_p3_decodes() {
        let img = decode_pnm(b"P3\n1 2\n255\n1 2 3  4 5 6\n").unwrap();
        assert_eq!(img.channels(), Channels::Rgb);
        assert_eq!(img.to_interleaved(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn ascii_rejects_oversized_samples_and_truncation() {
        assert!(decode_pnm(b"P2\n1 1\n255\n300\n").is_err());
        assert!(decode_pnm(b"P2\n2 2\n255\n1 2 3\n").is_err());
    }

    #[test]
    fn decoder_rejects_bad_magic() {
        assert!(matches!(decode_pnm(b"P7\n1 1\n255\n\x00"), Err(ImagingError::Decode { .. })));
    }

    #[test]
    fn decoder_rejects_bad_maxval() {
        assert!(decode_pnm(b"P5\n1 1\n65535\n\x00\x00").is_err());
    }

    #[test]
    fn decoder_rejects_truncated_data() {
        assert!(decode_pnm(b"P5\n2 2\n255\n\x00\x01").is_err());
    }

    #[test]
    fn decoder_rejects_garbage_header() {
        assert!(decode_pnm(b"P5\nxx yy\n255\n\x00").is_err());
        assert!(decode_pnm(b"P5").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("decamouflage-imaging-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pgm");
        let img = Image::from_fn_gray(3, 3, |x, y| (x + y) as f64 * 20.0);
        write_pnm_file(&img, &path).unwrap();
        let back = read_pnm_file(&path).unwrap();
        assert!(back.approx_eq(&img, 0.5));
        std::fs::remove_file(&path).ok();
    }
}
