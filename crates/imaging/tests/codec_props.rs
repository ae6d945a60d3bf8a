//! Totality and round-trip properties for the codec subsystem.
//!
//! The decoders are the trust boundary of the whole pipeline: they take
//! attacker-controlled bytes. Every property here drives them with
//! hostile inputs — truncations, bit flips, spliced garbage, pure
//! noise — and requires a typed `Result`, never a panic and never an
//! oversized allocation.

use decamouflage_imaging::codec::{
    decode_auto, decode_auto_into, decode_bmp, decode_jpeg, decode_png, decode_pnm, encode_bmp,
    encode_jpeg, encode_pgm, encode_png, encode_ppm, inflate, zlib_compress, zlib_decompress,
};
use decamouflage_imaging::{Channels, Image};
use proptest::prelude::*;

fn arb_gray() -> impl Strategy<Value = Image> {
    (1usize..=17, 1usize..=13).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=255, w * h)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Gray, &data).unwrap())
    })
}

fn arb_rgb() -> impl Strategy<Value = Image> {
    (1usize..=13, 1usize..=11).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=255, w * h * 3)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Rgb, &data).unwrap())
    })
}

/// A valid encoded file in one of the four supported containers.
fn arb_encoded() -> impl Strategy<Value = Vec<u8>> {
    (arb_rgb(), 0usize..5).prop_map(|(img, container)| match container {
        0 => encode_bmp(&img),
        1 => encode_ppm(&img),
        2 => encode_pgm(&img),
        3 => encode_png(&img),
        _ => encode_jpeg(&img, 85),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- round trips ----------------------------------------------------

    #[test]
    fn png_round_trips_rgb_bit_exactly(img in arb_rgb()) {
        let decoded = decode_png(&encode_png(&img)).unwrap();
        prop_assert_eq!(decoded.planes(), img.planes());
    }

    #[test]
    fn png_round_trips_gray_bit_exactly(img in arb_gray()) {
        let decoded = decode_png(&encode_png(&img)).unwrap();
        prop_assert_eq!(decoded.channels(), Channels::Gray);
        prop_assert_eq!(decoded.planes(), img.planes());
    }

    #[test]
    fn zlib_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let stream = zlib_compress(&data);
        let back = zlib_decompress(&stream, data.len().max(1)).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn jpeg_round_trip_stays_within_lossy_tolerance(img in arb_rgb()) {
        // Quality 95 on arbitrary noise: JPEG is lossy, but decoded
        // samples must stay plausible (in range, right geometry).
        let decoded = decode_jpeg(&encode_jpeg(&img, 95)).unwrap();
        prop_assert_eq!((decoded.width(), decoded.height()), (img.width(), img.height()));
        for &v in decoded.planes().iter().flatten() {
            prop_assert!((0.0..=255.0).contains(&v), "sample {v} out of range");
        }
    }

    // ---- totality: every decoder returns, never panics ------------------

    #[test]
    fn truncations_of_valid_files_never_panic(
        file in arb_encoded(),
        frac in 0.0f64..1.0,
    ) {
        let cut = ((file.len() as f64) * frac) as usize;
        // Success is allowed (e.g. trailing bytes were padding); a panic
        // or hang is the only failure mode under test.
        let _ = decode_auto(&file[..cut.min(file.len())]);
    }

    #[test]
    fn bit_flips_in_valid_files_never_panic(
        file in arb_encoded(),
        offset in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut mutated = file;
        if !mutated.is_empty() {
            let at = offset % mutated.len();
            mutated[at] ^= 1 << bit;
        }
        let _ = decode_auto(&mutated);
    }

    #[test]
    fn spliced_garbage_never_panics(
        file in arb_encoded(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
        offset in any::<usize>(),
    ) {
        let mut mutated = file;
        let at = offset % (mutated.len() + 1);
        mutated.splice(at..at, garbage);
        let _ = decode_auto(&mutated);
    }

    #[test]
    fn pure_noise_never_panics_any_decoder(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_auto(&noise);
        // Also force each codec directly, bypassing the sniff gate —
        // a caller may hand any decoder any bytes.
        let _ = decode_bmp(&noise);
        let _ = decode_pnm(&noise);
        let _ = decode_png(&noise);
        let _ = decode_jpeg(&noise);
        let _ = inflate(&noise, 1 << 16);
        let _ = zlib_decompress(&noise, 1 << 16);
    }

    #[test]
    fn noise_with_real_magic_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        which in 0usize..4,
    ) {
        // The hardest hostile shape: a correct signature followed by
        // attacker bytes reaches deep into each parser.
        let magic: &[u8] = match which {
            0 => &[137, 80, 78, 71, 13, 10, 26, 10],
            1 => &[0xFF, 0xD8],
            2 => b"BM",
            _ => b"P6",
        };
        let mut bytes = magic.to_vec();
        bytes.extend(noise);
        let _ = decode_auto(&bytes);
    }
}

#[test]
fn hostile_headers_do_not_allocate_unbounded() {
    // A PNM header declaring a huge raster must be rejected before the
    // sample buffer is allocated (the other codecs share the budget).
    let huge = b"P5\n999999999 999999999\n255\n\x00";
    assert!(decode_pnm(huge).is_err());
    // Within the budget, every PNM and BMP sample takes at least one byte
    // of the file, so a decoder that checks its data before allocating
    // never asks for more samples than the file has bytes.
    let valid = Image::from_fn_rgb(5, 3, |x, y| [(x * 40) as f64, (y * 70) as f64, 9.0]);
    let mut bmp_header = encode_bmp(&valid);
    bmp_header[18..22].copy_from_slice(&8192u32.to_le_bytes());
    bmp_header[22..26].copy_from_slice(&8192u32.to_le_bytes());
    let hostile: [&[u8]; 6] = [
        b"P5\n8192 8192\n255\n",
        b"P6\n8192 8192\n255\n",
        b"P5\n4096 4096\n255\n",
        b"P2\n8192 8192\n255\n0 1 2\n",
        b"P3\n8192 8192\n255\n0 1 2\n",
        &bmp_header,
    ];
    let plain_gray = b"P2\n3 2\n255\n0 10 20\n30 40 255\n";
    let plain_rgb = b"P3\n1 2\n255\n1 2 3  4 5 6\n";
    let valid_files = [
        encode_pgm(&valid),
        encode_ppm(&valid),
        encode_bmp(&valid),
        plain_gray.to_vec(),
        plain_rgb.to_vec(),
    ];
    let cases =
        hostile.iter().map(|b| (*b, false)).chain(valid_files.iter().map(|b| (&b[..], true)));
    for (bytes, decodes) in cases {
        let mut requested = 0;
        let result = decode_auto_into(bytes, &mut |n| {
            requested += n;
            assert!(
                requested <= bytes.len(),
                "{} bytes asked for {requested} samples",
                bytes.len()
            );
            vec![0.0; n]
        });
        assert_eq!(result.is_ok(), decodes, "{:?}", String::from_utf8_lossy(&bytes[..2]));
    }
    // A zlib bomb must stop at the output cap, not inflate forever.
    let bomb = zlib_compress(&vec![0u8; 1 << 16]);
    assert!(zlib_decompress(&bomb, 1 << 10).is_err());
}
