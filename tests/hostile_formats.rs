//! Hostile-container quarantine: wire formats the codecs deliberately do
//! not speak must surface as typed [`ScoreFault::UnsupportedFormat`]
//! (kind `unsupported-format`) through the streaming decode path — never
//! as a panic, a generic unreadable fault, or a silently skipped file.

use decamouflage_core::stream::SourceItem;
use decamouflage_core::{BufferPool, DirectorySource, ImageSource, ScoreError, ScoreFault};
use decamouflage_imaging::codec::{crc32, encode_jpeg, encode_png};
use decamouflage_imaging::Image;

/// A pulled item decoded the way a scoring worker decodes it.
fn decoded(item: SourceItem, pool: &mut BufferPool) -> Result<Image, ScoreError> {
    item.and_then(|pulled| pulled.into_image(&mut |n| pool.take(n)))
}

/// A valid grayscale PNG, then its IHDR patched to declare 16-bit depth
/// (CRC fixed up so the *depth*, not the checksum, is what gets rejected).
fn sixteen_bit_png() -> Vec<u8> {
    let image = Image::from_fn_gray(4, 4, |x, y| (x * 50 + y * 10) as f64);
    let mut png = encode_png(&image);
    const SIGNATURE_LEN: usize = 8;
    let ihdr_data = SIGNATURE_LEN + 8;
    png[ihdr_data + 8] = 16;
    let mut covered = b"IHDR".to_vec();
    covered.extend_from_slice(&png[ihdr_data..ihdr_data + 13]);
    png[ihdr_data + 13..ihdr_data + 17].copy_from_slice(&crc32(&covered).to_be_bytes());
    png
}

/// A valid baseline JPEG with its SOF0 marker rewritten to SOF2
/// (progressive DCT), which the decoder types as unsupported.
fn progressive_jpeg() -> Vec<u8> {
    let image = Image::from_fn_rgb(8, 8, |x, y| [(x * 30) as f64, (y * 30) as f64, 128.0]);
    let mut jpeg = encode_jpeg(&image, 90);
    let sof = jpeg.windows(2).position(|w| w == [0xFF, 0xC0]).expect("baseline SOF0 present");
    jpeg[sof + 1] = 0xC2;
    jpeg
}

#[test]
fn hostile_containers_quarantine_as_unsupported_format() {
    let dir = std::env::temp_dir().join(format!("decam-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Sorted walk order: the control image first, then the two hostiles.
    std::fs::write(
        dir.join("a-control.png"),
        encode_png(&Image::from_fn_gray(4, 4, |x, y| (x * 50 + y * 10) as f64)),
    )
    .unwrap();
    std::fs::write(dir.join("b-deep.png"), sixteen_bit_png()).unwrap();
    std::fs::write(dir.join("c-progressive.jpg"), progressive_jpeg()).unwrap();

    let mut source = DirectorySource::open(&dir).unwrap();
    let mut pool = BufferPool::new(4);

    let control = source.next_image(&mut |n| pool.take(n)).expect("control file listed");
    let control = decoded(control, &mut pool);
    assert!(control.is_ok(), "valid PNG must decode: {:?}", control.err());

    for (name, marker) in [("b-deep.png", "bit depth 16"), ("c-progressive.jpg", "SOF2")] {
        let item =
            source.next_image(&mut |n| pool.take(n)).unwrap_or_else(|| panic!("{name} listed"));
        let err = decoded(item, &mut pool).expect_err("hostile container must be quarantined");
        assert!(
            matches!(err.cause, ScoreFault::UnsupportedFormat { .. }),
            "{name}: fault is {:?}",
            err.cause
        );
        assert_eq!(err.cause.kind(), "unsupported-format", "{name}");
        let shown = err.to_string();
        assert!(shown.contains(name), "{name} missing from {shown:?}");
        assert!(shown.contains(marker), "{marker:?} missing from {shown:?}");
    }
    assert!(source.next_image(&mut |n| pool.take(n)).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_containers_fail_at_decode_without_panicking() {
    // Belt and braces below the streaming layer: the raw decoders type the
    // same bytes as `Unsupported`, so the stream mapping above cannot be
    // masking a panic or a structural-corruption misclassification.
    use decamouflage_imaging::codec::{decode_jpeg, decode_png};
    use decamouflage_imaging::ImagingError;
    assert!(matches!(
        decode_png(&sixteen_bit_png()).unwrap_err(),
        ImagingError::Unsupported { .. }
    ));
    assert!(matches!(
        decode_jpeg(&progressive_jpeg()).unwrap_err(),
        ImagingError::Unsupported { .. }
    ));
}
