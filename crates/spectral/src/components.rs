//! Connected-component labelling of binary images.
//!
//! This plays the role of OpenCV's contour detection in the paper: after
//! binarising the low-passed centred spectrum, each 8-connected blob of set
//! pixels is one "centered spectrum point".

use decamouflage_imaging::Image;

/// One labelled blob of set pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Sequential label starting at 0, in discovery (scan) order.
    pub label: usize,
    /// Number of pixels in the blob.
    pub area: usize,
    /// Pixel-coordinate centroid `(x, y)` of the blob.
    pub centroid: (f64, f64),
    /// Tight bounding box `(min_x, min_y, max_x, max_y)`, inclusive.
    pub bbox: (usize, usize, usize, usize),
}

impl Component {
    /// Euclidean distance from the blob centroid to an arbitrary point.
    pub fn distance_to(&self, x: f64, y: f64) -> f64 {
        let dx = self.centroid.0 - x;
        let dy = self.centroid.1 - y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Pixel connectivity used when labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// 4-neighbourhood (edges only).
    Four,
    /// 8-neighbourhood (edges + corners). The default, matching OpenCV
    /// contour behaviour for blob counting.
    #[default]
    Eight,
}

impl Connectivity {
    fn offsets(&self) -> &'static [(isize, isize)] {
        match self {
            Connectivity::Four => &[(1, 0), (-1, 0), (0, 1), (0, -1)],
            Connectivity::Eight => {
                &[(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
            }
        }
    }
}

/// Labels all connected components of non-zero pixels in `binary` and
/// returns them in scan order. RGB inputs are reduced to their first
/// channel being non-zero: plane 0 becomes a byte mask, labelled by the
/// same flood fill the fused CSP counters run on theirs.
///
/// # Example
///
/// ```
/// use decamouflage_imaging::{Channels, Image};
/// use decamouflage_spectral::components::{label_components, Connectivity};
///
/// let mut img = Image::zeros(5, 5, Channels::Gray);
/// img.set(0, 0, 0, 1.0);
/// img.set(4, 4, 0, 1.0);
/// let blobs = label_components(&img, Connectivity::Eight);
/// assert_eq!(blobs.len(), 2);
/// assert_eq!(blobs[0].area, 1);
/// ```
pub fn label_components(binary: &Image, connectivity: Connectivity) -> Vec<Component> {
    let mut mask: Vec<u8> = binary.plane(0).iter().map(|&v| u8::from(v != 0.0)).collect();
    label_mask(&mut mask, binary.width(), binary.height(), connectivity)
}

/// Labels all connected components of the non-zero bytes of `mask`, a
/// row-major `width` × `height` grid, and returns them in scan order. The
/// flood fill clears every byte it labels, so the mask is its own visited
/// set and ends all zero.
///
/// # Panics
///
/// Panics if `mask` does not hold `width * height` bytes.
pub(crate) fn label_mask(
    mask: &mut [u8],
    width: usize,
    height: usize,
    connectivity: Connectivity,
) -> Vec<Component> {
    assert_eq!(mask.len(), width * height, "mask shape mismatch");
    let mut components = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut next = 0;
    while let Some(seed) = next_set(mask, next) {
        next = seed + 1;
        // Flood fill a new component.
        let (sx, sy) = (seed % width, seed / width);
        let label = components.len();
        let mut area = 0usize;
        let mut sum = (0.0f64, 0.0f64);
        let mut bbox = (sx, sy, sx, sy);
        mask[seed] = 0;
        stack.push((sx, sy));
        while let Some((x, y)) = stack.pop() {
            area += 1;
            sum.0 += x as f64;
            sum.1 += y as f64;
            bbox.0 = bbox.0.min(x);
            bbox.1 = bbox.1.min(y);
            bbox.2 = bbox.2.max(x);
            bbox.3 = bbox.3.max(y);
            for &(dx, dy) in connectivity.offsets() {
                let nx = x as isize + dx;
                let ny = y as isize + dy;
                if nx < 0 || ny < 0 || nx >= width as isize || ny >= height as isize {
                    continue;
                }
                let (nx, ny) = (nx as usize, ny as usize);
                if mask[ny * width + nx] != 0 {
                    mask[ny * width + nx] = 0;
                    stack.push((nx, ny));
                }
            }
        }
        components.push(Component {
            label,
            area,
            centroid: (sum.0 / area as f64, sum.1 / area as f64),
            bbox,
        });
    }
    components
}

/// The index of the first non-zero byte of `mask` at or after `from`. A
/// binarised spectrum is nearly all zero, so this skips eight bytes at a
/// time.
fn next_set(mask: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while let Some(word) = mask.get(at..at + 8) {
        if word != [0; 8] {
            break;
        }
        at += 8;
    }
    mask[at..].iter().position(|&b| b != 0).map(|offset| at + offset)
}

/// Counts components with `area >= min_area` — the blob counting used by
/// the CSP metric, with a speck floor to suppress single-pixel noise.
pub fn count_components(binary: &Image, connectivity: Connectivity, min_area: usize) -> usize {
    label_components(binary, connectivity).iter().filter(|c| c.area >= min_area).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_imaging::Channels;

    fn image_from_rows(rows: &[&str]) -> Image {
        let h = rows.len();
        let w = rows[0].len();
        Image::from_fn_gray(w, h, |x, y| if rows[y].as_bytes()[x] == b'#' { 1.0 } else { 0.0 })
    }

    #[test]
    fn empty_image_has_no_components() {
        let img = Image::zeros(4, 4, Channels::Gray);
        assert!(label_components(&img, Connectivity::Eight).is_empty());
    }

    #[test]
    fn full_image_is_one_component() {
        let img = Image::filled(4, 3, Channels::Gray, 1.0);
        let comps = label_components(&img, Connectivity::Four);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].area, 12);
        assert_eq!(comps[0].bbox, (0, 0, 3, 2));
        assert_eq!(comps[0].centroid, (1.5, 1.0));
    }

    #[test]
    fn diagonal_blobs_merge_under_eight_but_not_four() {
        let img = image_from_rows(&["#..", ".#.", "..#"]);
        assert_eq!(label_components(&img, Connectivity::Eight).len(), 1);
        assert_eq!(label_components(&img, Connectivity::Four).len(), 3);
    }

    #[test]
    fn separate_blobs_are_counted() {
        let img = image_from_rows(&["##..#", "##...", ".....", "#...#"]);
        let comps = label_components(&img, Connectivity::Eight);
        assert_eq!(comps.len(), 4);
        let areas: Vec<usize> = comps.iter().map(|c| c.area).collect();
        assert!(areas.contains(&4));
    }

    #[test]
    fn min_area_filters_specks() {
        let img = image_from_rows(&["##..#", "##..."]);
        assert_eq!(count_components(&img, Connectivity::Eight, 1), 2);
        assert_eq!(count_components(&img, Connectivity::Eight, 2), 1);
        assert_eq!(count_components(&img, Connectivity::Eight, 5), 0);
    }

    #[test]
    fn centroid_of_symmetric_blob_is_its_center() {
        let img = image_from_rows(&[".....", ".###.", ".###.", ".###.", "....."]);
        let comps = label_components(&img, Connectivity::Eight);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].centroid, (2.0, 2.0));
        assert_eq!(comps[0].bbox, (1, 1, 3, 3));
    }

    #[test]
    fn labels_are_sequential_in_scan_order() {
        let img = image_from_rows(&["#.#", "...", "#.."]);
        let comps = label_components(&img, Connectivity::Eight);
        assert_eq!(comps.len(), 3);
        for (i, c) in comps.iter().enumerate() {
            assert_eq!(c.label, i);
        }
        // Scan order: (0,0) first, then (2,0), then (0,2).
        assert_eq!(comps[0].centroid, (0.0, 0.0));
        assert_eq!(comps[1].centroid, (2.0, 0.0));
        assert_eq!(comps[2].centroid, (0.0, 2.0));
    }

    #[test]
    fn distance_to_computes_euclidean() {
        let img = image_from_rows(&["#"]);
        let comps = label_components(&img, Connectivity::Eight);
        assert!((comps[0].distance_to(3.0, 4.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn snake_shape_is_single_component() {
        let img = image_from_rows(&["#####", "....#", "#####", "#....", "#####"]);
        assert_eq!(label_components(&img, Connectivity::Four).len(), 1);
    }
}
