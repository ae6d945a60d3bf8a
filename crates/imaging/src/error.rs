use std::fmt;

/// Error type for all fallible operations in this crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum ImagingError {
    /// An image dimension was zero or otherwise unusable.
    InvalidDimensions {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// The sample buffer length does not match `width * height * channels`.
    BufferSizeMismatch {
        /// Expected number of samples.
        expected: usize,
        /// Actual number of samples supplied.
        actual: usize,
    },
    /// Two images that must agree in shape do not.
    ShapeMismatch {
        /// Shape of the left-hand image as `(width, height, channels)`.
        left: (usize, usize, usize),
        /// Shape of the right-hand image as `(width, height, channels)`.
        right: (usize, usize, usize),
    },
    /// An operation required a specific channel layout.
    ChannelMismatch {
        /// What the operation expected, e.g. `"grayscale"`.
        expected: &'static str,
    },
    /// A filter or kernel parameter was invalid (zero-sized window, even
    /// window where odd is required, …).
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        message: String,
    },
    /// A codec failed to parse its input.
    Decode {
        /// Human-readable description of the parse failure.
        message: String,
    },
    /// The input is a recognised format (or feature of one) that this
    /// crate deliberately does not decode — e.g. 16-bit PNG, progressive
    /// JPEG, or bytes whose magic matches no codec at all. Distinct from
    /// [`ImagingError::Decode`] so callers can surface "we don't speak
    /// this" (HTTP 422 `unsupported-format`) separately from "this file
    /// is broken".
    Unsupported {
        /// Human-readable description of the unsupported input.
        message: String,
    },
    /// An underlying I/O operation failed.
    Io(std::io::Error),
}

impl fmt::Display for ImagingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDimensions { width, height } => {
                write!(f, "invalid image dimensions {width}x{height}")
            }
            Self::BufferSizeMismatch { expected, actual } => {
                write!(f, "sample buffer holds {actual} values but {expected} were expected")
            }
            Self::ShapeMismatch { left, right } => write!(
                f,
                "image shapes differ: {}x{}x{} vs {}x{}x{}",
                left.0, left.1, left.2, right.0, right.1, right.2
            ),
            Self::ChannelMismatch { expected } => {
                write!(f, "operation requires a {expected} image")
            }
            Self::InvalidParameter { message } => write!(f, "invalid parameter: {message}"),
            Self::Decode { message } => write!(f, "decode error: {message}"),
            Self::Unsupported { message } => write!(f, "unsupported format: {message}"),
            Self::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for ImagingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImagingError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<ImagingError> = vec![
            ImagingError::InvalidDimensions { width: 0, height: 3 },
            ImagingError::BufferSizeMismatch { expected: 4, actual: 2 },
            ImagingError::ShapeMismatch { left: (1, 2, 1), right: (2, 1, 3) },
            ImagingError::ChannelMismatch { expected: "grayscale" },
            ImagingError::InvalidParameter { message: "window size 0".into() },
            ImagingError::Decode { message: "bad magic".into() },
            ImagingError::Unsupported { message: "16-bit png".into() },
            ImagingError::Io(std::io::Error::other("boom")),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn io_error_source_is_preserved() {
        let err = ImagingError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn non_io_variants_have_no_source() {
        let err = ImagingError::ChannelMismatch { expected: "grayscale" };
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImagingError>();
    }
}
