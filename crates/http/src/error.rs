//! HTTP error type.

use std::fmt;

/// Errors produced while reading or writing HTTP messages.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying transport error.
    Io(std::io::Error),
    /// The peer closed the connection mid-message.
    UnexpectedEof,
    /// The start line or a header could not be parsed.
    Malformed(String),
    /// A head exceeded [`crate::MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// Body exceeded 256 MiB or declared an invalid length.
    BodyTooLarge,
    /// A multipart body was malformed.
    BadMultipart(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "I/O error: {e}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
            HttpError::Malformed(s) => write!(f, "malformed HTTP message: {s}"),
            HttpError::HeadersTooLarge => write!(f, "header block too large"),
            HttpError::BodyTooLarge => write!(f, "body too large or invalid length"),
            HttpError::BadMultipart(s) => write!(f, "malformed multipart body: {s}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(HttpError::UnexpectedEof.to_string().contains("closed"));
        assert!(HttpError::Malformed("x".into()).to_string().contains("x"));
        assert!(HttpError::HeadersTooLarge.to_string().contains("header"));
        let io: HttpError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        use std::error::Error;
        assert!(io.source().is_some());
        assert!(HttpError::BodyTooLarge.source().is_none());
    }
}
