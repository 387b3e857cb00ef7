//! `multipart/form-data` encoding and decoding (RFC 7578 subset).
//!
//! The paper's uplink application mirrors the native Facebook / Flickr
//! / Picasa clients: "all native clients of the aforementioned
//! applications use multipart HTTP POST requests to upload the
//! pictures" (§4.1). The 3GOL uploader builds one multipart POST per
//! photo and the scheduler spreads the POSTs over the paths.

use bytes::{Bytes, BytesMut};

use crate::error::HttpError;
use crate::search::find;

/// One part of a multipart body.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Form field name.
    pub name: String,
    /// Attached filename, if any.
    pub filename: Option<String>,
    /// Content type of the part.
    pub content_type: String,
    /// Payload.
    pub data: Bytes,
}

impl Part {
    /// A JPEG photo part, as the paper's photo uploader produces.
    pub fn photo(name: impl Into<String>, filename: impl Into<String>, data: Bytes) -> Part {
        Part {
            name: name.into(),
            filename: Some(filename.into()),
            content_type: "image/jpeg".into(),
            data,
        }
    }
}

/// Encode parts into a multipart/form-data body with `boundary`. The
/// body is allocated once, at its exact length.
pub fn encode_multipart(parts: &[Part], boundary: &str) -> Bytes {
    let heads: Vec<String> = parts.iter().map(|part| part_head(part, boundary)).collect();
    let close = format!("--{boundary}--\r\n");
    let parts_len: usize =
        heads.iter().zip(parts).map(|(head, part)| head.len() + part.data.len() + 2).sum();
    let mut out = BytesMut::with_capacity(parts_len + close.len());
    for (head, part) in heads.iter().zip(parts) {
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&part.data);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(close.as_bytes());
    out.freeze()
}

/// A part's delimiter line and headers, through the blank line.
fn part_head(part: &Part, boundary: &str) -> String {
    let filename = match &part.filename {
        Some(f) => format!("; filename=\"{f}\""),
        None => String::new(),
    };
    format!(
        "--{boundary}\r\nContent-Disposition: form-data; name=\"{}\"{filename}\r\nContent-Type: {}\r\n\r\n",
        part.name, part.content_type
    )
}

/// The `Content-Type` header value for a multipart body.
pub fn multipart_content_type(boundary: &str) -> String {
    format!("multipart/form-data; boundary={boundary}")
}

/// Extract the boundary from a `Content-Type` header value.
pub fn boundary_from_content_type(value: &str) -> Option<&str> {
    value
        .split(';')
        .map(str::trim)
        .find_map(|attr| attr.strip_prefix("boundary="))
        .map(|b| b.trim_matches('"'))
}

/// Decode a multipart/form-data body. Each part's `data` is a
/// zero-copy slice of `body`.
pub fn parse_multipart(body: &Bytes, boundary: &str) -> Result<Vec<Part>, HttpError> {
    let delim = format!("--{boundary}");
    // Part data runs to the next delimiter preceded by CRLF.
    let marker = format!("\r\n{delim}");
    let mut parts = Vec::new();

    // Skip any preamble up to the first delimiter.
    let first = find(body, delim.as_bytes())
        .ok_or_else(|| HttpError::BadMultipart("missing first boundary".into()))?;
    // Offset of the unparsed rest of `body`.
    let mut at = first + delim.len();

    loop {
        let rest = &body[at..];
        if rest.starts_with(b"--") {
            return Ok(parts); // closing delimiter
        }
        let rest = strip_crlf(rest)?;
        at += 2;
        // Part headers.
        let head_end = find(rest, b"\r\n\r\n")
            .ok_or_else(|| HttpError::BadMultipart("missing part header end".into()))?;
        let head = std::str::from_utf8(&rest[..head_end])
            .map_err(|_| HttpError::BadMultipart("non-UTF-8 part headers".into()))?;
        let mut name = String::new();
        let mut filename = None;
        let mut content_type = "application/octet-stream".to_string();
        for line in head.split("\r\n") {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("content-disposition:") {
                for attr in line.split(';').map(str::trim) {
                    if let Some(v) = attr.strip_prefix("name=") {
                        name = v.trim_matches('"').to_string();
                    } else if let Some(v) = attr.strip_prefix("filename=") {
                        filename = Some(v.trim_matches('"').to_string());
                    }
                }
            } else if let Some(v) = lower.strip_prefix("content-type:") {
                content_type = v.trim().to_string();
                // Preserve original casing of the value.
                if let Some(orig) = line.split_once(':').map(|(_, v)| v.trim()) {
                    content_type = orig.to_string();
                }
            }
        }
        at += head_end + 4;
        let data_end = find(&body[at..], marker.as_bytes())
            .ok_or_else(|| HttpError::BadMultipart("unterminated part".into()))?;
        parts.push(Part { name, filename, content_type, data: body.slice(at..at + data_end) });
        at += data_end + marker.len();
    }
}

fn strip_crlf(buf: &[u8]) -> Result<&[u8], HttpError> {
    buf.strip_prefix(b"\r\n")
        .ok_or_else(|| HttpError::BadMultipart("missing CRLF after boundary".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_photo() {
        let part = Part::photo("file", "IMG_0001.jpg", Bytes::from(vec![0xFFu8; 5000]));
        let body = encode_multipart(std::slice::from_ref(&part), "XyZ123");
        let parsed = parse_multipart(&body, "XyZ123").unwrap();
        assert_eq!(parsed, vec![part]);
    }

    #[test]
    fn round_trip_multiple_parts() {
        let parts = vec![
            Part::photo("file1", "a.jpg", Bytes::from_static(b"aaa")),
            Part {
                name: "caption".into(),
                filename: None,
                content_type: "text/plain".into(),
                data: Bytes::from_static(b"holiday"),
            },
            Part::photo("file2", "b.jpg", Bytes::from_static(b"bbbb")),
        ];
        let body = encode_multipart(&parts, "bnd");
        assert_eq!(
            std::str::from_utf8(&body).unwrap(),
            concat!(
                "--bnd\r\nContent-Disposition: form-data; name=\"file1\"; filename=\"a.jpg\"\r\n",
                "Content-Type: image/jpeg\r\n\r\naaa\r\n",
                "--bnd\r\nContent-Disposition: form-data; name=\"caption\"\r\n",
                "Content-Type: text/plain\r\n\r\nholiday\r\n",
                "--bnd\r\nContent-Disposition: form-data; name=\"file2\"; filename=\"b.jpg\"\r\n",
                "Content-Type: image/jpeg\r\n\r\nbbbb\r\n",
                "--bnd--\r\n",
            )
        );
        let parsed = parse_multipart(&body, "bnd").unwrap();
        assert_eq!(parsed, parts);
    }

    #[test]
    fn binary_data_with_crlf_survives() {
        // Data containing CRLF and dashes must not confuse the parser
        // (only CRLF + boundary terminates a part).
        let data = Bytes::from_static(b"line1\r\nline2--almost\r\n--but-not");
        let part = Part::photo("f", "x.bin", data);
        let body = encode_multipart(std::slice::from_ref(&part), "q9q9q9");
        let parsed = parse_multipart(&body, "q9q9q9").unwrap();
        assert_eq!(parsed[0].data, part.data);
    }

    #[test]
    fn parts_share_the_body_storage() {
        let part = Part::photo("f", "x.jpg", Bytes::from(vec![7u8; 3000]));
        let body = encode_multipart(std::slice::from_ref(&part), "zc");
        let parsed = parse_multipart(&body, "zc").unwrap();
        let span = body.as_ptr_range();
        assert!(span.contains(&parsed[0].data.as_ptr()), "part data was copied out of the body");
        assert_eq!(parsed[0].data, part.data);
    }

    #[test]
    fn content_type_helpers() {
        let ct = multipart_content_type("abc");
        assert_eq!(ct, "multipart/form-data; boundary=abc");
        assert_eq!(boundary_from_content_type(&ct), Some("abc"));
        assert_eq!(boundary_from_content_type("multipart/form-data; boundary=\"q\""), Some("q"));
        assert_eq!(boundary_from_content_type("text/plain"), None);
    }

    #[test]
    fn malformed_bodies_rejected() {
        assert!(matches!(
            parse_multipart(&Bytes::from_static(b"no boundary here"), "b"),
            Err(HttpError::BadMultipart(_))
        ));
        assert!(matches!(
            parse_multipart(
                &Bytes::from_static(
                    b"--b\r\nContent-Disposition: form-data; name=\"x\"\r\n\r\ndata-without-end"
                ),
                "b"
            ),
            Err(HttpError::BadMultipart(_))
        ));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary binary payloads survive the multipart round
            /// trip (the photo uploader carries raw JPEG bytes).
            #[test]
            fn arbitrary_payloads_round_trip(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..2000),
                    1..5,
                ),
            ) {
                let parts: Vec<Part> = payloads
                    .into_iter()
                    .enumerate()
                    .map(|(i, data)| Part::photo(
                        format!("file{i}"),
                        format!("IMG_{i:04}.jpg"),
                        Bytes::from(data),
                    ))
                    .collect();
                let body = encode_multipart(&parts, "prop-boundary-91x");
                let parsed = parse_multipart(&body, "prop-boundary-91x").unwrap();
                prop_assert_eq!(parsed, parts);
            }
        }
    }

    #[test]
    fn empty_part_list() {
        let body = encode_multipart(&[], "b");
        let parsed = parse_multipart(&body, "b").unwrap();
        assert!(parsed.is_empty());
    }
}
