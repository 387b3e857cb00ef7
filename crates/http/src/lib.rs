//! # threegol-http
//!
//! A minimal asynchronous HTTP/1.1 implementation for the 3GOL live
//! prototype (`threegol-proxy`), built directly on tokio's async I/O
//! traits — no external HTTP stack.
//!
//! The paper's applications are plain HTTP (§4.1): the VoD client
//! issues one GET per HLS segment, the uploader issues multipart POST
//! requests, and the device component pipes requests from the Wi-Fi
//! side to the 3G side. This crate provides exactly that subset,
//! implemented carefully:
//!
//! * request/response parsing with incremental buffered reads,
//!   case-insensitive headers and `Content-Length` bodies (the only
//!   framing the prototype's peers use; `Transfer-Encoding` and
//!   close-delimited bodies are refused);
//! * serialization of requests and responses;
//! * `multipart/form-data` encoding/decoding for photo uploads.
//!
//! Hard limits guard against malformed peers: 64 KiB heads, 256 MiB
//! bodies.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod headers;
pub mod multipart;
mod search;

pub use codec::{Body, BodyFraming, HttpStream, Request, RequestHead, Response, ResponseHead};
pub use error::HttpError;
pub use headers::Headers;
pub use multipart::{encode_multipart, parse_multipart, Part};

/// Maximum accepted header block, bytes.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Maximum accepted body, bytes.
pub(crate) const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;
