//! URL parsing, normalization, and site (eTLD+1) classification.
//!
//! This crate is the foundation of the `wmtree` workspace. It provides:
//!
//! * [`Url`] — a parsed absolute URL (scheme, host, port, path, query,
//!   fragment) with strict-enough parsing for measurement data, held as
//!   its serialization in one buffer with the component boundaries.
//! * [`Url::normalize_for_comparison`] — the IMC'23 paper's node-identity
//!   normalization: query parameter *values* are dropped while parameter
//!   *names* are kept (`foo.com/a.js?s_id=1234` → `foo.com/a.js?s_id=`),
//!   so that session identifiers do not make equal resources look distinct
//!   (§3.2 of the paper).
//! * [`psl`] — a public-suffix list subset and [`psl::etld_plus_one`],
//!   the registerable domain ("site") used to distinguish first- from
//!   third-party content.
//! * [`Party`] — first/third-party classification of a resource URL with
//!   respect to the visited page.
//!
//! # Example
//!
//! ```
//! use wmtree_url::{Url, Party, psl};
//!
//! let page = Url::parse("https://www.example.com/index.html").unwrap();
//! let res = Url::parse("https://cdn.tracker-net.com/pixel.gif?uid=42&v=7").unwrap();
//!
//! assert_eq!(page.site(), "example.com");
//! assert_eq!(res.site(), "tracker-net.com");
//! assert_eq!(Party::classify(&page, &res), Party::Third);
//!
//! // Node identity: values stripped, keys kept.
//! assert_eq!(
//!     res.normalize_for_comparison(),
//!     "https://cdn.tracker-net.com/pixel.gif?uid=&v="
//! );
//! assert!(psl::is_public_suffix("co.uk"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
mod origin;
mod parse;
pub mod psl;

pub use origin::{Origin, Party};
pub use parse::{parse_prefix, scheme_separator, ParseError, Url};

/// Normalize a raw URL string for cross-tree node comparison without
/// constructing a full [`Url`].
///
/// Convenience wrapper: parses and applies
/// [`Url::normalize_for_comparison`]; returns the input unchanged (minus
/// the fragment) when it does not parse as an absolute URL, which mirrors
/// the paper's best-effort analysis-phase normalization.
pub fn normalize_url_str(raw: &str) -> String {
    match parse::Parts::split(raw) {
        Ok(parts) => {
            let mut out = String::with_capacity(raw.len());
            parts.write_normalized(&mut out);
            // `Url::parse` lowercases the scheme and host, which lead.
            out[..parts.scheme.len() + "://".len() + parts.host.len()].make_ascii_lowercase();
            out
        }
        Err(_) => raw.split('#').next().unwrap_or(raw).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_str_falls_back_on_unparsable() {
        assert_eq!(normalize_url_str("not a url#frag"), "not a url");
    }

    #[test]
    fn normalize_str_parses_absolute() {
        assert_eq!(normalize_url_str("http://a.com/x?k=v"), "http://a.com/x?k=");
    }
}
