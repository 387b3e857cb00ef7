//! Substring search for the codec's delimiters and the multipart
//! boundary scan: one Horspool (bad-character skip) search.
//!
//! Each probe compares the haystack byte under the needle's last
//! position; on a mismatch the window jumps by how far that byte sits
//! from the needle's end, or by the whole needle when it does not
//! occur in it. On the 26-byte `\r\n--boundary` marker over photo
//! bytes that is about one probe per twenty bytes; on the codec's
//! `\r\n\r\n` header terminator it still skips four bytes at a time
//! through header text.

/// First occurrence of `needle` in `haystack`; `None` for an empty
/// needle.
pub(crate) fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&end, body) = needle.split_last()?;
    let last = body.len();
    // Shifts above 255 are capped: a shorter shift is always safe.
    let mut skip = [needle.len().min(255) as u8; 256];
    for (i, &b) in body.iter().enumerate() {
        skip[b as usize] = (last - i).min(255) as u8;
    }
    let mut pos = 0;
    while let Some(&probe) = haystack.get(pos + last) {
        if probe == end && haystack[pos..pos + last] == *body {
            return Some(pos);
        }
        pos += skip[probe as usize] as usize;
    }
    None
}

/// Incremental delimiter search: resume at `scanned` minus a
/// `needle.len() - 1` overlap, so bytes already examined are not
/// rescanned when more arrive.
pub(crate) fn find_from(haystack: &[u8], scanned: usize, needle: &[u8]) -> Option<usize> {
    let start = scanned.saturating_sub(needle.len() - 1);
    find(&haystack[start..], needle).map(|pos| pos + start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: compare a window at every offset.
    fn naive(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }

    #[test]
    fn edge_positions() {
        assert_eq!(find(b"abc", b""), None);
        assert_eq!(find(b"", b"a"), None);
        assert_eq!(find(b"ab", b"abc"), None);
        assert_eq!(find(b"abc", b"abc"), Some(0));
        assert_eq!(find(b"abcab", b"ab"), Some(0));
        assert_eq!(find(b"xxab", b"ab"), Some(2));
        assert_eq!(find(b"aab", b"ab"), Some(1));
        // Shifts capped at 255 stay correct past that needle length.
        let needle: Vec<u8> = (0..300).map(|i| (i % 7) as u8 + b'a').collect();
        let mut haystack = vec![b'z'; 1000];
        haystack[600..900].copy_from_slice(&needle);
        assert_eq!(find(&haystack, &needle), Some(600));
        assert_eq!(find(&haystack[..899], &needle), None);
    }

    #[test]
    fn resume_overlap_finds_a_split_delimiter() {
        // `\r\n\r\n` arrives split across two reads: the first scan saw
        // 7 bytes, the resumed one must still find the terminator at 5.
        let buf = b"GET /\r\n\r\nbody";
        assert_eq!(find_from(&buf[..7], 0, b"\r\n\r\n"), None);
        assert_eq!(find_from(buf, 7, b"\r\n\r\n"), Some(5));
        assert_eq!(find_from(buf, 0, b"\r\n\r\n"), Some(5));
    }

    /// Needles and haystacks over `a`, `b`, `c`, so exact matches and
    /// near-misses (a wrong byte anywhere in the window) are dense.
    fn abc(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0u8..3).prop_map(|x| b'a' + x), len)
    }

    proptest! {
        #[test]
        fn matches_the_window_scan(haystack in abc(0..200), needle in abc(1..31)) {
            prop_assert_eq!(find(&haystack, &needle), naive(&haystack, &needle));
        }

        /// A needle cut from the haystack itself, at any offset
        /// including 0 and the very end, is always found first where
        /// the window scan finds it.
        #[test]
        fn finds_planted_needles(
            haystack in abc(1..200),
            start in 0usize..200,
            len in 1usize..31,
        ) {
            let start = start % haystack.len();
            let needle = &haystack[start..(start + len).min(haystack.len())];
            let found = find(&haystack, needle);
            prop_assert!(found.is_some_and(|pos| pos <= start));
            prop_assert_eq!(found, naive(&haystack, needle));
            let tail = &haystack[haystack.len() - needle.len()..];
            prop_assert_eq!(find(&haystack, tail), naive(&haystack, tail));
        }

        /// A first pass that stopped anywhere inside the first match
        /// saw nothing; resuming from there must still find the match,
        /// however far it straddles the resume point.
        #[test]
        fn resume_finds_a_straddling_match(
            prefix in abc(0..100),
            needle in abc(1..31),
            suffix in abc(0..40),
            cut in 0usize..30,
        ) {
            let haystack = [&prefix[..], &needle[..], &suffix[..]].concat();
            let first = naive(&haystack, &needle).unwrap();
            let scanned = first + cut % needle.len();
            prop_assert_eq!(find(&haystack[..scanned], &needle), None);
            prop_assert_eq!(find_from(&haystack, scanned, &needle), Some(first));
        }
    }
}
