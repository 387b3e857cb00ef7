//! Case-insensitive HTTP header map (order-preserving).

/// An ordered, case-insensitive header collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Append a header (does not replace existing values).
    pub fn add(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replace all values of `name` with one `value`.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.push((name.to_string(), value.into()));
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Remove all values of `name`.
    pub fn remove(&mut self, name: &str) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }

    /// `Content-Length`, parsed.
    pub fn content_length(&self) -> Option<usize> {
        self.get("content-length").and_then(|v| v.trim().parse().ok())
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = Headers::new();
        h.add("Content-Type", "text/plain");
        assert_eq!(h.get("content-type"), Some("text/plain"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn set_replaces_add_appends() {
        let mut h = Headers::new();
        h.add("X-A", "1");
        h.add("x-a", "2");
        assert_eq!(h.len(), 2);
        h.set("X-A", "3");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x-a"), Some("3"));
        h.remove("x-a");
        assert!(h.is_empty());
    }

    #[test]
    fn content_length_and_chunked() {
        let mut h = Headers::new();
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        h.set("Content-Length", "nope");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn iteration_preserves_order() {
        let mut h = Headers::new();
        h.add("A", "1");
        h.add("B", "2");
        let v: Vec<(&str, &str)> = h.iter().collect();
        assert_eq!(v, vec![("A", "1"), ("B", "2")]);
    }
}
