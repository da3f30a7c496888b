//! FNV-1a hashing: the workspace's one stable content digest.
//!
//! Golden corpus pins, load-harness answer digests, and the streaming
//! corpus sinks all need the same property — a tiny, dependency-free
//! hash whose value is identical on every platform, forever. FNV-1a
//! over bytes is exactly that; this module is the single definition so
//! the digest a sink reports is the digest a test pins.

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a hasher for streaming writers: feed bytes as they
/// are produced and read the digest at the end. `fnv1a(all_bytes)` and
/// any sequence of [`Fnv1a::update`] calls covering the same bytes
/// yield the same value.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Absorbs formatted text, so `write!(h, "{value}")` hashes exactly the
/// bytes `value.to_string()` would hold without building that string.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"streaming corpus digest bytes";
        let mut h = Fnv1a::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a(data));
    }

    #[test]
    fn formatted_writes_hash_the_display_bytes() {
        use std::fmt::{self, Write as _};
        // A value whose `Display` emits many pieces, as a query does.
        struct Query;
        impl fmt::Display for Query {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("SELECT ")?;
                for (i, col) in ["name", "age"].iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{col}")?;
                }
                write!(f, " FROM t WHERE age > {} AND x = {:.1}", 42, 0.5)
            }
        }
        let q = Query;
        let mut h = Fnv1a::new();
        write!(h, "{q}").unwrap();
        assert_eq!(h.finish(), fnv1a(q.to_string().as_bytes()));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(fnv1a(b"pair-1"), fnv1a(b"pair-2"));
    }
}
