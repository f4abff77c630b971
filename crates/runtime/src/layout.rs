//! Region-layout metadata, persisted as a reserved record of its epoch
//! (`META_RECORD`) so restore can rebuild the protected buffers of a fresh
//! process and refill them. Integrity, redundancy and retirement are the
//! epoch's: the layout has no storage life of its own.
//!
//! Format: one line per buffer, `name base_page pages len_bytes`, with names
//! percent-escaped for whitespace. Hand-rolled (it is four fields) to avoid
//! a serde dependency.

use std::io;

/// One protected buffer's placement in the global page-id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferLayout {
    /// User-assigned name ("" if anonymous).
    pub name: String,
    /// First global page id.
    pub base_page: u64,
    /// Page count.
    pub pages: u64,
    /// Exact requested byte length (≤ pages * page_size).
    pub len_bytes: u64,
}

fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            // Non-ASCII bytes must be escaped too: pushing them as `char`
            // would re-encode each UTF-8 continuation byte as a two-byte
            // sequence, corrupting any non-ASCII name on round-trip.
            b' ' | b'%' | b'\n' | b'\r' | b'\t' | 0x80.. => out.push_str(&format!("%{b:02X}")),
            _ => out.push(b as char),
        }
    }
    out
}

fn unescape(s: &str) -> io::Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 > bytes.len() {
                return Err(bad("truncated escape"));
            }
            let hex = s.get(i + 1..i + 3).ok_or_else(|| bad("truncated escape"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| bad("bad escape digits"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| bad("layout name not UTF-8"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("layout record: {msg}"))
}

/// Serialise a layout list.
pub fn encode(buffers: &[BufferLayout]) -> Vec<u8> {
    let mut out = String::new();
    for b in buffers {
        out.push_str(&format!(
            "{} {} {} {}\n",
            escape(&b.name),
            b.base_page,
            b.pages,
            b.len_bytes
        ));
    }
    out.into_bytes()
}

/// Parse a layout list.
pub fn decode(data: &[u8]) -> io::Result<Vec<BufferLayout>> {
    let text = std::str::from_utf8(data).map_err(|_| bad("not UTF-8"))?;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(' ');
        let name = unescape(parts.next().ok_or_else(|| bad("missing name"))?)?;
        let parse = |p: Option<&str>, what: &str| -> io::Result<u64> {
            p.ok_or_else(|| bad(what))?
                .parse::<u64>()
                .map_err(|_| bad(what))
        };
        let base_page = parse(parts.next(), "missing/invalid base_page")?;
        let pages = parse(parts.next(), "missing/invalid pages")?;
        let len_bytes = parse(parts.next(), "missing/invalid len_bytes")?;
        if parts.next().is_some() {
            return Err(bad("trailing fields"));
        }
        out.push(BufferLayout {
            name,
            base_page,
            pages,
            len_bytes,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_including_odd_names() {
        let layouts = vec![
            BufferLayout {
                name: "grid".into(),
                base_page: 0,
                pages: 64,
                len_bytes: 262144,
            },
            BufferLayout {
                name: "my buffer %1\n".into(),
                base_page: 64,
                pages: 1,
                len_bytes: 17,
            },
            BufferLayout {
                name: String::new(),
                base_page: 65,
                pages: 2,
                len_bytes: 8192,
            },
        ];
        let enc = encode(&layouts);
        assert_eq!(decode(&enc).unwrap(), layouts);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"name only-two\n").is_err());
        assert!(decode(b"n 1 2 notanumber\n").is_err());
        assert!(decode(b"n 1 2 3 4\n").is_err(), "trailing fields");
        assert!(decode(&[0xFF, 0xFE]).is_err(), "not UTF-8");
    }

    #[test]
    fn empty_is_fine() {
        assert!(decode(b"").unwrap().is_empty());
        assert!(decode(b"\n\n").unwrap().is_empty());
    }

    #[test]
    fn non_ascii_names_round_trip() {
        for name in ["höhe", "网格", "δx", "état-😀", "mixé %\n网"] {
            let layouts = vec![BufferLayout {
                name: name.into(),
                base_page: 1,
                pages: 2,
                len_bytes: 3,
            }];
            let enc = encode(&layouts);
            assert!(
                enc.iter().all(u8::is_ascii),
                "escaped layout line must be pure ASCII for {name:?}"
            );
            assert_eq!(decode(&enc).unwrap(), layouts, "round-trip of {name:?}");
        }
    }

    /// Property test over arbitrary UTF-8 names, driven by a hand-rolled
    /// xorshift PRNG (no proptest dependency): every valid name must
    /// round-trip byte-identically through encode/decode.
    #[test]
    fn arbitrary_utf8_names_round_trip() {
        let mut state = 0x243F_6A88_85A3_08D3u64; // fixed seed: deterministic
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let len = (next() % 24) as usize;
            let name: String = (0..len)
                .map(|_| {
                    // Bias towards interesting code points: ASCII (incl. the
                    // escaped set), Latin-1, CJK, and astral-plane emoji.
                    match next() % 4 {
                        0 => char::from((next() % 0x80) as u8).to_string(),
                        1 => char::from_u32(0xA0 + (next() % 0x60) as u32)
                            .unwrap()
                            .to_string(),
                        2 => char::from_u32(0x4E00 + (next() % 0x100) as u32)
                            .unwrap()
                            .to_string(),
                        _ => char::from_u32(0x1F600 + (next() % 0x50) as u32)
                            .unwrap()
                            .to_string(),
                    }
                })
                .collect();
            let layouts = vec![BufferLayout {
                name: name.clone(),
                base_page: next(),
                pages: next(),
                len_bytes: next(),
            }];
            let enc = encode(&layouts);
            assert_eq!(
                decode(&enc).unwrap(),
                layouts,
                "case {case}: name {name:?} must survive the round-trip"
            );
        }
    }
}
