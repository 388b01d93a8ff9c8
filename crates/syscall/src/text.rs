//! JSON text written straight into a byte buffer: byte for byte what the
//! `serde_json` stand-in's `Display` prints for the same number or string.

/// The decimal digits of `v`, written at the end of `buf`.
pub(crate) fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[at..];
        }
    }
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(decimal(v, &mut [0; 20]));
}

pub(crate) fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `s` as a JSON string literal. Runs of bytes that need no escape
/// (everything but `"`, `\` and the C0 controls; UTF-8 sequences pass
/// through) are copied whole.
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        let unicode = [b'\\', b'u', b'0', b'0', HEX[(b >> 4) as usize], HEX[(b & 15) as usize]];
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0C => b"\\f",
            _ => &unicode,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(escape);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numbers_print_as_display_does() {
        for v in [0, 7, 10, 4_096, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
        for v in [0, -1, 42, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    proptest! {
        /// Quotes, backslashes, every control character and multi-byte
        /// sequences: the same literal `Value::String` displays as.
        #[test]
        fn strings_escape_as_the_document_model_does(
            chars in proptest::collection::vec(
                prop_oneof![
                    (0u32..0x30).prop_map(|c| char::from_u32(c).expect("ASCII")),
                    any::<char>(),
                    Just('\\'),
                    Just('\u{7f}'),
                    Just('é'),
                ],
                0..24,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            let mut out = Vec::new();
            push_str(&mut out, &s);
            prop_assert_eq!(
                String::from_utf8(out).expect("UTF-8 in, UTF-8 out"),
                serde_json::Value::String(s).to_string()
            );
        }
    }
}
