//! The file tag used to uniquely identify the file behind a descriptor.

use serde::{Deserialize, Serialize};

/// A unique identity for the file accessed by a syscall.
///
/// DIO labels syscalls that handle file descriptors with "a tag containing
/// the device number, inode number, and first file access timestamp that
/// uniquely identify the file being accessed" (§II-B). The timestamp
/// distinguishes *reuse generations* of the same inode number: in Fig. 2 the
/// two `app.log` files share `dev|ino = 7340032|12` but carry different
/// first-access timestamps.
///
/// # Examples
///
/// ```
/// use dio_syscall::FileTag;
///
/// let tag = FileTag::new(7_340_032, 12, 2_156_997_363_734_041);
/// assert_eq!(tag.to_string(), "7340032|12|2156997363734041");
/// assert_eq!("7340032|12|2156997363734041".parse::<FileTag>().unwrap(), tag);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileTag {
    /// Device number hosting the inode.
    pub dev: u64,
    /// Inode number.
    pub ino: u64,
    /// Timestamp (ns) of the first access to this inode generation.
    pub first_access_ns: u64,
}

impl FileTag {
    /// Creates a tag from its three components.
    pub fn new(dev: u64, ino: u64, first_access_ns: u64) -> Self {
        FileTag { dev, ino, first_access_ns }
    }

    /// The tag as documents spell it, `dev|ino|first_access_ns`, without a
    /// heap allocation.
    pub fn text(self) -> TagText {
        let mut text = TagText { bytes: [0; TagText::MAX], len: 0 };
        for (i, part) in [self.dev, self.ino, self.first_access_ns].into_iter().enumerate() {
            if i > 0 {
                text.push(b"|");
            }
            text.push(decimal(part, &mut [0; 20]));
        }
        text
    }
}

impl std::fmt::Display for FileTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text())
    }
}

/// A [`FileTag`] rendered (`dev|ino|first_access_ns`) — or one number in
/// decimal — and held inline; it dereferences to the string.
#[derive(Clone, Copy)]
pub struct TagText {
    bytes: [u8; Self::MAX],
    len: u8,
}

impl TagText {
    /// Three 20-digit numbers and two bars.
    const MAX: usize = 62;

    /// `v` in decimal.
    pub(crate) fn decimal(v: u64) -> TagText {
        let mut text = TagText { bytes: [0; TagText::MAX], len: 0 };
        text.push(decimal(v, &mut [0; 20]));
        text
    }

    fn push(&mut self, part: &[u8]) {
        let len = usize::from(self.len);
        self.bytes[len..len + part.len()].copy_from_slice(part);
        self.len += part.len() as u8;
    }
}

impl std::ops::Deref for TagText {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("digits and bars")
    }
}

impl std::fmt::Debug for TagText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The decimal digits of `v`, written at the end of `buf`.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
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

/// Error returned when parsing a malformed file tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFileTagError(String);

impl std::fmt::Display for ParseFileTagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid file tag `{}` (expected dev|ino|timestamp)", self.0)
    }
}

impl std::error::Error for ParseFileTagError {}

impl std::str::FromStr for FileTag {
    type Err = ParseFileTagError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('|');
        let err = || ParseFileTagError(s.to_string());
        let dev = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let ino = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let ts = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(FileTag { dev, ino, first_access_ns: ts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = FileTag::new(1, 2, 3);
        assert_eq!(t.to_string().parse::<FileTag>().unwrap(), t);
    }

    #[test]
    fn text_is_the_display_form_at_every_width() {
        for tag in [
            FileTag::new(0, 0, 0),
            FileTag::new(7340032, 12, 42),
            FileTag::new(u64::MAX, u64::MAX, u64::MAX),
        ] {
            assert_eq!(&*tag.text(), format!("{}|{}|{}", tag.dev, tag.ino, tag.first_access_ns));
            assert_eq!(tag.to_string(), &*tag.text());
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("1|2".parse::<FileTag>().is_err());
        assert!("1|2|3|4".parse::<FileTag>().is_err());
        assert!("a|2|3".parse::<FileTag>().is_err());
        assert!("".parse::<FileTag>().is_err());
    }

    #[test]
    fn generations_differ_by_timestamp() {
        let g1 = FileTag::new(7340032, 12, 100);
        let g2 = FileTag::new(7340032, 12, 200);
        assert_ne!(g1, g2);
        assert_eq!(g1.dev, g2.dev);
        assert_eq!(g1.ino, g2.ino);
    }
}
