//! The kernel file types DIO's enrichment distinguishes.

use serde::{Deserialize, Serialize};

/// The type of the file targeted by a syscall, as recovered from the inode.
///
/// DIO's enrichment step attaches this to every event that resolves to an
/// inode, "enabling differentiating accesses to regular files, directories,
/// sockets, block/char devices, pipes, symbolic links, and other files" (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FileType {
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
    /// A socket.
    Socket,
    /// A block device.
    BlockDevice,
    /// A character device.
    CharDevice,
    /// A FIFO / pipe.
    Pipe,
    /// A symbolic link.
    Symlink,
    /// Anything the kernel could not classify.
    Unknown,
}

impl FileType {
    /// Every file type.
    pub const ALL: [FileType; 8] = [
        FileType::Regular,
        FileType::Directory,
        FileType::Socket,
        FileType::BlockDevice,
        FileType::CharDevice,
        FileType::Pipe,
        FileType::Symlink,
        FileType::Unknown,
    ];

    /// The type a document's `file_type` field names ([`Self::name`] read
    /// back).
    pub fn from_name(name: &str) -> Option<FileType> {
        Self::ALL.into_iter().find(|t| t.name() == name)
    }

    /// Short, `ls -l`-style single character for tabular output.
    pub fn symbol(self) -> char {
        match self {
            FileType::Regular => '-',
            FileType::Directory => 'd',
            FileType::Socket => 's',
            FileType::BlockDevice => 'b',
            FileType::CharDevice => 'c',
            FileType::Pipe => 'p',
            FileType::Symlink => 'l',
            FileType::Unknown => '?',
        }
    }

    /// The name stored in the `file_type` field of backend documents.
    pub fn name(self) -> &'static str {
        match self {
            FileType::Regular => "regular",
            FileType::Directory => "directory",
            FileType::Socket => "socket",
            FileType::BlockDevice => "block_device",
            FileType::CharDevice => "char_device",
            FileType::Pipe => "pipe",
            FileType::Symlink => "symlink",
            FileType::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for FileType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in FileType::ALL {
            assert!(seen.insert(t.symbol()));
            assert_eq!(FileType::from_name(t.name()), Some(t));
        }
        assert_eq!(FileType::from_name("Regular"), None);
    }

    #[test]
    fn serde_snake_case() {
        assert_eq!(serde_json::to_string(&FileType::BlockDevice).unwrap(), "\"block_device\"");
    }
}
