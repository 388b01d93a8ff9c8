//! The arbitrary-event generator shared by the property suites: whatever the
//! event layout can hold, from one seed.

use dio_syscall::{
    expected_args, path_arg, ArgRef, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid,
};

/// SplitMix64: one generated seed becomes as many draws as an event needs.
pub struct Draw(pub u64);

impl Draw {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Zero, small, at the top of the width, anywhere.
    pub fn number(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => self.next() % 1_000,
            2 => u64::MAX - self.next() % 3,
            _ => self.next(),
        }
    }

    /// Quotes, backslashes, control characters, multi-byte characters.
    pub fn text(&mut self) -> String {
        const ALPHABET: [char; 18] = [
            'a', 'Z', '0', '/', '.', ' ', '|', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{8}',
            '\u{1f}', '\u{7f}', 'é', '😀',
        ];
        (0..self.below(12)).map(|_| ALPHABET[self.below(ALPHABET.len())]).collect()
    }
}

/// Any event the layout can hold: every kind, any prefix of its arguments
/// with any mix of signed, unsigned and string values, every optional field
/// present or absent, `file_path` its own string or the path argument's.
pub fn arbitrary_event(seed: u64) -> SyscallEvent {
    let mut d = Draw(seed);
    let kind = SyscallKind::ALL[d.below(SyscallKind::ALL.len())];
    let mut e = SyscallEvent::synthetic(kind);
    e.session = d.text().into();
    e.comm = d.text().into();
    e.pid = Pid(d.number() as u32);
    e.tid = Tid(d.number() as u32);
    e.cpu = d.number() as u32;
    e.time_enter_ns = d.number();
    e.time_exit_ns = d.number();
    e.ret = d.number() as i64;
    for _ in 0..d.below(expected_args(kind).len() + 1) {
        let text = d.text();
        let value = match d.below(3) {
            0 => ArgRef::Int(d.number() as i64),
            1 => ArgRef::UInt(d.number()),
            _ => ArgRef::Str(&text),
        };
        if !e.args.try_push(value) {
            break;
        }
    }
    e.file_type = (d.below(2) == 0).then(|| FileType::ALL[d.below(FileType::ALL.len())]);
    e.offset = (d.below(2) == 0).then(|| d.number());
    e.file_tag = (d.below(2) == 0).then(|| FileTag::new(d.number(), d.number(), d.number()));
    e.file_path = match d.below(3) {
        0 => None,
        1 => Some(d.text().into()),
        _ => path_arg(kind).and_then(|i| e.args.str_at(i)).cloned(),
    };
    e
}
