//! The driver the argument-contract tests share (`args_contract.rs` here,
//! `crates/ebpf/tests/args_contract.rs` one layer up).

use dio_kernel::{Kernel, OpenFlags, Whence};
use dio_syscall::FileType;

/// Invokes every one of the 42 traced syscalls at least once.
pub fn drive_all_syscalls(kernel: &Kernel) {
    let t = kernel.spawn_process("contract").spawn_thread("contract");

    // Data class.
    let fd = t.open("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
    t.write(fd, b"hello world").unwrap();
    t.pwrite64(fd, b"xy", 0).unwrap();
    t.writev(fd, &[b"ab".as_slice(), b"cd"]).unwrap();
    t.lseek(fd, 0, Whence::Set).unwrap();
    let mut buf = [0u8; 4];
    t.read(fd, &mut buf).unwrap();
    t.pread64(fd, &mut buf, 0).unwrap();
    let (mut a, mut b) = ([0u8; 2], [0u8; 2]);
    t.readv(fd, &mut [&mut a[..], &mut b[..]]).unwrap();
    t.readahead(fd, 0, 4).unwrap();

    // Metadata class.
    let fd2 = t.creat("/c", 0o644).unwrap();
    t.close(fd2).unwrap();
    let fd3 = t.openat("/oa", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
    t.close(fd3).unwrap();
    t.truncate("/f", 8).unwrap();
    t.ftruncate(fd, 4).unwrap();
    t.fsync(fd).unwrap();
    t.fdatasync(fd).unwrap();
    kernel.root_vfs().symlink("/f", "/ln").unwrap();
    t.stat("/f").unwrap();
    t.lstat("/ln").unwrap();
    t.fstat(fd).unwrap();
    t.fstatfs(fd).unwrap();
    t.rename("/c", "/c2").unwrap();
    t.renameat("/c2", "/c3").unwrap();
    t.renameat2("/c3", "/c4", 0).unwrap();
    t.unlink("/c4").unwrap();
    t.close(t.creat("/u", 0o644).unwrap()).unwrap();
    t.unlinkat("/u", 0).unwrap();

    // Extended attributes class.
    t.setxattr("/f", "user.a", b"1").unwrap();
    t.lsetxattr("/ln", "user.b", b"2").unwrap();
    t.fsetxattr(fd, "user.c", b"3").unwrap();
    t.getxattr("/f", "user.a").unwrap();
    t.lgetxattr("/ln", "user.b").unwrap();
    t.fgetxattr(fd, "user.c").unwrap();
    t.listxattr("/f").unwrap();
    t.llistxattr("/ln").unwrap();
    t.flistxattr(fd).unwrap();
    t.removexattr("/f", "user.a").unwrap();
    t.lremovexattr("/ln", "user.b").unwrap();
    t.fremovexattr(fd, "user.c").unwrap();

    // Directory management class.
    t.mknod("/pipe", FileType::Pipe).unwrap();
    t.mknodat("/sock", FileType::Socket).unwrap();
    t.mkdir("/d", 0o755).unwrap();
    t.mkdirat("/d2", 0o755).unwrap();
    t.rmdir("/d2").unwrap();

    t.close(fd).unwrap();
}
