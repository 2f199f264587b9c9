//! Memory-mapped index loading.
//!
//! A bundle keeps its big arrays at page-aligned file offsets so the
//! whole file can be `mmap`ed read-only and consumed in place: the
//! packed reference, flat suffix array and one-hot occurrence blocks
//! (bwa-mem2's `CP_OCC` layout) are then
//! demand-paged by the kernel and *shared between processes* mapping
//! the same file — the paper-scale deployment story (a human-genome
//! index is tens of GB; per-process heap copies don't multiply).
//!
//! The container this repo builds in has no `libc` crate, so the
//! syscalls are declared directly against the platform C library
//! (`mmap`/`munmap` are part of every unix libc ABI). Mapping is
//! compiled on unix targets only; everywhere else — and whenever
//! mapping fails — loading falls back to a buffered read into a
//! page-aligned heap buffer ([`read_file_aligned`]), which serves the
//! identical `ByteRegion` view, just without page sharing.

use std::fs::File;
use std::io::{self, Read};

use mem2_seqio::AlignedBytes;

/// Read a whole file into a page-aligned heap buffer — the buffered
/// fallback loader. Typed views over page-aligned bundle sections work
/// identically to the mapped path.
pub fn read_file_aligned(path: &std::path::Path) -> io::Result<AlignedBytes> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len() as usize;
    let mut buf = AlignedBytes::zeroed(len);
    f.read_exact(buf.as_mut_slice())?;
    Ok(buf)
}

#[cfg(unix)]
mod sys {
    use super::*;
    use std::ops::Deref;
    use std::os::fd::AsRawFd;

    // Declared against the platform C library directly (the offline
    // build environment has no `libc` crate). Constants are the
    // Linux/macOS common subset we use: PROT_READ / MAP_PRIVATE.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: core::ffi::c_int,
            flags: core::ffi::c_int,
            fd: core::ffi::c_int,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> core::ffi::c_int;
    }

    const PROT_READ: core::ffi::c_int = 1;
    const MAP_PRIVATE: core::ffi::c_int = 2;

    /// A read-only private mapping of a whole file. Unmapped on drop.
    pub struct MmapFile {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // Safety: the mapping is read-only (PROT_READ) and private; the
    // bytes never change under us and carry no thread affinity.
    unsafe impl Send for MmapFile {}
    unsafe impl Sync for MmapFile {}

    impl MmapFile {
        /// Map `path` read-only. Zero-length files cannot be mapped
        /// (POSIX forbids `len == 0`); the caller falls back to the
        /// buffered loader, which handles them.
        pub fn open(path: &std::path::Path) -> io::Result<MmapFile> {
            let f = File::open(path)?;
            let len = f.metadata()?.len() as usize;
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot mmap an empty file",
                ));
            }
            // Safety: valid fd, len > 0; a failed map returns MAP_FAILED,
            // checked below. The fd may be closed after mmap returns —
            // the mapping keeps its own reference to the file.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    f.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapFile { ptr, len })
        }
    }

    impl Deref for MmapFile {
        type Target = [u8];

        fn deref(&self) -> &[u8] {
            // Safety: ptr/len describe a live read-only mapping.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for MmapFile {
        fn drop(&mut self) {
            // Safety: exactly the region mmap returned; errors on unmap
            // are unrecoverable and ignored (the standard idiom).
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    impl std::fmt::Debug for MmapFile {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MmapFile").field("len", &self.len).finish()
        }
    }
}

#[cfg(unix)]
pub use sys::MmapFile;

/// True when this build can memory-map index files at all.
pub const fn mmap_supported() -> bool {
    cfg!(unix)
}

/// Map a file when the platform supports it; `None` signals the caller
/// to use [`read_file_aligned`] instead. I/O errors other than the
/// empty-file case are returned, not swallowed — a missing index file
/// should not silently "fall back".
#[cfg(unix)]
pub fn try_map_file(path: &std::path::Path) -> io::Result<Option<MmapFile>> {
    match MmapFile::open(path) {
        Ok(m) => Ok(Some(m)),
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(None),
        Err(e) => Err(e),
    }
}

/// Non-unix stub: mapping is never available.
#[cfg(not(unix))]
pub fn try_map_file(_path: &std::path::Path) -> io::Result<Option<std::convert::Infallible>> {
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_seqio::PAGE_ALIGN;

    #[test]
    fn aligned_read_roundtrips() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mem2_mmap_test_{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..10_000u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &payload).expect("write");
        let buf = read_file_aligned(&path).expect("read");
        assert_eq!(&*buf, &payload[..]);
        assert_eq!(buf.as_ptr() as usize % PAGE_ALIGN, 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mapped_file_matches_buffered_read() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mem2_mmap_test_map_{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..65_000u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &payload).expect("write");
        let mapped = try_map_file(&path).expect("io").expect("mappable");
        assert_eq!(&*mapped, &payload[..]);
        // page-aligned by construction: mmap returns page boundaries
        assert_eq!(mapped.as_ptr() as usize % PAGE_ALIGN, 0);
        let buffered = read_file_aligned(&path).expect("read");
        assert_eq!(&*mapped, &*buffered);
        std::fs::remove_file(&path).ok();

        // an empty file signals fallback rather than erroring
        let empty = dir.join(format!("mem2_mmap_test_empty_{}.bin", std::process::id()));
        std::fs::write(&empty, b"").expect("write");
        assert!(try_map_file(&empty).expect("io").is_none());
        std::fs::remove_file(&empty).ok();

        // a missing file is a real error, not a silent fallback
        assert!(try_map_file(&dir.join("mem2_definitely_missing.idx")).is_err());
    }
}
