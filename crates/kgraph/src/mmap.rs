//! Read-only memory mapping of snapshot files.
//!
//! The build environment vendors no `memmap` crate, so this module talks
//! to the platform directly: on Unix it declares the tiny `mmap`/`munmap`
//! FFI surface itself (the symbols come from the C runtime every Rust
//! binary already links), on other platforms it degrades to reading the
//! file into an owned buffer — same API, no zero-copy, everything still
//! works.
//!
//! A [`Mmap`] is immutable (`PROT_READ`, `MAP_PRIVATE`) and `Send + Sync`;
//! columns reference it through an `Arc` so the mapping lives exactly as
//! long as the last view into it.

use std::fs::File;
use std::io;

/// A read-only mapping (or, on non-Unix hosts, an owned copy) of a file.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
    /// Owned fallback buffer; `None` when `ptr` is a real mapping.
    fallback: Option<Vec<u8>>,
}

// SAFETY: `ptr` addresses a `PROT_READ`/`MAP_PRIVATE` mapping (or the
// owned `fallback` buffer) that nothing writes for the lifetime of the
// value, the fd is not retained, and `munmap` may run on any thread — so
// moving the owner to another thread is sound.
unsafe impl Send for Mmap {}
// SAFETY: every `&self` method only reads the immutable mapping and the
// plain `len`/`fallback` fields; there is no interior mutability.
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mmap {
    /// Map `file` read-only in its entirety.
    ///
    /// Zero-length files produce a valid empty mapping without touching
    /// the syscall (Linux rejects `mmap(len = 0)`).
    pub fn map_readonly(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                fallback: None,
            });
        }
        Self::map_impl(file, len)
    }

    #[cfg(unix)]
    fn map_impl(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: `file` is open, so its fd is valid for the duration of
        // the call; a null hint with `MAP_PRIVATE | PROT_READ` asks the
        // kernel for a fresh region and aliases no Rust memory; `len` is
        // non-zero (checked by the caller) and the result is checked for
        // `MAP_FAILED` below before it is ever dereferenced.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr: ptr as *const u8, len, fallback: None })
    }

    #[cfg(not(unix))]
    fn map_impl(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut f = file.try_clone()?;
        f.read_to_end(&mut buf)?;
        let ptr = buf.as_ptr();
        Ok(Mmap { ptr, len: buf.len(), fallback: Some(buf) })
    }

    /// Base address of the mapping.
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty mapping.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr`/`len` describe a live read-only mapping, the
        // owned `fallback` buffer, or a dangling-but-aligned pointer with
        // `len == 0`; all stay valid and unwritten for the lifetime of
        // `self`, which the returned slice borrows.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// `true` when this is a genuine kernel mapping rather than the
    /// non-Unix owned-buffer fallback.
    pub fn is_real_mapping(&self) -> bool {
        self.len > 0 && self.fallback.is_none()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 && self.fallback.is_none() {
            // SAFETY: `len > 0` without a `fallback` means `ptr`/`len` are
            // exactly what a successful `mmap` returned; `drop` runs once
            // and every slice into the mapping borrows `self`, so none
            // outlives this call.
            unsafe {
                sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kgraph-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents_readonly() {
        let path = tmp("basic");
        let mut f = File::create(&path).unwrap();
        f.write_all(b"hello mapping").unwrap();
        f.sync_all().unwrap();
        let m = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&m[..], b"hello mapping");
        assert_eq!(m.len(), 13);
        #[cfg(unix)]
        assert!(m.is_real_mapping());
        drop(m);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp("empty");
        File::create(&path).unwrap();
        let m = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.as_slice(), &[] as &[u8]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = tmp("threads");
        std::fs::write(&path, vec![7u8; 4096 * 3]).unwrap();
        let m = std::sync::Arc::new(Mmap::map_readonly(&File::open(&path).unwrap()).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || assert!(m.iter().all(|&b| b == 7)));
            }
        });
        let _ = std::fs::remove_file(path);
    }
}
