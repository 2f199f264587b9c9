//! Shared byte regions: the substrate for zero-copy index loading.
//!
//! An index bundle stores its big arrays (packed reference, flat
//! suffix array, occurrence blocks) page-aligned, so a loader can `mmap` the
//! file once and hand each consumer a [`ByteRegion`] — a window into the
//! mapping that keeps it alive via a shared owner. The same type wraps
//! the buffered-read fallback ([`AlignedBytes`], a 4096-byte-aligned
//! heap buffer), so consumers never know which loader ran.
//!
//! Typed reinterpretation ([`ByteRegion::typed`]) is how `FlatSa` and
//! the occurrence table view their mapped arrays without copying. It is
//! gated on a little-endian target (x86-64 and aarch64 both are; the
//! on-disk format is little-endian) and on the region's alignment —
//! callers fall back to an owned decode when it returns `None`.

use std::ops::Deref;
use std::sync::Arc;

/// The shared owner of a loaded region: anything that dereferences to
/// immutable bytes and can be kept alive by `Arc` (an `mmap`ed file, an
/// aligned heap buffer, a plain `Vec<u8>` in tests).
pub type RegionOwner = Arc<dyn Deref<Target = [u8]> + Send + Sync>;

/// A window into a shared byte buffer.
///
/// Cloning is cheap (one `Arc` bump); the underlying bytes are immutable
/// and never move, so the window caches its data pointer.
#[derive(Clone)]
pub struct ByteRegion {
    /// Keeps the mapping/buffer alive; never moves its storage.
    owner: RegionOwner,
    ptr: *const u8,
    len: usize,
}

// Safety: the bytes are immutable for the owner's lifetime, and the
// owner itself is Send + Sync; the cached pointer adds no mutability.
unsafe impl Send for ByteRegion {}
unsafe impl Sync for ByteRegion {}

impl ByteRegion {
    /// Window `[offset, offset + len)` of `owner`'s bytes.
    ///
    /// Panics when the window exceeds the owner's length (a corrupt
    /// table of contents — callers validate lengths first).
    pub fn new(owner: RegionOwner, offset: usize, len: usize) -> ByteRegion {
        let bytes: &[u8] = &owner;
        let slice = &bytes[offset..offset + len];
        let ptr = slice.as_ptr();
        ByteRegion { owner, ptr, len }
    }

    /// The whole owner as one region.
    pub fn whole(owner: RegionOwner) -> ByteRegion {
        let len = owner.len();
        ByteRegion::new(owner, 0, len)
    }

    /// A sub-window relative to this region.
    pub fn slice(&self, offset: usize, len: usize) -> ByteRegion {
        assert!(offset + len <= self.len, "sub-region out of bounds");
        ByteRegion {
            owner: Arc::clone(&self.owner),
            ptr: unsafe { self.ptr.add(offset) },
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The region's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Reinterpret the region as a slice of `T` without copying.
    ///
    /// Returns `None` when the region is misaligned for `T`, its length
    /// is not a multiple of `T`'s size, or the target is big-endian
    /// (the on-disk layout is little-endian) — callers then decode into
    /// owned storage instead.
    pub fn typed<T: Pod>(&self) -> Option<&[T]> {
        if cfg!(target_endian = "big") {
            return None;
        }
        let size = std::mem::size_of::<T>();
        if size == 0
            || !self.len.is_multiple_of(size)
            || !(self.ptr as usize).is_multiple_of(std::mem::align_of::<T>())
        {
            return None;
        }
        // Safety: alignment and size checked above; T is Pod (any bit
        // pattern valid); bytes are immutable and outlive &self.
        Some(unsafe { std::slice::from_raw_parts(self.ptr as *const T, self.len / size) })
    }
}

impl std::fmt::Debug for ByteRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteRegion")
            .field("len", &self.len)
            .finish()
    }
}

/// Marker for types any byte pattern instantiates validly (`repr(C)`,
/// no invariants, no pointers). Lets [`ByteRegion::typed`] reinterpret
/// mapped bytes in place.
///
/// # Safety
/// Implementors must be `repr(C)` (or primitives) with every bit
/// pattern valid, and contain no references or padding-dependent
/// invariants that reading could violate.
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}

/// A heap buffer aligned to 4096 bytes: the buffered-read stand-in for
/// an `mmap`ed file, so typed views over page-aligned bundle sections
/// work identically through both loaders.
pub struct AlignedBytes {
    ptr: *mut u8,
    len: usize,
    capacity: usize,
}

/// Page size the v4 bundle aligns its big sections to.
pub const PAGE_ALIGN: usize = 4096;

// Safety: uniquely owned, immutable after construction.
unsafe impl Send for AlignedBytes {}
unsafe impl Sync for AlignedBytes {}

impl AlignedBytes {
    /// Copy `bytes` into a fresh 4096-aligned allocation.
    pub fn from_slice(bytes: &[u8]) -> AlignedBytes {
        let mut out = AlignedBytes::zeroed(bytes.len());
        out.as_mut_slice().copy_from_slice(bytes);
        out
    }

    /// A zero-filled aligned buffer of `len` bytes.
    pub fn zeroed(len: usize) -> AlignedBytes {
        let capacity = len.max(1);
        let layout =
            std::alloc::Layout::from_size_align(capacity, PAGE_ALIGN).expect("aligned layout");
        // Safety: layout has non-zero size (capacity >= 1).
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        AlignedBytes { ptr, len, capacity }
    }

    /// Mutable view (only used while filling the buffer).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        let layout =
            std::alloc::Layout::from_size_align(self.capacity, PAGE_ALIGN).expect("aligned layout");
        unsafe { std::alloc::dealloc(self.ptr, layout) };
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_windows_and_slices() {
        let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let whole = ByteRegion::whole(Arc::clone(&owner));
        assert_eq!(whole.len(), 8);
        assert!(!whole.is_empty());
        assert_eq!(whole.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mid = ByteRegion::new(owner, 2, 4);
        assert_eq!(mid.as_slice(), &[3, 4, 5, 6]);
        let sub = mid.slice(1, 2);
        assert_eq!(sub.as_slice(), &[4, 5]);
        // the region keeps the owner alive after every other handle drops
        drop(mid);
        assert_eq!(sub.as_slice(), &[4, 5]);
    }

    #[test]
    fn typed_views_require_alignment_and_size() {
        let bytes: Vec<u8> = (0..16u8).collect();
        let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(&bytes));
        let whole = ByteRegion::whole(owner);
        let words = whole.typed::<u32>().expect("aligned, multiple of 4");
        assert_eq!(words.len(), 4);
        assert_eq!(words[0], u32::from_le_bytes([0, 1, 2, 3]));
        let longs = whole.typed::<u64>().expect("aligned, multiple of 8");
        assert_eq!(longs.len(), 2);
        // a 1-byte-offset window is misaligned for u32
        assert!(whole.slice(1, 8).typed::<u32>().is_none());
        // a length that is not a multiple of the element size
        assert!(whole.slice(0, 7).typed::<u32>().is_none());
        // u8 always works
        assert_eq!(whole.typed::<u8>().unwrap(), &bytes[..]);
    }

    #[test]
    fn aligned_bytes_are_page_aligned() {
        for len in [0usize, 1, 17, 4096, 4097] {
            let buf = AlignedBytes::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_ptr() as usize % PAGE_ALIGN, 0, "len {len}");
            assert!(buf.iter().all(|&b| b == 0));
        }
        let filled = AlignedBytes::from_slice(b"hello");
        assert_eq!(&*filled, b"hello");
    }
}
