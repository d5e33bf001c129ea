//! Paged guest memory with copy-on-write snapshot sharing.
//!
//! The memory image is a table of 4 KiB pages. Each slot is either
//! [`Owned`](PageSlot::Owned) — a `Box` this machine may write through
//! directly — or [`Shared`](PageSlot::Shared) — an `Arc` co-owned with one
//! or more [`Snapshot`](crate::Snapshot)s (and, transitively, with other
//! machines restored from them). The first write to a shared page copies
//! it into an owned box (the copy-on-write step); every later write to
//! that page is direct. The `Owned`/`Shared` discriminant doubles as the
//! write-permission bit, so the store fast path never touches an atomic
//! reference count: it is one slot load, one (highly predictable) tag
//! branch, and the byte write.
//!
//! What the representation buys:
//!
//! * **Capture is O(written pages)**: taking a snapshot materializes each
//!   owned page into a fresh `Arc` (one 4 KiB copy) and merely bumps the
//!   reference count of every already-shared page — untouched memory is
//!   never duplicated, no matter how many checkpoints co-exist.
//! * **Restore is pointer swaps**: rolling back to the snapshot the image
//!   is based on replaces each written slot with a clone of the
//!   snapshot's `Arc` (O(dirty pages)); restoring any other snapshot is
//!   one pass over the table that swaps only the slots not already
//!   holding the snapshot's page. No page bytes move at all; the trial
//!   pays for a page copy only when (and if) it writes to it again.
//! * **Comparison gets a pointer fast path**: two images holding the same
//!   `Arc` for a page are bit-identical there by construction, so the
//!   campaign's reconvergence probe compares bytes only for pages the two
//!   images do not share.
//!
//! Displaced owned boxes are recycled through a spare pool, so the
//! steady-state trial loop (write a working set, roll back, repeat) does
//! not touch the allocator.
//!
//! Guest accesses are aligned and at most 8 bytes, so a single access
//! never spans two pages (the alignment check precedes the page lookup).
//! Host-side accesses (`Machine::read_bytes`/`write_bytes`) may span
//! pages and go through the `copy_out`/`copy_in` loops instead.

use std::sync::Arc;

use certa_asm::DATA_BASE;
use certa_isa::MemWidth;

use crate::machine::CrashKind;

/// Granularity of page sharing and dirty tracking.
pub(crate) const PAGE_SIZE: usize = 4096;

/// One guest page.
pub(crate) type PageBuf = [u8; PAGE_SIZE];

/// One slot of the page table: writable in place, or shared with
/// snapshots and copied on first write.
#[derive(Clone)]
enum PageSlot {
    /// Uniquely held: stores write through directly.
    Owned(Box<PageBuf>),
    /// Co-owned with snapshots: read-only until a write copies it.
    Shared(Arc<PageBuf>),
}

impl PageSlot {
    #[inline(always)]
    fn bytes(&self) -> &PageBuf {
        match self {
            PageSlot::Owned(b) => b,
            PageSlot::Shared(a) => a,
        }
    }
}

/// The paged copy-on-write memory image of a machine, including the dirty
/// bitset (one bit per page, set by every guest store and host write since
/// the last restore/capture point).
///
/// Invariant: outside the construction window (before the first
/// capture/restore), a page is `Owned` **iff** its dirty bit is set — a
/// restore swaps every dirty slot back to `Shared`, and a write both
/// marks the page dirty and makes it owned. Every clean slot therefore
/// holds the very `Arc` of the snapshot the image was last captured to
/// or restored from.
pub(crate) struct PagedMem {
    slots: Vec<PageSlot>,
    /// Addressable bytes. May end mid-page; the tail of the last page is
    /// zero padding no guest or host access can reach.
    len: usize,
    /// One bit per page, set by every write since the last restore point.
    dirty: Vec<u64>,
    /// Recycled owned boxes: restores push displaced pages here, writes
    /// pop instead of allocating. Never cloned (a clone starts empty).
    spare: Vec<Box<PageBuf>>,
}

impl Clone for PagedMem {
    fn clone(&self) -> Self {
        PagedMem {
            slots: self.slots.clone(),
            len: self.len,
            dirty: self.dirty.clone(),
            spare: Vec::new(),
        }
    }
}

impl std::fmt::Debug for PagedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedMem")
            .field("len", &self.len)
            .field("pages", &self.slots.len())
            .field("dirty_pages", &self.dirty_page_count())
            .finish_non_exhaustive()
    }
}

/// Number of `u64` bitset words needed for `pages` pages.
fn dirty_words(pages: usize) -> usize {
    pages.div_ceil(64)
}

impl PagedMem {
    /// An all-zero image: every slot shares one zero page, so construction
    /// is O(pages) reference bumps, not O(len) zeroing.
    pub(crate) fn new_zeroed(len: usize) -> Self {
        let pages = len.div_ceil(PAGE_SIZE);
        let zero: Arc<PageBuf> = Arc::new([0u8; PAGE_SIZE]);
        PagedMem {
            slots: vec![PageSlot::Shared(zero); pages],
            len,
            dirty: vec![0u64; dirty_words(pages)],
            spare: Vec::new(),
        }
    }

    /// An image sharing every page of a snapshot (O(pages) reference
    /// bumps; the machine copies a page only when it first writes to it).
    pub(crate) fn from_shared(pages: &[Arc<PageBuf>], len: usize) -> Self {
        PagedMem {
            slots: pages.iter().map(|a| PageSlot::Shared(Arc::clone(a))).collect(),
            len,
            dirty: vec![0u64; dirty_words(pages.len())],
            spare: Vec::new(),
        }
    }

    /// Addressable bytes.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Read access to one page.
    #[inline(always)]
    fn page(&self, page: usize) -> &PageBuf {
        self.slots[page].bytes()
    }

    /// Write access to one page: marks it dirty and copies it out of
    /// sharing if needed (the copy-on-write step). The hot already-owned
    /// path is a bitset OR, a slot load, and a predictable tag branch.
    #[inline(always)]
    fn page_for_write(&mut self, page: usize) -> &mut PageBuf {
        self.dirty[page >> 6] |= 1 << (page & 63);
        let slot = &mut self.slots[page];
        if let PageSlot::Shared(a) = &*slot {
            let mut buf = self
                .spare
                .pop()
                .unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]));
            buf.copy_from_slice(&**a);
            *slot = PageSlot::Owned(buf);
        }
        match slot {
            PageSlot::Owned(b) => b,
            PageSlot::Shared(_) => unreachable!("page was just made owned"),
        }
    }

    /// Number of pages written since the last restore/capture point.
    pub(crate) fn dirty_page_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears the dirty bitset (construction-time use; restores clear it
    /// as they swap).
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Swaps one slot to share a snapshot's page, recycling a displaced
    /// owned box. The page's dirty bit is cleared by the caller (restores
    /// clear whole words as they scan).
    #[inline]
    fn share_slot(&mut self, page: usize, arc: &Arc<PageBuf>) {
        let old = std::mem::replace(&mut self.slots[page], PageSlot::Shared(Arc::clone(arc)));
        if let PageSlot::Owned(b) = old {
            self.spare.push(b);
        }
    }

    /// Restore step: swaps every **dirty** slot to the matching snapshot
    /// page (pointer swaps, no byte copies) and clears the dirty set.
    ///
    /// Correctness contract (the dirty-tracking invariant): every clean
    /// slot already holds `pages`' very `Arc` — the caller only invokes
    /// this when the machine's memory was last synchronized with this very
    /// snapshot.
    pub(crate) fn restore_dirty_from(&mut self, pages: &[Arc<PageBuf>]) {
        for w in 0..self.dirty.len() {
            let mut bits = self.dirty[w];
            while bits != 0 {
                let page = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.share_slot(page, &pages[page]);
            }
            self.dirty[w] = 0;
        }
    }

    /// Cross-snapshot restore: one pass over the page table that swaps
    /// every slot not already sharing the snapshot's page (pointer swaps,
    /// no byte copies) and clears the dirty set. A slot holding the
    /// snapshot's very `Arc` is identical by construction and left
    /// untouched, so snapshots that share most pages cost one pointer
    /// compare per slot plus a swap per page they do not share.
    pub(crate) fn restore_all_from(&mut self, pages: &[Arc<PageBuf>]) {
        for (slot, arc) in self.slots.iter_mut().zip(pages) {
            if matches!(slot, PageSlot::Shared(a) if Arc::ptr_eq(a, arc)) {
                continue;
            }
            let old = std::mem::replace(slot, PageSlot::Shared(Arc::clone(arc)));
            if let PageSlot::Owned(b) = old {
                self.spare.push(b);
            }
        }
        self.dirty.fill(0);
    }

    /// Snapshot capture: converts every owned page into a shared `Arc`
    /// (one 4 KiB copy each — the only bytes a capture ever copies),
    /// returns the full page table as `Arc` clones, and clears the dirty
    /// set (the machine is now bit-identical to the capture, which
    /// becomes its new base).
    ///
    /// The second return value is the number of bytes materialized (owned
    /// pages copied into fresh `Arc`s) — the true incremental cost of the
    /// capture, reported by campaigns as checkpoint capture bytes.
    pub(crate) fn capture(&mut self) -> (Vec<Arc<PageBuf>>, u64) {
        let mut fresh = 0u64;
        for slot in &mut self.slots {
            if let PageSlot::Owned(b) = slot {
                fresh += PAGE_SIZE as u64;
                let arc: Arc<PageBuf> = Arc::new(**b);
                let old = std::mem::replace(slot, PageSlot::Shared(arc));
                if let PageSlot::Owned(b) = old {
                    self.spare.push(b);
                }
            }
        }
        let pages: Vec<Arc<PageBuf>> = self
            .slots
            .iter()
            .map(|s| match s {
                PageSlot::Shared(a) => Arc::clone(a),
                PageSlot::Owned(_) => unreachable!("owned pages were just materialized"),
            })
            .collect();
        self.dirty.fill(0);
        (pages, fresh)
    }

    /// Host-side read: copies `out.len()` bytes starting at `start`,
    /// crossing page boundaries as needed. The caller has bounds-checked
    /// the range against [`Self::len`].
    pub(crate) fn copy_out(&self, start: usize, out: &mut [u8]) {
        let mut pos = start;
        let mut out = out;
        while !out.is_empty() {
            let page = pos / PAGE_SIZE;
            let off = pos % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(out.len());
            out[..n].copy_from_slice(&self.page(page)[off..off + n]);
            out = &mut out[n..];
            pos += n;
        }
    }

    /// Host-side write: copies `bytes` into the image starting at `start`,
    /// marking pages dirty and copying shared pages out of sharing. The
    /// caller has bounds-checked the range against [`Self::len`].
    pub(crate) fn copy_in(&mut self, start: usize, bytes: &[u8]) {
        let mut pos = start;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let page = pos / PAGE_SIZE;
            let off = pos % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(bytes.len());
            self.page_for_write(page)[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            pos += n;
        }
    }

    /// XORs one bit of the byte at `pos`, going through the copy-on-write
    /// path so the flip lands in an owned page and is tracked as dirty
    /// (a memory-cell fault model hook). The caller has bounds-checked
    /// `pos` against [`Self::len`].
    pub(crate) fn flip_bit(&mut self, pos: usize, bit: u8) {
        let page = pos / PAGE_SIZE;
        let off = pos % PAGE_SIZE;
        self.page_for_write(page)[off] ^= 1 << (bit % 8);
    }

    /// Whether the image equals a snapshot's page table byte-for-byte. A
    /// slot sharing the snapshot's `Arc` is identical by construction and
    /// accepted without reading it; every other slot is compared bytewise.
    /// The one memory comparison [`Machine::state_eq`] makes, whatever
    /// snapshot the image is based on.
    ///
    /// [`Machine::state_eq`]: crate::Machine::state_eq
    pub(crate) fn eq_pages(&self, pages: &[Arc<PageBuf>]) -> bool {
        if pages.len() != self.slots.len() {
            return false;
        }
        self.slots.iter().zip(pages).all(|(slot, arc)| match slot {
            PageSlot::Shared(a) => Arc::ptr_eq(a, arc) || **a == **arc,
            PageSlot::Owned(b) => **b == **arc,
        })
    }
}

/// Pre-access check shared by loads and stores: alignment first (so a
/// misaligned in-bounds access reports [`CrashKind::Misaligned`]), then
/// the guard region below [`DATA_BASE`] and the upper bound.
#[inline(always)]
fn check_access(mem_len: usize, addr: u32, size: u32) -> Result<(), CrashKind> {
    if !addr.is_multiple_of(size) {
        return Err(CrashKind::Misaligned { addr, size });
    }
    let end = addr as usize + size as usize;
    if addr < DATA_BASE || end > mem_len {
        return Err(CrashKind::MemOutOfBounds { addr, size });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Guest memory primitives.
//
// Free functions over `&PagedMem`/`&mut PagedMem` shared by the micro-op
// dispatch loop, the superblock trace executor, and (through thin
// `Machine` method wrappers) the reference interpreter, so all pipelines
// share one implementation of the memory model. After the alignment
// check, `off & !(size - 1)` is a semantic no-op that lets the compiler
// prove `off + size <= PAGE_SIZE` and elide the page-slice bounds check.
// ---------------------------------------------------------------------

#[inline(always)]
pub(crate) fn load_mem(
    mem: &PagedMem,
    addr: u32,
    width: MemWidth,
    signed: bool,
) -> Result<u32, CrashKind> {
    let size = width.bytes();
    check_access(mem.len, addr, size)?;
    let p = mem.page(addr as usize / PAGE_SIZE);
    let off = addr as usize % PAGE_SIZE;
    Ok(match (width, signed) {
        (MemWidth::Byte, false) => u32::from(p[off]),
        (MemWidth::Byte, true) => p[off] as i8 as i32 as u32,
        (MemWidth::Half, false) => {
            let o = off & !1;
            u32::from(u16::from_le_bytes([p[o], p[o | 1]]))
        }
        (MemWidth::Half, true) => {
            let o = off & !1;
            i16::from_le_bytes([p[o], p[o | 1]]) as i32 as u32
        }
        (MemWidth::Word, _) => {
            let o = off & !3;
            u32::from_le_bytes(p[o..o + 4].try_into().expect("4-byte slice"))
        }
    })
}

#[inline(always)]
pub(crate) fn store_mem(
    mem: &mut PagedMem,
    addr: u32,
    width: MemWidth,
    value: u32,
) -> Result<(), CrashKind> {
    let size = width.bytes();
    check_access(mem.len, addr, size)?;
    let off = addr as usize % PAGE_SIZE;
    let p = mem.page_for_write(addr as usize / PAGE_SIZE);
    match width {
        MemWidth::Byte => p[off] = value as u8,
        MemWidth::Half => {
            let o = off & !1;
            p[o..o + 2].copy_from_slice(&(value as u16).to_le_bytes());
        }
        MemWidth::Word => {
            let o = off & !3;
            p[o..o + 4].copy_from_slice(&value.to_le_bytes());
        }
    }
    Ok(())
}

#[inline(always)]
pub(crate) fn load_f64_mem(mem: &PagedMem, addr: u32) -> Result<f64, CrashKind> {
    if !addr.is_multiple_of(8) {
        return Err(CrashKind::Misaligned { addr, size: 8 });
    }
    if addr < DATA_BASE || addr as usize + 8 > mem.len {
        return Err(CrashKind::MemOutOfBounds { addr, size: 8 });
    }
    let p = mem.page(addr as usize / PAGE_SIZE);
    let o = (addr as usize % PAGE_SIZE) & !7;
    Ok(f64::from_le_bytes(
        p[o..o + 8].try_into().expect("8-byte slice"),
    ))
}

#[inline(always)]
pub(crate) fn store_f64_mem(mem: &mut PagedMem, addr: u32, value: f64) -> Result<(), CrashKind> {
    if !addr.is_multiple_of(8) {
        return Err(CrashKind::Misaligned { addr, size: 8 });
    }
    if addr < DATA_BASE || addr as usize + 8 > mem.len {
        return Err(CrashKind::MemOutOfBounds { addr, size: 8 });
    }
    let o = (addr as usize % PAGE_SIZE) & !7;
    let p = mem.page_for_write(addr as usize / PAGE_SIZE);
    p[o..o + 8].copy_from_slice(&value.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cross-snapshot restore leaves a slot that already shares the
    /// target's page alone and swaps every other slot, owned or shared
    /// with another snapshot, recycling the displaced owned boxes.
    #[test]
    fn restore_all_from_swaps_only_slots_not_sharing_the_target() {
        let mut mem = PagedMem::new_zeroed(3 * PAGE_SIZE);
        for page in 0..3 {
            mem.copy_in(page * PAGE_SIZE, &[page as u8 + 1; 8]);
        }
        let (target, _) = mem.capture();
        // Slot 1 goes to another snapshot's `Arc`, slot 2 is owned; slot 0
        // keeps sharing the target's page.
        mem.copy_in(PAGE_SIZE, &[7; 8]);
        let (other, _) = mem.capture();
        mem.copy_in(2 * PAGE_SIZE, &[9; 8]);
        assert!(matches!(mem.slots[0], PageSlot::Shared(ref a) if Arc::ptr_eq(a, &target[0])));
        assert!(matches!(mem.slots[1], PageSlot::Shared(ref a) if Arc::ptr_eq(a, &other[1])));
        assert!(matches!(mem.slots[2], PageSlot::Owned(_)));
        let shared_count = Arc::strong_count(&target[0]);
        let spare = mem.spare.len();

        mem.restore_all_from(&target);
        for (slot, arc) in mem.slots.iter().zip(&target) {
            assert!(matches!(slot, PageSlot::Shared(a) if Arc::ptr_eq(a, arc)));
        }
        assert_eq!(Arc::strong_count(&target[0]), shared_count);
        assert_eq!(mem.spare.len(), spare + 1, "the owned box is recycled");
        assert_eq!(mem.dirty_page_count(), 0);
        assert!(mem.eq_pages(&target));
        assert!(!mem.eq_pages(&other));
    }
}
