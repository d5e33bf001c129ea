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
//! Snapshots share memory one level up as well: a snapshot's image is one
//! [`PageGroup`] `Arc` per [`GROUP_PAGES`] pages — exactly one word of the
//! dirty bitset — and the image keeps, as its *base*, the groups its clean
//! slots share. A group whose dirty word is 0 *is* its base group.
//!
//! What the representation buys:
//!
//! * **Capture is O(written groups)**: taking a snapshot keeps every clean
//!   group by bumping one reference count, and rebuilds only the groups
//!   that were written, materializing each written page into a fresh
//!   `Arc` (one 4 KiB copy). Untouched memory is never duplicated, no
//!   matter how many checkpoints co-exist.
//! * **Restore is pointer swaps**: one pass over the groups swaps back only
//!   the dirty slots of a group the image is based on, and only the slots
//!   not already holding the target's page in any other group. No page
//!   bytes move at all; the trial pays for a page copy only when (and if)
//!   it writes to it again.
//! * **Comparison gets a pointer fast path**: two images holding the same
//!   `Arc` for a group or a page are bit-identical there by construction,
//!   so the campaign's reconvergence probe compares bytes only for the
//!   pages the two images do not share.
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

/// Pages per [`PageGroup`]: one word of the dirty bitset.
pub(crate) const GROUP_PAGES: usize = 64;

/// One guest page.
pub(crate) type PageBuf = [u8; PAGE_SIZE];

/// [`GROUP_PAGES`] consecutive pages (fewer in an image's last group):
/// the unit snapshots share.
pub(crate) type PageGroup = Arc<[Arc<PageBuf>]>;

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

    /// Points the slot at `arc`, recycling a displaced owned box.
    #[inline]
    fn share(&mut self, arc: &Arc<PageBuf>, spare: &mut Vec<Box<PageBuf>>) {
        if let PageSlot::Owned(b) = std::mem::replace(self, PageSlot::Shared(Arc::clone(arc))) {
            spare.push(b);
        }
    }
}

/// The paged copy-on-write memory image of a machine, including the dirty
/// bitset (one bit per page, set by every guest store and host write since
/// the last restore/capture point) and the base groups.
///
/// Invariant: a page is `Owned` **iff** its dirty bit is set — a write
/// both marks the page dirty and makes it owned, and a capture or restore
/// shares every slot it clears. Every clean slot holds the very `Arc` of
/// its group in `base`, so a group whose dirty word is 0 *is* `base[g]`.
/// This holds from construction on: a fresh image's base is its zero
/// groups, and the pages the loader writes are dirty.
pub(crate) struct PagedMem {
    slots: Vec<PageSlot>,
    /// Addressable bytes. May end mid-page; the tail of the last page is
    /// zero padding no guest or host access can reach.
    len: usize,
    /// One bit per page, set by every write since the last restore point;
    /// word `g` covers group `g`.
    dirty: Vec<u64>,
    /// The groups the clean slots share: the snapshot the image was last
    /// captured to or restored from, group by group.
    base: Vec<PageGroup>,
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
            base: self.base.clone(),
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

impl PagedMem {
    /// An all-zero image: every slot shares one zero page, so construction
    /// is O(pages) reference bumps, not O(len) zeroing.
    pub(crate) fn new_zeroed(len: usize) -> Self {
        let pages = len.div_ceil(PAGE_SIZE);
        let zero: Arc<PageBuf> = Arc::new([0u8; PAGE_SIZE]);
        let groups: Vec<PageGroup> = (0..pages)
            .step_by(GROUP_PAGES)
            .map(|first| vec![Arc::clone(&zero); GROUP_PAGES.min(pages - first)].into())
            .collect();
        Self::from_shared(&groups, len)
    }

    /// An image sharing every page of a snapshot (O(pages) reference
    /// bumps; the machine copies a page only when it first writes to it).
    pub(crate) fn from_shared(groups: &[PageGroup], len: usize) -> Self {
        PagedMem {
            slots: groups
                .iter()
                .flat_map(|g| g.iter())
                .map(|a| PageSlot::Shared(Arc::clone(a)))
                .collect(),
            len,
            dirty: vec![0u64; groups.len()],
            base: groups.to_vec(),
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

    /// Restore: one pass over the groups that makes every slot share the
    /// snapshot's page (pointer swaps, no byte copies) and clears the dirty
    /// set. A group the image is based on swaps back only its dirty slots
    /// (its clean slots already hold the group's pages); any other group
    /// swaps the slots not already sharing the snapshot's page and becomes
    /// the group's base.
    pub(crate) fn restore_from(&mut self, groups: &[PageGroup]) {
        for (g, target) in groups.iter().enumerate() {
            if Arc::ptr_eq(&self.base[g], target) {
                for i in set_bits(self.dirty[g]) {
                    self.slots[g * GROUP_PAGES + i].share(&target[i], &mut self.spare);
                }
                self.dirty[g] = 0;
            } else {
                self.share_group(g, target);
            }
        }
    }

    /// Restore that trusts neither the dirty bits nor the base: every group
    /// takes the per-slot pass of [`Self::restore_from`]'s second case.
    pub(crate) fn restore_all_from(&mut self, groups: &[PageGroup]) {
        for (g, target) in groups.iter().enumerate() {
            self.share_group(g, target);
        }
    }

    /// Swaps every slot of group `g` not already sharing `target`'s page
    /// and makes `target` the group's base.
    fn share_group(&mut self, g: usize, target: &PageGroup) {
        let first = g * GROUP_PAGES;
        for (slot, arc) in self.slots[first..first + target.len()]
            .iter_mut()
            .zip(target.iter())
        {
            if !matches!(slot, PageSlot::Shared(a) if Arc::ptr_eq(a, arc)) {
                slot.share(arc, &mut self.spare);
            }
        }
        self.base[g] = Arc::clone(target);
        self.dirty[g] = 0;
    }

    /// Snapshot capture: keeps every clean group by bumping its reference
    /// count, and rebuilds each written group with its owned pages
    /// converted into fresh shared `Arc`s (one 4 KiB copy each — the only
    /// bytes a capture ever copies). Returns the groups and clears the
    /// dirty set (the machine is now bit-identical to the capture, which
    /// becomes its new base).
    ///
    /// The second return value is the number of bytes materialized (owned
    /// pages copied into fresh `Arc`s) — the true incremental cost of the
    /// capture, reported by campaigns as checkpoint capture bytes.
    pub(crate) fn capture(&mut self) -> (Vec<PageGroup>, u64) {
        let mut fresh = 0u64;
        for g in 0..self.base.len() {
            if self.dirty[g] == 0 {
                continue;
            }
            let first = g * GROUP_PAGES;
            for i in set_bits(self.dirty[g]) {
                let page = first + i;
                if let PageSlot::Owned(b) = &self.slots[page] {
                    fresh += PAGE_SIZE as u64;
                    let arc: Arc<PageBuf> = Arc::new(**b);
                    self.slots[page].share(&arc, &mut self.spare);
                }
            }
            self.base[g] = self.slots[first..first + self.base[g].len()]
                .iter()
                .map(|s| match s {
                    PageSlot::Shared(a) => Arc::clone(a),
                    PageSlot::Owned(_) => unreachable!("owned pages are dirty"),
                })
                .collect();
            self.dirty[g] = 0;
        }
        (self.base.clone(), fresh)
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

    /// Whether the image equals a snapshot's groups byte-for-byte. A group
    /// that is the image's clean base group is accepted without reading
    /// it, and one that is its base with dirty pages compares only those
    /// pages; in any other group a slot sharing the snapshot's `Arc` is
    /// accepted and every other slot is compared bytewise. The one memory
    /// comparison [`Machine::state_eq`] makes, whatever snapshot the image
    /// is based on.
    ///
    /// [`Machine::state_eq`]: crate::Machine::state_eq
    pub(crate) fn eq_pages(&self, groups: &[PageGroup]) -> bool {
        groups.len() == self.base.len()
            && groups.iter().enumerate().all(|(g, target)| {
                let first = g * GROUP_PAGES;
                if Arc::ptr_eq(&self.base[g], target) {
                    return set_bits(self.dirty[g]).all(|i| *self.page(first + i) == *target[i]);
                }
                target.len() == self.base[g].len()
                    && self.slots[first..first + target.len()]
                        .iter()
                        .zip(target.iter())
                        .all(|(slot, arc)| match slot {
                            PageSlot::Shared(a) => Arc::ptr_eq(a, arc) || **a == **arc,
                            PageSlot::Owned(b) => **b == **arc,
                        })
            })
    }
}

/// Indices of the set bits of a dirty word, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
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

    /// One restore pass over the groups: a group the image is based on
    /// swaps back only its dirty slots; any other group swaps the slots
    /// not already sharing the target's page and takes the target's group
    /// as its base. The untrusting pass treats every group the second way.
    #[test]
    fn restore_all_from_swaps_only_slots_not_sharing_the_target() {
        // Two full groups and a partial third.
        let mut mem = PagedMem::new_zeroed((2 * GROUP_PAGES + 3) * PAGE_SIZE);
        assert_eq!(mem.base.len(), 3);
        for g in 0..3 {
            mem.copy_in((g * GROUP_PAGES + 1) * PAGE_SIZE, &[g as u8 + 1; 8]);
        }
        let (target, fresh) = mem.capture();
        assert_eq!(fresh, 3 * PAGE_SIZE as u64);
        // Group 1 moves on to another snapshot; groups 0 and 2 stay shared.
        mem.copy_in((GROUP_PAGES + 2) * PAGE_SIZE, &[7; 8]);
        let (other, _) = mem.capture();
        for (g, shared) in [(0, true), (1, false), (2, true)] {
            assert_eq!(Arc::ptr_eq(&other[g], &target[g]), shared, "group {g}");
        }
        // Dirty pages in group 0 (based on the target's group) and group 1
        // (based on the other snapshot's).
        mem.copy_in(5 * PAGE_SIZE, &[9; 8]);
        mem.copy_in((GROUP_PAGES + 3) * PAGE_SIZE, &[9; 8]);
        assert!(!mem.eq_pages(&target) && !mem.eq_pages(&other));
        let spare = mem.spare.len();
        let other_group_refs = Arc::strong_count(&other[1]);

        mem.restore_from(&target);
        let target_pages = target.iter().flat_map(|g| g.iter());
        for (slot, arc) in mem.slots.iter().zip(target_pages) {
            assert!(matches!(slot, PageSlot::Shared(a) if Arc::ptr_eq(a, arc)));
        }
        assert!(mem.base.iter().zip(&target).all(|(b, t)| Arc::ptr_eq(b, t)));
        assert_eq!(Arc::strong_count(&other[1]), other_group_refs - 1);
        assert_eq!(mem.spare.len(), spare + 2, "both owned boxes are recycled");
        assert_eq!(mem.dirty_page_count(), 0);
        assert!(mem.eq_pages(&target));
        assert!(!mem.eq_pages(&other));

        // The untrusting pass reaches the same state from any base.
        mem.copy_in(7 * PAGE_SIZE, &[3; 8]);
        mem.restore_all_from(&other);
        let other_pages = other.iter().flat_map(|g| g.iter());
        for (slot, arc) in mem.slots.iter().zip(other_pages) {
            assert!(matches!(slot, PageSlot::Shared(a) if Arc::ptr_eq(a, arc)));
        }
        assert!(mem.base.iter().zip(&other).all(|(b, t)| Arc::ptr_eq(b, t)));
        assert_eq!(mem.dirty_page_count(), 0);
        assert!(mem.eq_pages(&other));
    }
}
