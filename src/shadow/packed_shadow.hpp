// The detectors' shadow memory: one packed slot per granule.
//
// SP-bags and SP+ keep the paper's two shadow spaces, "reader" and
// "writer".  Kept as two maps of uint32 payloads behind an unordered_map
// page index, every access pays two hash-map lookups once it leaves a
// one-page lookaside, and a clear() walks and frees every page — the
// dominant cost on multi-MB footprints (bench/large_footprint keeps that
// layout as its baseline).  PackedShadow stores both spaces in one:
//
//  * COMBINED SLOT ENCODING — reader and writer live in ONE 64-bit slot:
//      bits [ 0,28)  reader id   (28-bit field, all-ones = empty)
//      bits [28,56)  writer id   (28-bit field, all-ones = empty)
//      bits [56,60)  reader offset: first byte of the recorded access
//                    within its granule, clamped to 15
//      bits [60,64)  writer offset, same clamp
//    One lookup serves both spaces, and memset(0xFF) initializes every
//    field to empty.  Detector payloads (disjoint-set nodes / strand
//    refs) must fit 28 bits — 2^28-1 ids, ~16x beyond anything the
//    engines mint — enforced by RADER_CHECK on every store.
//
//  * TWO-LEVEL DIRECTORY ON ONE THREAD — granule space is covered by
//    chunks of 512 pages x 4096 slots (2^21 granules per chunk).  Chunk
//    pointers live in one open-addressed hash table, rebuilt at twice the
//    size (the old table freed) once it passes 3/4 full.  Within a chunk,
//    page lookup is an array index — no hashing — which is where the
//    multi-MB speedup over the unordered_map comes from.  A space, its
//    forks, their shared chunks and pages and the arena belong to one
//    thread: each detector and its checkpoint forks belong to one sweep
//    worker.  Nothing here is atomic or locked.
//
//  * EPOCH-TAGGED BULK CLEAR — clear() increments the space's epoch and
//    returns: O(1) instead of a page walk (shadow.epoch_clears).  Pages
//    carry the epoch they were last reset under; a page whose epoch is
//    stale reads as all-empty and is lazily memset + re-stamped on its
//    first write (shadow.page_resets).  Epochs only grow per space, and
//    a written page is always re-stamped to the CURRENT epoch, so a
//    stale page can never spuriously revalidate.  On (unlikely) epoch
//    exhaustion clear() degrades to one full release.
//
//  * ARENA-BACKED PAGE POOL WITH TWO-LEVEL CoW FORKS — pages come from a
//    PageArena shared (shared_ptr) between a space and its forks, with an
//    intrusive free list so epoch-cleared footprints recycle without
//    malloc churn.  Sharing is copy-on-write at BOTH directory levels:
//    fork() copies only the chunk table and bumps each CHUNK's refcount
//    — O(#chunks), a few hundred nanoseconds for a multi-MB footprint,
//    where a per-page map would copy one node per page.  The first write
//    through a shared chunk clones the chunk (bumping its pages'
//    refcounts), and the first write to a shared page un-shares the page
//    (shadow.pages_cow).  Page refcounts count referencing CHUNKS; chunk
//    refcounts count referencing SPACES.  This is what makes the prefix
//    sweep's per-spec checkpoint forks cheap even when the checkpoint
//    shadows millions of granules.
//
// Gauge conservation (shadow.pages_live): every directory reference
// counts in once (allocation or fork) and out once (release, full reset,
// destruction).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/common.hpp"

namespace rader::shadow {

/// Paged granule -> packed (reader, writer, offsets) map; see file header.
class PackedShadow {
 public:
  using Payload = std::uint32_t;
  /// Empty sentinel of the decoded payload (AccessShadow::kEmpty).
  static constexpr Payload kEmpty = static_cast<Payload>(-1);
  /// In-slot empty field (28 ones) and the largest storable id.
  static constexpr Payload kFieldEmpty = (Payload{1} << 28) - 1;
  static constexpr Payload kMaxPayload = kFieldEmpty - 1;
  static constexpr unsigned kMaxOffset = 15;  // 4-bit extent field

  PackedShadow();
  PackedShadow(const PackedShadow&) = delete;
  PackedShadow& operator=(const PackedShadow&) = delete;
  PackedShadow(PackedShadow&& other) noexcept;
  PackedShadow& operator=(PackedShadow&& other) noexcept;
  ~PackedShadow();

  /// Reader / writer id recorded for granule `g`, or kEmpty.
  Payload reader(std::uintptr_t g) { return reader_of(load_slot(g)); }
  Payload writer(std::uintptr_t g) { return writer_of(load_slot(g)); }

  /// Recorded access extent: first byte of the recorded access within
  /// granule `g`, clamped to kMaxOffset (meaningless when the id is
  /// empty).  Diagnostic only — race reports derive addresses from the
  /// CURRENT access, never from this field (tests/core/granularity_test).
  unsigned reader_offset(std::uintptr_t g) {
    return static_cast<unsigned>((load_slot(g) >> 56) & 0xF);
  }
  unsigned writer_offset(std::uintptr_t g) {
    return static_cast<unsigned>((load_slot(g) >> 60) & 0xF);
  }

  /// Record reader/writer `v` for granule `g` with the access's byte
  /// offset within the granule (clamped to the 4-bit extent field).
  void set_reader(std::uintptr_t g, Payload v, unsigned offset = 0) {
    std::uint64_t& slot = *writable_run(g);
    slot = with_reader(slot, v, offset);
  }
  void set_writer(std::uintptr_t g, Payload v, unsigned offset = 0) {
    std::uint64_t& slot = *writable_run(g);
    slot = with_writer(slot, v, offset);
  }

  /// Reset both fields of one granule to empty.
  void clear_granule(std::uintptr_t g) {
    if (std::uint64_t* slot = clearable_run(g)) *slot = kEmptySlot;
  }

  /// Reset granules [first, last] to empty with one fill per present,
  /// current-epoch page.  Absent and stale pages already read as empty
  /// and are skipped: no page is materialized to store emptiness.
  void clear_range(std::uintptr_t first, std::uintptr_t last);

  // ---- Page runs: the detectors' access walk (AccessShadow::check_access)

  /// Current-epoch slots from `g` to the end of its page, or nullptr when
  /// every one of them reads empty (no page, or a stale one).  Never
  /// allocates.  Valid until the next write or clear through this space.
  const std::uint64_t* peek_run(std::uintptr_t g);

  /// Exclusive current-epoch slots from `g` to the end of its page,
  /// allocating / un-sharing / resetting the page as needed.
  std::uint64_t* writable_run(std::uintptr_t g);

  /// Slot codec (bit layout in the file header).
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  /// The reader and writer id bits: slots equal under this mask hold the
  /// same (reader, writer) pair, whatever their offsets.
  static constexpr std::uint64_t kPairMask = (std::uint64_t{1} << 56) - 1;
  static Payload reader_of(std::uint64_t slot) {
    return decode_field(slot & kFieldEmpty);
  }
  static Payload writer_of(std::uint64_t slot) {
    return decode_field((slot >> 28) & kFieldEmpty);
  }
  static std::uint64_t with_reader(std::uint64_t slot, Payload v,
                                   unsigned offset) {
    return (slot & ~(std::uint64_t{kFieldEmpty} | (std::uint64_t{0xF} << 56)))
           | encode_field(v)
           | (std::uint64_t{clamp_offset(offset)} << 56);
  }
  static std::uint64_t with_writer(std::uint64_t slot, Payload v,
                                   unsigned offset) {
    return (slot &
            ~((std::uint64_t{kFieldEmpty} << 28) | (std::uint64_t{0xF} << 60)))
           | (encode_field(v) << 28)
           | (std::uint64_t{clamp_offset(offset)} << 60);
  }

  /// O(1) bulk clear: bump the epoch; stale pages read empty and reset
  /// lazily.  Degrades to a full release on epoch exhaustion.
  void clear();

  /// Copy-on-write snapshot sharing every current chunk and page (and
  /// the arena).  O(#chunks): only the chunk table is copied.
  PackedShadow fork() const;

  /// Directory pages currently referenced by THIS space (stale-epoch
  /// pages still count: they are mapped until released or reset).
  std::size_t page_count() const { return page_count_; }

  /// Bytes of shadow slot storage currently referenced by this space.
  std::size_t bytes() const { return page_count_ * sizeof(Page); }

  /// Current epoch (tests).
  std::uint64_t epoch() const { return epoch_; }

  /// Jump the epoch counter near its limit so tests can exercise the
  /// rollover path without 2^64 clears.  Must be >= the current epoch.
  void set_epoch_for_testing(std::uint64_t epoch);

  // Geometry (shared with the facade and the benches).
  static constexpr unsigned kSlotBits = 12;  // 4096 slots per page
  static constexpr std::size_t kPageSlots = std::size_t{1} << kSlotBits;
  static constexpr unsigned kChunkBits = 9;  // 512 pages per chunk
  static constexpr std::size_t kChunkPages = std::size_t{1} << kChunkBits;

 private:
  struct Page {
    std::uint64_t epoch;  // epoch this page was last reset under
    std::uint32_t refs;   // referencing CHUNKS (mine + shared forks')
    Page* next_free;      // arena free-list link (only while free)
    std::uint64_t slots[kPageSlots];
  };

  /// Second directory level: page pointers for one aligned group of
  /// kChunkPages pages.  Chunks are shared CoW between a space and its
  /// forks (`refs` counts owning spaces): only an exclusive chunk's cells
  /// may be mutated — a shared chunk is cloned first (unshare_chunk).
  struct Chunk {
    std::uintptr_t key;
    std::uint32_t refs;  // referencing SPACES (this one + sharing forks)
    Page* pages[kChunkPages];
  };

  /// Pool of pages shared by a space and all its forks (single thread).
  struct PageArena {
    std::vector<std::unique_ptr<Page[]>> slabs;
    Page* free_list = nullptr;
    std::size_t next_in_slab = 0;
    Page* alloc();
    void release(Page* page);
  };

  static constexpr std::uintptr_t kNoKey = static_cast<std::uintptr_t>(-1);

  static std::uintptr_t page_key(std::uintptr_t g) { return g >> kSlotBits; }
  static std::uintptr_t chunk_key(std::uintptr_t g) {
    return g >> (kSlotBits + kChunkBits);
  }
  static std::size_t slot_index(std::uintptr_t g) {
    return g & (kPageSlots - 1);
  }
  static std::size_t page_index(std::uintptr_t g) {
    return page_key(g) & (kChunkPages - 1);
  }
  static Payload decode_field(std::uint64_t field) {
    return field == kFieldEmpty ? kEmpty : static_cast<Payload>(field);
  }
  static std::uint64_t encode_field(Payload v) {
    if (v == kEmpty) return kFieldEmpty;
    RADER_CHECK_MSG(v <= kMaxPayload,
                    "packed shadow payload exceeds the 28-bit slot field");
    return v;
  }
  static unsigned clamp_offset(unsigned offset) {
    return offset > kMaxOffset ? kMaxOffset : offset;
  }

  /// Slot value for `g`, or an all-empty slot when no current-epoch page
  /// covers it.  Never allocates.
  std::uint64_t load_slot(std::uintptr_t g) {
    const std::uint64_t* run = peek_run(g);
    return run == nullptr ? kEmptySlot : *run;
  }

  /// writable_run(g) when a present, current-epoch page covers `g`, else
  /// nullptr: absent and stale pages already read as empty, so clearing
  /// never materializes a page just to store emptiness into it.
  std::uint64_t* clearable_run(std::uintptr_t g);

  /// The table cell holding chunk `key`, or the empty cell where it
  /// would go.  The table must be non-empty.
  Chunk*& table_cell(std::uintptr_t key);
  Chunk* find_chunk(std::uintptr_t key);
  Chunk* ensure_chunk(std::uintptr_t key);
  /// Clone a fork-shared chunk so its cells become mutable; replaces it
  /// in this space's table and returns the exclusive clone.
  Chunk* unshare_chunk(Chunk* chunk);
  /// Drop every chunk reference (releasing chunks and pages that hit
  /// refcount zero) and empty the table.
  void release_directory();
  void invalidate_caches();
  void steal_from(PackedShadow&& other);

  std::shared_ptr<PageArena> arena_;
  // Open-addressed, power-of-two size (or empty); the table is per space,
  // the chunks are shared CoW.
  std::vector<Chunk*> chunks_;
  std::size_t chunk_count_ = 0;
  std::uint64_t epoch_ = 1;
  std::size_t page_count_ = 0;

  // Lookasides.  The read page cache may hold a stale-epoch page (checked
  // on use); the write cache only ever holds a page PROVEN exclusive and
  // current-epoch — a write through a stale pointer would leak into forks
  // or resurrect cleared state.  fork() drops the write cache (mutable,
  // const source).
  std::uintptr_t cached_ckey_ = kNoKey;
  Chunk* cached_chunk_ = nullptr;
  std::uintptr_t cached_pkey_ = kNoKey;
  Page* cached_page_ = nullptr;
  mutable std::uintptr_t wcached_pkey_ = kNoKey;
  mutable std::uint64_t* wcached_slots_ = nullptr;
};

}  // namespace rader::shadow
